"""The minibatch family on one problem, sharing the same batch stream.

Runs the plain stochastic-approximation update, the incremental store,
the store-corrected (SAGA-style) update, the anchor-corrected
(SVRG-style) nested loops and the path-integrated difference estimator,
all from the same start, and prints the per-epoch squared mean-field
norm.  The plain update stalls and fluctuates at its step-size noise
floor; every corrected method keeps decreasing at the same oracle budget.
"""

from emvr import MinibatchSampler, PooledGmm, StepSchedule, run_algorithm
from emvr.data import gen_multivariate_mixture
from emvr.gmm import init_kmeans

data = gen_multivariate_mixture(n=2000, g=3, p=2, separation=5.0, seed=1)
model = PooledGmm.from_data(3, data)
s0 = init_kmeans(model, data, seed=1)

b = 50
epochs = 30
per_epoch = data.n // b
gamma = StepSchedule.constant(5e-3)
stream = lambda: MinibatchSampler(b, seed=42)  # same stream for everyone

# a flat method reads k_max, a nested one k_out and k_in; iEM steps at 1
lengths = dict(k_max=epochs * per_epoch, k_out=epochs // 2, k_in=per_epoch + 1)
# seeds(tag) gives the seed of FIEM's second batch stream
runs = {name: run_algorithm(name, model, data, s0, stream(), gamma, seeds=lambda tag: 99,
                            **lengths)
        for name in ("online-em", "iem", "fiem", "sem-vr", "spider-em")}

print(f"{'epoch':>5} " + " ".join(f"{name:>11}" for name in runs))
grid = [5, 10, 20, 30]
for epoch in grid:
    row = []
    for trace in runs.values():
        h = [r.h_sq for r in trace.records if abs(r.epoch - epoch) < 1e-9]
        row.append(f"{h[0]:11.3e}" if h else " " * 11)
    print(f"{epoch:5d} " + " ".join(row))

print("\nterminal oracle cost (conditional expectations, M-steps):")
for name, trace in runs.items():
    print(f"  {name:10s} {trace.counters.ce:8d} {trace.counters.mstep:6d}")
