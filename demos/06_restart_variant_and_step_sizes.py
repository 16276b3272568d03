"""The restart variant and the analysis-driven step size.

The restart variant draws a random number of inner difference-estimator
steps per outer loop and restarts from the last iterate with a fresh full
pass.  Under strong curvature its objective gap shrinks geometrically
across outer loops.  The helper at the end turns user-supplied curvature
and spectrum bounds into the constant step size the analysis prescribes.
"""

import numpy as np

from emvr import (MinibatchSampler, ScalarTwoGmm, ScalarTwoGmmParams,
                  StepSchedule, full_stats, objective, run_algorithm,
                  theoretical_step_size)
from emvr.data import gen_scalar_mixture

data = gen_scalar_mixture(n=400, means=(2.0, -2.0), seed=13)
model = ScalarTwoGmm.from_data(data)
s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([3.0, -1.0])))

# reference minimum from a long exact run
w_min = objective(model, data, run_algorithm("em", model, data, s0, k_max=300,
                                             metric_mode="none").s_final)

# seeds(tag) gives the seed of the inner-length draws
trace = run_algorithm("spider-em-pl", model, data, s0, MinibatchSampler(10, seed=17),
                      StepSchedule.constant(0.3), seeds=lambda tag: 5, k_out=10, k_in=41,
                      snapshot_mode="every-update", metric_mode="none")
snaps = trace.snapshot_map()
print("objective gap at each outer restart:")
prev = None
for t in range(1, 11):
    gap = objective(model, data, snaps[(t, 0)]) - w_min
    ratio = "" if prev is None or prev <= 1e-14 else f"   x{gap / prev:.2f}"
    print(f"  outer {t:2d}: {gap:10.3e}{ratio}")
    prev = gap
print("inner lengths drawn:", trace.xi)

gamma, mu_star = theoretical_step_size(L=2.0, v_min=0.5, v_max=1.5,
                                       L_grad_w=3.0, k_in=100, b=100)
print(f"\nprescribed constant step for the given bounds: {gamma:.4f} "
      f"(curvature aggregate {mu_star:.3f})")
