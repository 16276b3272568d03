"""Image-style preprocessing pipeline at desk scale.

Builds a synthetic 784-column dataset with 67 exactly-zero columns,
mirrors the usual pipeline — drop constant columns, project onto 20
principal components — and fits a 12-component pooled-covariance mixture
on the projected data with a warm-started run.
"""

import numpy as np

from emvr import Dataset, MinibatchSampler, PooledGmm, StepSchedule, run_algorithm
from emvr.data import (gen_multivariate_mixture, pca_apply, pca_fit,
                       remove_constant_features)
from emvr.gmm import init_random_responsibility

rng = np.random.default_rng(0)
base = gen_multivariate_mixture(n=3000, g=12, p=784, separation=8.0, seed=4)
raw = base.values.copy()
raw[:, rng.choice(784, size=67, replace=False)] = 0.0
data = Dataset(raw, provenance="synthetic-image-stand-in")

dense, kept = remove_constant_features(data)
print(f"columns: {data.dim} -> {dense.dim} after dropping constants")

transform = pca_fit(dense, d_pc=20)
proj = pca_apply(transform, dense)
print(f"top-5 explained variances: {np.round(transform.explained_variance[:5], 2)}")

model = PooledGmm.from_data(12, proj)
s0 = init_random_responsibility(model, proj, seed=0)
gamma = StepSchedule.constant(5e-3)
b = 100

# two epochs of online EM, then SPIDER-EM from where they end, in one trace
trace = run_algorithm("spider-em", model, proj, s0, MinibatchSampler(b, seed=7), gamma,
                      None, k_out=14, k_in=proj.n // b + 1, warm_epochs=2)

for r in trace.records:
    if r.epoch in (0.0, 2.0, 10.0, 20.0, 30.0):
        print(f"epoch {r.epoch:4.0f} [{r.phase:9s}] objective {r.objective:9.4f} "
              f"squared mean-field norm {r.h_sq:.3e}")
print(f"status: {trace.status}; oracle cost {trace.counters}")
