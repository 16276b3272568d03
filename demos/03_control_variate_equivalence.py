"""Two descriptions of the same algorithm, verified numerically.

The path-integrated difference estimator can be written either as a
running estimate of the full refit average, advanced by batch
differences, or as a plain stochastic step plus an explicitly accumulated
zero-mean control variate that resets at every full refresh.  Driven by
the same batch stream the two produce the same sequence; this script
measures how close, elementwise, over every iterate.
"""

import numpy as np

from emvr import MinibatchSampler, PooledGmm, StepSchedule, run_algorithm
from emvr.data import gen_multivariate_mixture
from emvr.gmm import init_random_responsibility

data = gen_multivariate_mixture(n=500, g=12, p=5, separation=4.0, seed=11)
model = PooledGmm.from_data(12, data)
s0 = init_random_responsibility(model, data, seed=3)
gamma = StepSchedule.constant(5e-3)

kw = dict(metric_mode="none", snapshot_mode="every-update")
difference_form = run_algorithm("spider-em", model, data, s0, MinibatchSampler(25, seed=5),
                                gamma, k_out=3, k_in=20, **kw)
control_variate_form = run_algorithm("spider-em-cv", model, data, s0,
                                     MinibatchSampler(25, seed=5), gamma, k_out=3, k_in=20,
                                     **kw)

a = difference_form.snapshot_map()
b = control_variate_form.snapshot_map()
worst = max(float(np.abs(a[key] - b[key]).max()) for key in a)
print(f"iterates compared: {len(a)}")
print(f"max elementwise |difference|: {worst:.3e}")
print(f"identical oracle accounting: "
      f"{difference_form.counters == control_variate_form.counters}")
