"""Trajectory-level structure of the mixture statistic space.

Statistic vectors built from per-sample responsibilities satisfy two
affine constraints: the mass block sums to one, and the moment blocks sum
to the empirical data mean.  Every update rule conserves the first.  The
second is conserved by the exact refit average and by the store- and
anchor-corrected updates started from an admissible average, because
their corrections subtract the same batch that the step adds; a plain
relaxation toward a minibatch average displaces it by
``gamma * (batch mean - data mean)`` per step.  These tests pin the
conserving cases at tight tolerances and the displacement scale of the
non-conserving one.
"""

import numpy as np
import pytest

from emvr import MinibatchSampler, PooledGmm, StepSchedule, run_algorithm
from emvr.data import gen_multivariate_mixture
from emvr.gmm import init_random_responsibility


@pytest.fixture(scope="module")
def bundle():
    data = gen_multivariate_mixture(600, 4, 3, 4.0, seed=2)
    model = PooledGmm.from_data(4, data)
    s0 = init_random_responsibility(model, data, seed=1)
    return model, data, s0


def _deviations(trace, data, g):
    ybar = data.values.mean(axis=0)
    dm, dmo = 0.0, 0.0
    for _, _, _, s in trace.snapshots:
        dm = max(dm, abs(float(s[:g].sum()) - 1.0))
        dmo = max(dmo, float(np.abs(s[g:].reshape(g, -1).sum(axis=0) - ybar).max()))
    return dm, dmo


def _runs(bundle, names):
    """Each method from the bundle's start on the same batch stream (FIEM's
    second stream seeded 9), snapshotting every update."""
    model, data, s0 = bundle
    return [run_algorithm(name, model, data, s0, MinibatchSampler(30, 0),
                          StepSchedule.constant(0.05), lambda tag: 9, k_max=60, k_out=4,
                          k_in=11, snapshot_mode="every-update", metric_mode="none")
            for name in names]


def test_mass_sum_conserved_by_every_update(bundle):
    for trace in _runs(bundle, ("online-em", "iem", "fiem", "sem-vr", "spider-em")):
        dm, _ = _deviations(trace, bundle[1], 4)
        assert dm <= 1e-12, trace.algorithm


def test_moment_sum_conserved_by_corrected_updates(bundle):
    # store means, anchor control variates and the path-integrated
    # estimator all add and subtract the same batch, so the moment-block
    # sum never moves when the run starts from an exact statistic average
    for trace in _runs(bundle, ("iem", "fiem", "sem-vr", "spider-em")):
        _, dmo = _deviations(trace, bundle[1], 4)
        assert dmo <= 1e-9, (trace.algorithm, dmo)


def test_plain_relaxation_displaces_moment_sum_at_step_scale(bundle):
    # the one quantity the plain stochastic update does not conserve,
    # pinned at its predicted magnitude: a per-step displacement of
    # gamma * (batch mean - data mean) cannot stay below 1e-9
    model, data, s0 = bundle
    gamma = 0.05
    trace = run_algorithm("online-em", model, data, s0, MinibatchSampler(30, 0),
                          StepSchedule.constant(gamma), k_max=60,
                          snapshot_mode="every-update", metric_mode="none")
    _, dmo = _deviations(trace, data, 4)
    per_coord_sd = data.values.std(axis=0).max()
    assert dmo > 1e-6
    assert dmo < 30 * gamma * per_coord_sd
