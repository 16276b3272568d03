"""A run reuses its last monitored pass for a refit at the same iterate.

The reuse must change no output: each run is compared bitwise against the
same run with the reuse forced to miss.  It must also save the passes it
claims to, counted on the model's n-row batch means.
"""

import numpy as np
import pytest

from emvr import (MinibatchSampler, Model, PooledGmm, ScalarTwoGmm,
                  ScalarTwoGmmParams, StepSchedule, full_stats, run_algorithm,
                  run_em)
from emvr.algorithms import ESTIMATORS, _Estimator, _LastPass
from emvr.data import gen_multivariate_mixture, gen_scalar_mixture
from emvr.gmm import init_random_responsibility
from emvr.harness import expected_totals

B, K_MAX, K_IN, K_OUT, WARM = 4, 12, 4, 3, 1


def scalar_case():
    data = gen_scalar_mixture(30, seed=11)
    model = ScalarTwoGmm.from_data(data)
    return model, data, full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))


def pooled_case():
    data = gen_multivariate_mixture(40, 3, 2, 6.0, seed=21)
    model = PooledGmm.from_data(3, data)
    return model, data, init_random_responsibility(model, data, seed=22)


def run(name, case, metric_mode, warm):
    model, data, s0 = case()
    # the warm phase shares the schedule, and unit steps of online EM on
    # four rows leave the pooled mixture's domain
    gamma = 1.0 if ESTIMATORS[name].unit_step and not warm else 0.2
    return run_algorithm(name, model, data, s0, MinibatchSampler(B, seed=5),
                         StepSchedule.constant(gamma),
                         lambda *tags: np.random.SeedSequence([5, *tags]),
                         k_max=K_MAX, k_in=K_IN, k_out=K_OUT, warm_epochs=warm,
                         metric_mode=metric_mode, snapshot_mode="every-update")


def outputs(trace):
    records = [(r.phase, r.t, r.k, r.tau, r.epoch, r.objective, r.h_sq, r.ce, r.mstep)
               for r in trace.records]
    snapshots = [(phase, t, k, s.tobytes()) for phase, t, k, s in trace.snapshots]
    return (trace.algorithm, records, snapshots, trace.counters, trace.monitor,
            trace.status, trace.hit, trace.diverged_at, trace.diverged_reason, trace.xi,
            trace.s_final.tobytes())


def totals(name, n, xi, warm):
    ce, mstep = expected_totals(name, n, b=B, k_in=K_IN, k_out=K_OUT, k_max=K_MAX, xi=xi)
    if warm:
        warm_ce, warm_mstep = expected_totals("online-em", n, b=B,
                                              k_max=warm * max(1, round(n / B)))
        ce, mstep = ce + warm_ce, mstep + warm_mstep
    return ce, mstep


@pytest.mark.parametrize("case", [scalar_case, pooled_case], ids=["scalar", "pooled"])
@pytest.mark.parametrize("metric_mode", ["epoch", "update", "none"])
@pytest.mark.parametrize("warm", [0, WARM], ids=["cold", "warm"])
@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_reuse_changes_no_output(name, case, metric_mode, warm, monkeypatch):
    reused = run(name, case, metric_mode, warm)
    assert reused.status == "completed"
    assert (reused.counters.ce, reused.counters.mstep) == totals(
        name, reused.n, reused.xi, warm)
    monkeypatch.setattr(_LastPass, "get", lambda self, s: None)
    assert outputs(run(name, case, metric_mode, warm)) == outputs(reused)


class NRowSpy(ScalarTwoGmm):
    """The scalar mixture with the default, unfused monitor pass, counting
    its n-row batch means."""

    checkpoint_stats = Model.checkpoint_stats

    def __init__(self):
        super().__init__()
        self.passes = 0

    def batch_mean(self, data, indices, params):
        self.passes += indices is None
        return super().batch_mean(data, indices, params)


def test_em_computes_each_monitored_refit_once():
    data = gen_scalar_mixture(30, seed=11)
    model = NRowSpy()
    s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
    model.passes = 0
    trace = run_em(model, data, s0, 9, metric_mode="epoch")
    # the initial refit and ten monitor passes; all nine updates reuse one
    assert (trace.status, trace.monitor.ce) == ("completed", 10 * data.n)
    assert model.passes == 11


def test_warm_start_hands_its_last_pass_to_the_first_refit(monkeypatch):
    data = gen_scalar_mixture(30, seed=11)
    model = NRowSpy()
    s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
    spent = []
    refit = _Estimator.refit

    def counted(self, s):
        before = model.passes
        out = refit(self, s)
        spent.append((self.name, model.passes - before))
        return out

    monkeypatch.setattr(_Estimator, "refit", counted)
    trace = run_algorithm("spider-em", model, data, s0, MinibatchSampler(B, seed=5),
                          StepSchedule.constant(0.2), None, k_in=K_IN, k_out=K_OUT,
                          warm_epochs=1, metric_mode="none")
    assert trace.status == "completed"
    assert spent[:2] == [("online-em", 1), ("spider-em", 0)]
