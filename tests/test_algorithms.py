import re
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from emvr import (WITH_REPLACEMENT, WITHOUT_REPLACEMENT, Dataset,
                  MinibatchSampler, Model, OracleCounters, PerSampleStatStore, PooledGmm,
                  ScalarTwoGmm, ScalarTwoGmmParams,
                  StepSchedule, full_stats, mean_field, minibatch_stats,
                  randomized_terminate, run_algorithm, theoretical_step_size)
from emvr import algorithms
from emvr.algorithms import ESTIMATORS, RunTrace, _run
from emvr.data import gen_multivariate_mixture, gen_scalar_mixture
from emvr.gmm import init_random_responsibility
from emvr.harness import expected_totals


def separated_scalar(n=40, seed=3):
    """Well-separated scalar fixture; EM contracts fast on it."""
    data = gen_scalar_mixture(n, means=(2.0, -2.0), seed=seed)
    model = ScalarTwoGmm.from_data(data)
    s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([2.5, -1.5])))
    return model, data, s0


def overlapping_scalar(n=30, seed=11):
    data = gen_scalar_mixture(n, seed=seed)
    model = ScalarTwoGmm.from_data(data)
    s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
    return model, data, s0


def scalar_posterior_oracle(y, mu, weights=(0.2, 0.8)):
    """Independent posterior computation through scipy densities."""
    num1 = weights[0] * norm.pdf(y, mu[0], 1.0)
    num2 = weights[1] * norm.pdf(y, mu[1], 1.0)
    return num1 / (num1 + num2)


def scalar_sbar_oracle(y, mu):
    p1 = scalar_posterior_oracle(y, mu)
    return np.column_stack([p1, 1 - p1, y * p1, y * (1 - p1)])


def scalar_mstep_oracle(s):
    return np.array([s[2] / s[0], s[3] / s[1]])


class TestSchedules:
    def test_kinds(self):
        assert StepSchedule.constant(0.3)(5) == 0.3
        assert StepSchedule.inverse_sqrt(2.0)(4) == 1.0
        assert StepSchedule.constant(0.0)(1) == 0.0
        with pytest.raises(ValueError):
            StepSchedule.constant(0.3)(0)
        with pytest.raises(ValueError):
            StepSchedule("table", [0.5, 0.25])

    @pytest.mark.parametrize("make, value", [
        (StepSchedule.constant, -1.0), (StepSchedule.constant, float("nan")),
        (StepSchedule.inverse_sqrt, 0.0), (StepSchedule.inverse_sqrt, float("nan"))])
    def test_rejects_bad_values(self, make, value):
        with pytest.raises(ValueError):
            make(value)

    def test_theoretical_step_size(self):
        gamma, mu_star = theoretical_step_size(1.0, 1.0, 1.0, 1.0, k_in=4, b=4)
        assert mu_star == pytest.approx(1.5)
        assert gamma == pytest.approx(1.0 / 3.0)
        # k_in = b collapses the sqrt factor
        _, m1 = theoretical_step_size(2.0, 0.5, 3.0, 4.0, k_in=7, b=7)
        assert m1 == pytest.approx(3.0 + 4.0 / 4.0)
        # larger batches only help
        mus = [theoretical_step_size(1.0, 1.0, 1.0, 1.0, k_in=16, b=b)[1]
               for b in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(mus, mus[1:]))
        with pytest.raises(ValueError):
            theoretical_step_size(0.0, 1.0, 1.0, 1.0, 4, 4)
        with pytest.raises(ValueError, match="v_max"):
            theoretical_step_size(1.0, 1.0, float("nan"), 1.0, 4, 4)


class TestEm:
    def test_fixed_point_stays_fixed(self):
        model, data, s0 = separated_scalar()
        s_star = run_algorithm("em", model, data, s0, k_max=200, metric_mode="none").s_final
        again = run_algorithm("em", model, data, s_star, k_max=5, metric_mode="update")
        snaps = again.column("h_sq")
        assert (snaps <= 1e-20).all()

    def test_well_separated_convergence(self):
        model, data, s0 = separated_scalar()
        trace = run_algorithm("em", model, data, s0, k_max=100, metric_mode="none")
        assert trace.final_record().h_sq <= 1e-12

    def test_counters(self):
        model, data, s0 = separated_scalar()
        trace = run_algorithm("em", model, data, s0, k_max=13)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "em", data.n, k_max=13)


class TestOnlineEm:
    def test_full_batch_unit_step_collapses_to_em(self):
        model, data, s0 = overlapping_scalar()
        em = run_algorithm("em", model, data, s0, k_max=20, snapshot_mode="every-update",
                           metric_mode="none")
        sampler = MinibatchSampler(data.n, seed=0, mode=WITHOUT_REPLACEMENT)
        online = run_algorithm("online-em", model, data, s0, sampler,
                               StepSchedule.constant(1.0), k_max=20,
                               snapshot_mode="every-update", metric_mode="none")
        for (k_a, s_a), (k_b, s_b) in zip(
                sorted((k, s) for _, _, k, s in em.snapshots),
                sorted((k, s) for _, _, k, s in online.snapshots)):
            assert k_a == k_b
            assert np.abs(s_a - s_b).max() <= 1e-12

    def test_zero_step_freezes_after_init(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("online-em", model, data, s0, MinibatchSampler(4, seed=1),
                              StepSchedule.constant(0.0), k_max=10,
                              snapshot_mode="every-update", metric_mode="none")
        states = [s for _, _, k, s in trace.snapshots if k >= 0]
        for s in states[1:]:
            assert np.array_equal(s, states[0])

    def test_one_step_direction_unbiased_by_enumeration(self):
        # exact mean of the update direction over every possible batch
        model, data, _ = overlapping_scalar(n=5)
        s = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([0.6, -0.7])))
        params = model.m_step(s)
        h = mean_field(model, data, s)
        dirs = [minibatch_stats(model, data, list(b), params) - s
                for b in product(range(5), repeat=2)]
        assert np.abs(np.mean(dirs, axis=0) - h).max() <= 1e-12

    def test_counters(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("online-em", model, data, s0, MinibatchSampler(4, seed=1),
                              StepSchedule.constant(0.05), k_max=17)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "online-em", data.n, b=4, k_max=17)


class TestIem:
    def test_store_mean_invariant(self):
        rng = np.random.default_rng(0)
        store = PerSampleStatStore(rng.standard_normal((30, 4)))
        for seed in range(20):
            idx = np.random.default_rng(seed).integers(0, 30, size=6)
            store.update(idx, np.random.default_rng(seed + 99).standard_normal((6, 4)))
            assert np.abs(store.mean - store.exact_mean()).max() <= 1e-10

    def test_store_cap(self):
        with pytest.raises(ValueError):
            PerSampleStatStore(np.zeros((1000, 10)), max_bytes=1000)

    def test_full_batch_refresh_equals_em(self):
        model, data, s0 = overlapping_scalar()
        em = run_algorithm("em", model, data, s0, k_max=10, snapshot_mode="every-update",
                           metric_mode="none")
        sampler = MinibatchSampler(data.n, seed=0, mode=WITHOUT_REPLACEMENT)
        iem = run_algorithm("iem", model, data, s0, sampler, k_max=10,
                            snapshot_mode="every-update", metric_mode="none")
        em_map = {k: s for _, _, k, s in em.snapshots}
        iem_map = {k: s for _, _, k, s in iem.snapshots}
        for k in range(1, 11):
            assert np.abs(em_map[k] - iem_map[k]).max() <= 1e-10

    def test_two_iterations_match_hand_simulation(self):
        y = np.array([0.4, -0.9, 1.3])
        data = Dataset(y)
        model = ScalarTwoGmm.from_data(data)
        s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
        sampler = MinibatchSampler(2, seed=5)
        trace = run_algorithm("iem", model, data, s0, sampler, k_max=2,
                              snapshot_mode="every-update", metric_mode="none")
        # independent replay with scipy densities and explicit bookkeeping
        replay = MinibatchSampler(2, seed=5)
        mu = scalar_mstep_oracle(s0)
        store = scalar_sbar_oracle(y, mu)
        shat = store.mean(axis=0)
        for _ in range(2):
            batch = np.unique(replay.sample(3))
            mu = scalar_mstep_oracle(shat)
            store[batch] = scalar_sbar_oracle(y[batch], mu)
            shat = store.mean(axis=0)
        assert np.abs(trace.s_final - shat).max() <= 1e-12

    def test_counters(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("iem", model, data, s0, MinibatchSampler(3, seed=2), k_max=9)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "iem", data.n, b=3, k_max=9)


class TestFiem:
    def test_direction_unbiased_and_exact_when_store_fresh(self):
        model, data, _ = overlapping_scalar(n=4)
        s = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([0.8, -0.2])))
        params = model.m_step(s)
        h = mean_field(model, data, s)
        rows_fresh = model.sbar_rows(data, None, params)
        store = PerSampleStatStore(rows_fresh.copy())
        # fully refreshed store: the direction equals the mean field for
        # every batch, not just on average
        for b in product(range(4), repeat=1):
            idx = np.array(b)
            direction = (minibatch_stats(model, data, idx, params) - s
                         + store.mean - store.batch_mean(idx))
            assert np.abs(direction - h).max() <= 1e-12
        # stale store: still exactly unbiased over the enumerated batches
        rng = np.random.default_rng(1)
        store = PerSampleStatStore(rows_fresh + 0.3 * rng.standard_normal(rows_fresh.shape))
        dirs = [minibatch_stats(model, data, np.array(b), params) - s
                + store.mean - store.batch_mean(np.array(b))
                for b in product(range(4), repeat=1)]
        assert np.abs(np.mean(dirs, axis=0) - h).max() <= 1e-12

    def test_zero_step_freezes_statistics(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("fiem", model, data, s0, MinibatchSampler(4, seed=1),
                              StepSchedule.constant(0.0), lambda tag: 2, k_max=8,
                              snapshot_mode="every-update", metric_mode="none")
        states = [s for _, _, k, s in trace.snapshots if k >= 0]
        for s in states[1:]:
            assert np.array_equal(s, states[0])
        # the store kept updating: counters advanced at 2b per iteration
        assert trace.counters.ce == data.n + 2 * 4 * 8

    def test_two_iterations_match_hand_simulation(self):
        y = np.array([0.4, -0.9, 1.3])
        data = Dataset(y)
        model = ScalarTwoGmm.from_data(data)
        s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
        gamma = 0.5
        trace = run_algorithm("fiem", model, data, s0, MinibatchSampler(2, seed=5),
                              StepSchedule.constant(gamma), lambda tag: 9, k_max=2,
                              metric_mode="none")
        replay_a = MinibatchSampler(2, seed=5)
        replay_b = MinibatchSampler(2, seed=9)
        mu = scalar_mstep_oracle(s0)
        store = scalar_sbar_oracle(y, mu)
        shat = store.mean(axis=0)
        for _ in range(2):
            mu = scalar_mstep_oracle(shat)
            batch = replay_a.sample(3)
            store[np.unique(batch)] = scalar_sbar_oracle(y[np.unique(batch)], mu)
            batch2 = replay_b.sample(3)
            sb2 = scalar_sbar_oracle(y[batch2], mu).mean(axis=0)
            cv = store.mean(axis=0) - store[batch2].mean(axis=0)
            shat = shat + gamma * (sb2 - shat + cv)
        assert np.abs(trace.s_final - shat).max() <= 1e-12

    def test_counters(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("fiem", model, data, s0, MinibatchSampler(3, seed=2),
                              StepSchedule.constant(0.1), lambda tag: 4, k_max=7)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "fiem", data.n, b=3, k_max=7)


class RowStoreGmm(PooledGmm):
    """The pooled mixture with the default store hooks: the full statistic
    rows, summed plainly; the reference for the posterior store."""

    store_rows = Model.store_rows
    lift_sum = Model.lift_sum


def pooled_case(n, g, p, seed=21):
    data = gen_multivariate_mixture(n, g, p, 6.0, seed=seed)
    return data, init_random_responsibility(PooledGmm.from_data(g, data), data, seed=seed + 1)


class TestPosteriorStore:
    @pytest.mark.parametrize("algo, gamma, warm", [("iem", 1.0, 0), ("fiem", 0.05, 1)])
    def test_matches_row_store_reference(self, algo, gamma, warm):
        data, s0 = pooled_case(300, 4, 3)
        post, rows = (run_algorithm(
            algo, cls.from_data(4, data), data, s0, MinibatchSampler(10, seed=3),
            StepSchedule.constant(gamma), lambda *tags: np.random.SeedSequence([3, *tags]),
            k_max=120, warm_epochs=warm, snapshot_mode="every-update")
            for cls in (PooledGmm, RowStoreGmm))
        assert post.status == rows.status == "completed"
        assert (post.counters, post.monitor) == (rows.counters, rows.monitor)
        # each phase: a start and a refit snapshot, then one per update
        assert len(post.snapshots) == len(rows.snapshots) == (2 + 30) * warm + 2 + 120
        for (phase_a, t_a, k_a, a), (phase_b, t_b, k_b, b) in zip(post.snapshots,
                                                                  rows.snapshots):
            assert (phase_a, t_a, k_a) == (phase_b, t_b, k_b)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        for ra, rb in zip(post.records, rows.records):
            assert ra.h_sq == pytest.approx(rb.h_sq, rel=1e-11)

    def test_store_holds_posteriors(self):
        data, s0 = pooled_case(300, 4, 3)
        est = ESTIMATORS["iem"](PooledGmm.from_data(4, data), data, MinibatchSampler(10, seed=0))
        est.counters = OracleCounters()
        assert np.array_equal(est.refit(s0), full_stats(est.model, data, est.model.m_step(s0)))
        assert est.store.rows.shape == (300, 4)

    def test_running_mean_does_not_drift(self):
        # the gmm-vr benchmark's shape over ten epochs of iEM updates
        data, s0 = pooled_case(5000, 12, 20)
        est = ESTIMATORS["iem"](PooledGmm.from_data(12, data), data,
                                MinibatchSampler(100, seed=0))
        est.counters = OracleCounters()
        s = est.refit(s0)
        worst = 0.0
        for tau in range(1, 501):
            s = s + est.direction(s)
            if tau % 50 == 0:
                worst = max(worst, np.abs(est.store.mean - est.store.exact_mean()).max())
        assert worst <= 1e-12


class TestSemVr:
    def test_anchor_control_variate_zero_mean_by_enumeration(self):
        model, data, _ = overlapping_scalar(n=5)
        anchor = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([0.9, -0.4])))
        params_anchor = model.m_step(anchor)
        s_anchor_full = full_stats(model, data, params_anchor)
        cvs = [s_anchor_full - minibatch_stats(model, data, list(b), params_anchor)
               for b in product(range(5), repeat=2)]
        assert np.abs(np.mean(cvs, axis=0)).max() <= 1e-12
        subs = [s_anchor_full - minibatch_stats(model, data, list(b), params_anchor)
                for b in combinations(range(5), 2)]
        assert np.abs(np.mean(subs, axis=0)).max() <= 1e-12

    def test_full_batch_unit_step_collapses_to_em(self):
        # the spider/anchor iterate (t, k) carries (t-1)*k_in + k refit
        # applications of the exact EM map, starting from zero at (1, 0);
        # the EM trace's iterate k carries k + 1 of them
        model, data, s0 = overlapping_scalar()
        em = run_algorithm("em", model, data, s0, k_max=20, snapshot_mode="every-update",
                           metric_mode="none")
        sampler = MinibatchSampler(data.n, seed=0, mode=WITHOUT_REPLACEMENT)
        semvr = run_algorithm("sem-vr", model, data, s0, sampler,
                              StepSchedule.constant(1.0), k_out=4, k_in=5,
                              snapshot_mode="every-update", metric_mode="none")
        em_map = {k: s for _, _, k, s in em.snapshots if k >= 0}
        for _, t, k, s in semvr.snapshots:
            if k < 0:
                continue
            tau = (t - 1) * 5 + k
            target = s0 if tau == 0 else em_map[tau - 1]
            assert np.abs(s - target).max() <= 1e-12

    def test_two_by_three_matches_hand_simulation(self):
        y = np.array([0.4, -0.9, 1.3, -0.2])
        data = Dataset(y)
        model = ScalarTwoGmm.from_data(data)
        s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
        gamma = 0.4
        trace = run_algorithm("sem-vr", model, data, s0, MinibatchSampler(2, seed=8),
                              StepSchedule.constant(gamma), k_out=2, k_in=3,
                              metric_mode="none")
        replay = MinibatchSampler(2, seed=8)
        shat = s0.copy()
        mu_anchor = scalar_mstep_oracle(s0)
        s_anchor = scalar_sbar_oracle(y, mu_anchor).mean(axis=0)
        for _t in range(2):
            for _k in range(2):
                batch = replay.sample(4)
                cv = s_anchor - scalar_sbar_oracle(y[batch], mu_anchor).mean(axis=0)
                sb = scalar_sbar_oracle(y[batch], scalar_mstep_oracle(shat)).mean(axis=0)
                shat = shat + gamma * (sb - shat + cv)
            mu_anchor = scalar_mstep_oracle(shat)
            s_anchor = scalar_sbar_oracle(y, mu_anchor).mean(axis=0)
            shat = shat + gamma * (s_anchor - shat)
        assert np.abs(trace.s_final - shat).max() <= 1e-12

    def test_counters(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("sem-vr", model, data, s0, MinibatchSampler(3, seed=2),
                              StepSchedule.constant(0.1), k_out=4, k_in=6)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "sem-vr", data.n, b=3, k_in=6, k_out=4)

    def test_k_in_validation(self):
        model, data, s0 = overlapping_scalar()
        with pytest.raises(ValueError):
            run_algorithm("sem-vr", model, data, s0, MinibatchSampler(3, seed=2),
                          StepSchedule.constant(0.1), k_out=1, k_in=1)


class TestSpiderEm:
    def test_full_batch_unit_step_telescopes_to_em(self):
        # with b = n the batch differences telescope exactly, so the running
        # estimate always equals the refit average of the previous iterate
        # and every update is an EM update
        model, data, s0 = overlapping_scalar()
        em = run_algorithm("em", model, data, s0, k_max=20, snapshot_mode="every-update",
                           metric_mode="none")
        sampler = MinibatchSampler(data.n, seed=0, mode=WITHOUT_REPLACEMENT)
        spider = run_algorithm("spider-em", model, data, s0, sampler,
                               StepSchedule.constant(1.0), k_out=4, k_in=5,
                               snapshot_mode="every-update", metric_mode="none")
        em_map = {k: s for _, _, k, s in em.snapshots if k >= 0}
        for _, t, k, s in spider.snapshots:
            if k < 0:
                continue
            tau = (t - 1) * 5 + k
            target = s0 if tau == 0 else em_map[tau - 1]
            assert np.abs(s - target).max() <= 1e-12

    def test_trajectory_equals_cv_form(self):
        model, data, s0 = overlapping_scalar()
        kw = dict(snapshot_mode="every-update", metric_mode="none")
        a = run_algorithm("spider-em", model, data, s0, MinibatchSampler(4, seed=21),
                          StepSchedule.constant(0.3), k_out=4, k_in=6, **kw)
        b = run_algorithm("spider-em-cv", model, data, s0, MinibatchSampler(4, seed=21),
                          StepSchedule.constant(0.3), k_out=4, k_in=6, **kw)
        sa, sb = a.snapshot_map(), b.snapshot_map()
        assert sorted(sa) == sorted(sb)
        worst = max(np.abs(sa[key] - sb[key]).max() for key in sa)
        assert worst <= 1e-10

    def test_one_step_bias_identity_by_enumeration(self):
        # the conditional mean of the update direction is the mean field
        # plus the measurable gap between the running estimate and the
        # refit average at the lagged iterate
        model, data, _ = overlapping_scalar(n=5)
        s_prev = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([0.9, -0.4])))
        s_cur = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([0.7, -0.6])))
        s_est = s_prev + np.array([0.01, -0.01, 0.02, 0.0])
        params_cur = model.m_step(s_cur)
        params_prev = model.m_step(s_prev)
        h = mean_field(model, data, s_cur)
        bias = s_est - full_stats(model, data, params_prev)
        dirs = [s_est
                + minibatch_stats(model, data, list(b), params_cur)
                - minibatch_stats(model, data, list(b), params_prev)
                - s_cur
                for b in product(range(5), repeat=2)]
        assert np.abs(np.mean(dirs, axis=0) - (h + bias)).max() <= 1e-12

    def test_two_by_three_matches_hand_simulation(self):
        y = np.array([0.4, -0.9, 1.3, -0.2])
        data = Dataset(y)
        model = ScalarTwoGmm.from_data(data)
        s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
        gamma = 0.4
        trace = run_algorithm("spider-em", model, data, s0, MinibatchSampler(2, seed=8),
                              StepSchedule.constant(gamma), k_out=2, k_in=3,
                              metric_mode="none")
        replay = MinibatchSampler(2, seed=8)
        shat = s0.copy()
        mu_prev = scalar_mstep_oracle(s0)
        s_est = scalar_sbar_oracle(y, mu_prev).mean(axis=0)
        for _t in range(2):
            for _k in range(2):
                batch = replay.sample(4)
                mu_cur = scalar_mstep_oracle(shat)
                s_est = s_est + (scalar_sbar_oracle(y[batch], mu_cur).mean(axis=0)
                                 - scalar_sbar_oracle(y[batch], mu_prev).mean(axis=0))
                shat = shat + gamma * (s_est - shat)
                mu_prev = mu_cur
            mu_prev = scalar_mstep_oracle(shat)
            s_est = scalar_sbar_oracle(y, mu_prev).mean(axis=0)
            shat = shat + gamma * (s_est - shat)
        assert np.abs(trace.s_final - shat).max() <= 1e-12

    def test_counters(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("spider-em", model, data, s0, MinibatchSampler(3, seed=2),
                              StepSchedule.constant(0.1), k_out=4, k_in=6)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "spider-em", data.n, b=3, k_in=6, k_out=4)


class TestSpiderEmCv:
    def test_first_inner_control_variate_zero_mean(self):
        model, data, _ = overlapping_scalar(n=5)
        s_init = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([0.9, -0.4])))
        params = model.m_step(s_init)
        s_full = full_stats(model, data, params)
        cvs = [s_full - minibatch_stats(model, data, list(b), params)
               for b in product(range(5), repeat=2)]
        assert np.abs(np.mean(cvs, axis=0)).max() <= 1e-12

    def test_degenerate_inner_length(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("spider-em-cv", model, data, s0, MinibatchSampler(3, seed=2),
                              StepSchedule.constant(0.1), k_out=3, k_in=2)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "spider-em-cv", data.n, b=3, k_in=2, k_out=3)
        # one inner update plus one refresh update per outer loop
        assert trace.final_record().tau == 3 * 2


class _ForcedRng:
    """Stub generator returning the maximal inner length every time."""

    def __init__(self, value):
        self.value = value

    def integers(self, low, high):
        return self.value


class TestSpiderEmPl:
    def test_forced_full_length_matches_plain_inner_loops(self):
        model, data, s0 = overlapping_scalar()
        kw = dict(snapshot_mode="every-update", metric_mode="none")
        spider = run_algorithm("spider-em", model, data, s0, MinibatchSampler(4, seed=31),
                               StepSchedule.constant(0.3), k_out=2, k_in=5, **kw)
        est = ESTIMATORS["spider-em-pl"](model, data, MinibatchSampler(4, seed=31),
                                         lambda tag: 0)
        est.rng = _ForcedRng(4)
        pl = _run(est, s0, StepSchedule.constant(0.3), kw, k_in=5, k_out=2)
        sp, pp = spider.snapshot_map(), pl.snapshot_map()
        # identical inner iterates through the whole first outer loop
        for k in range(5):
            assert np.array_equal(sp[(1, k)], pp[(1, k)])
        # the restart hands over the undamped last inner iterate, while the
        # plain variant applies a damped refresh step
        assert np.array_equal(pp[(2, 0)], sp[(2, -1)])
        assert not np.array_equal(pp[(2, 0)], sp[(2, 0)])

    def test_counters_per_outer_loop(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("spider-em-pl", model, data, s0, MinibatchSampler(4, seed=3),
                              StepSchedule.constant(0.2), lambda tag: 7, k_out=6, k_in=5,
                              metric_mode="none")
        assert len(trace.xi) == 6
        assert all(1 <= xi <= 4 for xi in trace.xi)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "spider-em-pl", data.n, b=4, xi=trace.xi)

    def test_objective_gap_decays_geometrically(self):
        model, data, s0 = separated_scalar(n=200, seed=13)
        w_star = run_algorithm("em", model, data, s0, k_max=300, metric_mode="none")
        from emvr import objective
        w_min = objective(model, data, w_star.s_final)
        trace = run_algorithm("spider-em-pl", model, data, s0,
                              MinibatchSampler(10, seed=17), StepSchedule.constant(0.3),
                              lambda tag: 5, k_out=12, k_in=21,
                              snapshot_mode="every-update", metric_mode="none")
        snaps = trace.snapshot_map()
        gaps = [objective(model, data, snaps[(t, 0)]) - w_min
                for t in range(1, 13) if (t, 0) in snaps]
        ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-14]
        assert np.median(ratios) <= 0.95


class TestHybridWarmStart:
    def test_zero_epochs_is_identity(self):
        model, data, s0 = overlapping_scalar()
        gamma = StepSchedule.constant(0.2)
        direct = run_algorithm("spider-em", model, data, s0, MinibatchSampler(4, seed=9),
                               gamma, k_out=2, k_in=4, metric_mode="none")
        hybrid = run_algorithm("spider-em", model, data, s0, MinibatchSampler(4, seed=9),
                               gamma, None, k_in=4, k_out=2, warm_epochs=0,
                               metric_mode="none")
        assert np.array_equal(direct.s_final, hybrid.s_final)
        assert direct.counters == hybrid.counters

    def test_phase_boundary_and_additive_counters(self):
        model, data, s0 = overlapping_scalar(n=32)
        gamma = StepSchedule.constant(0.2)
        trace = run_algorithm("spider-em", model, data, s0, MinibatchSampler(4, seed=9),
                              gamma, None, k_in=9, k_out=3, warm_epochs=2,
                              metric_mode="epoch")
        phases = [(r.phase, r.epoch) for r in trace.records]
        warm = [e for p, e in phases if p == "warmup"]
        rest = [e for p, e in phases if p != "warmup"]
        assert max(warm) == 2.0 and min(rest) >= 2.0
        # counters equal warm phase plus main phase closed forms
        warm_ce = data.n + 4 * 2 * (32 // 4)
        main_ce, main_m = expected_totals("spider-em", data.n, b=4, k_in=9, k_out=3)
        assert trace.counters.ce == warm_ce + main_ce
        assert trace.counters.mstep == (1 + 16) + main_m

    def test_epochs_count_selections_across_the_handoff(self):
        # b = 4 does not divide n = 30: two warm epochs are 16 batches, 2.133 passes
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("fiem", model, data, s0, MinibatchSampler(4, seed=9),
                              StepSchedule.constant(0.2),
                              lambda *tags: np.random.SeedSequence([9, *tags]),
                              k_max=24, warm_epochs=2, metric_mode="epoch")
        assert trace.status == "completed"
        assert {r.phase for r in trace.records} == {"warmup", "fiem"}
        for r in trace.records:
            assert abs(r.epoch * data.n - r.tau * 4) <= 1e-12


class TestRandomizedTermination:
    def test_degenerate_trace_returns_start(self):
        s = np.array([1.0, 2.0])
        trace = RunTrace("spider-em", n=4, k_in=1, k_out=1)
        trace.snapshots = [("spider-em", 1, -1, s)]
        t, xi, out = randomized_terminate(trace, np.random.default_rng(0))
        assert (t, xi) == (1, 0)
        assert np.array_equal(out, s)

    def test_uniformity_chi_squared(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("spider-em", model, data, s0, MinibatchSampler(4, seed=5),
                              StepSchedule.constant(0.2), k_out=3, k_in=4,
                              snapshot_mode="every-update", metric_mode="none")
        rng = np.random.default_rng(123)
        counts = {}
        draws = 10_000
        for _ in range(draws):
            t, xi, _ = randomized_terminate(trace, rng)
            counts[(t, xi)] = counts.get((t, xi), 0) + 1
        cells = 3 * 4
        expect = draws / cells
        chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
        # chi-square 1% critical value, 11 degrees of freedom
        assert len(counts) == cells
        assert chi2 <= 24.725

    def test_average_over_cells_equals_uniform_average(self):
        # force the selector through every (outer, inner) cell: the average
        # of the squared mean field at the returned iterates must equal the
        # direct average over the lagged snapshots, cell for cell
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("spider-em", model, data, s0, MinibatchSampler(4, seed=5),
                              StepSchedule.constant(0.2), k_out=3, k_in=4,
                              snapshot_mode="every-update", metric_mode="none")

        class CellRng:
            def __init__(self, values):
                self._it = iter(values)

            def integers(self, low, high):
                return next(self._it)

        snaps = trace.snapshot_map()
        via_selector = []
        direct = []
        for t in range(1, 4):
            for xi in range(4):
                tt, xx, s = randomized_terminate(trace, CellRng([t, xi]))
                assert (tt, xx) == (t, xi)
                via_selector.append(float((mean_field(model, data, s) ** 2).sum()))
                direct.append(float((mean_field(model, data,
                                                snaps[(t, xi - 1)]) ** 2).sum()))
        assert via_selector == direct
        assert np.mean(via_selector) == pytest.approx(np.mean(direct), rel=0, abs=0)

    def test_requires_snapshots(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("spider-em", model, data, s0, MinibatchSampler(4, seed=5),
                              StepSchedule.constant(0.2), k_out=2, k_in=3,
                              metric_mode="none")
        with pytest.raises(NotImplementedError):
            randomized_terminate(trace, np.random.default_rng(0))


class OracleGuard(ScalarTwoGmm):
    """The scalar mixture with every oracle call an error."""

    def _called(self, *args, **kwargs):
        raise AssertionError("oracle called")

    m_step = batch_mean = sbar_rows = store_rows = checkpoint_stats = _called


def every_run(model, data, s0, **method):
    """Each registered method once, and a warm start, as a function of the
    recording keywords."""
    smp, gamma = MinibatchSampler(4, seed=1), StepSchedule.constant(0.2)
    lengths = dict(k_max=3, k_in=3, k_out=2)
    runs = [partial(run_algorithm, name, model, data, s0, smp, gamma, lambda tag: tag,
                    **lengths, **method) for name in ESTIMATORS]
    return runs + [partial(run_algorithm, "spider-em", model, data, s0, smp, gamma,
                           **lengths, warm_epochs=1)]


class TestRecordingKeywords:
    @pytest.mark.parametrize("record, error", [
        (dict(bogus=1), TypeError),
        (dict(metric_mode="bogus"), ValueError),
        (dict(snapshot_mode="bogus"), ValueError),
    ])
    def test_rejected_before_any_oracle_call(self, record, error):
        _, data, s0 = overlapping_scalar()
        for run in every_run(OracleGuard(), data, s0):
            with pytest.raises(error):
                run(**record)

    def test_method_arguments_are_not_recording_keywords(self, monkeypatch):
        seen = []

        class Spy(algorithms._Recorder):
            def __init__(self, *args, **record):
                seen.append(sorted(record))
                super().__init__(*args, **record)

        monkeypatch.setattr(algorithms, "_Recorder", Spy)
        model, data, s0 = overlapping_scalar()
        with pytest.raises(TypeError):
            run_algorithm("em", OracleGuard(), data, s0, k_max=3, bogus=1)
        for run in every_run(model, data, s0, outer_gamma=0.5, warm_epochs=1):
            assert run(metric_mode="none").status == "completed"
        # k_max, k_in, k_out, outer_gamma and warm_epochs stay with the method
        assert seen == [["bogus"]] + [["metric_mode"]] * (len(ESTIMATORS) + 1)


class TestMissingSampler:
    def test_rejected_before_any_oracle_call(self):
        _, data, s0 = overlapping_scalar()
        model, gamma = OracleGuard(), StepSchedule.constant(0.2)
        runs = [  # (method that needs the sampler, call without one)
            ("online-em", partial(run_algorithm, "em", model, data, s0, None, None, None,
                                  k_max=3, warm_epochs=1)),
            ("online-em", partial(run_algorithm, "online-em", model, data, s0, None, gamma,
                                  None, k_max=3)),
            ("fiem", partial(run_algorithm, "fiem", model, data, s0, None, gamma, None,
                             k_max=3)),
            ("spider-em", partial(run_algorithm, "spider-em", model, data, s0, None, gamma,
                                  None, k_in=3, k_out=2)),
        ]
        for name, run in runs:
            with pytest.raises(ValueError, match=f"^{name} needs a minibatch sampler"):
                run()

    def test_missing_schedule_or_seeds_rejected_before_any_oracle_call(self):
        _, data, s0 = overlapping_scalar()
        model, smp = OracleGuard(), MinibatchSampler(4, 1)
        lengths = dict(k_max=3, k_in=3, k_out=2)
        for name in [name for name, est in ESTIMATORS.items() if not est.unit_step]:
            with pytest.raises(ValueError, match=f"^{name} needs a step schedule, got None$"):
                run_algorithm(name, model, data, s0, smp, None, lambda tag: tag, **lengths)
        # EM runs at step 1, but its warm phase needs the schedule
        with pytest.raises(ValueError, match="^online-em needs a step schedule, got None$"):
            run_algorithm("em", model, data, s0, smp, k_max=3, warm_epochs=1)
        for name in ("fiem", "spider-em-pl"):
            with pytest.raises(ValueError, match=f"^{name} needs a seed stream, got None$"):
                run_algorithm(name, model, data, s0, smp, StepSchedule.constant(0.2),
                              **lengths)

    def test_missing_or_bad_run_length_rejected_before_any_oracle_call(self):
        model, data, s0 = overlapping_scalar()
        smp, gamma = MinibatchSampler(4, 1), StepSchedule.constant(0.2)
        for name, est in ESTIMATORS.items():
            bad = ([({}, "k_max >= 0, got None"), (dict(k_max=-3), "k_max >= 0, got -3")]
                   if est.refresh is None else
                   [(dict(k_out=2), "k_in >= 2, got None"),
                    (dict(k_in=1, k_out=2), "k_in >= 2, got 1"),
                    (dict(k_in=3), "k_out >= 0, got None"),
                    (dict(k_in=3, k_out=-1), "k_out >= 0, got -1")])
            for lengths, message in bad:
                with pytest.raises(ValueError, match=f"^{name} needs {message}$"):
                    run_algorithm(name, OracleGuard(), data, s0, smp, gamma,
                                  lambda tag: tag, **lengths)
            # no updates, or no outer loops, is a run of the initial refit alone
            trace = run_algorithm(name, model, data, s0, smp, gamma, lambda tag: tag,
                                  k_max=0, k_in=2, k_out=0, metric_mode="none")
            assert (trace.status, trace.counters.ce, trace.counters.mstep) == (
                "completed", data.n, 1)

    def test_unknown_method_lists_the_registry(self):
        _, data, s0 = overlapping_scalar()
        registered = re.escape(", ".join(ESTIMATORS))
        with pytest.raises(ValueError, match=f"^unknown method 'bogus'; registered: "
                                             f"{registered}$"):
            run_algorithm("bogus", OracleGuard(), data, s0, k_max=3)

    def test_unit_step_methods_ignore_the_schedule(self):
        model, data, s0 = overlapping_scalar()
        for name in ("em", "iem"):
            a, b = (run_algorithm(name, model, data, s0, MinibatchSampler(3, seed=2), sched,
                                  k_max=5, metric_mode="none")
                    for sched in (None, StepSchedule.constant(0.5)))
            assert a.s_final.tobytes() == b.s_final.tobytes()


def _outcome(trace: RunTrace):
    """A trace's bits apart from wall times."""
    records = [(r.phase, r.t, r.k, r.tau, r.epoch, r.objective, r.h_sq, r.ce, r.mstep)
               for r in trace.records]
    return (trace.status, trace.s_final.tobytes(), trace.counters, trace.monitor,
            trace.xi, records)


class TestRegistryProperty:
    @settings(max_examples=1200, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(ESTIMATORS)), n=st.integers(8, 60),
           b=st.integers(1, 8), k_max=st.integers(0, 6), k_in=st.integers(2, 6),
           k_out=st.integers(0, 3), mode=st.sampled_from([WITH_REPLACEMENT,
                                                          WITHOUT_REPLACEMENT]),
           gamma=st.floats(0.01, 0.2), seed=st.integers(0, 2**16))
    def test_every_method_counts_reproduces_and_ignores_the_monitor(
            self, name, n, b, k_max, k_in, k_out, mode, gamma, seed):
        model, data, s0 = overlapping_scalar(n=n)

        def go(metric_mode):
            return run_algorithm(
                name, model, data, s0, MinibatchSampler(b, seed, mode=mode),
                StepSchedule.constant(gamma), lambda tag: np.random.SeedSequence([seed, tag]),
                k_max=k_max, k_in=k_in, k_out=k_out, metric_mode=metric_mode)

        monitored, again, quiet = go("epoch"), go("epoch"), go("none")
        assert monitored.status == "completed"
        assert (monitored.counters.ce, monitored.counters.mstep) == expected_totals(
            name, n, b=b, k_in=k_in, k_out=k_out, k_max=k_max, xi=monitored.xi)
        # the monitor costs its own counter only and leaves the trajectory alone
        assert (quiet.counters, quiet.xi, quiet.s_final.tobytes()) == (
            monitored.counters, monitored.xi, monitored.s_final.tobytes())
        assert _outcome(again) == _outcome(monitored)


class TestDeterminismAndDivergence:
    def test_identical_seeds_identical_traces(self):
        model, data, s0 = overlapping_scalar()

        def go():
            return run_algorithm("spider-em", model, data, s0, MinibatchSampler(4, seed=77),
                                 StepSchedule.constant(0.2), k_out=3, k_in=5,
                                 snapshot_mode="every-update")

        a, b = go(), go()
        assert [(r.t, r.k, r.tau, r.objective, r.h_sq) for r in a.records] == \
               [(r.t, r.k, r.tau, r.objective, r.h_sq) for r in b.records]
        for (pa, ta, ka, sa), (pb, tb, kb, sb) in zip(a.snapshots, b.snapshots):
            assert (pa, ta, ka) == (pb, tb, kb)
            assert np.array_equal(sa, sb)

    def test_oversized_step_marks_divergence(self):
        model, data, s0 = overlapping_scalar()
        trace = run_algorithm("online-em", model, data, s0, MinibatchSampler(2, seed=0),
                              StepSchedule.constant(25.0), k_max=400, metric_mode="none")
        assert trace.status == "diverged"
        assert trace.diverged_at is not None

    def test_epsilon_stops_run(self):
        model, data, s0 = separated_scalar()
        trace = run_algorithm("em", model, data, s0, k_max=500, metric_mode="update",
                              epsilon=1e-9)
        assert trace.status == "hit-eps"
        assert trace.hit is not None
        assert trace.final_record().h_sq <= 1e-9

    def test_callback_stop(self):
        model, data, s0 = overlapping_scalar()
        seen = []

        def cb(phase, t, k, s, counters):
            seen.append((t, k))
            return len(seen) < 3

        trace = run_algorithm("em", model, data, s0, k_max=50, metric_mode="update",
                              callback=cb)
        assert trace.status == "stopped"
        assert len(seen) == 3
