from itertools import combinations, product

import numpy as np
import pytest
from scipy.stats import norm

from emvr import (WITHOUT_REPLACEMENT, Dataset, MinibatchSampler,
                  PerSampleStatStore, ScalarTwoGmm, ScalarTwoGmmParams,
                  StepSchedule, full_stats, hybrid_warm_start, mean_field,
                  minibatch_stats, randomized_terminate, run_em, run_fiem,
                  run_iem, run_online_em, run_sem_vr, run_spider_em,
                  run_spider_em_cv, run_spider_em_pl, theoretical_step_size)
from emvr.algorithms import RunTrace
from emvr.data import gen_scalar_mixture
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
        table = StepSchedule.from_table([0.5, 0.25])
        assert table(1) == 0.5 and table(2) == 0.25
        with pytest.raises(ValueError):
            table(3)
        with pytest.raises(ValueError):
            StepSchedule.constant(-1.0)
        with pytest.raises(ValueError):
            StepSchedule.inverse_sqrt(0.0)

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


class TestEm:
    def test_fixed_point_stays_fixed(self):
        model, data, s0 = separated_scalar()
        s_star = run_em(model, data, s0, 200, metric_mode="none").s_final
        again = run_em(model, data, s_star, 5, metric_mode="update")
        snaps = again.column("h_sq")
        assert (snaps <= 1e-20).all()

    def test_well_separated_convergence(self):
        model, data, s0 = separated_scalar()
        trace = run_em(model, data, s0, 100, metric_mode="none")
        assert trace.final_record().h_sq <= 1e-12

    def test_counters(self):
        model, data, s0 = separated_scalar()
        trace = run_em(model, data, s0, 13)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "em", data.n, k_max=13)


class TestOnlineEm:
    def test_full_batch_unit_step_collapses_to_em(self):
        model, data, s0 = overlapping_scalar()
        em = run_em(model, data, s0, 20, snapshot_mode="every-update",
                    metric_mode="none")
        sampler = MinibatchSampler(data.n, seed=0, mode=WITHOUT_REPLACEMENT)
        online = run_online_em(model, data, s0, sampler, StepSchedule.constant(1.0),
                               20, snapshot_mode="every-update", metric_mode="none")
        for (k_a, s_a), (k_b, s_b) in zip(
                sorted((k, s) for _, _, k, s in em.snapshots),
                sorted((k, s) for _, _, k, s in online.snapshots)):
            assert k_a == k_b
            assert np.abs(s_a - s_b).max() <= 1e-12

    def test_zero_step_freezes_after_init(self):
        model, data, s0 = overlapping_scalar()
        trace = run_online_em(model, data, s0, MinibatchSampler(4, seed=1),
                              StepSchedule.constant(0.0), 10,
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
        trace = run_online_em(model, data, s0, MinibatchSampler(4, seed=1),
                              StepSchedule.constant(0.05), 17)
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
        em = run_em(model, data, s0, 10, snapshot_mode="every-update",
                    metric_mode="none")
        sampler = MinibatchSampler(data.n, seed=0, mode=WITHOUT_REPLACEMENT)
        iem = run_iem(model, data, s0, sampler, StepSchedule.constant(1.0), 10,
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
        trace = run_iem(model, data, s0, sampler, StepSchedule.constant(1.0), 2,
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
        trace = run_iem(model, data, s0, MinibatchSampler(3, seed=2), None, 9)
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
        trace = run_fiem(model, data, s0, MinibatchSampler(4, seed=1),
                         MinibatchSampler(4, seed=2), StepSchedule.constant(0.0), 8,
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
        trace = run_fiem(model, data, s0, MinibatchSampler(2, seed=5),
                         MinibatchSampler(2, seed=9), StepSchedule.constant(gamma), 2,
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
        trace = run_fiem(model, data, s0, MinibatchSampler(3, seed=2),
                         MinibatchSampler(3, seed=4), StepSchedule.constant(0.1), 7)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "fiem", data.n, b=3, k_max=7)


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
        em = run_em(model, data, s0, 20, snapshot_mode="every-update",
                    metric_mode="none")
        sampler = MinibatchSampler(data.n, seed=0, mode=WITHOUT_REPLACEMENT)
        semvr = run_sem_vr(model, data, s0, sampler, StepSchedule.constant(1.0),
                           k_out=4, k_in=5, snapshot_mode="every-update",
                           metric_mode="none")
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
        trace = run_sem_vr(model, data, s0, MinibatchSampler(2, seed=8),
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
        trace = run_sem_vr(model, data, s0, MinibatchSampler(3, seed=2),
                           StepSchedule.constant(0.1), k_out=4, k_in=6)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "sem-vr", data.n, b=3, k_in=6, k_out=4)

    def test_k_in_validation(self):
        model, data, s0 = overlapping_scalar()
        with pytest.raises(ValueError):
            run_sem_vr(model, data, s0, MinibatchSampler(3, seed=2),
                       StepSchedule.constant(0.1), k_out=1, k_in=1)


class TestSpiderEm:
    def test_full_batch_unit_step_telescopes_to_em(self):
        # with b = n the batch differences telescope exactly, so the running
        # estimate always equals the refit average of the previous iterate
        # and every update is an EM update
        model, data, s0 = overlapping_scalar()
        em = run_em(model, data, s0, 20, snapshot_mode="every-update",
                    metric_mode="none")
        sampler = MinibatchSampler(data.n, seed=0, mode=WITHOUT_REPLACEMENT)
        spider = run_spider_em(model, data, s0, sampler, StepSchedule.constant(1.0),
                               k_out=4, k_in=5, snapshot_mode="every-update",
                               metric_mode="none")
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
        a = run_spider_em(model, data, s0, MinibatchSampler(4, seed=21),
                          StepSchedule.constant(0.3), 4, 6, **kw)
        b = run_spider_em_cv(model, data, s0, MinibatchSampler(4, seed=21),
                             StepSchedule.constant(0.3), 4, 6, **kw)
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
        trace = run_spider_em(model, data, s0, MinibatchSampler(2, seed=8),
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
        trace = run_spider_em(model, data, s0, MinibatchSampler(3, seed=2),
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
        trace = run_spider_em_cv(model, data, s0, MinibatchSampler(3, seed=2),
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
        spider = run_spider_em(model, data, s0, MinibatchSampler(4, seed=31),
                               StepSchedule.constant(0.3), 2, 5, **kw)
        pl = run_spider_em_pl(model, data, s0, MinibatchSampler(4, seed=31),
                              StepSchedule.constant(0.3), 2, 5, _ForcedRng(4), **kw)
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
        rng = np.random.default_rng(7)
        trace = run_spider_em_pl(model, data, s0, MinibatchSampler(4, seed=3),
                                 StepSchedule.constant(0.2), 6, 5, rng,
                                 metric_mode="none")
        assert len(trace.xi) == 6
        assert all(1 <= xi <= 4 for xi in trace.xi)
        assert (trace.counters.ce, trace.counters.mstep) == expected_totals(
            "spider-em-pl", data.n, b=4, xi=trace.xi)

    def test_objective_gap_decays_geometrically(self):
        model, data, s0 = separated_scalar(n=200, seed=13)
        w_star = run_em(model, data, s0, 300, metric_mode="none")
        from emvr import objective
        w_min = objective(model, data, w_star.s_final)
        rng = np.random.default_rng(5)
        trace = run_spider_em_pl(model, data, s0, MinibatchSampler(10, seed=17),
                                 StepSchedule.constant(0.3), 12, 21, rng,
                                 snapshot_mode="every-update", metric_mode="none")
        snaps = trace.snapshot_map()
        gaps = [objective(model, data, snaps[(t, 0)]) - w_min
                for t in range(1, 13) if (t, 0) in snaps]
        ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-14]
        assert np.median(ratios) <= 0.95


class TestHybridWarmStart:
    def test_zero_epochs_is_identity(self):
        model, data, s0 = overlapping_scalar()

        def main(s, sampler):
            return run_spider_em(model, data, s, sampler, StepSchedule.constant(0.2),
                                 2, 4, metric_mode="none")

        direct = main(s0, MinibatchSampler(4, seed=9))
        hybrid = hybrid_warm_start(model, data, s0, MinibatchSampler(4, seed=9),
                                   StepSchedule.constant(0.2), 0, main)
        assert np.array_equal(direct.s_final, hybrid.s_final)
        assert direct.counters == hybrid.counters

    def test_phase_boundary_and_additive_counters(self):
        model, data, s0 = overlapping_scalar(n=32)
        gamma = StepSchedule.constant(0.2)

        def main(s, sampler):
            return run_spider_em(model, data, s, sampler, gamma, 3, 9,
                                 metric_mode="epoch")

        trace = hybrid_warm_start(model, data, s0, MinibatchSampler(4, seed=9),
                                  gamma, 2, main, metric_mode="epoch")
        phases = [(r.phase, r.epoch) for r in trace.records]
        warm = [e for p, e in phases if p == "warmup"]
        rest = [e for p, e in phases if p != "warmup"]
        assert max(warm) == 2.0 and min(rest) >= 2.0
        # counters equal warm phase plus main phase closed forms
        warm_ce = data.n + 4 * 2 * (32 // 4)
        main_ce, main_m = expected_totals("spider-em", data.n, b=4, k_in=9, k_out=3)
        assert trace.counters.ce == warm_ce + main_ce
        assert trace.counters.mstep == (1 + 16) + main_m

    def test_main_phase_must_continue_the_sampler(self):
        model, data, s0 = overlapping_scalar()
        gamma = StepSchedule.constant(0.2)

        def main(s, sampler):
            return run_spider_em(model, data, s, MinibatchSampler(4, seed=1), gamma, 2, 4)

        with pytest.raises(ValueError, match="run_main"):
            hybrid_warm_start(model, data, s0, MinibatchSampler(4, seed=9), gamma, 1, main)


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
        trace = run_spider_em(model, data, s0, MinibatchSampler(4, seed=5),
                              StepSchedule.constant(0.2), 3, 4,
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
        trace = run_spider_em(model, data, s0, MinibatchSampler(4, seed=5),
                              StepSchedule.constant(0.2), 3, 4,
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
        trace = run_spider_em(model, data, s0, MinibatchSampler(4, seed=5),
                              StepSchedule.constant(0.2), 2, 3, metric_mode="none")
        with pytest.raises(NotImplementedError):
            randomized_terminate(trace, np.random.default_rng(0))


class TestDeterminismAndDivergence:
    def test_identical_seeds_identical_traces(self):
        model, data, s0 = overlapping_scalar()

        def go():
            return run_spider_em(model, data, s0, MinibatchSampler(4, seed=77),
                                 StepSchedule.constant(0.2), 3, 5,
                                 snapshot_mode="every-update")

        a, b = go(), go()
        assert [(r.t, r.k, r.tau, r.objective, r.h_sq) for r in a.records] == \
               [(r.t, r.k, r.tau, r.objective, r.h_sq) for r in b.records]
        for (pa, ta, ka, sa), (pb, tb, kb, sb) in zip(a.snapshots, b.snapshots):
            assert (pa, ta, ka) == (pb, tb, kb)
            assert np.array_equal(sa, sb)

    def test_oversized_step_marks_divergence(self):
        model, data, s0 = overlapping_scalar()
        trace = run_online_em(model, data, s0, MinibatchSampler(2, seed=0),
                              StepSchedule.constant(25.0), 400, metric_mode="none")
        assert trace.status == "diverged"
        assert trace.diverged_at is not None

    def test_epsilon_stops_run(self):
        model, data, s0 = separated_scalar()
        trace = run_em(model, data, s0, 500, metric_mode="update", epsilon=1e-9)
        assert trace.status == "hit-eps"
        assert trace.hit is not None
        assert trace.final_record().h_sq <= 1e-9

    def test_callback_stop(self):
        model, data, s0 = overlapping_scalar()
        seen = []

        def cb(phase, t, k, s, counters):
            seen.append((t, k))
            return len(seen) < 3

        trace = run_em(model, data, s0, 50, metric_mode="update", callback=cb)
        assert trace.status == "stopped"
        assert len(seen) == 3
