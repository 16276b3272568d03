from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emvr import (Dataset, DomainError, GmmParams, OracleCounters, PerSampleStatStore,
                  PooledGmm, ScalarTwoGmmParams, fd_natural_jacobian,
                  fd_objective_gradient, full_stats, mean_field, minibatch_stats,
                  mstep, objective, run_em)

from conftest import LocationToy


class TestDataset:
    def test_second_moment_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 5))
        data = Dataset(X)
        brute = sum(np.outer(x, x) for x in X) / 40
        assert np.abs(data.second_moment - brute).max() <= 1e-12 * np.abs(brute).max()

    def test_immutability(self):
        data = Dataset(np.ones((3, 2)))
        with pytest.raises(ValueError):
            data.values[0, 0] = 2.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]))

    def test_row_accessor(self):
        data = Dataset(np.arange(6.0).reshape(3, 2))
        assert np.array_equal(data.row(1), [2.0, 3.0])


class TestCheckpointContract:
    @pytest.mark.parametrize("case", ["scalar", "default"])
    def test_statistic_is_the_full_batch_mean_bitwise(self, case, scalar_model,
                                                      scalar_data):
        model, data, params = {
            "scalar": (scalar_model, scalar_data,
                       ScalarTwoGmmParams(mu=np.array([1.3, -0.7]))),
            "default": (LocationToy(1), scalar_data, np.array([0.25])),
        }[case]
        full = model.batch_mean(data, None, params)
        for want_nll in (True, False):
            sbar, _ = model.checkpoint_stats(data, params, want_nll=want_nll)
            assert sbar.dtype == full.dtype and sbar.tobytes() == full.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(1, 300), g=st.integers(1, 6), p=st.integers(1, 5),
           offset=st.floats(-1e6, 1e6), seed=st.integers(0, 2**32 - 1))
    def test_pooled_statistics_are_one_pass_bitwise(self, n, g, p, offset, seed):
        rng = np.random.default_rng(seed)
        data = Dataset(offset + 2.0 * rng.standard_normal((n, p)))
        model = PooledGmm.from_data(g, data)
        a = rng.standard_normal((p, p))
        params = GmmParams(weights=rng.dirichlet(np.ones(g)),
                           means=offset + 2.0 * rng.standard_normal((g, p)),
                           cov_chol=np.linalg.cholesky(a @ a.T + np.eye(p)))
        full = full_stats(model, data, params).tobytes()
        assert model.batch_mean(data, None, params).tobytes() == full
        assert minibatch_stats(model, data, np.arange(n), params).tobytes() == full
        sbar, nll = model.checkpoint_stats(data, params)
        assert sbar.tobytes() == full and nll == model.penalized_nll(data, params)
        assert model.checkpoint_stats(data, params, want_nll=False)[0].tobytes() == full
        store = PerSampleStatStore(model.store_rows(data, None, params),
                                   partial(model.lift_sum, data))
        assert store.mean.tobytes() == full


class TestBatchStats:
    def test_full_batch_equals_full_stats_bitwise(self, scalar_model, scalar_data):
        params = ScalarTwoGmmParams(mu=np.array([1.0, -1.0]))
        via_batch = minibatch_stats(scalar_model, scalar_data,
                                    np.arange(scalar_data.n), params)
        assert np.array_equal(via_batch, full_stats(scalar_model, scalar_data, params))

    def test_singleton_batch(self, scalar_model, scalar_data):
        params = ScalarTwoGmmParams(mu=np.array([0.4, -0.2]))
        got = minibatch_stats(scalar_model, scalar_data, [7], params)
        row = scalar_model.sbar_rows(scalar_data, np.array([7]), params)[0]
        assert np.allclose(got, row, rtol=0, atol=0)

    def test_hand_summed_oracle(self, tiny_scalar_data):
        # frozen from an independent scipy.stats.norm posterior computation
        # over observations [0.3, -1.2, 0.8, -0.4] at means (0.5, -0.5)
        from emvr import ScalarTwoGmm
        model = ScalarTwoGmm.from_data(tiny_scalar_data)
        params = ScalarTwoGmmParams(mu=np.array([0.5, -0.5]))
        expected = np.array([0.16117121708394266, 0.8388287829160572,
                             -0.004167923194449738, -0.44583207680555015])
        got = minibatch_stats(model, tiny_scalar_data, [0, 1], params)
        assert np.abs(got - expected).max() <= 1e-14

    def test_duplicates_count_with_multiplicity(self, scalar_model, scalar_data):
        params = ScalarTwoGmmParams(mu=np.array([0.4, -0.2]))
        rows = scalar_model.sbar_rows(scalar_data, np.array([2, 2, 5]), params)
        assert np.allclose(minibatch_stats(scalar_model, scalar_data, [2, 5, 2], params),
                           rows.sum(axis=0) / 3)

    def test_index_validation(self, scalar_model, scalar_data):
        params = ScalarTwoGmmParams(mu=np.array([0.4, -0.2]))
        with pytest.raises(ValueError):
            minibatch_stats(scalar_model, scalar_data, [], params)
        with pytest.raises(ValueError):
            minibatch_stats(scalar_model, scalar_data, [scalar_data.n], params)
        with pytest.raises(ValueError):
            minibatch_stats(scalar_model, scalar_data, [-1], params)

    def test_full_stats_single_observation(self):
        data = Dataset(np.array([0.7]))
        from emvr import ScalarTwoGmm
        model = ScalarTwoGmm.from_data(data)
        params = ScalarTwoGmmParams(mu=np.array([0.2, -0.2]))
        assert np.array_equal(full_stats(model, data, params),
                              model.sbar_rows(data, np.array([0]), params)[0])

    def test_gmm_full_stats_against_double_loop(self, gmm_model, gmm_data):
        params = gmm_model.m_step(np.concatenate([
            np.full(3, 1 / 3), np.zeros(6)]) + _spread(gmm_model, gmm_data))
        total = np.zeros(gmm_model.stat_dim)
        for i in range(gmm_data.n):
            total += gmm_model.sbar_rows(gmm_data, np.array([i]), params)[0]
        assert np.abs(full_stats(gmm_model, gmm_data, params) - total / gmm_data.n).max() <= 1e-12

    def test_counters_increment(self, scalar_model, scalar_data):
        params = ScalarTwoGmmParams(mu=np.array([0.4, -0.2]))
        counters = OracleCounters()
        minibatch_stats(scalar_model, scalar_data, [0, 1, 2], params, counters)
        s = full_stats(scalar_model, scalar_data, params, counters)
        mstep(scalar_model, s, counters)
        assert counters.ce == 3 + scalar_data.n
        assert counters.mstep == 1


def _spread(model, data):
    # small deterministic moment offset keeping the start admissible
    s = np.zeros(model.stat_dim)
    mean = data.values.mean(axis=0)
    for ell in range(model.g):
        block = mean + 0.3 * (ell - 1) * np.ones(model.p)
        s[model.g + ell * model.p: model.g + (ell + 1) * model.p] = block / model.g
    return s


class TestMeanFieldAndObjective:
    def test_one_em_step_is_state_plus_mean_field(self, scalar_model, scalar_data):
        s = full_stats(scalar_model, scalar_data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
        stepped = full_stats(scalar_model, scalar_data, scalar_model.m_step(s))
        assert np.allclose(s + mean_field(scalar_model, scalar_data, s), stepped,
                           rtol=0, atol=1e-15)

    def test_mean_field_near_zero_at_em_fixed_point(self, scalar_model, scalar_data):
        s = full_stats(scalar_model, scalar_data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
        trace = run_em(scalar_model, scalar_data, s, 400, metric_mode="none")
        h = mean_field(scalar_model, scalar_data, trace.s_final)
        assert np.linalg.norm(h) <= 1e-8

    def test_objective_equals_nll_of_refit(self, scalar_model, scalar_data):
        s = full_stats(scalar_model, scalar_data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
        assert objective(scalar_model, scalar_data, s) == scalar_model.penalized_nll(
            scalar_data, scalar_model.m_step(s))

    def test_em_monotone_objective(self, scalar_model, scalar_data):
        s = full_stats(scalar_model, scalar_data, ScalarTwoGmmParams(mu=np.array([1.3, -1.6])))
        trace = run_em(scalar_model, scalar_data, s, 50, metric_mode="update")
        w = trace.column("objective")
        assert (np.diff(w) <= 1e-10).all()

    def test_mean_field_counts_full_pass_plus_refit(self, scalar_model, scalar_data):
        s = full_stats(scalar_model, scalar_data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
        counters = OracleCounters()
        mean_field(scalar_model, scalar_data, s, counters)
        assert (counters.ce, counters.mstep) == (scalar_data.n, 1)

    def test_inadmissible_state_raises_with_violation(self, gmm_model, gmm_data):
        s = np.zeros(gmm_model.stat_dim)
        with pytest.raises(DomainError) as err:
            mean_field(gmm_model, gmm_data, s)
        assert err.value.violation == "empty component"


class TestFiniteDifferences:
    def test_quadratic_gradient_exact(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((20, 3)))
        toy = LocationToy(3)
        s = rng.standard_normal(3)
        grad = fd_objective_gradient(toy, data, s)
        assert np.abs(grad - (s - data.values.mean(axis=0))).max() <= 1e-9

    def test_second_order_convergence(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal((20, 3)))
        toy = LocationToy(3, curvature=0.5)
        s = np.array([0.3, -0.7, 1.1])
        exact = s - data.values.mean(axis=0) + 0.5 * np.cos(s)
        err = [np.abs(fd_objective_gradient(toy, data, s, step=h) - exact).max()
               for h in (1e-2, 5e-3)]
        assert 3.5 <= err[0] / err[1] <= 4.5

    def test_identity_jacobian_on_toy(self):
        toy = LocationToy(3)
        sym, asym = fd_natural_jacobian(toy, np.array([0.1, 0.2, 0.3]))
        assert np.abs(sym - np.eye(3)).max() <= 1e-9
        assert asym <= 1e-12

    def test_gradient_identity_on_gmm(self, gmm_model, gmm_data, gmm_start):
        grad = fd_objective_gradient(gmm_model, gmm_data, gmm_start)
        bmat, asym = fd_natural_jacobian(gmm_model, gmm_start)
        h = mean_field(gmm_model, gmm_data, gmm_start)
        ref = bmat @ h
        assert np.linalg.norm(grad + ref) / np.linalg.norm(ref) <= 1e-3
        assert asym <= 1e-4
        assert np.linalg.eigvalsh(bmat).min() > 0

    def test_step_must_be_positive(self, gmm_model, gmm_data, gmm_start):
        with pytest.raises(ValueError):
            fd_objective_gradient(gmm_model, gmm_data, gmm_start, step=0.0)

    def test_boundary_perturbation_raises_domain_error(self, scalar_model, scalar_data):
        # a mass smaller than the step leaves the admissible set when perturbed
        s = np.array([2e-6, 1.0 - 2e-6, 0.5, -0.4])
        with pytest.raises(DomainError):
            fd_objective_gradient(scalar_model, scalar_data, s, step=1e-5)

    def test_refit_is_stationary_in_parameter_space(self, scalar_model, scalar_data):
        # at a mean-field root the fitted parameters are a stationary point
        # of the observed objective itself, checked by central differences
        from emvr import ScalarTwoGmmParams, full_stats, run_em
        s0 = full_stats(scalar_model, scalar_data,
                        ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
        s_star = run_em(scalar_model, scalar_data, s0, 500, metric_mode="none").s_final
        mu_star = scalar_model.m_step(s_star).mu
        h = 1e-5
        grad = np.zeros(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            hi = scalar_model.penalized_nll(scalar_data,
                                            ScalarTwoGmmParams(mu=mu_star + e))
            lo = scalar_model.penalized_nll(scalar_data,
                                            ScalarTwoGmmParams(mu=mu_star - e))
            grad[j] = (hi - lo) / (2 * h)
        assert np.abs(grad).max() <= 1e-6

    def test_jacobian_requires_natural_param(self, scalar_data):
        class Bare(LocationToy):
            def natural_param(self, params):
                raise NotImplementedError("no natural parameter")
        with pytest.raises(NotImplementedError):
            fd_natural_jacobian(Bare(1), np.array([0.0]))
