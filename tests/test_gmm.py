import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal, norm

from emvr import (Dataset, DomainError, GmmParams, PooledGmm, ScalarTwoGmm,
                  ScalarTwoGmmParams, full_stats, load_params, mean_field,
                  run_em, save_params, scalar2_m_step)
from emvr import gmm
from emvr.data import gen_multivariate_mixture, gen_scalar_mixture
from emvr.gmm import (_logistic, gmm_log_partition, gmm_m_step, gmm_phi,
                      gmm_posterior, init_kmeans, init_random_responsibility)


def random_params(g, p, seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(g))
    means = rng.standard_normal((g, p))
    a = rng.standard_normal((p, p))
    cov = a @ a.T + p * np.eye(p)
    return GmmParams(weights=w, means=means, cov_chol=np.linalg.cholesky(cov))


class TestPosterior:
    def test_equal_means_gives_weights(self):
        params = GmmParams(weights=np.array([0.3, 0.7]),
                           means=np.zeros((2, 2)),
                           cov_chol=np.eye(2))
        post = gmm_posterior(params, np.array([0.4, -1.0]))
        assert np.abs(post - [0.3, 0.7]).max() <= 1e-15

    def test_single_component(self):
        params = GmmParams(weights=np.array([1.0]), means=np.zeros((1, 3)),
                           cov_chol=np.eye(3))
        assert gmm_posterior(params, np.zeros(3)) == pytest.approx([1.0])

    def test_symmetric_midpoint(self):
        params = GmmParams(weights=np.array([0.5, 0.5]),
                           means=np.array([[-1.0], [1.0]]),
                           cov_chol=np.eye(1))
        post = gmm_posterior(params, np.array([0.0]))
        assert np.abs(post - 0.5).max() <= 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_normalized_and_in_range(self, seed):
        params = random_params(4, 3, seed)
        rng = np.random.default_rng(seed + 50)
        for y in rng.standard_normal((10, 3)) * 3:
            post = gmm_posterior(params, y)
            assert abs(post.sum() - 1.0) <= 1e-14
            assert (post >= 0).all() and (post <= 1).all()


class TestSbar:
    def test_blocks(self, gmm_model, gmm_data):
        params = random_params(3, 2, 0)
        row = gmm_model.sbar_rows(gmm_data, np.array([4]), params)[0]
        masses, moments = row[:3], row[3:].reshape(3, 2)
        assert abs(masses.sum() - 1.0) <= 1e-14
        assert np.abs(moments.sum(axis=0) - gmm_data.row(4)).max() <= 1e-12

    def test_matches_latent_enumeration(self, gmm_data):
        # direct oracle: sum s(y, z) p(z | y) over the two latent values
        model = PooledGmm.from_data(2, gmm_data)
        params = random_params(2, 2, 3)
        y = gmm_data.row(7)
        cov = params.covariance()
        joint = np.array([params.weights[z] * multivariate_normal.pdf(y, params.means[z], cov)
                          for z in range(2)])
        post = joint / joint.sum()
        expected = np.zeros(6)
        for z in range(2):
            stat = np.zeros(6)
            stat[z] = 1.0
            stat[2 + 2 * z: 4 + 2 * z] = y
            expected += post[z] * stat
        row = model.sbar_rows(gmm_data, np.array([7]), params)[0]
        assert np.abs(row - expected).max() <= 1e-12

    def test_full_stats_affine_structure(self, gmm_model, gmm_data):
        params = random_params(3, 2, 9)
        s = full_stats(gmm_model, gmm_data, params)
        assert abs(s[:3].sum() - 1.0) <= 1e-12
        moments = s[3:].reshape(3, 2)
        assert np.abs(moments.sum(axis=0) - gmm_data.values.mean(axis=0)).max() <= 1e-12


class TestMStep:
    def test_single_component_closed_form(self, gmm_data):
        model = PooledGmm.from_data(1, gmm_data)
        mean = gmm_data.values.mean(axis=0)
        s = np.concatenate([[1.0], mean])
        params = model.m_step(s)
        assert params.weights == pytest.approx([1.0])
        assert np.abs(params.means[0] - mean).max() <= 1e-14
        expected_cov = gmm_data.second_moment - np.outer(mean, mean)
        assert np.abs(params.covariance() - expected_cov).max() <= 1e-12

    def test_weights_renormalize(self, gmm_model):
        s = init_random_responsibility(gmm_model, _data(), seed=1)
        s = s.copy()
        s[:3] *= 1 + 3e-11  # masses now sum to 1 + 3e-11
        params = gmm_model.m_step(s) if False else gmm_m_step(s, _data().second_moment)
        assert abs(params.weights.sum() - 1.0) <= 1e-15

    def test_one_em_iteration_matches_textbook_oracle(self, gmm_data):
        model = PooledGmm.from_data(3, gmm_data)
        params0 = random_params(3, 2, 11)
        X = gmm_data.values
        cov0 = params0.covariance()
        dens = np.stack([params0.weights[z] * multivariate_normal.pdf(X, params0.means[z], cov0)
                         for z in range(3)], axis=1)
        resp = dens / dens.sum(axis=1, keepdims=True)
        nk = resp.sum(axis=0)
        w = nk / gmm_data.n
        mu = (resp.T @ X) / nk[:, None]
        pooled = np.zeros((2, 2))
        for ell in range(3):
            diff = X - mu[ell]
            pooled += (resp[:, ell][:, None] * diff).T @ diff
        pooled /= gmm_data.n
        params1 = model.m_step(full_stats(model, gmm_data, params0))
        assert np.abs(params1.weights - w).max() <= 1e-10
        assert np.abs(params1.means - mu).max() <= 1e-10
        assert np.abs(params1.covariance() - pooled).max() <= 1e-10

    def test_empty_component_rejected(self, gmm_model):
        s = np.zeros(gmm_model.stat_dim)
        s[0] = 1.0
        with pytest.raises(DomainError) as err:
            gmm_model.m_step(s)
        assert err.value.violation == "empty component"

    def test_degenerate_covariance_rejected(self, gmm_model, gmm_data):
        s = init_random_responsibility(gmm_model, gmm_data, seed=2).copy()
        s[3:5] *= 60.0  # inflate one moment block until the covariance loses PD
        with pytest.raises(DomainError) as err:
            gmm_model.m_step(s)
        assert err.value.violation == "degenerate covariance"

    def test_domain_check_paths(self, gmm_model, gmm_data):
        good = init_random_responsibility(gmm_model, gmm_data, seed=3)
        assert gmm_model.domain_check(good) is None
        bad = good.copy()
        bad[0] = 0.0
        assert gmm_model.domain_check(bad) == "empty component"
        worse = good.copy()
        worse[3:5] *= 60.0
        assert gmm_model.domain_check(worse) == "degenerate covariance"

    def test_trusted_construction_equals_validated(self):
        data = gen_multivariate_mixture(400, 12, 20, 6.0, seed=4)
        model = PooledGmm.from_data(12, data)
        for seed in range(3):
            params = model.m_step(init_random_responsibility(model, data, seed=seed))
            checked = GmmParams(weights=params.weights, means=params.means,
                                cov_chol=params.cov_chol)
            for name in ("weights", "means", "cov_chol"):
                fast, slow = getattr(params, name), getattr(checked, name)
                assert fast.dtype == slow.dtype and fast.shape == slow.shape
                assert fast.tobytes() == slow.tobytes()
                assert fast.flags.c_contiguous and not fast.flags.writeable

    def test_non_finite_statistics_rejected(self, gmm_model, gmm_data):
        s = init_random_responsibility(gmm_model, gmm_data, seed=3).copy()
        s[4] = np.nan
        with pytest.raises(DomainError) as err:
            gmm_model.m_step(s)
        assert err.value.violation == "non-finite"


def _data():
    return gen_multivariate_mixture(80, 3, 2, 3.0, seed=7)


class TestOptimality:
    """The refit parameters minimize the complete-data objective."""

    @staticmethod
    def _value(model, s, weights, means, chol):
        params = GmmParams(weights=weights, means=means, cov_chol=chol)
        return float(-s @ gmm_phi(params) + gmm_log_partition(params, model.second_moment))

    def test_refit_beats_perturbations_and_is_stationary(self, gmm_model, gmm_data):
        rng = np.random.default_rng(0)
        for trial in range(20):
            s = init_random_responsibility(gmm_model, gmm_data, seed=200 + trial)
            star = gmm_model.m_step(s)
            f_star = self._value(gmm_model, s, star.weights, star.means, star.cov_chol)
            for _ in range(5):
                z = np.log(star.weights) + 0.1 * rng.standard_normal(3)
                w = np.exp(z) / np.exp(z).sum()
                means = star.means + 0.05 * rng.standard_normal((3, 2))
                chol = star.cov_chol + 0.02 * np.tril(rng.standard_normal((2, 2)))
                if (np.diag(chol) <= 0).any():
                    continue
                assert self._value(gmm_model, s, w, means, chol) >= f_star - 1e-12

    def test_fd_gradient_vanishes_at_refit(self, gmm_model, gmm_data):
        # chart: weights via softmax, free means, lower-triangular factor
        for trial in range(20):
            s = init_random_responsibility(gmm_model, gmm_data, seed=300 + trial)
            star = gmm_model.m_step(s)
            z0 = np.log(star.weights)
            tril = np.tril_indices(2)

            def value(z, means_flat, chol_flat):
                w = np.exp(z - z.max())
                w = w / w.sum()
                chol = np.zeros((2, 2))
                chol[tril] = chol_flat
                return self._value(gmm_model, s, w, means_flat.reshape(3, 2), chol)

            x0 = np.concatenate([z0, star.means.reshape(-1), star.cov_chol[tril]])

            def f(x):
                return value(x[:3], x[3:9], x[9:])

            grad = np.zeros(x0.size)
            h = 1e-5
            for j in range(x0.size):
                e = np.zeros(x0.size)
                e[j] = h
                grad[j] = (f(x0 + e) - f(x0 - e)) / (2 * h)
            assert np.linalg.norm(grad) <= 1e-6


class TestNll:
    def test_single_component_closed_form(self, gmm_data):
        # at the exact MLE the Gaussian NLL has the entropy form
        model = PooledGmm.from_data(1, gmm_data)
        mean = gmm_data.values.mean(axis=0)
        params = model.m_step(np.concatenate([[1.0], mean]))
        p = gmm_data.dim
        expected = 0.5 * (p * np.log(2 * np.pi) + np.linalg.slogdet(params.covariance())[1] + p)
        assert model.penalized_nll(gmm_data, params) == pytest.approx(expected, abs=1e-10)

    def test_matches_direct_logsumexp_oracle(self, gmm_data):
        model = PooledGmm.from_data(3, gmm_data)
        params = random_params(3, 2, 17)
        cov = params.covariance()
        dens = np.stack([params.weights[z] * multivariate_normal.pdf(gmm_data.values,
                                                                     params.means[z], cov)
                         for z in range(3)], axis=1)
        expected = -np.log(dens.sum(axis=1)).mean()
        assert model.penalized_nll(gmm_data, params) == pytest.approx(expected, abs=1e-10)

    def test_duplicate_component_leaves_nll_unchanged(self, gmm_data):
        model2 = PooledGmm.from_data(2, gmm_data)
        params = random_params(1, 2, 23)
        single = GmmParams(weights=np.array([1.0]), means=params.means,
                           cov_chol=params.cov_chol)
        double = GmmParams(weights=np.array([0.5, 0.5]),
                           means=np.vstack([params.means, params.means]),
                           cov_chol=params.cov_chol)
        one = PooledGmm.from_data(1, gmm_data).penalized_nll(gmm_data, single)
        two = model2.penalized_nll(gmm_data, double)
        assert two == pytest.approx(one, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e8, 1e-8])
    def test_log_domain_stability_under_scaling(self, scale):
        base = gen_multivariate_mixture(60, 3, 2, 3.0, seed=5)
        data = Dataset(base.values * scale)
        model = PooledGmm.from_data(3, data)
        s = init_random_responsibility(model, data, seed=1)
        params = model.m_step(s)
        assert np.isfinite(model.penalized_nll(data, params))
        post = gmm_posterior(params, data.row(0))
        assert np.isfinite(post).all() and abs(post.sum() - 1.0) <= 1e-14


class TestPhi:
    def test_single_component_at_origin(self):
        params = GmmParams(weights=np.array([1.0]), means=np.zeros((1, 2)),
                           cov_chol=np.eye(2))
        assert np.abs(gmm_phi(params)).max() == 0.0

    def test_zero_weight_rejected(self):
        params = GmmParams(weights=np.array([0.0, 1.0]), means=np.zeros((2, 1)),
                           cov_chol=np.eye(1))
        with pytest.raises(DomainError):
            gmm_phi(params)

    def test_complete_data_loglik_identity(self, gmm_data):
        # direct density oracle: the soft-assigned complete-data log
        # likelihood decomposes through the statistics and phi/psi
        model = PooledGmm.from_data(3, gmm_data)
        params = random_params(3, 2, 31)
        rng = np.random.default_rng(4)
        resp = rng.dirichlet(np.ones(3), size=gmm_data.n)
        cov = params.covariance()
        direct = 0.0
        for z in range(3):
            logp = (np.log(params.weights[z])
                    + multivariate_normal.logpdf(gmm_data.values, params.means[z], cov))
            direct += (resp[:, z] * logp).sum()
        direct /= gmm_data.n
        masses = resp.mean(axis=0)
        moments = resp.T @ gmm_data.values / gmm_data.n
        s = np.concatenate([masses, moments.reshape(-1)])
        via_stats = s @ gmm_phi(params) - gmm_log_partition(params, gmm_data.second_moment)
        assert via_stats == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_refit_natural_jacobian_symmetry(self, gmm_model, gmm_data, seed):
        from emvr import fd_natural_jacobian
        s = init_random_responsibility(gmm_model, gmm_data, seed=400 + seed)
        _, asym = fd_natural_jacobian(gmm_model, s)
        assert asym <= 1e-4


class TestScalarTwo:
    def test_posterior_at_symmetric_point_returns_prior(self):
        data = Dataset(np.array([0.0]))
        model = ScalarTwoGmm.from_data(data)
        params = ScalarTwoGmmParams(mu=np.array([0.5, -0.5]))
        row = model.sbar_rows(data, None, params)[0]
        assert np.abs(row[:2] - [0.2, 0.8]).max() <= 1e-15

    def test_m_step_and_error_path(self):
        params = scalar2_m_step(np.array([0.4, 0.6, 0.2, -0.3]))
        assert params.mu == pytest.approx([0.5, -0.5])
        with pytest.raises(DomainError):
            scalar2_m_step(np.array([1.0, 0.0, 0.5, 0.0]))

    def test_m_step_non_finite_mean_is_domain_error(self):
        s = np.array([1e-11, 1.0 - 1e-11, 1e300, 0.0])   # mu1 = 1e311 overflows
        with np.errstate(all="raise"):
            with pytest.raises(DomainError) as exc:
                scalar2_m_step(s)
            assert exc.value.violation == "non-finite"
            assert ScalarTwoGmm().domain_check(s) == "non-finite"

    def test_one_em_step_matches_brute_oracle(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(10) + np.where(rng.random(10) < 0.2, 1.0, -1.0) * 0.5
        data = Dataset(y)
        model = ScalarTwoGmm.from_data(data)
        params = ScalarTwoGmmParams(mu=np.array([1.0, -1.0]))
        num1 = 0.2 * norm.pdf(y, 1.0, 1.0)
        num2 = 0.8 * norm.pdf(y, -1.0, 1.0)
        p1 = num1 / (num1 + num2)
        expected_mu = np.array([(p1 * y).sum() / p1.sum(),
                                ((1 - p1) * y).sum() / (1 - p1).sum()])
        stepped = model.m_step(full_stats(model, data, params))
        assert np.abs(stepped.mu - expected_mu).max() <= 1e-12

    def test_nll_matches_direct(self, scalar_data, scalar_model):
        params = ScalarTwoGmmParams(mu=np.array([0.7, -0.3]))
        y = scalar_data.values[:, 0]
        direct = -np.log(0.2 * norm.pdf(y, 0.7, 1.0) + 0.8 * norm.pdf(y, -0.3, 1.0)).mean()
        assert scalar_model.penalized_nll(scalar_data, params) == pytest.approx(direct,
                                                                                abs=1e-12)


def _direct_scalar_pass(y, mu, weights, variance):
    """Per-row reference: each component's log-joint from ``y - mu_l`` directly."""
    l1 = np.log(weights[0]) - (y - mu[0]) ** 2 / (2.0 * variance)
    l2 = np.log(weights[1]) - (y - mu[1]) ** 2 / (2.0 * variance)
    top = np.maximum(l1, l2)
    lse = top + np.log(np.exp(l1 - top) + np.exp(l2 - top))
    p1 = np.exp(l1 - lse)
    sbar = np.array([p1.mean(), (1.0 - p1).mean(), (y * p1).mean(), (y * (1.0 - p1)).mean()])
    nll = -lse.mean() + 0.5 * np.log(2.0 * np.pi * variance)
    return sbar, nll


def _two_y_scalar_pass(y, mu, weights, variance, want_nll):
    """Reference scalar E-step in the ``2y - mu1 - mu2`` form: log-odds ``d`` divided
    by ``2v``, ``p1 = 1 / (1 + exp(-d))``, the NLL with ``softplus(-d)``;
    ``(sbar, nll, rows)``, one operation at a time, left to right."""
    mu1, mu2 = mu
    d = 2.0 * y
    d -= mu1
    d -= mu2
    d *= mu1 - mu2
    d /= 2.0 * variance
    d += np.log(weights[0]) - np.log(weights[1])
    sp = np.logaddexp(0.0, -d)
    with np.errstate(over="ignore"):
        p1 = 1.0 / (1.0 + np.exp(-d))
    m1, yp1 = p1.sum(), y @ p1
    sbar = np.array([m1, y.size - m1, yp1, y.sum() - yp1]) / y.size
    l1 = np.log(weights[0]) - (y - mu1) ** 2 / (2.0 * variance)
    nll = -(l1 + sp).mean() + 0.5 * np.log(variance) + 0.5 * np.log(2.0 * np.pi)
    rows = np.column_stack([p1, 1.0 - p1, y * p1, y - y * p1])
    return sbar, (float(nll) if want_nll else float("nan")), rows


class TestScalarLogistic:
    def test_matches_softplus_form(self):
        # |d| up to 1e3 spans exp(-d) overflowing, the subnormal tail and 1 - p1 rounding to 0
        d = np.concatenate([np.linspace(-1e3, 1e3, 20_001), np.linspace(-760.0, -700.0, 6001),
                            np.linspace(-40.0, 40.0, 8001)])
        ref = np.exp(-np.logaddexp(0.0, -d))
        got = _logistic(-d)   # the kernel takes the negated log-odds
        normal = ref >= np.finfo(float).tiny
        assert np.all(np.abs(got - ref)[normal] <= 1e-14 * ref[normal])
        assert np.all(np.abs(got - ref)[~normal] <= 1e-300)

    def test_overflow_gives_exact_zero_silently(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _logistic(-np.array([-1e3, -710.0, 0.0, 1e3]))
        assert np.array_equal(got, [0.0, 0.0, 0.5, 1.0])

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_pass_matches_direct_rows(self, offset):
        # the log-odds are centred on the midpoint of the means, so a common
        # offset of data and means must not show in the statistics
        base = gen_scalar_mixture(500, seed=17)
        data = Dataset(base.values[:, 0] + offset)
        model = ScalarTwoGmm.from_data(data, weights=(0.35, 0.65), variance=1.7)
        mu = offset + np.array([0.8, -0.7])
        params = ScalarTwoGmmParams(mu=mu)
        ref, ref_nll = _direct_scalar_pass(data.values[:, 0], mu, (0.35, 0.65), 1.7)
        sbar, nll = model.checkpoint_stats(data, params)
        for got in (sbar, model.batch_mean(data, None, params),
                    model.sbar_rows(data, None, params).mean(axis=0)):
            assert np.abs(got[:2] - ref[:2]).max() <= 1e-12
            assert np.abs(got[2:] - ref[2:]).max() <= 1e-12 * max(1.0, offset)
        assert nll == pytest.approx(ref_nll, abs=1e-12)

    def test_nll_leaves_statistics_bitwise(self, scalar_model, scalar_data):
        params = ScalarTwoGmmParams(mu=np.array([0.9, -0.6]))
        with_nll, nll = scalar_model.checkpoint_stats(scalar_data, params, want_nll=True)
        without, nan = scalar_model.checkpoint_stats(scalar_data, params, want_nll=False)
        assert np.array_equal(with_nll, without) and np.isfinite(nll) and np.isnan(nan)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
           offset=st.floats(-1e6, 1e6), spread=st.floats(1e-3, 1e3),
           gap=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
           w1=st.floats(1e-3, 1.0 - 1e-3), variance=st.floats(1e-3, 1e3))
    def test_statistics_properties(self, n, seed, offset, spread, gap, w1, variance):
        y = offset + spread * np.random.default_rng(seed).standard_normal(n)
        data = Dataset(y)
        model = ScalarTwoGmm(weights=(w1, 1.0 - w1), variance=variance)
        params = ScalarTwoGmmParams(mu=offset + np.array(gap))
        rows = model.sbar_rows(data, None, params)
        assert np.all((rows[:, :2] >= 0.0) & (rows[:, :2] <= 1.0))
        got = model.batch_mean(data, None, params)
        assert abs(got[0] + got[1] - 1.0) <= 1e-12
        ymax = max(1.0, np.abs(y).max())
        scale = np.array([1.0, 1.0, ymax, ymax])
        assert np.all(np.abs(got - rows.mean(axis=0)) <= 1e-13 * scale)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
           offset=st.floats(-1e8, 1e8), spread=st.floats(1e-3, 1e3),
           gap=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
           w1=st.floats(1e-3, 1.0 - 1e-3),
           variance=st.one_of(st.integers(-10, 10).map(lambda k: 2.0 ** k),
                              st.floats(1e-3, 1e3)))
    def test_kernel_keeps_the_bits_of_the_two_y_form(self, n, seed, offset, spread, gap,
                                                     w1, variance):
        # halved means, the folded negation, a power-of-two scale and the cached data
        # sum move no rounding: every output has the bits of the 2y - mu1 - mu2 form
        rng = np.random.default_rng(seed)
        y = offset + spread * rng.standard_normal(n)
        data = Dataset(y)
        y = data.values[:, 0]
        model = ScalarTwoGmm(weights=(w1, 1.0 - w1), variance=variance)
        mu = offset + np.array(gap)
        params = ScalarTwoGmmParams(mu=mu)
        assert data.column_sums[0].tobytes() == y.sum().tobytes()
        for want_nll in (True, False):
            ref, ref_nll, ref_rows = _two_y_scalar_pass(y, mu, model.weights, variance,
                                                         want_nll)
            sbar, nll = model.checkpoint_stats(data, params, want_nll=want_nll)
            assert sbar.tobytes() == ref.tobytes()
            assert np.array([nll]).tobytes() == np.array([ref_nll]).tobytes()
        assert model.batch_mean(data, None, params).tobytes() == ref.tobytes()
        assert model.sbar_rows(data, None, params).tobytes() == ref_rows.tobytes()
        for idx in (np.arange(n), np.sort(rng.integers(0, n, size=n + 3)),
                    rng.integers(0, n, size=min(n, 16))):   # duplicates and any order
            ref_b, _, ref_rows_b = _two_y_scalar_pass(y[idx], mu, model.weights,
                                                       variance, False)
            assert model.batch_mean(data, idx, params).tobytes() == ref_b.tobytes()
            assert model.sbar_rows(data, idx, params).tobytes() == ref_rows_b.tobytes()


class TestCheckpointStats:
    def test_fused_pass_matches_reference(self, gmm_model, gmm_data):
        params = random_params(3, 2, 43)
        sbar, nll = gmm_model.checkpoint_stats(gmm_data, params)
        assert np.abs(sbar - full_stats(gmm_model, gmm_data, params)).max() <= 1e-13
        assert nll == pytest.approx(gmm_model.penalized_nll(gmm_data, params), abs=1e-12)
        sbar2, nan = gmm_model.checkpoint_stats(gmm_data, params, want_nll=False)
        assert np.array_equal(sbar, sbar2) and np.isnan(nan)

    def test_norm_const_convention_applies(self, gmm_data):
        from emvr import PooledGmm
        reduced = PooledGmm.from_data(3, gmm_data, include_norm_const=False)
        full = PooledGmm.from_data(3, gmm_data)
        params = random_params(3, 2, 47)
        delta = full.penalized_nll(gmm_data, params) - reduced.penalized_nll(gmm_data, params)
        assert delta == pytest.approx(np.log(2 * np.pi), abs=1e-14)
        _, w_full = full.checkpoint_stats(gmm_data, params)
        _, w_red = reduced.checkpoint_stats(gmm_data, params)
        assert w_full - w_red == pytest.approx(np.log(2 * np.pi), abs=1e-14)


def _kmeans_difference_form(model, data, seed, n_iter=10, chunk=10_000):
    """Reference k-means start: each step's assignments from ``|x - c|^2`` formed
    directly (in row chunks, to bound the ``(rows, g, p)`` tensor), and the
    starting statistics they lead to."""
    rng = np.random.default_rng(seed)
    X = data.values
    centers = X[rng.choice(data.n, size=model.g, replace=False)].copy()
    steps = []
    for _ in range(n_iter):
        assign = np.concatenate([
            ((X[i:i + chunk, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
            for i in range(0, data.n, chunk)])
        steps.append(assign)
        for ell in range(model.g):
            mask = assign == ell
            if mask.any():
                centers[ell] = X[mask].mean(axis=0)
    counts = np.maximum(np.bincount(assign, minlength=model.g).astype(np.float64), 1.0)
    weights = counts / counts.sum()
    cov = data.second_moment - (centers * weights[:, None]).T @ centers
    chol = np.linalg.cholesky((cov + cov.T) / 2)
    return steps, full_stats(model, data, GmmParams(weights=weights, means=centers,
                                                    cov_chol=chol))


class TestInitializers:
    def test_random_responsibility_admissible(self, gmm_model, gmm_data):
        s = init_random_responsibility(gmm_model, gmm_data, seed=0)
        assert gmm_model.domain_check(s) is None
        assert abs(s[:3].sum() - 1.0) <= 1e-12

    def test_kmeans_separated_fixture_recovers_centers(self):
        data = gen_multivariate_mixture(400, 3, 2, 8.0, seed=1)
        model = PooledGmm.from_data(3, data)
        s = init_kmeans(model, data, seed=0)
        trace = run_em(model, data, s, 60, metric_mode="none")
        h = mean_field(model, data, trace.s_final)
        assert np.linalg.norm(h) <= 1e-8

    @pytest.mark.parametrize("n, g, p, separation, seed", [
        (400, 3, 2, 8.0, 1),          # the separated fixture above
        (70_000, 12, 20, 6.0, 0),     # the gmm-em-70k benchmark instance
    ])
    def test_kmeans_assignments_match_difference_form(self, monkeypatch, n, g, p,
                                                      separation, seed):
        # the fixed k-means starts depend on every assignment, so the expanded
        # quadratic must not flip a single one against the difference form
        data = gen_multivariate_mixture(n, g, p, separation, seed=seed)
        model = PooledGmm.from_data(g, data)
        seen, real = [], gmm._nearest_center

        def spy(xc, centers, center):
            seen.append(real(xc, centers, center))
            return seen[-1]

        monkeypatch.setattr(gmm, "_nearest_center", spy)
        got = init_kmeans(model, data, seed=0)
        want_assign, want = _kmeans_difference_form(model, data, seed=0)
        assert len(seen) == len(want_assign) == 10
        for a, b in zip(seen, want_assign):
            assert np.array_equal(a, b)
        assert np.array_equal(got, want)


class TestSerialization:
    def test_round_trip_pooled(self, tmp_path):
        params = random_params(3, 2, 41)
        path = tmp_path / "params.txt"
        save_params(path, params)
        back = load_params(path)
        assert np.array_equal(back.weights, params.weights)
        assert np.array_equal(back.means, params.means)
        assert np.array_equal(back.cov_chol, params.cov_chol)

    def test_round_trip_scalar(self, tmp_path):
        params = ScalarTwoGmmParams(mu=np.array([0.123456789012345, -2.5e-7]))
        path = tmp_path / "params.txt"
        save_params(path, params)
        assert np.array_equal(load_params(path).mu, params.mu)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("format = nonsense\n")
        with pytest.raises(ValueError):
            load_params(path)


def _direct_difference_pass(params, rows):
    """Per-component reference: whiten ``y - mu_l`` directly, no expansion."""
    p = params.dim
    lj = np.empty((rows.shape[0], params.n_components))
    log_norm = -0.5 * p * np.log(2 * np.pi) - np.log(np.diag(params.cov_chol)).sum()
    for ell, mu in enumerate(params.means):
        z = solve_triangular(params.cov_chol, (rows - mu).T, lower=True)
        lj[:, ell] = np.log(params.weights[ell]) + log_norm - 0.5 * (z * z).sum(axis=0)
    mx = lj.max(axis=1, keepdims=True)
    post = np.exp(lj - mx)
    denom = post.sum(axis=1, keepdims=True)
    post /= denom
    nll = -(np.log(denom[:, 0]) + mx[:, 0]).mean()
    return post.mean(axis=0), post.T @ rows / rows.shape[0], nll


class TestBatchMean:
    # a fixed non-diagonal covariance factor
    CHOL = np.array([[1.3, 0.0, 0.0, 0.0],
                     [0.4, 0.9, 0.0, 0.0],
                     [-0.7, 0.2, 1.1, 0.0],
                     [0.3, -0.5, 0.6, 0.8]])

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_offset_data_matches_direct_difference(self, offset):
        # the kernel expands the quadratic; centred on the data mean its
        # terms stay of the order of the spread, so a large common offset
        # must not show in the statistics
        base = gen_multivariate_mixture(300, 3, 4, 3.0, seed=13)
        data = Dataset(base.values + offset)
        params = GmmParams(weights=np.array([0.2, 0.5, 0.3]),
                           means=data.values[[3, 100, 250]], cov_chol=self.CHOL)
        model = PooledGmm.from_data(3, data)
        idx = np.sort(np.random.default_rng(0).integers(0, data.n, size=40))
        sbar, nll = model.checkpoint_stats(data, params)
        for got, rows in ((sbar, data.values),
                          (model.batch_mean(data, idx, params), data.values[idx]),
                          (model.batch_mean(data, None, params), data.values)):
            masses, moments, ref_nll = _direct_difference_pass(params, rows)
            assert np.abs(got[:3] - masses).max() <= 1e-9
            assert np.abs(got[3:] - moments.reshape(-1)).max() <= 1e-9 * np.abs(moments).max()
        assert nll == pytest.approx(ref_nll, abs=1e-9)
        assert model.penalized_nll(data, params) == pytest.approx(ref_nll, abs=1e-9)

    @pytest.mark.parametrize("indices", [None, [5, 5, 0, 17, 42, 3]])
    def test_equals_row_mean(self, gmm_model, gmm_data, scalar_model, scalar_data, indices):
        idx = None if indices is None else np.array(indices)
        pairs = ((gmm_model, gmm_data, random_params(3, 2, 53)),
                 (scalar_model, scalar_data, ScalarTwoGmmParams(mu=np.array([0.9, -0.6]))))
        for model, data, params in pairs:
            rows = model.sbar_rows(data, idx, params)
            got = model.batch_mean(data, idx, params)
            assert got.shape == (model.stat_dim,)
            assert np.abs(got - rows.mean(axis=0)).max() <= 1e-13
            sbar, _ = model.checkpoint_stats(data, params)
            assert np.abs(sbar - model.sbar_rows(data, None, params).mean(axis=0)).max() <= 1e-13

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 300), g=st.integers(1, 6), p=st.integers(1, 5),
           offset=st.floats(-1e8, 1e8), seed=st.integers(0, 2**32 - 1))
    def test_pass_properties_at_any_offset(self, n, g, p, offset, seed):
        rng = np.random.default_rng(seed)
        data = Dataset(offset + 2.0 * rng.standard_normal((n, p)))
        model = PooledGmm.from_data(g, data)
        a = rng.standard_normal((p, p))
        params = GmmParams(weights=rng.dirichlet(np.ones(g)),
                           means=offset + 2.0 * rng.standard_normal((g, p)),
                           cov_chol=np.linalg.cholesky(a @ a.T + np.eye(p)))
        idx = np.sort(rng.integers(0, n, size=rng.integers(1, 2 * n + 1)))   # duplicates
        sbar, nll = model.checkpoint_stats(data, params)
        for got, rows in ((sbar, data.values),
                          (model.batch_mean(data, idx, params), data.values[idx])):
            masses, moments, ref_nll = _direct_difference_pass(params, rows)
            assert np.abs(got[:g] - masses).max() <= 1e-9
            assert np.abs(got[g:] - moments.reshape(-1)).max() <= 1e-9 * np.abs(moments).max()
        assert nll == pytest.approx(_direct_difference_pass(params, data.values)[2], abs=1e-9)
        # the centred second moment is a centred sum, not M2 - mean mean^T
        xc = data.values - data.values.mean(axis=0)
        direct = sum(np.outer(x, x) for x in xc) / n
        assert np.abs(data.centred_moment - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())
        # a parameter object's cached terms hold only for the dataset mean they were made with
        other = Dataset(data.values + 1.0)

        def bits(prm, d):
            sbar, nll = model.checkpoint_stats(d, prm)
            return sbar.tobytes(), nll, model.batch_mean(d, idx, prm).tobytes()
        for d in (data, other, data):
            fresh = GmmParams(weights=params.weights, means=params.means,
                              cov_chol=params.cov_chol)
            assert bits(params, d) == bits(fresh, d)
