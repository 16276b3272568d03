import numpy as np
import pytest
from scipy.stats import kstwobign, norm

from emvr import Dataset
from emvr.data import (gen_multivariate_mixture, gen_scalar_mixture,
                       load_dataset, pca_apply, pca_fit,
                       remove_constant_features, save_dataset)


class TestScalarGenerator:
    def test_determinism(self):
        a = gen_scalar_mixture(500, seed=4)
        b = gen_scalar_mixture(500, seed=4)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_degenerate_mixture_is_pure_gaussian(self):
        data = gen_scalar_mixture(4000, weights=(1.0, 0.0), means=(0.5, -0.5), seed=2)
        assert (data.labels == 0).all()
        assert abs(data.values.mean() - 0.5) <= 4.0 / np.sqrt(4000)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            gen_scalar_mixture(10, weights=(0.7, 0.7))

    def test_ks_against_analytic_cdf(self):
        data = gen_scalar_mixture(10_000, seed=9)
        y = np.sort(data.values[:, 0])
        cdf = 0.2 * norm.cdf(y, 0.5, 1.0) + 0.8 * norm.cdf(y, -0.5, 1.0)
        n = y.size
        stat = np.max(np.maximum(np.arange(1, n + 1) / n - cdf,
                                 cdf - np.arange(n) / n))
        critical = kstwobign.ppf(0.99) / np.sqrt(n)
        assert stat < critical


class TestMultivariateGenerator:
    def test_determinism(self):
        a = gen_multivariate_mixture(300, 4, 6, 5.0, seed=1)
        b = gen_multivariate_mixture(300, 4, 6, 5.0, seed=1)
        assert np.array_equal(a.values, b.values)

    def test_center_norms(self):
        data = gen_multivariate_mixture(2000, 3, 10, 7.0, seed=3)
        for ell in range(3):
            center = data.values[data.labels == ell].mean(axis=0)
            assert abs(np.linalg.norm(center) - 7.0) <= 0.5

    def test_zero_separation_collapses_to_single_gaussian(self):
        from emvr import PooledGmm, run_algorithm
        from emvr.gmm import init_random_responsibility
        data = gen_multivariate_mixture(2000, 3, 4, 0.0, seed=5)
        multi = PooledGmm.from_data(3, data)
        single = PooledGmm.from_data(1, data)
        s_multi = run_algorithm("em", multi, data,
                                init_random_responsibility(multi, data, 0), k_max=80,
                                metric_mode="none").s_final
        mean = data.values.mean(axis=0)
        nll_multi = multi.penalized_nll(data, multi.m_step(s_multi))
        nll_single = single.penalized_nll(data, single.m_step(np.concatenate([[1.0], mean])))
        assert abs(nll_multi - nll_single) <= 1e-2

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_multivariate_mixture(10, 0, 2, 1.0)
        with pytest.raises(ValueError):
            gen_multivariate_mixture(10, 2, 2, -1.0)


class TestConstantFeatures:
    def test_injected_constants_dropped(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 7))
        X[:, 2] = 1.5
        X[:, 5] = 0.0
        X[:, 6] = -3.0
        dense, kept = remove_constant_features(Dataset(X))
        assert kept.tolist() == [0, 1, 3, 4]
        assert np.array_equal(dense.values, X[:, [0, 1, 3, 4]])

    def test_no_constants_is_identity(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal((30, 4)))
        dense, kept = remove_constant_features(data)
        assert kept.tolist() == [0, 1, 2, 3]
        assert np.array_equal(dense.values, data.values)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 6))
        X[:, 1] = 0.0
        once, _ = remove_constant_features(Dataset(X))
        twice, kept = remove_constant_features(once)
        assert np.array_equal(once.values, twice.values)
        assert kept.tolist() == list(range(once.dim))

    def test_image_protocol_shape(self):
        # 784 synthetic columns with 67 forced to zero leaves 717
        rng = np.random.default_rng(3)
        X = rng.standard_normal((64, 784))
        zero_cols = rng.choice(784, size=67, replace=False)
        X[:, zero_cols] = 0.0
        dense, kept = remove_constant_features(Dataset(X))
        assert dense.dim == 717
        assert kept.size == 717

    def test_all_constant_rejected(self):
        with pytest.raises(ValueError):
            remove_constant_features(Dataset(np.ones((5, 3))))


class TestPca:
    def test_exact_subspace_recovery(self):
        rng = np.random.default_rng(4)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        coords = rng.standard_normal((200, 2)) * [3.0, 1.5]
        X = coords @ basis.T + 0.25
        data = Dataset(X)
        transform = pca_fit(data, 2)
        recon = pca_apply(transform, data).values @ transform.components.T + transform.mean
        assert np.abs(recon - X).max() <= 1e-8

    def test_projected_covariance_diagonal(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((500, 5)) @ np.diag([3, 2, 1, 0.5, 0.2]))
        transform = pca_fit(data, 3)
        proj = pca_apply(transform, data).values
        cov = proj.T @ proj / proj.shape[0]
        assert np.abs(cov - np.diag(transform.explained_variance)).max() <= 1e-8

    def test_known_two_dimensional_covariance(self):
        # analytic oracle: cov [[2,1],[1,2]] has eigenpairs
        # ((1,1)/sqrt2, 3) and ((1,-1)/sqrt2, 1)
        rng = np.random.default_rng(6)
        chol = np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        data = Dataset(rng.standard_normal((100_000, 2)) @ chol.T)
        transform = pca_fit(data, 2)
        assert np.abs(transform.explained_variance - [3.0, 1.0]).max() <= 1e-2
        v0 = transform.components[:, 0]
        v1 = transform.components[:, 1]
        assert np.abs(np.abs(v0 @ [1, 1] / np.sqrt(2)) - 1.0) <= 1e-2
        assert np.abs(np.abs(v1 @ [1, -1] / np.sqrt(2)) - 1.0) <= 1e-2

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(7)
        data = Dataset(rng.standard_normal((300, 8)))
        transform = pca_fit(data, 5)
        gram = transform.components.T @ transform.components
        assert np.abs(gram - np.eye(5)).max() <= 1e-10
        assert (np.diff(transform.explained_variance) <= 1e-12).all()

    def test_dimension_validation(self):
        data = Dataset(np.random.default_rng(8).standard_normal((20, 3)))
        with pytest.raises(ValueError):
            pca_fit(data, 4)
        with pytest.raises(ValueError):
            pca_fit(data, 0)


class TestIo:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        data = Dataset(rng.standard_normal((100, 20)))
        path = tmp_path / "data.csv"
        save_dataset(data, path, fmt="csv")
        back = load_dataset(path, fmt="csv")
        assert np.array_equal(back.values, data.values)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        data = Dataset(rng.standard_normal((100, 20)))
        path = tmp_path / "data.emds"
        save_dataset(data, path, fmt="packed-binary")
        back = load_dataset(path, fmt="packed-binary")
        assert np.array_equal(back.values, data.values)

    def test_csv_header_flag(self, tmp_path):
        data = Dataset(np.arange(6.0).reshape(3, 2))
        path = tmp_path / "data.csv"
        save_dataset(data, path, fmt="csv", header=True)
        with pytest.raises(ValueError):
            load_dataset(path, fmt="csv")
        back = load_dataset(path, fmt="csv", header=True)
        assert np.array_equal(back.values, data.values)

    def test_parse_error_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_dataset(path, fmt="csv")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.emds"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_dataset(path, fmt="packed-binary")

    def test_truncated_binary(self, tmp_path):
        data = Dataset(np.ones((4, 2)))
        path = tmp_path / "data.emds"
        save_dataset(data, path, fmt="packed-binary")
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_dataset(path, fmt="packed-binary")
