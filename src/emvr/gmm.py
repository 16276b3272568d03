"""Gaussian-mixture model plugins.

Two concrete models:

* :class:`PooledGmm` — g components on R^p with free weights, free means and
  one full covariance matrix shared by every component.  The statistic
  vector has length ``g + g*p``: block one holds the per-component
  responsibility masses, block two holds g stacked p-vectors of
  posterior-weighted observation sums (both normalized by n).
* :class:`ScalarTwoGmm` — a scalar two-component mixture with known weights
  and a known common variance; only the two means are fitted.  Its
  statistic vector is ``(mass_1, mass_2, wsum_1, wsum_2)``.

Numerics: posteriors and likelihoods go through the log domain with
max-subtraction; the pooled covariance is carried as its Cholesky factor
so positive-definiteness is enforced structurally, and quadratic forms
are expanded after centring on the data mean (see :func:`gmm_log_joint`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtri

from .core import Dataset, DomainError, Model, full_stats

# Masses at or below this floor make a component empty; the M-step refuses
# to fit rather than clamp, so misconfigured runs fail loudly.
EMPTY_MASS_FLOOR = 1e-12

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GmmParams:
    """Pooled-covariance mixture parameters.

    ``cov_chol`` is the lower Cholesky factor L of the shared covariance,
    Sigma = L L^T.  The precision and its log-determinant are derived from
    the factor on demand.
    """

    weights: np.ndarray   # (g,)
    means: np.ndarray     # (g, p)
    cov_chol: np.ndarray  # (p, p) lower triangular

    def __post_init__(self):
        # own copies: freezing a caller's array would be a rude side effect
        w = np.array(self.weights, dtype=np.float64)
        m = np.array(self.means, dtype=np.float64)
        lc = np.asarray(self.cov_chol, dtype=np.float64)
        if w.ndim != 1 or m.ndim != 2 or m.shape[0] != w.size:
            raise ValueError("inconsistent weight/mean shapes")
        if lc.shape != (m.shape[1], m.shape[1]):
            raise ValueError("cov_chol must be p x p")
        if (w < -1e-12).any() or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if not np.all(np.diag(lc) > 0):
            raise ValueError("cov_chol must have a strictly positive diagonal")
        if not (np.isfinite(w).all() and np.isfinite(m).all() and np.isfinite(lc).all()):
            raise ValueError("non-finite parameter entries")
        lc = np.tril(lc)
        for arr in (w, m, lc):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "cov_chol", lc)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def covariance(self) -> np.ndarray:
        return self.cov_chol @ self.cov_chol.T

    def precision(self) -> np.ndarray:
        li = _chol_inv(self)
        return li.T @ li

    def log_det_cov(self) -> float:
        return 2.0 * np.log(np.diag(self.cov_chol)).sum()


@dataclass(frozen=True)
class ScalarTwoGmmParams:
    """Means of the constrained scalar two-component mixture."""

    mu: np.ndarray  # (2,)

    def __post_init__(self):
        mu = np.array(self.mu, dtype=np.float64)
        if mu.shape != (2,) or not np.isfinite(mu).all():
            raise ValueError("mu must be two finite reals")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


def _chol_inv(params: GmmParams) -> np.ndarray:
    """Lower-triangular inverse of the covariance factor, cached per instance."""
    li = params.__dict__.get("_chol_inv")
    if li is None:
        li, _ = dtrtri(params.cov_chol, lower=1)   # the diagonal is positive
        object.__setattr__(params, "_chol_inv", li)
    return li


def gmm_log_joint(params: GmmParams, rows: np.ndarray, center: np.ndarray):
    """Log-joint of each row and component, split as ``(a, r)``.

    ``log(alpha_l N(mu_l, Sigma)[y_i]) = a[i, l] - r[i]`` with rows and means
    whitened after centring, ``z = L^{-1}(x - center)``:
    ``a = z_y z_mu^T - |z_mu|^2 / 2 + log alpha + log norm`` and ``r = |z_y|^2 / 2``.
    Centring keeps the expanded terms of the order of the spread, not the offset.
    """
    li_t = _chol_inv(params).T
    zy = (rows - center) @ li_t
    zmu = (params.means - center) @ li_t
    log_norm = -0.5 * params.dim * _LOG_2PI - np.log(np.diag(params.cov_chol)).sum()
    with np.errstate(divide="ignore"):
        bias = np.log(params.weights) + log_norm - 0.5 * np.einsum("gp,gp->g", zmu, zmu)
    a = zy @ zmu.T
    a += bias
    return a, 0.5 * np.einsum("mp,mp->m", zy, zy)


def _softmax_rows(a: np.ndarray):
    """Row-normalized ``exp(a)`` (in place of ``a``) and each row's log-sum-exp."""
    mx = a.max(axis=1)
    a -= mx[:, None]
    np.exp(a, out=a)
    denom = a.sum(axis=1)
    a /= denom[:, None]
    return a, np.log(denom) + mx


def gmm_posterior(params: GmmParams, y: np.ndarray) -> np.ndarray:
    """Posterior component probabilities for one observation.

    Entries are nonnegative and sum to one; computed in the log domain
    with max-subtraction.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    return _softmax_rows(gmm_log_joint(params, y[None, :], y)[0])[0][0]   # centred on y


def _gmm_pass(params: GmmParams, data: Dataset, indices, want_nll: bool,
              include_norm_const: bool = True):
    """One fused E-step pass: (statistic average over the rows, mean NLL)."""
    rows = data.values if indices is None else data.values[indices]
    a, r = gmm_log_joint(params, rows, data.mean)
    post, lse = _softmax_rows(a)
    sbar = np.concatenate([post.sum(axis=0), (post.T @ rows).reshape(-1)]) / rows.shape[0]
    if not want_nll:
        return sbar, float("nan")
    nll = (r - lse).mean()
    return sbar, float(nll if include_norm_const else nll - 0.5 * params.dim * _LOG_2PI)


def gmm_m_step(s: np.ndarray, second_moment: np.ndarray) -> GmmParams:
    """Unique minimizer of the complete-data objective at statistics ``s``.

    ``second_moment`` is the dataset's ``(1/n) sum_i y_i y_i^T``; the fitted
    covariance is ``second_moment - sum_l s_l mu_l mu_l^T`` and must be
    positive definite.  Raises :class:`DomainError` for empty components or
    a degenerate covariance.
    """
    second_moment = np.asarray(second_moment, dtype=np.float64)
    p = second_moment.shape[0]
    s = np.asarray(s, dtype=np.float64)
    g, rem = divmod(s.size, 1 + p)
    if s.ndim != 1 or rem != 0:
        raise ValueError(f"statistic shape {s.shape} incompatible with p={p}")
    masses, moments = s[:g], s[g:].reshape(g, p)
    bad = np.flatnonzero(masses <= EMPTY_MASS_FLOOR)
    if bad.size:
        raise DomainError(f"component {bad[0]} has mass {masses[bad[0]]:.3e}",
                          violation="empty component")
    weights = masses / masses.sum()
    means = moments / masses[:, None]
    cov = second_moment - (means * masses[:, None]).T @ means
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise DomainError("implied covariance is not positive definite",
                          violation="degenerate covariance") from None
    return GmmParams(weights=weights, means=means, cov_chol=chol)


def gmm_nll(params: GmmParams, data: Dataset, include_norm_const: bool = True) -> float:
    """Mean negative log-likelihood of the mixture on ``data``.

    ``include_norm_const=False`` drops the additive ``(p/2) log(2 pi)``
    term, the reduced reporting convention some experiment logs use.
    """
    return _gmm_pass(params, data, None, True, include_norm_const)[1]


def gmm_phi(params: GmmParams) -> np.ndarray:
    """Natural-parameter vector matching the statistic layout.

    Block one: ``log(alpha_l) - mu_l^T Gamma mu_l / 2``; block two: the
    stacked ``Gamma mu_l``.  Zero weights have no finite log and raise.
    """
    if (params.weights <= 0).any():
        raise DomainError("zero mixture weight has no finite log", violation="zero weight")
    li = _chol_inv(params)
    z = li @ params.means.T                                      # (p, g)
    quad = np.einsum("ij,ij->j", z, z)                           # mu^T Gamma mu
    gamma_mu = (li.T @ z).T                                      # (g, p)
    head = np.log(params.weights) - 0.5 * quad
    return np.concatenate([head, gamma_mu.reshape(-1)])


def gmm_log_partition(params: GmmParams, second_moment: np.ndarray) -> float:
    """Log-partition term of the complete-data objective, data-dependent.

    ``(p/2) log(2 pi) + tr(Gamma M2) / 2 - log det(Gamma) / 2`` where M2 is
    the dataset second moment.
    """
    prec = params.precision()
    return float(0.5 * params.dim * _LOG_2PI
                 + 0.5 * np.sum(prec * second_moment)
                 + 0.5 * params.log_det_cov())


class PooledGmm(Model):
    """Mixture of g Gaussians on R^p with one shared full covariance.

    The model is bound to a dataset's second moment at construction so the
    abstract ``m_step(s)`` signature stays closed over it; the pure-function
    form :func:`gmm_m_step` takes the moment explicitly.
    """

    def __init__(self, n_components: int, dim: int, second_moment: np.ndarray,
                 include_norm_const: bool = True):
        if n_components < 1 or dim < 1:
            raise ValueError("need n_components >= 1 and dim >= 1")
        second_moment = np.asarray(second_moment, dtype=np.float64)
        if second_moment.shape != (dim, dim):
            raise ValueError("second_moment must be dim x dim")
        self.g = int(n_components)
        self.p = int(dim)
        self.second_moment = second_moment
        self.include_norm_const = include_norm_const

    @classmethod
    def from_data(cls, n_components: int, data: Dataset,
                  include_norm_const: bool = True) -> "PooledGmm":
        return cls(n_components, data.dim, data.second_moment,
                   include_norm_const=include_norm_const)

    @property
    def stat_dim(self) -> int:
        return self.g * (1 + self.p)

    def sbar_rows(self, data: Dataset, indices, params: GmmParams) -> np.ndarray:
        rows = data.values if indices is None else data.values[indices]
        post = _softmax_rows(gmm_log_joint(params, rows, data.mean)[0])[0]
        weighted = post[:, :, None] * rows[:, None, :]
        return np.concatenate([post, weighted.reshape(rows.shape[0], -1)], axis=1)

    def batch_mean(self, data: Dataset, indices, params: GmmParams) -> np.ndarray:
        return _gmm_pass(params, data, indices, want_nll=False)[0]

    def m_step(self, s: np.ndarray) -> GmmParams:
        return gmm_m_step(s, self.second_moment)

    def penalized_nll(self, data: Dataset, params: GmmParams,
                      include_norm_const: bool | None = None) -> float:
        if include_norm_const is None:
            include_norm_const = self.include_norm_const
        return gmm_nll(params, data, include_norm_const=include_norm_const)

    def natural_param(self, params: GmmParams) -> np.ndarray:
        return gmm_phi(params)

    def log_partition(self, params: GmmParams) -> float:
        return gmm_log_partition(params, self.second_moment)

    def checkpoint_stats(self, data: Dataset, params: GmmParams,
                         want_nll: bool = True):
        return _gmm_pass(params, data, None, want_nll, self.include_norm_const)


class ScalarTwoGmm(Model):
    """Scalar two-component mixture; weights and the common variance are known.

    Defaults follow the synthetic benchmark: weights (0.2, 0.8), unit
    variance.  ``second_moment`` (mean of y^2) is only needed by
    :meth:`log_partition`.
    """

    def __init__(self, weights=(0.2, 0.8), variance: float = 1.0,
                 second_moment: float | None = None,
                 include_norm_const: bool = True):
        w1, w2 = float(weights[0]), float(weights[1])
        if w1 <= 0 or w2 <= 0 or abs(w1 + w2 - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        if variance <= 0:
            raise ValueError("variance must be positive")
        self.weights = (w1, w2)
        self.variance = float(variance)
        self.second_moment = second_moment
        self.include_norm_const = include_norm_const

    @classmethod
    def from_data(cls, data: Dataset, weights=(0.2, 0.8), variance: float = 1.0,
                  include_norm_const: bool = True):
        if data.dim != 1:
            raise ValueError("scalar mixture expects 1-d observations")
        return cls(weights=weights, variance=variance,
                   second_moment=float(data.second_moment[0, 0]),
                   include_norm_const=include_norm_const)

    @property
    def stat_dim(self) -> int:
        return 4

    def _posterior(self, data: Dataset, indices, params: ScalarTwoGmmParams):
        """Rows ``y``, ``p1 = P(z = 1 | y)``, ``y p1`` and ``softplus(-d) = -log p1``,
        with ``d`` the log-odds of component one."""
        y = data.values[:, 0] if indices is None else data.values[indices, 0]
        (mu1, mu2), (w1, w2), v = params.mu, self.weights, self.variance
        d = np.log(w1) - np.log(w2) + (mu1 - mu2) * (2.0 * y - mu1 - mu2) / (2.0 * v)
        sp = np.logaddexp(0.0, -d)
        p1 = np.exp(-sp)   # a stable logistic
        return y, p1, y * p1, sp

    def _pass(self, data: Dataset, indices, params: ScalarTwoGmmParams, want_nll: bool,
              include_norm_const: bool = True):
        """One fused E-step pass: (statistic average over the rows, mean NLL).

        The likelihood reuses the logistic's softplus:
        ``log(w1 N1 + w2 N2) = log(w1 N1) + softplus(-d)``.
        """
        y, p1, yp1, sp = self._posterior(data, indices, params)
        # the same four columns as sbar_rows, summed without stacking them
        sbar = np.array([p1.sum(), (1.0 - p1).sum(), yp1.sum(), (y - yp1).sum()]) / y.size
        if not want_nll:
            return sbar, float("nan")
        v = self.variance
        l1 = np.log(self.weights[0]) - (y - params.mu[0]) ** 2 / (2.0 * v)
        nll = -(l1 + sp).mean() + 0.5 * np.log(v)
        if include_norm_const:
            nll += 0.5 * _LOG_2PI
        return sbar, float(nll)

    def sbar_rows(self, data: Dataset, indices, params: ScalarTwoGmmParams) -> np.ndarray:
        y, p1, yp1, _ = self._posterior(data, indices, params)
        return np.column_stack([p1, 1.0 - p1, yp1, y - yp1])

    def batch_mean(self, data: Dataset, indices, params: ScalarTwoGmmParams) -> np.ndarray:
        return self._pass(data, indices, params, want_nll=False)[0]

    def checkpoint_stats(self, data: Dataset, params: ScalarTwoGmmParams,
                         want_nll: bool = True):
        return self._pass(data, None, params, want_nll, self.include_norm_const)

    def m_step(self, s: np.ndarray) -> ScalarTwoGmmParams:
        return scalar2_m_step(s)

    def penalized_nll(self, data: Dataset, params: ScalarTwoGmmParams,
                      include_norm_const: bool | None = None) -> float:
        if include_norm_const is None:
            include_norm_const = self.include_norm_const
        return self._pass(data, None, params, True, include_norm_const)[1]

    def natural_param(self, params: ScalarTwoGmmParams) -> np.ndarray:
        v = self.variance
        mu = params.mu
        return np.array([np.log(self.weights[0]) - mu[0] ** 2 / (2 * v),
                         np.log(self.weights[1]) - mu[1] ** 2 / (2 * v),
                         mu[0] / v, mu[1] / v])

    def log_partition(self, params: ScalarTwoGmmParams) -> float:
        if self.second_moment is None:
            raise ValueError("log_partition needs the data second moment; build via from_data")
        return float(0.5 * _LOG_2PI + 0.5 * np.log(self.variance)
                     + self.second_moment / (2.0 * self.variance))


def scalar2_m_step(s: np.ndarray) -> ScalarTwoGmmParams:
    """Means-only M-step: ``mu_l = wsum_l / mass_l``."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (4,):
        raise ValueError("scalar two-component statistics have length 4")
    masses, wsums = s[:2], s[2:]
    bad = np.flatnonzero(masses <= EMPTY_MASS_FLOOR)
    if bad.size:
        raise DomainError(f"component {bad[0]} has mass {masses[bad[0]]:.3e}",
                          violation="empty component")
    return ScalarTwoGmmParams(mu=wsums / masses)


def init_random_responsibility(model: Model, data: Dataset, seed) -> np.ndarray:
    """Starting statistics from a seeded random soft-assignment matrix.

    Draws one Dirichlet(1, ..., 1) responsibility row per observation and
    averages the implied per-sample statistics, which lands in the
    admissible set by construction.
    """
    rng = np.random.default_rng(seed)
    if isinstance(model, PooledGmm):
        g = model.g
    elif isinstance(model, ScalarTwoGmm):
        g = 2
    else:
        raise NotImplementedError("random-responsibility init is defined for mixture models")
    resp = rng.dirichlet(np.ones(g), size=data.n)
    masses = resp.mean(axis=0)
    weighted = resp.T @ data.values / data.n
    return np.concatenate([masses, weighted.reshape(-1)])


def init_kmeans(model: PooledGmm, data: Dataset, seed, n_iter: int = 10) -> np.ndarray:
    """Starting statistics from seeded k-means-style hard clustering.

    Picks g distinct rows as centers, runs a few Lloyd iterations, fits
    weights/means/pooled covariance to the hard assignment and maps the
    parameters to statistics via a full E-step pass.
    """
    rng = np.random.default_rng(seed)
    g = model.g
    X = data.values
    centers = X[rng.choice(data.n, size=g, replace=False)].copy()
    for _ in range(n_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for ell in range(g):
            mask = assign == ell
            if mask.any():
                centers[ell] = X[mask].mean(axis=0)
    counts = np.bincount(assign, minlength=g).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    weights = counts / counts.sum()
    cov = data.second_moment - (centers * weights[:, None]).T @ centers
    cov = (cov + cov.T) / 2
    # guard hard-assignment degeneracies with a small ridge
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(cov + 1e-6 * np.eye(model.p))
    params = GmmParams(weights=weights, means=centers, cov_chol=chol)
    return full_stats(model, data, params)


def stats_from_params(model: Model, data: Dataset, params) -> np.ndarray:
    """Bridge a parameter initializer to statistics: one full E-step pass."""
    return full_stats(model, data, params)


def save_params(path, params) -> None:
    """Write parameters to a flat key-value text file (exact float round-trip)."""
    lines = []
    if isinstance(params, GmmParams):
        lines.append("format = pooled-gmm-v1")
        lines.append(f"g = {params.n_components}")
        lines.append(f"p = {params.dim}")
        lines.append("weights = " + " ".join(repr(float(v)) for v in params.weights))
        for ell in range(params.n_components):
            lines.append(f"mean.{ell} = " + " ".join(repr(float(v)) for v in params.means[ell]))
        for i in range(params.dim):
            lines.append(f"cov_chol.{i} = " + " ".join(repr(float(v)) for v in params.cov_chol[i]))
    elif isinstance(params, ScalarTwoGmmParams):
        lines.append("format = scalar2-v1")
        lines.append("mu = " + " ".join(repr(float(v)) for v in params.mu))
    else:
        raise TypeError(f"cannot serialize {type(params).__name__}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path):
    """Read parameters written by :func:`save_params`."""
    fields = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    fmt = fields.get("format")
    if fmt == "scalar2-v1":
        return ScalarTwoGmmParams(mu=np.array([float(v) for v in fields["mu"].split()]))
    if fmt != "pooled-gmm-v1":
        raise ValueError(f"unknown parameter format {fmt!r}")
    g, p = int(fields["g"]), int(fields["p"])
    weights = np.array([float(v) for v in fields["weights"].split()])
    means = np.array([[float(v) for v in fields[f"mean.{ell}"].split()] for ell in range(g)])
    chol = np.array([[float(v) for v in fields[f"cov_chol.{i}"].split()] for i in range(p)])
    return GmmParams(weights=weights, means=means, cov_chol=chol)
