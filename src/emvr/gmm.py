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

Each model's objective is the mean negative log-likelihood of the data,
with the Gaussian constant ``(p/2) log 2 pi`` included.

Numerics: every pooled statistic, store row and likelihood comes from one
component-major E-step pass (:func:`_gmm_pass`), a softmax with max-subtraction
over ``(g, m)`` logits centred on the data mean (a full pass reads the centred
rows cached on the dataset); the rows' quadratic enters the
likelihood as ``tr(Sigma^{-1} C) / 2``, with C the data's centred moment.  A
pass with at least ``core.SPLIT_WORK`` logits runs its kernel (:func:`_softmax`)
in two row parts, the second on a helper thread (:func:`emvr.core._split_rows`),
split at a row that keeps OpenBLAS's ``gemm`` bits; each part writes only its
own columns of arrays allocated beforehand, and the lift over the rows stays
one call, so every output is bitwise the one-thread pass's.  A smaller pass
runs the kernel once over all rows.  The k-means start (:func:`init_kmeans`)
splits each Lloyd step of that size too: the assignment by rows, the
per-column cluster sums by columns, each part into arrays made beforehand,
so the start is bitwise the one-thread start.  The
pooled covariance has one formula and is kept as its Cholesky factor, so it is
positive definite by construction.  The scalar posterior is one in-place
logistic of the negated log-odds, built from the halved means with ``(mu1 - mu2) / v``
folded into one scale when v is a power of two; a full pass reads the data sum
cached on the dataset, and softplus only enters the likelihood.  Halving and
negation are exact, so the scalar kernel keeps the bits of the ``2y - mu1 - mu2``
form while no step overflows or leaves the normal range.

Footprint: the module imports numpy only.  scipy's LAPACK (``dtrtri``, the
covariance factor's inverse) is imported by :func:`_dtrtri` when the first
:class:`PooledGmm` is built, or a standalone :class:`GmmParams` first needs the
inverse, so a scalar run never loads it (~150 ms and ~25 MB resident).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import Dataset, DomainError, Model, _split_point, _split_rows, full_stats

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

    @classmethod
    def _trusted(cls, weights: np.ndarray, means: np.ndarray,
                 cov_chol: np.ndarray) -> "GmmParams":
        """Freeze and wrap arrays the caller has just made and owns, without the
        copies and checks of ``__post_init__``; they must already pass them."""
        params = object.__new__(cls)
        for arr in (weights, means, cov_chol):
            arr.setflags(write=False)
        params.__dict__.update(weights=weights, means=means, cov_chol=cov_chol)
        return params

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


@cache
def _dtrtri():
    """LAPACK's triangular inverse from scipy, imported on the first call: only the
    pooled model needs it, and the import costs ~150 ms and ~25 MB resident."""
    from scipy.linalg.lapack import dtrtri
    return dtrtri


def _chol_inv(params: GmmParams) -> np.ndarray:
    """Lower-triangular inverse of the covariance factor, cached per instance."""
    li = params.__dict__.get("_chol_inv")
    if li is None:
        li, _ = _dtrtri()(params.cov_chol, lower=1)   # the diagonal is positive
        object.__setattr__(params, "_chol_inv", li)
    return li


def _terms(params: GmmParams, li: np.ndarray, center: np.ndarray) -> tuple:
    """``(center, B, bias)`` of :func:`_logit_terms`, from the inverse factor ``li``;
    a zero weight's log is -inf."""
    zmu = (params.means - center) @ li.T
    log_norm = -0.5 * params.dim * _LOG_2PI - np.log(params.cov_chol.diagonal()).sum()
    bias = np.log(params.weights) + log_norm - 0.5 * np.einsum("gp,gp->g", zmu, zmu)
    return center, zmu @ li, bias


def _logit_terms(params: GmmParams, center: np.ndarray):
    """``(B, bias)``: ``log(alpha_l N(mu_l, Sigma)[y]) = (B (y - center) + bias)_l - r(y)``,
    ``B = (Sigma^{-1}(mu - center)^T)^T``, ``r(y) = |L^{-1}(y - center)|^2 / 2``; cached
    per instance for the one centre array they were made with, checked by identity.
    A pooled model's M-step caches them for its data's mean."""
    cached = params.__dict__.get("_logit_terms")
    if cached is None or cached[0] is not center:
        with np.errstate(divide="ignore"):
            cached = _terms(params, _chol_inv(params), center)
        object.__setattr__(params, "_logit_terms", cached)
    return cached[1:]


def _lift(post: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``sum_i r_i (x) (1, y_i)`` over ``rows`` with ``(g, m)`` posteriors ``post``,
    written into one new array."""
    g = post.shape[0]
    out = np.empty(g * (1 + rows.shape[1]))
    post.sum(axis=1, out=out[:g])
    np.matmul(post, rows, out=out[g:].reshape(g, -1))
    return out


def _softmax(B, bias, xc, want_lse, a=None, mx=None, denom=None, lse=None):
    """The E-step kernel over the centred rows ``xc``: ``(post, lse)``, the
    ``(g, m)`` softmax of the logits ``B xc' + bias`` with max-subtraction and,
    if wanted, each row's log-sum-exp.  It writes into the arrays it is given
    (one part of a split pass) and makes each one it is not given."""
    a = np.matmul(B, xc.T, out=a)
    a += bias[:, None]
    mx = a.max(axis=0, out=mx)
    np.exp(np.subtract(a, mx, out=a), out=a)
    denom = a.sum(axis=0, out=denom)
    a /= denom
    return a, np.add(np.log(denom, out=lse), mx, out=lse) if want_lse else None


def _gmm_pass(params: GmmParams, data: Dataset, indices, want_lse: bool = False):
    """The one pooled E-step over the rows ``indices`` (all rows if ``None``):
    ``(rows, post, lse)``, the rows gathered once, their ``(g, m)`` posteriors and,
    if wanted, each row's log-sum-exp of the logits, its log-likelihood plus r.
    A full pass reads the dataset's cached centred rows, a batch those of
    :meth:`Dataset.gather`.
    A large pass runs :func:`_softmax` in two row parts (``core._split_rows``)."""
    rows, xc = (data.values, data.centred) if indices is None else data.gather(indices)
    B, bias = _logit_terms(params, data.mean)
    g, m = B.shape[0], xc.shape[0]
    mid = _split_point(m, g * m)
    if not mid:
        return (rows, *_softmax(B, bias, xc, want_lse))
    # each part writes its own columns of arrays made here: the helper thread
    # makes no array of the pass's size
    a, mx, denom = np.empty((g, m)), np.empty(m), np.empty(m)
    lse = np.empty(m) if want_lse else None
    _split_rows(lambda lo, hi: _softmax(B, bias, xc[lo:hi], want_lse, a[:, lo:hi], mx[lo:hi],
                                        denom[lo:hi], None if lse is None else lse[lo:hi]),
                m, mid)
    return rows, a, lse


def _pooled_cov(second_moment: np.ndarray, w: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Pooled covariance ``second_moment - sum_l w_l mu_l mu_l^T``."""
    return second_moment - (means * w[:, None]).T @ means


def gmm_m_step(s: np.ndarray, second_moment: np.ndarray,
               center: np.ndarray | None = None) -> GmmParams:
    """Unique minimizer of the complete-data objective at statistics ``s``.

    ``second_moment`` is the dataset's ``(1/n) sum_i y_i y_i^T``; the fitted
    covariance is ``second_moment - sum_l s_l mu_l mu_l^T`` and must be
    positive definite.  Raises :class:`DomainError` for empty components or
    a degenerate covariance.  Given ``center``, the data mean that the passes
    centre on, the parameters come with the inverse factor and logit terms
    that :func:`_logit_terms` would build, bitwise, so a pass finds them
    cached: one parameter set is built in one call, under one ``errstate``.
    """
    second_moment = np.asarray(second_moment, dtype=np.float64)
    p = second_moment.shape[0]
    s = np.asarray(s, dtype=np.float64)
    g, rem = divmod(s.size, 1 + p)
    if s.ndim != 1 or rem != 0:
        raise ValueError(f"statistic shape {s.shape} incompatible with p={p}")
    masses, moments = s[:g], s[g:].reshape(g, p)
    if (masses <= EMPTY_MASS_FLOOR).any():
        bad = np.flatnonzero(masses <= EMPTY_MASS_FLOOR)[0]
        raise DomainError(f"component {bad} has mass {masses[bad]:.3e}",
                          violation="empty component")
    # overflow shows as a non-finite mass sum or covariance, not as a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        total = masses.sum()
        means = moments / masses[:, None]
        cov = _pooled_cov(second_moment, masses, means)
        # what GmmParams would check: a finite mass sum gives unit-sum weights, a finite
        # covariance finite means; its Cholesky factor is lower triangular, positive
        # diagonal
        if not (math.isfinite(total) and np.isfinite(cov).all()):
            raise DomainError("mass sum or implied covariance is not finite",
                              violation="non-finite")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise DomainError("implied covariance is not positive definite",
                              violation="degenerate covariance") from None
        params = GmmParams._trusted(masses / total, means, chol)
        if center is not None:
            li, _ = _dtrtri()(chol, lower=1)   # the diagonal is positive
            params.__dict__.update(_chol_inv=li, _logit_terms=_terms(params, li, center))
    return params


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


class PooledGmm(Model):
    """Mixture of g Gaussians on R^p with one shared full covariance.

    The model is bound to a dataset's second moment at construction so the
    abstract ``m_step(s)`` signature stays closed over it; the pure-function
    form :func:`gmm_m_step` takes the moment explicitly.  A model built
    :meth:`from_data` is bound to the data's mean as well, and its M-step
    builds each parameter set's logit terms for it.
    """

    def __init__(self, n_components: int, dim: int, second_moment: np.ndarray,
                 center: np.ndarray | None = None):
        if n_components < 1 or dim < 1:
            raise ValueError("need n_components >= 1 and dim >= 1")
        second_moment = np.asarray(second_moment, dtype=np.float64)
        if second_moment.shape != (dim, dim):
            raise ValueError("second_moment must be dim x dim")
        if center is not None and np.shape(center) != (dim,):
            raise ValueError("center must have length dim")
        self.g = int(n_components)
        self.p = int(dim)
        self.second_moment = second_moment
        self.center = center
        _dtrtri()   # load LAPACK with the model, not in its first M-step

    @classmethod
    def from_data(cls, n_components: int, data: Dataset) -> "PooledGmm":
        return cls(n_components, data.dim, data.second_moment, data.mean)

    @property
    def stat_dim(self) -> int:
        return self.g * (1 + self.p)

    def sbar_rows(self, data: Dataset, indices, params: GmmParams) -> np.ndarray:
        rows, post = _gmm_pass(params, data, indices)[:2]
        weighted = post.T[:, :, None] * rows[:, None, :]
        return np.concatenate([post.T, weighted.reshape(rows.shape[0], -1)], axis=1)

    def store_rows(self, data: Dataset, indices, params: GmmParams) -> np.ndarray:
        """The ``(m, g)`` posteriors; a statistic row is ``r_i (x) (1, y_i)``."""
        return _gmm_pass(params, data, indices)[1].T

    def lift_sum(self, data: Dataset, indices, w: np.ndarray) -> np.ndarray:
        # the pass's (g, m) layout, so a full store lifts bitwise as full_stats
        return _lift(np.ascontiguousarray(w.T),
                     data.values if indices is None else data.gather(indices)[0])

    def batch_mean(self, data: Dataset, indices, params: GmmParams) -> np.ndarray:
        rows, post = _gmm_pass(params, data, indices)[:2]
        sbar = _lift(post, rows)
        sbar /= rows.shape[0]
        return sbar

    def m_step(self, s: np.ndarray) -> GmmParams:
        return gmm_m_step(s, self.second_moment, self.center)

    def penalized_nll(self, data: Dataset, params: GmmParams) -> float:
        return self.checkpoint_stats(data, params)[1]

    def natural_param(self, params: GmmParams) -> np.ndarray:
        return gmm_phi(params)

    def checkpoint_stats(self, data: Dataset, params: GmmParams,
                         want_nll: bool = True):
        rows, post, lse = _gmm_pass(params, data, None, want_lse=want_nll)
        sbar = _lift(post, rows)
        sbar /= data.n
        if not want_nll:
            return sbar, float("nan")
        nll = 0.5 * np.sum(params.precision() * data.centred_moment) - lse.mean()  # mean r(y)
        return sbar, float(nll)


def _logistic(nd: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(nd))`` in place of the negated log-odds ``nd``; exactly 0 where
    ``exp(nd)`` overflows (``nd > 709.78``), less than 5.6e-309 below the true value."""
    with np.errstate(over="ignore"):
        np.exp(nd, out=nd)
    nd += 1.0
    return np.divide(1.0, nd, out=nd)


class ScalarTwoGmm(Model):
    """Scalar two-component mixture; weights and the common variance are known.

    Defaults follow the synthetic benchmark: weights (0.2, 0.8), unit
    variance.
    """

    def __init__(self, weights=(0.2, 0.8), variance: float = 1.0):
        w1, w2 = float(weights[0]), float(weights[1])
        if w1 <= 0 or w2 <= 0 or abs(w1 + w2 - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        if variance <= 0:
            raise ValueError("variance must be positive")
        self.weights = (w1, w2)
        self.variance = float(variance)
        self._log_w_ratio = np.log(w1) - np.log(w2)
        # dividing by a power of two is exact, so (mu1 - mu2) / v folds into one scale
        self._v_pow2 = np.frexp(self.variance)[0] == 0.5

    @classmethod
    def from_data(cls, data: Dataset, weights=(0.2, 0.8), variance: float = 1.0):
        if data.dim != 1:
            raise ValueError("scalar mixture expects 1-d observations")
        return cls(weights=weights, variance=variance)

    @property
    def stat_dim(self) -> int:
        return 4

    def _neg_log_odds(self, y: np.ndarray, params: ScalarTwoGmmParams) -> np.ndarray:
        """Negated log-odds ``-d`` of component one, built in place in one new array:
        ``(mu1/2 - y + mu2/2) (mu1 - mu2) / v - log(w1 / w2)``.  Halving and negation
        are exact and ``fl(2x) = 2 fl(x)``, so this is bitwise the negation of
        ``(2y - mu1 - mu2) (mu1 - mu2) / (2v) + log(w1 / w2)`` evaluated left to right
        while no step overflows or leaves the normal range."""
        mu1, mu2 = params.mu
        nd = 0.5 * mu1 - y
        nd += 0.5 * mu2
        if self._v_pow2:
            nd *= (mu1 - mu2) / self.variance
        else:
            nd *= mu1 - mu2
            nd /= self.variance
        nd -= self._log_w_ratio
        return nd

    def _pass(self, data: Dataset, indices, params: ScalarTwoGmmParams, want_nll: bool):
        """One fused E-step pass: (statistic average over the rows, mean NLL).

        Two reductions of ``p1`` give the statistics, with the data sum of a full
        pass cached on the dataset; the likelihood uses
        ``log(w1 N1 + w2 N2) = log(w1 N1) + softplus(-d)``.
        """
        y = data.values[:, 0] if indices is None else data.values[indices, 0]
        nd = self._neg_log_odds(y, params)
        sp = np.logaddexp(0.0, nd) if want_nll else None
        p1 = _logistic(nd)
        m1, yp1 = p1.sum(), y @ p1
        ysum = data.column_sums[0] if indices is None else y.sum()
        sbar = np.array([m1, y.size - m1, yp1, ysum - yp1]) / y.size
        if not want_nll:
            return sbar, float("nan")
        v = self.variance
        l1 = np.log(self.weights[0]) - (y - params.mu[0]) ** 2 / (2.0 * v)
        nll = -(l1 + sp).mean() + 0.5 * np.log(v) + 0.5 * _LOG_2PI
        return sbar, float(nll)

    def sbar_rows(self, data: Dataset, indices, params: ScalarTwoGmmParams) -> np.ndarray:
        y = data.values[:, 0] if indices is None else data.values[indices, 0]
        p1 = _logistic(self._neg_log_odds(y, params))
        yp1 = y * p1
        return np.column_stack([p1, 1.0 - p1, yp1, y - yp1])

    def batch_mean(self, data: Dataset, indices, params: ScalarTwoGmmParams) -> np.ndarray:
        return self._pass(data, indices, params, want_nll=False)[0]

    def checkpoint_stats(self, data: Dataset, params: ScalarTwoGmmParams,
                         want_nll: bool = True):
        return self._pass(data, None, params, want_nll)

    def m_step(self, s: np.ndarray) -> ScalarTwoGmmParams:
        return scalar2_m_step(s)

    def penalized_nll(self, data: Dataset, params: ScalarTwoGmmParams) -> float:
        return self._pass(data, None, params, True)[1]

    def natural_param(self, params: ScalarTwoGmmParams) -> np.ndarray:
        v = self.variance
        mu = params.mu
        return np.array([np.log(self.weights[0]) - mu[0] ** 2 / (2 * v),
                         np.log(self.weights[1]) - mu[1] ** 2 / (2 * v),
                         mu[0] / v, mu[1] / v])


def scalar2_m_step(s: np.ndarray) -> ScalarTwoGmmParams:
    """Means-only M-step: ``mu_l = wsum_l / mass_l``.  Raises :class:`DomainError`
    for an empty component or a non-finite mean."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (4,):
        raise ValueError("scalar two-component statistics have length 4")
    masses, wsums = s[:2], s[2:]
    bad = np.flatnonzero(masses <= EMPTY_MASS_FLOOR)
    if bad.size:
        raise DomainError(f"component {bad[0]} has mass {masses[bad[0]]:.3e}",
                          violation="empty component")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = wsums / masses
    if not np.isfinite(mu).all():
        raise DomainError("implied means are not finite", violation="non-finite")
    return ScalarTwoGmmParams(mu=mu)


def init_random_responsibility(model: Model, data: Dataset, seed) -> np.ndarray:
    """Starting statistics from a random soft-assignment matrix drawn from ``seed``.

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


def _nearest_center(xc: np.ndarray, centers: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Each row's nearest centre, by ``|c - center|^2 / 2 - (x - center) . (c - center)``
    (``|x - c|^2 / 2`` less a per-row constant) with ``xc = x - center`` given; a
    large step runs in two row parts (``core._split_rows``), bitwise one part."""
    cc = centers - center
    half = 0.5 * np.einsum("gp,gp->g", cc, cc)
    m, g = xc.shape[0], cc.shape[0]
    score, assign = np.empty((m, g)), np.empty(m, dtype=np.intp)

    def block(lo, hi):
        part = np.matmul(xc[lo:hi], cc.T, out=score[lo:hi])
        np.subtract(half, part, out=part).argmin(axis=1, out=assign[lo:hi])

    _split_rows(block, m, _split_point(m, g * m))
    return assign


def init_kmeans(model: PooledGmm, data: Dataset, seed, n_iter: int = 10) -> np.ndarray:
    """Starting statistics from k-means-style hard clustering with ``seed``.

    Picks g distinct rows as centers, runs ``n_iter >= 1`` Lloyd iterations, fits
    weights/means/pooled covariance to the hard assignment and maps the
    parameters to statistics via a full E-step pass.  A Lloyd update sums each
    cluster's rows in row order with one ``bincount`` per column, from 0.0, and
    divides by the count: the bits of ``X[assign == l].mean(axis=0)``.  An empty
    cluster keeps its centre.  Where the assignment step splits its rows
    (:func:`emvr.core._split_point`), the column copies and the per-column sums
    split their columns in two parts as well; each ``bincount`` stays one call,
    so the start is bitwise the one-thread start.
    """
    n, p, g = data.n, data.dim, model.g
    if n_iter < 1:
        raise ValueError(f"k-means needs n_iter >= 1, got {n_iter}")
    if g > n:
        raise ValueError(f"k-means needs at least g rows: g={g} components, n={n} rows")
    rng = np.random.default_rng(seed)
    # the kept cache is made before the transient transpose: the other way round,
    # the freed transpose would stay resident beneath the cache in the heap
    X, xc = data.values, data.centred
    mid_col = p // 2 if _split_point(n, g * n) else 0
    cols = np.empty((p, n))
    _split_rows(lambda lo, hi: np.copyto(cols[lo:hi], X[:, lo:hi].T), p, mid_col)
    sums = np.empty((p, g))

    def cluster_sums(lo, hi):   # of the columns lo:hi, under the current step's assign
        for j in range(lo, hi):
            sums[j] = np.bincount(assign, weights=cols[j], minlength=g)

    centers = X[rng.choice(n, size=g, replace=False)].copy()
    for _ in range(n_iter):
        assign = _nearest_center(xc, centers, data.mean)
        counts = np.bincount(assign, minlength=g)
        _split_rows(cluster_sums, p, mid_col)
        hit = counts > 0
        centers[hit] = sums[:, hit].T / counts[hit, None]
    counts = np.maximum(counts, 1).astype(np.float64)
    weights = counts / counts.sum()
    cov = _pooled_cov(data.second_moment, weights, centers)
    cov = (cov + cov.T) / 2
    # guard hard-assignment degeneracies with a small ridge
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(cov + 1e-6 * np.eye(model.p))
    params = GmmParams(weights=weights, means=centers, cov_chol=chol)
    return full_stats(model, data, params)

