"""Expectation-space EM primitives.

Everything in this package iterates on a statistic vector ``s`` living in
R^q, the space of complete-data sufficient statistics.  A :class:`Model`
maps statistics to fitted parameters (the M-step) and parameters back to
per-sample conditional expectations of the statistics (the E-step).  The
functions below combine those two maps into the quantities every
optimizer needs: batch averages, the mean field ``full_stats(m_step(s)) - s``
whose roots are the EM fixed points, and the pulled-back objective.

All arithmetic is float64.  Batch averages sort their index set before
accumulating, so a full batch reproduces :func:`full_stats` bit for bit and
repeated runs are deterministic.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

WITH_REPLACEMENT = "with-replacement"
WITHOUT_REPLACEMENT = "without-replacement"


class DomainError(ValueError):
    """A statistic vector left the region where the M-step is defined.

    ``violation`` holds a short machine-readable tag, e.g. ``"empty component"``
    or ``"degenerate covariance"``; the message carries the details.
    """

    def __init__(self, message: str, violation: str | None = None):
        super().__init__(message)
        self.violation = violation if violation is not None else message


@dataclass
class OracleCounters:
    """Running cost of a computation in oracle units.

    ``ce`` counts per-sample conditional-expectation evaluations, ``mstep``
    counts M-step (parameter fitting) evaluations.
    """

    ce: int = 0
    mstep: int = 0


class Dataset:
    """Immutable observation matrix with a cached second moment.

    Rows are observations.  The second moment ``(1/n) sum_i y_i y_i^T`` is
    computed once at construction; pooled-covariance M-steps need it on
    every call.  Read-only caches computed on first use: ``mean``,
    ``column_sums``, the centred rows ``centred`` (``values - mean``, one
    ``n x d`` copy that every full pooled pass reads) and ``centred_moment``.
    :meth:`gather` keeps the rows of the last read-only batch it gathered.
    """

    def __init__(self, values, provenance: str = "", labels=None):
        values = np.array(values, dtype=np.float64, order="C")
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ValueError(f"expected a 2-d observation matrix, got ndim={values.ndim}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"dataset must have n >= 1 and d >= 1, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("dataset contains non-finite entries")
        values.setflags(write=False)
        self.values = values
        self.provenance = provenance
        if labels is not None:
            labels = np.asarray(labels)
            labels.setflags(write=False)
        self.labels = labels
        m2 = values.T @ values / values.shape[0]
        m2 = (m2 + m2.T) / 2.0
        m2.setflags(write=False)
        self.second_moment = m2
        self._gathered = None

    @cached_property
    def mean(self) -> np.ndarray:
        """Row mean, computed on first use and cached; E-step kernels centre on it."""
        mu = self.values.mean(axis=0)
        mu.setflags(write=False)
        return mu

    @cached_property
    def column_sums(self) -> np.ndarray:
        """Column sums, on first use; for one column, the bits of ``values[:, 0].sum()``."""
        sums = self.values.sum(axis=0)
        sums.setflags(write=False)
        return sums

    @cached_property
    def centred(self) -> np.ndarray:
        """Centred rows ``values - mean``, on first use; elementwise, so the bits of a
        fresh subtraction."""
        xc = self.values - self.mean
        xc.setflags(write=False)
        return xc

    @cached_property
    def centred_moment(self) -> np.ndarray:
        """``(1/n) sum_i (y_i - mean)(y_i - mean)^T`` from centred rows, on first use."""
        xc = self.centred
        c = xc.T @ xc / self.n
        c = (c + c.T) / 2.0
        c.setflags(write=False)
        return c

    def gather(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, centred rows)`` of the index array ``indices``, the second
        ``rows - mean``.  For a read-only array that owns its data, such as
        every estimator's batch, both are read-only and kept, keyed by the
        array's identity, until the next such array is gathered: the passes on
        one batch gather it once.  Any other array, a view or a writeable one,
        is gathered afresh."""
        memo = self._gathered
        if memo is not None and memo[0] is indices:
            return memo[1], memo[2]
        rows = self.values.take(indices, axis=0)
        xc = rows - self.mean
        if indices.base is None and not indices.flags.writeable:
            rows.setflags(write=False)
            xc.setflags(write=False)
            self._gathered = indices, rows, xc
        return rows, xc

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __reduce__(self):
        # a copy is built by the constructor, so it is checked and read-only;
        # the caches are not sent
        return Dataset, (self.values, self.provenance, self.labels)

    def __repr__(self):
        return f"Dataset(n={self.n}, dim={self.dim}, provenance={self.provenance!r})"


class Model(ABC):
    """Contract every model plugin satisfies.

    * ``stat_dim`` — length q of the statistic vector.
    * ``sbar_rows`` — per-sample conditional expectations at the given
      parameters, one row per requested index (``indices=None`` means the
      whole dataset, in order, without copying rows).
    * ``store_rows`` and ``lift_sum`` — compact per-sample rows, and the
      linear map from the compact rows of ``indices`` (all rows if
      ``None``) back to the statistic summed over them.  Defaults: the
      statistic rows themselves and ``w.sum(axis=0)``; a mixture keeps its
      posteriors.  The iEM/FIEM stores keep these rows.
    * ``batch_mean`` — the average over ``indices``, the E-step of every
      batch average and full pass.  Default: ``lift_sum(data, indices,
      store_rows(data, indices, params)) / m``; plugins fuse it so no
      (m, q) row matrix is built.  A full sorted batch must agree bitwise
      with ``indices=None``.
    * ``m_step`` — the fitted parameters for a statistic vector; must be a
      deterministic pure function and raise :class:`DomainError` outside
      its domain.
    * ``penalized_nll`` — the objective F at a parameter value.
    * ``checkpoint_stats`` — one monitoring pass, ``(statistic average,
      objective)``.  The statistic must equal ``batch_mean(data, None,
      params)`` bitwise, with or without ``want_nll``: a run reuses a
      monitored pass as the refit at the same iterate.
    * ``domain_check`` — ``None`` if the M-step is defined at ``s``,
      otherwise the violation tag of the :class:`DomainError` it raises.

    Kernels that expand a quadratic ``|y - mu|^2`` must centre rows and
    means on ``data.mean`` first (a row quadratic's mean is a trace with
    ``data.centred_moment``): uncentred, the expanded terms grow with the
    data's offset and cancel.  They are written for one BLAS thread per
    call (``OPENBLAS_NUM_THREADS=1``): their BLAS calls are small, and
    waking more threads costs more than it saves.  A row-wise pass with at
    least ``SPLIT_WORK`` entries may run its second half of rows on one
    helper thread (:func:`_split_point`, :func:`_split_rows`), bitwise the
    one-thread pass: ``PooledGmm``'s E-step does, and so do the Lloyd steps
    of its k-means start; no smaller pass does, and none in a harness
    worker process.
    """

    @property
    @abstractmethod
    def stat_dim(self) -> int: ...

    @abstractmethod
    def sbar_rows(self, data: Dataset, indices, params) -> np.ndarray: ...

    @abstractmethod
    def m_step(self, s: np.ndarray): ...

    @abstractmethod
    def penalized_nll(self, data: Dataset, params) -> float: ...

    def domain_check(self, s: np.ndarray) -> str | None:
        try:
            self.m_step(s)
        except DomainError as exc:
            return exc.violation
        return None

    def batch_mean(self, data: Dataset, indices, params) -> np.ndarray:
        """Average conditional expectation over ``indices`` (all rows if ``None``)."""
        m = data.n if indices is None else len(indices)
        return self.lift_sum(data, indices, self.store_rows(data, indices, params)) / m

    def store_rows(self, data: Dataset, indices, params) -> np.ndarray:
        """Compact per-sample rows for the iEM/FIEM stores (default: ``sbar_rows``)."""
        return self.sbar_rows(data, indices, params)

    def lift_sum(self, data: Dataset, indices, w: np.ndarray) -> np.ndarray:
        """Statistic summed over the rows ``indices`` whose compact rows are ``w``."""
        return w.sum(axis=0)

    def natural_param(self, params) -> np.ndarray:
        """Natural-parameter vector of the fitted model, when the plugin exposes it."""
        raise NotImplementedError(f"{type(self).__name__} does not expose a natural parameter")

    def checkpoint_stats(self, data: Dataset, params, want_nll: bool = True):
        """One monitoring pass: (full statistic average, objective).

        ``(batch_mean over all rows, penalized_nll)``, the statistic bitwise
        so; plugins may fuse the two passes.  Costs n conditional
        expectations.
        """
        sbar = self.batch_mean(data, None, params)
        nll = self.penalized_nll(data, params) if want_nll else float("nan")
        return sbar, nll


class MinibatchSampler:
    """Seeded stream of minibatch index arrays.

    ``mode`` is ``"with-replacement"`` (each index i.i.d. uniform) or
    ``"without-replacement"`` (a uniformly random b-subset, requires
    ``b <= n``).  The same seed and call sequence reproduce the same
    index stream exactly.
    """

    def __init__(self, batch_size: int, seed, mode: str = WITH_REPLACEMENT):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if mode not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
            raise ValueError(f"unknown sampling mode {mode!r}")
        self.batch_size = int(batch_size)
        self.mode = mode
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def sample(self, n: int) -> np.ndarray:
        b = self.batch_size
        if self.mode == WITH_REPLACEMENT:
            return self._rng.integers(0, n, size=b)
        if b > n:
            raise ValueError(f"batch_size {b} exceeds n={n} for without-replacement sampling")
        return self._rng.choice(n, size=b, replace=False)


def _check_indices(indices, n: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("indices must be a non-empty 1-d sequence")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"indices out of range [0, {n})")
    return idx


def minibatch_stats(model: Model, data: Dataset, indices, params,
                    counters: OracleCounters | None = None) -> np.ndarray:
    """Average of the per-sample statistics over a batch.

    Duplicate indices count with multiplicity.  Indices are sorted before
    accumulation so the result does not depend on draw order and a full
    batch agrees bitwise with :func:`full_stats`.
    """
    idx = _check_indices(indices, data.n)
    idx = np.sort(idx)
    sbar = model.batch_mean(data, idx, params)
    if counters is not None:
        counters.ce += idx.size
    return sbar


def full_stats(model: Model, data: Dataset, params,
               counters: OracleCounters | None = None) -> np.ndarray:
    """Exact n-term average of the per-sample statistics, in index order."""
    sbar = model.batch_mean(data, None, params)
    if counters is not None:
        counters.ce += data.n
    return sbar


def mstep(model: Model, s: np.ndarray, counters: OracleCounters | None = None):
    """Fit parameters to a statistic vector, counting one M-step."""
    if counters is not None:
        counters.mstep += 1
    return model.m_step(s)


def mean_field(model: Model, data: Dataset, s: np.ndarray,
               counters: OracleCounters | None = None) -> np.ndarray:
    """Drift of one exact EM step: ``full_stats(m_step(s)) - s``.

    Costs n conditional expectations plus one M-step.  Raises
    :class:`DomainError` if ``s`` is inadmissible.
    """
    params = mstep(model, s, counters)
    return full_stats(model, data, params, counters) - s


def objective(model: Model, data: Dataset, s: np.ndarray,
              counters: OracleCounters | None = None) -> float:
    """Penalized NLL of the model fitted to ``s`` (the Lyapunov function)."""
    return model.penalized_nll(data, mstep(model, s, counters))


def fd_objective_gradient(model: Model, data: Dataset, s: np.ndarray,
                          step: float = 1e-5,
                          counters: OracleCounters | None = None) -> np.ndarray:
    """Central-difference gradient of :func:`objective` at ``s``."""
    if step <= 0:
        raise ValueError("step must be positive")
    s = np.asarray(s, dtype=np.float64)
    grad = np.empty_like(s)
    for j in range(s.size):
        e = np.zeros_like(s)
        e[j] = step
        hi = objective(model, data, s + e, counters)
        lo = objective(model, data, s - e, counters)
        grad[j] = (hi - lo) / (2.0 * step)
    return grad


def fd_natural_jacobian(model: Model, s: np.ndarray, step: float = 1e-5):
    """Finite-difference Jacobian of the refit map ``s -> natural_param(m_step(s))``.

    Returns ``(sym, asym)`` where ``sym`` is the symmetrized Jacobian
    ``(J + J^T) / 2`` and ``asym`` the relative asymmetry
    ``||J - J^T|| / ||J||`` of the raw estimate.  Models that do not expose
    a natural parameter raise :class:`NotImplementedError`.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    s = np.asarray(s, dtype=np.float64)
    q = s.size
    jac = np.empty((q, q))
    for j in range(q):
        e = np.zeros_like(s)
        e[j] = step
        hi = model.natural_param(model.m_step(s + e))
        lo = model.natural_param(model.m_step(s - e))
        jac[:, j] = (hi - lo) / (2.0 * step)
    denom = np.linalg.norm(jac)
    asym = np.linalg.norm(jac - jac.T) / denom if denom > 0 else 0.0
    return (jac + jac.T) / 2.0, asym


# ---------------------------------------------------------------------------
# the two-part pass

# A row-wise pass over at least this many (component, row) entries runs in two
# parts, the second on a helper thread; numpy releases the GIL inside each call.
SPLIT_WORK = 1 << 17
# The split point is a multiple of this many rows: OpenBLAS's gemm computes a
# column block that starts there with the bits of the undivided product.
SPLIT_ROWS = 1024

_split_passes = True    # harness worker processes turn it off: the pool uses the cores
_helper = None          # (jobs, done) queues of the helper thread, started on first use
_helper_lock = threading.Lock()


def _run_part(ctx, block, lo: int, hi: int):
    try:
        ctx.run(block, lo, hi)
    except BaseException as exc:   # re-raised in the caller
        return exc
    return None


def _serve(jobs: queue.SimpleQueue, done: queue.SimpleQueue) -> None:
    # the loop keeps no reference to a finished part and its arrays
    while True:
        done.put(_run_part(*jobs.get()))


def _forget_helper() -> None:
    """After a fork: the helper thread is not in the child."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _serial_passes() -> None:
    """Keep every pass of this process on one thread (a pool worker's initializer)."""
    global _split_passes
    _split_passes = False


def _split_point(m: int, work: int) -> int:
    """The row at which a pass over ``m`` rows and ``work`` (component, row)
    entries splits: half of ``m`` rounded down to ``SPLIT_ROWS`` rows.  0, for a
    pass that runs whole on the calling thread: one below ``SPLIT_WORK``, one
    with under ``SPLIT_ROWS`` rows a half, and every pass of a harness worker.
    The pooled E-step and the k-means start's Lloyd steps split where it is
    nonzero; the k-means start's column-wise work then splits its columns too."""
    if work < SPLIT_WORK or not _split_passes:
        return 0
    return m // 2 // SPLIT_ROWS * SPLIT_ROWS


def _split_rows(block, m: int, mid: int) -> None:
    """Run ``block(lo, hi)`` over the rows ``[0, m)`` as ``block(0, mid)`` here and
    ``block(mid, m)`` on the helper thread; at ``mid`` 0, or while another thread
    splits, as ``block(0, m)`` here.  The helper runs in a copy of the caller's
    context, so ``np.errstate`` holds in both parts, and its exception is raised
    here.  ``block`` must write only its own rows (or the columns, or other
    slices, that ``lo:hi`` names) of arrays the caller made."""
    global _helper
    if not mid or not _helper_lock.acquire(blocking=False):
        block(0, m)
        return
    try:
        if _helper is None:
            queues = (queue.SimpleQueue(), queue.SimpleQueue())
            threading.Thread(target=_serve, args=queues, name="emvr-pass-helper",
                             daemon=True).start()
            _helper = queues
        jobs, done = _helper
        jobs.put((contextvars.copy_context(), block, mid, m))
        try:
            block(0, mid)
        finally:
            err = done.get()
    finally:
        _helper_lock.release()
    if err is not None:
        raise err
