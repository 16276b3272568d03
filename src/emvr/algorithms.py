"""Optimizers on the statistic space.

Every method iterates one relaxation ``s <- s + gamma (S_hat - s)`` and
differs from the others only in its estimate ``S_hat`` of the full refit
average.  One private driver runs the loop they share: the initial refit,
the checkpoint recorder, divergence handling and the outer/inner control
of the nested methods.  Each method is a small estimator class, registered
by name in :data:`ESTIMATORS`, that declares what the driver and the
harness need to know of it.  The eight ``run_*`` functions are thin
wrappers around the driver, and :func:`hybrid_warm_start` runs an online-EM
phase that the main run continues in the same trace.

Every run owns its statistic vector, sampler and counters; divergence
(an inadmissible statistic or a non-finite entry) marks the trace instead
of raising.  Checkpoint metrics (objective, squared mean-field norm) cost
a full data pass and are charged to a separate monitor counter so the
algorithmic accounting stays comparable across methods.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (Dataset, DomainError, MinibatchSampler, Model,
                   OracleCounters, full_stats, minibatch_stats, mstep)

STATUS_COMPLETED = "completed"
STATUS_HIT = "hit-eps"
STATUS_STOPPED = "stopped"
STATUS_DIVERGED = "diverged"


class StepSchedule:
    """Positive step sizes gamma_1, gamma_2, ... indexed by update number."""

    def __init__(self, kind: str, value):
        self.kind = kind
        self.value = value
        if kind == "constant":
            if value < 0:
                raise ValueError("constant step size must be nonnegative")
        elif kind == "inverse-sqrt":
            if value <= 0:
                raise ValueError("inverse-sqrt coefficient must be positive")
        elif kind == "table":
            self.value = np.asarray(value, dtype=np.float64)
            if self.value.ndim != 1 or (self.value < 0).any():
                raise ValueError("step table must be 1-d and nonnegative")
        else:
            raise ValueError(f"unknown schedule kind {kind!r}")

    @classmethod
    def constant(cls, gamma: float) -> "StepSchedule":
        return cls("constant", float(gamma))

    @classmethod
    def inverse_sqrt(cls, c: float) -> "StepSchedule":
        """gamma_k = c / sqrt(k)."""
        return cls("inverse-sqrt", float(c))

    @classmethod
    def from_table(cls, values) -> "StepSchedule":
        return cls("table", values)

    def __call__(self, k: int) -> float:
        if k < 1:
            raise ValueError("step index starts at 1")
        if self.kind == "constant":
            return self.value
        if self.kind == "inverse-sqrt":
            return self.value / np.sqrt(k)
        if k > self.value.size:
            raise ValueError(f"step table exhausted at k={k}")
        return float(self.value[k - 1])


def theoretical_step_size(L: float, v_min: float, v_max: float, L_grad_w: float,
                          k_in: int, b: int) -> tuple[float, float]:
    """Constant step size from the convergence analysis.

    Returns ``(gamma, mu_star)`` with
    ``mu_star = v_max sqrt(k_in / b) + L_grad_w / (2 L)`` and
    ``gamma = v_min / (2 mu_star L)``.  The curvature and spectrum bounds
    are caller-supplied; nothing estimates them.
    """
    for name, val in [("L", L), ("v_min", v_min), ("v_max", v_max),
                      ("L_grad_w", L_grad_w), ("k_in", k_in), ("b", b)]:
        if val <= 0:
            raise ValueError(f"{name} must be positive, got {val}")
    mu_star = v_max * np.sqrt(k_in / b) + L_grad_w / (2.0 * L)
    alpha_star = v_min / (2.0 * mu_star)
    return alpha_star / L, float(mu_star)


@dataclass
class TraceRecord:
    phase: str
    t: int
    k: int
    tau: int
    epoch: float
    objective: float
    h_sq: float
    ce: int
    mstep: int
    wall_ms: float


@dataclass
class RunTrace:
    """Per-checkpoint metrics and terminal accounting of one run."""

    algorithm: str
    n: int
    batch_size: int | None = None
    k_in: int | None = None
    k_out: int | None = None
    k_max: int | None = None
    records: list[TraceRecord] = field(default_factory=list)
    snapshots: list[tuple[str, int, int, np.ndarray]] = field(default_factory=list)
    status: str = STATUS_COMPLETED
    counters: OracleCounters = field(default_factory=OracleCounters)
    monitor: OracleCounters = field(default_factory=OracleCounters)
    s_final: np.ndarray | None = None
    hit: tuple[int, int, int] | None = None      # (t, k, tau) of the first eps-crossing
    diverged_at: tuple[int, int, int] | None = None
    xi: list[int] = field(default_factory=list)  # realized inner lengths (restart variant)

    def final_record(self) -> TraceRecord:
        return self.records[-1]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def snapshot_map(self) -> dict[tuple[int, int], np.ndarray]:
        return {(t, k): s for _, t, k, s in self.snapshots}


class _Recorder:
    """Checkpoint bookkeeping of one run phase.

    ``metric_mode``: "epoch" records whenever the epoch counter crosses an
    integer, "update" records after every statistic update, "none" records
    only the initial and final states.  Metric evaluation charges the
    monitor counters, never the algorithmic ones.

    A phase that continues a warm phase (``after``) shares its trace and
    clock.  Its records carry tau and epoch offset by the warm phase's last
    record and warm epochs, and its starting state, which closed the warm
    phase's records, is evaluated but not recorded again.
    """

    def __init__(self, model: Model, data: Dataset, trace: RunTrace, *,
                 metric_mode: str = "epoch", compute_objective: bool = True,
                 epsilon: float | None = None, snapshot_mode: str = "none",
                 callback=None, phase: str | None = None, after=None):
        if metric_mode not in ("epoch", "update", "none"):
            raise ValueError(f"unknown metric_mode {metric_mode!r}")
        if snapshot_mode not in ("none", "checkpoint", "every-update"):
            raise ValueError(f"unknown snapshot_mode {snapshot_mode!r}")
        self.model = model
        self.data = data
        self.trace = trace
        self.metric_mode = metric_mode
        self.compute_objective = compute_objective
        self.epsilon = epsilon
        self.snapshot_mode = snapshot_mode
        self.callback = callback
        self.phase = phase or trace.algorithm
        self._next_epoch = 1.0
        if after is None:
            self._t0 = time.perf_counter()
            self._tau0, self._epoch0, self._skip = 0, 0, False
        else:
            self._t0 = after.rec._t0
            self._tau0, self._epoch0, self._skip = trace.records[-1].tau, after.epochs, True

    def snapshot(self, t: int, k: int, s: np.ndarray) -> None:
        if self.snapshot_mode == "every-update":
            self.trace.snapshots.append((self.phase, t, k, s.copy()))

    def _metrics(self, s: np.ndarray) -> tuple[float, float]:
        mon = self.trace.monitor
        params = mstep(self.model, s, mon)
        sbar, w = self.model.checkpoint_stats(self.data, params,
                                              want_nll=self.compute_objective)
        mon.ce += self.data.n
        h_sq = float(((sbar - s) ** 2).sum())
        return w, h_sq

    def checkpoint(self, t: int, k: int, tau: int, epoch: float, s: np.ndarray,
                   force: bool = False) -> None:
        """Record metrics if due; raises :class:`_Stop` when the run should end."""
        due = force or self.metric_mode == "update" or (
            self.metric_mode == "epoch" and epoch >= self._next_epoch - 1e-9)
        if self.metric_mode == "epoch" and epoch >= self._next_epoch - 1e-9:
            self._next_epoch = np.floor(epoch + 1e-9) + 1.0
        if not due:
            return
        tr = self.trace
        w, h_sq = self._metrics(s)
        if not np.isfinite(h_sq) or (self.compute_objective and not np.isfinite(w)):
            raise DomainError("non-finite checkpoint metric", violation="non-finite")
        if self._skip:
            self._skip = False
        else:
            wall = (time.perf_counter() - self._t0) * 1e3
            tr.records.append(TraceRecord(self.phase, t, k, tau + self._tau0,
                                          epoch + self._epoch0, w, h_sq,
                                          tr.counters.ce, tr.counters.mstep, wall))
        if self.snapshot_mode == "checkpoint":
            tr.snapshots.append((self.phase, t, k, s.copy()))
        # the stopping rule examines iterates produced by updates, so the
        # pre-update state at tau=0 never hits
        if self.epsilon is not None and tau >= 1 and h_sq <= self.epsilon and tr.hit is None:
            tr.hit = (t, k, tau)
            raise _Stop(STATUS_HIT)
        if self.callback is not None:
            view = {"ce": tr.counters.ce, "mstep": tr.counters.mstep,
                    "monitor_ce": tr.monitor.ce, "monitor_mstep": tr.monitor.mstep}
            if self.callback(self.phase, t, k, s.copy(), view) is False:
                raise _Stop(STATUS_STOPPED)


def _check_start(model: Model, s_init) -> np.ndarray:
    s = np.array(s_init, dtype=np.float64)
    if s.shape != (model.stat_dim,):
        raise ValueError(f"starting statistics must have shape ({model.stat_dim},)")
    problem = model.domain_check(s)
    if problem is not None:
        raise DomainError(f"starting statistics inadmissible: {problem}", violation=problem)
    return s


def _check_finite(s: np.ndarray) -> None:
    if not np.isfinite(s).all():
        raise DomainError("non-finite statistics", violation="non-finite")


class PerSampleStatStore:
    """Per-sample statistic rows plus their incrementally maintained mean.

    Batch updates deduplicate indices so the running mean stays the exact
    arithmetic mean of the stored rows up to accumulation error;
    :meth:`exact_mean` recomputes it from scratch for verification.
    """

    def __init__(self, rows: np.ndarray, max_bytes: int = 2 << 30):
        if rows.nbytes > max_bytes:
            raise ValueError(
                f"per-sample store needs {rows.nbytes} bytes, over the {max_bytes} cap")
        self.rows = rows
        self.mean = rows.sum(axis=0) / rows.shape[0]

    def update(self, indices: np.ndarray, new_rows: np.ndarray) -> None:
        uniq, first = np.unique(indices, return_index=True)
        fresh = new_rows[first]
        delta = fresh - self.rows[uniq]
        self.rows[uniq] = fresh
        self.mean = self.mean + delta.sum(axis=0) / self.rows.shape[0]

    def batch_mean(self, indices: np.ndarray) -> np.ndarray:
        """Multiset average of stored rows over a batch (duplicates count)."""
        return self.rows[indices].sum(axis=0) / indices.size

    def exact_mean(self) -> np.ndarray:
        return self.rows.sum(axis=0) / self.rows.shape[0]


# ---------------------------------------------------------------------------
# estimators of the full refit average

# seed-stream tags: a second, independent minibatch stream and the
# restart-length stream must never collide with the shared batch stream
_EXTRA_STREAM_TAG = 1
_RESTART_STREAM_TAG = 2


class _Estimator:
    """One rule for the estimate ``S_hat`` of the full refit average.

    The class attributes are what the driver and the harness know of a
    method: an update costs ``passes`` batch E-steps of b rows (n rows for
    a ``full_batch`` method); ``sorts`` says whether batches are sorted; a
    method that ``relaxes`` steps ``s + gamma * direction``, one that does
    not takes the direction as its next iterate; ``refresh`` is None for a
    flat method and "damped" or "restart" for a nested one; the harness
    warm-starts ``warm`` methods and runs ``unit_step`` ones at step 1.
    """

    name = ""
    passes = 1
    full_batch = warm = unit_step = False
    sorts = relaxes = True
    refresh = None

    def __init__(self, model: Model, data: Dataset, sampler: MinibatchSampler | None = None):
        self.model, self.data, self.sampler = model, data, sampler
        self.b = data.n if self.full_batch else sampler.batch_size
        self.counters = None   # the run's counters, bound by the driver

    @classmethod
    def seeded(cls, model, data, sampler, seeds):
        """An instance whose extra random stream, if any, is seeded by ``seeds(tag)``."""
        return cls(model, data, sampler)

    # the oracles, charged to the run and looked up at call time
    def _mstep(self, s):
        return mstep(self.model, s, self.counters)

    def _mean(self, batch, params):
        return minibatch_stats(self.model, self.data, batch, params, self.counters)

    def batch(self) -> np.ndarray:
        idx = self.sampler.sample(self.data.n)
        return np.sort(idx) if self.sorts else idx

    def refit(self, s: np.ndarray) -> np.ndarray:
        """Full pass at ``s``, which becomes the reference point; returns the
        refit average there."""
        self.ref_params = self._mstep(s)
        self.ref_stats = full_stats(self.model, self.data, self.ref_params, self.counters)
        return self.ref_stats

    def direction(self, s: np.ndarray) -> np.ndarray:
        """``S_hat - s`` in the method's float order (``S_hat`` if it does not relax)."""
        raise NotImplementedError

    def inner_lengths(self, k_max, k_in, k_out, xi):
        """Updates per outer loop: one loop of k_max for a flat method, k_in - 1
        between refreshes for a nested one."""
        return [k_max] if self.refresh is None else [k_in - 1] * k_out


class _FullRefit(_Estimator):
    """EM: the exact refit."""

    name, full_batch, relaxes, unit_step = "em", True, False, True

    def direction(self, s):
        return self.refit(s)


class _Online(_Estimator):
    """Online EM: the refit average over a batch."""

    name, sorts = "online-em", False

    def direction(self, s):
        return self._mean(self.batch(), self._mstep(s)) - s


class _Store(_Estimator):
    """iEM: the mean of the per-sample statistic store."""

    name, unit_step = "iem", True

    def __init__(self, model, data, sampler, max_store_bytes: int = 2 << 30):
        super().__init__(model, data, sampler)
        self.max_store_bytes = max_store_bytes

    def refit(self, s):
        rows = self.model.sbar_rows(self.data, None, self._mstep(s)).copy()
        self.counters.ce += self.data.n
        self.store = PerSampleStatStore(rows, max_bytes=self.max_store_bytes)
        return self.store.mean.copy()

    def _refresh(self, s):
        """Refit the stored rows of one batch at ``s``; returns the parameters."""
        params = self._mstep(s)
        batch = self.batch()
        rows = self.model.sbar_rows(self.data, batch, params)
        self.counters.ce += batch.size
        self.store.update(batch, rows)
        return params

    def direction(self, s):
        self._refresh(s)
        return self.store.mean - s


class _StoreCv(_Store):
    """FIEM: a second batch's refit average plus the store's control variate."""

    name, passes, warm, unit_step = "fiem", 2, True, False

    def __init__(self, model, data, sampler, sampler_extra: MinibatchSampler,
                 max_store_bytes: int = 2 << 30):
        super().__init__(model, data, sampler, max_store_bytes)
        self.sampler_extra = sampler_extra

    @classmethod
    def seeded(cls, model, data, sampler, seeds):
        return cls(model, data, sampler, MinibatchSampler(
            sampler.batch_size, seeds(_EXTRA_STREAM_TAG), mode=sampler.mode))

    def direction(self, s):
        params = self._refresh(s)
        batch2 = np.sort(self.sampler_extra.sample(self.data.n))
        cv = self.store.mean - self.store.batch_mean(batch2)
        return self._mean(batch2, params) - s + cv


class _Anchor(_Estimator):
    """sEM-vr: a batch refit average plus the control variate of the anchor,
    the reference point."""

    name, passes, refresh, warm = "sem-vr", 2, "damped", True

    def direction(self, s):
        batch, params = self.batch(), self._mstep(s)
        sb = self._mean(batch, params)
        return sb - s + (self.ref_stats - self._mean(batch, self.ref_params))


class _PathIntegrated(_Estimator):
    """SPIDER-EM: the refit average at the last refresh plus the batch
    differences along the path since; the reference point is the lagged
    iterate."""

    name, passes, refresh, warm = "spider-em", 2, "damped", True

    def direction(self, s):
        batch, params = self.batch(), self._mstep(s)
        self.ref_stats = self.ref_stats + (self._mean(batch, params)
                                           - self._mean(batch, self.ref_params))
        self.ref_params = params
        return self.ref_stats - s


class _ExplicitCv(_Estimator):
    """SPIDER-EM as the last batch refit average plus an explicit control
    variate accumulated since the last refresh."""

    name, passes, refresh, warm = "spider-em-cv", 2, "damped", True

    def refit(self, s):
        self.cv = 0.0
        return super().refit(s)

    def direction(self, s):
        batch = self.batch()
        self.cv = self.cv + self.ref_stats - self._mean(batch, self.ref_params)
        self.ref_params = self._mstep(s)
        self.ref_stats = self._mean(batch, self.ref_params)
        return self.ref_stats - s + self.cv


class _Restart(_PathIntegrated):
    """SPIDER-EM restarted after a uniformly random 1 to k_in - 1 inner steps."""

    name, refresh = "spider-em-pl", "restart"

    def __init__(self, model, data, sampler, rng):
        super().__init__(model, data, sampler)
        self.rng = rng

    @classmethod
    def seeded(cls, model, data, sampler, seeds):
        return cls(model, data, sampler, np.random.default_rng(seeds(_RESTART_STREAM_TAG)))

    def inner_lengths(self, k_max, k_in, k_out, xi):
        for _ in range(k_out):
            xi.append(int(self.rng.integers(1, k_in)))
            yield xi[-1]


ESTIMATORS = {cls.name: cls for cls in (_FullRefit, _Store, _Online, _StoreCv, _Anchor,
                                        _PathIntegrated, _ExplicitCv, _Restart)}


# ---------------------------------------------------------------------------
# the driver


class _Stop(Exception):
    """A checkpoint ended the run with ``status``."""

    def __init__(self, status: str):
        self.status = status


class _Handoff(NamedTuple):
    rec: _Recorder      # the completed warm phase's recorder
    sampler: MinibatchSampler
    epochs: int


# a completed warm phase waiting for the run that continues it
_WARM: ContextVar[_Handoff | None] = ContextVar("_WARM", default=None)


def _run(est: _Estimator, s_init, schedule, *, k_max=None, k_in=None, k_out=None,
         outer_gamma=None, phase=None, **record) -> _Recorder:
    """The one update loop; returns the recorder, which holds the trace.

    An initial refit, then outer loops of inner updates ``s <- s + gamma_tau
    * direction``, each nested loop closed by a full refresh, damped or
    restarting.  tau counts updates, damped refreshes included; positions
    are (outer t, inner k, tau).  The run continues the trace of a warm
    phase handed over on the same sampler."""
    if est.refresh is None:
        k_in = k_out = None
    else:
        k_max = None
        if k_in < 2:
            raise ValueError("k_in must be at least 2")
    s = _check_start(est.model, s_init)
    warm = _WARM.get()
    if warm is not None and warm.sampler is est.sampler:
        _WARM.set(None)
        trace = warm.rec.trace
        trace.algorithm = f"warmup+{est.name}"
        trace.k_in, trace.k_out, trace.k_max = k_in, k_out, k_max
    else:
        warm = None
        trace = RunTrace(est.name, est.data.n, batch_size=None if est.full_batch else est.b,
                         k_in=k_in, k_out=k_out, k_max=k_max)
    rec = _Recorder(est.model, est.data, trace, phase=phase or est.name, after=warm,
                    **record)
    est.counters = trace.counters
    n, pos, tau, selections = est.data.n, (1, 0, 0), 0, 0
    try:
        rec.snapshot(1, -1, s)
        s_full = est.refit(s)
        if est.refresh is None:
            s = s_full
        rec.snapshot(1, 0, s)
        rec.checkpoint(1, 0, 0, 0.0, s, force=True)
        for t, length in enumerate(est.inner_lengths(k_max, k_in, k_out, trace.xi), 1):
            for k in range(1, length + 1):
                tau += 1
                # a failing E- or M-step is charged to the update it was
                # computing in a flat method, to the last update in a nested one
                if est.refresh is None:
                    pos = (t, k, tau)
                d = est.direction(s)
                pos = (t, k, tau)
                s = s + schedule(tau) * d if est.relaxes else d
                _check_finite(s)
                selections += est.b
                rec.snapshot(t, k, s)
                rec.checkpoint(t, k, tau, selections / n, s,
                               force=est.refresh is None and k == length)
            if est.refresh is None:
                break
            if est.refresh == "damped":
                rec.snapshot(t + 1, -1, s)
                tau += 1
            pos = (t + 1, 0, tau)
            s_full = est.refit(s)
            if est.refresh == "damped":
                gamma = schedule(tau) if outer_gamma is None else float(outer_gamma)
                s = s + gamma * (s_full - s)
                _check_finite(s)
            else:   # a restart: the next outer loop starts at the last iterate
                rec.snapshot(t + 1, -1, s)
            selections += n
            rec.snapshot(t + 1, 0, s)
            rec.checkpoint(t + 1, 0, tau, selections / n, s, force=(t == k_out))
    except DomainError:
        trace.status, trace.diverged_at = STATUS_DIVERGED, pos
    except _Stop as stop:
        trace.status = stop.status
    trace.s_final = s.copy()
    return rec


def run_algorithm(name: str, model: Model, data: Dataset, s_init, sampler: MinibatchSampler,
                  schedule: StepSchedule, seeds, *, k_max=None, k_in=None, k_out=None,
                  outer_gamma=None, **record) -> RunTrace:
    """Run the method registered as ``name`` in :data:`ESTIMATORS`.

    A flat method uses ``k_max``, a nested one ``k_in`` and ``k_out`` (and a
    damped one ``outer_gamma``).  ``seeds(tag)`` returns the seed sequence of
    an extra random stream, for a method that needs one; ``record`` takes
    the recording keywords of the ``run_*`` routines."""
    est = ESTIMATORS[name].seeded(model, data, sampler, seeds)
    return _run(est, s_init, schedule, k_max=k_max, k_in=k_in, k_out=k_out,
                outer_gamma=outer_gamma, **record).trace


def _record(metric_mode, compute_objective, epsilon, snapshot_mode, callback) -> dict:
    return dict(metric_mode=metric_mode, compute_objective=compute_objective,
                epsilon=epsilon, snapshot_mode=snapshot_mode, callback=callback)


def run_em(model: Model, data: Dataset, s_init, k_max: int, *,
           metric_mode: str = "epoch", compute_objective: bool = True,
           epsilon: float | None = None, snapshot_mode: str = "none",
           callback=None) -> RunTrace:
    """Full-batch EM: each update replaces the statistics by their exact
    refit average.  Costs n conditional expectations and one M-step per
    update (plus the same once for the initial refit)."""
    return _run(_FullRefit(model, data), s_init, None, k_max=k_max, **_record(
        metric_mode, compute_objective, epsilon, snapshot_mode, callback)).trace


def run_online_em(model: Model, data: Dataset, s_init, sampler: MinibatchSampler,
                  schedule: StepSchedule, k_max: int, *,
                  metric_mode: str = "epoch", compute_objective: bool = True,
                  epsilon: float | None = None, snapshot_mode: str = "none",
                  callback=None) -> RunTrace:
    """Stochastic-approximation EM: relax the statistics toward a minibatch
    refit average with step gamma_k.  One minibatch E-step and one M-step
    per update, after an initial full refit."""
    return _run(_Online(model, data, sampler), s_init, schedule, k_max=k_max, **_record(
        metric_mode, compute_objective, epsilon, snapshot_mode, callback)).trace


def run_iem(model: Model, data: Dataset, s_init, sampler: MinibatchSampler,
            schedule: StepSchedule | None = None, k_max: int = 0, *,
            max_store_bytes: int = 2 << 30, metric_mode: str = "epoch",
            compute_objective: bool = True, epsilon: float | None = None,
            snapshot_mode: str = "none", callback=None) -> RunTrace:
    """Incremental EM: refresh the stored per-sample statistics on each
    batch and track their mean.  Default step size is 1 (the statistics
    equal the store mean).  Memory is n*q floats, capped."""
    if schedule is None:
        schedule = StepSchedule.constant(1.0)
    return _run(_Store(model, data, sampler, max_store_bytes), s_init, schedule,
                k_max=k_max, **_record(metric_mode, compute_objective, epsilon,
                                       snapshot_mode, callback)).trace


def run_fiem(model: Model, data: Dataset, s_init, sampler: MinibatchSampler,
             sampler_extra: MinibatchSampler, schedule: StepSchedule, k_max: int, *,
             max_store_bytes: int = 2 << 30, metric_mode: str = "epoch",
             compute_objective: bool = True, epsilon: float | None = None,
             snapshot_mode: str = "none", callback=None) -> RunTrace:
    """Incremental EM with a store-based control variate.

    Each update refreshes the store on one batch, then steps along a second,
    independent batch direction corrected by ``store mean - store batch
    mean``, which keeps the step unbiased for the exact mean field.
    Costs 2b conditional expectations and one M-step per update."""
    return _run(_StoreCv(model, data, sampler, sampler_extra, max_store_bytes), s_init,
                schedule, k_max=k_max, **_record(metric_mode, compute_objective, epsilon,
                                                 snapshot_mode, callback)).trace


def run_sem_vr(model: Model, data: Dataset, s_init, sampler: MinibatchSampler,
               schedule: StepSchedule, k_out: int, k_in: int, *,
               outer_gamma: float | None = None, metric_mode: str = "epoch",
               compute_objective: bool = True, epsilon: float | None = None,
               snapshot_mode: str = "none", callback=None) -> RunTrace:
    """Nested-loop EM with an anchor control variate.

    Each outer loop refits the full statistics at the current anchor, then
    runs k_in - 1 inner steps whose minibatch direction is corrected by
    ``full anchor average - batch anchor average`` (zero mean by
    construction); the outer refresh itself is a damped update.  Inner
    updates cost 2b conditional expectations and one M-step; the refresh
    costs n and one."""
    return _run(_Anchor(model, data, sampler), s_init, schedule, k_in=k_in, k_out=k_out,
                outer_gamma=outer_gamma, **_record(metric_mode, compute_objective,
                                                   epsilon, snapshot_mode, callback)).trace


def run_spider_em(model: Model, data: Dataset, s_init, sampler: MinibatchSampler,
                  schedule: StepSchedule, k_out: int, k_in: int, *,
                  outer_gamma: float | None = None, metric_mode: str = "epoch",
                  compute_objective: bool = True, epsilon: float | None = None,
                  snapshot_mode: str = "none", callback=None) -> RunTrace:
    """Nested-loop EM with a path-integrated difference estimator.

    The running estimate of the full refit average is advanced by the
    difference of the batch averages at the current and previous iterates,
    and reset by a full pass at every outer refresh.  Inner updates cost
    2b conditional expectations and one M-step; the refresh costs n and
    one, followed by a damped update."""
    return _run(_PathIntegrated(model, data, sampler), s_init, schedule, k_in=k_in,
                k_out=k_out, outer_gamma=outer_gamma, **_record(
                    metric_mode, compute_objective, epsilon, snapshot_mode,
                    callback)).trace


def run_spider_em_cv(model: Model, data: Dataset, s_init, sampler: MinibatchSampler,
                     schedule: StepSchedule, k_out: int, k_in: int, *,
                     outer_gamma: float | None = None, metric_mode: str = "epoch",
                     compute_objective: bool = True, epsilon: float | None = None,
                     snapshot_mode: str = "none", callback=None) -> RunTrace:
    """The same sequence as :func:`run_spider_em`, written as an online
    update plus an explicit control variate accumulated across the inner
    loop and reset to zero at each outer refresh.  Identical batch streams
    give elementwise-identical trajectories up to float associativity."""
    return _run(_ExplicitCv(model, data, sampler), s_init, schedule, k_in=k_in,
                k_out=k_out, outer_gamma=outer_gamma, **_record(
                    metric_mode, compute_objective, epsilon, snapshot_mode,
                    callback)).trace


def run_spider_em_pl(model: Model, data: Dataset, s_init, sampler: MinibatchSampler,
                     schedule: StepSchedule, k_out: int, k_in: int, rng, *,
                     metric_mode: str = "epoch", compute_objective: bool = True,
                     epsilon: float | None = None, snapshot_mode: str = "none",
                     callback=None) -> RunTrace:
    """Restart variant: each outer loop runs a uniformly random number of
    inner difference-estimator steps (1 to k_in - 1), then restarts from
    the last iterate with a fresh full refit and no damped outer step.
    ``rng`` drives only the inner-length draws."""
    return _run(_Restart(model, data, sampler, rng), s_init, schedule, k_in=k_in,
                k_out=k_out, **_record(metric_mode, compute_objective, epsilon,
                                       snapshot_mode, callback)).trace


def hybrid_warm_start(model: Model, data: Dataset, s_init, sampler: MinibatchSampler,
                      schedule: StepSchedule, warm_epochs: int, run_main, *,
                      metric_mode: str = "epoch", compute_objective: bool = True,
                      epsilon: float | None = None, snapshot_mode: str = "none",
                      callback=None) -> RunTrace:
    """Run stochastic-approximation EM for ``warm_epochs`` data passes, then
    hand the statistics and the same sampler stream to ``run_main(s,
    sampler)``, which must start one of the ``run_*`` routines from them.

    That run continues the warm phase's trace, clock and counters: its
    records follow the warm phase's with tau and epoch offset by the warm
    phase's updates and ``warm_epochs``, and each record names its phase.
    A warm phase that does not complete ends the run.  ``warm_epochs=0``
    skips the warm phase entirely."""
    if warm_epochs < 0:
        raise ValueError("warm_epochs must be >= 0")
    if warm_epochs == 0:
        return run_main(np.asarray(s_init, dtype=np.float64), sampler)
    iters = warm_epochs * max(1, round(data.n / sampler.batch_size))
    rec = _run(_Online(model, data, sampler), s_init, schedule, k_max=iters, phase="warmup",
               **_record(metric_mode, compute_objective, epsilon, snapshot_mode, callback))
    if rec.trace.status != STATUS_COMPLETED:
        return rec.trace
    token = _WARM.set(_Handoff(rec, sampler, warm_epochs))
    try:
        main = run_main(rec.trace.s_final, sampler)
        if _WARM.get() is not None:
            raise ValueError("run_main must start a run_* routine on the sampler it is given")
        return main
    finally:
        _WARM.reset(token)


def randomized_terminate(trace: RunTrace, rng) -> tuple[int, int, np.ndarray]:
    """Draw the randomized output iterate of a nested-loop trace.

    Picks outer index tau uniform on {1..k_out} and inner index xi uniform
    on {0..k_in-1}, independently of the trajectory, and returns
    ``(tau, xi, s)`` where s is the iterate one update *before* (tau, xi),
    read from the trace's per-update snapshots."""
    if trace.k_in is None or trace.k_out is None:
        raise ValueError("randomized termination needs a nested-loop trace")
    snaps = trace.snapshot_map()
    if not snaps:
        raise NotImplementedError("trace has no per-update snapshots; rerun with "
                                  "snapshot_mode='every-update'")
    t = int(rng.integers(1, trace.k_out + 1))
    xi = int(rng.integers(0, trace.k_in))
    key = (t, xi - 1)
    if key not in snaps:
        raise NotImplementedError(f"snapshot {key} missing; rerun with full cadence")
    return t, xi, snaps[key]
