"""Optimizers on the statistic space.

Every method iterates one relaxation ``s <- s + gamma (S_hat - s)`` and
differs from the others only in its estimate ``S_hat`` of the full refit
average.  One private driver runs the loop they share: the initial refit,
the checkpoint recorder, divergence handling and the outer/inner control
of the nested methods.  Each method is a small estimator class, registered
by name in :data:`ESTIMATORS`, that declares what the driver and the
harness need to know of it and documents its cost.  :func:`run_algorithm`
is the one entry point: it runs a method by name, passes its recording
keywords (``**record``) to the recorder unchanged, and can warm-start it:
the driver then runs online EM for a number of data passes first, and the
method continues in the same trace.

Every run owns its statistic vector, sampler and counters; divergence
(an inadmissible statistic or a non-finite entry) marks the trace, with
its reason, instead of raising.  Checkpoint metrics (objective, squared
mean-field norm) cost a full data pass and are charged to a separate
monitor counter so the algorithmic accounting stays comparable across
methods.

A run keeps its last monitored pass, the M-step at an iterate and the full
refit average there.  When the method next refits, or fits, at that same
iterate, it reuses them: the pass is computed once and charged to both
counters.  Counters are oracle charges, as if the method and the monitor
each ran alone; the saving shows in wall time only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (Dataset, DomainError, MinibatchSampler, Model,
                   OracleCounters, full_stats, minibatch_stats, mstep)

STATUS_COMPLETED = "completed"
STATUS_HIT = "hit-eps"
STATUS_STOPPED = "stopped"
STATUS_DIVERGED = "diverged"

METRIC_MODES = ("epoch", "update", "none")
SNAPSHOT_MODES = ("none", "checkpoint", "every-update")


class StepSchedule:
    """Positive step sizes gamma_1, gamma_2, ... indexed by update number."""

    def __init__(self, kind: str, value: float):
        self.kind = kind
        self.value = value
        # the negated forms reject nan too
        if kind == "constant":
            if not value >= 0:
                raise ValueError(f"constant step size must be nonnegative, got {value}")
        elif kind == "inverse-sqrt":
            if not value > 0:
                raise ValueError(f"inverse-sqrt coefficient must be positive, got {value}")
        else:
            raise ValueError(f"unknown schedule kind {kind!r}")

    @classmethod
    def constant(cls, gamma: float) -> "StepSchedule":
        return cls("constant", float(gamma))

    @classmethod
    def inverse_sqrt(cls, c: float) -> "StepSchedule":
        """gamma_k = c / sqrt(k)."""
        return cls("inverse-sqrt", float(c))

    def __call__(self, k: int) -> float:
        if k < 1:
            raise ValueError("step index starts at 1")
        if self.kind == "constant":
            return self.value
        return self.value / np.sqrt(k)


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
        if not val > 0:   # rejects nan too
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
    diverged_reason: str | None = None           # the DomainError's violation tag
    xi: list[int] = field(default_factory=list)  # realized inner lengths (restart variant)

    def final_record(self) -> TraceRecord:
        return self.records[-1]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def snapshot_map(self) -> dict[tuple[int, int], np.ndarray]:
        return {(t, k): s for _, t, k, s in self.snapshots}


class _LastPass:
    """A run's last monitored pass: the M-step at an iterate and the full
    refit average there, made read-only as plugin parameters already are.
    Keyed by the iterate's bytes, so only a bitwise-equal iterate reuses
    them."""

    def __init__(self):
        self.key = self.params = self.sbar = None

    def put(self, s: np.ndarray, params, sbar: np.ndarray) -> None:
        sbar.setflags(write=False)
        self.key, self.params, self.sbar = s.tobytes(), params, sbar

    def get(self, s: np.ndarray):
        """``(params, sbar)`` if ``s`` is the stored iterate, else None."""
        return (self.params, self.sbar) if s.tobytes() == self.key else None


class _Recorder:
    """Checkpoint bookkeeping of one run, labelled by its current phase.

    It alone names the recording keywords :func:`run_algorithm` takes, and
    their defaults.  ``metric_mode``: "epoch" records whenever the epoch counter
    crosses an integer, "update" records after every statistic update,
    "none" records only the initial and final states.  Metric evaluation
    charges the monitor counters, never the algorithmic ones, and leaves
    its pass in ``last_pass`` for the run's estimators.
    """

    def __init__(self, model: Model, data: Dataset, trace: RunTrace, phase: str, *,
                 metric_mode: str = "epoch", compute_objective: bool = True,
                 epsilon: float | None = None, snapshot_mode: str = "none",
                 callback=None):
        if metric_mode not in METRIC_MODES:
            raise ValueError(f"unknown metric_mode {metric_mode!r}")
        if snapshot_mode not in SNAPSHOT_MODES:
            raise ValueError(f"unknown snapshot_mode {snapshot_mode!r}")
        self.model = model
        self.data = data
        self.trace = trace
        self.metric_mode = metric_mode
        self.compute_objective = compute_objective
        self.epsilon = epsilon
        self.snapshot_mode = snapshot_mode
        self.callback = callback
        self.phase, self._tau0, self._epoch0, self._skip = phase, 0, 0, False
        self._next_epoch = 1.0
        self._t0 = time.perf_counter()
        self.last_pass = _LastPass()

    def resume(self, phase: str, tau0: int, epoch0: float) -> None:
        """Start ``phase``, which continues the last one on the same clock.

        Its records carry tau and epoch offset by ``tau0`` and ``epoch0``, and
        its starting state, which closed the last phase's records, is
        evaluated but not recorded again."""
        self.phase, self._tau0, self._epoch0, self._skip = phase, tau0, epoch0, True
        self._next_epoch = 1.0

    def snapshot(self, t: int, k: int, s: np.ndarray) -> None:
        if self.snapshot_mode == "every-update":
            self.trace.snapshots.append((self.phase, t, k, s.copy()))

    def _metrics(self, s: np.ndarray) -> tuple[float, float]:
        mon = self.trace.monitor
        params = mstep(self.model, s, mon)
        sbar, w = self.model.checkpoint_stats(self.data, params,
                                              want_nll=self.compute_objective)
        mon.ce += self.data.n
        self.last_pass.put(s, params, sbar)
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
    """Per-sample compact rows plus the incrementally maintained statistic mean.

    ``lift(indices, w)`` maps the compact rows ``w`` of ``indices`` (all rows
    if ``None``) to the statistic summed over them, linearly in ``w``; the
    default, for rows that are the statistics themselves, is their sum.
    Batch updates deduplicate indices so the running mean stays the exact
    lifted mean of the stored rows up to accumulation error;
    :meth:`exact_mean` recomputes it from scratch for verification.
    """

    def __init__(self, rows: np.ndarray, lift=None, max_bytes: int = 2 << 30):
        if rows.nbytes > max_bytes:
            raise ValueError(
                f"per-sample store needs {rows.nbytes} bytes, over the {max_bytes} cap")
        self.rows = rows
        self.lift = _row_sum if lift is None else lift
        self.mean = self.exact_mean()

    def update(self, indices: np.ndarray, new_rows: np.ndarray) -> None:
        uniq, first = np.unique(indices, return_index=True)
        fresh = new_rows[first]
        delta = fresh - self.rows[uniq]
        self.rows[uniq] = fresh
        self.mean = self.mean + self.lift(uniq, delta) / self.rows.shape[0]

    def batch_mean(self, indices: np.ndarray) -> np.ndarray:
        """Multiset average of the lifted rows over a batch (duplicates count)."""
        return self.lift(indices, self.rows[indices]) / indices.size

    def exact_mean(self) -> np.ndarray:
        return self.lift(None, self.rows) / self.rows.shape[0]


def _row_sum(indices, w: np.ndarray) -> np.ndarray:
    return w.sum(axis=0)


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
    a ``full_batch`` method, the only kind that needs no sampler) and one
    M-step, as do the initial refit and each refresh with n rows; a method
    that ``relaxes`` steps ``s + gamma * direction``, one that does not
    takes the direction as its next iterate; ``refresh`` is None for a
    flat method and "damped" or "restart" for a nested one; the harness
    warm-starts ``warm`` methods, and the driver runs ``unit_step`` ones at
    step 1 whatever the schedule.

    Every method is built one way, ``cls(model, data, sampler, seeds)``.
    One that draws an extra random stream seeds it by ``self._seed(seeds,
    tag)`` after ``super().__init__``, so that a missing sampler raises
    before any seed is drawn; the others ignore ``seeds``.
    """

    name = ""
    passes = 1
    full_batch = warm = unit_step = False
    relaxes = True
    refresh = None

    def __init__(self, model: Model, data: Dataset, sampler: MinibatchSampler | None = None,
                 seeds=None):
        if sampler is None and not self.full_batch:
            raise ValueError(f"{self.name} needs a minibatch sampler, got None")
        self.model, self.data, self.sampler = model, data, sampler
        self.b = data.n if self.full_batch else sampler.batch_size
        # the run's counters and last monitored pass, bound by the driver
        self.counters, self.last_pass = None, _LastPass()

    def _seed(self, seeds, tag):
        if seeds is None:
            raise ValueError(f"{self.name} needs a seed stream, got None")
        return seeds(tag)

    # the oracles, charged to the run and looked up at call time; a call at
    # the last monitored iterate reuses that pass and is charged all the same
    def _mstep(self, s):
        hit = self.last_pass.get(s)
        if hit is None:
            return mstep(self.model, s, self.counters)
        self.counters.mstep += 1
        return hit[0]

    def _mean(self, batch, params):
        return minibatch_stats(self.model, self.data, batch, params, self.counters)

    def batch(self, sampler: MinibatchSampler | None = None) -> np.ndarray:
        """The next batch of ``sampler`` (default: the method's), sorted."""
        return np.sort((self.sampler if sampler is None else sampler).sample(self.data.n))

    def refit(self, s: np.ndarray) -> np.ndarray:
        """Full pass at ``s``, which becomes the reference point; returns the
        refit average there."""
        hit = self.last_pass.get(s)
        if hit is None:
            self.ref_params = mstep(self.model, s, self.counters)
            self.ref_stats = full_stats(self.model, self.data, self.ref_params, self.counters)
        else:
            self.counters.mstep += 1
            self.counters.ce += self.data.n
            self.ref_params, self.ref_stats = hit
        return self.ref_stats

    def direction(self, s: np.ndarray) -> np.ndarray:
        """``S_hat - s`` in the method's float order (``S_hat`` if it does not relax)."""
        raise NotImplementedError

    def inner_lengths(self, k_max, k_in, k_out, xi):
        """Updates per outer loop: one loop of k_max for a flat method, k_in - 1
        between refreshes for a nested one."""
        return [k_max] if self.refresh is None else [k_in - 1] * k_out


class _FullRefit(_Estimator):
    """EM: each update replaces the statistics by their exact refit average."""

    name, full_batch, relaxes, unit_step = "em", True, False, True

    def direction(self, s):
        return self.refit(s)


class _Online(_Estimator):
    """Online EM, stochastic approximation: relax the statistics toward the
    refit average over a batch with step gamma_tau."""

    name = "online-em"

    def direction(self, s):
        return self._mean(self.batch(), self._mstep(s)) - s


class _Store(_Estimator):
    """iEM: refresh the per-sample store on each batch and take its mean, at
    step 1.  The store keeps the model's ``store_rows`` (g posteriors a row
    for a mixture), capped at 2 GiB, and sums them through its
    ``lift_sum``."""

    name, unit_step = "iem", True

    def refit(self, s):
        # the store needs per-sample rows, so a monitored pass lends only its M-step
        rows = self.model.store_rows(self.data, None, self._mstep(s)).copy()
        self.counters.ce += self.data.n
        self.store = PerSampleStatStore(rows, partial(self.model.lift_sum, self.data))
        return self.store.mean.copy()

    def _refresh(self, s):
        """Refit the stored rows of one batch at ``s``; returns the parameters."""
        params = self._mstep(s)
        batch = self.batch()
        rows = self.model.store_rows(self.data, batch, params)
        self.counters.ce += batch.size
        self.store.update(batch, rows)
        return params

    def direction(self, s):
        self._refresh(s)
        return self.store.mean - s


class _StoreCv(_Store):
    """FIEM: refresh the store on one batch, then step along a second,
    independent batch's refit average corrected by ``store mean - store
    batch mean``, which keeps the step unbiased for the exact mean field.
    The second batch stream takes its seed from ``seeds(1)``."""

    name, passes, warm, unit_step = "fiem", 2, True, False

    def __init__(self, model, data, sampler=None, seeds=None):
        super().__init__(model, data, sampler)
        self.sampler_extra = MinibatchSampler(
            sampler.batch_size, self._seed(seeds, _EXTRA_STREAM_TAG), mode=sampler.mode)

    def direction(self, s):
        params = self._refresh(s)
        batch2 = self.batch(self.sampler_extra)
        cv = self.store.mean - self.store.batch_mean(batch2)
        return self._mean(batch2, params) - s + cv


class _Anchor(_Estimator):
    """sEM-vr: a batch refit average plus the control variate of the anchor,
    the reference point refitted at each damped refresh: ``full anchor
    average - batch anchor average``, zero mean by construction."""

    name, passes, refresh, warm = "sem-vr", 2, "damped", True

    def direction(self, s):
        batch, params = self.batch(), self._mstep(s)
        sb = self._mean(batch, params)
        return sb - s + (self.ref_stats - self._mean(batch, self.ref_params))


class _PathIntegrated(_Estimator):
    """SPIDER-EM: the refit average at the last refresh, a damped update,
    advanced by the difference of the batch averages at the current iterate
    and at the previous one, the reference point."""

    name, passes, refresh, warm = "spider-em", 2, "damped", True

    def direction(self, s):
        batch, params = self.batch(), self._mstep(s)
        self.ref_stats = self.ref_stats + (self._mean(batch, params)
                                           - self._mean(batch, self.ref_params))
        self.ref_params = params
        return self.ref_stats - s


class _ExplicitCv(_Estimator):
    """SPIDER-EM as the last batch refit average plus an explicit control
    variate accumulated since the last refresh, reset to zero at each one.
    On the same batch stream its trajectory is SPIDER-EM's elementwise, up
    to float associativity."""

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
    """SPIDER-EM restarted after a uniformly random 1 to k_in - 1 inner steps.

    Each restart keeps the last iterate and refits there, with no damped
    step.  ``rng``, with seed ``seeds(2)``, drives only the inner-length
    draws, which the trace keeps as ``xi``."""

    name, refresh = "spider-em-pl", "restart"

    def __init__(self, model, data, sampler=None, seeds=None):
        super().__init__(model, data, sampler)
        self.rng = np.random.default_rng(self._seed(seeds, _RESTART_STREAM_TAG))

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


def updates_per_epoch(n: int, b: int) -> int:
    """Updates of ``b`` selections each that make one data pass of ``n`` rows."""
    return max(1, round(n / b))


def _run(est: _Estimator, s_init, schedule, record: dict, *, k_max=None, k_in=None,
         k_out=None, outer_gamma=None, warm_epochs=0) -> RunTrace:
    """The one driver; returns the run's trace.  ``record`` holds the
    recording keywords of :class:`_Recorder`.  A warm phase of online EM
    on the method's sampler shares the trace, recorder, clock and counters
    with the method's phase, which starts from its last iterate."""
    if est.refresh is None:
        k_in = k_out = None
        bounds = [("k_max", k_max, 0)]
    else:
        k_max = None
        bounds = [("k_in", k_in, 2), ("k_out", k_out, 0)]
    for key, value, low in bounds + [("warm_epochs", warm_epochs, 0)]:
        if value is None or value < low:
            raise ValueError(f"{est.name} needs {key} >= {low}, got {value!r}")
    warm = _Online(est.model, est.data, est.sampler) if warm_epochs else None
    # a unit-step method runs at step 1, after a warm phase on the schedule
    for phase in filter(None, (warm, est)):
        if schedule is None and not phase.unit_step:
            raise ValueError(f"{phase.name} needs a step schedule, got None")
    first = warm or est
    trace = RunTrace(first.name, est.data.n, batch_size=None if first.full_batch else first.b)
    # the recorder checks the recording keywords before the model is first called
    rec = _Recorder(est.model, est.data, trace, "warmup" if warm else est.name, **record)
    s = _check_start(est.model, s_init)
    if warm:
        trace.k_max = iters = warm_epochs * updates_per_epoch(est.data.n, warm.b)
        _phase(warm, rec, s, schedule, k_max=iters)
        if trace.status != STATUS_COMPLETED:
            return trace
        s = trace.s_final
        trace.algorithm = f"warmup+{est.name}"
        rec.resume(est.name, iters, iters * warm.b / est.data.n)
    trace.k_in, trace.k_out, trace.k_max = k_in, k_out, k_max
    _phase(est, rec, s, StepSchedule.constant(1.0) if est.unit_step else schedule,
           k_max=k_max, k_in=k_in, k_out=k_out, outer_gamma=outer_gamma)
    return trace


def _phase(est: _Estimator, rec: _Recorder, s: np.ndarray, schedule, *, k_max=None,
           k_in=None, k_out=None, outer_gamma=None) -> None:
    """The one update loop, run into ``rec``'s trace, which it closes with a
    status and the last iterate.

    An initial refit, then outer loops of inner updates ``s <- s + gamma_tau
    * direction``, each nested loop closed by a full refresh, damped or
    restarting.  tau counts updates, damped refreshes included; positions
    are (outer t, inner k, tau).  A divergence is reported at the position
    of the last iterate, ``s_final``, whichever step or pass finds it."""
    trace = rec.trace
    est.counters, est.last_pass = trace.counters, rec.last_pass
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
                d = est.direction(s)
                s = s + schedule(tau) * d if est.relaxes else d
                pos = (t, k, tau)
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
            s_full = est.refit(s)
            if est.refresh == "damped":
                gamma = schedule(tau) if outer_gamma is None else float(outer_gamma)
                s = s + gamma * (s_full - s)
                pos = (t + 1, 0, tau)
                _check_finite(s)
            else:   # a restart: the next outer loop starts at the last iterate
                rec.snapshot(t + 1, -1, s)
            selections += n
            rec.snapshot(t + 1, 0, s)
            rec.checkpoint(t + 1, 0, tau, selections / n, s, force=(t == k_out))
    except DomainError as exc:
        trace.status, trace.diverged_at = STATUS_DIVERGED, pos
        trace.diverged_reason = exc.violation
    except _Stop as stop:
        trace.status = stop.status
    trace.s_final = s.copy()


def run_algorithm(name: str, model: Model, data: Dataset, s_init,
                  sampler: MinibatchSampler | None = None,
                  schedule: StepSchedule | None = None, seeds=None, *, k_max=None,
                  k_in=None, k_out=None, outer_gamma=None, warm_epochs: int = 0,
                  **record) -> RunTrace:
    """Run the method registered as ``name`` in :data:`ESTIMATORS`, the one
    entry point: ``run_algorithm("em", model, data, s0, k_max=100)``.  It
    builds the method as ``ESTIMATORS[name](model, data, sampler, seeds)``.

    ``sampler`` draws the batches of every method but EM.  A flat method
    runs ``k_max >= 0`` updates, a nested one ``k_out >= 0`` outer loops of
    ``k_in >= 2``, a damped one with refresh step ``outer_gamma`` (default:
    the schedule's).  EM and iEM (``unit_step``) run at step 1; any other
    method, and a warm phase, needs a ``schedule``.  ``seeds(tag)`` seeds a
    method's extra random stream; ``record`` takes :class:`_Recorder`'s
    keywords.  A bad argument raises before the model is first called; a
    divergence is reported at the position of the trace's ``s_final``.

    ``warm_epochs * updates_per_epoch(n, b)`` updates of online EM on
    ``sampler`` (phase ``warmup``, same schedule) come first.  The method's
    records follow in the trace, renamed ``warmup+<name>``, with tau offset
    by the warm updates and epoch by the data passes they made, ``updates *
    b / n``; a warm phase that does not complete ends the run as
    ``online-em``."""
    if name not in ESTIMATORS:
        raise ValueError(f"unknown method {name!r}; registered: {', '.join(ESTIMATORS)}")
    est = ESTIMATORS[name](model, data, sampler, seeds)
    return _run(est, s_init, schedule, record, k_max=k_max, k_in=k_in, k_out=k_out,
                outer_gamma=outer_gamma, warm_epochs=warm_epochs)


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
