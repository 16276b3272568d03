"""Spans around the calls into each `emvr` layer, recorded from outside.

:func:`instrument` swaps each traced name for a wrapper that records a
span (name, start, end, parent, minor page faults) and restores the
original on exit.  Spans stay in memory until the run ends.  The library
itself carries no tracing; everything here wraps its public names.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 at top level
    minflt: int      # minor page faults while the span was open


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        """``fn`` wrapped in a span; ``name`` may be a function of the call's
        arguments, for layers whose cost depends on them."""
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else -1
            span = Span(label, 0.0, 0.0, parent, 0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            flt = minor_faults()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.minflt = minor_faults() - flt
                self._stack.pop()
        traced.__wrapped__ = fn
        return traced

    def mark(self) -> int:
        return len(self.spans)


def _sbar_rows_name(data, indices, params):
    return "gmm.sbar_rows.full" if indices is None else "gmm.sbar_rows.batch"


@contextmanager
def instrument(tracer: Tracer, models=()):
    """Trace the optimizer loop's calls (``minibatch_stats``, ``full_stats``,
    ``mstep`` as `emvr.algorithms` names them), the sampler, the statistic
    store, each given model instance's ``sbar_rows``, ``m_step`` and
    ``checkpoint_stats``, and the harness build and run functions with the
    data generators and k-means start they call."""
    from emvr import algorithms, core, harness

    targets = [
        (algorithms, "minibatch_stats", "core.minibatch_stats"),
        (algorithms, "full_stats", "core.full_stats"),
        (algorithms, "mstep", "core.mstep"),
        (core.MinibatchSampler, "sample", "core.sampler"),
        (algorithms.PerSampleStatStore, "update", "algorithms.store_update"),
        (harness, "build_dataset", "harness.build_dataset"),
        (harness, "build_model", "harness.build_model"),
        (harness, "initial_stats", "harness.initial_stats"),
        (harness, "run_single", "harness.run_single"),
        (harness, "gen_multivariate_mixture", "data.gen"),
        (harness, "gen_scalar_mixture", "data.gen"),
        (harness, "init_kmeans", "gmm.init_kmeans"),
    ]
    saved = []
    try:
        for owner, attr, label in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(label, original))
        for model in models:
            for attr, label in (("sbar_rows", _sbar_rows_name), ("m_step", "gmm.m_step"),
                                ("checkpoint_stats", "gmm.checkpoint_stats")):
                setattr(model, attr, tracer.wrap(label, getattr(model, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for model in models:
            for attr in ("sbar_rows", "m_step", "checkpoint_stats"):
                model.__dict__.pop(attr, None)


# ---------------------------------------------------------------------------
# per-layer metrics


class SpanIndex:
    """Durations, self times and enclosing spans over a tracer's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                self.child_time[s.parent] += s.end - s.start

    def duration(self, i: int) -> float:
        s = self.spans[i]
        return s.end - s.start

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.child_time[i]

    def within(self, i: int, name: str) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def select(self, ranges, name: str) -> list[int]:
        return [i for lo, hi in ranges for i in range(lo, hi) if self.spans[i].name == name]


def median(values, scale: float = 1.0) -> float:
    """Median times ``scale``; 0.0 for a layer that did no work."""
    return float(np.median(values)) * scale if len(values) else 0.0


def layer_metrics(tracer: Tracer, setup_ranges, round_ranges, round_ops,
                  traced_walls, untraced_walls) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    ``setup_ranges`` and ``round_ranges`` are (first, end) span indices of
    each traced set-up and round; ``round_ops`` holds the traced rounds'
    operations, whose RunTrace counters give the work counts.  Per-call
    timings are medians over every call in the traced rounds; per-round
    totals are medians over the traced rounds.
    """
    ix = SpanIndex(tracer.spans)
    rounds = [[r] for r in round_ranges]

    def per_call(name, scale, self_time=False):
        fn = ix.self_time if self_time else ix.duration
        return median([fn(i) for i in ix.select(round_ranges, name)], scale)

    def calls(name):
        return len(ix.select(rounds[0], name))

    def total(rng, name, keep=lambda i: True):
        return sum(ix.duration(i) for i in ix.select(rng, name) if keep(i))

    # an n-row pass is a checkpoint_stats call or an sbar_rows call outside one
    passes = ix.select(round_ranges, "gmm.checkpoint_stats") + [
        i for i in ix.select(round_ranges, "gmm.sbar_rows.full")
        if not ix.within(i, "gmm.checkpoint_stats")]
    faults = [tracer.spans[i].minflt for i in passes]
    run_s, monitor_s, loop_self_s, update_us = [], [], [], []
    for rng, ops in zip(rounds, round_ops):
        updates = sum(op.trace.counters.mstep for op in ops)
        run = total(rng, "harness.run_single")
        mon = total(rng, "gmm.checkpoint_stats")
        full = total(rng, "gmm.sbar_rows.full",
                     lambda i: not ix.within(i, "gmm.checkpoint_stats"))
        run_s.append(run)
        monitor_s.append(mon)
        loop_self_s.append(sum(ix.self_time(i) for i in ix.select(rng, "harness.run_single")))
        update_us.append((run - mon - full) / updates * 1e6)
    build = [sum(ix.duration(i) for i in range(lo, hi)
                 if tracer.spans[i].name in ("harness.build_dataset", "harness.build_model",
                                             "harness.initial_stats")
                 and tracer.spans[i].parent < lo)
             for lo, hi in setup_ranges]
    ops = round_ops[0]
    return {
        "core.minibatch_stats.calls": calls("core.minibatch_stats"),
        "core.full_stats.calls": calls("core.full_stats"),
        "core.minibatch_stats.self_us": per_call("core.minibatch_stats", 1e6, self_time=True),
        "core.sampler_us": per_call("core.sampler", 1e6),
        "gmm.sbar_rows.batch_us": per_call("gmm.sbar_rows.batch", 1e6),
        "gmm.sbar_rows.full_ms": per_call("gmm.sbar_rows.full", 1e3),
        "gmm.full_pass_minflt": median(faults),
        "gmm.checkpoint_stats_ms": per_call("gmm.checkpoint_stats", 1e3),
        "gmm.m_step_us": per_call("gmm.m_step", 1e6),
        "gmm.init_kmeans_s": median([ix.duration(i)
                                     for i in ix.select(setup_ranges, "gmm.init_kmeans")]),
        "algorithms.updates": sum(op.trace.counters.mstep for op in ops),
        "algorithms.ce_algo": sum(op.trace.counters.ce for op in ops),
        "algorithms.ce_monitor": sum(op.trace.monitor.ce for op in ops),
        "algorithms.update_us": median(update_us),
        "algorithms.loop_self_s": median(loop_self_s),
        "algorithms.store_update_us": per_call("algorithms.store_update", 1e6),
        "algorithms.monitor_s": median(monitor_s),
        "algorithms.monitor_share": median([m / r for m, r in zip(monitor_s, run_s)]),
        "harness.build_s": median(build),
        "harness.run_single_s": per_call("harness.run_single", 1.0),
        "data.gen_s": median([ix.duration(i) for i in ix.select(setup_ranges, "data.gen")]),
        "trace.overhead_share": float(np.median(traced_walls) / np.median(untraced_walls)) - 1.0,
    }
