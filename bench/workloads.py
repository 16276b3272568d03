"""The benchmark's three workloads.

Each workload builds its inputs from the run's seed (:meth:`setup`), runs
one round of fixed optimizer work through ``emvr.harness.run_single``
(:meth:`run_round`), and checks every run of a round against
``reference.py`` and the closed-form counters (:meth:`check`).  A round
repeats the same operations on the same inputs, so every round of a run
must reproduce the first one bit for bit.

Sizes are dataclass fields so the benchmark's tests can run the same code
on tiny inputs; the defaults are the measured workloads.  What the tests
never vary is a class constant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from emvr import Dataset, harness

import reference as ref

# Mixture separation of both GMM workloads, as in the acceptance suite.
SEPARATION = 6.0

# A run whose status is not one of these counts as a failed operation.
COMPLETED = "completed"
HIT = "hit-eps"

MASS_TOL = 1e-9          # mass blocks sum to 1 up to float64 accumulation
# Reference and library mean-field norms sqrt(h_sq) agree to RTOL relative,
# above an ATOL floor for the rounding of two float64 averages over n rows.
NORM_RTOL, NORM_ATOL = 1e-6, 1e-12
OBJECTIVE_RTOL = 1e-9
OBJECTIVE_ATOL = 1e-12   # EM's objective may only rise by rounding


def derive(seed: int, tag: int) -> int:
    """Independent 32-bit seed for stream ``tag`` of workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


@dataclass
class Op:
    """One operation of a round: an optimizer run or a hitting trial."""

    label: str
    trace: object            # emvr RunTrace
    seconds: float           # wall time of the run_single call


@dataclass
class Prepared:
    cfg: object              # emvr.harness.ExperimentConfig
    data: object             # emvr.Dataset the optimizer sees
    model: object
    s0: np.ndarray


def _fingerprint(trace) -> tuple:
    return (trace.status, trace.counters.ce, trace.counters.mstep, trace.monitor.ce,
            trace.monitor.mstep, trace.hit, trace.s_final.tobytes(),
            tuple(r.h_sq for r in trace.records))


def _same_h_sq(h: float, h_ref: float) -> bool:
    return abs(np.sqrt(h) - np.sqrt(h_ref)) <= NORM_RTOL * np.sqrt(h_ref) + NORM_ATOL


def _same_objective(w: float, w_ref: float) -> bool:
    return abs(w - w_ref) <= OBJECTIVE_RTOL * abs(w_ref)


def _timed_run(label: str, *args) -> Op:
    t0 = time.perf_counter()
    trace = harness.run_single(*args)
    return Op(label, trace, time.perf_counter() - t0)


class Workload:
    name = ""

    def operations(self, prep: Prepared) -> list[tuple[str, str, int]]:
        """(label, algorithm, run seed) of every operation of a round."""
        raise NotImplementedError

    def run_round(self, prep: Prepared, after_op=None) -> list[Op]:
        """Run one round; ``after_op(op)``, when given, is called after each
        operation, outside its timing."""
        ops = []
        for label, algorithm, run_seed in self.operations(prep):
            ops.append(_timed_run(label, prep.cfg, algorithm, run_seed, prep.model,
                                  prep.data, prep.s0))
            if after_op is not None:
                after_op(ops[-1])
        return ops

    def wall(self, ops_by_round, walls) -> float:
        """Median wall time of one round."""
        return float(np.median(walls))

    def failed(self, op: Op) -> bool:
        return op.trace.status not in (COMPLETED, HIT)

    def fingerprint(self, ops) -> list:
        return [(op.label, _fingerprint(op.trace)) for op in ops]

    def ce_total(self, ops) -> int:
        return sum(op.trace.counters.ce + op.trace.monitor.ce for op in ops)

    def _check_masses(self, op: Op, g: int, errors: list) -> None:
        tr = op.trace
        states = [s for _, _, _, s in tr.snapshots] + [tr.s_final]
        worst = max(abs(float(np.sum(s[:g])) - 1.0) for s in states)
        if worst > MASS_TOL:
            errors.append(f"{op.label}: mass blocks sum to 1 within {worst:.2e}, "
                          f"over {MASS_TOL:.0e}")


# ---------------------------------------------------------------------------


@dataclass
class GmmVr(Workload):
    """The variance-reduction bundle: four minibatch methods on the pooled
    GMM from a random-responsibility start, checkpointed every epoch."""

    n: int = 5000
    g: int = 12
    p: int = 20
    batch_size: int = 100
    gamma: float = 5e-3
    epochs: int = 10
    warm_epochs: int = 2
    name = "gmm-vr"
    ALGORITHMS = ("spider-em", "online-em", "iem", "fiem")

    def setup(self, seed: int) -> Prepared:
        cfg = harness.ExperimentConfig(
            model_kind="gmm", components=self.g, dim=self.p,
            data_kind="multivariate-mixture", n=self.n, separation=SEPARATION,
            data_seed=derive(seed, 0), init_kind="random-responsibility",
            init_seed=derive(seed, 1), algorithms=self.ALGORITHMS,
            seeds=(derive(seed, 2),), batch_size=self.batch_size, epochs=self.epochs,
            warm_epochs=self.warm_epochs, gamma=self.gamma, snapshot="checkpoint")
        data = harness.build_dataset(cfg)
        model = harness.build_model(cfg, data)
        return Prepared(cfg, data, model, harness.initial_stats(cfg, model, data))

    def operations(self, prep: Prepared):
        return [(algo, algo, prep.cfg.seeds[0]) for algo in self.ALGORITHMS]

    def check(self, prep: Prepared, ops) -> list[str]:
        errors = []
        X = prep.data.values
        for op in ops:
            tr, algo = op.trace, op.label
            if tr.status != COMPLETED:
                errors.append(f"{algo}: status {tr.status}")
                continue
            warm = self.warm_epochs if algo in ("fiem", "spider-em") else 0
            want = ref.minibatch_counters(algo, self.n, self.batch_size, self.epochs, warm)
            got = (tr.counters.ce, tr.counters.mstep, tr.monitor.ce, tr.monitor.mstep)
            if got != want:
                errors.append(f"{algo}: counters (ce, mstep, monitor ce, monitor mstep) "
                              f"{got} != closed form {want}")
            epochs = [r.epoch for r in tr.records]
            if epochs != [float(e) for e in range(self.epochs + 1)]:
                errors.append(f"{algo}: checkpoints at epochs {epochs}")
            sbar, nll = ref.pooled_gmm_pass(X, tr.s_final, self.g)
            h_ref, last = ref.h_sq(sbar, tr.s_final), tr.final_record()
            if not _same_h_sq(last.h_sq, h_ref):
                errors.append(f"{algo}: final h_sq {last.h_sq!r} != reference {h_ref!r}")
            if not _same_objective(last.objective, nll):
                errors.append(f"{algo}: final objective {last.objective!r} != "
                              f"reference {nll!r}")
            self._check_masses(op, self.g, errors)
        return errors

    def eps_metrics(self, ops_by_round, walls):
        # No epsilon is sought: the random-responsibility start sits at the
        # symmetric fixed point, so an epsilon above its h_sq is crossed by the
        # first update and one below it is not reached in the fixed budget.
        # The *_to_eps metrics report that budget, as a censored hitting time.
        ops = ops_by_round[0]
        return (float(np.median(walls)), sum(op.trace.counters.ce for op in ops),
                sum(op.trace.counters.mstep for op in ops))


@dataclass
class GmmEm70k(Workload):
    """Batch EM at the size of the MNIST GMM experiment, from k-means."""

    n: int = 70_000
    g: int = 12
    p: int = 20
    k_max: int = 9
    epsilon: float = 1e-6
    name = "gmm-em-70k"

    def setup(self, seed: int) -> Prepared:
        # The mixture draw and the k-means start are those of instance seed 0,
        # where EM crosses epsilon between k=6 (h_sq 1.15e-6) and k=7
        # (8.85e-7).  K-means lands in a different basin on other draws (some
        # reach h_sq < 1e-12 at once), which would make the hitting counts
        # swing sevenfold from seed to seed.  The run's seed permutes the rows
        # the optimizer sees, which leaves the trajectory unchanged up to
        # summation order.
        cfg = harness.ExperimentConfig(
            model_kind="gmm", components=self.g, dim=self.p,
            data_kind="multivariate-mixture", n=self.n, separation=SEPARATION,
            data_seed=0, init_kind="kmeans", init_seed=0, algorithms=("em",),
            k_max=self.k_max, metric="epoch", snapshot="checkpoint")
        drawn = harness.build_dataset(cfg)
        s0 = harness.initial_stats(cfg, harness.build_model(cfg, drawn), drawn)
        perm = np.random.default_rng(derive(seed, 0)).permutation(self.n)
        data = Dataset(drawn.values[perm], provenance=f"{drawn.provenance}|perm")
        return Prepared(cfg, data, harness.build_model(cfg, data), s0)

    def operations(self, prep: Prepared):
        return [("em", "em", 0)]

    def crossing(self, trace):
        """First checkpoint after an update with h_sq <= epsilon, or None."""
        return next((r for r in trace.records if r.tau >= 1 and r.h_sq <= self.epsilon),
                    None)

    def failed(self, op: Op) -> bool:
        return super().failed(op) or self.crossing(op.trace) is None

    def check(self, prep: Prepared, ops) -> list[str]:
        errors = []
        X = prep.data.values
        for op in ops:
            tr = op.trace
            if tr.status != COMPLETED:
                errors.append(f"em: status {tr.status}")
                continue
            ce, ms = ref.em_counters(self.n, self.k_max)
            got = (tr.counters.ce, tr.counters.mstep, tr.monitor.ce, tr.monitor.mstep)
            want = (ce, ms, self.n * (self.k_max + 1), self.k_max + 1)
            if got != want:
                errors.append(f"em: counters {got} != closed form {want}")
            ks = [r.k for r in tr.records]
            if ks != list(range(self.k_max + 1)):
                errors.append(f"em: checkpoints at k={ks}")
            for r in tr.records:
                if (r.ce, r.mstep) != ref.em_counters(self.n, r.k):
                    errors.append(f"em: counters at k={r.k} are {(r.ce, r.mstep)}")
            w = [r.objective for r in tr.records]
            rises = [k for k in range(1, len(w)) if w[k] > w[k - 1] + OBJECTIVE_ATOL]
            if rises:
                errors.append(f"em: objective rises at k={rises}")
            sbar, nll = ref.pooled_gmm_pass(X, tr.s_final, self.g)
            h_ref = ref.h_sq(sbar, tr.s_final)
            if not _same_h_sq(tr.final_record().h_sq, h_ref):
                errors.append(f"em: final h_sq {tr.final_record().h_sq!r} != "
                              f"reference {h_ref!r}")
            if not _same_objective(tr.final_record().objective, nll):
                errors.append(f"em: final objective {tr.final_record().objective!r} "
                              f"!= reference {nll!r}")
            hit = self.crossing(tr)
            if hit is not None:
                s_hit = tr.snapshot_map()[(hit.t, hit.k)]
                h_hit = ref.h_sq(ref.pooled_gmm_pass(X, s_hit, self.g)[0], s_hit)
                if h_hit > self.epsilon:
                    errors.append(f"em: reference h_sq {h_hit!r} at the crossing "
                                  f"k={hit.k} is above epsilon")
            self._check_masses(op, self.g, errors)
        return errors

    def eps_metrics(self, ops_by_round, walls):
        hits = [self.crossing(op.trace) for ops in ops_by_round for op in ops
                if not self.failed(op)]
        first = hits[0]
        return (float(np.median([h.wall_ms for h in hits])) / 1e3, first.ce, first.mstep)


@dataclass
class ScalarHitting(Workload):
    """The hitting-time study of the scalar two-component mixture: SPIDER-EM
    with the paper's b and k_in rules, checked after every update."""

    n: int = 100_000
    gamma: float = 0.01
    epsilon: float = 2.5e-5
    trials: int = 7
    name = "scalar-hitting"

    @property
    def batch_size(self) -> int:
        return harness.paper_batch_size(self.n)

    @property
    def k_in(self) -> int:
        return math.ceil(self.n / self.batch_size)

    def setup(self, seed: int) -> Prepared:
        # one outer loop: every trial measured so far hits well inside it
        cfg = harness.ExperimentConfig(
            algorithms=("spider-em",), n=self.n, data_seed=derive(seed, 0),
            batch_size=self.batch_size, k_in=self.k_in, k_out=1, epsilon=self.epsilon,
            metric="update", gamma=self.gamma,
            seeds=tuple(derive(seed, 1 + i) for i in range(self.trials)))
        data = harness.build_dataset(cfg)
        model = harness.build_model(cfg, data)
        return Prepared(cfg, data, model, harness.initial_stats(cfg, model, data))

    def operations(self, prep: Prepared):
        return [(f"trial-{i}", "spider-em", s) for i, s in enumerate(prep.cfg.seeds)]

    def failed(self, op: Op) -> bool:
        return op.trace.status != HIT

    def wall(self, ops_by_round, walls) -> float:
        """Median wall time of one trial: each trial's work ends at its own
        hit, so a round's total moves with the seed's hitting times."""
        return float(np.median([op.seconds for ops in ops_by_round for op in ops
                                if not self.failed(op)]))

    def check(self, prep: Prepared, ops) -> list[str]:
        errors = []
        y = prep.data.values[:, 0]
        for op in ops:
            tr = op.trace
            if tr.status != HIT or tr.hit is None:
                errors.append(f"{op.label}: status {tr.status}, no hit")
                continue
            t, _, tau = tr.hit
            want = ref.spider_hit_counters(self.n, self.batch_size, self.k_in, t, tau)
            got = (tr.counters.ce, tr.counters.mstep, tr.monitor.ce, tr.monitor.mstep)
            if got != want:
                errors.append(f"{op.label}: counters {got} != closed form {want}")
            last = tr.final_record()
            if (last.t, last.k, last.tau) != tr.hit or (last.ce, last.mstep) != want[:2]:
                errors.append(f"{op.label}: hit record {last} does not match hit {tr.hit}")
            sbar, _ = ref.scalar_two_pass(y, tr.s_final, prep.cfg.weights,
                                          prep.cfg.variance)
            h_ref = ref.h_sq(sbar, tr.s_final)
            if h_ref > self.epsilon * (1.0 + 1e-9):
                errors.append(f"{op.label}: reference h_sq {h_ref!r} at the hitting "
                              f"iterate is above epsilon {self.epsilon}")
            if not _same_h_sq(last.h_sq, h_ref):
                errors.append(f"{op.label}: hit h_sq {last.h_sq!r} != reference {h_ref!r}")
            self._check_masses(op, 2, errors)
        return errors

    def eps_metrics(self, ops_by_round, walls):
        hits = [op.trace.final_record() for ops in ops_by_round for op in ops
                if not self.failed(op)]
        first = [op.trace.final_record() for op in ops_by_round[0] if not self.failed(op)]
        return (float(np.median([h.wall_ms for h in hits])) / 1e3,
                float(np.median([h.ce for h in first])),
                float(np.median([h.mstep for h in first])))


WORKLOADS = {w.name: w for w in (GmmVr, GmmEm70k, ScalarHitting)}
