"""Experiment runner: configs, trace files, complexity estimation, summaries.

A run is fully determined by a config file and a seed; the manifest records
a hash of the canonical config so outputs are attributable, each trace's
status, with the reason of a divergence, and the numeric environment the
runs had (numpy, scipy and BLAS versions, BLAS threads, split passes).
Trace CSVs use a fixed column schema (epoch, t, k, tau, W, h_sq_norm,
ce_count, mstep_count, wall_ms, status); wall_ms is the only column allowed
to vary between repetitions.

Importing the module loads numpy and nothing heavier: ``scipy`` is imported
where the manifest writes its version, and ``concurrent.futures`` where a
worker pool starts.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, core
from .algorithms import (ESTIMATORS, METRIC_MODES, SNAPSHOT_MODES, RunTrace,
                         StepSchedule, run_algorithm, updates_per_epoch)
from .core import (WITH_REPLACEMENT, WITHOUT_REPLACEMENT, Dataset,
                   MinibatchSampler, _serial_passes, full_stats)
from .data import gen_multivariate_mixture, gen_scalar_mixture, load_dataset
from .gmm import (PooledGmm, ScalarTwoGmm, ScalarTwoGmmParams, init_kmeans,
                  init_random_responsibility)

ALGORITHMS = tuple(ESTIMATORS)
NESTED = tuple(name for name, est in ESTIMATORS.items() if est.refresh)
CSV_COLUMNS = ("epoch", "t", "k", "tau", "W", "h_sq_norm", "ce_count",
               "mstep_count", "wall_ms", "status")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # model
    model_kind: str = "scalar2"           # scalar2 | gmm
    components: int = 2
    dim: int = 1
    weights: tuple = (0.2, 0.8)
    variance: float = 1.0
    # data
    data_kind: str = "scalar-mixture"     # scalar-mixture | multivariate-mixture | file
    n: int = 1000
    data_seed: int = 0
    means: tuple = (0.5, -0.5)
    separation: float = 6.0
    data_path: str = ""
    data_format: str = "csv"
    # init
    init_kind: str = "spread-means"       # spread-means | random-responsibility | kmeans
    init_seed: int = 0
    init_means: tuple | None = None
    # run
    algorithms: tuple = ("em",)
    seeds: tuple = (0,)
    batch_size: int | None = None
    k_in: int | None = None
    k_out: int | None = None
    k_max: int | None = None
    epochs: int | None = None
    epsilon: float | None = None
    warm_epochs: int = 0
    sampling: str = WITH_REPLACEMENT
    metric: str = "epoch"                 # epoch | update | none
    snapshot: str = "none"
    jobs: int = 1
    max_divergence_rate: float = 0.5
    out_dir: str = "runs"
    # steps
    step_kind: str = "constant"
    gamma: float = 1.0
    step_coefficient: float = 1.0
    outer_gamma: float | None = None


def _list(kind):
    """Parser of a comma- or space-separated list of ``kind`` values."""
    def parse(raw: str) -> tuple:
        return tuple(kind(v) for v in raw.replace(",", " ").split())
    parse.__name__ = f"{kind.__name__} list"
    return parse


# section -> key -> (ExperimentConfig field, parser)
_KEYS = {
    "model": {"kind": ("model_kind", str), "components": ("components", int),
              "dim": ("dim", int), "weights": ("weights", _list(float)),
              "variance": ("variance", float)},
    "data": {"kind": ("data_kind", str), "n": ("n", int), "seed": ("data_seed", int),
             "means": ("means", _list(float)), "separation": ("separation", float),
             "path": ("data_path", str), "format": ("data_format", str)},
    "init": {"kind": ("init_kind", str), "seed": ("init_seed", int),
             "means": ("init_means", _list(float))},
    "run": {"algorithms": ("algorithms", _list(str)), "seeds": ("seeds", _list(int)),
            "batch_size": ("batch_size", int), "k_in": ("k_in", int),
            "k_out": ("k_out", int), "k_max": ("k_max", int), "epochs": ("epochs", int),
            "epsilon": ("epsilon", float), "warm_epochs": ("warm_epochs", int),
            "sampling": ("sampling", str), "metric": ("metric", str),
            "snapshot": ("snapshot", str), "jobs": ("jobs", int),
            "max_divergence_rate": ("max_divergence_rate", float), "out_dir": ("out_dir", str)},
    "steps": {"kind": ("step_kind", str), "gamma": ("gamma", float),
              "coefficient": ("step_coefficient", float),
              "outer_gamma": ("outer_gamma", float)},
}


def _parse(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat ``[section]`` / ``key = value`` config format."""
    cfg = ExperimentConfig()
    section = None
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: duplicate key [{section}] {key}")
        seen[(section, key)] = lineno
        _apply_key(cfg, section, key, value)
    validate_config(cfg)
    return cfg


def _apply_key(cfg: ExperimentConfig, section: str, key: str, value: str) -> None:
    if key not in _KEYS[section]:
        raise ConfigError(f"[{section}] unknown key {key!r}")
    name, kind = _KEYS[section][key]
    setattr(cfg, name, _parse(section, key, value, kind))


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.model_kind not in ("scalar2", "gmm"):
        raise ConfigError(f"[model] kind must be scalar2 or gmm, got {cfg.model_kind!r}")
    if cfg.data_kind not in ("scalar-mixture", "multivariate-mixture", "file"):
        raise ConfigError(f"[data] unknown kind {cfg.data_kind!r}")
    if cfg.data_kind == "file" and not cfg.data_path:
        raise ConfigError("[data] kind=file requires a path")
    if cfg.step_kind not in ("constant", "inverse-sqrt"):
        raise ConfigError(f"[steps] unknown kind {cfg.step_kind!r}")
    # the negated forms reject nan too
    if not cfg.gamma >= 0:
        raise ConfigError(f"[steps] gamma must be >= 0, got {cfg.gamma!r}")
    if not cfg.step_coefficient > 0:
        raise ConfigError(f"[steps] coefficient must be > 0, got {cfg.step_coefficient!r}")
    for section, key in (("data", "n"), ("model", "components"), ("model", "dim")):
        if not getattr(cfg, key) >= 1:
            raise ConfigError(f"[{section}] {key} must be >= 1, got {getattr(cfg, key)!r}")
    if not cfg.variance > 0:
        raise ConfigError(f"[model] variance must be > 0, got {cfg.variance!r}")
    if not cfg.separation >= 0:
        raise ConfigError(f"[data] separation must be >= 0, got {cfg.separation!r}")
    w = cfg.weights
    if (cfg.model_kind == "scalar2" or cfg.data_kind == "scalar-mixture") and not (
            len(w) == 2 and w[0] > 0 and w[1] > 0 and abs(w[0] + w[1] - 1.0) <= 1e-12):
        raise ConfigError("[model] weights must be two positive values summing to 1, "
                          f"got {' '.join(map(str, w))}")
    init_means = (0.0, 0.0) if cfg.init_means is None else cfg.init_means
    for section, means, used in (("data", cfg.means, cfg.data_kind == "scalar-mixture"),
                                 ("init", init_means, cfg.init_kind == "spread-means")):
        if used and not (len(means) == 2 and all(map(math.isfinite, means))):
            raise ConfigError(f"[{section}] means must be two finite values, "
                              f"got {' '.join(map(str, means))}")
    if cfg.init_kind not in ("spread-means", "random-responsibility", "kmeans"):
        raise ConfigError(f"[init] unknown kind {cfg.init_kind!r}")
    if cfg.data_format not in ("csv", "packed-binary"):
        raise ConfigError(f"[data] format must be csv or packed-binary, got {cfg.data_format!r}")
    if cfg.epsilon is not None and not cfg.epsilon > 0:
        raise ConfigError(f"[run] epsilon must be > 0, got {cfg.epsilon!r}")
    if not 0 <= cfg.max_divergence_rate <= 1:
        raise ConfigError(f"[run] max_divergence_rate must be in [0, 1], "
                          f"got {cfg.max_divergence_rate!r}")
    for key, allowed in (("sampling", (WITH_REPLACEMENT, WITHOUT_REPLACEMENT)),
                         ("metric", METRIC_MODES), ("snapshot", SNAPSHOT_MODES)):
        value = getattr(cfg, key)
        if value not in allowed:
            raise ConfigError(f"[run] {key} must be {', '.join(allowed[:-1])} or "
                              f"{allowed[-1]}, got {value!r}")
    for key, low in (("batch_size", 1), ("k_in", 2), ("k_out", 0), ("k_max", 0),
                     ("epochs", 0), ("warm_epochs", 0), ("jobs", 1)):
        value = getattr(cfg, key)
        if value is not None and value < low:
            raise ConfigError(f"[run] {key} must be >= {low}, got {value}")
    for key in ("algorithms", "seeds"):
        values = getattr(cfg, key)
        if not values:
            raise ConfigError(f"[run] {key} must not be empty")
        if len(set(values)) < len(values):
            raise ConfigError(f"[run] {key} repeats an entry: {' '.join(map(str, values))}")
    for algo in cfg.algorithms:
        if algo not in ALGORITHMS:
            raise ConfigError(f"[run] unknown algorithm {algo!r}")
        if algo in NESTED:
            if cfg.epochs is None and (cfg.k_in is None or cfg.k_out is None):
                raise ConfigError(f"[run] {algo} needs k_in and k_out (or epochs)")
            warm = cfg.warm_epochs if ESTIMATORS[algo].warm else 0
            if cfg.epochs is not None and (cfg.epochs - warm) % 2:
                raise ConfigError(f"[run] epochs - warm_epochs must be even for {algo}")
        else:
            if cfg.epochs is None and cfg.k_max is None:
                raise ConfigError(f"[run] {algo} needs k_max (or epochs)")
        if not ESTIMATORS[algo].full_batch and cfg.batch_size is None:
            raise ConfigError(f"[run] {algo} needs batch_size")
    if cfg.k_in is not None and all(a not in NESTED for a in cfg.algorithms):
        raise ConfigError("[run] k_in given but no nested-loop algorithm requested")
    if (cfg.epochs is not None and cfg.warm_epochs > cfg.epochs
            and any(ESTIMATORS[a].warm for a in cfg.algorithms)):
        raise ConfigError(f"[run] warm_epochs = {cfg.warm_epochs} exceeds "
                          f"epochs = {cfg.epochs}")
    if cfg.model_kind == "scalar2" and cfg.data_kind == "multivariate-mixture":
        raise ConfigError("[data] scalar2 model needs 1-d data")
    if cfg.model_kind == "gmm" and cfg.init_kind == "spread-means":
        raise ConfigError("[init] spread-means applies to the scalar2 model only; "
                          "use random-responsibility or kmeans")


def canonical_config(cfg: ExperimentConfig) -> str:
    """Stable one-line-per-field rendering used for hashing and manifests."""
    pairs = []
    for name in sorted(vars(cfg)):
        pairs.append(f"{name} = {getattr(cfg, name)!r}")
    return "\n".join(pairs) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_config(cfg).encode()).hexdigest()[:16]


def seed_offset() -> int:
    """CI shake-out hook: integer added to every seed the harness derives."""
    return int(os.environ.get("EM_SEED_OFFSET", "0"))


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    off = seed_offset()
    if cfg.data_kind == "scalar-mixture":
        return gen_scalar_mixture(cfg.n, cfg.weights, cfg.means, cfg.variance,
                                  seed=cfg.data_seed + off)
    if cfg.data_kind == "multivariate-mixture":
        return gen_multivariate_mixture(cfg.n, cfg.components, cfg.dim,
                                        cfg.separation, seed=cfg.data_seed + off)
    try:
        return load_dataset(cfg.data_path, fmt=cfg.data_format)
    except (OSError, ValueError) as exc:   # missing, unreadable or malformed
        raise ConfigError(f"[data] path: {exc}") from None


def build_model(cfg: ExperimentConfig, data: Dataset):
    if cfg.model_kind == "scalar2":
        return ScalarTwoGmm.from_data(data, weights=cfg.weights, variance=cfg.variance)
    return PooledGmm.from_data(cfg.components, data)


def initial_stats(cfg: ExperimentConfig, model, data: Dataset) -> np.ndarray:
    off = seed_offset()
    if cfg.init_kind == "random-responsibility":
        return init_random_responsibility(model, data, cfg.init_seed + off)
    if cfg.init_kind == "kmeans":
        return init_kmeans(model, data, cfg.init_seed + off)
    if cfg.init_kind == "spread-means":
        if not isinstance(model, ScalarTwoGmm):
            raise ConfigError("[init] spread-means applies to the scalar2 model only")
        if cfg.init_means is not None:
            mu = np.asarray(cfg.init_means, dtype=np.float64)
        else:
            y = data.values[:, 0]
            mu = np.array([y.mean() + y.std(), y.mean() - y.std()])
        return full_stats(model, data, ScalarTwoGmmParams(mu=mu))
    raise ConfigError(f"[init] unknown kind {cfg.init_kind!r}")


def _updates_per_epoch(algo: str, n: int, b: int | None) -> int:
    est = ESTIMATORS.get(algo)   # an unknown name is validate_config's to reject
    return updates_per_epoch(n, n if est and est.full_batch else b or n)


def _derived_lengths(cfg: ExperimentConfig, algo: str, n: int):
    """(k_max, k_in, k_out, warm) for one algorithm, honoring the epoch budget."""
    warm = cfg.warm_epochs if ESTIMATORS[algo].warm else 0
    if cfg.epochs is None:
        return cfg.k_max, cfg.k_in, cfg.k_out, warm
    per_epoch = _updates_per_epoch(algo, n, cfg.batch_size)
    span = cfg.epochs - warm
    if algo not in NESTED:
        return span * per_epoch, None, None, warm
    return None, per_epoch + 1, span // 2, warm


def run_single(cfg: ExperimentConfig, algo: str, seed: int, model, data: Dataset,
               s_init: np.ndarray) -> RunTrace:
    """One (algorithm, seed) run with the config's sampling/step settings."""
    off = seed_offset()
    k_max, k_in, k_out, warm = _derived_lengths(cfg, algo, data.n)

    def seeds(*tags):
        return np.random.SeedSequence([seed + off, *tags])

    sampler = MinibatchSampler(cfg.batch_size or data.n, seeds(), mode=cfg.sampling)
    return run_algorithm(algo, model, data, s_init, sampler, _make_schedule(cfg),
                         seeds, k_max=k_max, k_in=k_in, k_out=k_out,
                         outer_gamma=cfg.outer_gamma, warm_epochs=warm,
                         metric_mode=cfg.metric, epsilon=cfg.epsilon,
                         snapshot_mode=cfg.snapshot,
                         compute_objective=cfg.metric != "update")


def _make_schedule(cfg: ExperimentConfig) -> StepSchedule:
    if cfg.step_kind == "inverse-sqrt":
        return StepSchedule.inverse_sqrt(cfg.step_coefficient)
    return StepSchedule.constant(cfg.gamma)


def trace_to_csv(trace: RunTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        last = len(trace.records) - 1
        for i, r in enumerate(trace.records):
            status = trace.status if i == last else "running"
            fh.write(",".join([repr(float(r.epoch)), str(r.t), str(r.k), str(r.tau),
                               repr(float(r.objective)), repr(float(r.h_sq)), str(r.ce),
                               str(r.mstep), f"{r.wall_ms:.3f}", status]) + "\n")


def read_trace_csv(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {}
    for j, name in enumerate(header):
        if name == "status":
            cols[name] = np.array([r[j] for r in rows])
        else:
            cols[name] = np.array([float(r[j]) for r in rows])
    return cols


_worker_inputs = None   # a pool worker's (data, s_init), from _start_worker


def _start_worker(data: Dataset, s_init: np.ndarray) -> None:
    """A pool worker's initializer: it keeps the inputs of all its jobs, and its
    passes on one thread, since the workers use the cores."""
    global _worker_inputs
    _serial_passes()
    _worker_inputs = data, s_init


def _run_job(cfg: ExperimentConfig, algo: str, seed: int, data: Dataset,
             s_init: np.ndarray):
    return algo, seed, run_single(cfg, algo, seed, build_model(cfg, data), data, s_init)


def _run_one_job(args):
    """A pool worker's job ``(cfg, algorithm, seed)``, on the worker's inputs."""
    return _run_job(*args, *_worker_inputs)


def _run_jobs(cfg: ExperimentConfig, data: Dataset, s_init: np.ndarray, seeds):
    """``(algorithm, seed, trace)`` for each of the config's algorithms and each seed,
    in order, each run on ``data`` from ``s_init`` with its own model: serially, or
    on ``cfg.jobs`` worker processes, each given both once, when it starts."""
    tasks = [(cfg, algo, seed) for algo in cfg.algorithms for seed in seeds]
    if cfg.jobs == 1:
        yield from (_run_job(*task, data, s_init) for task in tasks)
        return
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(min(cfg.jobs, len(tasks)), initializer=_start_worker,
                             initargs=(data, s_init)) as pool:
        yield from pool.map(_run_one_job, tasks)


def build_inputs(cfg: ExperimentConfig) -> tuple[Dataset, np.ndarray]:
    """``(data, s_init)``: the dataset and start that every run of ``cfg`` shares."""
    data = build_dataset(cfg)
    return data, initial_stats(cfg, build_model(cfg, data), data)


def run_experiment(cfg: ExperimentConfig, progress=None, inputs=None) -> dict:
    """Execute the config's (algorithm, seed) grid and write trace CSVs.

    Returns a summary dict with per-run statuses and the divergence rate.
    The dataset and start, ``inputs`` if given as :func:`build_inputs` returns
    them, are built once, before ``out_dir`` is made.  Every algorithm shares
    the per-seed minibatch stream; the SAGA-style method draws its second
    stream from an independent seed sequence.
    """
    data, s_init = build_inputs(cfg) if inputs is None else inputs
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for res in _run_jobs(cfg, data, s_init, cfg.seeds):
        results.append(res)
        if progress:
            progress(res)
    statuses, reasons = {}, {}
    summary_rows = ["algorithm,seed,status,final_epoch,final_W,final_h_sq_norm,"
                    "ce_count,mstep_count"]
    for algo, seed, trace in results:
        trace_to_csv(trace, out / f"trace_{algo}_{seed}.csv")
        statuses[(algo, seed)] = trace.status
        if trace.diverged_reason is not None:
            reasons[(algo, seed)] = f" ({trace.diverged_reason})"
        last = trace.final_record()
        summary_rows.append(f"{algo},{seed},{trace.status},{repr(float(last.epoch))},"
                            f"{repr(float(last.objective))},{repr(float(last.h_sq))},"
                            f"{trace.counters.ce},{trace.counters.mstep}")
    (out / "summary.csv").write_text(
        summary_rows[0] + "\n" + "\n".join(sorted(summary_rows[1:])) + "\n")
    diverged = sum(1 for v in statuses.values() if v == "diverged")
    rate = diverged / len(statuses)
    import scipy   # for its version only: a scalar run loads no scipy before this
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    manifest = [f"emvr version = {__version__}",
                f"config hash = {config_hash(cfg)}",
                f"seed offset = {seed_offset()}",
                f"divergence rate = {rate}",
                f"numpy version = {np.__version__}",
                f"scipy version = {scipy.__version__}",
                f"blas = {blas['name']} {blas['version']}",
                f"OPENBLAS_NUM_THREADS = {os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
                # pool workers keep every pass on one thread
                f"split passes = {'yes' if core._split_passes and cfg.jobs == 1 else 'no'}"]
    manifest += [f"trace_{a}_{s}.csv = {st}{reasons.get((a, s), '')}"
                 for (a, s), st in sorted(statuses.items())]
    manifest.append("")
    manifest.append("[config]")
    manifest.append(canonical_config(cfg))
    (out / "manifest.txt").write_text("\n".join(manifest))
    return {"statuses": statuses, "divergence_rate": rate, "out_dir": str(out),
            "traces": {(a, s): t for a, s, t in results}}


# ---------------------------------------------------------------------------
# oracle-cost accounting


def expected_totals(algorithm: str, n: int, b: int | None = None,
                    k_in: int | None = None, k_out: int | None = None,
                    k_max: int | None = None, xi=None) -> tuple[int, int]:
    """Closed-form terminal (ce, msteps) for a completed run.

    Flat methods: one initial full pass plus k_max updates at their batch
    cost.  Nested methods: the initial full pass plus, per outer loop,
    k_in - 1 inner updates at 2b each and one refresh at n.  The restart
    variant replaces k_in - 1 by its realized inner lengths ``xi``.
    """
    est = ESTIMATORS[algorithm]
    update_ce = est.passes * (n if est.full_batch else b)
    if est.refresh is None:
        return n + update_ce * k_max, 1 + k_max
    lengths = list(xi) if est.refresh == "restart" else [k_in - 1] * k_out
    return (n + sum(n + update_ce * x for x in lengths),
            1 + sum(x + 1 for x in lengths))


# ---------------------------------------------------------------------------
# first-hitting-time complexity estimation


@dataclass
class ComplexityEstimate:
    """Per-problem-size medians of the hitting-time oracle costs."""

    algorithm: str
    epsilon: float
    rows: list = field(default_factory=list)   # dicts per n

    def summary_csv(self) -> str:
        lines = ["n,b,k_in,trials,hits,hit_rate,kopt_median,kce_median"]
        for r in self.rows:
            k_in = "" if r["k_in"] is None else r["k_in"]   # a flat method has none
            lines.append(f"{r['n']},{r['b']},{k_in},{r['trials']},{r['hits']},"
                         f"{repr(r['hit_rate'])},{repr(r['kopt_median'])},"
                         f"{repr(r['kce_median'])}")
        return "\n".join(lines) + "\n"

    def trials_csv(self) -> str:
        lines = ["n,trial,hit,tau_emp,t_emp,k_opt,k_ce"]
        for r in self.rows:
            for i, rec in enumerate(r["trial_records"]):
                lines.append(f"{r['n']},{i},{int(rec['hit'])},{rec['tau']},"
                             f"{rec['t']},{rec['k_opt']},{rec['k_ce']}")
        return "\n".join(lines) + "\n"


def paper_batch_size(n: int) -> int:
    return math.ceil(math.sqrt(n) / 20.0)


def estimate_complexity(cfg: ExperimentConfig, epsilon: float, n_grid, trials: int,
                        max_epochs: int = 500, progress=None) -> ComplexityEstimate:
    """First-hitting-time study over a grid of problem sizes.

    For each n the dataset and starting point are built once; trials differ
    in the minibatch stream and run as the runs of :func:`run_experiment`
    do.  Runs check the squared mean-field norm after every update and stop
    at the first crossing of ``epsilon``; trials that never hit within
    ``max_epochs`` data passes are excluded from the medians and reported
    through the hit rate.  ``batch_size``/``k_in`` left unset follow the
    ceil(sqrt(n)/20) and ceil(n/b) rules; a flat method has no ``k_in``, and
    its summary cell is empty.  Each size's settings, with the run lengths
    that run, pass :func:`validate_config` before its data is drawn.
    """
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    n_grid = list(n_grid)
    if not all(n >= 1 for n in n_grid):   # before a batch size is derived from n
        raise ConfigError(f"problem sizes must be >= 1, got {n_grid}")
    algo = cfg.algorithms[0]
    est = ComplexityEstimate(algorithm=algo, epsilon=epsilon)
    for n in n_grid:
        b = cfg.batch_size if cfg.batch_size is not None else paper_batch_size(n)
        k_in = None
        if algo in NESTED:
            k_in = cfg.k_in if cfg.k_in is not None else math.ceil(n / b)
        # the driver reads k_max for a flat method and k_out for a nested one
        sub = replace(cfg, n=n, batch_size=b, k_in=k_in,
                      k_out=max(1, math.ceil(max_epochs / 2)),
                      k_max=max_epochs * _updates_per_epoch(algo, n, b),
                      epochs=None, epsilon=epsilon, metric="update", snapshot="none",
                      warm_epochs=0, algorithms=(algo,))
        validate_config(sub)
        data, s_init = build_inputs(sub)
        recs = []
        for _, trial, trace in _run_jobs(sub, data, s_init, range(trials)):
            if trace.hit is not None:
                # costs after the initial refit, read at the hit, the last record
                at_hit = trace.final_record()
                recs.append({"hit": True, "tau": trace.hit[2], "t": trace.hit[0] - 1,
                             "k_opt": at_hit.mstep - 1, "k_ce": at_hit.ce - n})
            else:
                recs.append({"hit": False, "tau": -1, "t": -1, "k_opt": -1, "k_ce": -1})
            if progress:
                progress(n, trial, recs[-1])
        hits = [r for r in recs if r["hit"]]
        est.rows.append({
            "n": n, "b": b, "k_in": k_in, "trials": trials, "hits": len(hits),
            "hit_rate": len(hits) / trials,
            "kopt_median": float(np.median([r["k_opt"] for r in hits])) if hits else float("nan"),
            "kce_median": float(np.median([r["k_ce"] for r in hits])) if hits else float("nan"),
            "trial_records": recs,
        })
    return est


# ---------------------------------------------------------------------------
# cross-seed summaries


def summarize_quantiles(trace_files, quantiles) -> str:
    """Per-epoch quantiles of h_sq_norm and W across aligned trace CSVs."""
    if len(trace_files) < 2:
        raise ValueError("need at least two traces to summarize")
    traces = [read_trace_csv(p) for p in trace_files]
    epochs = traces[0]["epoch"]
    for i, tr in enumerate(traces[1:], 1):
        if tr["epoch"].shape != epochs.shape or not np.array_equal(tr["epoch"], epochs):
            raise ValueError(f"trace {trace_files[i]} has a misaligned checkpoint grid")
    qs = list(quantiles)
    header = ["epoch", "stat"] + [f"q{q}" for q in qs]
    lines = [",".join(header)]
    for stat, col in (("h_sq_norm", "h_sq_norm"), ("W", "W")):
        mat = np.stack([tr[col] for tr in traces])   # (n_traces, n_epochs)
        for j, ep in enumerate(epochs):
            vals = np.quantile(mat[:, j], qs)
            lines.append(",".join([repr(float(ep)), stat] + [repr(float(v)) for v in vals]))
    return "\n".join(lines) + "\n"
