"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the benchmark imports ``emvr``
from ``src/`` there.  It repeats whole rounds of the workload's fixed
optimizer work for about ``--seconds`` (the nearest whole number of rounds,
at least one), sets the inputs up again between operations and reports the
median set-up time, checks every run against the benchmark's own reference
computations, and prints one JSON line with the result last.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics and the
tracing overhead.  The line before the result records the environment and
two noise counters of the run.
"""

import os
import sys

if __name__ == "__main__":
    # BLAS and OpenMP read their thread counts when numpy first loads them,
    # so this must run before anything imports numpy.  One thread each: many
    # small p=20 BLAS calls otherwise pay thread wake-up latency on every
    # call.  Only the command's own process is changed, not an importer's.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    # The harness adds this to every seed it derives; inputs depend on --seed only.
    os.environ.pop("EM_SEED_OFFSET", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, instrument, layer_metrics, minor_faults  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ce_per_s": "1/s",
    "time_to_eps_s": "s",
    "ce_to_eps": "count",
    "updates_to_eps": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.minibatch_stats.calls": "count",
    "core.full_stats.calls": "count",
    "core.minibatch_stats.self_us": "us",
    "core.sampler_us": "us",
    "gmm.sbar_rows.batch_us": "us",
    "gmm.sbar_rows.full_ms": "ms",
    "gmm.full_pass_minflt": "count",
    "gmm.checkpoint_stats_ms": "ms",
    "gmm.m_step_us": "us",
    "gmm.init_kmeans_s": "s",
    "algorithms.updates": "count",
    "algorithms.ce_algo": "count",
    "algorithms.ce_monitor": "count",
    "algorithms.update_us": "us",
    "algorithms.loop_self_s": "s",
    "algorithms.store_update_us": "us",
    "algorithms.monitor_s": "s",
    "algorithms.monitor_share": "share",
    "harness.build_s": "s",
    "harness.run_single_s": "s",
    "data.gen_s": "s",
    "trace.overhead_share": "share",
}

# Set-up is repeated between the operations of the run, for about
# SETUP_SHARE of the optimizer time so far, and at least MIN_SETUPS times.
# The host's speed drifts over seconds to minutes, so set-ups spread over
# the whole run sample the same stretch of it as wall_s does.
SETUP_SHARE, MIN_SETUPS = 0.2, 3


def steal_ticks():
    """Host steal ticks summed over all CPUs, from /proc/stat (None if absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def blas_threads() -> dict:
    """Thread count of every OpenBLAS copy loaded into this process."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError, ValueError):
            return None
    return {"cores": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            "blas_threads": blas_threads()}


class SetUps:
    """Times repeated set-ups of a workload; a traced run records their spans."""

    def __init__(self, workload, seed: int, tracer=None):
        self.workload, self.seed, self.tracer = workload, seed, tracer
        self.times, self.ranges = [], []

    def once(self):
        lo = self.tracer.mark() if self.tracer else 0
        t0 = time.perf_counter()
        with instrument(self.tracer) if self.tracer else nullcontext():
            prep = self.workload.setup(self.seed)
        self.times.append(time.perf_counter() - t0)
        if self.tracer:
            self.ranges.append((lo, self.tracer.mark()))
        return prep

    def keep_up(self, optimizer_s: float, minimum: int = 0) -> None:
        """Set up again until set-ups have taken SETUP_SHARE of
        ``optimizer_s`` and number at least ``minimum``; the inputs are let go."""
        while (sum(self.times) < SETUP_SHARE * optimizer_s
               or len(self.times) < minimum):
            self.once()


def measure(workload, seed: int, seconds: float, trace: bool, spans_path=None) -> dict:
    """One benchmark run; a traced run writes its spans, one JSON object a
    line, to ``spans_path`` when given."""
    tracer = Tracer() if trace else None
    setups = SetUps(workload, seed, tracer)
    prep = setups.once()
    optimizer_s = 0.0

    def after(seconds):
        nonlocal optimizer_s
        optimizer_s += seconds
        setups.keep_up(optimizer_s)

    walls, traced = [], []
    ops_by_round, fingerprints, round_ranges = [], [], []
    start = time.perf_counter()
    while True:
        is_traced = trace and len(walls) % 2 == 1
        # The first round runs with no set-ups between its operations, and the
        # peak memory is read after it: how many set-ups run where depends on
        # timing, and so does the heap they leave.  A traced round also runs
        # alone, so that set-up spans stay out of it.
        alone = is_traced or not walls
        lo = tracer.mark() if tracer else 0
        with instrument(tracer, [prep.model]) if is_traced else nullcontext():
            ops = workload.run_round(prep, None if alone else lambda op: after(op.seconds))
        if is_traced:
            round_ranges.append((lo, tracer.mark()))
        if not walls:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if alone:
            after(sum(op.seconds for op in ops))
        # a round's wall time is that of its operations, set-ups left out
        walls.append(sum(op.seconds for op in ops))
        traced.append(is_traced)
        ops_by_round.append(ops)
        fingerprints.append(workload.fingerprint(ops))
        # start another round only if at least half of it fits in the budget
        if (time.perf_counter() - start + walls[-1] / 2 >= seconds
                and (not trace or len(walls) >= 2)):
            break
    setups.keep_up(optimizer_s, MIN_SETUPS)
    setup_times, setup_ranges = setups.times, setups.ranges

    first = ops_by_round[0]
    errors = workload.check(prep, [op for op in first if not workload.failed(op)])
    for r, fp in enumerate(fingerprints[1:], 2):
        if fp != fingerprints[0]:
            errors.append(f"round {r} did not reproduce round 1")
    attempted = sum(len(ops) for ops in ops_by_round)
    failed = sum(workload.failed(op) for ops in ops_by_round for op in ops)
    if failed == attempted:
        raise SystemExit(f"all {attempted} operations failed; nothing to measure")

    if trace:
        metrics = layer_metrics(
            tracer, setup_ranges, round_ranges,
            [ops for ops, t in zip(ops_by_round, traced) if t],
            [w for w, t in zip(walls, traced) if t],
            [w for w, t in zip(walls, traced) if not t])
        units = PER_LAYER
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            with open(spans_path, "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(vars(s)) + "\n")
    else:
        wall = workload.wall(ops_by_round, walls)
        time_to_eps, ce_to_eps, updates_to_eps = workload.eps_metrics(ops_by_round, walls)
        metrics = {
            "setup_s": float(np.median(setup_times)),
            "wall_s": wall,
            "ce_per_s": workload.ce_total(first) / float(np.median(walls)),
            "time_to_eps_s": time_to_eps,
            "ce_to_eps": ce_to_eps,
            "updates_to_eps": updates_to_eps,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": u}
                        for k, u in units.items()},
            "round_walls_s": walls, "setups": len(setup_times)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "emvr" / "__init__.py").is_file():
        print(f"error: no emvr sources at {SRC_DIR}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    steal0, flt0 = steal_ticks(), minor_faults()
    spans = BENCH_DIR / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
                     spans if args.trace else None)
    steal1 = steal_ticks()
    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, round_walls_s=result.pop("round_walls_s"),
               setups=result.pop("setups"),
               steal_ticks=None if steal0 is None or steal1 is None else steal1 - steal0,
               minflt=minor_faults() - flt0)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
