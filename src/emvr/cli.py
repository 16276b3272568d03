"""Command-line harness.

Subcommands: ``run`` (one config), ``complexity`` (hitting-time scaling
study), ``compare`` (algorithm grid plus cross-seed quantiles),
``gen-data`` (write a synthetic dataset) and ``check`` (built-in invariant
suites).  Exit codes: 0 ok, 1 config error, 2 divergence threshold
exceeded, 3 check failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .core import MinibatchSampler, full_stats, mean_field, minibatch_stats
from .data import gen_multivariate_mixture, gen_scalar_mixture, save_dataset
from .gmm import PooledGmm, init_random_responsibility
from .harness import (ConfigError, ExperimentConfig, estimate_complexity,
                      parse_config, run_experiment, summarize_quantiles,
                      validate_config)

EX_OK, EX_CONFIG, EX_DIVERGED, EX_CHECK = 0, 1, 2, 3


def _cmd_run(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    if args.out:
        cfg.out_dir = args.out
    if args.jobs:
        cfg.jobs = args.jobs
    summary = run_experiment(cfg, progress=_progress(args))
    print(f"wrote {len(summary['statuses'])} traces to {summary['out_dir']} "
          f"(divergence rate {summary['divergence_rate']:.2f})")
    if summary["divergence_rate"] > cfg.max_divergence_rate:
        print("divergence threshold exceeded", file=sys.stderr)
        return EX_DIVERGED
    return EX_OK


def _progress(args):
    if getattr(args, "quiet", False):
        return None
    return lambda res: print(f"  {res[0]} seed={res[1]}: {res[2].status}")


def _cmd_complexity(args) -> int:
    cfg = ExperimentConfig(algorithms=(args.algo,), gamma=args.gamma,
                           data_seed=args.data_seed)
    n_grid = [int(v) for v in args.n.split(",")]
    est = estimate_complexity(cfg, args.epsilon, n_grid, args.trials,
                              max_epochs=args.max_epochs,
                              progress=None if args.quiet else
                              lambda n, t, r: print(f"  n={n} trial={t} "
                                                    f"hit={r['hit']} tau={r['tau']}"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "complexity_summary.csv").write_text(est.summary_csv())
    (out / "complexity_trials.csv").write_text(est.trials_csv())
    print(est.summary_csv(), end="")
    print(f"wrote complexity CSVs to {out}")
    return EX_OK


def _cmd_compare(args) -> int:
    algos = tuple(a.strip() for a in args.algos.split(","))
    seeds = tuple(range(args.seeds))
    cfg = ExperimentConfig(
        model_kind="gmm", components=args.components, dim=args.dim,
        data_kind="multivariate-mixture", n=args.n, separation=args.separation,
        data_seed=args.data_seed, init_kind="random-responsibility",
        init_seed=args.init_seed, algorithms=algos, seeds=seeds,
        batch_size=args.batch_size, epochs=args.epochs, warm_epochs=args.kswitch,
        gamma=args.gamma, out_dir=args.out, jobs=args.jobs)
    validate_config(cfg)
    summary = run_experiment(cfg, progress=_progress(args))
    out = Path(args.out)
    quantiles = [float(q) for q in args.quantiles.split(",")]
    for algo in algos:
        files = [out / f"trace_{algo}_{s}.csv" for s in seeds]
        (out / f"quantiles_{algo}.csv").write_text(summarize_quantiles(files, quantiles))
    print(f"wrote traces and quantile summaries to {out}")
    if summary["divergence_rate"] > cfg.max_divergence_rate:
        return EX_DIVERGED
    return EX_OK


def _cmd_gen_data(args) -> int:
    if args.kind == "scalar":
        data = gen_scalar_mixture(args.n, seed=args.seed)
    else:
        data = gen_multivariate_mixture(args.n, args.components, args.dim,
                                        args.separation, seed=args.seed)
    fmt = "packed-binary" if args.out.endswith(".emds") else "csv"
    save_dataset(data, args.out, fmt=fmt)
    print(f"wrote {data.n}x{data.dim} dataset to {args.out} ({fmt})")
    return EX_OK


def _check_sampler() -> tuple[bool, str]:
    from itertools import combinations, product

    from .gmm import ScalarTwoGmm, ScalarTwoGmmParams
    data = gen_scalar_mixture(5, seed=7)
    model = ScalarTwoGmm.from_data(data)
    params = ScalarTwoGmmParams(mu=np.array([0.8, -0.9]))
    sbar = full_stats(model, data, params)
    worst = 0.0
    for batches in (list(product(range(5), repeat=2)),
                    [list(c) for c in combinations(range(5), 2)]):
        avg = np.mean([minibatch_stats(model, data, list(b), params) for b in batches],
                      axis=0)
        worst = max(worst, float(np.abs(avg - sbar).max()))
    rows = model.sbar_rows(data, None, params)
    pop_var = ((rows - sbar) ** 2).sum(axis=0) / 5
    wr = np.stack([minibatch_stats(model, data, list(b), params)
                   for b in product(range(5), repeat=2)])
    var = ((wr - sbar) ** 2).mean(axis=0)
    worst = max(worst, float(np.abs(var - pop_var / 2).max()))
    return worst <= 1e-12, f"max deviation {worst:.3e}"


def _check_equivalence() -> tuple[bool, str]:
    from .algorithms import StepSchedule, run_spider_em, run_spider_em_cv
    data = gen_multivariate_mixture(500, 12, 5, 4.0, seed=11)
    model = PooledGmm.from_data(12, data)
    s0 = init_random_responsibility(model, data, seed=3)
    sched = StepSchedule.constant(5e-3)
    kw = dict(metric_mode="none", snapshot_mode="every-update")
    tr_a = run_spider_em(model, data, s0, MinibatchSampler(25, 5), sched, 3, 20, **kw)
    tr_b = run_spider_em_cv(model, data, s0, MinibatchSampler(25, 5), sched, 3, 20, **kw)
    snaps_a, snaps_b = tr_a.snapshot_map(), tr_b.snapshot_map()
    worst = max(float(np.abs(snaps_a[key] - snaps_b[key]).max()) for key in snaps_a)
    return worst <= 1e-10, f"max |difference| {worst:.3e}"


def _check_gradient() -> tuple[bool, str]:
    from .core import fd_natural_jacobian, fd_objective_gradient
    data = gen_multivariate_mixture(120, 3, 2, 3.0, seed=2)
    model = PooledGmm.from_data(3, data)
    worst_rel, worst_asym = 0.0, 0.0
    for i in range(5):
        s = init_random_responsibility(model, data, seed=100 + i)
        grad = fd_objective_gradient(model, data, s)
        bmat, asym = fd_natural_jacobian(model, s)
        ref = bmat @ mean_field(model, data, s)
        worst_rel = max(worst_rel, float(np.linalg.norm(grad + ref) / np.linalg.norm(ref)))
        worst_asym = max(worst_asym, float(asym))
    ok = worst_rel <= 1e-3 and worst_asym <= 1e-4
    return ok, f"max relative error {worst_rel:.3e}, max asymmetry {worst_asym:.3e}"


_SUITES = {"sampler": _check_sampler, "equivalence": _check_equivalence,
           "gradient": _check_gradient}


def _cmd_check(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        ok, detail = _SUITES[name]()
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed |= not ok
    return EX_CHECK if failed else EX_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="emvr",
                                 description="statistic-space EM experiment harness")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("complexity", help="hitting-time scaling study")
    p.add_argument("--algo", default="spider-em")
    p.add_argument("--n", required=True, help="comma-separated problem sizes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--epsilon", type=float, default=2.5e-5)
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--max-epochs", type=int, default=500)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--out", default="complexity")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_complexity)

    p = sub.add_parser("compare", help="algorithm grid + quantile summary")
    p.add_argument("--algos", default="em,online-em,sem-vr,spider-em")
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--seeds", type=int, default=40)
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--components", type=int, default=12)
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--gamma", type=float, default=5e-3)
    p.add_argument("--kswitch", type=int, default=2)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--init-seed", type=int, default=0)
    p.add_argument("--quantiles", default="0.25,0.5,0.75")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="compare")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--kind", choices=("scalar", "multivariate"), default="scalar")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--components", type=int, default=12)
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("check", help="run built-in invariant suites")
    p.add_argument("--suite", choices=("sampler", "equivalence", "gradient", "all"),
                   default="all")
    p.set_defaults(fn=_cmd_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EX_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EX_CONFIG


if __name__ == "__main__":
    sys.exit(main())
