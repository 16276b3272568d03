"""Acceptance suite.

One test per acceptance criterion, in order, each printing a PASS/FAIL
line with the measured quantities (run pytest with ``-s`` to see them on
passing tests).  The variance-reduction bundle runs at the reduced
8-seed / 40-epoch scale by default; set ``EMVR_ACCEPTANCE_FULL=1`` for
the 40-seed / 150-epoch protocol.
"""

import os
from itertools import combinations, product

import numpy as np
import pytest

from emvr import (WITHOUT_REPLACEMENT, MinibatchSampler, PooledGmm,
                  ScalarTwoGmm, ScalarTwoGmmParams, StepSchedule,
                  fd_natural_jacobian, fd_objective_gradient, full_stats,
                  mean_field, minibatch_stats, run_em, run_fiem, run_iem,
                  run_online_em, run_sem_vr, run_spider_em, run_spider_em_cv,
                  run_spider_em_pl)
from emvr.data import gen_multivariate_mixture, gen_scalar_mixture
from emvr.gmm import init_random_responsibility
from emvr.harness import (ExperimentConfig, build_dataset, build_model,
                          estimate_complexity, expected_totals, initial_stats,
                          run_single, seed_offset, trace_to_csv)

FULL = os.environ.get("EMVR_ACCEPTANCE_FULL") == "1"


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# 1. hitting-time scaling law on the synthetic scalar mixture


def test_01_scaling_law():
    cfg = ExperimentConfig(algorithms=("spider-em",), gamma=0.01)
    n_grid = [1_000, 10_000, 100_000]
    est = estimate_complexity(cfg, 2.5e-5, n_grid, trials=20)
    # medians are taken over hitting trials; they are only meaningful if
    # most trials hit within the cap
    assert all(r["hit_rate"] >= 0.5 for r in est.rows)
    kopt = np.array([r["kopt_median"] for r in est.rows])
    kce = np.array([r["kce_median"] for r in est.rows])
    spread = kopt.max() / kopt.min()
    slope = np.polyfit(np.log(n_grid), np.log(kce), 1)[0]
    ok = spread < 2.0 and 0.35 <= slope <= 0.65
    hit = [r["hit_rate"] for r in est.rows]
    _report("scaling-law", ok,
            f"median updates-to-hit {kopt.tolist()} (spread x{spread:.2f}), "
            f"log-log slope of conditional-expectation cost {slope:.3f}, "
            f"hit rates {hit}")
    assert spread < 2.0
    assert 0.35 <= slope <= 0.65


# ---------------------------------------------------------------------------
# 2. the two nested-loop formulations generate the same sequence


def test_02_algorithm_equivalence():
    data = gen_multivariate_mixture(500, 12, 5, 4.0, seed=11)
    model = PooledGmm.from_data(12, data)
    s0 = init_random_responsibility(model, data, seed=3)
    sched = StepSchedule.constant(5e-3)
    kw = dict(metric_mode="none", snapshot_mode="every-update")
    a = run_spider_em(model, data, s0, MinibatchSampler(25, 5), sched, 3, 20, **kw)
    b = run_spider_em_cv(model, data, s0, MinibatchSampler(25, 5), sched, 3, 20, **kw)
    sa, sb = a.snapshot_map(), b.snapshot_map()
    assert sorted(sa) == sorted(sb)
    worst = max(float(np.abs(sa[key] - sb[key]).max()) for key in sa)
    _report("algorithm-equivalence", worst <= 1e-10,
            f"max |difference| over {len(sa)} iterates = {worst:.3e}")
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 3. full-batch collapse: b=n, unit step reduces every method to batch EM


def test_03_full_batch_collapse():
    data = gen_scalar_mixture(40, seed=5)
    model = ScalarTwoGmm.from_data(data)
    s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
    em = run_em(model, data, s0, 20, snapshot_mode="every-update", metric_mode="none")
    em_map = {k: s for _, _, k, s in em.snapshots if k >= 0}
    unit = StepSchedule.constant(1.0)

    def sampler():
        return MinibatchSampler(data.n, seed=0, mode=WITHOUT_REPLACEMENT)

    worst = 0.0
    online = run_online_em(model, data, s0, sampler(), unit, 20,
                           snapshot_mode="every-update", metric_mode="none")
    for _, _, k, s in online.snapshots:
        if k >= 0:
            worst = max(worst, float(np.abs(s - em_map[k]).max()))
    for runner in (run_sem_vr, run_spider_em):
        tr = runner(model, data, s0, sampler(), unit, 4, 5,
                    snapshot_mode="every-update", metric_mode="none")
        for _, t, k, s in tr.snapshots:
            if k < 0:
                continue
            tau = (t - 1) * 5 + k
            target = s0 if tau == 0 else em_map[tau - 1]
            worst = max(worst, float(np.abs(s - target).max()))
    _report("full-batch-collapse", worst <= 1e-12,
            f"max |difference from batch EM| = {worst:.3e} over 20 iterations x 3 methods")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 4. exact sampler identities by enumeration (n=5, b=2)


def test_04_sampler_enumeration():
    data = gen_scalar_mixture(5, seed=7)
    model = ScalarTwoGmm.from_data(data)
    params = ScalarTwoGmmParams(mu=np.array([0.8, -0.9]))
    target = full_stats(model, data, params)
    worst_mean = 0.0
    for batches in (list(product(range(5), repeat=2)),
                    [list(c) for c in combinations(range(5), 2)]):
        avg = np.mean([minibatch_stats(model, data, list(b), params) for b in batches],
                      axis=0)
        worst_mean = max(worst_mean, float(np.abs(avg - target).max()))
    rows = model.sbar_rows(data, None, params)
    pop_var = ((rows - target) ** 2).sum(axis=0) / data.n
    wr = np.stack([minibatch_stats(model, data, list(b), params)
                   for b in product(range(5), repeat=2)])
    var_dev = float(np.abs(((wr - target) ** 2).mean(axis=0) - pop_var / 2).max())
    ok = worst_mean <= 1e-12 and var_dev <= 1e-12
    _report("sampler-enumeration", ok,
            f"unbiasedness deviation {worst_mean:.3e}, variance-identity "
            f"deviation {var_dev:.3e}")
    assert worst_mean <= 1e-12
    assert var_dev <= 1e-12


# ---------------------------------------------------------------------------
# 5. gradient identity: objective gradient = -(refit natural Jacobian) x mean field


def test_05_gradient_identity():
    fixtures = [(gen_multivariate_mixture(80, 3, 2, 3.0, seed=7), 3),
                (gen_multivariate_mixture(500, 12, 5, 4.0, seed=11), 12)]
    worst_rel, worst_asym = 0.0, 0.0
    count = 0
    for data, g in fixtures:
        model = PooledGmm.from_data(g, data)
        for i in range(5):
            s = init_random_responsibility(model, data, seed=500 + count)
            grad = fd_objective_gradient(model, data, s)
            bmat, asym = fd_natural_jacobian(model, s)
            ref = bmat @ mean_field(model, data, s)
            worst_rel = max(worst_rel,
                            float(np.linalg.norm(grad + ref) / np.linalg.norm(ref)))
            worst_asym = max(worst_asym, float(asym))
            count += 1
    ok = worst_rel <= 1e-3 and worst_asym <= 1e-4
    _report("gradient-identity", ok,
            f"max relative error {worst_rel:.3e} over {count} states, "
            f"max raw Jacobian asymmetry {worst_asym:.3e}")
    assert worst_rel <= 1e-3
    assert worst_asym <= 1e-4


# ---------------------------------------------------------------------------
# 6. batch EM on the separated fixture: monotone, converged, fixed point


@pytest.fixture(scope="module")
def separated_fixture():
    data = gen_multivariate_mixture(5000, 12, 20, 6.0, seed=0)
    model = PooledGmm.from_data(12, data)
    return model, data


def test_06_em_monotonicity_and_fixed_point(separated_fixture):
    model, data = separated_fixture
    s0 = init_random_responsibility(model, data, seed=0)
    trace = run_em(model, data, s0, 100, metric_mode="update")
    w = trace.column("objective")
    max_increase = float(np.diff(w).max())
    terminal_h_sq = trace.final_record().h_sq
    residual = float(np.linalg.norm(
        full_stats(model, data, model.m_step(trace.s_final)) - trace.s_final))
    ok = max_increase <= 1e-10 and terminal_h_sq <= 1e-10 and residual <= 1e-8
    _report("em-monotone-fixed-point", ok,
            f"max objective increase {max_increase:.3e}, terminal squared mean-field "
            f"norm {terminal_h_sq:.3e}, fixed-point residual {residual:.3e}")
    assert max_increase <= 1e-10
    assert terminal_h_sq <= 1e-10
    assert residual <= 1e-8


# ---------------------------------------------------------------------------
# 8. oracle accounting equals the closed forms, integer-exactly


def test_08_oracle_accounting():
    rng = np.random.default_rng(2024)
    data = gen_scalar_mixture(36, seed=8)
    model = ScalarTwoGmm.from_data(data)
    s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
    sched = StepSchedule.constant(0.2)
    checked = 0
    for trial in range(5):
        b = int(rng.integers(1, 13))
        k_max = int(rng.integers(1, 40))
        k_in = int(rng.integers(2, 9))
        k_out = int(rng.integers(1, 7))
        runs = {
            "em": lambda: run_em(model, data, s0, k_max, metric_mode="none"),
            "online-em": lambda: run_online_em(
                model, data, s0, MinibatchSampler(b, trial), sched, k_max,
                metric_mode="none"),
            "iem": lambda: run_iem(
                model, data, s0, MinibatchSampler(b, trial), None, k_max,
                metric_mode="none"),
            "fiem": lambda: run_fiem(
                model, data, s0, MinibatchSampler(b, trial),
                MinibatchSampler(b, trial + 100), sched, k_max, metric_mode="none"),
            "sem-vr": lambda: run_sem_vr(
                model, data, s0, MinibatchSampler(b, trial), sched, k_out, k_in,
                metric_mode="none"),
            "spider-em": lambda: run_spider_em(
                model, data, s0, MinibatchSampler(b, trial), sched, k_out, k_in,
                metric_mode="none"),
            "spider-em-cv": lambda: run_spider_em_cv(
                model, data, s0, MinibatchSampler(b, trial), sched, k_out, k_in,
                metric_mode="none"),
            "spider-em-pl": lambda: run_spider_em_pl(
                model, data, s0, MinibatchSampler(b, trial), sched, k_out, k_in,
                np.random.default_rng(trial), metric_mode="none"),
        }
        for algo, go in runs.items():
            trace = go()
            expect = expected_totals(algo, data.n, b=b, k_in=k_in, k_out=k_out,
                                     k_max=k_max, xi=trace.xi)
            got = (trace.counters.ce, trace.counters.mstep)
            assert got == expect, f"{algo} b={b} k_max={k_max} k_in={k_in} " \
                                  f"k_out={k_out}: {got} != {expect}"
            checked += 1
    _report("oracle-accounting", True,
            f"{checked} (algorithm, config) pairs match the closed forms exactly")


# ---------------------------------------------------------------------------
# 7 & 9. variance-reduction comparison and affine-constraint conservation


VR_ALGOS = ("spider-em", "online-em", "iem", "fiem")


@pytest.fixture(scope="module")
def variance_reduction_runs():
    seeds = tuple(range(40 if FULL else 8))
    epochs = 150 if FULL else 40
    cfg = ExperimentConfig(model_kind="gmm", components=12, dim=20,
                           data_kind="multivariate-mixture", n=5000, separation=6.0,
                           data_seed=0, init_kind="random-responsibility", init_seed=0,
                           algorithms=VR_ALGOS, seeds=seeds, batch_size=100,
                           epochs=epochs, warm_epochs=2, gamma=5e-3,
                           snapshot="checkpoint")
    data = build_dataset(cfg)
    model = build_model(cfg, data)
    s0 = initial_stats(cfg, model, data)
    traces = {algo: [run_single(cfg, algo, seed, model, data, s0) for seed in seeds]
              for algo in VR_ALGOS}
    return {"cfg": cfg, "data": data, "traces": traces, "epochs": epochs}


def _h_at_epoch(trace, epoch):
    for r in trace.records:
        if abs(r.epoch - epoch) < 1e-9:
            return r.h_sq
    raise AssertionError(f"no record at epoch {epoch}")


def test_07_variance_reduction(variance_reduction_runs):
    traces = variance_reduction_runs["traces"]
    assert all(t.status == "completed" for ts in traces.values() for t in ts)
    h20 = {a: np.array([_h_at_epoch(t, 20.0) for t in ts]) for a, ts in traces.items()}
    iqr = {a: float(np.percentile(v, 75) - np.percentile(v, 25)) for a, v in h20.items()}
    term = {a: float(np.median([t.final_record().h_sq for t in ts]))
            for a, ts in traces.items()}
    ok = (iqr["spider-em"] < iqr["online-em"]
          and term["spider-em"] <= term["iem"]
          and term["spider-em"] <= term["fiem"])
    scale = "40 seeds x 150 epochs" if FULL else "8 seeds x 40 epochs (reduced)"
    _report("variance-reduction", ok,
            f"{scale}; IQR at epoch 20: spider {iqr['spider-em']:.3e} vs online "
            f"{iqr['online-em']:.3e}; median terminal squared mean field: spider "
            f"{term['spider-em']:.3e}, iem {term['iem']:.3e}, fiem {term['fiem']:.3e}")
    assert iqr["spider-em"] < iqr["online-em"]
    assert term["spider-em"] <= term["iem"]
    assert term["spider-em"] <= term["fiem"]


def _plain_displacements(cfg, data, seed, steps):
    """Moment-sum displacement after each of the first ``steps`` plain
    stochastic-approximation updates of one seed's run, replayed from the
    batch stream the harness gives that seed.  Entry 0 is the exact refit
    the run starts from."""
    ybar = data.values.mean(axis=0)
    sampler = MinibatchSampler(cfg.batch_size,
                               np.random.SeedSequence([seed + seed_offset()]),
                               mode=cfg.sampling)
    out = [np.zeros_like(ybar)]
    for _ in range(steps):
        shift = data.values[sampler.sample(data.n)].mean(axis=0) - ybar
        out.append((1.0 - cfg.gamma) * out[-1] + cfg.gamma * shift)
    return out


def test_09_affine_constraint_conservation(variance_reduction_runs):
    # NOTE: responsibilities sum to one per sample, so the mass blocks of
    # every statistic average sum to 1 and the moment-sum displacement
    # D(s) = sum_j moments_j(s) - ybar depends on s alone.  Every update
    # s' = s + gamma (S_hat - s) therefore obeys
    # D(s') = (1 - gamma) D(s) + gamma D(S_hat), where D(S_hat) = 0 for a
    # full refit, a store mean, FIEM's corrected direction and the SPIDER
    # path integral, and D(S_hat) = mean(y[batch]) - ybar for a plain
    # minibatch average.  So the mass sum must stay at 1, and D of every
    # recorded iterate is predicted exactly from the data and the replayed
    # batch stream:
    #   online-em, warmup: the recursion from D = 0 at the initial refit;
    #   iem, fiem:         0 (fiem restarts from its store mean);
    #   spider-em:         (1 - gamma)**tau * D(handoff), tau = (t-1) k_in + k,
    #                      one relaxation per inner step and per refresh.
    # Predictions are keyed on snapshot labels, not records: a warm-started
    # run keeps the main phase's tau=0 snapshot but drops its record.
    cfg = variance_reduction_runs["cfg"]
    data = variance_reduction_runs["data"]
    traces = variance_reduction_runs["traces"]
    ybar = data.values.mean(axis=0)
    g = cfg.components
    warm_steps = cfg.warm_epochs * max(1, round(data.n / cfg.batch_size))
    worst_mass, worst_gap = {}, {}
    for algo, ts in traces.items():
        dm, gap = 0.0, 0.0
        for seed, trace in zip(cfg.seeds, ts):
            steps = max([warm_steps] + [k for phase, _, k, _ in trace.snapshots
                                        if phase in ("online-em", "warmup")])
            plain = _plain_displacements(cfg, data, seed, steps)
            for phase, t, k, s in trace.snapshots:
                if phase in ("online-em", "warmup"):
                    predicted = plain[k]
                elif phase in ("iem", "fiem"):
                    predicted = np.zeros_like(ybar)
                elif phase == "spider-em":
                    tau = (t - 1) * trace.k_in + k
                    predicted = (1.0 - cfg.gamma) ** tau * plain[warm_steps]
                else:
                    raise AssertionError(f"no displacement law for phase {phase!r}")
                masses, moments = s[:g], s[g:].reshape(g, -1)
                dm = max(dm, abs(float(masses.sum()) - 1.0))
                displacement = moments.sum(axis=0) - ybar
                gap = max(gap, float(np.abs(displacement - predicted).max()))
            # a run that diverges between checkpoints keeps the offending
            # state only as s_final
            dm = max(dm, abs(float(trace.s_final[:g].sum()) - 1.0))
        worst_mass[algo], worst_gap[algo] = dm, gap
    ok = max(worst_mass.values()) <= 1e-9 and max(worst_gap.values()) <= 1e-9
    detail = "; ".join(f"{a}: mass {worst_mass[a]:.1e}, moment-sum gap to the "
                       f"predicted displacement {worst_gap[a]:.1e}" for a in traces)
    _report("affine-conservation", ok, detail)
    assert max(worst_mass.values()) <= 1e-9, detail
    assert max(worst_gap.values()) <= 1e-9, detail


# ---------------------------------------------------------------------------
# 10. repeating runs with the same seeds reproduces every numeric field


def _csv_without_wall(path):
    lines = path.read_text().splitlines()
    return [",".join(v for i, v in enumerate(line.split(",")) if i != 8)
            for line in lines]


def test_10_determinism(tmp_path):
    # hitting-time study twice
    cfg = ExperimentConfig(algorithms=("spider-em",), gamma=0.01)
    a = estimate_complexity(cfg, 2.5e-5, [1000], trials=3)
    b = estimate_complexity(cfg, 2.5e-5, [1000], trials=3)
    same_complexity = a.summary_csv() == b.summary_csv() and a.trials_csv() == b.trials_csv()

    # one variance-reduction-style run twice, through the CSV writer
    cfg7 = ExperimentConfig(model_kind="gmm", components=3, dim=2,
                            data_kind="multivariate-mixture", n=400, separation=4.0,
                            data_seed=0, init_kind="random-responsibility",
                            algorithms=("spider-em",), batch_size=20, epochs=6,
                            warm_epochs=2, gamma=5e-3, snapshot="checkpoint")
    outs = []
    for rep in range(2):
        data = build_dataset(cfg7)
        model = build_model(cfg7, data)
        s0 = initial_stats(cfg7, model, data)
        trace = run_single(cfg7, "spider-em", 0, model, data, s0)
        path = tmp_path / f"rep{rep}.csv"
        trace_to_csv(trace, path)
        outs.append(_csv_without_wall(path))
    same_trace = outs[0] == outs[1]

    # the equivalence-check sequence twice, elementwise
    data = gen_multivariate_mixture(200, 3, 2, 4.0, seed=1)
    model = PooledGmm.from_data(3, data)
    s0 = init_random_responsibility(model, data, seed=2)
    runs = [run_spider_em(model, data, s0, MinibatchSampler(10, 3),
                          StepSchedule.constant(5e-3), 2, 5,
                          snapshot_mode="every-update") for _ in range(2)]
    same_sequence = all(np.array_equal(sa, sb) for (_, _, _, sa), (_, _, _, sb)
                        in zip(runs[0].snapshots, runs[1].snapshots))

    ok = same_complexity and same_trace and same_sequence
    _report("determinism", ok,
            f"complexity CSVs identical: {same_complexity}; trace CSVs identical "
            f"modulo wall time: {same_trace}; sequences bitwise equal: {same_sequence}")
    assert same_complexity
    assert same_trace
    assert same_sequence
