"""The two-part pass: a large pooled E-step, and each Lloyd step of a large
k-means start, runs its second half on a helper thread and keeps the bits of
the one-thread run.

The bitwise checks run in a child process with one BLAS thread, the setting
the contract is stated for: with several BLAS threads OpenBLAS partitions a
product by its own rule, and the one-thread pass is then not the reference.
``python tests/test_split.py`` runs them and prints each mismatch on a line.
"""

import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

if __name__ == "__main__":
    # OpenBLAS reads its thread count when numpy first loads it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from emvr import (Dataset, GmmParams, PooledGmm, ScalarTwoGmm, ScalarTwoGmmParams,  # noqa: E402
                  core, full_stats, gen_multivariate_mixture, gen_scalar_mixture, gmm,
                  harness, minibatch_stats)
from emvr.core import SPLIT_ROWS, SPLIT_WORK, _split_point, _split_rows  # noqa: E402
from emvr.gmm import _gmm_pass, init_kmeans  # noqa: E402


MID = 34 * SPLIT_ROWS   # the split row of a 70 000-row pass
# at n = 50 003 a split at the unaligned half, row 25 001, moves gemm bits;
# p = 51 gives the k-means start's two column parts unequal sizes
PASS_SHAPES = ((70_000, 12, 20), (50_003, 12, 20), (50_001, 3, 50))
KMEANS_SHAPES = ((70_000, 12, 20), (50_003, 12, 20), (50_001, 3, 51))


def _parts(m, mid):
    """(lo, hi, thread name) of each part ``_split_rows`` runs."""
    seen = []

    def block(lo, hi):
        seen.append((lo, hi, threading.current_thread().name))

    _split_rows(block, m, mid)
    return sorted(seen)


def test_a_small_pass_runs_whole_on_the_caller():
    assert _split_point(70_000, SPLIT_WORK - 1) == 0
    # a half under SPLIT_ROWS rows leaves no aligned split point
    assert _split_point(2 * SPLIT_ROWS - 1, 10 * SPLIT_WORK) == 0


def test_a_large_pass_splits_at_an_aligned_row():
    me = threading.current_thread().name
    for m, mid in ((70_000, MID), (50_001, 24 * SPLIT_ROWS), (2 * SPLIT_ROWS, SPLIT_ROWS)):
        assert _split_point(m, SPLIT_WORK) == mid
        assert _parts(m, mid) == [(0, mid, me), (mid, m, "emvr-pass-helper")]
    # one persistent helper
    assert [t.name for t in threading.enumerate()].count("emvr-pass-helper") == 1


def test_harness_workers_keep_passes_on_one_thread(monkeypatch):
    monkeypatch.setattr(core, "_split_passes", False)
    assert _split_point(70_000, SPLIT_WORK) == 0


def _overflow_on_helper(lo, hi):
    if lo > 0:
        np.exp(np.full(2, 1000.0))


def test_a_helper_warning_reaches_the_caller():
    # pytest turns RuntimeWarning into an error; the helper's is raised here
    with pytest.raises(RuntimeWarning, match="overflow"):
        _split_rows(_overflow_on_helper, 70_000, MID)


def test_errstate_covers_both_parts():
    with np.errstate(over="ignore"):
        _split_rows(_overflow_on_helper, 70_000, MID)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _split_rows(_overflow_on_helper, 70_000, MID)


def test_a_helper_exception_is_raised_and_the_helper_serves_on():
    def fail_on_helper(lo, hi):
        if lo > 0:
            raise KeyError("second part")

    with pytest.raises(KeyError, match="second part"):
        _split_rows(fail_on_helper, 70_000, MID)
    assert _parts(70_000, MID) == [(0, MID, threading.current_thread().name),
                                   (MID, 70_000, "emvr-pass-helper")]


def test_concurrent_callers_each_get_their_own_parts_done():
    # one helper: a caller that finds it busy runs its pass whole, never
    # returning before the helper's part of its own pass is written
    errors = []

    def caller():
        for _ in range(40):
            out = np.zeros(4 * SPLIT_ROWS)

            def block(lo, hi):
                if lo > 0:
                    time.sleep(1e-4)
                out[lo:hi] += 1.0

            _split_rows(block, out.size, out.size // 2)
            if not (out == 1.0).all():
                errors.append(out)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors


def _outputs(model, data, params):
    """Every pooled output of a full pass, and of a full sorted batch."""
    _, post, lse = _gmm_pass(params, data, None, want_lse=True)
    sbar, nll = model.checkpoint_stats(data, params)
    batch = minibatch_stats(model, data, np.random.default_rng(0).permutation(data.n), params)
    return {"post": post, "lse": lse, "checkpoint": sbar, "nll": np.float64(nll),
            "checkpoint_no_nll": model.checkpoint_stats(data, params, want_nll=False)[0],
            "store_rows": model.store_rows(data, None, params), "sorted_batch": batch}


def _job_on_one_thread(args, run_one_job=harness._run_one_job):
    """A pool job that fails in a worker whose passes would split."""
    if core._split_passes:
        raise RuntimeError("a pool worker splits its passes")
    return run_one_job(args)


def _traces(out_dir, jobs):
    """The CSV rows that ``run_experiment`` writes, less the wall_ms column."""
    cfg = harness.ExperimentConfig(
        model_kind="gmm", components=4, dim=3, data_kind="multivariate-mixture",
        n=40_000, init_kind="kmeans", algorithms=("em", "online-em"), seeds=(0,),
        batch_size=2000, epochs=2, jobs=jobs, out_dir=str(Path(out_dir) / f"jobs{jobs}"))
    harness.run_experiment(cfg)
    w = harness.CSV_COLUMNS.index("wall_ms")
    return {path.name: [row[:w] + row[w + 1:] for row in
                        (line.split(",") for line in path.read_text().splitlines())]
            for path in Path(cfg.out_dir).glob("*.csv")}


def _three_ways(outputs, label) -> list[str]:
    """Each output of ``outputs()`` whose bits, split or in one part, differ
    from the one-thread run's."""
    split = outputs()
    with core._helper_lock:   # as while another thread splits: one part, here
        one_part = outputs()
    core._split_passes = False
    try:
        serial = outputs()
    finally:
        core._split_passes = True
    return [f"{label}: {key} {how}" for key in serial
            for how, got in (("split", split), ("one part", one_part))
            if got[key].tobytes() != serial[key].tobytes()]


def _kmeans_starts(model, data):
    return {f"init_kmeans seed={seed}": init_kmeans(model, data, seed) for seed in (0, 1)}


def _on_helper(run):
    """``run()``'s result, and the qualified names of the blocks that the helper
    thread ran meanwhile."""
    seen, real = [], core._run_part

    def spy(ctx, block, lo, hi):
        seen.append(block.__qualname__)
        return real(ctx, block, lo, hi)

    core._run_part = spy
    # a waiting helper looked up _run_part before this: pass it one part first
    _split_rows(lambda lo, hi: None, 2, 1)
    seen.clear()
    try:
        return run(), seen
    finally:
        core._run_part = real


def test_scalar_passes_never_split():
    # measured: splitting a 100 000-row scalar pass (about 350 us) was 10% faster
    # alone but 6-13% slower in the hitting-time study, as the hand-off costs more
    data = gen_scalar_mixture(100_000, seed=0)
    model = ScalarTwoGmm.from_data(data)
    params = ScalarTwoGmmParams(mu=np.array([1.0, -1.0]))
    batch = np.arange(data.n)
    _, blocks = _on_helper(lambda: (model.checkpoint_stats(data, params),
                                    model.checkpoint_stats(data, params, want_nll=False),
                                    full_stats(model, data, params),
                                    model.batch_mean(data, None, params),
                                    model.batch_mean(data, batch, params)))
    assert blocks == []
    # the spy sees a part the helper runs
    _, blocks = _on_helper(lambda: _parts(70_000, MID))
    assert blocks == ["_parts.<locals>.block"]


def bitwise_mismatches(out_dir) -> list[str]:
    """Each output of a split pass or k-means start, of one that writes its arrays
    in one part, or trace of a pooled run, whose bits differ from the one-thread
    run's; the empty list when all agree."""
    bad = []
    for n, g, p in sorted(set(PASS_SHAPES + KMEANS_SHAPES)):
        assert g * n >= SPLIT_WORK
        data = gen_multivariate_mixture(n, g, p, 6.0, seed=n + p)
        model = PooledGmm.from_data(g, data)
        if (n, g, p) in PASS_SHAPES:
            rng = np.random.default_rng(p)
            params = GmmParams(weights=rng.dirichlet(np.ones(g)),
                               means=data.values[rng.choice(n, g, replace=False)],
                               cov_chol=np.linalg.cholesky(data.centred_moment))
            bad += _three_ways(lambda: _outputs(model, data, params), f"n={n} g={g} p={p}")
        if (n, g, p) in KMEANS_SHAPES:
            bad += _three_ways(lambda: _kmeans_starts(model, data), f"n={n} g={g} p={p}")
    if "emvr-pass-helper" not in [t.name for t in threading.enumerate()]:
        bad.append("no pass was split")
    # half the rows repeat the first, so two starting centres coincide and one
    # cluster is left empty (as in test_gmm's test_empty_cluster_keeps_its_centre)
    rows = np.random.default_rng(1).standard_normal((35_000, 2))
    data = Dataset(np.vstack([rows, np.repeat(rows[:1], 35_000, axis=0)]))
    model = PooledGmm.from_data(3, data)
    counts, real = [], gmm._nearest_center

    def spy(xc, centers, center):
        assign = real(xc, centers, center)
        counts.append(np.bincount(assign, minlength=3))
        return assign

    gmm._nearest_center = spy
    try:
        bad += _three_ways(lambda: {"init_kmeans": init_kmeans(model, data, 0)},
                           "empty cluster")
    finally:
        gmm._nearest_center = real
    if not any((c == 0).any() for c in counts):
        bad.append("no k-means step left a cluster empty")
    # pool workers fork from a process whose passes split, and keep theirs whole;
    # the jobs=1 run splits its k-means start and its passes
    serial, blocks = _on_helper(lambda: _traces(out_dir, 1))
    for name in ("_nearest_center", "init_kmeans", "_gmm_pass"):
        if not any(q.startswith(name + ".") for q in blocks):
            bad.append(f"the helper ran no part of {name} in the jobs=1 run")
    harness._run_one_job = _job_on_one_thread
    if _traces(out_dir, 2) != serial or len(serial) != 3:
        bad.append(f"jobs=2 traces differ from jobs=1 ({sorted(serial)})")
    return bad


def test_split_passes_keep_the_bits_of_one_thread():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("EM_SEED_OFFSET", None)
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "", done.stdout


if __name__ == "__main__":
    import warnings
    warnings.simplefilter("error", RuntimeWarning)
    with tempfile.TemporaryDirectory() as tmp:
        for line in bitwise_mismatches(tmp):
            print(line)
