"""The two-part pass: a large pooled E-step runs its second half on a helper
thread and keeps the bits of the one-thread pass.

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

from emvr import (GmmParams, PooledGmm, core, gen_multivariate_mixture,  # noqa: E402
                  harness, minibatch_stats)
from emvr.core import SPLIT_ROWS, SPLIT_WORK, _split_point, _split_rows  # noqa: E402
from emvr.gmm import _gmm_pass  # noqa: E402


MID = 34 * SPLIT_ROWS   # the split row of a 70 000-row pass


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


def bitwise_mismatches(out_dir) -> list[str]:
    """Each output of a split pass, of a pass that writes its arrays in one part,
    or trace of a pooled run, whose bits differ from the one-thread pass; the
    empty list when all agree."""
    bad = []
    # at n = 50 003 a split at the unaligned half, row 25 001, moves gemm bits
    for n, g, p in ((70_000, 12, 20), (50_003, 12, 20), (50_001, 3, 50)):
        assert g * n >= SPLIT_WORK
        data = gen_multivariate_mixture(n, g, p, 6.0, seed=n + p)
        rng = np.random.default_rng(p)
        params = GmmParams(weights=rng.dirichlet(np.ones(g)),
                           means=data.values[rng.choice(n, g, replace=False)],
                           cov_chol=np.linalg.cholesky(data.centred_moment))
        model = PooledGmm.from_data(g, data)
        split = _outputs(model, data, params)
        with core._helper_lock:   # as while another thread splits: one part, here
            one_part = _outputs(model, data, params)
        core._split_passes = False
        serial = _outputs(model, data, params)
        core._split_passes = True
        bad += [f"n={n} g={g} p={p}: {key} {how}" for key in serial
                for how, got in (("split", split), ("one part", one_part))
                if got[key].tobytes() != serial[key].tobytes()]
    if "emvr-pass-helper" not in [t.name for t in threading.enumerate()]:
        bad.append("no pass was split")
    # pool workers fork from a process whose passes split, and keep theirs whole
    serial = _traces(out_dir, 1)
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
