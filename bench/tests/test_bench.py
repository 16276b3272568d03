"""Fast tests of the benchmark itself.

    python3 -m pytest bench/tests -q

They check that the reference computations agree with `emvr` on tiny
inputs, that a corrupted iterate or counter fails the workload checks,
and that the command prints every metric of BENCHMARK.json with its unit.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import GmmEm70k, GmmVr, ScalarHitting  # noqa: E402

from emvr import PooledGmm, ScalarTwoGmm, full_stats  # noqa: E402
from emvr.data import gen_multivariate_mixture, gen_scalar_mixture  # noqa: E402
from emvr.gmm import init_random_responsibility  # noqa: E402
from emvr.harness import expected_totals  # noqa: E402

TINY = {
    "gmm-vr": lambda: GmmVr(n=200, g=3, p=2, batch_size=20, epochs=4, warm_epochs=2,
                            gamma=0.05),
    "gmm-em-70k": lambda: GmmEm70k(n=300, g=3, p=2, k_max=4, epsilon=1.0),
    "scalar-hitting": lambda: ScalarHitting(n=400, gamma=0.05, epsilon=1e-3, trials=2),
}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_rounds():
    out = {}
    for name, make in TINY.items():
        wl = make()
        prep = wl.setup(7)
        out[name] = (wl, prep, wl.run_round(prep))
    return out


# ---------------------------------------------------------------------------
# the reference agrees with emvr


def test_pooled_reference_matches_library():
    data = gen_multivariate_mixture(120, 3, 4, 3.0, seed=2)
    model = PooledGmm.from_data(3, data)
    s = init_random_responsibility(model, data, seed=5)
    s = 0.5 * s + 0.5 * full_stats(model, data, model.m_step(s))
    params = model.m_step(s)
    sbar, nll = ref.pooled_gmm_pass(data.values, s, 3)
    np.testing.assert_allclose(sbar, full_stats(model, data, params), rtol=1e-12, atol=1e-15)
    assert nll == pytest.approx(model.penalized_nll(data, params), rel=1e-12)


def test_scalar_reference_matches_library():
    data = gen_scalar_mixture(150, seed=4)
    model = ScalarTwoGmm.from_data(data)
    s = np.array([0.4, 0.6, 0.3, -0.5])
    params = model.m_step(s)
    sbar, nll = ref.scalar_two_pass(data.values, s)
    np.testing.assert_allclose(sbar, full_stats(model, data, params), rtol=1e-12, atol=1e-15)
    assert nll == pytest.approx(model.penalized_nll(data, params), rel=1e-12)


def test_closed_forms_match_library_accounting():
    for algo in ("online-em", "iem", "fiem", "spider-em"):
        ce, ms, _, _ = ref.minibatch_counters(algo, 1000, 50, 6, 0)
        per = 1000 // 50
        kw = dict(k_max=6 * per) if algo != "spider-em" else dict(k_in=per + 1, k_out=3)
        assert (ce, ms) == expected_totals(algo, 1000, b=50, **kw)
    assert ref.em_counters(1000, 7) == expected_totals("em", 1000, k_max=7)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(tiny_rounds, name):
    wl, prep, ops = tiny_rounds[name]
    assert not any(wl.failed(op) for op in ops)
    assert wl.check(prep, ops) == []
    assert wl.fingerprint(wl.run_round(prep)) == wl.fingerprint(ops)


# ---------------------------------------------------------------------------
# a corrupted output fails the check


def _corrupt(tiny_rounds, name, edit):
    wl, prep, ops = tiny_rounds[name]
    bad = copy.deepcopy(ops)
    edit(bad[0].trace)
    return wl.check(prep, bad)


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_counter_fails(tiny_rounds, name):
    def edit(tr):
        tr.counters.ce += 1
    assert any("closed form" in e for e in _corrupt(tiny_rounds, name, edit))


@pytest.mark.parametrize("name", ["gmm-vr", "gmm-em-70k"])
def test_corrupted_final_iterate_fails(tiny_rounds, name):
    g = tiny_rounds[name][0].g

    def edit(tr):
        tr.s_final[g] += 1e-3
    assert any("reference" in e for e in _corrupt(tiny_rounds, name, edit))


def test_hitting_iterate_above_epsilon_fails(tiny_rounds):
    prep = tiny_rounds["scalar-hitting"][1]

    def edit(tr):
        tr.s_final = prep.s0.copy()
    assert any("above epsilon" in e for e in _corrupt(tiny_rounds, "scalar-hitting", edit))


def test_rising_objective_fails(tiny_rounds):
    def edit(tr):
        tr.records[2].objective = tr.records[1].objective + 1e-6
    assert any("objective rises" in e for e in _corrupt(tiny_rounds, "gmm-em-70k", edit))


def test_mass_off_simplex_fails(tiny_rounds):
    def edit(tr):
        tr.snapshots[1][3][0] += 1e-6
    assert any("mass blocks" in e for e in _corrupt(tiny_rounds, "gmm-vr", edit))


def test_bad_status_fails(tiny_rounds):
    def edit(tr):
        tr.status = "diverged"
    assert any("status" in e for e in _corrupt(tiny_rounds, "gmm-vr", edit))


# ---------------------------------------------------------------------------
# the command's output


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_output_lists_every_metric(name, trace):
    spec = _spec()
    result = run.measure(TINY[name](), 3, 0.0, bool(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spec_names_the_workloads_and_command():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} == {"gmm-vr", "gmm-em-70k",
                                                     "scalar-hitting"}
    assert spec["command"] == ["python3", "bench/run.py"]


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gmm-vr",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
