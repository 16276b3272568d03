"""Golden hashes of every optimizer's complete output.

Each case runs one small configuration and hashes (sha256) its every-update
snapshot sequence, its records without ``wall_ms``, its counters and monitor
counters, its status, hit, divergence position, inner lengths and final
statistics.  Any change to an optimizer's arithmetic, call order or
bookkeeping changes a hash, so a refactor of the update loop must leave all
of them as they are.  A change that alters a trajectory on purpose
regenerates them and says so in CHANGES.md: run this file as a script to
print each moved case as ``name: old -> new``, then the current values.

The cases cover all eight algorithms; the corrected methods at a step
near 1, where the float order of a direction reaches the iterate;
warm-started FIEM, sEM-vr and SPIDER-EM through the harness with a batch
size that does not divide n, a warm phase that diverges and a callback
across both phases of a warm start; an epsilon hit in update mode for nested
methods; and divergences inside a
flat run, inside an inner loop, at a damped outer refresh and at a restart.
A divergence's reason is checked beside the hashes, which leave it out.

These cases use the scalar mixture, whose kernel makes no BLAS call.  The
pooled set (``POOLED_CASES``) pins ``PooledGmm`` at n = 300, g = 4, p = 3
from a k-means start: every method of ``ESTIMATORS``, a warm start, a
divergence, and EM at n = 33 000, where a pass splits over two threads.  A
pooled pass runs through OpenBLAS ``gemm``, whose rounding may depend on the
CPU's kernel path, so its expected values are stored (``golden_pooled.json``,
shortest round-trip floats) and compared with a tolerance: statuses,
positions and counters exactly; objectives within ``POOLED_RTOL`` of the
largest stored objective, and ``sqrt(h_sq)`` and the final statistic within
``POOLED_RTOL`` of the final statistic's largest entry.  The script prints
one hash per pooled case beside the stored one, so a change can tell bitwise
from moved within the tolerance; ``--write-pooled`` regenerates the file.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from emvr import (MinibatchSampler, PooledGmm, ScalarTwoGmm, ScalarTwoGmmParams,
                  StepSchedule, full_stats, init_kmeans, run_algorithm)
from emvr.algorithms import ESTIMATORS
from emvr.data import gen_multivariate_mixture, gen_scalar_mixture
from emvr.harness import (ExperimentConfig, build_dataset, build_model,
                          initial_stats, run_experiment, run_single)

EVERY = dict(snapshot_mode="every-update")
UPDATE = dict(snapshot_mode="every-update", metric_mode="update",
              compute_objective=False)


def _fixture(n=30, seed=11):
    data = gen_scalar_mixture(n, seed=seed)
    model = ScalarTwoGmm.from_data(data)
    s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
    return model, data, s0


def _smp(seed, b=4):
    return MinibatchSampler(b, seed)


def _harness(algo, **kw):
    fields = dict(n=30, batch_size=4, epochs=6, warm_epochs=2, gamma=0.2,
                  snapshot="every-update", algorithms=(algo,))
    fields.update(kw)
    cfg = ExperimentConfig(**fields)
    data = build_dataset(cfg)
    model = build_model(cfg, data)
    return run_single(cfg, algo, 3, model, data, initial_stats(cfg, model, data))


def _with_callback(go):
    """Run ``go(callback)``; the callback's arguments join the hash."""
    seen = []

    def cb(phase, t, k, s, view):
        seen.append((phase, t, k, s.tobytes(), sorted(view.items())))

    trace = go(cb)
    trace.callback_log = seen
    return trace


def _gamma(g):
    return StepSchedule.constant(g)


CASES = {
    "em": lambda m, d, s: run_algorithm("em", m, d, s, k_max=6, **EVERY),
    "online-em": lambda m, d, s: run_algorithm("online-em", m, d, s, _smp(1), _gamma(0.3),
                                               k_max=20, **EVERY),
    "online-em-inverse-sqrt": lambda m, d, s: run_algorithm(
        "online-em", m, d, s, _smp(1, b=7), StepSchedule.inverse_sqrt(0.5), k_max=13,
        **UPDATE),
    "iem": lambda m, d, s: run_algorithm("iem", m, d, s, _smp(2), k_max=20, **EVERY),
    "fiem": lambda m, d, s: run_algorithm("fiem", m, d, s, _smp(3), _gamma(0.2),
                                          lambda tag: 103, k_max=20, **EVERY),
    "sem-vr": lambda m, d, s: run_algorithm("sem-vr", m, d, s, _smp(4), _gamma(0.2),
                                            k_out=3, k_in=5, **EVERY),
    "sem-vr-outer-gamma": lambda m, d, s: run_algorithm("sem-vr", m, d, s, _smp(4),
                                                        _gamma(0.2), k_out=3, k_in=5,
                                                        outer_gamma=0.5, **UPDATE),
    "spider-em": lambda m, d, s: run_algorithm("spider-em", m, d, s, _smp(5), _gamma(0.2),
                                               k_out=3, k_in=5, **EVERY),
    "spider-em-callback": lambda m, d, s: _with_callback(lambda cb: run_algorithm(
        "spider-em", m, d, s, _smp(5), _gamma(0.2), k_out=2, k_in=4, callback=cb, **UPDATE)),
    "spider-em-cv": lambda m, d, s: run_algorithm("spider-em-cv", m, d, s, _smp(5),
                                                  _gamma(0.2), k_out=3, k_in=5, **EVERY),
    "spider-em-pl": lambda m, d, s: run_algorithm("spider-em-pl", m, d, s, _smp(6),
                                                  _gamma(0.2), lambda tag: 6, k_out=4,
                                                  k_in=6, **EVERY),
    # at a step near 1 a direction's last bits reach the iterate, so these
    # pin each corrected method's float order
    "fiem-large-step": lambda m, d, s: run_algorithm("fiem", m, d, s, _smp(3), _gamma(0.9),
                                                     lambda tag: 103, k_max=20, **EVERY),
    "sem-vr-large-step": lambda m, d, s: run_algorithm("sem-vr", m, d, s, _smp(4),
                                                       _gamma(0.9), k_out=3, k_in=5,
                                                       **EVERY),
    "spider-em-large-step": lambda m, d, s: run_algorithm(
        "spider-em", m, d, s, _smp(5), _gamma(0.9), k_out=3, k_in=5, **EVERY),
    "spider-em-cv-large-step": lambda m, d, s: run_algorithm(
        "spider-em-cv", m, d, s, _smp(5), _gamma(0.9), k_out=3, k_in=5, **EVERY),
    # epsilon hits in update mode, after at least one refresh
    "spider-em-hit": lambda m, d, s: run_algorithm("spider-em", m, d, s, _smp(7),
                                                   _gamma(0.2), k_out=20, k_in=5,
                                                   epsilon=1e-6, **UPDATE),
    "spider-em-pl-hit": lambda m, d, s: run_algorithm("spider-em-pl", m, d, s, _smp(7),
                                                      _gamma(0.2), lambda tag: 7, k_out=40,
                                                      k_in=5, epsilon=1e-5, **UPDATE),
    # divergences: a flat run, inside an inner loop (both found by the next
    # M-step, metrics off), at a damped outer refresh and at a restart
    "online-em-diverged": lambda m, d, s: run_algorithm("online-em", m, d, s, _smp(0, b=2),
                                                        _gamma(25.0), k_max=400,
                                                        metric_mode="none", **EVERY),
    "spider-em-diverged-inner": lambda m, d, s: run_algorithm(
        "spider-em", m, d, s, _smp(8), _gamma(4.0), k_out=3, k_in=6, metric_mode="none",
        **EVERY),
    "spider-em-pl-diverged": lambda m, d, s: run_algorithm(
        "spider-em-pl", m, d, s, _smp(8), _gamma(4.0), lambda tag: 8, k_out=3, k_in=6,
        metric_mode="none", **EVERY),
    "spider-em-pl-diverged-restart": lambda m, d, s: run_algorithm(
        "spider-em-pl", m, d, s, _smp(2), _gamma(2.5), lambda tag: 2, k_out=3, k_in=4,
        metric_mode="none", **EVERY),
    "sem-vr-diverged-refresh": lambda m, d, s: run_algorithm(
        "sem-vr", m, d, s, _smp(9), _gamma(0.05), k_out=3, k_in=4, outer_gamma=40.0,
        **EVERY),
    "sem-vr-diverged-refresh-quiet": lambda m, d, s: run_algorithm(
        "sem-vr", m, d, s, _smp(9), _gamma(0.05), k_out=3, k_in=4, outer_gamma=40.0,
        metric_mode="none", **EVERY),
    # warm starts through the harness; b = 4 and b = 7 do not divide n = 30
    "warm-fiem": lambda m, d, s: _harness("fiem"),
    "warm-sem-vr": lambda m, d, s: _harness("sem-vr", metric="update"),
    "warm-spider-em": lambda m, d, s: _harness("spider-em", batch_size=7),
    "warm-spider-em-pl": lambda m, d, s: _harness("spider-em-pl", batch_size=7,
                                                  k_in=4, k_out=3, epochs=None),
    # a warm phase that diverges ends the run before the main method starts
    "warm-diverged": lambda m, d, s: _harness("spider-em", batch_size=2, gamma=25.0,
                                              metric="none"),
    # the callback sees both phases of a warm-started run
    "warm-callback": lambda m, d, s: _with_callback(lambda cb: run_algorithm(
        "spider-em", m, d, s, _smp(5), _gamma(0.2), None, k_in=4, k_out=2,
        warm_epochs=1, callback=cb, **UPDATE)),
}

GOLDEN = {
    'em': '14f3a1c84b3ad0c462e397c2a28c505a6326f7fda0722b44fa84c2f1bbc6fb25',
    'fiem': '62e3515b031fe272a25a8cc79d75497cfedec8ab8e678e758a1281a901dc8fe2',
    'fiem-large-step': 'b9d8563fd04413f880393405681875f27f59b2a1e5359b116189dbcf57516c39',
    'iem': '8cb8a95911b157e22b4df11456d1cd8e71f61277df80fc6c15aece721574a019',
    'online-em': 'd80cf20b9792d90d963a7bb05e32b63ae0258c80e0d795f2d026ed862289e715',
    'online-em-diverged': '318484483c2793d43422c6187fa86c3113ac6b07b8b7d66d7de61e71cc7ab113',
    'online-em-inverse-sqrt': '1ac7b561e38c9a8d2c7ec3dfde69c4bd745d39de59b6d062a315f58a619fa5cc',
    'sem-vr': '166d61ee4f364999fb11ec3a1762a538316c896d2dcee0a0b0eb3ef7cddf382d',
    'sem-vr-diverged-refresh': '6544279aaff7975ddc529c3a6ded72bcfc1329f190fc51eea2b144e8e539f58f',
    'sem-vr-diverged-refresh-quiet': 'f7193899b01e8d9ebc832f3056b2aecdc8ebf833ff23cfb107e46fc6b7288e61',
    'sem-vr-large-step': '731318ec36afa2b8e5c65d216f048fb294ae0b7be0501479ff530003cba0d269',
    'sem-vr-outer-gamma': '609a1e13b203d906dcfb430844fc2087af11a0d84d08df057d8e8e200c9f23b8',
    'spider-em': 'c6d94919726a32d03a45751c1ecdecf14959481c119e2ded3282fd18b522dfe3',
    'spider-em-callback': 'b5e0aeffbb73e09a22df0415114a9d831d583b8d85f0f9912f3880536b4621be',
    'spider-em-cv': '9e708f09153eeddd455887c298367ca4ec3ed7211a878ff8841726962919320d',
    'spider-em-cv-large-step': '01b0f9e0de6633a533e8a82b78e06e92ceae159a4f139ecc93ee0a5d9e9286fd',
    'spider-em-diverged-inner': 'f3d311355cb7e6a5d3e76deedb71987576bbc27e560ad8de959d5f9661a34e17',
    'spider-em-hit': '827eae72dad618ec4e37895c8809398b8900126348f82332079ea577aec96296',
    'spider-em-large-step': 'd6e1c3b661973f4fe2f46a7982816738721045e9efd680491354b38bfd4851e7',
    'spider-em-pl': 'c45adb1edac0b067687b272eb87193a61df6a6487200546644d9f62d6e1cada1',
    'spider-em-pl-diverged': '921e8abe5f418f97b00f29ff18e00cb86fce85636b951155cfd472b244d33ef6',
    'spider-em-pl-diverged-restart': '760f6d56233aa7e8608da202af0ae61fae28a714b3528a0975b2e8c10a37bd56',
    'spider-em-pl-hit': '17d7aa713e07f70dfea1bdf35f4d7b08f02d8489353b8713d29654aaabb9add0',
    'warm-callback': '1535720017dce1000119f805cb37a9fa9562fe68fce3578501a879ce05712a30',
    'warm-diverged': 'c1f1a3f4f65fb788b512a1d72644665f02dd98bc15792c1e0e87ebe6373091ab',
    'warm-fiem': '702681e9954f0a0edc4c0f5674715921581beb7344b3c232d3b06415903aafe9',
    'warm-sem-vr': '1f15d3bd0e07e444bba85ae3effea0ad08a06e16a1dced985b025196d4dd662e',
    'warm-spider-em': '19ae8643dfafe1fd683936bb5d2c1b20ba499245988d7060787e55d41440df73',
    'warm-spider-em-pl': 'e3645f4db7cb1877f3c6277d1d103945267fae733174c5b37831b5b4e4dd5212',
}


def digest(trace) -> str:
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode())

    put(trace.algorithm, trace.n, trace.batch_size, trace.k_in, trace.k_out,
        trace.k_max)
    for phase, t, k, s in trace.snapshots:
        put(phase, int(t), int(k))
        h.update(np.ascontiguousarray(s, dtype=np.float64).tobytes())
    for r in trace.records:
        put(r.phase, int(r.t), int(r.k), int(r.tau), float(r.epoch), float(r.objective),
            float(r.h_sq), int(r.ce), int(r.mstep))
    put(trace.counters.ce, trace.counters.mstep, trace.monitor.ce, trace.monitor.mstep,
        trace.status, trace.hit, trace.diverged_at, [int(x) for x in trace.xi])
    h.update(np.asarray(trace.s_final, dtype=np.float64).tobytes())
    for entry in getattr(trace, "callback_log", ()):
        put(*entry)
    return h.hexdigest()


def run_case(name):
    model, data, s0 = _fixture()
    return CASES[name](model, data, s0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hash(name, monkeypatch):
    monkeypatch.delenv("EM_SEED_OFFSET", raising=False)
    assert digest(run_case(name)) == GOLDEN[name]


def test_cases_reach_their_outcomes(monkeypatch):
    # the hashes only guard the paths these cases actually take
    monkeypatch.delenv("EM_SEED_OFFSET", raising=False)
    tr = {name: run_case(name) for name in CASES}
    for name in ("spider-em-hit", "spider-em-pl-hit"):
        assert tr[name].status == "hit-eps" and tr[name].hit[0] >= 2
    for name in ("online-em-diverged", "spider-em-diverged-inner",
                 "spider-em-pl-diverged"):
        assert tr[name].status == "diverged" and tr[name].diverged_at[1] > 0
    for name in ("sem-vr-diverged-refresh", "sem-vr-diverged-refresh-quiet"):
        assert tr[name].status == "diverged" and tr[name].diverged_at[1] == 0
    # the restart refit at the end of an outer loop fails; the position is
    # that loop's last inner update, whose iterate the restart kept
    restart = tr["spider-em-pl-diverged-restart"]
    assert restart.status == "diverged"
    assert restart.diverged_at[:2] == (len(restart.xi), restart.xi[-1])
    for name in ("warm-fiem", "warm-sem-vr", "warm-spider-em", "warm-spider-em-pl"):
        assert tr[name].algorithm.startswith("warmup+")
        assert tr[name].status == "completed"
    assert tr["spider-em-callback"].callback_log
    # the warm phase diverges, so the trace stays online EM's
    diverged = tr["warm-diverged"]
    assert diverged.algorithm == "online-em" and diverged.status == "diverged"
    assert diverged.diverged_at[1] > 0
    warm = tr["warm-callback"]
    assert warm.algorithm == "warmup+spider-em" and warm.status == "completed"
    phases = [entry[0] for entry in warm.callback_log]
    assert phases == sorted(phases, key=lambda p: p != "warmup")
    assert {"warmup", "spider-em"} == set(phases)


def test_divergence_is_reported_at_the_last_iterate(monkeypatch):
    # the position of s_final, whichever step or pass finds the divergence
    monkeypatch.delenv("EM_SEED_OFFSET", raising=False)
    checked = 0
    for name in CASES:
        trace = run_case(name)
        if trace.status == "diverged" and np.isfinite(trace.s_final).all():
            snap = trace.snapshot_map()[trace.diverged_at[:2]]
            assert snap.tobytes() == trace.s_final.tobytes(), name
            checked += 1
    assert checked >= 5


def test_divergence_reasons(tmp_path, monkeypatch):
    # the trace keeps the violation tag and the manifest appends it to the status
    monkeypatch.delenv("EM_SEED_OFFSET", raising=False)
    refresh = run_case("sem-vr-diverged-refresh")
    assert (refresh.status, refresh.diverged_reason) == ("diverged", "empty component")
    cfg = ExperimentConfig(n=30, batch_size=2, epochs=6, warm_epochs=2, gamma=25.0,
                           metric="none", snapshot="every-update",
                           algorithms=("spider-em",), seeds=(3,), out_dir=str(tmp_path))
    trace = run_experiment(cfg)["traces"][("spider-em", 3)]
    assert digest(trace) == GOLDEN["warm-diverged"]
    assert trace.diverged_reason == "empty component"
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert "trace_spider-em_3.csv = diverged (empty component)" in manifest


# ---------------------------------------------------------------------------
# the pooled set

POOLED_FILE = Path(__file__).with_name("golden_pooled.json")
POOLED_RTOL = 1e-12


def _pooled_fixture(n=300):
    data = gen_multivariate_mixture(n, 4, 3, 4.0, seed=5)
    model = PooledGmm.from_data(4, data)
    return model, data, init_kmeans(model, data, seed=0)


def _b10(seed):
    return MinibatchSampler(10, seed)


# b = 10 at n = 300: 30 updates an epoch, three epochs
POOLED_CASES = {
    "em": lambda m, d, s: run_algorithm("em", m, d, s, k_max=4),
    "online-em": lambda m, d, s: run_algorithm("online-em", m, d, s, _b10(1), _gamma(0.05),
                                               k_max=90),
    "iem": lambda m, d, s: run_algorithm("iem", m, d, s, _b10(2), k_max=90),
    "fiem": lambda m, d, s: run_algorithm("fiem", m, d, s, _b10(3), _gamma(0.05),
                                          lambda tag: 103, k_max=90),
    "sem-vr": lambda m, d, s: run_algorithm("sem-vr", m, d, s, _b10(4), _gamma(0.05),
                                            k_out=3, k_in=31),
    "spider-em": lambda m, d, s: run_algorithm("spider-em", m, d, s, _b10(5), _gamma(0.05),
                                               k_out=3, k_in=31),
    "spider-em-cv": lambda m, d, s: run_algorithm("spider-em-cv", m, d, s, _b10(5),
                                                  _gamma(0.05), k_out=3, k_in=31),
    "spider-em-pl": lambda m, d, s: run_algorithm("spider-em-pl", m, d, s, _b10(6),
                                                  _gamma(0.05), lambda tag: 6, k_out=3,
                                                  k_in=31),
    "warm-spider-em": lambda m, d, s: run_algorithm("spider-em", m, d, s, _b10(7),
                                                    _gamma(0.05), k_out=2, k_in=31,
                                                    warm_epochs=1),
    "online-em-diverged": lambda m, d, s: run_algorithm("online-em", m, d, s,
                                                        MinibatchSampler(2, 8), _gamma(3.0),
                                                        k_max=90),
    "em-split": lambda m, d, s: run_algorithm("em", *_pooled_fixture(33_000), k_max=3),
}


def run_pooled_case(name):
    return POOLED_CASES[name](*_pooled_fixture())


def pooled_values(trace) -> dict:
    """What the pooled set stores of a run: exact fields, then float lists."""
    return {
        "hash": digest(trace), "status": trace.status, "hit": trace.hit,
        "diverged_at": trace.diverged_at, "xi": [int(x) for x in trace.xi],
        "counters": [trace.counters.ce, trace.counters.mstep, trace.monitor.ce,
                     trace.monitor.mstep],
        "records": [[r.phase, int(r.t), int(r.k), int(r.tau), float(r.epoch), int(r.ce),
                     int(r.mstep)] for r in trace.records],
        "W": [float(r.objective) for r in trace.records],
        "sqrt_h_sq": [math.sqrt(r.h_sq) for r in trace.records],
        "s_final": [float(v) for v in trace.s_final],
    }


FLOATS = ("W", "sqrt_h_sq", "s_final")


def pooled_deviation(got: dict, want: dict) -> float:
    """Largest float deviation of ``got`` from ``want``, in units of the largest
    stored objective for objectives and of the largest entry of the final
    statistic for the rest (``h_sq`` measures a difference of statistics);
    nan where their shapes or nan patterns differ."""
    worst = 0.0
    for key in FLOATS:
        a, b = np.array(got[key], dtype=float), np.array(want[key], dtype=float)
        if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
            return math.nan
        scale = np.nanmax(np.abs(want["W" if key == "W" else "s_final"]), initial=0.0)
        finite = ~np.isnan(b)
        if finite.any():
            worst = max(worst, float(np.abs(a[finite] - b[finite]).max()) / (scale or 1.0))
    return worst


def _json(values):
    # tuples become lists, as they read back
    return json.loads(json.dumps(values))


@pytest.fixture(scope="module")
def pooled_expected():
    return json.loads(POOLED_FILE.read_text())


def test_pooled_cases_are_all_stored(pooled_expected):
    assert sorted(pooled_expected) == sorted(POOLED_CASES)
    assert set(ESTIMATORS) <= set(POOLED_CASES)


@pytest.mark.parametrize("name", sorted(POOLED_CASES))
def test_pooled_golden(name, pooled_expected, monkeypatch):
    monkeypatch.delenv("EM_SEED_OFFSET", raising=False)
    got, want = _json(pooled_values(run_pooled_case(name))), pooled_expected[name]
    for key in want:
        if key not in FLOATS + ("hash",):
            assert got[key] == want[key], key
    assert pooled_deviation(got, want) <= POOLED_RTOL


def test_pooled_cases_reach_their_outcomes(pooled_expected):
    assert pooled_expected["online-em-diverged"]["status"] == "diverged"
    assert pooled_expected["warm-spider-em"]["records"][-1][0] == "spider-em"
    assert all(case["status"] == "completed" for name, case in pooled_expected.items()
               if name != "online-em-diverged")


if __name__ == "__main__":
    # exits 1 when a scalar hash or a pooled case moved; 0 after --write-pooled
    current = {name: digest(run_case(name)) for name in sorted(CASES)}
    moved = [name for name, value in current.items() if value != GOLDEN.get(name)]
    for name in moved:
        print(f"{name}: {GOLDEN.get(name)} -> {current[name]}")
    for name, value in current.items():
        print(f"    {name!r}: {value!r},")
    pooled = {name: _json(pooled_values(run_pooled_case(name))) for name in sorted(POOLED_CASES)}
    stored = json.loads(POOLED_FILE.read_text()) if POOLED_FILE.exists() else {}
    for name, values in pooled.items():
        old = stored.get(name)
        state = ("new" if old is None else "bitwise" if old["hash"] == values["hash"]
                 else f"moved {pooled_deviation(values, old):.2e} (stored {old['hash']})")
        print(f"pooled {name}: {values['hash']} {state}")
        if state != "bitwise":
            moved.append(f"pooled {name}")
    if "--write-pooled" in sys.argv[1:]:
        POOLED_FILE.write_text(json.dumps(pooled, indent=1) + "\n")
    elif moved:
        sys.exit(1)
