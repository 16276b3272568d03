"""Golden hashes of every optimizer's complete output.

Each case runs one small configuration and hashes (sha256) its every-update
snapshot sequence, its records without ``wall_ms``, its counters and monitor
counters, its status, hit, divergence position, inner lengths and final
statistics.  Any change to an optimizer's arithmetic, call order or
bookkeeping changes a hash, so a refactor of the update loop must leave all
of them as they are.  A change that alters a trajectory on purpose
regenerates them (run this file as a script to print the current values)
and says so in CHANGES.md.

The cases cover all eight algorithms; the corrected methods at a step
near 1, where the float order of a direction reaches the iterate;
warm-started FIEM, sEM-vr and SPIDER-EM through the harness with a batch
size that does not divide n; an epsilon hit in update mode for nested
methods; and divergences inside a
flat run, inside an inner loop, at a damped outer refresh and at a restart.
"""

import hashlib

import numpy as np
import pytest

from emvr import (MinibatchSampler, ScalarTwoGmm, ScalarTwoGmmParams,
                  StepSchedule, full_stats, run_em, run_fiem, run_iem,
                  run_online_em, run_sem_vr, run_spider_em, run_spider_em_cv,
                  run_spider_em_pl)
from emvr.data import gen_scalar_mixture
from emvr.harness import (ExperimentConfig, build_dataset, build_model,
                          initial_stats, run_single)

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
    "em": lambda m, d, s: run_em(m, d, s, 6, **EVERY),
    "online-em": lambda m, d, s: run_online_em(m, d, s, _smp(1), _gamma(0.3), 20,
                                               **EVERY),
    "online-em-inverse-sqrt": lambda m, d, s: run_online_em(
        m, d, s, _smp(1, b=7), StepSchedule.inverse_sqrt(0.5), 13, **UPDATE),
    "iem": lambda m, d, s: run_iem(m, d, s, _smp(2), None, 20, **EVERY),
    "fiem": lambda m, d, s: run_fiem(m, d, s, _smp(3), _smp(103), _gamma(0.2), 20,
                                     **EVERY),
    "sem-vr": lambda m, d, s: run_sem_vr(m, d, s, _smp(4), _gamma(0.2), 3, 5,
                                         **EVERY),
    "sem-vr-outer-gamma": lambda m, d, s: run_sem_vr(
        m, d, s, _smp(4), _gamma(0.2), 3, 5, outer_gamma=0.5, **UPDATE),
    "spider-em": lambda m, d, s: run_spider_em(m, d, s, _smp(5), _gamma(0.2), 3, 5,
                                               **EVERY),
    "spider-em-callback": lambda m, d, s: _with_callback(lambda cb: run_spider_em(
        m, d, s, _smp(5), _gamma(0.2), 2, 4, callback=cb, **UPDATE)),
    "spider-em-cv": lambda m, d, s: run_spider_em_cv(m, d, s, _smp(5), _gamma(0.2),
                                                     3, 5, **EVERY),
    "spider-em-pl": lambda m, d, s: run_spider_em_pl(
        m, d, s, _smp(6), _gamma(0.2), 4, 6, np.random.default_rng(6), **EVERY),
    # at a step near 1 a direction's last bits reach the iterate, so these
    # pin each corrected method's float order
    "fiem-large-step": lambda m, d, s: run_fiem(m, d, s, _smp(3), _smp(103), _gamma(0.9),
                                                20, **EVERY),
    "sem-vr-large-step": lambda m, d, s: run_sem_vr(m, d, s, _smp(4), _gamma(0.9), 3, 5,
                                                    **EVERY),
    "spider-em-large-step": lambda m, d, s: run_spider_em(m, d, s, _smp(5), _gamma(0.9),
                                                          3, 5, **EVERY),
    "spider-em-cv-large-step": lambda m, d, s: run_spider_em_cv(
        m, d, s, _smp(5), _gamma(0.9), 3, 5, **EVERY),
    # epsilon hits in update mode, after at least one refresh
    "spider-em-hit": lambda m, d, s: run_spider_em(
        m, d, s, _smp(7), _gamma(0.2), 20, 5, epsilon=1e-6, **UPDATE),
    "spider-em-pl-hit": lambda m, d, s: run_spider_em_pl(
        m, d, s, _smp(7), _gamma(0.2), 40, 5, np.random.default_rng(7),
        epsilon=1e-5, **UPDATE),
    # divergences: a flat run, inside an inner loop (both found by the next
    # M-step, metrics off), at a damped outer refresh and at a restart
    "online-em-diverged": lambda m, d, s: run_online_em(
        m, d, s, _smp(0, b=2), _gamma(25.0), 400, metric_mode="none", **EVERY),
    "spider-em-diverged-inner": lambda m, d, s: run_spider_em(
        m, d, s, _smp(8), _gamma(4.0), 3, 6, metric_mode="none", **EVERY),
    "spider-em-pl-diverged": lambda m, d, s: run_spider_em_pl(
        m, d, s, _smp(8), _gamma(4.0), 3, 6, np.random.default_rng(8),
        metric_mode="none", **EVERY),
    "spider-em-pl-diverged-restart": lambda m, d, s: run_spider_em_pl(
        m, d, s, _smp(2), _gamma(2.5), 3, 4, np.random.default_rng(2),
        metric_mode="none", **EVERY),
    "sem-vr-diverged-refresh": lambda m, d, s: run_sem_vr(
        m, d, s, _smp(9), _gamma(0.05), 3, 4, outer_gamma=40.0, **EVERY),
    "sem-vr-diverged-refresh-quiet": lambda m, d, s: run_sem_vr(
        m, d, s, _smp(9), _gamma(0.05), 3, 4, outer_gamma=40.0, metric_mode="none",
        **EVERY),
    # warm starts through the harness; b = 4 and b = 7 do not divide n = 30
    "warm-fiem": lambda m, d, s: _harness("fiem"),
    "warm-sem-vr": lambda m, d, s: _harness("sem-vr", metric="update"),
    "warm-spider-em": lambda m, d, s: _harness("spider-em", batch_size=7),
    "warm-spider-em-pl": lambda m, d, s: _harness("spider-em-pl", batch_size=7,
                                                  k_in=4, k_out=3, epochs=None),
}

GOLDEN = {
    'em': '3a953297e49544a3217243a6821f556f1bc157029aeb4e2e59a970795ce2a497',
    'fiem': '1afea337e4d0b3ca598ca4fa3b9743d343f4d11b158b2507856dd8ccd9b1ba18',
    'fiem-large-step': 'c5e948b97c441bfebf258d3155bcc83df500366061c16990ecaea28cdb86029a',
    'iem': '91a842d08a0b2e3cc64318a4c3c2a37f206655b9bdaff25f68979af5e48feec8',
    'online-em': '4fe80d754ed6087dd2cd0087722fc45d0bcd6e0b286e45e52f4937a50c4d4887',
    'online-em-diverged': 'f7dd9290097089ca3e4fc3061cccf475d43c5cf366542c800ef742818252f23f',
    'online-em-inverse-sqrt': '801b3583254304b5221c6da463b9e1f39c0022c5a8300042b33d78e9c397fea9',
    'sem-vr': '5433e1a5e008b50d73f41d9b7454fe9202026c7519202009163f7d16d64d906c',
    'sem-vr-diverged-refresh': '7b16ca45eefec1e1f21b14208c46c1d89983ea6425e489f26bbcf27c6609978c',
    'sem-vr-diverged-refresh-quiet': '49979b9cd950b35a2cef910e7f28cf9e5ed958813137522bf302c628718da3f0',
    'sem-vr-large-step': '796cf80963170fa0a1df017f0f3564f94e8cb384b3e85e18779c8a41c5393add',
    'sem-vr-outer-gamma': 'c19327e32bdc7f30ffe7f2b79c0707310472c8f69b2bafc91b51950863463f5b',
    'spider-em': 'efb379d447b3bf1732c35bc3049d22e42ace8f4c3e2ec6f739fa061aefd8da71',
    'spider-em-callback': '130d7c9dc860eada06c0ac493844b46f3b5b7f7dbd2c0e9ec33ac59e03047508',
    'spider-em-cv': 'a6ad75059bfebaffe6c87528538a74d26663d4c71ae6f758388c473058316480',
    'spider-em-cv-large-step': '20db6d4447b3474b5fac1514c2a600b09c3b3d35fb736547cb8d7d77813840c4',
    'spider-em-diverged-inner': '04b7e1d032be5dfbc894bf1038212355dbe3686e49f16bbdf515de40bd00cfc9',
    'spider-em-hit': 'ed3cf82a97523f1376c5429f960a7ec79018a0246aad6e1d762a8efc521d2ac4',
    'spider-em-large-step': '2ae3738d6d81d6196672878e1dcc8c958eb458b5c8f8e0fafefb47e4f02736a7',
    'spider-em-pl': '53328bcfda6c270955d2a88c662593c045f31fcf71de3c4a348e7d1994e7c630',
    'spider-em-pl-diverged': '3ace9912c2eb71480fe03bcf04765827ee5db846f6490f4c91c592e239e6376a',
    'spider-em-pl-diverged-restart': 'd0cf18ef0a8ddc2e0010a04872cff9176fcd00a5ea731b161e97f8171a0b23a9',
    'spider-em-pl-hit': '31b889414df39a792b31db7f9b489048f799e851880aee824ce807c421b28f2d',
    'warm-fiem': '874fccff2c776e611e0ed0b7868a7ca20e8aa5f70d5e7ea558848fac19367fcf',
    'warm-sem-vr': '6ffe2f5f82d58c42b889ec28d702965ece84607c1ba338c94598a025ce1ee6d0',
    'warm-spider-em': '978dffc127910b8f9e0d6c8828e44ad25660d628b8001153e1f6ffe39e873f2c',
    'warm-spider-em-pl': '36b88c90ac7cbdf8e87a7d092a1b0e8f39b0d1bc4a9ae525bd1841545a6427d6',
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
    for name in ("sem-vr-diverged-refresh", "sem-vr-diverged-refresh-quiet",
                 "spider-em-pl-diverged-restart"):
        assert tr[name].status == "diverged" and tr[name].diverged_at[1] == 0
    for name in ("warm-fiem", "warm-sem-vr", "warm-spider-em", "warm-spider-em-pl"):
        assert tr[name].algorithm.startswith("warmup+")
        assert tr[name].status == "completed"
    assert tr["spider-em-callback"].callback_log


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {digest(run_case(name))!r},")
