"""Results do not depend on the BLAS thread count.

The kernels are written for one BLAS thread per call, but nothing forces
one: a user's environment may give OpenBLAS more.  Each check runs in a
fresh child process, since OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when it
loads, and compares the bytes of every start, final iterate and recorded
metric under one and two threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

CHILD = """
import ctypes, hashlib, json
import numpy as np
from emvr import MinibatchSampler, PooledGmm, StepSchedule, run_algorithm
from emvr.data import gen_multivariate_mixture
from emvr.gmm import init_kmeans


def blas_threads():
    # numpy's OpenBLAS, as loaded into this process
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line and "numpy" in line})
    for path in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), sym, None)
            if fn is not None:
                return fn()
    return None


def digest(*arrays):
    return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()


data = gen_multivariate_mixture(5000, 12, 20, 6.0, seed=0)
model = PooledGmm.from_data(12, data)
s0 = init_kmeans(model, data, 0)
out = {"threads": blas_threads(), "kmeans": digest(s0)}
for name, length in (("spider-em", dict(k_in=21, k_out=2)), ("fiem", dict(k_max=40)),
                     ("online-em", dict(k_max=40)), ("iem", dict(k_max=40))):
    trace = run_algorithm(name, model, data, s0, MinibatchSampler(100, 1),
                          StepSchedule.constant(5e-3),
                          lambda tag: np.random.SeedSequence([1, tag]),
                          metric_mode="update", **length)
    out[name] = [trace.status, digest(trace.s_final, trace.column("h_sq"),
                                      trace.column("objective"))]
print(json.dumps(out))
"""


def _child(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env.pop("EM_SEED_OFFSET", None)
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_starts_and_runs_are_bitwise_under_one_and_two_blas_threads():
    one, two = _child(1), _child(2)
    assert one.pop("threads") in (1, None) and two.pop("threads") in (2, None)
    assert all(status == "completed" for status, _ in list(one.values())[1:])
    assert one == two
