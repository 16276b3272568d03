"""What a process loads: importing emvr and running the scalar mixture load
numpy and nothing heavier; scipy's LAPACK, which only the pooled model's
covariance factor needs, loads when the first ``PooledGmm`` is built, and a
pooled grid loads it in the parent before its worker processes fork.

Each check runs in a fresh child process: the test process has long since
loaded scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCALAR_THEN_POOLED = """
import json, sys
import numpy as np
import emvr, emvr.cli, emvr.harness
from emvr import (MinibatchSampler, PooledGmm, ScalarTwoGmm, ScalarTwoGmmParams,
                  StepSchedule, full_stats, gen_scalar_mixture, run_algorithm)

def loaded():
    return [m for m in ("scipy", "scipy.linalg", "concurrent.futures") if m in sys.modules]

data = gen_scalar_mixture(200, seed=0)
model = ScalarTwoGmm.from_data(data)
s0 = full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))
trace = run_algorithm("spider-em", model, data, s0, MinibatchSampler(4, 0),
                      StepSchedule.constant(0.1), k_in=10, k_out=2)
scalar = loaded()
PooledGmm(2, 1, np.eye(1))
print(json.dumps({"status": trace.status, "after_scalar": scalar,
                  "lapack_after_pooled": "scipy.linalg.lapack" in sys.modules}))
"""

POOLED_GRID = """
import json, os, sys
from pathlib import Path
from emvr import harness

out = Path(sys.argv[1])

def entry(args, run=harness._run_one_job):
    # runs in a worker, forked from this process: note what its first job finds
    path = out / f"entry-{os.getpid()}.json"
    if not path.exists():
        path.write_text(json.dumps("scipy.linalg.lapack" in sys.modules))
    return run(args)

harness._run_one_job = entry
before = "scipy.linalg.lapack" in sys.modules
cfg = harness.ExperimentConfig(
    model_kind="gmm", components=2, dim=2, data_kind="multivariate-mixture", n=200,
    init_kind="random-responsibility", algorithms=("em",), seeds=(0, 1, 2, 3), k_max=2,
    jobs=2, out_dir=str(out / "runs"))
summary = harness.run_experiment(cfg)
entries = {p.name: json.loads(p.read_text()) for p in out.glob("entry-*.json")}
print(json.dumps({"before": before, "parent": os.getpid(), "entries": entries,
                  "statuses": sorted(set(summary["statuses"].values()))}))
"""


def _child(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("EM_SEED_OFFSET", None)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_scalar_runs_load_no_scipy_and_a_pooled_model_loads_lapack():
    got = _child(SCALAR_THEN_POOLED)
    assert got["status"] == "completed"
    assert got["after_scalar"] == []
    assert got["lapack_after_pooled"]


def test_pooled_grid_workers_fork_with_lapack_loaded(tmp_path):
    got = _child(POOLED_GRID, str(tmp_path))
    assert not got["before"]
    assert got["statuses"] == ["completed"]
    # one entry file per worker that ran a job; each ran in a forked worker
    assert got["entries"]
    assert f"entry-{got['parent']}.json" not in got["entries"]
    assert all(got["entries"].values()), got["entries"]
