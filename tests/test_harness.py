import errno
import os
import struct
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy

from emvr import Dataset, cli
from emvr import data as data_module
from emvr import harness
from emvr.cli import main as cli_main
from emvr.harness import (ConfigError, ExperimentConfig,
                          build_dataset, build_model, canonical_config,
                          config_hash, estimate_complexity,
                          expected_totals, initial_stats, parse_config,
                          read_trace_csv, run_experiment, run_single,
                          summarize_quantiles, trace_to_csv)

GOOD_CONFIG = """
[model]
kind = scalar2

[data]
kind = scalar-mixture
n = 64
seed = 3

[run]
algorithms = online-em, spider-em
seeds = 0 1
batch_size = 8
epochs = 4
warm_epochs = 0
metric = epoch
out_dir = {out}

[steps]
kind = constant
gamma = 0.1
"""


class TestConfigParsing:
    def test_round_trip_fields(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path))
        assert cfg.algorithms == ("online-em", "spider-em")
        assert cfg.seeds == (0, 1)
        assert cfg.batch_size == 8
        assert cfg.epochs == 4

    def test_every_key_round_trips(self):
        # every key of every section, each set away from its default
        text = """
[model]
kind = gmm
components = 3
dim = 2
weights = 0.3 0.7
variance = 2.5
[data]
kind = file
n = 500
seed = 4
means = 1.5 -1.5
separation = 3.0
path = points.csv
format = packed-binary
[init]
kind = kmeans
seed = 5
means = 0.1 0.2
[run]
algorithms = online-em, spider-em
seeds = 1, 2
batch_size = 8
k_in = 4
k_out = 3
k_max = 9
epochs = 6
epsilon = 1e-4
warm_epochs = 2
sampling = without-replacement
metric = update
snapshot = checkpoint
jobs = 2
max_divergence_rate = 0.25
out_dir = elsewhere
[steps]
kind = inverse-sqrt
gamma = 0.5
coefficient = 2.0
outer_gamma = 0.75
"""
        want = ExperimentConfig(
            model_kind="gmm", components=3, dim=2, weights=(0.3, 0.7), variance=2.5,
            data_kind="file", n=500, data_seed=4, means=(1.5, -1.5), separation=3.0,
            data_path="points.csv", data_format="packed-binary", init_kind="kmeans",
            init_seed=5, init_means=(0.1, 0.2), algorithms=("online-em", "spider-em"),
            seeds=(1, 2), batch_size=8, k_in=4, k_out=3, k_max=9, epochs=6,
            epsilon=1e-4, warm_epochs=2, sampling="without-replacement",
            metric="update", snapshot="checkpoint", jobs=2,
            max_divergence_rate=0.25, out_dir="elsewhere", step_kind="inverse-sqrt",
            gamma=0.5, step_coefficient=2.0, outer_gamma=0.75)
        default = ExperimentConfig()
        assert all(getattr(want, f) != getattr(default, f) for f in vars(default))
        assert canonical_config(parse_config(text)) == canonical_config(want)

    def test_field_level_messages(self):
        with pytest.raises(ConfigError, match=r"\[run\] batch_size"):
            parse_config("[run]\nbatch_size = soon\nalgorithms = em\nk_max = 3\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\nx = 1\n")
        with pytest.raises(ConfigError, match="outside any"):
            parse_config("x = 1\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("[run]\nalgorithms = em\nalgorithms = em\nk_max = 1\n")
        # list-valued keys report their field too, not a bare ValueError
        for section, key in (("model", "weights"), ("data", "means"),
                             ("init", "means"), ("run", "seeds")):
            with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: cannot parse"):
                parse_config(f"[{section}]\n{key} = 0 x\n")
        # an unknown snapshot mode is a config error, not a traceback mid-run
        with pytest.raises(ConfigError, match=r"\[run\] snapshot"):
            parse_config("[run]\nsnapshot = bogus\nalgorithms = em\nk_max = 3\n")
        # an unknown step kind is a config error even where every method steps at 1
        with pytest.raises(ConfigError, match=r"\[steps\] unknown kind 'bogus'"):
            parse_config("[run]\nalgorithms = em\nk_max = 3\n[steps]\nkind = bogus\n")
        # a warm start longer than the epoch budget leaves the method no updates
        with pytest.raises(ConfigError, match=r"\[run\] warm_epochs"):
            parse_config("[run]\nalgorithms = spider-em\nbatch_size = 4\nepochs = 2\n"
                         "warm_epochs = 4\n")

    def test_step_sizes_are_checked_before_any_run(self, tmp_path):
        # a bad step is a config error before the output directory exists
        for body in ("gamma = -0.5", "gamma = nan", "kind = inverse-sqrt\ncoefficient = 0",
                     "coefficient = -1"):
            key = body.split("\n")[-1].split(" =")[0]
            with pytest.raises(ConfigError, match=rf"\[steps\] {key} must be"):
                parse_config(f"[run]\nalgorithms = em\nk_max = 3\n[steps]\n{body}\n")
        out = tmp_path / "runs"
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[run]\nalgorithms = online-em\nbatch_size = 4\nk_max = 3\n"
                       f"out_dir = {out}\n[steps]\ngamma = -0.1\n")
        assert cli_main(["run", "--config", str(bad)]) == 1
        assert not out.exists()

    def test_consistency_checks(self):
        with pytest.raises(ConfigError, match="needs k_in and k_out"):
            parse_config("[run]\nalgorithms = spider-em\nbatch_size = 4\n")
        with pytest.raises(ConfigError, match="needs batch_size"):
            parse_config("[run]\nalgorithms = online-em\nk_max = 5\n")
        with pytest.raises(ConfigError, match="k_in given"):
            parse_config("[run]\nalgorithms = em\nk_max = 5\nk_in = 4\n")
        with pytest.raises(ConfigError, match="unknown algorithm"):
            parse_config("[run]\nalgorithms = wizard\nk_max = 5\n")

    @pytest.mark.parametrize("body, message", [
        ("algorithms = online-em\nbatch_size = 0\nk_max = 3",
         "batch_size must be >= 1, got 0"),
        ("algorithms = spider-em\nbatch_size = 4\nk_in = 1\nk_out = 2",
         "k_in must be >= 2, got 1"),
        ("algorithms = spider-em\nbatch_size = 4\nk_in = 3\nk_out = -1",
         "k_out must be >= 0, got -1"),
        ("algorithms = em\nk_max = -3", "k_max must be >= 0, got -3"),
        ("algorithms = em\nepochs = -2", "epochs must be >= 0, got -2"),
        ("algorithms = em\nk_max = 3\njobs = 0", "jobs must be >= 1, got 0"),
        ("algorithms = em\nk_max = 3\nseeds = 0 0", "seeds repeats an entry: 0 0"),
        ("algorithms = em em\nk_max = 3", "algorithms repeats an entry: em em"),
    ])
    def test_run_settings_are_checked_before_any_run(self, tmp_path, body, message):
        # a bad length, batch size, job count or repeat is a config error
        # before the output directory exists
        with pytest.raises(ConfigError, match=rf"^\[run\] {message}$"):
            parse_config(f"[run]\n{body}\n")
        out = tmp_path / "runs"
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[run]\n{body}\nout_dir = {out}\n")
        assert cli_main(["run", "--config", str(bad)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        ("[data]\nn = 0", r"\[data\] n must be >= 1, got 0"),
        ("[model]\nkind = gmm\ncomponents = 0\n[init]\nkind = kmeans",
         r"\[model\] components must be >= 1, got 0"),
        ("[model]\ndim = 0", r"\[model\] dim must be >= 1, got 0"),
        ("[model]\nvariance = 0", r"\[model\] variance must be > 0"),
        ("[model]\nvariance = nan", r"\[model\] variance must be > 0"),
        ("[data]\nseparation = -1", r"\[data\] separation must be >= 0"),
        ("[model]\nweights = 1.0", r"\[model\] weights must be two positive"),
        ("[model]\nweights = 0 1", r"\[model\] weights must be two positive"),
        ("[model]\nweights = 0.3 0.3", r"\[model\] weights must be two positive"),
        ("[model]\nweights = nan 0.5", r"\[model\] weights must be two positive"),
        ("[run]\nepsilon = -1", r"\[run\] epsilon must be > 0"),
        ("[run]\nepsilon = nan", r"\[run\] epsilon must be > 0"),
        ("[run]\nmax_divergence_rate = nan", r"\[run\] max_divergence_rate must be in"),
        ("[run]\nmax_divergence_rate = 1.5", r"\[run\] max_divergence_rate must be in"),
        ("[data]\nmeans = 1", r"\[data\] means must be two finite values"),
        ("[init]\nmeans = nan 1", r"\[init\] means must be two finite values"),
        ("[init]\nkind = foo", r"\[init\] unknown kind 'foo'"),
        ("[data]\nkind = file\npath = x.csv\nformat = foo", r"\[data\] format must be"),
    ])
    def test_model_and_data_settings_are_checked_before_any_run(self, body, message):
        # each of these failed inside the run, or ran and meant nothing
        with pytest.raises(ConfigError, match=message):
            parse_config(f"{body}\n[run]\nk_max = 3\n")

    def test_a_bad_data_setting_writes_nothing(self, tmp_path):
        out = tmp_path / "runs"
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[data]\nn = 0\n[run]\nk_max = 3\nout_dir = {out}\n")
        assert cli_main(["run", "--config", str(bad)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("case, content, fmt, message", [
        ("missing", None, "csv", "No such file or directory"),
        ("directory", None, "csv", "Is a directory"),
        ("unreadable", b"1\n2\n", "csv", "Permission denied"),
        ("non-numeric cell", b"1,2\n3,x\n", "csv", "row 2, column 2: 'x'"),
        ("not text", b"\xff\xfe1\n", "csv", "can't decode"),
        ("short header", b"EMDS\x01", "packed-binary", "truncated header"),
        ("short payload", b"EMDS" + struct.pack("<QQ", 2, 1) + bytes(8), "packed-binary",
         "truncated payload"),
    ])
    def test_a_file_dataset_that_cannot_be_used_writes_nothing(
            self, tmp_path, capsys, monkeypatch, case, content, fmt, message):
        path = tmp_path / "data"
        if case == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        if case == "unreadable":
            path.chmod(0)
            if os.access(path, os.R_OK):   # the superuser reads it anyway: refuse it here

                def refuse(file, *args, **kwargs):
                    raise PermissionError(errno.EACCES, "Permission denied", str(file))

                monkeypatch.setattr(data_module, "open", refuse, raising=False)
        out = tmp_path / "runs"
        cfg = tmp_path / "file.cfg"
        cfg.write_text(f"[data]\nkind = file\npath = {path}\nformat = {fmt}\n"
                       f"[run]\nk_max = 3\nout_dir = {out}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [data] path:") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_job_count_from_the_command_line_is_checked(self, tmp_path):
        out = tmp_path / "runs"
        cfg = tmp_path / "good.cfg"
        cfg.write_text(GOOD_CONFIG.format(out=out))
        for jobs in ("0", "-2"):
            assert cli_main(["run", "--config", str(cfg), "--jobs", jobs]) == 1
        assert not out.exists()

    def test_hash_stability(self, tmp_path):
        a = parse_config(GOOD_CONFIG.format(out=tmp_path))
        b = parse_config(GOOD_CONFIG.format(out=tmp_path))
        assert config_hash(a) == config_hash(b)
        b.gamma = 0.2
        assert config_hash(a) != config_hash(b)
        assert "gamma = 0.2" in canonical_config(b)


class TestRunExperiment:
    def test_traces_and_manifest(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path / "runs"))
        summary = run_experiment(cfg)
        out = tmp_path / "runs"
        names = {p.name for p in out.iterdir()}
        assert "manifest.txt" in names
        assert "summary.csv" in names
        summary_lines = (out / "summary.csv").read_text().splitlines()
        assert summary_lines[0].startswith("algorithm,seed,status")
        assert len(summary_lines) == 5
        for algo in ("online-em", "spider-em"):
            for seed in (0, 1):
                assert f"trace_{algo}_{seed}.csv" in names
        assert summary["divergence_rate"] == 0.0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"config hash = {config_hash(cfg)}" in manifest
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
        for line in (f"numpy version = {np.__version__}",
                     f"scipy version = {scipy.__version__}",
                     f"blas = {blas['name']} {blas['version']}",
                     f"OPENBLAS_NUM_THREADS = {threads}",
                     "split passes = yes"):
            assert line in manifest

    def test_manifest_says_pool_workers_do_not_split(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path / "runs"))
        cfg.algorithms, cfg.seeds, cfg.jobs = ("online-em",), (0, 1), 2
        run_experiment(cfg)
        assert "split passes = no" in (tmp_path / "runs" / "manifest.txt").read_text()

    def test_repeat_runs_byte_identical_modulo_wall(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path / "a"))
        run_experiment(cfg)
        cfg.out_dir = str(tmp_path / "b")
        run_experiment(cfg)

        def strip_wall(path):
            lines = (path).read_text().splitlines()
            return ["," .join(v for i, v in enumerate(line.split(",")) if i != 8)
                    for line in lines]

        for name in ("trace_online-em_0.csv", "trace_spider-em_1.csv"):
            assert strip_wall(tmp_path / "a" / name) == strip_wall(tmp_path / "b" / name)

    def test_wall_clock_runs_on_across_warm_start(self):
        cfg = ExperimentConfig(algorithms=("spider-em",), n=2000, batch_size=20,
                               epochs=6, warm_epochs=2, gamma=0.01)
        data = build_dataset(cfg)
        model = build_model(cfg, data)
        trace = run_single(cfg, "spider-em", 0, model, data,
                           initial_stats(cfg, model, data))
        assert set(trace.column("phase")) == {"warmup", "spider-em"}
        assert (np.diff(trace.column("wall_ms")) >= 0).all()

    def test_monotone_counters_and_em_objective(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path / "runs"))
        cfg.algorithms = ("em",)
        cfg.epochs = 10
        summary = run_experiment(cfg)
        cols = read_trace_csv(tmp_path / "runs" / "trace_em_0.csv")
        assert (np.diff(cols["W"]) <= 1e-10).all()
        assert (np.diff(cols["ce_count"]) >= 0).all()
        assert (np.diff(cols["mstep_count"]) >= 0).all()

    def test_shared_stream_fairness(self, tmp_path):
        # all methods consume the identical batch stream per seed: with the
        # same seed, the first online-em batch equals the first spider batch
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path))
        data = build_dataset(cfg)
        model = build_model(cfg, data)
        s0 = initial_stats(cfg, model, data)
        traces = {}
        for algo in ("online-em", "spider-em"):
            traces[algo] = run_single(cfg, algo, 0, model, data, s0)
        # replaying the stream two ways must agree; compare through the
        # recorded per-update statistics of the first inner update
        a = run_single(cfg, "online-em", 0, model, data, s0)
        b = run_single(cfg, "online-em", 0, model, data, s0)
        assert np.array_equal(a.s_final, b.s_final)

    def test_seed_offset_changes_streams(self, tmp_path, monkeypatch):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path))
        data = build_dataset(cfg)
        model = build_model(cfg, data)
        s0 = initial_stats(cfg, model, data)
        base = run_single(cfg, "online-em", 0, model, data, s0)
        monkeypatch.setenv("EM_SEED_OFFSET", "17")
        shifted_data = build_dataset(cfg)
        shifted = run_single(cfg, "online-em", 0, model, data, s0)
        assert not np.array_equal(base.s_final, shifted.s_final)
        assert not np.array_equal(shifted_data.values, data.values)

    def test_divergent_config_exit_code(self, tmp_path):
        cfg_text = """
[model]
kind = scalar2
[data]
kind = scalar-mixture
n = 32
[run]
algorithms = online-em
seeds = 0
batch_size = 2
k_max = 400
metric = none
max_divergence_rate = 0.0
out_dir = {out}
[steps]
kind = constant
gamma = 25.0
"""
        path = tmp_path / "div.cfg"
        path.write_text(cfg_text.format(out=tmp_path / "runs"))
        assert cli_main(["run", "--config", str(path), "--quiet"]) == 2

    def test_protocol_run_emits_one_row_per_epoch(self, tmp_path):
        # warm start plus nested loops at the image-protocol settings:
        # epochs 1..150 each get exactly one checkpoint row (plus the
        # pre-update row at epoch 0)
        cfg = ExperimentConfig(model_kind="gmm", components=12, dim=20,
                               data_kind="multivariate-mixture", n=5000,
                               separation=6.0, init_kind="random-responsibility",
                               algorithms=("spider-em",), seeds=(0,),
                               batch_size=100, epochs=150, warm_epochs=2,
                               gamma=5e-3, out_dir=str(tmp_path / "runs"))
        run_experiment(cfg)
        cols = read_trace_csv(tmp_path / "runs" / "trace_spider-em_0.csv")
        assert cols["epoch"].tolist() == [float(e) for e in range(151)]
        assert cols["status"][-1] == "completed"

    def test_extra_stream_independent_of_shared_stream(self):
        shared = np.random.SeedSequence([7])
        extra = np.random.SeedSequence([7, 1])
        a = np.random.default_rng(shared).integers(0, 1000, size=50)
        b = np.random.default_rng(np.random.SeedSequence([7])).integers(0, 1000, size=50)
        c = np.random.default_rng(extra).integers(0, 1000, size=50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_jobs_parallel_matches_serial(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path / "serial"))
        run_experiment(cfg)
        cfg.out_dir = str(tmp_path / "parallel")
        cfg.jobs = 2
        run_experiment(cfg)
        for name in ("trace_online-em_0.csv", "trace_spider-em_1.csv"):
            a = read_trace_csv(tmp_path / "serial" / name)
            b = read_trace_csv(tmp_path / "parallel" / name)
            assert np.array_equal(a["h_sq_norm"], b["h_sq_norm"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_inputs_are_built_once_in_the_parent(self, tmp_path, monkeypatch, jobs):
        # a call in a worker would write its own process id
        log = tmp_path / "builds.txt"
        for name in ("build_dataset", "initial_stats"):
            def spy(*args, name=name, real=getattr(harness, name)):
                with open(log, "a") as fh:
                    fh.write(f"{name} {os.getpid()}\n")
                return real(*args)

            monkeypatch.setattr(harness, name, spy)
        cfg = replace(parse_config(GOOD_CONFIG.format(out=tmp_path / "runs")), jobs=jobs)
        run_experiment(cfg)
        estimate_complexity(replace(cfg, algorithms=("spider-em",)), 1e30, [100, 200],
                            trials=3, max_epochs=2)
        me = os.getpid()
        assert log.read_text().splitlines() == [f"build_dataset {me}",
                                                f"initial_stats {me}"] * 3

    def test_workers_run_on_read_only_copies_of_the_parents_inputs(self, tmp_path,
                                                                   monkeypatch):
        built, real_build, real_run = [], harness.build_dataset, harness.run_single

        def build(cfg):
            built.append(real_build(cfg))
            return built[-1]

        def spy(cfg, algo, seed, model, data, s_init):
            (tmp_path / f"{algo}-{seed}.txt").write_text(" ".join([
                str(os.getpid()), str(data.values.flags.writeable),
                data.values.tobytes().hex(), s_init.tobytes().hex()]))
            return real_run(cfg, algo, seed, model, data, s_init)

        monkeypatch.setattr(harness, "build_dataset", build)
        monkeypatch.setattr(harness, "run_single", spy)
        cfg = replace(parse_config(GOOD_CONFIG.format(out=tmp_path / "runs")), jobs=2)
        run_experiment(cfg)
        data, = built
        s_init = initial_stats(cfg, build_model(cfg, data), data)
        seen = [p.read_text().split() for p in tmp_path.glob("*.txt")]
        assert len(seen) == 4
        for pid, writeable, values, start in seen:
            assert int(pid) != os.getpid() and writeable == "False"
            assert values == data.values.tobytes().hex()
            assert start == s_init.tobytes().hex()

    def test_each_worker_gets_the_inputs_once_not_with_every_job(self, tmp_path,
                                                                  monkeypatch):
        # a dataset unpickled in a worker, and each job, log their process ids
        unpickled, jobs = tmp_path / "unpickled.txt", tmp_path / "jobs.txt"
        monkeypatch.setattr(Dataset, "__reduce__",
                            lambda self: (_logged_dataset, (str(unpickled), self.values)))
        real = harness.run_single

        def spy(*args):
            _log_pid(jobs)
            return real(*args)

        monkeypatch.setattr(harness, "run_single", spy)
        cfg = replace(parse_config(GOOD_CONFIG.format(out=tmp_path / "runs")), jobs=2)
        run_experiment(cfg)
        ran = Counter(jobs.read_text().split())
        # four jobs on two workers: one worker ran at least two
        assert sum(ran.values()) == 4 and str(os.getpid()) not in ran
        got = Counter(unpickled.read_text().split()) if unpickled.exists() else Counter()
        assert set(got) <= set(ran) and all(count == 1 for count in got.values()), (got, ran)


def _log_pid(path) -> None:
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")


def _logged_dataset(path, values):
    _log_pid(path)
    return Dataset(values)


class TestComplexity:
    def test_immediate_hit_with_infinite_tolerance(self):
        cfg = ExperimentConfig(algorithms=("spider-em",), gamma=0.01)
        est = estimate_complexity(cfg, 1e30, [200], trials=3, max_epochs=10)
        row = est.rows[0]
        assert row["hit_rate"] == 1.0
        assert row["kopt_median"] == 1.0
        assert all(r["tau"] == 1 for r in row["trial_records"])

    def test_csv_shapes(self):
        cfg = ExperimentConfig(algorithms=("spider-em",), gamma=0.01)
        est = estimate_complexity(cfg, 1e30, [100, 200], trials=2, max_epochs=5)
        summary = est.summary_csv().splitlines()
        assert summary[0].startswith("n,b,k_in")
        assert len(summary) == 3
        trials = est.trials_csv().splitlines()
        assert len(trials) == 5

    def test_trials_on_workers_match_serial_byte_for_byte(self, tmp_path, monkeypatch):
        real = harness.run_single

        def spy(*args):
            (tmp_path / str(os.getpid())).touch()
            return real(*args)

        monkeypatch.setattr(harness, "run_single", spy)
        cfg = ExperimentConfig(algorithms=("spider-em",), gamma=0.01)
        # every n = 100 trial misses and every n = 300 trial hits
        serial = estimate_complexity(cfg, 1e-3, [100, 300], trials=3, max_epochs=2)
        assert [p.name for p in tmp_path.iterdir()] == [str(os.getpid())]
        pooled = estimate_complexity(replace(cfg, jobs=2), 1e-3, [100, 300], trials=3,
                                     max_epochs=2)
        assert len(list(tmp_path.iterdir())) > 1   # workers ran trials
        assert [r["hits"] for r in serial.rows] == [0, 3]
        assert pooled.summary_csv() == serial.summary_csv()
        assert pooled.trials_csv() == serial.trials_csv()

    def test_hitting_cost_formula_nested(self, monkeypatch):
        # k_ce and k_opt must equal the trace's CE and M-step counters at the
        # hit, minus the initial refit; every hit here follows at least one
        # refresh
        from emvr import harness
        traces = []
        real = harness.run_single

        def recording(*args, **kwargs):
            traces.append(real(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(harness, "run_single", recording)
        k_ce = {}
        for algo, k_in, trials in (("spider-em", 500, 1), ("sem-vr", 200, 2),
                                   ("spider-em", 200, 2), ("spider-em-cv", 200, 2),
                                   ("spider-em-pl", 200, 2)):
            traces.clear()
            cfg = ExperimentConfig(algorithms=(algo,), gamma=0.01, batch_size=2, k_in=k_in)
            est = estimate_complexity(cfg, 2.5e-5, [1000], trials)
            recs = est.rows[0]["trial_records"]
            assert len(traces) == len(recs) == trials
            for trace, rec in zip(traces, recs):
                assert rec["hit"] and trace.hit[0] >= 2
                at_hit = next(r for r in trace.records if (r.t, r.k, r.tau) == trace.hit)
                assert rec["k_opt"] == at_hit.mstep - 1
                assert rec["k_ce"] == at_hit.ce - 1000
                # tau counts a damped refresh but not a restart
                restarts = trace.hit[0] - 1 if algo == "spider-em-pl" else 0
                assert rec["k_opt"] == trace.hit[2] + restarts
            k_ce[algo, k_in] = recs[0]["k_ce"]
        # trial 0 hits at (t, k, tau) = (2, 58, 558): one refresh and 557
        # inner updates of 2b each
        assert k_ce["spider-em", 500] == 1000 + 2 * 2 * 557 == 3228
        # the restart variant's trial 0 hits at (6, 119, 516): five restarts
        # and 516 inner updates of 2b each
        assert k_ce["spider-em-pl", 200] == 1000 * 5 + 2 * 2 * 516 == 7064

    def test_validation(self):
        cfg = ExperimentConfig(algorithms=("spider-em",))
        with pytest.raises(ConfigError):
            estimate_complexity(cfg, -1.0, [100], trials=2)
        with pytest.raises(ConfigError):
            estimate_complexity(cfg, 1.0, [100], trials=0)
        with pytest.raises(ConfigError, match="unknown algorithm 'wizard'"):
            estimate_complexity(replace(cfg, algorithms=("wizard",)), 1.0, [100], trials=2)


class TestQuantiles:
    def test_identical_traces_collapse(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path))
        cfg.algorithms = ("online-em",)
        cfg.seeds = (0,)
        data = build_dataset(cfg)
        model = build_model(cfg, data)
        s0 = initial_stats(cfg, model, data)
        trace = run_single(cfg, "online-em", 0, model, data, s0)
        for name in ("a.csv", "b.csv", "c.csv"):
            trace_to_csv(trace, tmp_path / name)
        out = summarize_quantiles([tmp_path / n for n in ("a.csv", "b.csv", "c.csv")],
                                  [0.0, 0.25, 0.5, 1.0])
        lines = out.splitlines()
        assert lines[0] == "epoch,stat,q0.0,q0.25,q0.5,q1.0"
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == cells[3] == cells[4] == cells[5]

    def test_extreme_quantiles_are_min_max(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path))
        cfg.seeds = (0, 1, 2)
        cfg.algorithms = ("online-em",)
        cfg.out_dir = str(tmp_path / "runs")
        run_experiment(cfg)
        files = [tmp_path / "runs" / f"trace_online-em_{s}.csv" for s in (0, 1, 2)]
        out = summarize_quantiles(files, [0.0, 1.0])
        hs = np.stack([read_trace_csv(f)["h_sq_norm"] for f in files])
        rows = [line.split(",") for line in out.splitlines()[1:]
                if line.split(",")[1] == "h_sq_norm"]
        lo = np.array([float(r[2]) for r in rows])
        hi = np.array([float(r[3]) for r in rows])
        assert np.array_equal(lo, hs.min(axis=0))
        assert np.array_equal(hi, hs.max(axis=0))

    def test_misaligned_grids_rejected(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG.format(out=tmp_path))
        data = build_dataset(cfg)
        model = build_model(cfg, data)
        s0 = initial_stats(cfg, model, data)
        t1 = run_single(cfg, "online-em", 0, model, data, s0)
        cfg2 = parse_config(GOOD_CONFIG.format(out=tmp_path))
        cfg2.epochs = 2
        t2 = run_single(cfg2, "online-em", 0, model, data, s0)
        trace_to_csv(t1, tmp_path / "a.csv")
        trace_to_csv(t2, tmp_path / "b.csv")
        with pytest.raises(ValueError, match="misaligned"):
            summarize_quantiles([tmp_path / "a.csv", tmp_path / "b.csv"], [0.5])
        with pytest.raises(ValueError, match="at least two"):
            summarize_quantiles([tmp_path / "a.csv"], [0.5])


class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(GOOD_CONFIG.format(out=tmp_path / "runs"))
        assert cli_main(["run", "--config", str(cfg_path), "--quiet"]) == 0
        assert (tmp_path / "runs" / "manifest.txt").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nalgorithms = wizard\n")
        assert cli_main(["run", "--config", str(bad)]) == 1
        assert cli_main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1

    def test_usage_error_is_a_config_error(self, capsys):
        # argparse's own code, 2, means "divergence threshold exceeded" here
        with pytest.raises(SystemExit) as exc:
            cli_main(["run"])
        assert exc.value.code == 1
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["gen-data", "--n", "0", "--out", "{tmp}/d.csv"], "--n must be >= 1"),
        (["gen-data", "--kind", "multivariate", "--n", "5", "--dim", "0",
          "--out", "{tmp}/d.csv"], "--dim must be >= 1"),
        (["complexity", "--n", "100,abc", "--out", "{tmp}/cx"], "--n must be comma-separated"),
        (["complexity", "--n", "-5", "--out", "{tmp}/cx"], "problem sizes must be >= 1"),
        (["run", "--config", "{tmp}"], "cannot read --config"),
    ])
    def test_bad_arguments_are_config_errors(self, tmp_path, capsys, argv, message):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err and err.count("\n") == 1
        assert not any(tmp_path.iterdir())   # no output written

    def test_gen_data(self, tmp_path, capsys):
        out = tmp_path / "d.emds"
        assert cli_main(["gen-data", "--kind", "scalar", "--n", "50",
                         "--out", str(out)]) == 0
        from emvr.data import load_dataset
        assert load_dataset(out, fmt="packed-binary").n == 50

    def test_check_suites(self, capsys):
        assert cli_main(["check", "--suite", "sampler"]) == 0
        out = capsys.readouterr().out
        assert "sampler: PASS" in out

    def test_complexity_smoke(self, tmp_path, capsys):
        assert cli_main(["complexity", "--algo", "spider-em", "--n", "200",
                         "--trials", "2", "--epsilon", "1e30",
                         "--out", str(tmp_path / "cx"), "--quiet"]) == 0
        assert (tmp_path / "cx" / "complexity_summary.csv").exists()
        assert cli_main(["complexity", "--algo", "wizard", "--n", "200",
                         "--out", str(tmp_path / "cx2")]) == 1
        assert not (tmp_path / "cx2").exists()

    def test_complexity_leaves_k_in_empty_for_a_flat_method(self, tmp_path, capsys):
        for algo, k_in in (("online-em", ""), ("spider-em", "200")):
            out = tmp_path / algo
            assert cli_main(["complexity", "--algo", algo, "--n", "200", "--trials", "1",
                             "--epsilon", "1e30", "--out", str(out), "--quiet"]) == 0
            header, row = (out / "complexity_summary.csv").read_text().splitlines()
            assert header.split(",")[:3] == ["n", "b", "k_in"]
            assert row.split(",")[:3] == ["200", "1", k_in]

    @pytest.mark.parametrize("init, warns", [("random-responsibility", True),
                                             ("kmeans", False)])
    def test_compare_warns_on_a_start_with_coincident_means(self, tmp_path, capsys,
                                                            init, warns):
        # the variance-reduction bundle's size, where a random-responsibility
        # start's means lie within 0.03 of the data's RMS spread of one another
        assert cli_main(["compare", "--algos", "em", "--epochs", "1", "--seeds", "2",
                         "--n", "5000", "--components", "12", "--dim", "20",
                         "--init", init, "--out", str(tmp_path / "cmp"), "--quiet"]) == 0
        err = capsys.readouterr().err
        assert ("--init kmeans" in err) == warns, err

    def test_compare_builds_its_inputs_once_and_warns_before_any_run(self, tmp_path,
                                                                      capsys, monkeypatch):
        starts, warned = [], []
        real_start, real_run = harness.initial_stats, harness.run_single

        def start(*args):
            starts.append(args)
            return real_start(*args)

        def run(*args):
            warned.append("--init kmeans" in sys.stderr.getvalue())
            return real_run(*args)

        for module in (harness, cli):   # wherever the command looks it up
            if hasattr(module, "initial_stats"):
                monkeypatch.setattr(module, "initial_stats", start)
        monkeypatch.setattr(harness, "run_single", run)
        # a random-responsibility start of 12 components at n = 500 warns (0.08)
        assert cli_main(["compare", "--algos", "em,online-em", "--epochs", "1",
                         "--seeds", "2", "--n", "500", "--components", "12", "--dim",
                         "20", "--out", str(tmp_path / "cmp"), "--quiet"]) == 0
        assert len(starts) == 1
        assert warned == [True] * 4

    def test_compare_needs_two_seeds_before_writing(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert cli_main(["compare", "--algos", "em", "--epochs", "1", "--seeds", "1",
                         "--n", "200", "--components", "2", "--dim", "2",
                         "--out", str(out), "--quiet"]) == 1
        assert "--seeds must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_smoke(self, tmp_path, capsys):
        assert cli_main(["compare", "--algos", "online-em,spider-em", "--epochs", "6",
                         "--seeds", "2", "--n", "400", "--components", "3",
                         "--dim", "2", "--separation", "4", "--batch-size", "20",
                         "--kswitch", "2", "--out", str(tmp_path / "cmp"),
                         "--quiet"]) == 0
        assert (tmp_path / "cmp" / "quantiles_spider-em.csv").exists()
        manifest = (tmp_path / "cmp" / "manifest.txt").read_text()
        assert "init_kind = 'random-responsibility'" in manifest.split("[config]")[1]

    def test_compare_init_kmeans(self, tmp_path, capsys):
        assert cli_main(["compare", "--algos", "em", "--epochs", "2", "--seeds", "2",
                         "--n", "400", "--components", "3", "--dim", "2",
                         "--separation", "4", "--batch-size", "20", "--init", "kmeans",
                         "--out", str(tmp_path / "cmp"), "--quiet"]) == 0
        manifest = (tmp_path / "cmp" / "manifest.txt").read_text()
        assert "init_kind = 'kmeans'" in manifest.split("[config]")[1]

    def test_compare_validates_its_config(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert cli_main(["compare", "--algos", "spider-em", "--epochs", "2",
                         "--kswitch", "4", "--n", "200", "--components", "2",
                         "--dim", "2", "--batch-size", "20", "--seeds", "2",
                         "--out", str(out), "--quiet"]) == 1
        assert "warm_epochs" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_rejects_odd_nested_span_before_writing(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert cli_main(["compare", "--algos", "spider-em", "--epochs", "7",
                         "--kswitch", "2", "--n", "200", "--components", "2",
                         "--dim", "2", "--batch-size", "20", "--seeds", "2",
                         "--out", str(out), "--quiet"]) == 1
        assert "must be even for spider-em" in capsys.readouterr().err
        assert not out.exists()
