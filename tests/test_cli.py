import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from loggas import (
    ChainParams,
    GasModel,
    GridSpec,
    PotentialSpec,
    Support,
    cauchy_potential,
)
import loggas.cli
from loggas.cli import main, parse_config, run
from loggas.io import read_samples_csv

MINIMAL_SAMPLE = {
    "command": "sample",
    "model": {
        "support": "real_line",
        "beta": 2.0,
        "n": 64,
        "potential": {"name": "cauchy"},
    },
    "chain": {"sweeps": 1000},
}


# V = (1/2) log(1+x^2): V - (beta'/2) log(1+x^2) is bounded below only up to beta' = 1
HALF_LOG = {"name": "half_log", "params": {"log_coeff": 0.5}}

# V = 1e306 |x|^2 overflows to inf for |x| > 1.34
STEEP = {"name": "steep", "params": {"poly": [0.0, 1e306], "poly_var": "r2"}}


def resolution_too_large(m, ndim):
    """The whole stderr of a run whose ``grid.resolution`` m is rejected for size."""
    return (f"loggas: error: grid.resolution: {m} is too large: the solver's "
            f"(2 x resolution)^{ndim} complex values would take 2**63 bytes or more\n")


REPLAY_CASES = {
    "custom_sample": {
        "command": "sample",
        "model": {
            "support": "real_line",
            "beta": 2.0,
            "n": 6,
            "potential": {
                "name": "tilted",
                "params": {"poly": [0.3, -0.2, 0.5], "poly_var": "x"},
            },
        },
        "chain": {"sweeps": 40, "chains": 2},
        "seed": 11,
    },
    "plane_equilibrium": {
        "command": "equilibrium",
        "model": {
            "support": "complex_plane",
            "beta": 2.0,
            "n": 1,
            "potential": {"name": "spherical"},
        },
        "grid": {"window": [[-3, 3], [-3, 3]], "resolution": 16},
    },
    "verify": {"command": "verify", "seed": 3},
    "analyze": {"command": "analyze", "analyze": {"input": None, "reference": "cauchy"}},
}


class TestParseConfig:
    def test_minimal_sample_defaults(self):
        config = parse_config(json.dumps(MINIMAL_SAMPLE))
        assert config.command == "sample"
        assert config.model.n == 64
        assert config.model.support is Support.REAL_LINE
        assert config.chain.sweeps == 1000
        assert config.chain.burn_in == 500  # default: min(1000, sweeps // 2)
        assert config.chain.thin == 1
        assert config.seed == 0

    def test_unknown_key_named(self):
        bad = dict(MINIMAL_SAMPLE)
        bad["gamma"] = 1.0
        with pytest.raises(ValueError, match="gamma"):
            parse_config(json.dumps(bad))

    def test_unknown_nested_key_named(self):
        bad = json.loads(json.dumps(MINIMAL_SAMPLE))
        bad["chain"]["gamma"] = 1.0
        with pytest.raises(ValueError, match="gamma"):
            parse_config(json.dumps(bad))

    def test_negative_beta_rejected(self):
        bad = json.loads(json.dumps(MINIMAL_SAMPLE))
        bad["model"]["beta"] = -1.0
        with pytest.raises(ValueError, match="beta"):
            parse_config(json.dumps(bad))

    def test_malformed_json_has_location(self):
        with pytest.raises(ValueError, match="line"):
            parse_config("{\n  \"command\": sample\n}")

    def test_command_override_wins(self):
        config = parse_config(json.dumps(MINIMAL_SAMPLE), command_override="verify")
        assert config.command == "verify"

    def test_potential_from_params(self):
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        raw["model"]["potential"] = {
            "name": "quartic",
            "params": {"poly": [0.0, 0.0, 1.0], "poly_var": "r2"},
        }
        config = parse_config(json.dumps(raw))
        assert config.model.potential.evaluate(2.0) == pytest.approx(16.0)
        config.model.require_weak_growth()

    @pytest.mark.parametrize("value", [True, "7", -1, 2**64])
    def test_seed_must_be_unsigned_integer(self, value):
        raw = dict(MINIMAL_SAMPLE, seed=value)
        with pytest.raises(ValueError, match="seed"):
            parse_config(json.dumps(raw))

    @pytest.mark.parametrize("key, value", [
        ("beta", True), ("beta", "2"), ("n", True),
    ])
    def test_model_numbers_strict(self, key, value):
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        raw["model"][key] = value
        with pytest.raises(ValueError, match=f"model.{key}"):
            parse_config(json.dumps(raw))

    @pytest.mark.parametrize("key, value", [
        ("thin", True), ("chains", True),
    ])
    def test_chain_numbers_strict(self, key, value):
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        raw["chain"][key] = value
        with pytest.raises(ValueError, match=f"chain.{key}"):
            parse_config(json.dumps(raw))

    @pytest.mark.parametrize("key, value", [
        ("tol", "abc"), ("tol", True), ("window", [-1, "x"]),
        ("window", [[-1, 1], [-1, "x"]]), ("window", [[-1, 1], [-1]]),
        ("resolution", True), ("max_iter", True),
    ])
    def test_grid_numbers_strict(self, key, value):
        raw = {
            "command": "equilibrium",
            "model": MINIMAL_SAMPLE["model"],
            "grid": {"window": [-10, 10], "resolution": 64, key: value},
        }
        with pytest.raises(ValueError, match=f"grid.{key}"):
            parse_config(json.dumps(raw))

    def test_missing_sections_for_command(self):
        with pytest.raises(ValueError, match="^model: required for the sample command$"):
            parse_config(json.dumps({"command": "sample"}))
        with pytest.raises(ValueError, match="^analyze: required for the analyze command$"):
            parse_config(json.dumps({"command": "analyze"}))

    @pytest.mark.parametrize("edits, build, field", [
        ({"model.beta": -1.0},
         lambda: GasModel(Support.REAL_LINE, -1.0, cauchy_potential(), 64), "model.beta"),
        ({"model.n": 0},
         lambda: GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 0), "model.n"),
        ({"model.potential": {"name": "p", "params": {"poly_var": "y"}}},
         lambda: PotentialSpec("p", poly_var="y"), "model.potential.params.poly_var"),
        ({"chain": {"sweeps": 1, "burn_in": 0}},
         lambda: ChainParams(sweeps=1, burn_in=0), "chain.sweeps"),
        ({"chain": {"sweeps": 10, "burn_in": 10}},
         lambda: ChainParams(sweeps=10, burn_in=10), "chain.burn_in"),
        ({"chain.thin": 0}, lambda: ChainParams(sweeps=10, burn_in=5, thin=0), "chain.thin"),
        ({"grid.resolution": 8}, lambda: GridSpec((-10.0, 10.0), 8), "grid.resolution"),
        ({"grid.resolution": 2**62},
         lambda: GridSpec((-10.0, 10.0), 2**62), "grid.resolution"),
        ({"grid.window": [10, -10]}, lambda: GridSpec((10.0, -10.0), 64), "grid.window"),
        ({"model.support": "complex_plane", "model.potential.name": "spherical",
          "grid.window": [[-4, 4], [-3, 3]]},
         lambda: GridSpec(((-4.0, 4.0), (-3.0, 3.0)), 64), "grid.window"),
        ({"grid.tol": 0}, lambda: GridSpec((-10.0, 10.0), 64, tol=0.0), "grid.tol"),
        ({"grid.max_iter": 0}, lambda: GridSpec((-10.0, 10.0), 64, max_iter=0), "grid.max_iter"),
    ], ids=["beta", "n", "poly_var", "sweeps", "burn_in", "thin",
            "resolution", "resolution-2**62", "window-reversed", "window-not-square", "tol",
            "max_iter"])
    def test_config_and_library_reject_alike(self, edits, build, field):
        # a grid row is checked in an equilibrium config, any other in a sample one
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        if any(key.startswith("grid") for key in edits):
            raw.update(command="equilibrium", grid={"window": [-10, 10], "resolution": 64})
            del raw["chain"]
        for dotted, value in edits.items():
            *parents, last = dotted.split(".")
            node = raw
            for key in parents:
                node = node[key]
            node[last] = value
        with pytest.raises(ValueError) as config_error:
            parse_config(json.dumps(raw))
        with pytest.raises(ValueError) as library_error:
            build()
        assert str(config_error.value).startswith(f"{field}:")
        assert str(library_error.value).startswith(f"{field}:")


def small_config(out, seed=0, n=8, sweeps=60):
    raw = json.loads(json.dumps(MINIMAL_SAMPLE))
    raw["model"]["n"] = n
    raw["chain"]["sweeps"] = sweeps
    raw["chain"]["burn_in"] = sweeps // 2
    raw["seed"] = seed
    raw["out"] = str(out)
    return parse_config(json.dumps(raw))


class TestRun:
    def test_sample_outputs(self, tmp_path):
        config = small_config(tmp_path / "r")
        assert run(config) == 0
        data = read_samples_csv(tmp_path / "r" / "samples.csv")
        assert len(np.unique(data["sweep"])) == 30
        stats = json.loads((tmp_path / "r" / "stats.json").read_text())
        assert "chains" in stats and len(stats["chains"]) == 1
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["config"]["model"]["n"] == 8
        assert manifest["config"]["chain"]["burn_in"] == 30

    def test_sample_reproducible(self, tmp_path):
        run(small_config(tmp_path / "a", seed=3))
        run(small_config(tmp_path / "b", seed=3))
        assert (tmp_path / "a" / "samples.csv").read_bytes() == (
            tmp_path / "b" / "samples.csv"
        ).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        run(small_config(tmp_path / "a", seed=3))
        run(small_config(tmp_path / "c", seed=4))
        assert (tmp_path / "a" / "samples.csv").read_bytes() != (
            tmp_path / "c" / "samples.csv"
        ).read_bytes()

    def test_equilibrium_outputs(self, tmp_path):
        raw = {
            "command": "equilibrium",
            "model": {
                "support": "real_line",
                "beta": 2.0,
                "n": 1,
                "potential": {"name": "cauchy"},
            },
            "grid": {"window": [-10, 10], "resolution": 64, "tol": 1e-4},
            "out": str(tmp_path),
        }
        assert run(parse_config(json.dumps(raw))) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"]
        assert report["gap"] <= 1e-4
        assert (tmp_path / "measure.csv").exists()

    def test_half_line_equilibrium_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "equilibrium",
            "model": {"support": "half_line", "beta": 2.0, "n": 1,
                      "potential": {"name": "linear", "params": {"poly": [0.0, 1.0],
                                                                 "poly_var": "x"}}},
            "grid": {"window": [0, 5], "resolution": 400},
        }))
        out = tmp_path / "o"
        assert main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] and report["captured_mass"] is None
        assert abs(report["energy"] - 1.5) <= 0.02  # 1.48902 measured; exact 3/2
        assert (out / "measure.csv").read_text().startswith("x,weight\n")

    def test_unconverged_equilibrium_fails_loudly(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "equilibrium",
            "model": {
                "support": "real_line",
                "beta": 2.0,
                "n": 1,
                "potential": {"name": "cauchy"},
            },
            "grid": {"window": [-10, 10], "resolution": 64, "tol": 1e-12, "max_iter": 5},
        }))
        out = tmp_path / "o"
        assert main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert not report["converged"] and report["iterations"] == 5
        assert (out / "measure.csv").exists()
        err = capsys.readouterr().err
        assert "loggas: error: not converged: gap" in err
        assert "> tol 1e-12 after 5 iterations" in err

    @pytest.mark.parametrize("support, window, resolution, potentials, mass", [
        ("real_line", [-20, 20], 400,
         [{"name": "mycauchy", "params": {"log_coeff": 1.0}}, {"name": "cauchy"}],
         0.9681954974876472),
        ("complex_plane", [[-4, 4], [-4, 4]], 60,
         [{"name": "cauchy"}, {"name": "spherical"}],
         0.9514241225854796),
    ], ids=["renamed-line", "cauchy-on-plane"])
    def test_same_structure_same_outputs(self, tmp_path, support, window, resolution,
                                         potentials, mass):
        # the closed-form law follows V's structure and the support, not its name
        outputs = []
        for k, potential in enumerate(potentials):
            raw = {
                "command": "equilibrium",
                "model": {"support": support, "beta": 2.0, "n": 1, "potential": potential},
                "grid": {"window": window, "resolution": resolution},
                "out": str(tmp_path / str(k)),
            }
            assert run(parse_config(json.dumps(raw))) == 0
            outputs.append([(tmp_path / str(k) / f).read_bytes()
                            for f in ("measure.csv", "report.json")])
            report = json.loads((tmp_path / str(k) / "report.json").read_text())
            assert report["captured_mass"] == mass
        assert outputs[0] == outputs[1]

    def test_verify_exits_zero(self, tmp_path):
        raw = {"command": "verify", "out": str(tmp_path), "seed": 1}
        assert run(parse_config(json.dumps(raw))) == 0
        result = json.loads((tmp_path / "verify.json").read_text())
        assert result["pass"]
        assert set(result["suites"]) == {
            "metric", "pole", "kernel_transport", "density_transport",
            "energy_transport",
        }

    def test_analyze_flow(self, tmp_path):
        config = small_config(tmp_path / "s", n=16, sweeps=200)
        assert run(config) == 0
        raw = {
            "command": "analyze",
            "analyze": {
                "input": str(tmp_path / "s" / "samples.csv"),
                "reference": "cauchy",
            },
            "out": str(tmp_path / "fit"),
        }
        assert run(parse_config(json.dumps(raw))) == 0
        fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert fit["reports"][0]["reference"] == "cauchy"
        assert 0.0 <= fit["reports"][0]["statistic"] <= 1.0

    def test_multiple_chains_merge_deterministically(self, tmp_path):
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        raw["model"]["n"] = 4
        raw["chain"].update({"sweeps": 30, "burn_in": 10, "chains": 3})
        raw["out"] = str(tmp_path)
        assert run(parse_config(json.dumps(raw))) == 0
        data = read_samples_csv(tmp_path / "samples.csv")
        assert set(data["chain"].tolist()) == {0, 1, 2}
        # rows are grouped by chain, then sweep
        order = np.lexsort((data["sweep"], data["chain"]))
        assert np.array_equal(order, np.arange(len(order)))

    def test_rows_follow_the_recording_schedule(self, tmp_path):
        # thin 3 does not divide sweeps - burn_in = 18: sweeps 5, 8, ..., 20
        n = 4
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        raw["model"]["n"] = n
        raw["chain"] = {"sweeps": 23, "burn_in": 5, "thin": 3, "chains": 2}
        raw["out"] = str(tmp_path)
        assert run(parse_config(json.dumps(raw))) == 0
        data = read_samples_csv(tmp_path / "samples.csv")
        sweeps = [5, 8, 11, 14, 17, 20]
        for chain in (0, 1):
            rows = data["chain"] == chain
            assert data["sweep"][rows].tolist() == [s for s in sweeps for _ in range(n)]
            assert data["particle"][rows].tolist() == list(range(n)) * len(sweeps)
        assert len(data["chain"]) == 2 * len(sweeps) * n

    def test_chain_rows_do_not_depend_on_chain_count(self, tmp_path):
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        raw["model"]["n"] = 5
        raw["seed"] = 17
        rows = {}
        for chains in (1, 3):
            raw["chain"] = {"sweeps": 40, "burn_in": 10, "chains": chains}
            raw["out"] = str(tmp_path / f"c{chains}")
            assert run(parse_config(json.dumps(raw))) == 0
            rows[chains] = (tmp_path / f"c{chains}" / "samples.csv").read_text().splitlines()
        first = [r for r in rows[3] if r.startswith("0,")]
        assert len(rows[3]) - 1 == 3 * len(first)
        assert first == rows[1][1:]

    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_manifest_replays_the_run(self, tmp_path, case):
        raw = json.loads(json.dumps(REPLAY_CASES[case]))
        if case == "analyze":
            assert run(small_config(tmp_path / "s", n=4, sweeps=40)) == 0
            raw["analyze"]["input"] = str(tmp_path / "s" / "samples.csv")
        out = tmp_path / "run"
        config = parse_config(json.dumps(raw), flags={"out": str(out)})
        assert run(config) == 0
        echoed = json.loads((out / "manifest.json").read_text())["config"]
        assert echoed == config.settings
        replayed = parse_config(json.dumps(echoed))
        assert replayed.settings == echoed
        first = out.rename(tmp_path / "first")
        assert run(replayed) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in out.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (out / name).read_bytes(), name


FIVE_CHAINS = {
    "command": "sample",
    "model": {"support": "real_line", "beta": 2.0, "n": 6, "potential": {"name": "cauchy"}},
    "chain": {"sweeps": 40, "burn_in": 10, "chains": 5},
    "seed": 7,
}


class TestWorkers:
    """A sample run's chains split into min(chains, CPUs) groups, one process each."""

    @staticmethod
    def run_on(tmp_path, monkeypatch, cpus, raw, name):
        """``loggas sample`` on the config ``raw``, in this process, with ``cpus``
        CPUs in the affinity mask; returns the exit code and the output directory."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / name
        return main(["sample", "--config", str(cfg), "--out", str(out)]), out

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_output_does_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        outputs = {}
        for cpus in (1, 2, 3, 8):
            forks.clear()
            rc, out = self.run_on(tmp_path, monkeypatch, cpus, FIVE_CHAINS, f"cpus{cpus}")
            assert rc == 0
            assert len(forks) == min(cpus, 5) - 1
            assert sorted(os.listdir(out)) == ["manifest.json", "samples.csv", "stats.json"]
            outputs[cpus] = [(out / name).read_bytes() for name in ("samples.csv", "stats.json")]
        assert outputs[2] == outputs[1] and outputs[3] == outputs[1] and outputs[8] == outputs[1]
        chains = read_samples_csv(tmp_path / "cpus8" / "samples.csv")["chain"]
        assert np.array_equal(np.unique(chains), np.arange(5))
        self.assert_no_child_left()

    def test_fork_warning_of_threads_is_not_an_error(self, tmp_path, monkeypatch):
        # Python 3.12+ warns, from os.fork in the parent, that the process has
        # threads (OpenBLAS's); the warning names loggas.cli as its source.
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead to "
                              "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_on(tmp_path, monkeypatch, 2, FIVE_CHAINS, "warned")[0] == 0
        self.assert_no_child_left()

    def test_one_chain_never_forks(self, tmp_path, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        raw = json.loads(json.dumps(FIVE_CHAINS))
        raw["chain"]["chains"] = 1
        assert self.run_on(tmp_path, monkeypatch, 8, raw, "one")[0] == 0

    def test_failing_start_fails_alike_at_one_and_three_workers(self, tmp_path, monkeypatch,
                                                                capsys):
        # n Σ V overflows at chain 4's start alone, which a third worker would run
        raw = {
            "command": "sample",
            "model": {"support": "real_line", "beta": 1.0, "n": 12, "potential": STEEP},
            "chain": {"sweeps": 20, "chains": 5},
            "seed": 21,
        }
        results = []
        for cpus in (1, 3):
            rc, out = self.run_on(tmp_path, monkeypatch, cpus, raw, f"cpus{cpus}")
            results.append((rc, capsys.readouterr().err))
            assert os.listdir(out) == ["manifest.json"]
        assert results[0] == results[1]
        assert results[0] == (
            2, "loggas: error: chain 4: the log-density of the start is -inf, not finite\n"
        )
        self.assert_no_child_left()

    @pytest.mark.parametrize("failing, message", [
        ("parent", "group 0 failed"),
        ("worker", "group 2 failed"),
        ("killed worker", "the worker for chains 1..2 failed (exit code -9)"),
    ])
    def test_failed_group_leaves_no_process_and_no_file(self, tmp_path, monkeypatch, capsys,
                                                        failing, message):
        # 3 CPUs, 5 chains: this process runs chain 0, workers chains 1..2 and 3..4
        parent, real_mh_chains = os.getpid(), loggas.cli.mh_chains
        group = {loggas.cli.chain_seed(7, lo): g for g, lo in enumerate((0, 1, 3))}

        def mh_chains(model, inits, params, seeds):
            g = group[seeds[0]]
            if failing == "parent" and g == 0:
                raise ValueError("group 0 failed")
            if os.getpid() != parent:
                if failing == "parent":
                    time.sleep(30)  # still running when the parent fails
                elif failing == "worker" and g == 2:
                    raise ValueError("group 2 failed")
                elif failing == "killed worker" and g == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
            return real_mh_chains(model, inits, params, seeds)

        monkeypatch.setattr(loggas.cli, "mh_chains", mh_chains)
        start = time.monotonic()
        rc, out = self.run_on(tmp_path, monkeypatch, 3, FIVE_CHAINS, "failed")
        assert time.monotonic() - start < 20  # the sleeping workers were killed
        assert (rc, capsys.readouterr().err) == (2, f"loggas: error: {message}\n")
        assert os.listdir(out) == ["manifest.json"]
        self.assert_no_child_left()

    def test_worker_of_a_dead_parent_stops(self, tmp_path, monkeypatch, capsys):
        # A worker whose parent is not the process that forked it (that
        # process died before the worker's prctl call) exits at once.
        monkeypatch.setattr(os, "getppid", lambda: 1)
        raw = json.loads(json.dumps(FIVE_CHAINS))
        raw["chain"]["chains"] = 2
        rc, out = self.run_on(tmp_path, monkeypatch, 2, raw, "orphan")
        assert (rc, capsys.readouterr().err) == (
            2, "loggas: error: the worker for chains 1..1 failed (exit code 1)\n"
        )
        assert os.listdir(out) == ["manifest.json"]
        self.assert_no_child_left()

    @staticmethod
    def running(pid: int) -> bool:
        """Whether process ``pid`` exists and is not a zombie."""
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")

    @pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                        reason="needs /proc/<pid>/task/<tid>/children")
    def test_worker_dies_with_its_killed_parent(self, tmp_path):
        # two chains of some 200 s each, one in the parent and one in its worker
        raw = {
            "command": "sample",
            "model": {"support": "real_line", "beta": 2.0, "n": 32,
                      "potential": {"name": "cauchy"}},
            "chain": {"sweeps": 1_000_000, "thin": 10_000, "chains": 2},
        }
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps(raw))
        code = ("import os, sys\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "from loggas.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(loggas.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        parent = subprocess.Popen(
            [sys.executable, "-c", code, "sample", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        worker = None
        try:
            children = Path(f"/proc/{parent.pid}/task/{parent.pid}/children")
            deadline = time.monotonic() + 60
            while not children.read_text().split():
                assert parent.poll() is None, "the run ended before it forked"
                assert time.monotonic() < deadline, "no worker was forked within 60 s"
                time.sleep(0.01)
            worker = int(children.read_text().split()[0])
            parent.kill()
            parent.wait()
            deadline = time.monotonic() + 5
            while self.running(worker):
                assert time.monotonic() < deadline, "the worker outlived its parent by 5 s"
                time.sleep(0.01)
        finally:
            parent.kill()
            parent.wait()
            if worker is not None and self.running(worker):
                os.kill(worker, signal.SIGKILL)


class TestMain:
    def test_cli_verify(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path), "--seed", "2"])
        assert code == 0

    def test_cli_sample_with_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        raw["model"]["n"] = 4
        raw["chain"].update({"sweeps": 20, "burn_in": 5})
        cfg.write_text(json.dumps(raw))
        code = main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "samples.csv").exists()

    def test_usage_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"command": "sample", "gamma": 1}')
        assert main(["sample", "--config", str(cfg)]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_bad_number_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "command": "equilibrium",
            "model": MINIMAL_SAMPLE["model"],
            "grid": {"window": [-10, 10], "resolution": 64, "tol": "abc"},
        }))
        assert main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "grid.tol" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, literal, message", [
        ("model", "beta", str(10**400),
         "expected a finite number, got an integer past the float range"),
        ("chain", "sweeps", str(10**30), "must be below 2**63"),
        ("model", "n", str(10**30), "must be below 2**63"),
        ("grid", "resolution", str(10**30), "must be below 2**63"),
        # past int()'s 4,300-digit limit on decimal strings
        ("model", "beta", "9" * 5001, "an integer with too many digits to convert"),
    ], ids=["float-beta", "sweeps", "n", "resolution", "5001-digit-beta"])
    def test_unrepresentable_number_exits_two_naming_its_key(self, tmp_path, capsys, section,
                                                             key, literal, message):
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        if section == "grid":
            raw.update(command="equilibrium", grid={"window": [-10, 10], "resolution": 64})
        raw[section][key] = "LITERAL"
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(raw).replace('"LITERAL"', literal))
        out = tmp_path / "o"
        assert main([raw["command"], "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"loggas: error: {section}.{key}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("chain, n", [
        ({"sweeps": 2**62}, 4),
        ({"sweeps": 2**40, "burn_in": 0, "chains": 2**10}, 2**10),
        ({"sweeps": 2**59 + 1, "burn_in": 1}, 1),
    ], ids=["sweeps", "chains", "one-particle"])
    def test_samples_array_too_large_exits_two_before_writing(self, tmp_path, capsys, chain, n):
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        raw["model"]["n"] = n
        raw["chain"] = chain
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "loggas: error: chain.sweeps: chains x recorded sweeps x n x 16 bytes is too "
            "large (2**63 or more)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ('{"command": "verify", "seed": 1, "seed": 2}', "seed"),
        ('{"command": "sample", "chain": {"sweeps": 10},'
         ' "model": {"support": "real_line", "beta": 2, "beta": 3, "n": 4,'
         ' "potential": {"name": "cauchy"}}}', "beta"),
    ], ids=["top-level", "section"])
    def test_key_given_twice_exits_two_naming_it(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "twice.json"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main([json.loads(text)["command"], "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"loggas: error: {key!r}: given twice in one object\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_seed_flag_exits_two_before_writing(self, tmp_path, capsys, seed):
        out = tmp_path / "o"
        assert main(["verify", "--seed", seed, "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "verify", "seed": 5, "out": "unused"}))
        assert main(["verify", "--config", str(cfg), "--seed", "2",
                     "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["seed"] == 2
        assert manifest["config"]["out"] == str(tmp_path / "o")

    @pytest.mark.parametrize("path, value, named", [
        ("chain", 5, "chain"),
        ("grid", [], "grid"),
        ("analyze", 3, "analyze"),
        ("model", "real_line", "model"),
        ("model.potential", 4, "model.potential"),
        ("model.potential", {"name": "c", "params": [1.0]}, "model.potential.params"),
        ("model.support", ["real_line"], "model.support"),
        ("model.potential.v_infinity", 0.0, "v_infinity"),
        ("model.potential.beta_prime", 2.0, "unknown key 'beta_prime' in model.potential"),
        pytest.param("chain.adapt", True, "loggas: error: unknown key 'adapt' in chain\n",
                     id="chain.adapt"),
        pytest.param("chain.step_scale", 1.0,
                     "loggas: error: unknown key 'step_scale' in chain\n", id="chain.step_scale"),
        ("model.beta", 3.0, "model.beta"),
        pytest.param(
            ("command", "model.support", "grid"),
            ("equilibrium", "complex_plane", {"window": [[-4, 4], [-3, 3]], "resolution": 16}),
            "grid.window", id="equilibrium-non-square-window"),
        pytest.param(
            ("command", "model.support", "grid"),
            ("equilibrium", "half_line", {"window": [-1, 10], "resolution": 16}),
            "grid.window: has atoms outside half_line", id="equilibrium-half-line"),
        pytest.param(
            ("command", "model.support", "grid"),
            ("equilibrium", "unit_circle", {"window": [-1, 1], "resolution": 16}),
            "grid.window: has atoms outside unit_circle", id="equilibrium-unit-circle"),
        pytest.param(
            ("command", "model.support", "grid"),
            ("equilibrium", "unit_circle", {"window": [[-1, 1], [-1, 1]], "resolution": 16}),
            "grid.window", id="equilibrium-unit-circle-plane"),
        pytest.param(
            ("command", "model.support", "grid"),
            ("equilibrium", "complex_plane", {"window": [-4, 4], "resolution": 16}),
            "grid.window", id="equilibrium-line-window-on-plane"),
        # Grids whose circulant spectrum alone would take 2**63 bytes: no array is made.
        pytest.param(
            ("command", "grid"), ("equilibrium", {"window": [-10, 10], "resolution": 2**58}),
            resolution_too_large(2**58, 1), id="equilibrium-resolution-line-2**58"),
        pytest.param(
            ("command", "grid"), ("equilibrium", {"window": [-10, 10], "resolution": 2**62}),
            resolution_too_large(2**62, 1), id="equilibrium-resolution-line-2**62"),
        pytest.param(
            ("command", "model.support", "model.potential.name", "grid"),
            ("equilibrium", "complex_plane", "spherical",
             {"window": [[-4, 4], [-4, 4]], "resolution": 2**61}),
            resolution_too_large(2**61, 2), id="equilibrium-resolution-plane-2**61"),
        pytest.param(
            "model.potential", HALF_LOG, "model.potential.params.log_coeff",
            id="sample-half-log"),
        pytest.param(
            ("command", "model.potential", "grid"),
            ("equilibrium", HALF_LOG, {"window": [-10, 10], "resolution": 16}),
            "model.potential.params.log_coeff", id="equilibrium-half-log"),
    ])
    def test_malformed_section_exits_two(self, tmp_path, capsys, path, value, named):
        # a row sets one dotted path, or a tuple of paths to a tuple of values
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        edits = zip(path, value) if isinstance(path, tuple) else [(path, value)]
        for dotted, v in edits:
            *parents, last = dotted.split(".")
            node = raw
            for key in parents:
                node = node[key]
            node[last] = v
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main([raw["command"], "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_potential_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "steep.json"
        cfg.write_text(json.dumps({
            "command": "equilibrium",
            "model": {"support": "real_line", "beta": 1.0, "n": 1, "potential": STEEP},
            "grid": {"window": [-20, 20], "resolution": 32},
        }))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("loggas: error: grid.window: V is not finite")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("support", ["complex_plane", "unit_circle"])
    def test_x_polynomial_needs_a_real_support(self, tmp_path, capsys, support):
        raw = json.loads(json.dumps(MINIMAL_SAMPLE))
        raw["model"]["support"] = support
        raw["model"]["potential"] = {
            "name": "tilted", "params": {"poly": [0.0, 1.0, 1.0], "poly_var": "x"},
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "model.potential.params.poly_var" in capsys.readouterr().err

    @pytest.mark.parametrize("support", ["unit_circle", "unit_segment"])
    def test_bounded_support_admits_every_beta(self, tmp_path, support):
        # every gas on a bounded support is normalizable
        raw = {
            "command": "sample",
            "model": {"support": support, "beta": 3.0, "n": 6,
                      "potential": {"name": "bowl", "params": {"poly": [0.0, 1.0]}}},
            "chain": {"sweeps": 20, "chains": 2},
        }
        cfg = tmp_path / "bounded.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"]["potential"] == {
            "name": "bowl", "params": {"poly": [0.0, 1.0], "poly_var": "r2", "log_coeff": 0.0}}
        assert len(json.loads((out / "stats.json").read_text())["chains"]) == 2

    @staticmethod
    def _sample(tmp_path, support, beta, potential) -> tuple[int, Path]:
        """Exit code and output directory of a short ``loggas sample`` run."""
        raw = {
            "command": "sample",
            "model": {"support": support, "beta": beta, "n": 6, "potential": potential},
            "chain": {"sweeps": 20},
        }
        cfg = tmp_path / "unbounded.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        return main(["sample", "--config", str(cfg), "--out", str(out)]), out

    @pytest.mark.parametrize("support, beta, potential, message", [
        *[(support, 2.5, {"name": "cauchy"},
           "model.beta: 2.5 exceeds 2 log_coeff = 2; the model fails weak-growth admissibility")
          for support in ("real_line", "half_line", "complex_plane")],
        *[(support, 1.0, HALF_LOG, "model.potential.params.log_coeff: 0.5 must exceed 1/2 "
           "when the poly part has a finite limit")
          for support in ("real_line", "half_line", "complex_plane")],
        ("real_line", 2.0, {"name": "cubic", "params": {"poly": [0, 0, 0, 1], "poly_var": "x"}},
         "model.potential.params.poly: tends to -inf at an end of real_line; "
         "the model fails weak-growth admissibility"),
        ("real_line", 1.21, {"name": "log_0.6", "params": {"log_coeff": 0.6}},
         "model.beta: 1.21 exceeds 2 log_coeff = 1.2; the model fails weak-growth admissibility"),
    ], ids=["cauchy-2.5-line", "cauchy-2.5-half-line", "cauchy-2.5-plane", "half-log-line",
            "half-log-half-line", "half-log-plane", "cubic-line", "log-0.6-at-1.21"])
    def test_unbounded_support_keeps_the_weak_growth_gate(self, tmp_path, capsys, support,
                                                          beta, potential, message):
        code, out = self._sample(tmp_path, support, beta, potential)
        assert code == 2
        assert capsys.readouterr().err == f"loggas: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("support, beta, potential", [
        ("real_line", 1.2, {"name": "log_0.6", "params": {"log_coeff": 0.6}}),
        ("real_line", 4.0, {"name": "quadratic"}),
        ("half_line", 2.0, {"name": "cubic", "params": {"poly": [0, 0, 0, 1], "poly_var": "x"}}),
    ], ids=["log-0.6-at-1.2", "quadratic-4", "cubic-half-line"])
    def test_weak_growth_admits_up_to_the_limit(self, tmp_path, support, beta, potential):
        code, out = self._sample(tmp_path, support, beta, potential)
        assert code == 0
        assert (out / "samples.csv").exists()

    def test_config_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes('{"command": "verify", "out": "é"}'.encode("latin-1"))
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert "latin1.json" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _analyze(tmp_path, text: str, reference: str = "cauchy") -> int:
        """Exit code of ``loggas analyze`` on a samples.csv holding ``text``."""
        source = tmp_path / "samples.csv"
        source.write_text(text)
        cfg = tmp_path / "analyze.json"
        cfg.write_text(json.dumps(
            {"command": "analyze", "analyze": {"input": str(source), "reference": reference}}
        ))
        return main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")])

    def test_empty_analyze_input_exits_two(self, tmp_path, capsys):
        assert self._analyze(tmp_path, "") == 2
        assert "samples.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("chain,sweep,particle,re,im\n", "samples.csv: no data rows"),
        ("chain,sweep,particle,re,im\n0,0,0,1.5,0.0\n0,0,1,2.5\n", "samples.csv, line 3"),
        ("chain,sweep,particle,re,im\n0,0,0,abc,0.0\n", "samples.csv, line 2"),
        ("\n\nchain,sweep,particle,re,im\n0,0,0,1.5,0.0\n0,0,1,2.5\n", "samples.csv, line 5"),
    ], ids=["header-only", "short-row", "non-numeric", "leading-blank-lines"])
    def test_bad_analyze_input_names_file_and_line(self, tmp_path, capsys, text, named):
        assert self._analyze(tmp_path, text) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("reference", ["cauchy", "spherical"])
    @pytest.mark.parametrize("bad", ["nan,0.0", "0.5,-inf"])
    def test_non_finite_analyze_input_exits_two(self, tmp_path, capsys, reference, bad):
        text = f"chain,sweep,particle,re,im\n0,0,0,1.5,0.0\n0,0,1,{bad}\n0,0,2,0.5,0.0\n"
        assert self._analyze(tmp_path, text, reference) == 2
        assert "samples.csv, line 3: non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "o" / "fit.json").exists()

    def test_huge_analyze_input_gives_a_finite_statistic(self, tmp_path):
        # The spherical CDF holds at every finite modulus, so fit.json stays strict JSON.
        text = "chain,sweep,particle,re,im\n0,0,0,1.5,0.0\n0,0,1,1e200,0.0\n0,0,2,0.5,0.0\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._analyze(tmp_path, text, "spherical") == 0

        def reject(token):
            raise ValueError(f"fit.json holds {token}")

        fit = json.loads((tmp_path / "o" / "fit.json").read_text(), parse_constant=reject)
        assert [r["reference"] for r in fit["reports"]] == ["spherical_radial", "spherical_angular"]
        assert all(math.isfinite(r["statistic"]) for r in fit["reports"])

    def test_missing_config_file(self, capsys):
        assert main(["sample", "--config", "/nonexistent/x.json"]) == 2
