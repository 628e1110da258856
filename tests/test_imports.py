"""Import boundaries: no command or matrix-model sampler loads SciPy, and a run imports nothing.

Every check runs in a fresh interpreter, so modules loaded by other tests
do not count.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import loggas

SRC = str(Path(loggas.__file__).resolve().parents[1])

PRELUDE = """
import json, sys

# The loaded modules that are one of ``names`` or inside one of them.
def loaded(*names):
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))
"""


def run_fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter; returns the JSON of its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


COMMAND_ARGS = {
    "sample": ["sample", "--config", "{dir}/sample.json", "--out", "{dir}/s"],
    "equilibrium": ["equilibrium", "--config", "{dir}/equilibrium.json", "--out", "{dir}/e"],
    "verify": ["verify", "--seed", "1", "--out", "{dir}/v"],
    "analyze": ["analyze", "--config", "{dir}/analyze.json", "--out", "{dir}/a"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_command_loads_no_scipy(tmp_path, command):
    (tmp_path / "sample.json").write_text(json.dumps({
        "model": {"support": "complex_plane", "beta": 2.0, "n": 4,
                  "potential": {"name": "spherical"}},
        "chain": {"sweeps": 20, "chains": 2},
    }))
    (tmp_path / "equilibrium.json").write_text(json.dumps({
        "model": {"support": "complex_plane", "beta": 2.0, "n": 1,
                  "potential": {"name": "spherical"}},
        "grid": {"window": [[-4, 4], [-4, 4]], "resolution": 16},
    }))
    (tmp_path / "rows.csv").write_text("chain,sweep,particle,re,im\n0,0,0,0.5,0.0\n0,0,1,-1.5,0.0\n")
    (tmp_path / "analyze.json").write_text(json.dumps(
        {"analyze": {"input": str(tmp_path / "rows.csv"), "reference": "cauchy"}}
    ))
    argv = [a.format(dir=tmp_path) for a in COMMAND_ARGS[command]]
    rc, modules, during_run = run_fresh("""
        import loggas, loggas.cli
        inner_run, during_run = loggas.cli.run, []

        def run(config):
            before = set(sys.modules)
            try:
                return inner_run(config)
            finally:
                during_run.extend(sorted(set(sys.modules) - before))

        loggas.cli.run = run
        rc = loggas.cli.main(json.loads(sys.argv[1]))
        print(json.dumps([rc, loaded("scipy"), during_run]))
    """, json.dumps(argv))
    assert rc == 0
    assert modules == []
    # Start-up cost stays in start-up: the run itself imports nothing.
    assert during_run == []



def test_spherical_ensemble_loads_no_scipy():
    points, modules = run_fresh("""
        import loggas
        points = loggas.sample_spherical_ensemble(8, seed=3)
        print(json.dumps([len(points), loaded("scipy")]))
    """)
    assert points == 8
    assert modules == []
