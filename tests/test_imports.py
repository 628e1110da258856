"""Import boundaries: each command loads only the libraries it calls.

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

# Names the package exports from ``equilibrium`` without importing it.
EQUILIBRIUM_EXPORTS = (
    "GridMinimizeReport",
    "GridSpec",
    "closed_form_cell_masses",
    "el_residual",
    "fekete_descent",
    "grid_minimize",
)

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
        print(json.dumps([rc, loaded("scipy", "loggas.equilibrium"), during_run]))
    """, json.dumps(argv))
    assert rc == 0
    assert modules == []
    # Start-up cost stays in start-up: the run itself imports nothing.
    assert during_run == []


def test_equilibrium_loads_fft_while_parsing(tmp_path):
    config = json.dumps({
        "command": "equilibrium",
        "model": {"support": "real_line", "beta": 2.0, "n": 1, "potential": {"name": "cauchy"}},
        "grid": {"window": [-10, 10], "resolution": 32},
        "out": str(tmp_path / "eq"),
    })
    parsed, rc, during_run = run_fresh("""
        from loggas.cli import parse_config, run
        config = parse_config(sys.argv[1])
        parsed = loaded("scipy", "loggas.equilibrium")
        before = set(sys.modules)
        rc = run(config)
        print(json.dumps([parsed, rc, sorted(set(sys.modules) - before)]))
    """, config)
    assert {"loggas.equilibrium", "scipy.fft"} <= set(parsed)
    assert "scipy.integrate" not in parsed
    assert rc == 0
    assert during_run == []


def test_lazy_exports_resolve():
    before, resolved, same, listed = run_fresh("""
        import loggas
        before = loaded("scipy", "loggas.equilibrium")
        names = json.loads(sys.argv[1])
        resolved = [getattr(loggas, name).__name__ for name in names]
        same = loggas.grid_minimize is loggas.equilibrium.grid_minimize
        print(json.dumps([before, resolved, same, sorted(set(names) & set(dir(loggas)))]))
    """, json.dumps(EQUILIBRIUM_EXPORTS))
    assert before == []
    assert resolved == list(EQUILIBRIUM_EXPORTS)
    assert same
    assert listed == sorted(EQUILIBRIUM_EXPORTS)


def test_unknown_name_raises_attribute_error():
    message = run_fresh("""
        import loggas
        try:
            loggas.no_such_name
        except AttributeError as e:
            print(json.dumps(str(e)))
    """)
    assert "no_such_name" in message
