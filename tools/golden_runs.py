"""Run a fixed set of ``loggas`` commands whose outputs serve as a golden record.

usage: python tools/golden_runs.py OUT

Each command runs in a fresh process on this checkout's ``src``, with
``cwd=OUT`` and relative ``--out`` and ``input`` paths, so every output
file, ``manifest.json`` included, depends only on the code.  Run it on two
commits and compare with ``diff -r``: an empty diff means the change kept
every output byte for byte.  OUT must be empty or absent.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _model(support, beta, n, potential):
    return {"support": support, "beta": beta, "n": n, "potential": {"name": potential}}


# name -> (command, config, seed); each run writes its outputs to OUT/name.
RUNS = {
    # The benchmark's two sample workloads.
    "sample-line": ("sample", {
        "model": _model("real_line", 2.0, 64, "cauchy"),
        "chain": {"sweeps": 1000, "burn_in": 400, "chains": 8},
    }, 3),
    "sample-plane": ("sample", {
        "model": _model("complex_plane", 2.0, 256, "spherical"),
        "chain": {"sweeps": 400, "burn_in": 200, "chains": 1},
    }, 3),
    "sample-half-line": ("sample", {
        "model": _model("half_line", 1.5, 32, "quadratic"),
        "chain": {"sweeps": 300, "burn_in": 100, "thin": 2, "chains": 3},
    }, 3),
    # A strong-growth chain above beta = 2: V = x^2 admits every beta.
    "sample-line-beta4": ("sample", {
        "model": _model("real_line", 4.0, 24, "quadratic"),
        "chain": {"sweeps": 300, "burn_in": 100, "chains": 2},
    }, 3),
    "sample-circle": ("sample", {
        "model": _model("unit_circle", 2.0, 24, "spherical"),
        "chain": {"sweeps": 300, "burn_in": 100, "chains": 2},
    }, 3),
    # The one bounded real support: the chain rejects moves that leave [0, 1].
    "sample-segment": ("sample", {
        "model": _model("unit_segment", 2.0, 16, "quadratic"),
        "chain": {"sweeps": 300, "burn_in": 100, "chains": 2},
    }, 3),
    # No burn-in: the step scale never adapts and stays at its start, 1.
    "sample-no-burn-in": ("sample", {
        "model": _model("real_line", 2.0, 32, "cauchy"),
        "chain": {"sweeps": 200, "burn_in": 0, "chains": 2},
    }, 3),
    "equilibrium-plane": ("equilibrium", {
        "model": _model("complex_plane", 2.0, 1, "spherical"),
        "grid": {"window": [[-4.0, 4.0], [-4.0, 4.0]], "resolution": 60},
    }, 0),
    "equilibrium-line": ("equilibrium", {
        "model": _model("real_line", 1.0, 1, "quadratic"),
        "grid": {"window": [-3.0, 3.0], "resolution": 400},
    }, 0),
    **{f"verify-{seed}": ("verify", {}, seed) for seed in range(8)},
    "analyze-line": ("analyze", {
        "analyze": {"input": "sample-line/samples.csv", "reference": "cauchy"},
    }, 0),
    "analyze-plane": ("analyze", {
        "analyze": {"input": "sample-plane/samples.csv", "reference": "spherical"},
    }, 0),
}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out}: not empty", file=sys.stderr)
        return 2
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    (out / "configs").mkdir()
    for name, (command, config, seed) in RUNS.items():
        config_path = f"configs/{name}.json"
        (out / config_path).write_text(json.dumps({"command": command, **config}, indent=2) + "\n")
        args = [sys.executable, "-W", "error::RuntimeWarning", "-m", "loggas.cli", command,
                "--config", config_path, "--seed", str(seed), "--out", name]
        rc = subprocess.run(args, cwd=out, env=env).returncode
        print(f"{name}: exit {rc}")
        if rc != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
