"""Run a fixed set of ``loggas`` commands whose outputs serve as a golden record.

usage: python tools/golden_runs.py OUT
       python tools/golden_runs.py --compare A B

Each command runs in a fresh process on this checkout's ``src``, with
``cwd=OUT`` and relative ``--out`` and ``input`` paths, so every output
file, ``manifest.json`` included, depends only on the code.  Run it on two
commits and compare with ``diff -r``: an empty diff means the change kept
every output byte for byte.  OUT must be empty or absent.

``--compare A B`` compares two such records.  ``stats.json``,
``report.json``, ``measure.csv`` and ``verify.json``, whose last digits
may change with NumPy's SIMD dispatch, are compared number by number
within ABS_TOL + REL_TOL * max(|a|, |b|); every other file byte for byte.
It prints each differing or missing file with its first differing value
and exits 1 if there is one, 0 otherwise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The output kinds whose last digits may change with NumPy's SIMD dispatch
# (README, "Dispatch"); --compare reads them as numbers.
NUMERIC_FILES = {"stats.json", "report.json", "measure.csv", "verify.json"}
# With every dispatch target off, values moved by up to 3.4e-15 on measure
# weights, 1.4e-14 on identity-suite deviations (which measure rounding of
# quantities far larger than themselves) and 1.6e-15 relative on log-density
# summaries; the tolerance is several times each.
ABS_TOL = 1e-13
REL_TOL = 1e-14


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
    # Above 10,000 atoms, where OpenBLAS would split a dot product across threads.
    "equilibrium-plane-101": ("equilibrium", {
        "model": _model("complex_plane", 2.0, 1, "spherical"),
        "grid": {"window": [[-4.0, 4.0], [-4.0, 4.0]], "resolution": 101},
    }, 0),
    "equilibrium-line": ("equilibrium", {
        "model": _model("real_line", 1.0, 1, "quadratic"),
        "grid": {"window": [-3.0, 3.0], "resolution": 400},
    }, 0),
    # A bounded support: the window is the whole segment, V = 0.
    "equilibrium-segment": ("equilibrium", {
        "model": {"support": "unit_segment", "beta": 1.0, "n": 1,
                  "potential": {"name": "flat", "params": {}}},
        "grid": {"window": [0.0, 1.0], "resolution": 400},
    }, 0),
    **{f"verify-{seed}": ("verify", {}, seed) for seed in range(8)},
    "analyze-line": ("analyze", {
        "analyze": {"input": "sample-line/samples.csv", "reference": "cauchy"},
    }, 0),
    "analyze-plane": ("analyze", {
        "analyze": {"input": "sample-plane/samples.csv", "reference": "spherical"},
    }, 0),
}


def _close(a: float, b: float) -> bool:
    both_nan = a != a and b != b
    return a == b or both_nan or abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_difference(a, b, path="$"):
    """The first difference between two parsed JSON values, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return f"{path}: keys {list(a)} vs {list(b)}"
        for key in a:
            diff = _json_difference(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: {len(a)} vs {len(b)} items"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = _json_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if _is_number(a) and _is_number(b) and _close(a, b):
        return None
    if type(a) is type(b) and a == b:
        return None
    return f"{path}: {a!r} vs {b!r}"


def _csv_difference(a: str, b: str):
    """The first difference between two CSV texts whose numbers may round apart, or None."""
    rows_a, rows_b = a.splitlines(), b.splitlines()
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a)} vs {len(rows_b)} lines"
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), 1):
        fields_a, fields_b = row_a.split(","), row_b.split(",")
        if len(fields_a) != len(fields_b):
            return f"line {line}: {len(fields_a)} vs {len(fields_b)} fields"
        for column, (x, y) in enumerate(zip(fields_a, fields_b), 1):
            if x == y:
                continue
            try:
                close = _close(float(x), float(y))
            except ValueError:
                close = False
            if not close:
                return f"line {line}, field {column}: {x} vs {y}"
    return None


def _bytes_difference(a: bytes, b: bytes):
    """The first differing line of two byte strings, or None if they are equal."""
    if a == b:
        return None
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for line, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x != y:
            return f"line {line}: {x.decode(errors='replace')} vs {y.decode(errors='replace')}"
    return f"{len(lines_a)} vs {len(lines_b)} lines"


def compare(a: Path, b: Path) -> int:
    """Compare two golden records; print each failure and return the exit status."""
    for root in (a, b):
        if not root.is_dir():
            print(f"{root}: not a directory", file=sys.stderr)
            return 2
    names = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()})
    failures = identical = 0
    for name in names:
        path_a, path_b = a / name, b / name
        if not (path_a.is_file() and path_b.is_file()):
            diff = f"missing in {a if not path_a.is_file() else b}"
        else:
            bytes_a, bytes_b = path_a.read_bytes(), path_b.read_bytes()
            if bytes_a == bytes_b:
                identical += 1
                continue
            if name.name not in NUMERIC_FILES:
                diff = _bytes_difference(bytes_a, bytes_b)
            elif name.suffix == ".json":
                diff = _json_difference(json.loads(bytes_a), json.loads(bytes_b))
            else:
                diff = _csv_difference(bytes_a.decode(), bytes_b.decode())
        if diff:
            failures += 1
            print(f"{name}: {diff}")
    print(f"{len(names)} files: {identical} byte-identical, "
          f"{len(names) - identical - failures} within tolerance, {failures} differ")
    return 1 if failures else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
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
