"""The loggas benchmark: run one workload's CLI ops for a fixed time.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A single driver process runs the
workload's ops one after another (a closed loop with one client); each
``loggas`` command of an op is a fresh child process started through
``perfbench/child.py``, with ``src`` on PYTHONPATH and the environment
otherwise inherited.  New ops start while the next one is expected to end
within ``--seconds``.  Every op's outputs are checked (``workloads.py``);
an op fails on a nonzero exit or a failed check.

With ``--trace 0`` the last line of standard output holds every end-to-end
metric of BENCHMARK.json:

  setup_s      median over commands: spawn to entry of ``loggas.cli.run``
               (interpreter start-up, ``import loggas``, argument and config
               parsing); the first call into a layer follows
  work_s       median over ops: from ``cli.run`` entry to ``main`` returning,
               summed over the op's commands
  peak_rss_mb  median over ops of the largest max RSS of the op's commands

The line before it holds the run's details: workload figures (moves/s,
solve time, ...), quartiles and op counts, and the environment.  With
``--trace 1`` untraced and traced ops alternate, and every per-layer metric
of ``metrics.json`` is computed (``spans.py``) as a median over the traced
ops, with ``trace.overhead``, the traced over the untraced median
``work_s``, less 1.  The last line holds those named in BENCHMARK.json; the
times of layers that are idle on some workload go to the details line
under ``layer_times``.

Results and spans are also written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150.0

# Figures a workload's checks report per op, with their units (details only).
FIGURE_UNITS = {
    "moves_per_s": "moves/s",
    "solve_s": "s",
    "energy_err": "abs",
    "iterations": "count",
    "verify_s": "s",
    "analyze_rows_per_s": "rows/s",
    "verify_max_dev_over_tol": "ratio",
    "ks": "abs",
    "ks_radial": "abs",
    "ks_angular": "abs",
}


def run_child(command: list[str], op_dir: Path, index: int, trace: bool) -> dict:
    """Run ``loggas <command>`` in a fresh process; returns its stamps and usage."""
    stamps_path = op_dir / f"child{index}.json"
    argv = [sys.executable, str(HERE / "child.py"), str(stamps_path), str(int(trace)), "--",
            *command]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(op_dir / f"child{index}.stderr", "wb") as stderr:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=op_dir, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = {"command": command[0], "rc": proc.returncode, "spawn": spawn, "exit": exited,
             "rss_mb": usage.ru_maxrss / 1024.0}
    if stamps_path.is_file():
        recorded = json.loads(stamps_path.read_text())
        if not Path(recorded["loggas_file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"child imported loggas from {recorded['loggas_file']}")
        child.update(recorded)
    if proc.returncode != 0 or "stamps" not in child:
        child["error"] = (op_dir / f"child{index}.stderr").read_text()[-2000:]
    return child


def run_op(workload, run_input, op: workloads.Op, trace: bool) -> dict:
    """Run one op's commands in order and check their outputs."""
    op.dir.mkdir(parents=True)
    commands = workload.commands(op, run_input)
    children = []
    for i, command in enumerate(commands):
        child = run_child(command, op.dir, i, trace)
        children.append(child)
        if "error" in child:
            break
    result = {"seed": op.seed, "traced": trace, "children": children, "errors": [],
              "figures": {}}
    complete = len(children) == len(commands) and all(
        "run" in c.get("stamps", {}) for c in children)
    if complete and not any("error" in c for c in children):
        work = [c["stamps"]["end"] - c["stamps"]["run"] for c in children]
        try:
            result["errors"], result["figures"] = workload.check(op, run_input, work)
        except (OSError, ValueError, KeyError, TypeError) as e:
            result["errors"] = [f"check could not read the outputs: {e!r}"]
    else:
        result["errors"] = [f"{c['command']} exited {c['rc']}: {c['error']}"
                            for c in children if "error" in c]
    if complete:
        result["setup_s"] = [c["stamps"]["run"] - c["spawn"] for c in children]
        result["work_s"] = sum(c["stamps"]["end"] - c["stamps"]["run"] for c in children)
        result["peak_rss_mb"] = max(c["rss_mb"] for c in children)
        result["wall_s"] = children[-1]["exit"] - children[0]["spawn"]
    shutil.rmtree(op.dir)
    return result


def quartiles(values) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"n": len(values), "min": values[0], "q1": q[0], "median": q[1], "q3": q[2],
            "max": values[-1]}


def blas_info() -> dict:
    """BLAS library, configuration and thread count as NumPy loaded it."""
    info = {"name": None, "config": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
        import ctypes

        with open("/proc/self/maps") as maps:
            path = next((line.split()[-1] for line in maps if "openblas" in line), None)
        if path is not None:
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas_", "openblas_"):
                if hasattr(lib, prefix + "get_num_threads64_"):
                    info["threads"] = int(getattr(lib, prefix + "get_num_threads64_")())
                    get_config = getattr(lib, prefix + "get_config64_")
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                    break
    except (OSError, KeyError, AttributeError) as e:
        info["error"] = repr(e)
    return info


def environment() -> dict:
    """What RNG streams and BLAS results depend on, recorded with every result."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
    }


def measure(workload, seed: int, seconds: float, trace: bool, bench: dict) -> tuple[dict, dict]:
    """Run ``workload`` for ``seconds``; returns (result line, details)."""
    env = environment()
    workdir = OUT / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run_input = workload.prepare(seed, workdir)

    ops, durations = [], []
    deadline = time.monotonic() + seconds
    while True:
        k = len(ops)
        traced = trace and k % 2 == 1
        op = workloads.Op(workdir / f"op{k}", workloads.op_seed(seed, k))
        started = time.monotonic()
        ops.append(run_op(workload, run_input, op, traced))
        durations.append(time.monotonic() - started)
        if (not trace or k >= 1) and time.monotonic() + statistics.median(durations) > deadline:
            break
    shutil.rmtree(workdir)

    complete = [o for o in ops if "work_s" in o]
    untraced = [o for o in complete if not o["traced"]]
    traced_ops = [o for o in complete if o["traced"]]
    failed = sum(1 for o in ops if o["errors"])
    if not untraced or (trace and not traced_ops):
        raise RuntimeError("too few ops completed: " + "; ".join(ops[0]["errors"]))

    timings = {name: [o[name] for o in untraced]
               for name in ("work_s", "peak_rss_mb", "wall_s")}
    timings["setup_s"] = [s for o in untraced for s in o["setup_s"]]
    figures = {}
    for o in ops:
        for name, value in o["figures"].items():
            figures.setdefault(name, []).append(value)
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": len(ops),
        "ops_traced": sum(1 for o in ops if o["traced"]),
        "failed_ratio": failed / len(ops),
        "errors": [e for o in ops for e in o["errors"]][:20],
        "end_to_end": {name: quartiles(v) for name, v in timings.items()},
        "figures": {name: {"unit": FIGURE_UNITS[name], **quartiles(v)}
                    for name, v in figures.items()},
        "env": env,
    }
    if trace:
        declared = bench["per_layer"]
        layer_metrics = json.loads((HERE / "metrics.json").read_text())["per_layer"]
        values = spans.run_metrics(
            [spans.op_metrics(o["children"], layer_metrics) for o in traced_ops], layer_metrics)
        values["trace.overhead"] = (
            statistics.median(o["work_s"] for o in traced_ops) /
            statistics.median(timings["work_s"]) - 1.0
        )
        in_result = {m["name"] for m in declared}
        details["layer_times"] = {name: {"value": values[name], "unit": entry["unit"]}
                                  for name, entry in layer_metrics.items()
                                  if name not in in_result}
        spans_path = OUT / "spans" / f"{workload.name}-seed{seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps([o["children"] for o in traced_ops]))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        declared = bench["end_to_end"]
        values = {m["name"]: statistics.median(timings[m["name"]]) for m in declared}
    env["loadavg_end"] = list(os.getloadavg())
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "loggas" / "__init__.py").is_file():
        print(f"perfbench: no loggas sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, details = measure(workloads.make(args.workload), args.seed, args.seconds,
                              bool(args.trace), bench)
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"result": result, "details": details}, indent=2) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
