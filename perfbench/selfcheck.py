"""Self-check of the benchmark at tiny sizes (about a minute on 2 cores).

usage: python3 perfbench/selfcheck.py

Asserts that
  * BENCHMARK.json keeps the benchmark contract's shape and limits, and
    metrics.json maps its per-layer metrics and the layer times;
  * every workload, shrunk, passes its output checks and emits every
    end-to-end metric (trace 0) and every per-layer metric (trace 1) with
    its unit, and each per-layer metric is nonzero on the workloads
    metrics.json says it moves on;
  * no time in a result line is 0 (idle-layer times go to the details);
  * the output check trips: an ``analyze`` CSV drawn from a normal law
    instead of the Cauchy law counts every op as failed;
  * without ``src/loggas`` the benchmark exits nonzero and prints nothing.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import run
import spans
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TIME_UNITS = {"s", "ms", "us"}


def check_benchmark_file(bench: dict, mapping: dict) -> None:
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    runs = 4 + 22 * len(bench["workloads"])
    assert runs * (bench["run_seconds"] + 4) < 3420, "the driver's runs would not fit"
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
        names.append(m["name"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher")
        names.append(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names))

    layer_metrics = mapping["per_layer"]
    for m in bench["per_layer"]:
        entry = layer_metrics[m["name"]]
        assert (entry["unit"], entry["better"]) == (m["unit"], m["better"]), m
    in_result = {m["name"] for m in bench["per_layer"]}
    assert all(e["unit"] in TIME_UNITS for n, e in layer_metrics.items() if n not in in_result)
    e2e = {m["name"] for m in bench["end_to_end"]}
    for name, entry in layer_metrics.items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(entry["unit"]), name
        assert entry["moves"] is None or entry["moves"] in e2e, name
        assert set(entry["workloads"]) <= set(workloads.NAMES), name
    assert {f"{layer}.self_s" for layer in spans.LAYERS} <= set(layer_metrics)


def check_workload(name: str, bench: dict, mapping: dict) -> None:
    workload = workloads.make(name, tiny=True)
    for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
        result, details = run.measure(workload, seed=7, seconds=0.1, trace=trace, bench=bench)
        assert result["correct"] and result["failed"] == 0, details["errors"]
        assert result["attempted"] == details["ops"] >= 1 + trace
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
        values = {n: m["value"] for n, m in result["metrics"].items()}
        units = {n: m["unit"] for n, m in result["metrics"].items()}
        assert all(v != 0 for n, v in values.items() if units[n] in TIME_UNITS), values
        if trace:
            layer_times = details["layer_times"]
            assert {n: m["unit"] for n, m in layer_times.items()} == {
                n: e["unit"] for n, e in mapping["per_layer"].items() if n not in values}
            values.update({n: m["value"] for n, m in layer_times.items()})
            idle = [n for n, e in mapping["per_layer"].items()
                    if name in e["workloads"] and values[n] == 0]
            assert not idle, f"{name}: zero per-layer metrics {idle}"
            assert abs(values["trace.remainder_frac"]) < 0.05, values["trace.remainder_frac"]
        else:
            assert all(v > 0 for v in values.values()), values
        print(f"ok  {name} trace={int(trace)}: {result['attempted']} ops, "
              f"{len(values)} metrics", flush=True)


def check_failure_trips(bench: dict) -> None:
    wrong = workloads.make("verify-analyze", tiny=True, law="normal")
    result, details = run.measure(wrong, seed=7, seconds=0.1, trace=False, bench=bench)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1
    assert any("statistic" in e for e in details["errors"]), details["errors"]
    print(f"ok  non-Cauchy analyze input: {result['failed']}/{result['attempted']} ops failed")


def check_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    command = json.loads((bare / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", workloads.NAMES[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)
    print(f"ok  without src/loggas: exit {proc.returncode}, no result printed")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((run.HERE / "metrics.json").read_text())
    check_benchmark_file(bench, mapping)
    print("ok  BENCHMARK.json and metrics.json")
    for name in workloads.NAMES:
        check_workload(name, bench, mapping)
    check_failure_trips(bench)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
