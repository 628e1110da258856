"""``tools/golden_runs.py --compare``: bytes where outputs are dispatch-stable,
numbers within the stated tolerance where they are not."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_runs.py"
_spec = importlib.util.spec_from_file_location("golden_runs", TOOL)
golden_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_runs)

SAMPLE_VALUE = -0.7310585786300049
WEIGHT = 0.0010650946437174241


def _record(root: Path, sample=SAMPLE_VALUE, weight=WEIGHT, report=None):
    """A small record shaped like a golden run's: one sample and one solve."""
    (root / "sample-line").mkdir(parents=True)
    (root / "sample-line" / "samples.csv").write_text(
        f"chain,sweep,particle,re,im\n0,0,0,{sample!r},0.0\n0,0,1,0.25,0.0\n"
    )
    (root / "sample-line" / "stats.json").write_text(json.dumps(
        {"chains": [{"acceptance_rate": 0.29, "trace_drift": 6.5e-15,
                     "log_density_trace_summary": {"mean": -2642.248918628595}}]}, indent=2))
    (root / "equilibrium-plane").mkdir()
    (root / "equilibrium-plane" / "measure.csv").write_text(
        f"re,im,weight\n-3.9,-3.9,{weight!r}\n-3.8,-3.9,0.00015187429005296293\n"
    )
    report = {"converged": True, "energy": 0.499376389668409, "gap": 9.875e-05,
              "iterations": 308, **(report or {})}
    (root / "equilibrium-plane" / "report.json").write_text(json.dumps(report, indent=2))
    return root


def _compare(tmp_path, capsys, **change):
    a = _record(tmp_path / "a")
    b = _record(tmp_path / "b", **change)
    status = golden_runs.compare(a, b)
    return status, capsys.readouterr().out


def test_identical_records_pass(tmp_path, capsys):
    status, out = _compare(tmp_path, capsys)
    assert status == 0
    assert out.strip() == "4 files: 4 byte-identical, 0 within tolerance, 0 differ"


def test_one_ulp_in_samples_fails(tmp_path, capsys):
    status, out = _compare(tmp_path, capsys, sample=math.nextafter(SAMPLE_VALUE, 0.0))
    assert status == 1
    assert "sample-line/samples.csv: line 2: 0,0,0,-0.7310585786300049,0.0 vs 0,0,0,-0.7310585786300048,0.0" in out


def test_weight_moved_by_1e9_fails(tmp_path, capsys):
    status, out = _compare(tmp_path, capsys, weight=WEIGHT + 1e-9)
    assert status == 1
    assert f"equilibrium-plane/measure.csv: line 2, field 3: {WEIGHT!r} vs {WEIGHT + 1e-9!r}" in out


def test_weight_moved_by_3e15_passes(tmp_path, capsys):
    status, out = _compare(tmp_path, capsys, weight=WEIGHT + 3e-15)
    assert status == 0
    assert out.strip() == "4 files: 3 byte-identical, 1 within tolerance, 0 differ"


def test_measured_dispatch_moves_pass():
    # 1.6e-15 relative on a log-density summary; 1.4e-14 on an identity-suite deviation
    assert golden_runs._json_difference(
        {"mean": -32248.204799402574, "max_deviation": 7.105427357601002e-14},
        {"mean": -32248.204799402523, "max_deviation": 5.684341886080802e-14},
    ) is None


@pytest.mark.parametrize("report, message", [
    ({"iterations": 309}, "$.iterations: 308 vs 309"),
    ({"gap": 9.9e-05}, "$.gap: 9.875e-05 vs 9.9e-05"),
    ({"converged": False}, "$.converged: True vs False"),
    ({"extra": 1}, "$: keys ['converged', 'energy', 'gap', 'iterations'] vs "
                   "['converged', 'energy', 'gap', 'iterations', 'extra']"),
])
def test_report_changes_fail(tmp_path, capsys, report, message):
    status, out = _compare(tmp_path, capsys, report=report)
    assert status == 1
    assert f"equilibrium-plane/report.json: {message}" in out


def test_missing_file_and_changed_row_count_fail(tmp_path, capsys):
    a = _record(tmp_path / "a")
    b = _record(tmp_path / "b")
    (b / "sample-line" / "stats.json").unlink()
    with open(b / "equilibrium-plane" / "measure.csv", "a") as f:
        f.write("-3.7,-3.9,0.0\n")
    assert golden_runs.compare(a, b) == 1
    out = capsys.readouterr().out
    assert f"sample-line/stats.json: missing in {b}" in out
    assert "equilibrium-plane/measure.csv: 3 vs 4 lines" in out
    assert out.splitlines()[-1] == "4 files: 2 byte-identical, 0 within tolerance, 2 differ"


def test_list_length_fails(tmp_path, capsys):
    a = _record(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    stats = b / "sample-line" / "stats.json"
    data = json.loads(stats.read_text())
    data["chains"].append(data["chains"][0])
    stats.write_text(json.dumps(data, indent=2))
    assert golden_runs.compare(a, b) == 1
    assert "sample-line/stats.json: $.chains: 1 vs 2 items" in capsys.readouterr().out


def test_usage(capsys):
    assert golden_runs.main(["--compare", "only-one"]) == 2
    assert golden_runs.main(["--compare"]) == 2
    assert "--compare A B" in capsys.readouterr().err
