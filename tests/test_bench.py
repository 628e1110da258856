"""``tools/bench.py --tiny``: every figure is made, finite and has a unit."""

import importlib.util
import json
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", TOOL)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_tiny_run_writes_every_figure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "REPEATS", 2)
    assert bench.main(["--label", "t", "--tiny"]) == 0
    path = tmp_path / "BENCH_t.json"
    assert capsys.readouterr().out.strip() == str(path)
    record = json.loads(path.read_text())
    assert record["label"] == "t" and record["sizes"] == "tiny"
    assert set(record["environment"]) == {
        "python", "numpy", "scipy", "cpu_model", "affinity_cpus", "numpy_dispatch"}
    figures = record["figures"]
    assert sorted(figures) == sorted(
        [f"sampler.mh_chains.{where}-16x{chains}" for where in ("line", "plane")
         for chains in (1, 2)]
        + [f"{name}.plane-16" for name in (
            "grid_kernel.product", "equilibrium.project_to_simplex", "equilibrium.spectral_norm")]
        + [f"grid_minimize.{kind}.{where}" for kind in ("wall", "iterations", "products")
           for where in ("line-64", "plane-16", "plane-16-tol-1e-6", "quartic-plane-16")]
        + ["geometry.project_array.complex-1000", "geometry.project_array.real-1000",
           "verify.metric.pairs-1000", "verify.pole.pairs-1000",
           "verify.kernel_transport.pairs-1000", "verify.density_transport.configs-2",
           "verify.energy_transport.measures-2"]
    )
    for name, figure in figures.items():
        assert math.isfinite(figure["value"]) and figure["value"] > 0, name
        assert figure["unit"] in {"us", "s", "count"}, name
        low, high = figure["spread"]
        assert low <= figure["value"] <= high, name
        assert figure["repeats"] == (1 if figure["unit"] == "count" else 2), name
        assert figure["call"], name
    # 22 products (the power iteration's 20, the start's and the final
    # energy's) and one per projection, of which each iteration makes one or two
    for where in ("line-64", "plane-16", "plane-16-tol-1e-6", "quartic-plane-16"):
        iterations = figures[f"grid_minimize.iterations.{where}"]["value"]
        assert figures[f"grid_minimize.products.{where}"]["value"] >= 22 + iterations
