"""Time the sampler, solver and identity layers in process; write BENCH_<label>.json.

usage: python tools/bench.py --label LABEL [--tiny]

Imports loggas from this checkout's ``src`` and writes BENCH_<LABEL>.json
at the checkout's root.  The file records the environment (Python, NumPy
and SciPy versions, CPU model, the CPUs this process may run on and
NumPy's dispatch targets in effect) and one entry per figure: its
``value``, the median over the repeats; its ``unit``; the ``repeats``; the
``spread``, the least and greatest of the repeats; and the ``call`` that
made it.  The figures:

- µs per move per chain of ``mh_chains`` on the Cauchy line at beta = 2
  and the spherical plane at beta = 1.5, by particle count n and chain
  count C: the marginal cost (t(60 sweeps) - t(20 sweeps)) / (40 n C),
  which leaves out each run's fixed cost (the starts' log-densities, the
  buffers, the burn-in);
- µs per ``GridKernel`` product, per ``project_to_simplex`` call and per
  ``_spectral_norm`` call on the spherical plane gas, at m x m atoms;
- ``grid_minimize`` wall time, iterations and ``GridKernel`` products per
  solve, on the Cauchy line, the spherical plane at tol 1e-4 and 1e-6, and
  the plane with V = 3|z|^2 + |z|^4;
- µs per ``project_array`` call on wide-modulus complex points and on
  real points, moduli 1e-3 to 1e12, so both sides of the large-modulus
  switch;
- µs per call of each ``verify.*_deviation`` suite at ``loggas verify``'s
  own sizes, each call with a fresh ``np.random.default_rng(0)``, so every
  repeat makes the same draws.

``--tiny`` runs small sizes only, to check that every figure is made.
Compare two files only if one machine made both in one session, from
alternating runs.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from loggas import (  # noqa: E402
    ChainParams,
    GasModel,
    GridSpec,
    PotentialSpec,
    Support,
    cauchy_potential,
    grid_minimize,
    mh_chains,
    spherical_potential,
)
from loggas import equilibrium, geometry, sampler, verify  # noqa: E402

REPEATS = 7
# A repeat of a per-call figure runs the call often enough to last this long.
MIN_REPEAT_S = 0.05

LINE = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1)
PLANE = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 1)
QUARTIC_PLANE = GasModel(
    Support.COMPLEX_PLANE, 2.0, PotentialSpec("quartic", (0.0, 3.0, 1.0), "r2"), 1)

# The sweep counts of the chain figures' two runs, each with this many
# burn-in sweeps.
CHAIN_SWEEPS = (20, 60)
CHAIN_BURN_IN = 10

# figure group -> sizes: (n, C) pairs for the chain figures; planar m for
# the per-call figures and the plane solves (at tol 1e-4, "plane_tight" at
# tol 1e-6), atom count for the line solves; for the identity layer the
# points per projection call and each suite's own count argument.
SIZES = {
    "chain": [(n, chains) for n in (64, 256) for chains in (1, 8)],
    "per_call": (60, 120, 240), "line": (400, 3200), "plane": (60, 120),
    "plane_tight": (60,), "quartic": (60,),
    "identity": {"points": 100_000, "pairs": verify.PAIRS, "configs": verify.CONFIGS,
                 "measures": verify.MEASURES},
}
TINY_SIZES = {
    "chain": [(16, 1), (16, 2)],
    "per_call": (16,), "line": (64,), "plane": (16,), "plane_tight": (16,), "quartic": (16,),
    "identity": {"points": 1000, "pairs": 1000, "configs": 2, "measures": 2},
}
# identity suite -> (its function in loggas.verify, the SIZES key of its count)
SUITES = {
    "metric": (verify.metric_identity_deviation, "pairs"),
    "pole": (verify.pole_identity_deviation, "pairs"),
    "kernel_transport": (verify.kernel_transport_deviation, "pairs"),
    "density_transport": (verify.density_transport_deviation, "configs"),
    "energy_transport": (verify.energy_transport_deviation, "measures"),
}


def _line_grid(atoms: int) -> GridSpec:
    return GridSpec((-20.0, 20.0), atoms)


def _plane_grid(m: int, tol: float = 1e-4) -> GridSpec:
    return GridSpec(((-4.0, 4.0), (-4.0, 4.0)), m, tol=tol)


def environment() -> dict:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "cpu_model": cpu_model,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy_dispatch": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
    }


def _figure(samples, unit: str, call: str) -> dict:
    values = sorted(samples)
    return {
        "value": statistics.median(values),
        "unit": unit,
        "repeats": len(values),
        "spread": [values[0], values[-1]],
        "call": call,
    }


def _per_call_us(fn, call: str) -> dict:
    """µs per call of ``fn``: each repeat times a loop of at least MIN_REPEAT_S.

    The loop length doubles until one loop lasts that long, which also warms
    the call up.
    """
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - start >= MIN_REPEAT_S:
            break
        loops *= 2
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - start) / loops * 1e6)
    return _figure(samples, "us", f"{call}, {loops} calls per repeat")


def chain_figures(n: int, chains: int) -> dict:
    short, long = CHAIN_SWEEPS
    out = {}
    for name, model in (("line", replace(LINE, n=n)), ("plane", replace(PLANE, beta=1.5, n=n))):
        inits = [sampler.initial_configuration(model, np.random.default_rng([0, j]))
                 for j in range(chains)]

        def run(sweeps):
            start = time.perf_counter()
            mh_chains(model, inits, ChainParams(sweeps, CHAIN_BURN_IN), list(range(chains)))
            return time.perf_counter() - start

        run(short)  # warm-up
        samples = []
        for _ in range(REPEATS):
            t_short = run(short)
            samples.append((run(long) - t_short) / ((long - short) * n * chains) * 1e6)
        call = (f"mh_chains({model.support.value}, beta = {model.beta:g}, {model.potential.name}"
                f", n = {n}, C = {chains}), (t({long} sweeps) - t({short} sweeps))"
                f" / ({long - short} n C), burn-in {CHAIN_BURN_IN}")
        out[f"sampler.mh_chains.{name}-{n}x{chains}"] = _figure(samples, "us", call)
    return out


def _counted_solve(model: GasModel, grid: GridSpec) -> tuple[int, int]:
    """Iterations and GridKernel products of one solve, the step's power
    iteration included: every product goes through ``GridKernel.log_part``."""
    products = 0
    product = equilibrium.GridKernel.log_part

    def counted(self, w):
        nonlocal products
        products += 1
        return product(self, w)

    equilibrium.GridKernel.log_part = counted
    try:
        _, report = grid_minimize(model, grid)
    finally:
        equilibrium.GridKernel.log_part = product
    return report.iterations, products


def per_call_figures(m: int) -> dict:
    grid = _plane_grid(m)
    q = equilibrium.GridKernel(PLANE, grid)
    size = len(q.atoms)
    w = np.full(size, 1.0 / size)
    v = np.random.default_rng(0).standard_normal(size)
    where = f"spherical plane, [-4, 4]^2, m = {m}"
    return {
        f"grid_kernel.product.plane-{m}": _per_call_us(
            lambda: q(w), f"GridKernel({where})(w), w uniform"),
        f"equilibrium.project_to_simplex.plane-{m}": _per_call_us(
            lambda: equilibrium.project_to_simplex(v),
            f"project_to_simplex(v), v standard normal of {size} entries"),
        f"equilibrium.spectral_norm.plane-{m}": _per_call_us(
            lambda: equilibrium._spectral_norm(q), f"_spectral_norm(GridKernel({where}))"),
    }


def solve_figures(name: str, model: GasModel, grid: GridSpec, where: str) -> dict:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        grid_minimize(model, grid)
        samples.append(time.perf_counter() - start)
    iterations, products = _counted_solve(model, grid)
    call = f"grid_minimize({where}, tol = {grid.tol:g}), uniform start"
    return {
        f"grid_minimize.wall.{name}": _figure(samples, "s", call),
        f"grid_minimize.iterations.{name}": _figure([iterations], "count", call),
        f"grid_minimize.products.{name}": _figure([products], "count", call),
    }


def identity_figures(sizes: dict) -> dict:
    points = sizes["points"]
    rng = np.random.default_rng(0)
    mags = 10.0 ** rng.uniform(-3.0, 12.0, points)
    wide = mags * np.exp(2j * np.pi * rng.random(points))
    real = mags * rng.choice([-1.0, 1.0], points)
    out = {
        f"geometry.project_array.complex-{points}": _per_call_us(
            lambda: geometry.project_array(wide),
            f"project_array(x), {points} complex x, |x| log-uniform in [1e-3, 1e12]"),
        f"geometry.project_array.real-{points}": _per_call_us(
            lambda: geometry.project_array(real),
            f"project_array(x), {points} real x, |x| log-uniform in [1e-3, 1e12]"),
    }
    for suite, (fn, kind) in SUITES.items():
        count = sizes[kind]
        out[f"verify.{suite}.{kind}-{count}"] = _per_call_us(
            lambda fn=fn, count=count: fn(np.random.default_rng(0), count),
            f"verify.{fn.__name__}(np.random.default_rng(0), {count})")
    return out


def figures(sizes: dict) -> dict:
    out = {}
    for n, chains in sizes["chain"]:
        out.update(chain_figures(n, chains))
    for m in sizes["per_call"]:
        out.update(per_call_figures(m))
    for atoms in sizes["line"]:
        out.update(solve_figures(
            f"line-{atoms}", LINE, _line_grid(atoms), f"Cauchy line, [-20, 20], {atoms} atoms"))
    for m in sizes["plane"]:
        out.update(solve_figures(
            f"plane-{m}", PLANE, _plane_grid(m), f"spherical plane, [-4, 4]^2, m = {m}"))
    for m in sizes["plane_tight"]:
        out.update(solve_figures(
            f"plane-{m}-tol-1e-6", PLANE, _plane_grid(m, tol=1e-6),
            f"spherical plane, [-4, 4]^2, m = {m}"))
    for m in sizes["quartic"]:
        out.update(solve_figures(
            f"quartic-plane-{m}", QUARTIC_PLANE, GridSpec(((-7.0, 7.0), (-7.0, 7.0)), m),
            f"V = 3|z|^2 + |z|^4 plane, [-7, 7]^2, m = {m}"))
    out.update(identity_figures(sizes["identity"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--tiny", action="store_true", help="small sizes only")
    args = parser.parse_args(argv)
    record = {
        "label": args.label,
        "sizes": "tiny" if args.tiny else "full",
        "environment": environment(),
        "figures": figures(TINY_SIZES if args.tiny else SIZES),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
