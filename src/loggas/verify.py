"""Seeded verification suites for the exact compactification identities.

Each suite draws random inputs, evaluates both sides of an identity
independently, and records the maximum deviation:

  metric    |T(x) - T(y)|_R3 vs the planar chord formula, |x|, |y| up to 1e6
  pole      1 - |T(x)|^2 vs 1/(1 + |x|^2)
  kernel    planar pair kernel vs sphere pair kernel on projected pairs
  density   Gibbs log-weight vs its sphere-side change of variables
  energy    discrete measure energy vs the energy of its push-forward

Kernel pairs are drawn at modulus <= 5 and with chordal separation at
least 1e-3: both kernels diverge at coincidence, and the float error of
comparing independent evaluations scales like ulp/separation through
the log term and like |V(x)| * ulp through the sphere-side potential.
"""

from __future__ import annotations

import numpy as np

from .energy import (
    _pair_distances,
    _pair_kernel,
    log_density,
    log_density_sphere,
    measure_energy,
)
from .geometry import chordal_distance, compactified_potential, project_array, pushforward
from .model import (
    DiscreteMeasure,
    GasModel,
    Support,
    cauchy_potential,
    quadratic_potential,
    spherical_potential,
)

# Suite sizes: draws per suite, particles per configuration, atoms per measure.
PAIRS = 100_000
CONFIGS, CONFIG_SIZE = 60, 50
MEASURES, MEASURE_ATOMS = 20, 100

_MODELS = {
    "cauchy": lambda n=1: GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), n),
    "spherical": lambda n=1: GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), n),
    "quadratic": lambda n=1: GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), n),
}


def _wide_complex(rng, count):
    mags = 10.0 ** rng.uniform(-3.0, 6.0, count)
    phases = np.exp(2j * np.pi * rng.random(count))
    return mags * phases


def metric_identity_deviation(rng, count) -> float:
    xs = _wide_complex(rng, count)
    ys = _wide_complex(rng, count)
    diff = project_array(xs) - project_array(ys)
    euclid = np.sqrt(np.sum(diff * diff, axis=-1))
    return float(np.max(np.abs(euclid - chordal_distance(xs, ys))))


def pole_identity_deviation(rng, count) -> float:
    xs = _wide_complex(rng, count)
    zs = project_array(xs)
    lhs = 1.0 - np.sum(zs * zs, axis=-1)
    rhs = 1.0 / (1.0 + np.abs(xs) ** 2)
    return float(np.max(np.abs(lhs - rhs)))


def _moderate_pairs(rng, count, real: bool):
    """Pairs with modulus <= 5 and chordal separation >= 1e-3."""
    xs = np.empty(count, dtype=complex)
    ys = np.empty(count, dtype=complex)
    filled = 0
    while filled < count:
        todo = count - filled
        mags_x = 10.0 ** rng.uniform(-2.0, 0.7, todo)
        mags_y = 10.0 ** rng.uniform(-2.0, 0.7, todo)
        if real:
            a = mags_x * rng.choice([-1.0, 1.0], todo)
            b = mags_y * rng.choice([-1.0, 1.0], todo)
        else:
            a = mags_x * np.exp(2j * np.pi * rng.random(todo))
            b = mags_y * np.exp(2j * np.pi * rng.random(todo))
        keep = chordal_distance(a, b) >= 1e-3
        k = int(keep.sum())
        xs[filled : filled + k] = a[keep]
        ys[filled : filled + k] = b[keep]
        filled += k
    return xs, ys


def kernel_transport_deviation(rng, count) -> float:
    worst = 0.0
    for make in _MODELS.values():
        model = make()
        real = model.support is Support.REAL_LINE
        xs, ys = _moderate_pairs(rng, count, real)
        planar = _pair_kernel(
            model.beta, np.abs(xs - ys),
            model.potential_values(xs), model.potential_values(ys),
        )
        pot = compactified_potential(model)
        zx = project_array(xs)
        zy = project_array(ys)
        diff = zx - zy
        sphere = _pair_kernel(
            model.beta, np.sqrt(np.sum(diff * diff, axis=-1)),
            pot.on_sphere_array(zx), pot.on_sphere_array(zy),
        )
        worst = max(worst, float(np.max(np.abs(planar - sphere))))
    return worst


def _random_configuration(rng, n, real: bool) -> np.ndarray:
    while True:
        if real:
            pts = rng.standard_normal(n).astype(complex)
        else:
            pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if np.min(_pair_distances(pts)[2]) > 1e-6:
            return pts


def density_transport_deviation(rng, configs) -> float:
    worst = 0.0
    for make in _MODELS.values():
        model = make(CONFIG_SIZE)
        real = model.support is Support.REAL_LINE
        for _ in range(configs):
            config = _random_configuration(rng, CONFIG_SIZE, real)
            lhs = log_density(config, model)
            rhs = log_density_sphere(config, model)
            worst = max(worst, abs(lhs - rhs))
    return worst


def energy_transport_deviation(rng, measures) -> float:
    worst = 0.0
    for make in _MODELS.values():
        model = make()
        real = model.support is Support.REAL_LINE
        for _ in range(measures):
            pts = _random_configuration(rng, MEASURE_ATOMS, real)
            w = rng.exponential(size=MEASURE_ATOMS)
            w /= w.sum()
            mu = DiscreteMeasure(pts, w)
            plane = measure_energy(mu, model)
            sphere = measure_energy(pushforward(mu), model)
            worst = max(worst, abs(plane - sphere))
    return worst


SUITE_TOLERANCES = {
    "metric": 1e-12,
    "pole": 1e-12,
    "kernel_transport": 1e-12,
    "density_transport": 1e-10,
    "energy_transport": 1e-10,
}


def run_identity_suites(seed: int = 0) -> dict:
    """Run every identity suite; returns per-suite deviations and verdicts."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1D]))
    deviations = {
        "metric": metric_identity_deviation(rng, PAIRS),
        "pole": pole_identity_deviation(rng, PAIRS),
        "kernel_transport": kernel_transport_deviation(rng, PAIRS),
        "density_transport": density_transport_deviation(rng, CONFIGS),
        "energy_transport": energy_transport_deviation(rng, MEASURES),
    }
    suites = {}
    for name, dev in deviations.items():
        tol = SUITE_TOLERANCES[name]
        suites[name] = {"max_deviation": dev, "tolerance": tol, "pass": dev <= tol}
    return {
        "seed": int(seed),
        "pairs": PAIRS,
        "suites": suites,
        "pass": all(s["pass"] for s in suites.values()),
    }
