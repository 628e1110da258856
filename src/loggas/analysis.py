"""Closed-form limit laws, goodness-of-fit distances and rate-function gaps.

For the two beta = 2 reference models the limiting measure is known in
closed form (a Cauchy law on the line, a heavy-tailed radial law on the
plane; their sphere-side push-forwards are the uniform measures on the
meridian circle and on the whole sphere), and so is its energy.  Weak
convergence of the empirical measures is checked with the
Kolmogorov-Smirnov statistic against those CDFs (radial and angular
reductions on the plane, exploiting rotational invariance).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .energy import measure_energy
from .errors import EmptySample, NoClosedForm, NoReference
from .model import DiscreteMeasure, GasModel, Support


@dataclass(frozen=True)
class ClosedFormLaw:
    """A limiting law with a density and a one-dimensional CDF reduction.

    ``variable`` names the reduction the CDF applies to: "x" for a real
    coordinate, "r" for the modulus, "angle" for the position angle on
    the meridian circle, "height" for the third sphere coordinate.
    """

    name: str
    density: Callable
    cdf: Callable
    variable: str


def cauchy_law() -> ClosedFormLaw:
    return ClosedFormLaw(
        name="cauchy",
        density=lambda x: 1.0 / (np.pi * (1.0 + np.square(x))),
        cdf=lambda x: 0.5 + np.arctan(x) / np.pi,
        variable="x",
    )


def spherical_law() -> ClosedFormLaw:
    """Area density 1/(pi (1+|z|^2)^2) on the plane; CDF is radial."""
    return ClosedFormLaw(
        name="spherical",
        density=lambda z: 1.0 / (np.pi * np.square(1.0 + np.abs(z) ** 2)),
        cdf=lambda r: np.square(r) / (1.0 + np.square(r)),
        variable="r",
    )


def circle_uniform_law() -> ClosedFormLaw:
    """Uniform measure on the meridian circle, parameterized by angle in [0, 2pi)."""
    return ClosedFormLaw(
        name="circle_uniform",
        density=lambda a: np.full_like(np.asarray(a, dtype=float), 1.0 / (2.0 * np.pi)),
        cdf=lambda a: np.asarray(a, dtype=float) / (2.0 * np.pi),
        variable="angle",
    )


def sphere_uniform_law() -> ClosedFormLaw:
    """Uniform measure on the sphere; the height coordinate is uniform on [0, 1]."""
    return ClosedFormLaw(
        name="sphere_uniform",
        density=lambda z: np.full_like(np.asarray(z, dtype=float), 1.0 / np.pi),
        cdf=lambda t: np.clip(np.asarray(t, dtype=float), 0.0, 1.0),
        variable="height",
    )


def _is_beta_two(model: GasModel) -> bool:
    return abs(model.beta - 2.0) <= 1e-12


def closed_form(model: GasModel, side: str = "plane") -> ClosedFormLaw:
    """The known limiting law of a built-in model, or NoClosedForm."""
    name = model.potential.name
    if name == "cauchy" and model.support is Support.REAL_LINE and _is_beta_two(model):
        return cauchy_law() if side == "plane" else circle_uniform_law()
    if name == "spherical" and model.support is Support.COMPLEX_PLANE and _is_beta_two(model):
        return spherical_law() if side == "plane" else sphere_uniform_law()
    raise NoClosedForm(f"no closed-form limit for ({name}, beta={model.beta})")


# Converged reference energies of the two closed-form models: the log
# energy of the uniform measure on a circle of radius 1/2 and on the
# sphere of radius 1/2.
REFERENCE_ENERGIES = {"cauchy": math.log(2.0), "spherical": 0.5}


def reference_energy(model: GasModel) -> float | None:
    try:
        law = closed_form(model)
    except NoClosedForm:
        return None
    return REFERENCE_ENERGIES[law.name]


@dataclass(frozen=True)
class FitReport:
    statistic: float
    sample_size: int
    reference: str

    def to_json(self) -> dict:
        return asdict(self)


def ks_distance(samples, cdf, reference: str = "custom") -> FitReport:
    """One-sample Kolmogorov-Smirnov statistic against a CDF.

    sup over the sorted sample of max(|i/n - F(x_(i))|, |(i-1)/n - F(x_(i))|).
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        raise EmptySample("ks_distance needs at least one sample")
    f = np.asarray(cdf(xs), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    stat = float(np.max(np.maximum(np.abs(hi - f), np.abs(lo - f))))
    return FitReport(stat, n, reference)


def radial_cdf_distance(samples, radial_cdf, reference: str = "custom") -> FitReport:
    """KS statistic of the sample moduli against a radial CDF."""
    zs = np.asarray(samples, dtype=complex)
    return ks_distance(np.abs(zs), radial_cdf, reference=reference)


def angular_ks_distance(samples, reference: str = "uniform_angle") -> FitReport:
    """KS statistic of sample angles in [0, 2pi) against the uniform law."""
    zs = np.asarray(samples, dtype=complex)
    angles = np.mod(np.angle(zs), 2.0 * np.pi)
    return ks_distance(angles, lambda a: a / (2.0 * np.pi), reference=reference)


def rate_gap(
    mu: DiscreteMeasure, model: GasModel, reference: float | None = None
) -> float:
    """Energy of mu above the minimal energy of the model.

    The reference is the closed-form minimal energy for the two built-in
    beta = 2 models, or a caller-supplied value (e.g. from a converged
    grid minimizer).  The off-diagonal surrogate can make the gap
    slightly negative for atomic measures.
    """
    if reference is None:
        reference = reference_energy(model)
        if reference is None:
            raise NoReference(
                "model has no closed-form reference energy; pass one explicitly"
            )
    return float(measure_energy(mu, model) - reference)
