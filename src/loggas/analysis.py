"""Closed-form limit laws, goodness-of-fit distances and rate-function gaps.

Any V = log(1+|x|^2) at beta = 2 on the line or the plane, whatever its
name, has a limiting measure known in closed form, with its energy: a
Cauchy law on the line, a heavy-tailed radial law on the plane, whose
sphere-side push-forwards are the uniform measures on the meridian
circle and on the whole sphere.  Weak convergence of the empirical
measures is checked with the Kolmogorov-Smirnov statistic against those
CDFs (radial and angular reductions on the plane, exploiting rotational
invariance).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .energy import measure_energy
from .model import DiscreteMeasure, GasModel, Support, modulus_forms


@dataclass(frozen=True)
class ClosedFormLaw:
    """A limiting law: density, one-dimensional CDF reduction, energy and box masses.

    ``variable`` names the reduction the CDF applies to: "x" for a real
    coordinate, "r" for the modulus, "angle" for the position angle on
    the meridian circle, "height" for the third sphere coordinate.
    ``energy`` is the minimal energy of the models the law is the limit
    of.  The mixed finite difference of ``corner`` over the corners of a
    box is the box's mass: on one axis it is the CDF, on the plane the
    quadrant mass G(a, b) = mu([0, a] x [0, b]).
    """

    name: str
    density: Callable
    cdf: Callable
    variable: str
    energy: float
    corner: Callable

    def box_masses(self, edges: Sequence) -> np.ndarray:
        """Mass of each box of the grid cut at ``edges``, one array per axis.

        On the plane the result is indexed [y, x], like ``GridSpec.atoms``.
        """
        masses = self.corner(*np.meshgrid(*(np.asarray(e, dtype=float) for e in edges)))
        for axis in range(masses.ndim):
            masses = np.diff(masses, axis=axis)
        return masses


def _inverse_power(x, k: int):
    """1/(pi (1 + |x|^2)^k), k = 1 or 2, as t^2k/pi above the large-modulus
    switch.  np.square, not **, which rounds apart on NumPy scalars."""
    big, r2, t = modulus_forms(x)
    num, den = np.where(big, t * t, 1.0), 1.0 + r2
    return num / (np.pi * den) if k == 1 else np.square(num) / (np.pi * np.square(den))


def cauchy_law() -> ClosedFormLaw:
    cdf = lambda x: 0.5 + np.arctan(x) / np.pi
    return ClosedFormLaw(
        name="cauchy",
        density=lambda x: _inverse_power(x, 1),
        cdf=cdf,
        variable="x",
        energy=math.log(2.0),
        corner=cdf,
    )


def _spherical_quadrant_mass(a, b):
    """The spherical law's mass on [0, a] x [0, b], in closed form; odd in a and in b."""
    sa, sb = np.sqrt(1.0 + a * a), np.sqrt(1.0 + b * b)
    return (a / sa * np.arctan(b / sa) + b / sb * np.arctan(a / sb)) / (2.0 * np.pi)


def _spherical_cdf(r):
    """r^2/(1 + r^2), as 1/(1 + t^2) = 1 above the large-modulus switch."""
    big, r2, _ = modulus_forms(r)
    return np.where(big, 1.0, r2 / (1.0 + r2))[()]


def spherical_law() -> ClosedFormLaw:
    """Area density 1/(pi (1+|z|^2)^2) on the plane; CDF is radial."""
    return ClosedFormLaw(
        name="spherical",
        density=lambda z: _inverse_power(z, 2),
        cdf=_spherical_cdf,
        variable="r",
        energy=0.5,
        corner=_spherical_quadrant_mass,
    )


def circle_uniform_law() -> ClosedFormLaw:
    """Uniform measure on the meridian circle, parameterized by angle in [0, 2pi)."""
    cdf = lambda a: np.asarray(a, dtype=float) / (2.0 * np.pi)
    return ClosedFormLaw(
        name="circle_uniform",
        density=lambda a: np.full_like(np.asarray(a, dtype=float), 1.0 / (2.0 * np.pi)),
        cdf=cdf,
        variable="angle",
        energy=math.log(2.0),
        corner=cdf,
    )


def sphere_uniform_law() -> ClosedFormLaw:
    """Uniform measure on the sphere; the height coordinate is uniform on [0, 1]."""
    cdf = lambda t: np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return ClosedFormLaw(
        name="sphere_uniform",
        density=lambda z: np.full_like(np.asarray(z, dtype=float), 1.0 / np.pi),
        cdf=cdf,
        variable="height",
        energy=0.5,
        corner=cdf,
    )


def closed_form(model: GasModel, side: str = "plane") -> ClosedFormLaw | None:
    """The limiting law of ``model`` on ``side`` ("plane" or "sphere"), or None.

    The law is known for any V = log(1+|x|^2) (log_coeff 1, no nonzero
    poly coefficient) at beta = 2 on the line or the plane, whatever the
    potential's name.
    """
    if side not in ("plane", "sphere"):
        raise ValueError(f"side: must be 'plane' or 'sphere', got {side!r}")
    v = model.potential
    if v.log_coeff == 1.0 and not any(v.poly) and abs(model.beta - 2.0) <= 1e-12:
        if model.support is Support.REAL_LINE:
            return cauchy_law() if side == "plane" else circle_uniform_law()
        if model.support is Support.COMPLEX_PLANE:
            return spherical_law() if side == "plane" else sphere_uniform_law()
    return None


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
        raise ValueError("ks_distance needs at least one sample")
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

    The reference is the closed-form law's energy for any
    V = log(1+|x|^2) at beta = 2 on the line or the plane, whatever its
    name, or a caller-supplied value (e.g. from a converged grid
    minimizer).  The off-diagonal surrogate can make the gap slightly
    negative for atomic measures.
    """
    if reference is None:
        law = closed_form(model)
        if law is None:
            raise ValueError("model has no closed-form reference energy; pass one explicitly")
        reference = law.energy
    return float(measure_energy(mu, model) - reference)
