"""Domain types for Coulomb gas models.

A gas is a tuple (support, inverse temperature beta, potential V, particle
count n).  The joint particle density is proportional to

    prod_{i<j} |x_i - x_j|^beta * prod_i exp(-n * V(x_i))

on the n-fold product of the support.  Everything here is an immutable
value type; functions elsewhere never mutate them.  Constructors reject
out-of-range values with a ValueError that starts with the field's path
in a run config (model.beta, model.n, ...).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Points of real supports are carried as complex values with (near-)zero
# imaginary part; this is the membership tolerance on the imaginary part.
REAL_AXIS_TOL = 1e-12

# Above this modulus |x|^2 is never formed (it overflows near 1.3e154): every
# function of |x|^2 takes a form in t = 1/|x| there, where 1 + t^2 rounds to 1.
LARGE_MODULUS = 1e8


def modulus_forms(x):
    """(big, r2, t): big marks |x| > LARGE_MODULUS, r2 is np.square(np.abs(x))
    off big (0 on it) and t is 1/|x| on big (1 off it)."""
    r = np.abs(x)
    big = r > LARGE_MODULUS
    return big, np.square(np.where(big, 0.0, r)), 1.0 / np.where(big, r, 1.0)


def log1p_modulus_squared(x):
    """log(1 + |x|^2) for real or complex x (arrays accepted), finite at every finite x.

    Equal to np.log1p(np.square(np.abs(x))) wherever |x| <= LARGE_MODULUS;
    above it 2 log|x|, since log1p(1/|x|^2) < 1e-16 is under half an ulp of that.
    """
    r = np.abs(x)
    if r.max(initial=0.0) <= LARGE_MODULUS:  # nan fails this; the masked forms keep it
        return np.log1p(np.square(r))
    big, r2, _ = modulus_forms(r)
    return np.where(big, 2.0 * np.log(np.where(big, r, 1.0)), np.log1p(r2))[()]


class Support(enum.Enum):
    """The five supported particle domains (subsets of the complex plane)."""

    REAL_LINE = "real_line"
    COMPLEX_PLANE = "complex_plane"
    HALF_LINE = "half_line"
    UNIT_SEGMENT = "unit_segment"
    UNIT_CIRCLE = "unit_circle"

    def contains_array(self, zs: np.ndarray) -> np.ndarray:
        """Elementwise membership; no non-finite point is in any support."""
        zs = np.asarray(zs, dtype=complex)
        if self is Support.UNIT_CIRCLE:
            return np.abs(np.abs(zs) - 1.0) <= REAL_AXIS_TOL
        inside = np.isfinite(zs)
        if self is Support.COMPLEX_PLANE:
            return inside
        inside &= np.abs(zs.imag) <= REAL_AXIS_TOL
        if self in (Support.HALF_LINE, Support.UNIT_SEGMENT):
            inside &= zs.real >= 0.0
        if self is Support.UNIT_SEGMENT:
            inside &= zs.real <= 1.0
        return inside

    @property
    def is_real(self) -> bool:
        """Whether points live on the real axis (potentials take real args)."""
        return self in (Support.REAL_LINE, Support.HALF_LINE, Support.UNIT_SEGMENT)

    @property
    def is_bounded(self) -> bool:
        return self in (Support.UNIT_SEGMENT, Support.UNIT_CIRCLE)


@dataclass(frozen=True)
class PotentialSpec:
    """A named external potential of the structured family

        V(x) = poly(s) + log_coeff * log(1 + |x|^2),   s = x or |x|^2.

    ``poly`` lists coefficients from degree 0 upward in the variable
    ``poly_var`` ("x" for the point itself on real supports, "r2" for
    |x|^2); an empty ``poly`` or a zero ``log_coeff`` drops that term.
    Values, gradient and the largest growth witness beta'
    (``growth_limit``) all follow from this structure.
    """

    name: str
    poly: tuple[float, ...] = ()
    poly_var: str = "r2"
    log_coeff: float = 0.0

    def __post_init__(self):
        if self.poly_var not in ("x", "r2"):
            raise ValueError("model.potential.params.poly_var: must be 'x' or 'r2'")
        object.__setattr__(self, "poly", tuple(float(c) for c in self.poly))
        object.__setattr__(self, "log_coeff", float(self.log_coeff))

    def evaluate(self, x):
        """V at x: floats on real-axis supports, complex numbers otherwise; arrays accepted."""
        if self.log_coeff == 0.0:
            return _horner(self.poly, x, self.poly_var)
        log_term = self.log_coeff * log1p_modulus_squared(x)
        return _horner(self.poly, x, self.poly_var) + log_term if self.poly else log_term

    def gradient(self, x):
        """dV/dx on real-axis supports; dV/dRe x + i dV/dIm x in the plane."""
        dcoeffs = tuple(k * c for k, c in enumerate(self.poly) if k)
        out = _horner(dcoeffs, x, self.poly_var)
        if self.poly_var == "r2" and any(dcoeffs):
            # by components, a zero one giving 0: real * complex would make inf * 0 = nan
            with np.errstate(over="ignore"):  # +-inf past the float range, as in _horner
                re, im = (np.where(c == 0.0, 0.0, out * 2.0) * c for c in (np.real(x), np.imag(x)))
            if np.iscomplexobj(x):
                re = re.astype(complex)
                re.imag = im
            out = re
        if self.log_coeff != 0.0:
            # 2x/(1 + |x|^2), as 2 (x t) t on big
            big, r2, t = modulus_forms(x)
            out = out + self.log_coeff * 2.0 * np.where(big, x * t * t, x) / (1.0 + r2)
        return out

    def poly_limit(self, support: Support) -> float:
        """liminf of the poly part as |x| -> inf in the support: its lower end on the line."""
        if self.poly_var == "x" and support is not Support.HALF_LINE:
            return min(_poly_end_limit(self.poly, +1.0), _poly_end_limit(self.poly, -1.0))
        return _poly_end_limit(self.poly, +1.0)


def _trimmed(coeffs: Sequence[float]) -> tuple[float, ...]:
    """coeffs (low to high) without trailing zeros: the leading one is nonzero."""
    nonzero = [k for k, c in enumerate(coeffs) if c != 0.0]
    return tuple(coeffs[: nonzero[-1] + 1]) if nonzero else ()


def _poly_end_limit(coeffs: Sequence[float], sign: float) -> float:
    """Limit of a polynomial (coeffs low->high) as its variable -> sign*inf."""
    trimmed = _trimmed(coeffs)
    if len(trimmed) <= 1:
        return trimmed[0] if trimmed else 0.0
    lead = trimmed[-1] * (sign ** (len(trimmed) - 1))
    return math.inf if lead > 0 else -math.inf


def _horner(coeffs: tuple[float, ...], x, var: str):
    """sum_k coeffs[k] s^k (coeffs low to high; empty is 0), shaped like x,
    with s = |x|^2 for ``var`` "r2" and s = x for "x".

    Horner's rule from the leading nonzero coefficient: no 0 * s term, so
    the value is +-inf, with no warning, where s or a partial sum leaves
    the float range, never nan.  A constant never forms |x|^2.
    """
    coeffs = _trimmed(coeffs)
    if len(coeffs) < 2:
        return np.full(np.shape(x), coeffs[0] if coeffs else 0.0)
    with np.errstate(over="ignore"):
        s = np.square(np.abs(x)) if var == "r2" else x
        out = coeffs[-1] * s + coeffs[-2]
        for c in coeffs[-3::-1]:
            out = out * s + c
    return out


def cauchy_potential() -> PotentialSpec:
    """V(x) = log(1 + |x|^2), the Cauchy weight on the real line."""
    return PotentialSpec("cauchy", log_coeff=1.0)


def spherical_potential() -> PotentialSpec:
    """V(x) = log(1 + |x|^2), the spherical weight on the complex plane."""
    return PotentialSpec("spherical", log_coeff=1.0)


def quadratic_potential() -> PotentialSpec:
    """V(x) = |x|^2."""
    return PotentialSpec("quadratic", (0.0, 1.0))


BUILTIN_POTENTIALS = {
    "cauchy": cauchy_potential,
    "spherical": spherical_potential,
    "quadratic": quadratic_potential,
}


@dataclass(frozen=True)
class GasModel:
    """A Coulomb gas: support, inverse temperature, potential, particle count."""

    support: Support
    beta: float
    potential: PotentialSpec
    n: int

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"model.beta: must be positive, got {self.beta}")
        if self.n < 1:
            raise ValueError(f"model.n: must be an integer >= 1, got {self.n}")
        if self.potential.poly_var == "x" and not self.support.is_real:
            raise ValueError("model.potential.params.poly_var: 'x' needs a real support, "
                             f"not {self.support.value}; use 'r2'")

    def require_weak_growth(self) -> None:
        """Raise ValueError unless the gas is weak-growth admissible:
        growth_limit(self) > 1 and beta <= growth_limit(self).

        A bounded support always passes.  Otherwise the message starts with
        the field at fault, named as in a run config:
        model.potential.params.poly when the poly part tends to -inf,
        model.potential.params.log_coeff when 2 log_coeff <= 1, and
        model.beta when beta exceeds 2 log_coeff.
        """
        bp = growth_limit(self)
        if bp == -math.inf:
            raise ValueError("model.potential.params.poly: tends to -inf at an end of "
                             f"{self.support.value}; the model fails weak-growth admissibility")
        if not bp > 1.0:
            raise ValueError(f"model.potential.params.log_coeff: {self.potential.log_coeff:g} "
                             "must exceed 1/2 when the poly part has a finite limit")
        if self.beta > bp:
            raise ValueError(f"model.beta: {self.beta:g} exceeds 2 log_coeff = {bp:g}; "
                             "the model fails weak-growth admissibility")

    def potential_values(self, points) -> np.ndarray:
        """Evaluate V at points of the support (arrays accepted)."""
        pts = np.asarray(points, dtype=complex)
        arg = pts.real if self.support.is_real else pts
        return np.asarray(self.potential.evaluate(arg), dtype=float)

    def potential_gradient(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        arg = pts.real if self.support.is_real else pts
        return np.asarray(self.potential.gradient(arg), dtype=complex)


def validate_configuration(points, model: GasModel) -> None:
    """Raise ValueError unless ``points`` is an (n,) array of distinct points
    in the support."""
    pts = np.asarray(points, dtype=complex)
    if pts.shape != (model.n,):
        raise ValueError(f"configuration has shape {pts.shape}, model expects ({model.n},)")
    ok = model.support.contains_array(pts)
    if not np.all(ok):
        raise ValueError(f"point {pts[~ok][0]} is not in support {model.support.value}")
    # Equal points are neighbours once sorted; == equates 0.0 with -0.0.
    pts = np.sort(pts)
    if np.any(pts[1:] == pts[:-1]):
        raise ValueError("configuration has coincident points")


@dataclass(frozen=True)
class DiscreteMeasure:
    """A probability measure with finitely many weighted atoms, kept as given.

    Atoms live either in the plane (a 1-D array, held as complex) or on the
    Riemann sphere (an (N, 3) real array of 3-vectors), and ``side`` is read
    off that shape.  Positions must be finite; equal atoms stay separate, so
    two coincident atoms give +inf energy.  Weights must be nonnegative and
    sum to 1 within 1e-12.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions)
        sphere = pos.ndim == 2 and pos.shape[1] == 3 and not np.iscomplexobj(pos)
        if pos.ndim != 1 and not sphere:
            raise ValueError("positions must be a 1-D array (plane) or an (N, 3) real "
                             f"array (sphere), got a {pos.dtype} array of shape {pos.shape}")
        pos = np.array(pos, dtype=float if sphere else complex)
        if not np.all(np.isfinite(pos)):
            raise ValueError("atom positions must be finite")
        wts = np.array(self.weights, dtype=float, ndmin=1)
        if len(wts) != len(pos):
            raise ValueError("positions and weights differ in length")
        if np.any(wts < 0):
            raise ValueError("weights must be nonnegative")
        total = math.fsum(wts.tolist())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1 within 1e-12")
        pos.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", wts)

    @property
    def side(self) -> str:
        """'plane' for 1-D positions, 'sphere' for (N, 3) rows."""
        return "plane" if self.positions.ndim == 1 else "sphere"

    def __len__(self) -> int:
        return len(self.weights)


class Admissibility(enum.Enum):
    STRONG = "strong"
    WEAK_ONLY = "weak_only"
    INADMISSIBLE = "inadmissible"


def growth_limit(model: GasModel) -> float:
    """The largest beta' whose V(x) - (beta'/2) log(1+|x|^2) is bounded below
    at infinity in the support, read off V's structure.

    inf on a bounded support or where the poly part tends to +inf at every
    end (every beta' is a witness), -inf where it tends to -inf at an end
    (none is), and 2 log_coeff otherwise.
    """
    if model.support.is_bounded:
        return math.inf
    poly_lim = model.potential.poly_limit(model.support)
    return poly_lim if math.isinf(poly_lim) else 2.0 * model.potential.log_coeff


def admissibility_check(model: GasModel) -> Admissibility:
    """The growth class of V at beta' = growth_limit(model).

    Strong when growth_limit is inf (the pole value at every beta' is
    +inf), WeakOnly when it is finite and above 1 (the pole value there is
    finite), and Inadmissible otherwise.  Weak-growth admissibility rejects
    Inadmissible models, and the sampler draws heavy-tailed proposals for
    targets that are not Strong.
    """
    bp = growth_limit(model)
    if bp == math.inf:
        return Admissibility.STRONG
    return Admissibility.WEAK_ONLY if bp > 1.0 else Admissibility.INADMISSIBLE
