"""Domain types for Coulomb gas models.

A gas is a tuple (support, inverse temperature beta, potential V, particle
count n).  The joint particle density is proportional to

    prod_{i<j} |x_i - x_j|^beta * prod_i exp(-n * V(x_i))

on the n-fold product of the support.  Everything here is an immutable
value type; functions elsewhere never mutate them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InadmissibleModel, MissingBetaPrime

# Points of real supports are carried as complex values with (near-)zero
# imaginary part; this is the membership tolerance on the imaginary part.
REAL_AXIS_TOL = 1e-12

# Dyadic probe radii 2^k used by the growth classification heuristic.
PROBE_EXPONENTS = range(4, 41)


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

    @property
    def solver_allowed(self) -> bool:
        """Only the full line and plane are accepted by equilibrium solvers."""
        return self in (Support.REAL_LINE, Support.COMPLEX_PLANE)

    def probe_rays(self) -> np.ndarray:
        """Unit directions along which the growth heuristic probes."""
        if self is Support.COMPLEX_PLANE:
            angles = np.arange(8) * (np.pi / 4.0)
            return np.exp(1j * angles)
        if self is Support.REAL_LINE:
            return np.array([1.0 + 0j, -1.0 + 0j])
        if self is Support.HALF_LINE:
            return np.array([1.0 + 0j])
        return np.array([], dtype=complex)  # bounded supports: nothing to probe


@dataclass(frozen=True)
class PotentialSpec:
    """A named external potential with growth metadata.

    ``evaluate`` maps a point of the support to a real value (or +inf);
    it receives a float for real-axis supports and a complex number
    otherwise, and must accept numpy arrays of the same kind.

    ``beta_prime`` is the user-declared growth witness: the gas is
    weak-growth admissible at inverse temperature beta iff beta_prime
    exists, beta_prime > 1 and beta_prime >= beta.

    Potentials of the structured family

        V(x) = poly(s) + log_coeff * log(1 + |x|^2),   s = x or |x|^2,

    carry their structure in ``poly``/``poly_var``/``log_coeff``, from
    which the pole value is computed exactly for any beta.
    """

    name: str
    evaluate: Callable
    beta_prime: float | None = None
    gradient: Callable | None = None
    poly: tuple[float, ...] | None = None
    poly_var: str = "r2"  # "r2": polynomial in |x|^2; "x": polynomial in x
    log_coeff: float = 0.0

    @property
    def is_even(self) -> bool | None:
        """True/False if parity is known from the structure, else None."""
        if self.poly is None:
            return None
        if self.poly_var == "r2":
            return True
        return all(c == 0.0 for c in self.poly[1::2])

    def pole_value(self, beta: float, support: Support) -> float | None:
        """Exact liminf of V(x) - (beta/2) log(1+|x|^2), or None if V has no structure."""
        if self.poly is None:
            return None
        return _structured_pole_value(self.poly, self.poly_var, self.log_coeff, beta, support)


def _poly_end_limit(coeffs: Sequence[float], sign: float) -> float:
    """Limit of a polynomial (coeffs low->high) as its variable -> sign*inf."""
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0.0:
        trimmed.pop()
    if len(trimmed) <= 1:
        return trimmed[0] if trimmed else 0.0
    lead = trimmed[-1] * (sign ** (len(trimmed) - 1))
    return math.inf if lead > 0 else -math.inf


def _structured_pole_value(poly, poly_var, log_coeff, beta, support) -> float:
    # Polynomial growth dominates the logarithm, so a nonconstant poly part
    # decides the liminf by itself; otherwise the sign of the effective log
    # coefficient does.
    if poly_var == "r2":
        poly_lim = _poly_end_limit(poly, +1.0)
    else:
        ends = [_poly_end_limit(poly, +1.0)]
        if support is not Support.HALF_LINE:
            ends.append(_poly_end_limit(poly, -1.0))
        poly_lim = min(ends)
    if math.isinf(poly_lim):
        return poly_lim
    c_eff = log_coeff - beta / 2.0
    if c_eff > 0:
        return math.inf
    if c_eff < 0:
        return -math.inf
    return poly_lim


def custom_potential(
    name: str,
    poly: Sequence[float],
    poly_var: str = "r2",
    log_coeff: float = 0.0,
    beta_prime: float | None = None,
) -> PotentialSpec:
    """Potential from the structured family poly(s) + c*log(1+|x|^2).

    ``poly`` lists coefficients from degree 0 upward in the variable
    ``poly_var`` ("x" for the point itself on real supports, "r2" for
    |x|^2).  Evaluation and gradient are generated from the structure;
    an empty ``poly`` or a zero ``log_coeff`` drops that term.
    """
    if poly_var not in ("x", "r2"):
        raise ValueError(f"poly_var must be 'x' or 'r2', got {poly_var!r}")
    coeffs = tuple(float(c) for c in poly)
    dcoeffs = tuple(k * c for k, c in enumerate(coeffs) if k)
    log_coeff = float(log_coeff)

    def evaluate(x):
        r2 = np.square(np.abs(x))
        if log_coeff == 0.0:
            return _horner(coeffs, r2 if poly_var == "r2" else x)
        log_term = log_coeff * np.log1p(r2)
        if not coeffs:
            return log_term
        return _horner(coeffs, r2 if poly_var == "r2" else x) + log_term

    def gradient(x):
        r2 = np.square(np.abs(x))
        if poly_var == "r2":
            out = _horner(dcoeffs, r2) * 2.0 * x
        else:
            out = _horner(dcoeffs, x)
        if log_coeff != 0.0:
            out = out + log_coeff * 2.0 * x / (1.0 + r2)
        return out

    return PotentialSpec(
        name=name,
        evaluate=evaluate,
        beta_prime=beta_prime,
        gradient=gradient,
        poly=coeffs,
        poly_var=poly_var,
        log_coeff=log_coeff,
    )


def _horner(coeffs: tuple[float, ...], s):
    """sum_k coeffs[k] s^k (coeffs low to high; empty is 0), shaped like s.

    Horner's rule from the leading coefficient: no 0 * s term, so the value
    at an infinite s is infinite, not nan.
    """
    if len(coeffs) < 2:
        return np.full(np.shape(s), coeffs[0] if coeffs else 0.0)
    out = coeffs[-1] * s + coeffs[-2]
    for c in coeffs[-3::-1]:
        out = out * s + c
    return out


def cauchy_potential() -> PotentialSpec:
    """V(x) = log(1 + |x|^2), the Cauchy weight on the real line."""
    return custom_potential("cauchy", (), log_coeff=1.0, beta_prime=2.0)


def spherical_potential() -> PotentialSpec:
    """V(x) = log(1 + |x|^2), the spherical weight on the complex plane."""
    return custom_potential("spherical", (), log_coeff=1.0, beta_prime=2.0)


def quadratic_potential() -> PotentialSpec:
    """V(x) = |x|^2."""
    return custom_potential("quadratic", (0.0, 1.0), beta_prime=2.0)


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
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.potential.poly_var == "x" and not self.support.is_real:
            raise ValueError(f"an x-polynomial V needs a real support, not {self.support.value}")

    @property
    def weak_growth_ok(self) -> bool:
        """Declared weak-growth admissibility: beta_prime > 1 and >= beta."""
        bp = self.potential.beta_prime
        return bp is not None and bp > 1.0 and bp >= self.beta

    def require_weak_growth(self) -> None:
        """Raise InadmissibleModel unless weak_growth_ok.

        The message starts with the field at fault, named as in a run
        config: model.potential.beta_prime when it is missing or at most
        1, otherwise model.beta.
        """
        if self.weak_growth_ok:
            return
        bp = self.potential.beta_prime
        if bp is None or bp <= 1.0:
            raise InadmissibleModel(
                f"model.potential.beta_prime: weak-growth admissibility needs a value "
                f"above 1, got {bp}"
            )
        raise InadmissibleModel(
            f"model.beta: {self.beta:g} exceeds beta_prime {bp:g}; "
            "the model fails weak-growth admissibility"
        )

    def potential_values(self, points) -> np.ndarray:
        """Evaluate V at points of the support (arrays accepted)."""
        pts = np.asarray(points, dtype=complex)
        arg = pts.real if self.support.is_real else pts
        return np.asarray(self.potential.evaluate(arg), dtype=float)

    def potential_gradient(self, points) -> np.ndarray:
        if self.potential.gradient is None:
            raise ValueError(f"potential {self.potential.name!r} has no gradient")
        pts = np.asarray(points, dtype=complex)
        arg = pts.real if self.support.is_real else pts
        return np.asarray(self.potential.gradient(arg), dtype=complex)


@dataclass(frozen=True)
class Configuration:
    """An ordered tuple of particle positions (complex values)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=complex)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def validate_configuration(config: Configuration, model: GasModel) -> None:
    """Raise ValueError unless config has n points, all in the support."""
    if len(config) != model.n:
        raise ValueError(f"configuration has {len(config)} points, model expects {model.n}")
    ok = model.support.contains_array(config.points)
    if not np.all(ok):
        bad = config.points[~ok][0]
        raise ValueError(f"point {bad} is not in support {model.support.value}")


@dataclass(frozen=True)
class DiscreteMeasure:
    """A probability measure with finitely many weighted atoms.

    Atoms live either in the plane (complex positions) or on the Riemann
    sphere (rows of 3-vectors) and must be finite; duplicated positions
    are merged at construction with their weights summed, and weights must
    be nonnegative and sum to 1 within 1e-12.
    """

    positions: np.ndarray
    weights: np.ndarray
    side: str = "plane"

    def __post_init__(self):
        if self.side not in ("plane", "sphere"):
            raise ValueError(f"side must be 'plane' or 'sphere', got {self.side!r}")
        if self.side == "plane":
            pos = np.atleast_1d(np.asarray(self.positions, dtype=complex))
        else:
            pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
            if pos.shape[1] != 3:
                raise ValueError("sphere-side positions must be (n, 3)")
        if not np.all(np.isfinite(pos)):
            raise ValueError("atom positions must be finite")
        wts = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if len(wts) != len(pos):
            raise ValueError("positions and weights differ in length")
        if np.any(wts < 0):
            raise ValueError("weights must be nonnegative")
        total = math.fsum(wts.tolist())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1 within 1e-12")
        # A measure without repeated atoms keeps its weights bit for bit (-0.0 too).
        first, groups = _atom_groups(pos)
        wts = np.bincount(groups, weights=wts) if len(first) < len(wts) else wts.copy()
        pos = pos[first]
        pos.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", wts)

    def __len__(self) -> int:
        return len(self.weights)


def _atom_groups(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal atoms (points, or rows of sphere coordinates).

    Returns ``first``, the index of each distinct atom's first occurrence
    in order of first occurrence, and ``groups``, the index into ``first``
    of each atom.  Atoms are equal when all coordinates compare equal, so
    0.0 and -0.0 are one atom.
    """
    _, first, inverse = np.unique(positions, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


def empirical_measure(config: Configuration) -> DiscreteMeasure:
    """Mass k/n at each distinct particle position, k its multiplicity.

    Each weight is the correctly rounded quotient k/n.
    """
    first, groups = _atom_groups(config.points)
    counts = np.bincount(groups)
    return DiscreteMeasure(config.points[first], counts / len(config), side="plane")


class Admissibility(enum.Enum):
    STRONG = "strong"
    WEAK_ONLY = "weak_only"
    INADMISSIBLE = "inadmissible"


@dataclass(frozen=True)
class AdmissibilityReport:
    """Heuristic growth classification plus the probe values behind it."""

    classification: Admissibility
    radii: np.ndarray = field(default_factory=lambda: np.array([]))
    ratio_min: np.ndarray = field(default_factory=lambda: np.array([]))
    gap_min: np.ndarray = field(default_factory=lambda: np.array([]))
    note: str = ""


def admissibility_check(model: GasModel) -> AdmissibilityReport:
    """Classify the growth of V against beta_prime * log|x| on dyadic probes.

    Strong: V(x)/(beta' log|x|) stays above 1 at every probe (with 1e-9
    slack; at the largest radii a ratio tending to 1 sits within an ulp
    of it either way).
    Inadmissible: V(x) - beta' log|x| is strictly decreasing across the
    last 8 probe scales and clearly diverging (drops below -50 or by more
    than 3 across those scales).
    WeakOnly: everything else.

    The result is diagnostic only; it never gates computation (gating
    uses the declared weak-growth flag on the model).  Bounded supports
    are vacuously Strong.
    """
    bp = model.potential.beta_prime
    if bp is None:
        raise MissingBetaPrime(f"potential {model.potential.name!r} declares no beta_prime")
    if model.support.is_bounded:
        return AdmissibilityReport(
            Admissibility.STRONG, note="bounded support: growth condition vacuous"
        )

    rays = model.support.probe_rays()
    radii = np.array([2.0**k for k in PROBE_EXPONENTS])
    points = radii[:, None] * rays[None, :]
    values = model.potential_values(points.ravel()).reshape(points.shape)
    log_r = np.log(radii)[:, None]
    ratio = values / (bp * log_r)
    gap = values - bp * log_r

    ratio_min = ratio.min(axis=1)
    gap_min = gap.min(axis=1)

    if np.min(ratio_min) > 1.0 + 1e-9:
        cls = Admissibility.STRONG
    else:
        tail = gap_min[-8:]
        decreasing = bool(np.all(np.diff(tail) < 0))
        diverging = tail[-1] <= -50.0 or (tail[-1] - tail[0]) <= -3.0
        cls = Admissibility.INADMISSIBLE if (decreasing and diverging) else Admissibility.WEAK_ONLY
    return AdmissibilityReport(cls, radii=radii, ratio_min=ratio_min, gap_min=gap_min)
