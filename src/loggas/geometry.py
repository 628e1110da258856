"""Inverse stereographic projection onto the Riemann sphere.

The sphere has radius 1/2 and center (0, 0, 1/2); the north pole
(0, 0, 1) plays the role of the point at infinity.  Sphere points are
rows (x1, x2, x3) of float arrays; the pole has no finite preimage, and
unproject_array rejects it.

The projection of a finite complex x is

    T(x) = (Re x, Im x, |x|^2) / (1 + |x|^2),

and the induced chord length between projected points is

    |T(x) - T(y)| = |x - y| / sqrt((1 + |x|^2)(1 + |y|^2)),

which is bounded by the sphere diameter 1.  A useful consequence: the
squared distance of T(x) from the origin equals its own height
coordinate, so 1 - |T(x)|^2 = 1/(1 + |x|^2) exactly.

Neither the projection nor the sphere-side potential forms |x|^2 above
``model.LARGE_MODULUS``: the projection takes its switch, |x|^2 and
1/|x| from ``model.modulus_forms``, and both use forms in 1/|x| there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DiscreteMeasure, GasModel, growth_limit, log1p_modulus_squared, modulus_forms


def project_array(xs) -> np.ndarray:
    """Vectorized projection; returns an array of shape xs.shape + (3,).

    Its switch, |x|^2 and t = 1/|x| come from ``modulus_forms``; on big, with u = x t,
    T(x) = (Re u t, Im u t, 1)/(1 + t^2), which never forms |x|^2."""
    xs = np.asarray(xs, dtype=complex)
    big, r2, t = modulus_forms(xs)
    u = xs * t  # x itself off big (t = 1), x/|x| on it
    den = np.where(big, 1.0 + t * t, 1.0 + r2)
    return np.stack([u.real * t / den, u.imag * t / den, np.where(big, 1.0, r2) / den], axis=-1)


def _unproject(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """unproject_array, nan at the pole, with its x3 > 1/2 mask and s = hypot(x1, x2)."""
    x1, x2, x3 = zs[..., 0], zs[..., 1], zs[..., 2]
    high = x3 > 0.5
    s = np.hypot(x1, x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        low_form = (x1 + 1j * x2) / (1.0 - x3)
        high_form = (x1 / s + 1j * (x2 / s)) * (x3 / s)
    return np.where(high, high_form, low_form), high, s


def unproject_array(zs: np.ndarray) -> np.ndarray:
    """Inverse of project_array on rows (x1, x2, x3) of sphere points.

    Above the half-height the subtraction 1 - x3 would cost relative
    precision like ulp/(1 - x3), so the sphere constraint
    x1^2 + x2^2 = x3 (1 - x3) is used to rebuild the modulus from the
    well-scaled horizontal coordinates instead.
    """
    xs, high, s = _unproject(np.asarray(zs, dtype=float))
    if np.any(high & (s == 0.0)):
        raise ValueError("a point coincides with the north pole")
    return xs


def chordal_distance(x, y):
    """Distance between the projections of x and y, in planar coordinates.

    Elementwise on broadcast arrays (a float for scalars).  Always in
    [0, 1]; equals the Euclidean distance of the projected points in R^3.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    d = np.abs(x - y) / (np.hypot(1.0, np.abs(x)) * np.hypot(1.0, np.abs(y)))
    return np.minimum(d, 1.0)[()]


@dataclass(frozen=True)
class CompactifiedPotential:
    """The sphere-side potential induced by a gas model.

    On projected points it equals V(x) - (beta/2) log(1 + |x|^2); at the
    pole it takes the liminf of that expression: the poly part's limit
    when beta = growth_limit(model), +inf when beta is below it.
    """

    model: GasModel
    pole_value: float

    def on_plane(self, x) -> np.ndarray:
        """Evaluate at T(x) directly from planar coordinates (exact form)."""
        xs = np.asarray(x, dtype=complex)
        v = self.model.potential_values(xs)
        return v - (self.model.beta / 2.0) * log1p_modulus_squared(xs)

    def on_sphere_array(self, zs: np.ndarray) -> np.ndarray:
        """Evaluate at sphere points given as rows (x1, x2, x3) of an array.

        Above the half-height log(1 - x3) is taken as log((x1^2 + x2^2)/x3),
        from the sphere constraint as in unproject_array, so it keeps its
        relative precision up to the pole, where the value is pole_value.
        """
        zs = np.asarray(zs, dtype=float)
        xs, high, s = _unproject(zs)
        x3 = zs[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_gap = np.where(high, 2.0 * np.log(s) - np.log(x3), np.log1p(-x3))
        w = self.model.potential_values(xs) + (self.model.beta / 2.0) * log_gap
        return np.where(high & (s == 0.0), self.pole_value, w)


def compactified_potential(model: GasModel) -> CompactifiedPotential:
    """Build the sphere-side potential for an admissible model."""
    # Weak growth gives beta <= growth_limit: above it the pole would be -inf.
    model.require_weak_growth()
    at_limit = model.beta == growth_limit(model)
    pole = model.potential.poly_limit(model.support) if at_limit else math.inf
    return CompactifiedPotential(model, pole)


def pushforward(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Map a plane measure to the sphere atom-by-atom, weights unchanged."""
    if mu.side != "plane":
        raise ValueError("pushforward expects a plane-side measure")
    return DiscreteMeasure(project_array(mu.positions), mu.weights)
