"""Pair kernels, discrete energies, and Gibbs log-densities.

The planar kernel is

    F(x, y) = (beta/2) log(1/|x - y|) + V(x)/2 + V(y)/2,

and its sphere-side counterpart uses the chord distance and the
compactified potential; the two agree pointwise on projected pairs,
which is what transports energies between the plane and the sphere.

Discrete energies of atomic measures are computed off-diagonally by
default (the true double integral is infinite for atoms).  Grid measures
that stand in for densities may instead use a regularized self-energy,
log(1/(h/2)) per atom with h the atom's nearest-neighbour distance,
matching the leading term of the cell-averaged log kernel.

Pair sums run over each unordered pair once and accumulate with
math.fsum, which is correctly rounded, so golden values reproduce
exactly across runs.  Both Gibbs log-densities are finite at every finite
|x|: log(1 + |x|^2) comes from ``model.log1p_modulus_squared``.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .geometry import chordal_distance, compactified_potential
from .model import DiscreteMeasure, GasModel, log1p_modulus_squared

# Separations smaller than this are treated as coincident points.
COINCIDENCE_TOL = 1e-300


class DiagonalPolicy(enum.Enum):
    OFF_DIAGONAL_ONLY = "off_diagonal_only"
    REGULARIZED_SELF_ENERGY = "regularized_self_energy"


def _pair_kernel(beta: float, dist, va, vb):
    """F = -(beta/2) log d + (v_a + v_b)/2 on broadcast arrays.

    Every pair kernel and discrete energy in the package evaluates F here.
    """
    return -(beta / 2.0) * np.log(dist) + 0.5 * (va + vb)


@functools.lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k=1), made once per n and returned read-only."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def _fsum(values: np.ndarray) -> float:
    """math.fsum of ``values``, or their IEEE sum where fsum's partials overflow."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.sum(values))


def _pair_distances(positions: np.ndarray):
    """Each unordered pair of atoms once: i < j in np.triu_indices order.

    Returns (i, j, d) with d the distance of each pair: |p_i - p_j| for
    complex points, the Euclidean norm of the difference for sphere rows.
    """
    iu, ju = _pair_indices(len(positions))
    diff = positions[iu] - positions[ju]
    if diff.ndim == 1:
        return iu, ju, np.abs(diff)
    return iu, ju, np.sqrt(np.sum(diff * diff, axis=-1))


def _weighted_energy(
    w: np.ndarray,
    positions: np.ndarray,
    beta: float,
    v: np.ndarray,
    policy: DiagonalPolicy,
) -> float | None:
    """sum_{a != b} w_a w_b F_ab, plus sum_a w_a^2 F_aa when regularized.

    The off-diagonal sum is 2 fsum over a < b: the terms are symmetric and
    fsum is correctly rounded, so it equals the fsum over both orders.
    The regularized self-distance is h_a/2, h_a being atom a's
    nearest-neighbour distance.  Returns None when two atoms coincide.
    """
    iu, ju, dist = _pair_distances(positions)
    if np.any(dist < COINCIDENCE_TOL):
        return None
    terms = _pair_kernel(beta, dist, v[iu], v[ju]) * (w[iu] * w[ju])
    value = 2.0 * math.fsum(terms.tolist())
    if policy is DiagonalPolicy.REGULARIZED_SELF_ENERGY:
        if len(w) < 2:
            raise ValueError("self-energy regularization needs at least two atoms")
        nearest = np.full(len(w), np.inf)
        np.minimum.at(nearest, iu, dist)
        np.minimum.at(nearest, ju, dist)
        value += math.fsum((_pair_kernel(beta, nearest / 2.0, v, v) * (w * w)).tolist())
    return float(value)


def measure_energy(
    mu: DiscreteMeasure,
    model: GasModel,
    policy: DiagonalPolicy = DiagonalPolicy.OFF_DIAGONAL_ONLY,
) -> float:
    """Discrete energy sum_{a != b} w_a w_b F(p_a, p_b) of an atomic measure.

    With the regularized policy a diagonal term
    w_a^2 * ((beta/2) log(1/(h_a/2)) + V(p_a)) is added, h_a atom a's
    nearest-neighbour distance; it needs at least two atoms.  Coincident
    atoms give +inf.
    """
    if mu.side == "plane":
        v = model.potential_values(mu.positions)
    else:
        v = compactified_potential(model).on_sphere_array(mu.positions)
    value = _weighted_energy(mu.weights, mu.positions, model.beta, v, policy)
    return math.inf if value is None else value


def log_density(points, model: GasModel) -> float:
    """Unnormalized Gibbs log-weight beta*sum_{i<j} log|dx| - n*sum V of n points."""
    pts = np.asarray(points, dtype=complex)
    n = len(pts)
    _, _, seps = _pair_distances(pts)
    if np.any(seps < COINCIDENCE_TOL):
        return -math.inf
    v = model.potential_values(pts)
    inter = model.beta * math.fsum(np.log(seps).tolist())
    return inter - n * _fsum(v)


def log_density_sphere(points, model: GasModel) -> float:
    """The same log-weight evaluated through the sphere-side change of variables.

    With z_i = T(x_i):

        beta sum_{i<j} log|z_i - z_j| + (beta/2) sum_i log(1 - |z_i|^2)
            - n sum_i V_sphere(z_i),

    which agrees with log_density exactly (floating point aside).  Every
    term comes from the planar points: the chords |z_i - z_j| from the
    planar chord formula, and log(1 - |z|^2) as -log(1 + |x|^2), since
    1 - |T(x)|^2 = 1/(1 + |x|^2).  Rounded 3-vectors would cost ulp/chord
    for near-coincident points and ulp/(1 - x3) near the pole.
    """
    pot = compactified_potential(model)
    pts = np.asarray(points, dtype=complex)
    n = len(pts)
    iu, ju = _pair_indices(n)
    seps = chordal_distance(pts[iu], pts[ju])
    if np.any(seps < COINCIDENCE_TOL):
        return -math.inf
    inter = model.beta * math.fsum(np.log(seps).tolist())
    conformal = -(model.beta / 2.0) * math.fsum(log1p_modulus_squared(pts).tolist())
    vsum = _fsum(pot.on_plane(pts))
    return inter + conformal - n * vsum


def signed_log_energy(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Logarithmic energy of the signed measure mu - nu on the sphere, with
    the regularized self-energy, which keeps it nonnegative on uniform grid
    measures, as for densities; 0 when mu == nu.  Needs two or more atoms.
    """
    if mu.side != "sphere" or nu.side != "sphere":
        raise ValueError("signed_log_energy expects sphere-side measures")
    if not np.array_equal(mu.positions, nu.positions):
        raise ValueError("atom position lists differ")
    d = mu.weights - nu.weights
    reg = DiagonalPolicy.REGULARIZED_SELF_ENERGY
    value = _weighted_energy(d, mu.positions, 2.0, np.zeros(len(d)), reg)
    if value is None:
        raise ValueError("duplicate atom positions in support")
    return value
