"""Pair kernels, discrete energies, and Gibbs log-densities.

The planar kernel is

    F(x, y) = (beta/2) log(1/|x - y|) + V(x)/2 + V(y)/2,

and its sphere-side counterpart uses the chord distance and the
compactified potential; the two agree pointwise on projected pairs,
which is what transports energies between the plane and the sphere.

Discrete energies of atomic measures are computed off-diagonally by
default (the true double integral is infinite for atoms).  Grid measures
that stand in for densities may instead use a regularized self-energy,
log(1/(h/2)) per atom with h the local grid spacing, matching the
leading term of the cell-averaged log kernel.

All pairwise sums accumulate with math.fsum in a fixed order so golden
values reproduce exactly across runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, MismatchedSupports
from .geometry import (
    CompactifiedPotential,
    SpherePoint,
    compactified_potential,
    project_array,
    sphere_distance_matrix,
)
from .model import Configuration, DiscreteMeasure, GasModel

# Separations smaller than this are treated as coincident points.
COINCIDENCE_TOL = 1e-300


class DiagonalPolicy(enum.Enum):
    OFF_DIAGONAL_ONLY = "off_diagonal_only"
    REGULARIZED_SELF_ENERGY = "regularized_self_energy"


@dataclass(frozen=True)
class EnergyReport:
    """Numeric value of a discrete energy plus how the diagonal was handled."""

    value: float
    diagonal_policy: DiagonalPolicy
    pair_count: int


def _pair_kernel(beta: float, dist, va, vb):
    """F = -(beta/2) log d + (v_a + v_b)/2 on broadcast arrays.

    Every pair kernel and discrete energy in the package evaluates F here.
    """
    return -(beta / 2.0) * np.log(dist) + 0.5 * (va + vb)


def _pair_kernel_matrix(
    beta: float,
    dist: np.ndarray,
    v: np.ndarray,
    policy: DiagonalPolicy,
    spacing: float | np.ndarray | None = None,
) -> np.ndarray:
    """F at every pair of atoms with pairwise distances ``dist``, values ``v``.

    The diagonal of ``dist`` is overwritten by the self-distance d_aa:
    h_a/2 under the regularized policy, h_a being ``spacing`` or the
    nearest-neighbor distance; 1 otherwise, where callers drop it.
    """
    if policy is DiagonalPolicy.REGULARIZED_SELF_ENERGY:
        h = _nearest_neighbor_spacing(dist) if spacing is None else spacing
        np.fill_diagonal(dist, np.asarray(h, dtype=float) / 2.0)
    else:
        np.fill_diagonal(dist, 1.0)
    return _pair_kernel(beta, dist, v[:, None], v[None, :])


def _nearest_neighbor_spacing(dist: np.ndarray) -> np.ndarray:
    """Local grid spacing of each atom: distance to its nearest neighbor."""
    if dist.shape[0] < 2:
        raise ValueError("self-energy regularization needs at least two atoms")
    masked = dist + np.diag(np.full(len(dist), np.inf))
    return masked.min(axis=1)


def _weighted_energy(
    w: np.ndarray,
    dist: np.ndarray,
    beta: float,
    v: np.ndarray,
    policy: DiagonalPolicy,
    spacing: float | np.ndarray | None,
) -> float | None:
    """sum_{a != b} w_a w_b F_ab, plus sum_a w_a^2 F_aa when regularized.

    Returns None when two atoms coincide.
    """
    off = ~np.eye(len(w), dtype=bool)
    if np.any(dist[off] < COINCIDENCE_TOL):
        return None
    terms = _pair_kernel_matrix(beta, dist, v, policy, spacing)
    terms *= np.outer(w, w)
    value = math.fsum(terms[off].tolist())
    if policy is DiagonalPolicy.REGULARIZED_SELF_ENERGY:
        value += math.fsum(np.diagonal(terms).tolist())
    return float(value)


def kernel_planar(x: complex, y: complex, model: GasModel) -> float:
    """The weighted log kernel at a pair of plane points; +inf on the diagonal."""
    sep = abs(complex(x) - complex(y))
    if sep < COINCIDENCE_TOL:
        return math.inf
    vx, vy = model.potential_values(np.array([x, y]))
    return float(_pair_kernel(model.beta, sep, vx, vy))


def kernel_sphere(
    z: SpherePoint,
    w: SpherePoint,
    model: GasModel,
    potential: CompactifiedPotential | None = None,
) -> float:
    """Sphere-side kernel; equals kernel_planar on projected pairs."""
    if potential is None:
        potential = compactified_potential(model)
    dz = z.as_array() - w.as_array()
    sep = math.sqrt(float(dz @ dz))
    if sep < COINCIDENCE_TOL:
        return math.inf
    return float(_pair_kernel(model.beta, sep, potential(z), potential(w)))


def measure_energy(
    mu: DiscreteMeasure,
    model: GasModel,
    side: str | None = None,
    policy: DiagonalPolicy = DiagonalPolicy.OFF_DIAGONAL_ONLY,
    spacing: float | np.ndarray | None = None,
) -> EnergyReport:
    """Discrete energy sum_{a != b} w_a w_b F(p_a, p_b) of an atomic measure.

    With the regularized policy a diagonal term
    w_a^2 * ((beta/2) log(1/(h_a/2)) + V(p_a)) is added, h_a the local
    spacing (``spacing`` or the nearest-neighbor distance).
    """
    if side is not None and side != mu.side:
        raise ValueError(f"measure is {mu.side}-side, asked for {side}")
    n = len(mu)
    if mu.side == "plane":
        pts = mu.positions
        dist = np.abs(pts[:, None] - pts[None, :])
        v = model.potential_values(pts)
    else:
        dist = sphere_distance_matrix(mu.positions)
        v = compactified_potential(model).on_sphere_array(mu.positions)
    value = _weighted_energy(mu.weights, dist, model.beta, v, policy, spacing)
    return EnergyReport(math.inf if value is None else value, policy, n * (n - 1))


def config_energy(config: Configuration, model: GasModel) -> float:
    """(1/n^2) sum_{i != j} F(x_i, x_j); errors on coincident points."""
    pts = config.points
    n = len(pts)
    if n < 2:
        return 0.0
    dist = np.abs(pts[:, None] - pts[None, :])
    value = _weighted_energy(
        np.ones(n), dist, model.beta, model.potential_values(pts),
        DiagonalPolicy.OFF_DIAGONAL_ONLY, None,
    )
    if value is None:
        raise CoincidentPoints("configuration contains coincident points")
    return value / n**2


def log_density(config: Configuration, model: GasModel) -> float:
    """Unnormalized Gibbs log-weight beta*sum_{i<j} log|dx| - n*sum V."""
    pts = config.points
    n = len(pts)
    iu, ju = np.triu_indices(n, k=1)
    seps = np.abs(pts[iu] - pts[ju])
    if np.any(seps < COINCIDENCE_TOL):
        return -math.inf
    v = model.potential_values(pts)
    inter = model.beta * math.fsum(np.log(seps).tolist()) if len(seps) else 0.0
    return inter - n * math.fsum(v.tolist())


def log_density_sphere(config: Configuration, model: GasModel) -> float:
    """The same log-weight evaluated through the sphere-side change of variables.

    With z_i = T(x_i):

        beta sum_{i<j} log|z_i - z_j| + (beta/2) sum_i log(1 - |z_i|^2)
            - n sum_i V_sphere(z_i),

    which agrees with log_density exactly (floating point aside).
    """
    pot = compactified_potential(model)
    pts = config.points
    n = len(pts)
    zs = project_array(pts)
    iu, ju = np.triu_indices(n, k=1)
    diff = zs[iu] - zs[ju]
    seps = np.sqrt(np.sum(diff * diff, axis=-1))
    if np.any(seps < COINCIDENCE_TOL):
        return -math.inf
    inter = model.beta * math.fsum(np.log(seps).tolist()) if len(seps) else 0.0
    # On the sphere the squared norm of a point equals its height, so
    # 1 - |z|^2 = 1 - x3.
    conformal = (model.beta / 2.0) * math.fsum(np.log1p(-zs[:, 2]).tolist())
    vsum = math.fsum(pot.on_plane(pts).tolist())
    return inter + conformal - n * vsum


def align_measures(
    mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Re-express two measures on the union of their atom positions.

    Missing atoms get weight zero, so the pair becomes a valid input for
    signed_log_energy.
    """
    if mu.side != nu.side:
        raise MismatchedSupports("measures live on different sides")
    if mu.side == "plane":
        key = lambda p: complex(p)
    else:
        key = lambda p: tuple(p)
    index: dict = {}
    positions = []
    for m in (mu, nu):
        for p in m.positions:
            k = key(p)
            if k not in index:
                index[k] = len(positions)
                positions.append(p)
    size = len(positions)
    w_mu = np.zeros(size)
    w_nu = np.zeros(size)
    for m, w in ((mu, w_mu), (nu, w_nu)):
        for p, wt in zip(m.positions, m.weights):
            w[index[key(p)]] += wt
    pos = np.array(positions)
    return (
        DiscreteMeasure(pos, w_mu, side=mu.side),
        DiscreteMeasure(pos, w_nu, side=mu.side),
    )


def signed_log_energy(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    policy: DiagonalPolicy = DiagonalPolicy.OFF_DIAGONAL_ONLY,
    spacing: float | np.ndarray | None = None,
) -> float:
    """Logarithmic energy of the signed measure mu - nu on the sphere.

    Off-diagonally this can be negative for atomic measures; positivity
    (zero iff mu == nu) is only meaningful for grid measures under the
    regularized policy.
    """
    if mu.side != "sphere" or nu.side != "sphere":
        raise MismatchedSupports("signed_log_energy expects sphere-side measures")
    if mu.positions.shape != nu.positions.shape or not np.array_equal(
        mu.positions, nu.positions
    ):
        raise MismatchedSupports(
            "atom position lists differ; use align_measures first"
        )
    d = mu.weights - nu.weights
    dist = sphere_distance_matrix(mu.positions)
    value = _weighted_energy(d, dist, 2.0, np.zeros(len(d)), policy, spacing)
    if value is None:
        raise MismatchedSupports("duplicate atom positions in support")
    return value
