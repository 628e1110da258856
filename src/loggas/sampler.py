"""Metropolis sampling of the gas and exact beta = 2 matrix-model samplers.

The Markov chain uses single-particle random-walk proposals with the
acceptance ratio computed incrementally in O(n) per move.  Step scale is
tuned toward 0.3 acceptance during burn-in (Robbins-Monro) and frozen
afterward, so the recorded chain is a fixed Markov kernel.  Models that
are only weakly confining mix a 10% fraction of heavy-tailed proposal
steps so the polynomial tails of the target get explored.

The matrix-model routes sample the unitary-ensemble eigenphase gas and
map it through the half-angle tangent (which transports it exactly onto
the line gas with V = log(1 + x^2) at beta = 2), and the generalized
eigenvalues of a pair of complex Gaussian matrices for the planar gas
with V = log(1 + |x|^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .energy import log_density
from .errors import InadmissibleModel
from .model import (
    Admissibility,
    Configuration,
    GasModel,
    Support,
    admissibility_check,
    validate_configuration,
)

TARGET_ACCEPTANCE = 0.3
HEAVY_TAIL_FRACTION = 0.1
MAX_ENSEMBLE_SIZE = 512


@dataclass(frozen=True)
class ChainParams:
    """Sweep counts, proposal scale, adaptation switch, seed, thinning."""

    sweeps: int
    burn_in: int
    step_scale: float = 1.0
    adapt: bool = True
    seed: int = 0
    thin: int = 1

    def __post_init__(self):
        if not 0 <= self.burn_in < self.sweeps:
            raise ValueError("need 0 <= burn_in < sweeps")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not self.step_scale > 0:
            raise ValueError("step_scale must be positive")


@dataclass
class ChainStats:
    """Post-burn-in acceptance rate, frozen step scale, log-density trace."""

    acceptance_rate: float
    final_step_scale: float
    energy_trace: list[float] = field(default_factory=list)

    def to_json(self) -> dict:
        trace = np.asarray(self.energy_trace)
        summary = {}
        if len(trace):
            summary = {
                "first": float(trace[0]),
                "last": float(trace[-1]),
                "min": float(trace.min()),
                "max": float(trace.max()),
                "mean": float(trace.mean()),
            }
        return {
            "acceptance_rate": self.acceptance_rate,
            "final_step_scale": self.final_step_scale,
            "energy_trace_summary": summary,
        }


def _log_separation_change(points: np.ndarray, i: int, x_new: complex) -> float:
    """sum_{j != i} log|x_j - x_new| - log|x_j - x_i|; -inf if x_new hits a particle."""
    d_new = np.abs(points - x_new)
    d_old = np.abs(points - points[i])
    d_new[i] = 1.0
    d_old[i] = 1.0
    if np.any(d_new == 0.0):
        return -math.inf
    return np.log(d_new).sum() - np.log(d_old).sum()


def proposal_log_ratio(model: GasModel, points: np.ndarray, i: int, x_new: complex) -> float:
    """Incremental log target ratio for moving particle i to x_new.

    Equals log_density(proposed) - log_density(current) exactly (both are
    finite sums over the same pairs).
    """
    pts = np.asarray(points, dtype=complex)
    v_old, v_new = model.potential_values(np.array([pts[i], x_new]))
    inter = model.beta * _log_separation_change(pts, i, x_new)
    return float(inter - model.n * (v_new - v_old))


def mh_chain(
    model: GasModel, init: Configuration, params: ChainParams
) -> tuple[list[Configuration], ChainStats]:
    """Run one single-particle Metropolis chain; returns thinned samples."""
    if not model.weak_growth_ok:
        raise InadmissibleModel("model fails weak-growth admissibility")
    validate_configuration(init, model)
    n = model.n
    support = model.support
    is_complex = support in (Support.COMPLEX_PLANE, Support.UNIT_CIRCLE)
    rotate = support is Support.UNIT_CIRCLE
    heavy_tails = (
        not rotate
        and admissibility_check(model).classification is not Admissibility.STRONG
    )

    rng = np.random.default_rng(params.seed)
    x = np.array(init.points, dtype=complex)
    if len(np.unique(x)) != n:
        raise ValueError("initial configuration has coincident points")

    scale = params.step_scale
    beta = model.beta

    samples: list[Configuration] = []
    trace: list[float] = []
    accepted_recorded = 0
    proposed_recorded = 0

    for sweep in range(params.sweeps):
        in_burn = sweep < params.burn_in
        if is_complex:
            steps = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        else:
            steps = (scale * rng.standard_normal(n)).astype(complex)
        if heavy_tails:
            mix = rng.random(n) < HEAVY_TAIL_FRACTION
            if is_complex:
                heavy = scale * rng.standard_cauchy(n) * np.exp(
                    2j * np.pi * rng.random(n)
                )
            else:
                heavy = (scale * rng.standard_cauchy(n)).astype(complex)
            steps = np.where(mix, heavy, steps)
        u_accept = rng.random(n)

        # Move i changes only x[i], so each proposal of the sweep depends on
        # the sweep's starting positions alone and all can be built up front.
        if rotate:
            # x * exp(i theta) by the textbook product, which rounds as the
            # scalar complex product does; NumPy's array product fuses
            # multiply-adds and rounds differently.
            rot = np.exp(1j * steps.real)
            proposals = np.empty(n, dtype=complex)
            proposals.real = x.real * rot.real - x.imag * rot.imag
            proposals.imag = x.real * rot.imag + x.imag * rot.real
        else:
            proposals = x + steps
        moves = np.flatnonzero(support.contains_array(proposals))
        dv = n * (model.potential_values(proposals[moves]) - model.potential_values(x[moves]))

        acc_sweep = 0
        for i, dv_i in zip(moves.tolist(), dv.tolist()):
            delta = beta * _log_separation_change(x, i, proposals[i]) - dv_i
            if delta >= 0.0 or u_accept[i] < math.exp(delta):
                x[i] = proposals[i]
                acc_sweep += 1

        if in_burn:
            if params.adapt:
                gain = (sweep + 1.0) ** -0.6
                scale *= math.exp(gain * (acc_sweep / n - TARGET_ACCEPTANCE))
        else:
            proposed_recorded += n
            accepted_recorded += acc_sweep
            if (sweep - params.burn_in) % params.thin == 0:
                config = Configuration(x.copy())
                samples.append(config)
                trace.append(log_density(config, model))

    rate = accepted_recorded / proposed_recorded if proposed_recorded else 0.0
    return samples, ChainStats(rate, scale, trace)


def chain_seed(base_seed: int, chain_index: int) -> int:
    """A derived seed giving an independent stream per chain."""
    ss = np.random.SeedSequence([int(base_seed), int(chain_index)])
    return int(ss.generate_state(1)[0])


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def sample_cauchy_ensemble(n: int, seed: int = 0) -> Configuration:
    """One exact draw of the beta = 2 line gas with V = log(1 + x^2).

    Samples Haar-unitary eigenphases and maps them through tan(theta/2).
    """
    if not 1 <= n <= MAX_ENSEMBLE_SIZE:
        raise ValueError(f"need 1 <= n <= {MAX_ENSEMBLE_SIZE}")
    rng = np.random.default_rng(seed)
    lam = np.linalg.eigvals(_haar_unitary(n, rng))
    theta = np.angle(lam)
    return Configuration(np.tan(theta / 2.0).astype(complex))


def sample_spherical_ensemble(n: int, seed: int = 0) -> Configuration:
    """One draw of the beta = 2 planar gas with V = log(1 + |x|^2).

    Generalized eigenvalues of a pair of iid complex Gaussian matrices
    (exact up to an O(1/n) correction in the confinement strength).  A
    singular second matrix is a probability-zero event and is retried
    with a fresh draw.
    """
    if not 1 <= n <= MAX_ENSEMBLE_SIZE:
        raise ValueError(f"need 1 <= n <= {MAX_ENSEMBLE_SIZE}")
    rng = np.random.default_rng(seed)
    for _ in range(5):
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
        b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
        w = scipy.linalg.eigvals(a, b)
        if np.all(np.isfinite(w)):
            return Configuration(w)
    raise RuntimeError("generalized eigenvalue draws kept returning non-finite values")
