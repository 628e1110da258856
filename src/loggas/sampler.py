"""Metropolis sampling of the gas and exact beta = 2 matrix-model samplers.

The Markov chain uses single-particle random-walk proposals with the
acceptance ratio computed incrementally in O(n) per move.  Step scale is
tuned toward 0.3 acceptance during burn-in (Robbins-Monro) and frozen
afterward, so the recorded chain is a fixed Markov kernel.  Models that
are only weakly confining mix a 10% fraction of heavy-tailed proposal
steps so the polynomial tails of the target get explored.

``mh_chains`` runs C chains of one model on one ``ChainParams`` schedule
together: their state is a (C, n) array and move i is one set of array
calls across all chains, with each chain's acceptance decided by the
scalar Metropolis test.  Each chain draws from its own seeded Generator
in a fixed order and adapts its own step scale, so chain j's samples do
not depend on C; ``mh_chain`` is the C = 1 case.

Each chain's log-density trace is a running sum: it starts at the exact
``log_density`` of the initial configuration and adds the log ratio of
every accepted move, which the Metropolis test has already computed.
Every ``TRACE_RECOMPUTE_EVERY``-th recorded sample resets it to the
exact value, so rounding cannot pile up, and the largest relative gap
seen at a reset is reported as the trace drift.

The matrix-model routes sample the unitary-ensemble eigenphase gas and
map it through the half-angle tangent (which transports it exactly onto
the line gas with V = log(1 + x^2) at beta = 2), and the generalized
eigenvalues of a pair of complex Gaussian matrices for the planar gas
with V = log(1 + |x|^2).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .energy import log_density
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
# Recorded samples k = 0, K, 2K, ... carry the exact log-density.
TRACE_RECOMPUTE_EVERY = 100


@dataclass(frozen=True)
class ChainParams:
    """The schedule all chains of a run share: sweep counts, initial proposal
    scale, adaptation switch (burn-in only), thinning."""

    sweeps: int
    burn_in: int
    step_scale: float = 1.0
    adapt: bool = True
    thin: int = 1

    def __post_init__(self):
        if self.sweeps < 2:
            raise ValueError(f"chain.sweeps: must be an integer >= 2, got {self.sweeps}")
        if not 0 <= self.burn_in < self.sweeps:
            raise ValueError("chain.burn_in: must satisfy 0 <= burn_in < sweeps")
        if not self.step_scale > 0:
            raise ValueError("chain.step_scale: must be positive")
        if self.thin < 1:
            raise ValueError("chain.thin: must be an integer >= 1")


@dataclass
class ChainStats:
    """Post-burn-in acceptance rate, frozen step scale, log-density trace.

    ``log_density_trace[k]`` is the Gibbs log-weight of recorded sample k,
    tracked from the accepted moves' log ratios and exact (bit-equal to
    ``log_density``) at every k divisible by ``TRACE_RECOMPUTE_EVERY``.
    ``trace_drift`` is the largest |running - exact| / |exact| found at
    those resets.
    """

    acceptance_rate: float
    final_step_scale: float
    log_density_trace: list[float]
    trace_drift: float

    def to_json(self) -> dict:
        trace = np.asarray(self.log_density_trace)
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
            "log_density_trace_summary": summary,
            "trace_drift": self.trace_drift,
        }


def _log_separation_change(x: np.ndarray, i: int, ends: np.ndarray) -> np.ndarray:
    """Per row c: sum_{j != i} log|x[c, j] - ends[0, c]| - log|x[c, j] - ends[1, c]|.

    ``x`` is (C, n) and ``ends`` is (2, C, 1): each row's proposed point
    for particle i, then its current one.  A proposal that lands on a
    particle gives -inf; callers ignore NumPy's divide warning for it.
    """
    d = np.abs(x - ends)
    d[:, :, i] = 1.0
    s = np.log(d, out=d).sum(axis=2)
    return s[0] - s[1]


def proposal_log_ratio(model: GasModel, points: np.ndarray, i: int, x_new: complex) -> float:
    """Incremental log target ratio for moving particle i to x_new.

    Equals log_density(proposed) - log_density(current) exactly (both are
    finite sums over the same pairs).
    """
    pts = np.asarray(points, dtype=complex)
    ends = np.array([x_new, pts[i]])
    v_new, v_old = model.potential_values(ends)
    with np.errstate(divide="ignore"):
        inter = model.beta * _log_separation_change(pts[None, :], i, ends.reshape(2, 1, 1))[0]
    return float(inter - model.n * (v_new - v_old))


def _sweep_randoms(
    rng: np.random.Generator, n: int, scale: float, is_complex: bool, heavy_tails: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One sweep's proposal steps and acceptance uniforms, in a fixed draw order."""
    if is_complex:
        steps = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    else:
        steps = (scale * rng.standard_normal(n)).astype(complex)
    if heavy_tails:
        mix = rng.random(n) < HEAVY_TAIL_FRACTION
        if is_complex:
            heavy = scale * rng.standard_cauchy(n) * np.exp(2j * np.pi * rng.random(n))
        else:
            heavy = (scale * rng.standard_cauchy(n)).astype(complex)
        steps = np.where(mix, heavy, steps)
    return steps, rng.random(n)


def mh_chains(
    model: GasModel, inits: Sequence[Configuration], params: ChainParams, seeds: Sequence[int]
) -> list[tuple[list[Configuration], ChainStats]]:
    """Run C single-particle Metropolis chains together; one result per chain.

    Chain j starts at ``inits[j]`` and draws from ``seeds[j]``; all follow
    the schedule ``params``.  Their state is one (C, n) array and move i
    is one set of array calls across all rows, but each chain draws from
    its own Generator in a fixed order and adapts its own scale, so chain
    j's samples and stats do not depend on C.
    """
    if not inits or len(inits) != len(seeds):
        raise ValueError("need one seed per initial configuration, at least one")
    model.require_weak_growth()
    for init in inits:
        validate_configuration(init, model)
    n = model.n
    support = model.support
    is_complex = not support.is_real
    rotate = support is Support.UNIT_CIRCLE
    heavy_tails = not rotate and admissibility_check(model) is not Admissibility.STRONG

    x = np.array([init.points for init in inits], dtype=complex)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    scales = [params.step_scale] * len(seeds)
    beta = model.beta
    chains = range(len(seeds))

    steps = np.empty(x.shape, dtype=complex)
    u_accept = np.empty(x.shape)
    samples: list[list[Configuration]] = [[] for _ in chains]
    traces: list[list[float]] = [[] for _ in chains]
    running = [log_density(init, model) for init in inits]
    drifts = [0.0 for _ in chains]
    accepted_recorded = [0 for _ in chains]

    for sweep in range(params.sweeps):
        for c in chains:
            steps[c], u_accept[c] = _sweep_randoms(rngs[c], n, scales[c], is_complex, heavy_tails)

        # Move i changes only x[:, i], so each proposal of the sweep depends on
        # the sweep's starting positions alone and all can be built up front.
        if rotate:
            # x * exp(i theta) by the textbook product, which rounds as the
            # scalar complex product does; NumPy's array product fuses
            # multiply-adds and rounds differently.
            rot = np.exp(1j * steps.real)
            proposals = np.empty_like(x)
            proposals.real = x.real * rot.real - x.imag * rot.imag
            proposals.imag = x.real * rot.imag + x.imag * rot.real
        else:
            proposals = x + steps
        valid = support.contains_array(proposals)
        dv = np.zeros(x.shape)
        v_new, v_old = model.potential_values(proposals[valid]), model.potential_values(x[valid])
        dv[valid] = n * (v_new - v_old)
        # ends[i] is (2, C, 1): the proposed, then the current, position of
        # particle i in each chain.
        ends = np.stack((proposals, x)).transpose(2, 0, 1)[..., None]
        columns = zip(valid.T.tolist(), dv.T.tolist(), u_accept.T.tolist())

        acc_sweep = [0 for _ in chains]
        with np.errstate(divide="ignore"):
            for i, (valid_i, dv_i, u_i) in enumerate(columns):
                if not any(valid_i):
                    continue
                seps = _log_separation_change(x, i, ends[i]).tolist()
                for c in chains:
                    if valid_i[c]:
                        delta = beta * seps[c] - dv_i[c]
                        if delta >= 0.0 or u_i[c] < math.exp(delta):
                            x[c, i] = proposals[c, i]
                            acc_sweep[c] += 1
                            running[c] += delta

        if sweep < params.burn_in:
            if params.adapt:
                gain = (sweep + 1.0) ** -0.6
                scales = [
                    scale * math.exp(gain * (acc / n - TARGET_ACCEPTANCE))
                    for scale, acc in zip(scales, acc_sweep)
                ]
        else:
            for c in chains:
                accepted_recorded[c] += acc_sweep[c]
            if (sweep - params.burn_in) % params.thin == 0:
                for c in chains:
                    config = Configuration(x[c])
                    if len(samples[c]) % TRACE_RECOMPUTE_EVERY == 0:
                        exact = log_density(config, model)
                        gap = abs(running[c] - exact) / (abs(exact) or 1.0)
                        drifts[c] = max(drifts[c], gap)
                        running[c] = exact
                    samples[c].append(config)
                    traces[c].append(running[c])

    proposed_recorded = n * (params.sweeps - params.burn_in)
    return [
        (
            samples[c],
            ChainStats(accepted_recorded[c] / proposed_recorded, scales[c], traces[c], drifts[c]),
        )
        for c in chains
    ]


def mh_chain(
    model: GasModel, init: Configuration, params: ChainParams, seed: int = 0
) -> tuple[list[Configuration], ChainStats]:
    """Run one single-particle Metropolis chain; returns thinned samples."""
    return mh_chains(model, [init], params, [seed])[0]


def initial_configuration(model: GasModel, rng: np.random.Generator) -> Configuration:
    """A chain's starting state: n points drawn on the support from ``rng``."""
    n, support = model.n, model.support
    if support is Support.COMPLEX_PLANE:
        return Configuration(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if support is Support.UNIT_CIRCLE:
        return Configuration(np.exp(2j * np.pi * rng.random(n)))
    if support is Support.UNIT_SEGMENT:
        return Configuration(rng.random(n))
    if support is Support.HALF_LINE:
        return Configuration(np.abs(rng.standard_normal(n)))
    return Configuration(rng.standard_normal(n))


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
    import scipy.linalg

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
