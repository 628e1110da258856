"""Metropolis sampling of the gas and exact beta = 2 matrix-model samplers.

The Markov chain uses single-particle random-walk proposals with the
acceptance ratio computed incrementally in O(n) per move.  Step scale
starts at 1, is tuned toward 0.3 acceptance during burn-in (Robbins-Monro)
and is frozen afterward, so the recorded chain is a fixed Markov kernel.
Models that are only weakly confining mix a 10% fraction of heavy-tailed
proposal steps so the polynomial tails of the target get explored.

``mh_chains`` runs C chains of one model on one ``ChainParams`` schedule
together: their state is a (C, n) array, and each sweep is taken in
blocks of moves.  One set of array calls per block computes the
log-distances of all its moves across all chains; each move then sums
one row of that table and each chain's acceptance is decided by the
scalar Metropolis test.  The rows hold the floats a move-by-move pass
would, summed in the same order, so no output depends on the block
length.  On real-axis supports the state is the real parts of the
starts, carried as floats.  Each chain draws from its own seeded
Generator in a fixed order and adapts its own step scale, so chain j's
samples do not depend on C; ``mh_chain`` is the C = 1 case.

Each chain's log-density trace is a running sum: it starts at the exact
``log_density`` of the initial configuration and adds the log ratio of
every accepted move, which the Metropolis test has already computed.
Every ``TRACE_RECOMPUTE_EVERY``-th recorded sample resets it to the
exact value, so rounding cannot pile up, and the largest relative gap
seen at a reset is reported as the trace drift.

The matrix-model routes sample the unitary-ensemble eigenphase gas and
map it through the half-angle tangent (which transports it exactly onto
the line gas with V = log(1 + x^2) at beta = 2), and the generalized
eigenvalues of a pair of complex Gaussian matrices, an exact draw of the
beta = 2 planar gas with V = (1 + 1/n) log(1 + |x|^2).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .energy import log_density
from .model import Admissibility, GasModel, Support, admissibility_check, validate_configuration

TARGET_ACCEPTANCE = 0.3
HEAVY_TAIL_FRACTION = 0.1
MAX_ENSEMBLE_SIZE = 512
# Recorded samples k = 0, K, 2K, ... carry the exact log-density.
TRACE_RECOMPUTE_EVERY = 100
# Elements of one block's log table, 2 C b (n + b): b is the largest block
# length that keeps 2 C b n within this (and at least 1).  About 16k
# measured fastest; 4k and 64k lost most of the gain.
BLOCK_ELEMENTS = 16384


@dataclass(frozen=True)
class ChainParams:
    """The schedule all chains of a run share: sweep counts and thinning.
    Each chain's step scale adapts during the ``burn_in`` sweeps."""

    sweeps: int
    burn_in: int
    thin: int = 1

    def __post_init__(self):
        if self.sweeps < 2:
            raise ValueError(f"chain.sweeps: must be an integer >= 2, got {self.sweeps}")
        if not 0 <= self.burn_in < self.sweeps:
            raise ValueError("chain.burn_in: must satisfy 0 <= burn_in < sweeps")
        if self.thin < 1:
            raise ValueError("chain.thin: must be an integer >= 1")

    @property
    def recorded_sweeps(self) -> range:
        """The sweeps whose end states are recorded, in order."""
        return range(self.burn_in, self.sweeps, self.thin)


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
        trace = np.asarray(self.log_density_trace)  # a chain records at least one sweep
        return {
            "acceptance_rate": self.acceptance_rate,
            "final_step_scale": self.final_step_scale,
            "log_density_trace_summary": {
                "first": float(trace[0]),
                "last": float(trace[-1]),
                "min": float(trace.min()),
                "max": float(trace.max()),
                "mean": float(trace.mean()),
            },
            "trace_drift": self.trace_drift,
        }


def proposal_log_ratio(model: GasModel, points: np.ndarray, i: int, x_new: complex) -> float:
    """Incremental log target ratio for moving particle i to x_new.

    Equals log_density(proposed) - log_density(current) exactly (both are
    finite sums over the same pairs).  A proposal that lands on a particle
    gives -inf.
    """
    pts = np.asarray(points, dtype=complex)
    ends = np.array([x_new, pts[i]])
    v_new, v_old = model.potential_values(ends)
    d = np.abs(pts - ends[:, None])
    d[:, i] = 1.0
    with np.errstate(divide="ignore"):
        s = np.log(d).sum(axis=1)
    return float(model.beta * (s[0] - s[1]) - model.n * (v_new - v_old))


class _BlockedMoves:
    """One run's Metropolis moves, taken b at a time on a (C, n) state.

    Every proposal of a sweep is known when the sweep starts, so one
    subtract, abs and log pass per block of b moves fills a (2b, C, n + b)
    table against the state at block start.  Row [2k + r, c] holds
    log|q_j - e| for the block's k-th move in chain c: e is its proposal
    (r = 0) or its particle's current position (r = 1), and q is the n
    particles followed by the block's b proposals.  Move k sums the first n
    columns of rows 2k and 2k + 1, with its own particle's column zeroed;
    one call sums the rows of the next few moves, and they are summed again
    after an accept.  When chain c accepts move k, its particle's column in
    the chain's later rows is copied from column n + k, which holds the
    distances to the new position.  So every row holds the floats a
    per-move pass would, summed as one contiguous row in the same order.
    """

    def __init__(self, x: np.ndarray):
        chains, n = x.shape
        self.n = n
        self.block = b = max(1, min(n, BLOCK_ELEMENTS // (2 * chains * n)))
        # Row sums are taken for this many moves at once.  They hold until a
        # chain accepts, which at the target acceptance happens once every
        # 1 / (1 - (1 - TARGET_ACCEPTANCE)^C) moves: 3 for one chain, 1 from 4.
        self.ahead = round(1.0 / (1.0 - (1.0 - TARGET_ACCEPTANCE) ** chains))
        self.points = np.empty((chains, n + b), dtype=x.dtype)
        self.points[:, :n] = x
        self.diff = np.empty((2 * b, chains, n + b), dtype=x.dtype)
        # |d| of a float difference is taken in place.
        self.logs = self.diff if x.dtype == float else np.empty(self.diff.shape)
        self.row_numbers = np.arange(2 * b)
        self.particle = np.arange(2 * n) // 2  # moved by row 2i + r of a sweep

    @property
    def state(self) -> np.ndarray:
        """The current (C, n) positions, a view the moves update."""
        return self.points[:, : self.n]

    @np.errstate(divide="ignore")  # a proposal on a particle gives -inf in the log table
    def sweep(self, proposals, valid, dv, u_accept, beta: float, running: list) -> list[int]:
        """Try moving particles 0..n-1 in order; returns each chain's accept count.

        ``proposals`` is (C, n), built from the state at sweep start; move
        i of chain c is tried when ``valid[c, i]``, with log ratio
        beta * (separation change) - ``dv[c, i]`` and uniform
        ``u_accept[c, i]``.  Each accepted log ratio is added to
        ``running[c]`` in move order.
        """
        n, b, points, logs = self.n, self.block, self.points, self.logs
        chains = range(len(points))
        # ends[2i + r] is (C, 1): the proposed (r = 0), then the current
        # (r = 1), position of particle i in each chain.
        ends = np.stack((proposals.T, self.state.T), axis=1).reshape(2 * n, len(points), 1)
        columns = list(zip(valid.T.tolist(), dv.T.tolist(), u_accept.T.tolist()))
        accepted = [0 for _ in chains]
        for i0 in range(0, n, b):
            moves = columns[i0 : i0 + b]
            size = len(moves)
            if not any(any(valid_i) for valid_i, _, _ in moves):
                continue
            points[:, n : n + size] = proposals[:, i0 : i0 + size]
            diff = self.diff[: 2 * size, :, : n + size]
            table = logs[: 2 * size, :, : n + size]
            np.subtract(points[:, : n + size], ends[2 * i0 : 2 * (i0 + size)], out=diff)
            np.abs(diff, out=table)
            np.log(table, out=table)
            table[self.row_numbers[: 2 * size], :, self.particle[2 * i0 : 2 * (i0 + size)]] = 0.0
            rows = table[:, :, :n]
            summed = 0  # rows of moves below this one have their sums in `sums`
            for k, (valid_i, dv_i, u_i) in enumerate(moves):
                if not any(valid_i):
                    continue
                if k >= summed:
                    first, summed = k, k + self.ahead
                    sums = np.add.reduce(rows[2 * first : 2 * summed], axis=-1).tolist()
                proposed, current = sums[2 * (k - first) : 2 * (k - first) + 2]
                for c in chains:
                    if valid_i[c]:
                        delta = beta * (proposed[c] - current[c]) - dv_i[c]
                        if delta >= 0.0 or u_i[c] < math.exp(delta):
                            summed = k + 1  # later rows change below
                            points[c, i0 + k] = points[c, n + k]
                            table[2 * k + 2 :, c, i0 + k] = table[2 * k + 2 :, c, n + k]
                            accepted[c] += 1
                            running[c] += delta
        return accepted


def _sweep_randoms(
    rng: np.random.Generator, n: int, scale: float, is_complex: bool, heavy_tails: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One sweep's proposal steps and acceptance uniforms, in a fixed draw order."""
    if is_complex:
        steps = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    else:
        steps = scale * rng.standard_normal(n)
    if heavy_tails:
        mix = rng.random(n) < HEAVY_TAIL_FRACTION
        if is_complex:
            heavy = scale * rng.standard_cauchy(n) * np.exp(2j * np.pi * rng.random(n))
        else:
            heavy = scale * rng.standard_cauchy(n)
        steps = np.where(mix, heavy, steps)
    return steps, rng.random(n)


def start_log_densities(model: GasModel, starts) -> list[float]:
    """Each start's ``log_density``; ValueError naming the first chain whose
    start has a non-finite one, which no Metropolis ratio can follow."""
    densities = [log_density(start, model) for start in starts]
    for j, density in enumerate(densities):
        if not math.isfinite(density):
            raise ValueError(
                f"chain {j}: the log-density of the start is {density}, not finite"
            )
    return densities


def mh_chains(
    model: GasModel, inits, params: ChainParams, seeds: Sequence[int]
) -> tuple[np.ndarray, list[ChainStats]]:
    """Run C single-particle Metropolis chains together; returns (samples, stats).

    Chain j starts at ``inits[j]`` (a (C, n) array, or C arrays of n points)
    and draws from ``seeds[j]``; all follow the schedule ``params``.
    ``samples[j, k]``, of a (C, K, n) complex array, is chain j's state after
    sweep ``params.recorded_sweeps[k]``, and ``stats[j]`` its ChainStats.
    The state is one (C, n) array and each block of moves is one set of
    array calls across all rows, but each chain draws from its own
    Generator in a fixed order and adapts its own scale, so chain j's
    samples and stats do not depend on C.  A start whose ``log_density`` is
    not finite raises ValueError naming its chain, before any sweep.
    """
    if len(inits) == 0 or len(inits) != len(seeds):
        raise ValueError("need one seed per initial configuration, at least one")
    model.require_weak_growth()
    for init in inits:
        validate_configuration(init, model)
    n = model.n
    support = model.support
    is_complex = not support.is_real
    rotate = support is Support.UNIT_CIRCLE
    heavy_tails = admissibility_check(model) is not Admissibility.STRONG

    x = np.array(inits, dtype=complex)
    # On a real support the chain runs on the real parts of its starts.
    moves = _BlockedMoves(x if is_complex else x.real)
    x = moves.state
    rngs = [np.random.default_rng(seed) for seed in seeds]
    scales = [1.0] * len(seeds)
    chains = range(len(seeds))

    steps = np.empty(x.shape, dtype=x.dtype)
    u_accept = np.empty(x.shape)
    recorded = params.recorded_sweeps
    samples = np.empty((len(seeds), len(recorded), n), dtype=complex)
    traces: list[list[float]] = [[] for _ in chains]
    running = start_log_densities(model, x)
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
        with np.errstate(over="ignore"):  # a dv that overflows to +inf is a rejected move
            dv[valid] = n * (v_new - v_old)
        acc_sweep = moves.sweep(proposals, valid, dv, u_accept, model.beta, running)

        if sweep < params.burn_in:
            gain = (sweep + 1.0) ** -0.6
            scales = [
                scale * math.exp(gain * (acc / n - TARGET_ACCEPTANCE))
                for scale, acc in zip(scales, acc_sweep)
            ]
        else:
            accepted_recorded = [a + b for a, b in zip(accepted_recorded, acc_sweep)]
            if sweep in recorded:
                k = recorded.index(sweep)
                samples[:, k] = x
                for c in chains:
                    if k % TRACE_RECOMPUTE_EVERY == 0:
                        exact = log_density(samples[c, k], model)
                        gap = abs(running[c] - exact) / (abs(exact) or 1.0)
                        drifts[c] = max(drifts[c], gap)
                        running[c] = exact
                    traces[c].append(running[c])

    proposed_recorded = n * (params.sweeps - params.burn_in)
    return samples, [
        ChainStats(accepted_recorded[c] / proposed_recorded, scales[c], traces[c], drifts[c])
        for c in chains
    ]


def mh_chain(
    model: GasModel, init, params: ChainParams, seed: int = 0
) -> tuple[np.ndarray, ChainStats]:
    """Run one single-particle Metropolis chain from the n points ``init``;
    returns its (K, n) recorded samples and its stats."""
    samples, stats = mh_chains(model, [init], params, [seed])
    return samples[0], stats[0]


def initial_configuration(model: GasModel, rng: np.random.Generator) -> np.ndarray:
    """A chain's starting state: n complex points drawn on the support from ``rng``."""
    n, support = model.n, model.support
    if support is Support.COMPLEX_PLANE:
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if support is Support.UNIT_CIRCLE:
        return np.exp(2j * np.pi * rng.random(n))
    if support is Support.UNIT_SEGMENT:
        return rng.random(n).astype(complex)
    if support is Support.HALF_LINE:
        return np.abs(rng.standard_normal(n)).astype(complex)
    return rng.standard_normal(n).astype(complex)


def chain_seed(base_seed: int, chain_index: int) -> int:
    """A derived seed giving an independent stream per chain."""
    ss = np.random.SeedSequence([int(base_seed), int(chain_index)])
    return int(ss.generate_state(1)[0])


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def sample_cauchy_ensemble(n: int, seed: int = 0) -> np.ndarray:
    """One exact draw of the beta = 2 line gas with V = log(1 + x^2).

    Samples Haar-unitary eigenphases and maps them through tan(theta/2).
    """
    if not 1 <= n <= MAX_ENSEMBLE_SIZE:
        raise ValueError(f"need 1 <= n <= {MAX_ENSEMBLE_SIZE}")
    rng = np.random.default_rng(seed)
    lam = np.linalg.eigvals(_haar_unitary(n, rng))
    theta = np.angle(lam)
    return np.tan(theta / 2.0).astype(complex)


def sample_spherical_ensemble(n: int, seed: int = 0) -> np.ndarray:
    """One exact draw of the beta = 2 planar gas with V = (1 + 1/n) log(1 + |x|^2).

    Eigenvalues of B^{-1} A, the generalized eigenvalues of a pair (A, B) of
    iid complex Gaussian matrices, have joint density proportional to
    prod_{i<j} |x_i - x_j|^2 prod_i (1 + |x_i|^2)^-(n+1) (Krishnapur 2009).
    V = log(1 + |x|^2), exponent n, has no finite normalization at beta = 2.
    A singular B, a probability-zero event, raises LinAlgError.
    """
    if not 1 <= n <= MAX_ENSEMBLE_SIZE:
        raise ValueError(f"need 1 <= n <= {MAX_ENSEMBLE_SIZE}")
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    return np.linalg.eigvals(np.linalg.solve(b, a))
