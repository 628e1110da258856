import math

import numpy as np
import pytest

from loggas import (
    Admissibility,
    ChainParams,
    GasModel,
    InadmissibleModel,
    Support,
    admissibility_check,
    cauchy_law,
    cauchy_potential,
    chain_seed,
    ks_distance,
    log_density,
    mh_chain,
    mh_chains,
    proposal_log_ratio,
    quadratic_potential,
    sample_cauchy_ensemble,
    sample_spherical_ensemble,
    spherical_potential,
)
from loggas import sampler
from loggas.sampler import TRACE_RECOMPUTE_EVERY, _BlockedMoves, initial_configuration

CAUCHY2 = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 2)


def seeded_init(model, seed):
    return initial_configuration(model, np.random.default_rng(seed + 1))


def small_chain(model, seed=0, sweeps=60, burn_in=20, **kw):
    params = ChainParams(sweeps=sweeps, burn_in=burn_in, **kw)
    return mh_chain(model, seeded_init(model, seed), params, seed=seed)


def per_move_chain(model, init, params, seed):
    """Reference for mh_chain: the same random draws, one proposal at a time.

    Each move is built from the current position and decided with the
    scalar Support.contains and proposal_log_ratio.  Returns the recorded
    samples and the running log-density at each, which starts at the exact
    log_density and adds every accepted log ratio, with the exact value
    taken again at every TRACE_RECOMPUTE_EVERY-th sample.
    """
    n = model.n
    is_complex = model.support in (Support.COMPLEX_PLANE, Support.UNIT_CIRCLE)
    rotate = model.support is Support.UNIT_CIRCLE
    heavy_tails = not rotate and admissibility_check(model) is not Admissibility.STRONG
    rng = np.random.default_rng(seed)
    x = np.array(init, dtype=complex)
    scale = params.step_scale
    running = log_density(init, model)
    samples, trace = [], []
    for sweep in range(params.sweeps):
        if is_complex:
            steps = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        else:
            steps = (scale * rng.standard_normal(n)).astype(complex)
        if heavy_tails:
            mix = rng.random(n) < 0.1
            if is_complex:
                heavy = scale * rng.standard_cauchy(n) * np.exp(2j * np.pi * rng.random(n))
            else:
                heavy = (scale * rng.standard_cauchy(n)).astype(complex)
            steps = np.where(mix, heavy, steps)
        u_accept = rng.random(n)
        accepted = 0
        for i in range(n):
            x_new = x[i] * np.exp(1j * steps[i].real) if rotate else x[i] + steps[i]
            if not model.support.contains_array(x_new):
                continue
            delta = proposal_log_ratio(model, x, i, x_new)
            if delta >= 0.0 or u_accept[i] < math.exp(delta):
                x[i] = x_new
                accepted += 1
                running += delta
        if sweep < params.burn_in:
            if params.adapt:
                scale *= math.exp((sweep + 1.0) ** -0.6 * (accepted / n - 0.3))
        elif (sweep - params.burn_in) % params.thin == 0:
            if len(samples) % TRACE_RECOMPUTE_EVERY == 0:
                running = log_density(x, model)
            samples.append(x.copy())
            trace.append(running)
    return samples, trace


class TestChainParams:
    def test_constraints(self):
        with pytest.raises(ValueError):
            ChainParams(sweeps=10, burn_in=10)
        with pytest.raises(ValueError):
            ChainParams(sweeps=10, burn_in=2, thin=0)
        with pytest.raises(ValueError):
            ChainParams(sweeps=10, burn_in=2, step_scale=0.0)

    def test_recorded_sweeps(self):
        assert list(ChainParams(sweeps=23, burn_in=5, thin=3).recorded_sweeps) == [
            5, 8, 11, 14, 17, 20
        ]
        assert list(ChainParams(sweeps=4, burn_in=0).recorded_sweeps) == [0, 1, 2, 3]


class TestProposalLogRatio:
    def test_unit_example(self):
        # moving the second particle of {0, 1} to 2 at (cauchy, beta=2, n=2)
        lr = proposal_log_ratio(CAUCHY2, np.array([0.0, 1.0], dtype=complex), 1, 2.0)
        assert lr == pytest.approx(2 * math.log(2) - 2 * (math.log(5) - math.log(2)))
        assert math.exp(lr) == pytest.approx(16 / 25)

    def test_coincident_proposal(self):
        lr = proposal_log_ratio(CAUCHY2, np.array([0.0, 1.0], dtype=complex), 1, 0.0)
        assert lr == -math.inf

    def test_detailed_balance_against_full_recompute(self):
        rng = np.random.default_rng(0)
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 8)
        pts = rng.standard_normal(8).astype(complex)
        for _ in range(200):
            i = int(rng.integers(8))
            x_new = complex(rng.standard_normal())
            incremental = proposal_log_ratio(model, pts, i, x_new)
            moved = pts.copy()
            moved[i] = x_new
            full = log_density(moved, model) - log_density(pts, model)
            assert incremental == pytest.approx(full, abs=1e-10)


class TestMhChain:
    def test_inadmissible_rejected(self):
        model = GasModel(Support.REAL_LINE, 3.0, cauchy_potential(), 4)
        with pytest.raises(InadmissibleModel):
            small_chain(model)

    def test_deterministic(self):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 8)
        s1, st1 = small_chain(model, seed=5)
        s2, st2 = small_chain(model, seed=5)
        for a, b in zip(s1, s2):
            assert np.array_equal(a, b)
        assert st1.final_step_scale == st2.final_step_scale
        assert st1.acceptance_rate == st2.acceptance_rate

    def test_sample_count_and_thinning(self):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 4)
        samples, _ = small_chain(model, sweeps=50, burn_in=10, thin=4)
        assert samples.shape == (10, 4)  # ceil(40 / 4) samples of 4 points
        assert samples.dtype == complex

    def test_stays_on_support_and_distinct(self):
        model = GasModel(Support.HALF_LINE, 2.0, quadratic_potential(), 6)
        samples, _ = small_chain(model, sweeps=40, burn_in=5)
        for s in samples:
            assert np.all(model.support.contains_array(s))
            assert len(np.unique(s)) == len(s)

    def test_unit_circle_rotation_proposals(self):
        model = GasModel(Support.UNIT_CIRCLE, 2.0, spherical_potential(), 6)
        samples, stats = small_chain(model, sweeps=40, burn_in=5)
        for s in samples:
            assert np.max(np.abs(np.abs(s) - 1.0)) <= 1e-12
        assert stats.acceptance_rate > 0.0

    def test_adaptation_freezes_after_burn_in(self):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 8)
        _, stats_off = small_chain(model, seed=2, adapt=False, step_scale=0.7)
        assert stats_off.final_step_scale == 0.7
        _, stats_on = small_chain(model, seed=2, adapt=True, step_scale=0.7,
                                  sweeps=400, burn_in=200)
        assert stats_on.final_step_scale != 0.7
        # recorded-phase kernel is fixed: rerunning reproduces it exactly
        _, again = small_chain(model, seed=2, adapt=True, step_scale=0.7,
                               sweeps=400, burn_in=200)
        assert stats_on.final_step_scale == again.final_step_scale

    def test_adaptation_targets_acceptance(self):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 16)
        _, stats = small_chain(model, seed=3, sweeps=600, burn_in=300,
                               step_scale=20.0)
        assert 0.15 <= stats.acceptance_rate <= 0.45

    @pytest.mark.parametrize(
        "model",
        [
            GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 8),
            GasModel(Support.HALF_LINE, 1.5, quadratic_potential(), 6),
            GasModel(Support.UNIT_SEGMENT, 2.0, cauchy_potential(), 6),
            GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 8),
            GasModel(Support.UNIT_CIRCLE, 2.0, spherical_potential(), 6),
        ],
        ids=lambda m: m.support.value,
    )
    def test_matches_per_move_reference(self, model):
        init = seeded_init(model, seed=11)
        params = ChainParams(sweeps=80, burn_in=30, thin=2)
        samples, stats = mh_chain(model, init, params, seed=11)
        reference, trace = per_move_chain(model, init, params, seed=11)
        assert len(samples) == len(reference)
        for got, want in zip(samples, reference):
            assert np.array_equal(got, want)
        assert stats.log_density_trace == trace


ALL_SUPPORTS = [
    GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 8),
    GasModel(Support.HALF_LINE, 1.5, quadratic_potential(), 6),
    GasModel(Support.UNIT_SEGMENT, 2.0, cauchy_potential(), 6),
    GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 8),
    GasModel(Support.UNIT_CIRCLE, 2.0, spherical_potential(), 6),
]


def assert_same_chain(got, want):
    """``got`` and ``want`` are (samples, stats) of one chain each."""
    (got_samples, got_stats), (want_samples, want_stats) = got, want
    assert got_samples.shape == want_samples.shape
    assert np.array_equal(got_samples, want_samples)
    assert got_stats.log_density_trace == want_stats.log_density_trace
    assert got_stats.trace_drift == want_stats.trace_drift
    assert got_stats.acceptance_rate == want_stats.acceptance_rate
    assert got_stats.final_step_scale == want_stats.final_step_scale


class TestMhChains:
    @pytest.mark.parametrize("model", ALL_SUPPORTS, ids=lambda m: m.support.value)
    def test_chain_does_not_depend_on_batch_size(self, model):
        # The real line, half line, segment and plane mix in heavy-tailed
        # Cauchy steps; the circle rotates.
        inits = [seeded_init(model, seed=20 + j) for j in range(8)]
        params = ChainParams(sweeps=60, burn_in=20)
        seeds = [chain_seed(9, j) for j in range(8)]
        samples, stats = mh_chains(model, inits, params, seeds)
        assert samples.shape == (8, 40, model.n) and len(stats) == 8
        for j in range(8):
            alone, alone_stats = mh_chains(model, [inits[j]], params, [seeds[j]])
            assert_same_chain((samples[j], stats[j]), (alone[0], alone_stats[0]))

    @pytest.mark.parametrize("model", ALL_SUPPORTS, ids=lambda m: m.support.value)
    def test_log_density_trace(self, model, monkeypatch):
        # 230 recorded sweeps thinned by 2 give 115 samples: exact resets at
        # k = 0 and k = 100, running sums in between.
        calls = []

        def counted(config, m):
            calls.append(1)
            return log_density(config, m)

        monkeypatch.setattr(sampler, "log_density", counted)
        samples, stats = small_chain(model, seed=4, sweeps=260, burn_in=30, thin=2)
        assert len(samples) == len(stats.log_density_trace) == 115
        resets = range(0, len(samples), TRACE_RECOMPUTE_EVERY)
        assert len(calls) == 1 + len(resets)
        for k, (points, value) in enumerate(zip(samples, stats.log_density_trace)):
            exact = log_density(points, model)
            assert abs(value - exact) <= 1e-9 * abs(exact)
            if k in resets:
                assert value == exact
        assert 0.0 <= stats.trace_drift <= 1e-9

    def test_equals_a_loop_of_mh_chain(self):
        model = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 10)
        inits = [seeded_init(model, seed=j) for j in range(5)]
        params = ChainParams(sweeps=50, burn_in=10, step_scale=0.7, adapt=False, thin=3)
        seeds = [100 + j for j in range(5)]
        samples, stats = mh_chains(model, inits, params, seeds)
        for init, seed, got in zip(inits, seeds, zip(samples, stats)):
            assert_same_chain(got, mh_chain(model, init, params, seed=seed))

    def test_one_params_per_init(self):
        # one schedule for the run, one seed per initial configuration
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 4)
        init = seeded_init(model, seed=0)
        params = ChainParams(sweeps=10, burn_in=2)
        with pytest.raises(ValueError):
            mh_chains(model, [init, init], params, [0])
        with pytest.raises(ValueError):
            mh_chains(model, [], params, [])
        with pytest.raises(ValueError):
            mh_chains(model, np.empty((0, 4), dtype=complex), params, [])

    def test_inits_as_one_array(self):
        # A (C, n) array of starts runs as the list of its rows does, and the
        # samples are (C, K, n) with K = len(recorded_sweeps), also when thin
        # does not divide sweeps - burn_in.
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 5)
        params = ChainParams(sweeps=30, burn_in=7, thin=4)
        inits = np.array([seeded_init(model, seed=j) for j in range(3)])
        samples, stats = mh_chains(model, inits, params, [1, 2, 3])
        assert samples.shape == (3, len(params.recorded_sweeps), 5) == (3, 6, 5)
        assert samples.dtype == complex
        listed, listed_stats = mh_chains(model, list(inits), params, [1, 2, 3])
        for j in range(3):
            assert_same_chain((samples[j], stats[j]), (listed[j], listed_stats[j]))

    def test_init_of_wrong_shape_rejected(self):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 4)
        params = ChainParams(sweeps=10, burn_in=2)
        with pytest.raises(ValueError, match="shape"):
            mh_chains(model, [np.arange(8.0).reshape(2, 4)], params, [0])
        with pytest.raises(ValueError, match="shape"):
            mh_chain(model, np.arange(5.0), params)

    def test_coincident_start_rejected(self):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 3)
        params = ChainParams(sweeps=10, burn_in=2)
        coincident = np.array([0.5, -1.0, 0.5], dtype=complex)
        inits = [seeded_init(model, seed=0), coincident]
        with pytest.raises(ValueError, match="coincident"):
            mh_chains(model, inits, params, [0, 1])

    def test_coincident_proposal_is_minus_inf_in_its_row_only(self):
        # One block holds all three moves.  Both chains move particle 0 from
        # 0 to 5 (particle 1 stays put); then chain 0 proposes particle 2 onto
        # particle 0's new position and chain 1 proposes it to 2.  With zero
        # uniforms every finite log ratio is accepted.
        x = np.array([[0.0, 1.0, 3.0], [0.0, 1.0, 3.0]])
        moves = _BlockedMoves(x)
        assert moves.block == 3
        proposals = np.array([[5.0, 9.0, 5.0], [5.0, 9.0, 2.0]])
        valid = np.array([[True, False, True], [True, False, True]])
        running = [0.0, 0.0]
        accepted = moves.sweep(proposals, valid, np.zeros((2, 3)), np.zeros((2, 3)), 1.0, running)
        assert accepted == [1, 2]
        assert moves.state.tolist() == [[5.0, 1.0, 3.0], [5.0, 1.0, 2.0]]
        assert running[0] == pytest.approx(math.log(8.0 / 3.0))
        assert running[1] == pytest.approx(math.log(8.0 / 3.0) + math.log(3.0 / 4.0))


# (n, moves per block): 13 particles in blocks of 1, 3 (four and a remainder
# of 1) and 5 (two and a remainder of 3); 100 particles at the default
# budget (81 + 19 for one chain, 27 * 3 + 19 for three); a single particle.
BLOCK_CASES = [(13, 1), (13, 3), (13, 5), (100, None), (1, None)]


class TestBlockedMoves:
    @pytest.mark.parametrize("n, block", BLOCK_CASES)
    @pytest.mark.parametrize("chains", [1, 3])
    @pytest.mark.parametrize("model", ALL_SUPPORTS, ids=lambda m: m.support.value)
    def test_matches_per_move_reference_across_blocks(self, model, chains, n, block, monkeypatch):
        model = GasModel(model.support, model.beta, model.potential, n)
        if block is not None:
            monkeypatch.setattr(sampler, "BLOCK_ELEMENTS", 2 * chains * n * block)
        inits = [seeded_init(model, seed=30 + j) for j in range(chains)]
        seeds = [chain_seed(5, j) for j in range(chains)]
        params = ChainParams(sweeps=12, burn_in=4, thin=2)
        results = mh_chains(model, inits, params, seeds)
        for init, seed, samples, stats in zip(inits, seeds, *results):
            reference, trace = per_move_chain(model, init, params, seed)
            assert len(samples) == len(reference) == 4
            for got, want in zip(samples, reference):
                assert np.array_equal(got, want)
            assert stats.log_density_trace == trace

    def test_real_support_keeps_small_imaginary_parts(self):
        # A real-axis start with imaginary parts inside the support's
        # tolerance runs on the complex state, as move-by-move.
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 13)
        init = seeded_init(model, seed=2) + 1e-13j
        params = ChainParams(sweeps=12, burn_in=4, thin=2)
        samples, stats = mh_chain(model, init, params, seed=3)
        reference, trace = per_move_chain(model, init, params, seed=3)
        for got, want in zip(samples, reference):
            assert np.array_equal(got, want)
        assert samples[-1].imag.any()
        assert stats.log_density_trace == trace

    def test_block_length(self, monkeypatch):
        # The largest b with 2 C b n within the budget, at least 1, at most n.
        for shape, block in [((1, 256), 32), ((8, 64), 16), ((1, 100), 81), ((3, 100), 27),
                             ((64, 256), 1), ((1, 4), 4), ((3, 1), 1)]:
            assert _BlockedMoves(np.zeros(shape)).block == block
        for block in (1, 3, 5):
            monkeypatch.setattr(sampler, "BLOCK_ELEMENTS", 2 * 3 * 13 * block)
            assert _BlockedMoves(np.zeros((3, 13))).block == block


class TestChainSeed:
    def test_independent_streams(self):
        seeds = {chain_seed(0, j) for j in range(100)}
        assert len(seeds) == 100
        assert chain_seed(1, 0) == chain_seed(1, 0)


class TestCauchyEnsemble:
    def test_single_particle_is_cauchy(self):
        draws = np.concatenate(
            [sample_cauchy_ensemble(1, seed=s).real for s in range(2000)]
        )
        fit = ks_distance(draws, cauchy_law().cdf)
        assert fit.statistic <= 0.05

    def test_pooled_spectra(self):
        pool = np.concatenate(
            [sample_cauchy_ensemble(32, seed=s).real for s in range(60)]
        )
        assert ks_distance(pool, cauchy_law().cdf).statistic <= 0.03

    def test_deterministic(self):
        a = sample_cauchy_ensemble(16, seed=9)
        b = sample_cauchy_ensemble(16, seed=9)
        assert np.array_equal(a, b)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            sample_cauchy_ensemble(513)


class TestSphericalEnsemble:
    def test_radial_and_angular_laws(self):
        from loggas import angular_ks_distance, radial_cdf_distance, spherical_law

        pool = np.concatenate(
            [sample_spherical_ensemble(32, seed=s) for s in range(60)]
        )
        assert radial_cdf_distance(pool, spherical_law().cdf).statistic <= 0.05
        assert angular_ks_distance(pool).statistic <= 0.05

    def test_deterministic(self):
        a = sample_spherical_ensemble(12, seed=4)
        b = sample_spherical_ensemble(12, seed=4)
        assert np.array_equal(a, b)
