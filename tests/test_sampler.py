import math

import numpy as np
import pytest

from loggas import (
    Admissibility,
    ChainParams,
    Configuration,
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
from loggas.sampler import TRACE_RECOMPUTE_EVERY, _log_separation_change, initial_configuration

CAUCHY2 = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 2)


def seeded_init(model, seed):
    return initial_configuration(model, np.random.default_rng(seed + 1))


def small_chain(model, seed=0, sweeps=60, burn_in=20, **kw):
    params = ChainParams(sweeps=sweeps, burn_in=burn_in, **kw)
    return mh_chain(model, seeded_init(model, seed), params, seed=seed)


def per_move_chain(model, init, params, seed):
    """Reference for mh_chain: the same random draws, one proposal at a time.

    Each move is built from the current position and decided with the
    scalar Support.contains and proposal_log_ratio.
    """
    n = model.n
    is_complex = model.support in (Support.COMPLEX_PLANE, Support.UNIT_CIRCLE)
    rotate = model.support is Support.UNIT_CIRCLE
    heavy_tails = not rotate and admissibility_check(model) is not Admissibility.STRONG
    rng = np.random.default_rng(seed)
    x = np.array(init.points, dtype=complex)
    scale = params.step_scale
    samples = []
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
        if sweep < params.burn_in:
            if params.adapt:
                scale *= math.exp((sweep + 1.0) ** -0.6 * (accepted / n - 0.3))
        elif (sweep - params.burn_in) % params.thin == 0:
            samples.append(x.copy())
    return samples


class TestChainParams:
    def test_constraints(self):
        with pytest.raises(ValueError):
            ChainParams(sweeps=10, burn_in=10)
        with pytest.raises(ValueError):
            ChainParams(sweeps=10, burn_in=2, thin=0)
        with pytest.raises(ValueError):
            ChainParams(sweeps=10, burn_in=2, step_scale=0.0)


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
            full = log_density(Configuration(moved), model) - log_density(
                Configuration(pts), model
            )
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
            assert np.array_equal(a.points, b.points)
        assert st1.final_step_scale == st2.final_step_scale
        assert st1.acceptance_rate == st2.acceptance_rate

    def test_sample_count_and_thinning(self):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 4)
        samples, _ = small_chain(model, sweeps=50, burn_in=10, thin=4)
        assert len(samples) == 10  # ceil(40 / 4)

    def test_stays_on_support_and_distinct(self):
        model = GasModel(Support.HALF_LINE, 2.0, quadratic_potential(), 6)
        samples, _ = small_chain(model, sweeps=40, burn_in=5)
        for s in samples:
            assert np.all(model.support.contains_array(s.points))
            assert len(np.unique(s.points)) == len(s.points)

    def test_unit_circle_rotation_proposals(self):
        model = GasModel(Support.UNIT_CIRCLE, 2.0, spherical_potential(), 6)
        samples, stats = small_chain(model, sweeps=40, burn_in=5)
        for s in samples:
            assert np.max(np.abs(np.abs(s.points) - 1.0)) <= 1e-12
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
        samples, _ = mh_chain(model, init, params, seed=11)
        reference = per_move_chain(model, init, params, seed=11)
        assert len(samples) == len(reference)
        for got, want in zip(samples, reference):
            assert np.array_equal(got.points, want)


ALL_SUPPORTS = [
    GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 8),
    GasModel(Support.HALF_LINE, 1.5, quadratic_potential(), 6),
    GasModel(Support.UNIT_SEGMENT, 2.0, cauchy_potential(), 6),
    GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 8),
    GasModel(Support.UNIT_CIRCLE, 2.0, spherical_potential(), 6),
]


def assert_same_chain(got, want):
    (got_samples, got_stats), (want_samples, want_stats) = got, want
    assert len(got_samples) == len(want_samples)
    for a, b in zip(got_samples, want_samples):
        assert np.array_equal(a.points, b.points)
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
        batch = mh_chains(model, inits, params, seeds)
        assert len(batch) == 8
        for j in range(8):
            assert_same_chain(batch[j], mh_chains(model, [inits[j]], params, [seeds[j]])[0])

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
        for k, (config, value) in enumerate(zip(samples, stats.log_density_trace)):
            exact = log_density(config, model)
            assert abs(value - exact) <= 1e-9 * abs(exact)
            if k in resets:
                assert value == exact
        assert 0.0 <= stats.trace_drift <= 1e-9

    def test_equals_a_loop_of_mh_chain(self):
        model = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 10)
        inits = [seeded_init(model, seed=j) for j in range(5)]
        params = ChainParams(sweeps=50, burn_in=10, step_scale=0.7, adapt=False, thin=3)
        seeds = [100 + j for j in range(5)]
        batch = mh_chains(model, inits, params, seeds)
        for init, seed, got in zip(inits, seeds, batch):
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

    def test_coincident_start_rejected(self):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 3)
        params = ChainParams(sweeps=10, burn_in=2)
        coincident = Configuration(np.array([0.5, -1.0, 0.5], dtype=complex))
        inits = [seeded_init(model, seed=0), coincident]
        with pytest.raises(ValueError, match="coincident"):
            mh_chains(model, inits, params, [0, 1])

    def test_coincident_proposal_is_minus_inf_in_its_row_only(self):
        x = np.array([[0.0, 1.0, 3.0], [0.0, 1.0, 3.0]], dtype=complex)
        # row 0 moves particle 2 onto particle 0; row 1 moves it to 2
        ends = np.array([[0.0, 2.0], [3.0, 3.0]], dtype=complex).reshape(2, 2, 1)
        with np.errstate(divide="ignore"):
            seps = _log_separation_change(x, 2, ends)
        assert seps[0] == -math.inf
        assert seps[1] == pytest.approx(math.log(2.0) - math.log(3.0 * 2.0))


class TestChainSeed:
    def test_independent_streams(self):
        seeds = {chain_seed(0, j) for j in range(100)}
        assert len(seeds) == 100
        assert chain_seed(1, 0) == chain_seed(1, 0)


class TestCauchyEnsemble:
    def test_single_particle_is_cauchy(self):
        draws = np.concatenate(
            [sample_cauchy_ensemble(1, seed=s).points.real for s in range(2000)]
        )
        fit = ks_distance(draws, cauchy_law().cdf)
        assert fit.statistic <= 0.05

    def test_pooled_spectra(self):
        pool = np.concatenate(
            [sample_cauchy_ensemble(32, seed=s).points.real for s in range(60)]
        )
        assert ks_distance(pool, cauchy_law().cdf).statistic <= 0.03

    def test_deterministic(self):
        a = sample_cauchy_ensemble(16, seed=9).points
        b = sample_cauchy_ensemble(16, seed=9).points
        assert np.array_equal(a, b)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            sample_cauchy_ensemble(513)


class TestSphericalEnsemble:
    def test_radial_and_angular_laws(self):
        from loggas import angular_ks_distance, radial_cdf_distance, spherical_law

        pool = np.concatenate(
            [sample_spherical_ensemble(32, seed=s).points for s in range(60)]
        )
        assert radial_cdf_distance(pool, spherical_law().cdf).statistic <= 0.05
        assert angular_ks_distance(pool).statistic <= 0.05

    def test_deterministic(self):
        a = sample_spherical_ensemble(12, seed=4).points
        b = sample_spherical_ensemble(12, seed=4).points
        assert np.array_equal(a, b)
