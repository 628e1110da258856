import math
import warnings

import numpy as np
import pytest

from loggas import (
    Admissibility,
    CoincidentPoints,
    DiscreteMeasure,
    GasModel,
    InadmissibleModel,
    MissingBetaPrime,
    PotentialSpec,
    Support,
    admissibility_check,
    cauchy_potential,
    empirical_measure,
    quadratic_potential,
    spherical_potential,
    validate_configuration,
)
from loggas.model import LARGE_MODULUS, log1p_modulus_squared


def model(potential, beta=2.0, n=1, support=Support.REAL_LINE):
    return GasModel(support, beta, potential, n)


class TestSupports:
    def test_membership(self):
        assert Support.REAL_LINE.contains_array(1.5)
        assert not Support.REAL_LINE.contains_array(1.5 + 1e-6j)
        assert Support.REAL_LINE.contains_array(1.5 + 1e-13j)  # axis tolerance
        assert Support.COMPLEX_PLANE.contains_array(3 - 2j)
        assert Support.HALF_LINE.contains_array(0.0)
        assert not Support.HALF_LINE.contains_array(-1e-3)
        assert Support.UNIT_SEGMENT.contains_array(1.0)
        assert not Support.UNIT_SEGMENT.contains_array(1.001)
        assert Support.UNIT_CIRCLE.contains_array(np.exp(0.3j))
        assert not Support.UNIT_CIRCLE.contains_array(1.01)

    @pytest.mark.parametrize(
        "support, inside, outside",
        [
            (Support.REAL_LINE, [0.0, -3.5, 1.5 + 1e-13j], [1.5 + 1e-6j, 2j]),
            (Support.COMPLEX_PLANE, [0.0, 3 - 2j, -1e300j], []),
            (Support.HALF_LINE, [0.0, 7.0], [-1e-3, 1 + 1j]),
            (Support.UNIT_SEGMENT, [0.0, 0.5, 1.0], [1.001, -0.1]),
            (Support.UNIT_CIRCLE, [1.0, np.exp(0.3j), -1j], [1.01, 0.0]),
        ],
    )
    def test_scalar_matches_array_and_rejects_nonfinite(self, support, inside, outside):
        nonfinite = [math.inf, -math.inf, math.nan, complex(0.0, math.inf),
                     complex(math.nan, 0.0), complex(1.0, math.nan)]
        points = np.array(inside + outside + nonfinite, dtype=complex)
        expected = [True] * len(inside) + [False] * (len(outside) + len(nonfinite))
        assert support.contains_array(points).tolist() == expected
        assert [bool(support.contains_array(z)) for z in points] == expected

    def test_solver_gate(self):
        assert Support.REAL_LINE.solver_allowed
        assert Support.COMPLEX_PLANE.solver_allowed
        assert not Support.HALF_LINE.solver_allowed
        assert not Support.UNIT_CIRCLE.solver_allowed


class TestEmpiricalMeasure:
    def test_three_distinct_points(self):
        mu = empirical_measure(np.array([0, 1, 1j], dtype=complex))
        assert len(mu) == 3
        assert np.allclose(mu.weights, 1 / 3)

    def test_duplicates_merge(self):
        mu = empirical_measure(np.array([1.0, 1.0], dtype=complex))
        assert len(mu) == 1
        assert mu.weights[0] == 1.0

    def test_multiplicity(self):
        mu = empirical_measure(np.array([-1, 0, 1, 0], dtype=complex))
        by_pos = dict(zip(mu.positions.tolist(), mu.weights.tolist()))
        assert by_pos[-1 + 0j] == 0.25
        assert by_pos[0j] == 0.5
        assert by_pos[1 + 0j] == 0.25

    def test_weights_sum_exactly_one(self):
        # rational k/n bookkeeping keeps the float total at 1 for many n
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 7, 11, 100, 128):
            pts = rng.integers(0, max(2, n // 2), n).astype(complex)
            mu = empirical_measure(pts)
            assert math.fsum(mu.weights.tolist()) == pytest.approx(1.0, abs=1e-15)


class TestDiscreteMeasure:
    def test_merging_and_idempotence(self):
        pos = np.array([1.0, 2.0, 1.0], dtype=complex)
        w = np.array([0.25, 0.5, 0.25])
        mu = DiscreteMeasure(pos, w)
        assert len(mu) == 2
        again = DiscreteMeasure(mu.positions, mu.weights)
        assert np.array_equal(again.positions, mu.positions)
        assert np.array_equal(again.weights, mu.weights)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0j, 1j]), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0j, 1j]), np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0j, 1j]), np.array([np.nan, 1.0]))

    def test_sphere_side_shape(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.5]])
        mu = DiscreteMeasure(pos, np.array([0.3, 0.7]), side="sphere")
        assert mu.positions.shape == (2, 3)
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([[0.0, 0.0]]), np.array([1.0]), side="sphere")

    @pytest.mark.parametrize("pos, side", [
        ([np.inf, 1.0], "plane"),
        ([complex(1.0, np.nan), 0j], "plane"),
        ([[0.0, 0.0, 0.0], [0.0, 0.0, np.inf]], "sphere"),
        ([[np.nan, 0.0, 0.0], [0.5, 0.0, 0.5]], "sphere"),
    ])
    def test_rejects_nonfinite_positions(self, pos, side):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(pos, [0.5, 0.5], side=side)

    def test_input_arrays_stay_writable(self):
        pos = np.array([0j, 1j])
        w = np.array([0.5, 0.5])
        DiscreteMeasure(pos, w)
        assert pos.flags.writeable and w.flags.writeable


def loop_merge(pos, wts, side):
    """Reference: duplicate atoms merged by a dict over hashable keys."""
    keys: dict = {}
    order = []
    merged: list[float] = []
    for i in range(len(wts)):
        key = complex(pos[i]) if side == "plane" else tuple(pos[i])
        j = keys.get(key)
        if j is None:
            keys[key] = len(order)
            order.append(i)
            merged.append(wts[i])
        else:
            merged[j] += wts[i]
    return pos[np.array(order)], np.array(merged, dtype=float)


def loop_empirical(points):
    """Reference: multiplicities counted by a dict, weights as rationals k/n."""
    from fractions import Fraction

    counts: dict[complex, int] = {}
    for p in points:
        counts[complex(p)] = counts.get(complex(p), 0) + 1
    n = len(points)
    return (
        np.array(list(counts), dtype=complex),
        np.array([float(Fraction(k, n)) for k in counts.values()]),
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_atoms(rng, n, side):
    """n atoms drawn from a few distinct values, with 0.0 and -0.0 mixed in."""
    values = np.array([0.0, -0.0, 1.0, -2.5, 0.1])
    if side == "plane":
        return rng.choice(values, n) + 1j * rng.choice(values, n)
    return rng.choice(values, (n, 3))


def random_weights(rng, n):
    w = rng.exponential(size=n)
    w[1:][rng.random(n - 1) < 0.2] = 0.0
    return w / w.sum()


class TestAtomGroupingMatchesLoop:
    """Array grouping equals the dict loops it replaced, bit for bit."""

    @pytest.mark.parametrize("side", ["plane", "sphere"])
    def test_discrete_measure(self, side):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            pos, w = random_atoms(rng, n, side), random_weights(rng, n)
            mu = DiscreteMeasure(pos, w, side=side)
            ref_pos, ref_w = loop_merge(pos, w, side)
            assert same_bits(mu.positions, ref_pos)
            assert same_bits(mu.weights, ref_w)

    def test_negative_zero_weight_kept_without_duplicates(self):
        mu = DiscreteMeasure([0j, -0.0 + 0j, 1j], [-0.0, 0.5, 0.5])
        assert len(mu) == 2 and same_bits(mu.weights, [0.5, 0.5])
        mu = DiscreteMeasure([0j, 1j], [-0.0, 1.0])
        assert same_bits(mu.weights, loop_merge(mu.positions, [-0.0, 1.0], "plane")[1])
        # merged sums start from +0.0, so a zero-mass group is +0.0
        mu = DiscreteMeasure([0j, 0j, 1j], [-0.0, -0.0, 1.0])
        assert same_bits(mu.weights, [0.0, 1.0])

    def test_empirical_measure(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            pts = random_atoms(rng, int(rng.integers(1, 40)), "plane")
            mu = empirical_measure(pts)
            ref_pos, ref_w = loop_empirical(pts)
            assert same_bits(mu.positions, ref_pos)
            assert same_bits(mu.weights, ref_w)


class TestValidateConfiguration:
    def test_validation(self):
        m = model(cauchy_potential(), n=2)
        validate_configuration(np.array([0.0, 1.0], dtype=complex), m)
        validate_configuration([0.0, 1.0], m)
        with pytest.raises(ValueError):
            validate_configuration(np.array([0.0], dtype=complex), m)
        with pytest.raises(ValueError):
            validate_configuration(np.array([0.0, 1.0 + 1j], dtype=complex), m)
        with pytest.raises(CoincidentPoints):
            validate_configuration(np.array([1.0, 1.0], dtype=complex), m)

    @pytest.mark.parametrize("points", [[[0.0, 1.0]], [[0.0], [1.0]], 0.0, [[0.0, 1.0]] * 2],
                             ids=["row", "column", "scalar", "two-rows"])
    def test_shape_other_than_n_rejected(self, points):
        with pytest.raises(ValueError, match=r"shape .* expects \(2,\)"):
            validate_configuration(points, model(cauchy_potential(), n=2))


class TestPotentials:
    def test_builtin_values(self):
        assert cauchy_potential().evaluate(1.0) == pytest.approx(math.log(2))
        assert spherical_potential().evaluate(1j) == pytest.approx(math.log(2))
        assert quadratic_potential().evaluate(3.0) == 9.0

    def test_pole_values_at_beta_two(self):
        # closed-form values of the sphere potential at the pole
        assert cauchy_potential().pole_value(2.0, Support.REAL_LINE) == 0.0
        assert spherical_potential().pole_value(2.0, Support.COMPLEX_PLANE) == 0.0
        assert quadratic_potential().pole_value(2.0, Support.REAL_LINE) == math.inf

    def test_pole_value_tracks_beta(self):
        pot = cauchy_potential()
        assert pot.pole_value(1.0, Support.REAL_LINE) == math.inf  # log coeff 1 > beta/2
        assert pot.pole_value(3.0, Support.REAL_LINE) == -math.inf

    def test_custom_structured_potential(self):
        pot = PotentialSpec("mix", poly=[0.0, 0.5], poly_var="r2", log_coeff=0.3,
                               beta_prime=2.0)
        x = 1.7
        assert pot.evaluate(x) == pytest.approx(0.5 * x**2 + 0.3 * math.log(1 + x**2))
        # finite differences confirm the generated gradient
        eps = 1e-6
        fd = (pot.evaluate(x + eps) - pot.evaluate(x - eps)) / (2 * eps)
        assert pot.gradient(x) == pytest.approx(fd, rel=1e-6)
        assert pot.is_even is True
        odd = PotentialSpec("odd", poly=[0.0, 1.0], poly_var="x")
        assert odd.is_even is False

    @pytest.mark.parametrize("support", [Support.COMPLEX_PLANE, Support.UNIT_CIRCLE])
    @pytest.mark.parametrize("potential, formula", [
        (quadratic_potential(), lambda r2: r2),
        (cauchy_potential(), np.log1p),
    ])
    def test_builtins_off_the_real_axis_use_modulus(self, support, potential, formula):
        # the declared structure is in |z|^2, so V is real and never cast
        zs = np.array([2j, 1j, -0.6 + 0.8j, 1.5 - 2.5j, 3.0])
        if support is Support.UNIT_CIRCLE:
            zs = zs / np.abs(zs)
        gas = model(potential, support=support)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = gas.potential_values(zs)
            gradient = gas.potential_gradient(zs)
        np.testing.assert_allclose(values, formula(np.abs(zs) ** 2), rtol=1e-15)
        h = 1e-6
        fd_re = (gas.potential_values(zs + h) - gas.potential_values(zs - h)) / (2 * h)
        fd_im = (gas.potential_values(zs + 1j * h) - gas.potential_values(zs - 1j * h)) / (2 * h)
        np.testing.assert_allclose(gradient, fd_re + 1j * fd_im, rtol=1e-6)

    def test_quadratic_infinite_at_huge_modulus(self):
        # |x|^2 overflows to inf; V must follow it to +inf, not turn into nan
        potential = quadratic_potential()
        with np.errstate(over="ignore"):
            assert potential.evaluate(1e200) == math.inf
            assert np.all(potential.evaluate(np.array([1e200, -1e200, np.inf])) == math.inf)

    @pytest.mark.parametrize("potential", [cauchy_potential(), PotentialSpec("c", [], "r2", 1.0)])
    def test_log_potential_finite_at_huge_modulus(self, potential):
        # V = log(1 + |x|^2) = 2 log 1e200 there, with no |x|^2 formed; +inf only at +-inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert potential.evaluate(1e200) == pytest.approx(2.0 * math.log(1e200), rel=1e-15)
            values = potential.evaluate(np.array([1e200, -1e200, 1e200j, np.inf, -np.inf]))
        assert np.allclose(values[:3], 2.0 * math.log(1e200), rtol=1e-15, atol=0.0)
        assert np.all(values[3:] == math.inf)

    def test_gradient_finite_at_huge_modulus(self):
        # 2x/(1 + |x|^2) = 2x/|x|^2 to double precision at |x| = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad = cauchy_potential().gradient(np.array([1e200, -1e200, 1e200j]))
        np.testing.assert_allclose(grad, [2e-200, -2e-200, 2e-200j], rtol=1e-15)

    @pytest.mark.parametrize("x", [
        0.0, 1e-300, 1.0, 1e8, np.nextafter(LARGE_MODULUS, 0.0), -3.5, 2 - 7j,
    ])
    def test_log1p_modulus_squared_below_the_switch(self, x):
        # Bit for bit the direct form, so outputs below the switch do not move.
        for arg in (x, np.array([x, 0.5])):
            expected = np.log1p(np.square(np.abs(arg)))
            assert same_bits(log1p_modulus_squared(arg), expected)
        assert same_bits(log1p_modulus_squared(np.array([x, 1e200]))[:1],
                         np.log1p(np.square(np.abs(np.array([x])))))

    def test_constant_potentials_keep_the_shape(self):
        xs = np.array([0.0, 1.0, 1e200])
        with np.errstate(over="ignore"):
            assert np.array_equal(PotentialSpec("z", []).evaluate(xs), np.zeros(3))
            assert np.array_equal(PotentialSpec("c", [1.5]).evaluate(xs), np.full(3, 1.5))

    def test_odd_polynomial_pole_is_minus_infinity(self):
        pot = PotentialSpec("cubic", poly=[0.0, 0.0, 0.0, 1.0], poly_var="x")
        assert pot.pole_value(2.0, Support.REAL_LINE) == -math.inf
        # on the half-line only the +infinity end matters
        assert pot.pole_value(2.0, Support.HALF_LINE) == math.inf


class TestGasModel:
    def test_constraints(self):
        with pytest.raises(ValueError):
            model(cauchy_potential(), beta=-1.0)
        with pytest.raises(ValueError):
            model(cauchy_potential(), n=0)

    @pytest.mark.parametrize("support", [Support.COMPLEX_PLANE, Support.UNIT_CIRCLE])
    def test_x_polynomial_needs_a_real_support(self, support):
        tilted = PotentialSpec("tilted", [0.0, 1.0, 1.0], "x", beta_prime=2.0)
        with pytest.raises(ValueError, match="real support"):
            model(tilted, support=support)
        model(tilted, support=Support.HALF_LINE)

    def test_weak_growth_flag(self):
        model(cauchy_potential(), beta=2.0).require_weak_growth()
        with pytest.raises(InadmissibleModel, match="model.beta"):  # beta' < beta
            model(cauchy_potential(), beta=2.5).require_weak_growth()
        nameless = PotentialSpec("bare", poly=[0.0, 1.0])
        with pytest.raises(InadmissibleModel, match="model.potential.beta_prime"):  # no beta'
            model(nameless, beta=2.0).require_weak_growth()


class TestAdmissibility:
    def test_quadratic_strong(self):
        # oracle: the ratio V/(beta' log r) grows without bound on the dyadic grid
        radii = np.array([2.0**k for k in range(4, 41)])
        ratios = radii**2 / (2.0 * np.log(radii))
        assert ratios.min() > 1.0
        assert admissibility_check(model(quadratic_potential())) is Admissibility.STRONG

    def test_cauchy_weak_only(self):
        # oracle: the gap log(1+r^2) - 2 log r tends to 0 (bounded below),
        # while the ratio tends to 1 (strong test fails)
        radii = np.array([2.0**k for k in range(4, 41)])
        gap = np.log1p(radii**2) - 2.0 * np.log(radii)
        assert gap.min() > -1.0
        assert admissibility_check(model(cauchy_potential())) is Admissibility.WEAK_ONLY

    def test_half_log_inadmissible(self):
        # oracle: 0.5 log(1+r^2) - 2 log r drifts down like -log r, unbounded
        radii = np.array([2.0**k for k in range(4, 41)])
        gap = 0.5 * np.log1p(radii**2) - 2.0 * np.log(radii)
        assert gap[-1] - gap[-8] < -3.0
        pot = PotentialSpec("half_log", poly=[], poly_var="r2", log_coeff=0.5,
                            beta_prime=2.0)
        assert admissibility_check(model(pot)) is Admissibility.INADMISSIBLE

    def test_cauchy_never_strong_for_admissible_beta_prime(self):
        # log(1+x^2) - (beta'/2) log(1+x^2) is 0 or tends to -inf for beta' >= 2
        for bp in (2.0, 2.5, 3.0, 10.0):
            pot = PotentialSpec("c", poly=[], poly_var="r2", log_coeff=1.0,
                                beta_prime=bp)
            assert admissibility_check(model(pot, beta=2.0)) is not Admissibility.STRONG

    @pytest.mark.parametrize("shift", [-5.0, 1e-6, 1.0])
    def test_constant_shift_keeps_the_class(self, shift):
        # V + c is the same gas as V: log(1+x^2) + c - log(1+x^2) -> c, finite
        pot = PotentialSpec("shifted", poly=[shift], log_coeff=1.0, beta_prime=2.0)
        assert admissibility_check(model(pot)) is Admissibility.WEAK_ONLY

    @pytest.mark.parametrize("pot, support, expected", [
        # 0.9 log(1+x^2) - log(1+x^2) = -0.1 log(1+x^2) -> -inf
        (PotentialSpec("weak_log", log_coeff=0.9, beta_prime=2.0), Support.REAL_LINE,
         Admissibility.INADMISSIBLE),
        # 1e6 r^2 - 1e-30 r^4: the quartic wins at r^2 > 1e36
        (PotentialSpec("quartic", [0.0, 1e6, -1e-30], beta_prime=2.0), Support.REAL_LINE,
         Admissibility.INADMISSIBLE),
        # x^3 falls to -inf on the left end of the line only
        (PotentialSpec("cubic", [0.0, 0.0, 0.0, 1.0], "x", beta_prime=2.0), Support.REAL_LINE,
         Admissibility.INADMISSIBLE),
        (PotentialSpec("cubic", [0.0, 0.0, 0.0, 1.0], "x", beta_prime=2.0), Support.HALF_LINE,
         Admissibility.STRONG),
    ], ids=["0.9-log", "r2-quartic", "cubic-line", "cubic-half-line"])
    def test_class_is_the_exact_limit(self, pot, support, expected):
        assert admissibility_check(model(pot, support=support)) is expected

    def test_missing_beta_prime(self):
        pot = PotentialSpec("bare", poly=[0.0, 1.0])
        with pytest.raises(MissingBetaPrime):
            admissibility_check(model(pot))

    def test_bounded_support_vacuous(self):
        gas = model(cauchy_potential(), support=Support.UNIT_CIRCLE)
        assert admissibility_check(gas) is Admissibility.STRONG
