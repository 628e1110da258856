import math
import re
import warnings

import numpy as np
import pytest

from loggas import (
    Admissibility,
    DiscreteMeasure,
    GasModel,
    PotentialSpec,
    Support,
    admissibility_check,
    cauchy_potential,
    compactified_potential,
    project_array,
    quadratic_potential,
    spherical_potential,
    validate_configuration,
)
from loggas.model import LARGE_MODULUS, growth_limit, log1p_modulus_squared


def model(potential, beta=2.0, n=1, support=Support.REAL_LINE):
    return GasModel(support, beta, potential, n)


def pole_value(potential, beta=2.0, support=Support.REAL_LINE):
    return compactified_potential(model(potential, beta=beta, support=support)).pole_value


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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDiscreteMeasure:
    def test_three_distinct_points(self):
        mu = DiscreteMeasure(np.array([0, 1, 1j], dtype=complex), np.full(3, 1 / 3))
        assert len(mu) == 3 and mu.side == "plane"
        assert np.allclose(mu.weights, 1 / 3)

    @pytest.mark.parametrize("pos", [
        [1.0, 1.0, 2.0],
        [[0.0, 0.0, 1.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]],
    ], ids=["plane", "sphere"])
    def test_duplicate_atoms_kept(self, pos):
        mu = DiscreteMeasure(pos, [0.25, 0.25, 0.5])
        assert len(mu) == 3
        assert same_bits(mu.weights, [0.25, 0.25, 0.5])
        assert np.array_equal(mu.positions, np.asarray(pos))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0j, 1j]), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0j, 1j]), np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0j, 1j]), np.array([np.nan, 1.0]))

    def test_sphere_side_shape(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.5]])
        mu = DiscreteMeasure(pos, np.array([0.3, 0.7]))
        assert mu.positions.shape == (2, 3) and mu.side == "sphere"
        plane = DiscreteMeasure(np.array([0.0, 0.5]), np.array([0.3, 0.7]))
        assert plane.positions.dtype == complex and plane.side == "plane"

    @pytest.mark.parametrize("pos", [
        np.zeros((2, 2)),
        np.zeros((2, 3), dtype=complex),
        np.zeros((2, 3, 1)),
        np.zeros(()),
    ], ids=["n-by-2", "complex-n-by-3", "3-d", "scalar"])
    def test_other_shapes_rejected(self, pos):
        with pytest.raises(ValueError, match="^positions must be a 1-D array"):
            DiscreteMeasure(pos, [0.5, 0.5])

    @pytest.mark.parametrize("pos", [
        [np.inf, 1.0],
        [complex(1.0, np.nan), 0j],
        [[0.0, 0.0, 0.0], [0.0, 0.0, np.inf]],
        [[np.nan, 0.0, 0.0], [0.5, 0.0, 0.5]],
    ])
    def test_rejects_nonfinite_positions(self, pos):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(pos, [0.5, 0.5])

    def test_input_arrays_stay_writable(self):
        pos = np.array([0j, 1j])
        w = np.array([0.5, 0.5])
        DiscreteMeasure(pos, w)
        assert pos.flags.writeable and w.flags.writeable


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


class TestAtomsKeptAsGiven:
    """Positions and weights come back bit for bit: no atom is merged or moved."""

    @pytest.mark.parametrize("side", ["plane", "sphere"])
    def test_discrete_measure(self, side):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            pos, w = random_atoms(rng, n, side), random_weights(rng, n)
            mu = DiscreteMeasure(pos, w)
            assert mu.side == side
            assert same_bits(mu.positions, pos)
            assert same_bits(mu.weights, w)

    def test_negative_zero_weight_kept(self):
        mu = DiscreteMeasure([0j, complex(-0.0, 0.0), 1j], [-0.0, 0.5, 0.5])
        assert len(mu) == 3 and same_bits(mu.weights, [-0.0, 0.5, 0.5])
        assert same_bits(mu.positions, np.array([0j, complex(-0.0, 0.0), 1j]))


class TestValidateConfiguration:
    def test_validation(self):
        m = model(cauchy_potential(), n=2)
        validate_configuration(np.array([0.0, 1.0], dtype=complex), m)
        validate_configuration([0.0, 1.0], m)
        with pytest.raises(ValueError):
            validate_configuration(np.array([0.0], dtype=complex), m)
        with pytest.raises(ValueError):
            validate_configuration(np.array([0.0, 1.0 + 1j], dtype=complex), m)

    @pytest.mark.parametrize("points, coincident", [
        ([1.0, 1.0], True),
        ([0.0, -0.0], True),
        ([complex(2.0, 0.0), complex(2.0, -0.0)], True),
        ([1 + 2j, 3.0, 1 + 2j], True),
        ([1j, complex(-0.0, 0.5), complex(-0.0, 1.0)], True),
        ([1 + 2j, 1 - 2j], False),
        ([1 + 2j, 2 + 1j], False),
        ([5e-324, 0.0], False),
        ([1.0, np.nextafter(1.0, 2.0)], False),
    ])
    def test_coincident_points(self, points, coincident):
        # equal as np.unique compares: 0.0 equals -0.0, complex points match
        # only when both parts are equal
        m = model(spherical_potential(), n=len(points), support=Support.COMPLEX_PLANE)
        if coincident:
            with pytest.raises(ValueError, match="^configuration has coincident points$"):
                validate_configuration(np.array(points, dtype=complex), m)
        else:
            validate_configuration(np.array(points, dtype=complex), m)

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
        assert pole_value(cauchy_potential()) == 0.0
        assert pole_value(spherical_potential(), support=Support.COMPLEX_PLANE) == 0.0
        assert pole_value(quadratic_potential()) == math.inf

    @pytest.mark.parametrize("support, u", [
        (Support.REAL_LINE, -1.0), (Support.HALF_LINE, 1.0), (Support.COMPLEX_PLANE, 0.6 + 0.8j),
    ])
    def test_pole_value_tracks_beta(self, support, u):
        # V = 0.7 + 0.8 log(1 + |x|^2): the poly part's limit 0.7 at beta = 1.6, +inf below
        pot = PotentialSpec("shifted", poly=[0.7], log_coeff=0.8)
        at_limit = compactified_potential(model(pot, beta=1.6, support=support))
        assert at_limit.pole_value == 0.7
        assert abs(at_limit.on_sphere_array(project_array(1e12 * u)) - 0.7) <= 1e-12
        assert pole_value(pot, beta=1.2, support=support) == math.inf
        assert pole_value(cauchy_potential(), beta=1.0, support=support) == math.inf

    @pytest.mark.parametrize("support, potential, beta", [
        (Support.UNIT_CIRCLE, spherical_potential(), 2.0),
        (Support.UNIT_SEGMENT, cauchy_potential(), 3.0),
    ])
    def test_bounded_support_pole_is_infinite(self, support, potential, beta):
        # the pole lies off a bounded support, where growth_limit is inf
        assert pole_value(potential, beta=beta, support=support) == math.inf

    def test_custom_structured_potential(self):
        pot = PotentialSpec("mix", poly=[0.0, 0.5], poly_var="r2", log_coeff=0.3)
        x = 1.7
        assert pot.evaluate(x) == pytest.approx(0.5 * x**2 + 0.3 * math.log(1 + x**2))
        # finite differences confirm the generated gradient
        eps = 1e-6
        fd = (pot.evaluate(x + eps) - pot.evaluate(x - eps)) / (2 * eps)
        assert pot.gradient(x) == pytest.approx(fd, rel=1e-6)

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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert potential.evaluate(1e200) == math.inf
            assert np.all(potential.evaluate(np.array([1e200, -1e200, np.inf])) == math.inf)

    @pytest.mark.parametrize("poly, var, support, x, value, gradient", [
        ((0.0, 0.0, 1.0), "r2", Support.REAL_LINE, 1e150, math.inf, math.inf),
        ((0.0, 0.0, 1.0), "r2", Support.COMPLEX_PLANE, 1e150j, math.inf, complex(0.0, math.inf)),
        ((0.0, 0.0, 1.0), "r2", Support.COMPLEX_PLANE, 1e200, math.inf, complex(math.inf, 0.0)),
        ((0.0, 0.0, 1.0), "r2", Support.COMPLEX_PLANE, 1e200j, math.inf, complex(0.0, math.inf)),
        ((0.0, 0.0, 1.0), "r2", Support.REAL_LINE, 1e200, math.inf, math.inf),
        ((0.0, 0.0, 1.0), "r2", Support.REAL_LINE, -1e200, math.inf, -math.inf),
        ((0.0, 1.0, 0.0), "r2", Support.COMPLEX_PLANE, 1e200, math.inf, 2e200),
        ((0.0, 0.0, -1.0), "r2", Support.REAL_LINE, -1e150, -math.inf, math.inf),
        ((0.0, 0.0, 0.0, 1.0), "x", Support.REAL_LINE, -1e200, -math.inf, math.inf),
    ])
    def test_polynomial_infinite_past_the_float_range(self, poly, var, support, x, value,
                                                      gradient):
        # an overflowing power or partial sum gives +-inf, never nan, and no warning
        gas = model(PotentialSpec("p", poly, var), support=support)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gas.potential_values([x]).tolist() == [value]
            assert gas.potential_gradient([x]).tolist() == [gradient]

    @pytest.mark.parametrize("support", [Support.REAL_LINE, Support.COMPLEX_PLANE])
    def test_trailing_zero_coefficients_change_nothing(self, support):
        # (0, 1, 0) is (0, 1): bit for bit where finite, and +inf (not nan) at 1e200
        xs = np.array([0.0, -0.5, 3.0, 1e100, 1e200])
        if support is Support.COMPLEX_PLANE:
            xs = xs * np.exp(0.7j)
        trailing = model(PotentialSpec("t", (0.0, 1.0, 0.0)), support=support)
        trimmed = model(PotentialSpec("t", (0.0, 1.0)), support=support)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bits(trailing.potential_values(xs), trimmed.potential_values(xs))
            assert same_bits(trailing.potential_gradient(xs), trimmed.potential_gradient(xs))
        assert trailing.potential_values(xs)[-1] == math.inf
        assert trailing.potential.poly == (0.0, 1.0, 0.0)

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

    def test_odd_polynomial_pole_on_the_half_line(self):
        # on the half-line only the +infinity end of x^3 matters
        pot = PotentialSpec("cubic", poly=[0.0, 0.0, 0.0, 1.0], poly_var="x")
        assert pole_value(pot, support=Support.HALF_LINE) == math.inf


class TestGasModel:
    def test_constraints(self):
        with pytest.raises(ValueError):
            model(cauchy_potential(), beta=-1.0)
        with pytest.raises(ValueError):
            model(cauchy_potential(), n=0)

    @pytest.mark.parametrize("support", [Support.COMPLEX_PLANE, Support.UNIT_CIRCLE])
    def test_x_polynomial_needs_a_real_support(self, support):
        tilted = PotentialSpec("tilted", [0.0, 1.0, 1.0], "x")
        with pytest.raises(ValueError, match="real support"):
            model(tilted, support=support)
        model(tilted, support=Support.HALF_LINE)

    @pytest.mark.parametrize("pot, beta", [
        (cauchy_potential(), 2.0),
        (quadratic_potential(), 4.0),  # x^2 bounds every beta'
        (PotentialSpec("bare", poly=[0.0, 1.0]), 50.0),
        (PotentialSpec("weak_log", log_coeff=0.9), 1.8),
        (PotentialSpec("log_0.6", log_coeff=0.6), 1.2),  # at the limit 2 * 0.6
    ], ids=["cauchy", "quadratic", "bare", "0.9-log", "0.6-log"])
    def test_weak_growth_passes_up_to_the_limit(self, pot, beta):
        model(pot, beta=beta).require_weak_growth()

    @pytest.mark.parametrize("pot, beta, support, message", [
        (cauchy_potential(), 2.5, Support.REAL_LINE, "model.beta: 2.5 exceeds 2 log_coeff = 2;"),
        (PotentialSpec("weak_log", log_coeff=0.9), 2.0, Support.REAL_LINE,
         "model.beta: 2 exceeds 2 log_coeff = 1.8;"),
        (PotentialSpec("log_0.6", log_coeff=0.6), 1.21, Support.REAL_LINE,
         "model.beta: 1.21 exceeds 2 log_coeff = 1.2;"),
        (PotentialSpec("half_log", log_coeff=0.5), 0.5, Support.REAL_LINE,
         "model.potential.params.log_coeff: 0.5 must exceed 1/2"),
        (PotentialSpec("flat", [1.0]), 0.5, Support.COMPLEX_PLANE,
         "model.potential.params.log_coeff: 0 must exceed 1/2"),
        (PotentialSpec("cubic", [0.0, 0.0, 0.0, 1.0], "x"), 0.5, Support.REAL_LINE,
         "model.potential.params.poly: tends to -inf at an end of real_line;"),
    ], ids=["cauchy", "0.9-log", "0.6-log", "half-log", "flat", "cubic"])
    def test_weak_growth_gate_names_the_field(self, pot, beta, support, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            model(pot, beta=beta, support=support).require_weak_growth()

    @pytest.mark.parametrize("support", [Support.UNIT_CIRCLE, Support.UNIT_SEGMENT])
    def test_bounded_support_admits_every_beta(self, support):
        # a gas on a bounded support is normalizable at every beta
        for pot in (PotentialSpec("bare", poly=[0.0, 1.0]), cauchy_potential()):
            model(pot, beta=3.0, support=support).require_weak_growth()


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
        pot = PotentialSpec("half_log", poly=[], poly_var="r2", log_coeff=0.5)
        assert admissibility_check(model(pot)) is Admissibility.INADMISSIBLE

    @pytest.mark.parametrize("shift", [-5.0, 1e-6, 1.0])
    def test_constant_shift_keeps_the_class(self, shift):
        # V + c is the same gas as V: log(1+x^2) + c - log(1+x^2) -> c, finite
        pot = PotentialSpec("shifted", poly=[shift], log_coeff=1.0)
        assert admissibility_check(model(pot)) is Admissibility.WEAK_ONLY

    @pytest.mark.parametrize("pot, support, expected", [
        # 0.9 log(1+x^2) - (beta'/2) log(1+x^2) stays bounded below up to beta' = 1.8
        (PotentialSpec("weak_log", log_coeff=0.9), Support.REAL_LINE,
         Admissibility.WEAK_ONLY),
        # 1e6 r^2 - 1e-30 r^4: the quartic wins at r^2 > 1e36
        (PotentialSpec("quartic", [0.0, 1e6, -1e-30]), Support.REAL_LINE,
         Admissibility.INADMISSIBLE),
        # x^3 falls to -inf on the left end of the line only
        (PotentialSpec("cubic", [0.0, 0.0, 0.0, 1.0], "x"), Support.REAL_LINE,
         Admissibility.INADMISSIBLE),
        (PotentialSpec("cubic", [0.0, 0.0, 0.0, 1.0], "x"), Support.HALF_LINE,
         Admissibility.STRONG),
    ], ids=["0.9-log", "r2-quartic", "cubic-line", "cubic-half-line"])
    def test_class_is_the_exact_limit(self, pot, support, expected):
        assert admissibility_check(model(pot, support=support)) is expected

    def test_bounded_support_vacuous(self):
        gas = model(cauchy_potential(), support=Support.UNIT_CIRCLE)
        assert admissibility_check(gas) is Admissibility.STRONG
        bare = PotentialSpec("bare", poly=[0.0, 1.0])
        for support in (Support.UNIT_CIRCLE, Support.UNIT_SEGMENT):
            assert admissibility_check(model(bare, support=support)) is Admissibility.STRONG

    @pytest.mark.parametrize("pot, support, limit", [
        (cauchy_potential(), Support.REAL_LINE, 2.0),
        (spherical_potential(), Support.COMPLEX_PLANE, 2.0),
        (quadratic_potential(), Support.REAL_LINE, math.inf),
        (PotentialSpec("weak_log", [3.0], log_coeff=0.9), Support.HALF_LINE, 1.8),
        (PotentialSpec("half_log", log_coeff=0.5), Support.REAL_LINE, 1.0),
        (PotentialSpec("cubic", [0.0, 0.0, 0.0, 1.0], "x"), Support.REAL_LINE, -math.inf),
        (PotentialSpec("cubic", [0.0, 0.0, 0.0, 1.0], "x"), Support.HALF_LINE, math.inf),
        (PotentialSpec("falling", [0.0, -1.0]), Support.UNIT_CIRCLE, math.inf),
    ], ids=["cauchy", "spherical", "quadratic", "0.9-log", "half-log", "cubic-line",
            "cubic-half-line", "bounded"])
    def test_growth_limit(self, pot, support, limit):
        # the largest beta' at which V - (beta'/2) log(1+|x|^2) is bounded below
        assert growth_limit(model(pot, support=support)) == limit
