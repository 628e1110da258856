import math
import warnings

import numpy as np
import pytest

from loggas import (
    DiscreteMeasure,
    GasModel,
    InadmissibleModel,
    PoleNotInvertible,
    Support,
    cauchy_potential,
    chordal_distance,
    compactified_potential,
    empirical_measure,
    measure_energy,
    project_array,
    pushforward,
    quadratic_potential,
    spherical_potential,
    unproject_array,
)


def wide_complex(rng, count, max_exp=6.0):
    mags = 10.0 ** rng.uniform(-3.0, max_exp, count)
    return mags * np.exp(2j * np.pi * rng.random(count))


class TestProject:
    def test_examples(self):
        zs = project_array([0, 1, 1 + 1j])
        assert zs[0] == pytest.approx([0, 0, 0])
        assert zs[1] == pytest.approx([0.5, 0, 0.5])
        assert zs[2] == pytest.approx([1 / 3, 1 / 3, 2 / 3])

    def test_sphere_membership_100k(self):
        rng = np.random.default_rng(1)
        zs = project_array(wide_complex(rng, 100_000))
        err = zs[:, 0] ** 2 + zs[:, 1] ** 2 + (zs[:, 2] - 0.5) ** 2 - 0.25
        assert np.max(np.abs(err)) <= 1e-12

    def test_huge_modulus_stable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zs = project_array([1e200 + 1e200j, -1e300, 2.0])
        assert zs[0, 2] == pytest.approx(1.0)
        assert np.isfinite(zs).all()

    def test_scalar_matches_array(self):
        rng = np.random.default_rng(2)
        xs = wide_complex(rng, 100)
        arr = project_array(xs)
        for x, row in zip(xs, arr):
            assert project_array(x) == pytest.approx(row, abs=0)


class TestUnproject:
    def test_examples(self):
        xs = unproject_array(np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.5]]))
        assert xs[0] == 0
        assert xs[1] == pytest.approx(1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        xs = wide_complex(rng, 10_000, max_exp=4.0)
        back = unproject_array(project_array(xs))
        assert np.max(np.abs(back - xs) / np.abs(xs)) <= 1e-12

    def test_round_trip_survives_float_pole_rounding(self):
        # at |x| = 1e200 the projected height rounds to exactly 1.0, but
        # the horizontal coordinates still carry the modulus
        x = 1e200 + 0j
        z = project_array(x)
        assert z[2] == 1.0
        assert unproject_array(z) == pytest.approx(x, rel=1e-12)

    def test_scalar_matches_array(self):
        rng = np.random.default_rng(8)
        zs = project_array(wide_complex(rng, 200, max_exp=8.0))
        assert np.any(zs[:, 2] > 0.5) and np.any(zs[:, 2] <= 0.5)
        back = unproject_array(zs)
        for row, x in zip(zs, back):
            assert unproject_array(row) == x

    def test_exact_pole_coordinates_rejected(self):
        with pytest.raises(PoleNotInvertible):
            unproject_array(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(PoleNotInvertible):
            unproject_array(np.array([[0.0, 0.0, 1.0]]))


class TestChordalDistance:
    def test_examples(self):
        assert chordal_distance(0, 1) == pytest.approx(1 / math.sqrt(2))
        assert chordal_distance(1, -1) == pytest.approx(1.0)
        assert chordal_distance(2.7 - 1j, 2.7 - 1j) == 0.0
        assert isinstance(chordal_distance(0, 1), float)
        pairs = chordal_distance([0, 1], [1, -1])
        assert np.array_equal(pairs, [chordal_distance(0, 1), chordal_distance(1, -1)])

    def test_matches_r3_distance(self):
        rng = np.random.default_rng(4)
        xs = wide_complex(rng, 100_000)
        ys = wide_complex(rng, 100_000)
        diff = project_array(xs) - project_array(ys)
        euclid = np.sqrt(np.sum(diff * diff, axis=-1))
        assert np.max(np.abs(euclid - chordal_distance(xs, ys))) <= 1e-12

    def test_bounded_by_diameter(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x, y = wide_complex(rng, 2)
            assert chordal_distance(x, y) <= 1.0

    def test_pole_identity(self):
        # 1 - |T(x)|^2 = 1/(1 + |x|^2), the squared-norm relation
        rng = np.random.default_rng(6)
        xs = wide_complex(rng, 100_000)
        zs = project_array(xs)
        lhs = 1.0 - np.sum(zs * zs, axis=-1)
        rhs = 1.0 / (1.0 + np.abs(xs) ** 2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestCompactifiedPotential:
    def test_cauchy_identically_zero(self):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1)
        pot = compactified_potential(model)
        assert pot.pole_value == 0.0
        for x in (-5.0, 0.0, 0.3, 100.0):
            assert pot.on_sphere_array(project_array(x)) == pytest.approx(0.0, abs=1e-12)

    def test_spherical_identically_zero(self):
        model = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 1)
        pot = compactified_potential(model)
        assert pot.pole_value == 0.0
        for x in (0j, 1 + 1j, -3j, 40 - 7j):
            assert pot.on_sphere_array(project_array(x)) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_values(self):
        model = GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 1)
        pot = compactified_potential(model)
        assert pot.on_sphere_array(project_array(1)) == pytest.approx(1.0 - math.log(2.0))
        assert pot.pole_value == math.inf

    @pytest.mark.parametrize("modulus", [1e6, 1e8, 1e12])
    def test_zero_near_the_pole(self, modulus):
        # 1 - x3 comes from the sphere constraint, not from a rounded x3
        cauchy = compactified_potential(GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1))
        spherical = compactified_potential(
            GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 1)
        )
        assert abs(cauchy.on_sphere_array(project_array(-modulus))) <= 1e-12
        assert abs(spherical.on_sphere_array(project_array(modulus * (0.6 + 0.8j)))) <= 1e-12

    def test_pole_value_at_the_pole(self):
        pole = np.array([0.0, 0.0, 1.0])
        cauchy = compactified_potential(GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1))
        quadratic = compactified_potential(
            GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 1)
        )
        assert cauchy.on_sphere_array(pole) == 0.0
        assert quadratic.on_sphere_array(pole) == math.inf
        rows = np.array([[pole, project_array(1.0)], [project_array(-2.0), pole]])
        values = quadratic.on_sphere_array(rows)
        assert values.shape == (2, 2)
        assert values[0, 0] == values[1, 1] == math.inf
        assert values[0, 1] == pytest.approx(1.0 - math.log(2.0))

    def test_pole_atom_energy_is_the_limit(self):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1)
        others = [project_array(0.5), project_array(-2.0)]
        weights = np.array([0.2, 0.5, 0.3])
        at_pole = DiscreteMeasure(np.array([[0.0, 0.0, 1.0], *others]), weights, side="sphere")
        near_pole = DiscreteMeasure(np.array([project_array(1e8), *others]), weights, side="sphere")
        assert measure_energy(at_pole, model) == pytest.approx(
            measure_energy(near_pole, model), abs=1e-8
        )

    def test_inadmissible_model_rejected(self):
        model = GasModel(Support.REAL_LINE, 2.5, cauchy_potential(), 1)
        with pytest.raises(InadmissibleModel, match="model.beta"):
            model.require_weak_growth()
        with pytest.raises(InadmissibleModel):
            compactified_potential(model)

    def test_plane_form_matches_sphere_form(self):
        model = GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 1)
        pot = compactified_potential(model)
        xs = np.array([0.1, -2.0, 3.5], dtype=complex)
        direct = pot.on_plane(xs)
        via_sphere = pot.on_sphere_array(project_array(xs))
        assert direct == pytest.approx(via_sphere, abs=1e-12)


class TestPushforward:
    def test_single_atom(self):
        mu = DiscreteMeasure(np.array([0j]), np.array([1.0]))
        nu = pushforward(mu)
        assert nu.side == "sphere"
        assert nu.positions[0] == pytest.approx([0, 0, 0])

    def test_empirical_three_points(self):
        mu = empirical_measure(np.array([0, 1, 1j], dtype=complex))
        nu = pushforward(mu)
        rows = {tuple(np.round(p, 12)) for p in nu.positions}
        assert (0.0, 0.0, 0.0) in rows
        assert (0.5, 0.0, 0.5) in rows
        assert (0.0, 0.5, 0.5) in rows

    def test_weights_preserved(self):
        mu = DiscreteMeasure(np.array([0j, 1 + 0j]), np.array([0.3, 0.7]))
        nu = pushforward(mu)
        assert np.array_equal(nu.weights, mu.weights)
        assert math.fsum(nu.weights.tolist()) == pytest.approx(1.0, abs=1e-15)

    def test_mass_preserved_random(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        w = rng.exponential(size=50)
        w /= w.sum()
        nu = pushforward(DiscreteMeasure(pts, w))
        assert math.fsum(nu.weights.tolist()) == pytest.approx(1.0, abs=1e-12)
