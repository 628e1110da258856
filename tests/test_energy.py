import math
import warnings

import numpy as np
import pytest

from loggas import (
    DiagonalPolicy,
    DiscreteMeasure,
    GasModel,
    MismatchedSupports,
    Support,
    cauchy_potential,
    compactified_potential,
    empirical_measure,
    log_density,
    log_density_sphere,
    measure_energy,
    project_array,
    pushforward,
    quadratic_potential,
    run_identity_suites,
    signed_log_energy,
    spherical_potential,
)
from loggas.energy import _pair_kernel

CAUCHY = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 2)
REG = DiagonalPolicy.REGULARIZED_SELF_ENERGY


def equator_grid(m, offset=0.0):
    """Uniform m-point grid on the image circle of the real line."""
    phi = 2.0 * np.pi * np.arange(m) / m + offset
    return np.column_stack(
        [0.5 * np.cos(phi), np.zeros(m), 0.5 + 0.5 * np.sin(phi)]
    )


def offset_grids_on_union(m, offset):
    """Uniform measures on equator_grid(m) and on its copy turned by ``offset``,
    both on the union of the two grids, each with zero weight on the other's atoms."""
    pos = np.concatenate([equator_grid(m), equator_grid(m, offset=offset)])
    uniform, empty = np.full(m, 1 / m), np.zeros(m)
    return (
        DiscreteMeasure(pos, np.concatenate([uniform, empty]), side="sphere"),
        DiscreteMeasure(pos, np.concatenate([empty, uniform]), side="sphere"),
    )


def planar_kernel(xs, ys, model):
    """The weighted log kernel at plane pairs; +inf on the diagonal."""
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    with np.errstate(divide="ignore"):
        return _pair_kernel(
            model.beta, np.abs(xs - ys), model.potential_values(xs), model.potential_values(ys)
        )


def sphere_kernel(xs, ys, model):
    """The same kernel from the chords and sphere potentials of T(x), T(y)."""
    pot = compactified_potential(model)
    zx, zy = project_array(xs), project_array(ys)
    diff = zx - zy
    with np.errstate(divide="ignore"):
        return _pair_kernel(
            model.beta, np.sqrt(np.sum(diff * diff, axis=-1)),
            pot.on_sphere_array(zx), pot.on_sphere_array(zy),
        )


class TestKernelPlanar:
    def test_examples(self):
        k = planar_kernel([0, -1, 0.7], [1, 1, 0.7], CAUCHY)
        assert k[0] == pytest.approx(math.log(2) / 2)
        assert k[1] == pytest.approx(0.0, abs=1e-15)
        assert k[2] == math.inf

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((100, 2)).T
        assert np.array_equal(planar_kernel(x, y, CAUCHY), planar_kernel(y, x, CAUCHY))


class TestKernelSphere:
    def test_transport_example(self):
        # equals the planar kernel on projected pairs (both sides evaluated)
        lhs = planar_kernel(0, 1, CAUCHY)
        rhs = sphere_kernel(0, 1, CAUCHY)
        assert rhs == pytest.approx(math.log(2) / 2)
        assert rhs == pytest.approx(lhs, abs=1e-14)

    def test_diagonal_infinite(self):
        assert sphere_kernel(0.3, 0.3, CAUCHY) == math.inf

    def test_antipodal(self):
        assert sphere_kernel(1, -1, CAUCHY) == pytest.approx(0.0, abs=1e-14)

    def test_transport_identity_random(self):
        rng = np.random.default_rng(1)
        models = [
            CAUCHY,
            GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 2),
            GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 2),
        ]
        for model in models:
            if model.support is Support.REAL_LINE:
                x, y = rng.standard_normal((200, 2)).T
            else:
                draws = rng.standard_normal((200, 4))
                x = draws[:, 0] + 1j * draws[:, 2]
                y = draws[:, 1] + 1j * draws[:, 3]
            apart = np.abs(x - y) >= 1e-3
            lhs = planar_kernel(x[apart], y[apart], model)
            rhs = sphere_kernel(x[apart], y[apart], model)
            assert rhs == pytest.approx(lhs, abs=1e-12)

    def test_lower_bound(self):
        # log(1/|z-w|) >= 0 on the sphere, so the kernel dominates the
        # average of the sphere potential at its two arguments
        model = GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 2)
        pot = compactified_potential(model)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((200, 2)).T
        z, w = project_array(x), project_array(y)
        bound = 0.5 * (pot.on_sphere_array(z) + pot.on_sphere_array(w)) - 1e-12
        assert np.all(sphere_kernel(x, y, model) >= bound)


class TestMeasureEnergy:
    def test_pair_example(self):
        mu = empirical_measure(np.array([-1.0, 1.0], dtype=complex))
        assert measure_energy(mu, CAUCHY) == pytest.approx(0.0, abs=1e-15)

    def test_single_atom(self):
        mu = DiscreteMeasure(np.array([0j]), np.array([1.0]))
        assert measure_energy(mu, CAUCHY) == 0.0

    def test_energy_transport(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        w = rng.exponential(size=100)
        w /= w.sum()
        model = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 2)
        mu = DiscreteMeasure(pts, w)
        plane = measure_energy(mu, model)
        sphere = measure_energy(pushforward(mu), model)
        assert sphere == pytest.approx(plane, abs=1e-10)


def dense_energy(w, positions, beta, v, policy, spacing=None):
    """Reference: the n x n kernel matrix, fsum over a != b plus the diagonal."""
    n = len(w)
    if positions.ndim == 1:
        dist = np.abs(positions[:, None] - positions[None, :])
    else:
        diff = positions[:, None, :] - positions[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
    off = ~np.eye(n, dtype=bool)
    if policy is REG:
        h = np.min(np.where(off, dist, np.inf), axis=1) if spacing is None else spacing
        np.fill_diagonal(dist, np.asarray(h, dtype=float) / 2.0)
    else:
        np.fill_diagonal(dist, 1.0)
    terms = -(beta / 2.0) * np.log(dist) + 0.5 * (v[:, None] + v[None, :])
    terms *= np.outer(w, w)
    value = math.fsum(terms[off].tolist())
    if policy is REG:
        value += math.fsum(np.diagonal(terms).tolist())
    return value


ORACLE_MODELS = [
    GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 2),
    GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 2),
    GasModel(Support.REAL_LINE, 1.3, quadratic_potential(), 2),
]


class TestEnergiesMatchDenseReference:
    """Each pair summed once equals the n x n sum over a != b, bit for bit."""

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: m.potential.name)
    @pytest.mark.parametrize("n", [1, 2, 9, 60])
    def test_measure_energy(self, model, n):
        rng = np.random.default_rng(n)
        pts = 3.0 * rng.standard_normal(n)
        if not model.support.is_real:
            pts = pts + 3j * rng.standard_normal(n)
        w = rng.exponential(size=n)
        mu = DiscreteMeasure(pts, w / w.sum())
        pot = compactified_potential(model)
        for m, v in (
            (mu, model.potential_values(mu.positions)),
            (pushforward(mu), pot.on_sphere_array(pushforward(mu).positions)),
        ):
            spacings = [0.01, np.linspace(0.01, 0.1, n)] + ([None] if n > 1 else [])
            cases = [(DiagonalPolicy.OFF_DIAGONAL_ONLY, None)] + [(REG, h) for h in spacings]
            for policy, h in cases:
                got = measure_energy(m, model, policy=policy, spacing=h)
                ref = dense_energy(m.weights, m.positions, model.beta, v, policy, h)
                assert got == ref

    @pytest.mark.parametrize("m", [1, 2, 17, 64])
    def test_signed_log_energy(self, m):
        rng = np.random.default_rng(m)
        pos = equator_grid(m, offset=0.3)
        w1, w2 = rng.exponential(size=(2, m))
        mu = DiscreteMeasure(pos, w1 / w1.sum(), side="sphere")
        nu = DiscreteMeasure(pos, w2 / w2.sum(), side="sphere")
        d = mu.weights - nu.weights
        spacings = [0.05, np.linspace(0.01, 0.1, m)] + ([None] if m > 1 else [])
        cases = [(DiagonalPolicy.OFF_DIAGONAL_ONLY, None)] + [(REG, h) for h in spacings]
        for policy, h in cases:
            ref = dense_energy(d, mu.positions, 2.0, np.zeros(m), policy, h)
            assert signed_log_energy(mu, nu, policy=policy, spacing=h) == ref

    def test_coincident_and_single_atoms(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 5e-301], [0.5, 0.0, 0.5]])
        mu = DiscreteMeasure(pos, np.full(3, 1 / 3), side="sphere")
        assert measure_energy(mu, CAUCHY) == math.inf
        one = DiscreteMeasure(np.array([0.5j]), np.array([1.0]))
        with pytest.raises(ValueError, match="two atoms"):
            measure_energy(one, CAUCHY, policy=REG)


class TestIdentitySuiteSeeds:
    @pytest.mark.parametrize("seed", [30, 46, 534095829])
    def test_near_coincident_points_pass(self, seed):
        # these seeds draw configurations with separations near 1e-6
        result = run_identity_suites(seed=seed)
        assert result["pass"], result["suites"]["density_transport"]


class TestLogDensity:
    def test_examples(self):
        ld = log_density(np.array([0.0, 1.0], dtype=complex), CAUCHY)
        assert ld == pytest.approx(-2 * math.log(2))
        quad = GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 2)
        ld2 = log_density(np.array([-0.5, 0.5], dtype=complex), quad)
        assert ld2 == pytest.approx(-1.0)
        assert log_density(np.array([0.3, 0.3], dtype=complex), CAUCHY) == -math.inf
        assert log_density_sphere(np.array([0.3, 0.3], dtype=complex), CAUCHY) == -math.inf

    def test_sphere_single_particle(self):
        # one particle: the sphere-side expression collapses to -V(x)
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1)
        for x in (0.0, 0.7, -4.0):
            config = np.array([x], dtype=complex)
            assert log_density_sphere(config, model) == pytest.approx(
                -float(model.potential_values([x])[0]), abs=1e-12
            )
            assert log_density_sphere(config, model) == pytest.approx(
                log_density(config, model), abs=1e-12
            )

    def test_sphere_matches_plane_examples(self):
        config = np.array([0.0, 1.0], dtype=complex)
        assert log_density_sphere(config, CAUCHY) == pytest.approx(
            -2 * math.log(2), abs=1e-12
        )
        model = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 3)
        config3 = np.array([1.0, 1j, -1.0], dtype=complex)
        assert log_density_sphere(config3, model) == pytest.approx(
            log_density(config3, model), abs=1e-12
        )

    @pytest.mark.parametrize("far", [1e6, 5e7, 1e9, 1e200])
    def test_sphere_matches_plane_far_from_origin(self, far):
        # The conformal term comes from the planar points, so the point near
        # the pole keeps its precision, and no |x|^2 is formed above 1e8 on
        # either path.
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 3)
        config = np.array([0.3, -1.0, far], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sphere = log_density_sphere(config, model)
            plane = log_density(config, model)
        assert math.isfinite(plane)
        assert sphere == pytest.approx(plane, rel=1e-12)

    def test_density_transport_random(self):
        rng = np.random.default_rng(6)
        for model in (
            GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 20),
            GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 20),
            GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 20),
        ):
            real = model.support is Support.REAL_LINE
            for _ in range(50):
                pts = rng.standard_normal(20)
                if not real:
                    pts = pts + 1j * rng.standard_normal(20)
                config = pts.astype(complex)
                assert log_density_sphere(config, model) == pytest.approx(
                    log_density(config, model), abs=1e-10
                )


def quadrature_signed_energy(weights_a, offset_a, weights_b, offset_b, dense=4000):
    """Independent oracle: log energy of the signed measure represented by
    two piecewise-constant angular densities on the meridian circle.

    Each grid measure stands for the density spreading atom k's weight
    uniformly over its angular cell; the double integral is evaluated on
    a dense midpoint grid (diagonal cells contribute the exact cell
    average of -log chord within a cell, which vanishes relative to the
    off-diagonal part as the dense grid refines; they are included via
    the exact small-cell formula).
    """

    def density(phi, weights, offset):
        m = len(weights)
        cell = 2.0 * np.pi / m
        idx = np.floor(((phi - offset) % (2.0 * np.pi)) / cell).astype(int) % m
        return weights[idx] / cell

    phis = (np.arange(dense) + 0.5) * (2.0 * np.pi / dense)
    f = density(phis, weights_a, offset_a) - density(phis, weights_b, offset_b)
    h = 2.0 * np.pi / dense
    # chord between angles on a circle of radius 1/2
    dphi = np.abs(phis[:, None] - phis[None, :])
    chord = np.abs(np.sin(dphi / 2.0) * 2.0 * 0.5)
    np.fill_diagonal(chord, 1.0)
    kern = -np.log(chord)
    np.fill_diagonal(kern, -math.log(h * 0.5 / 2.0) + 1.0)  # exact cell average
    return float(f @ kern @ f) * h * h


class TestSignedLogEnergy:
    def test_equal_measures_zero(self):
        mu = DiscreteMeasure(equator_grid(64), np.full(64, 1 / 64), side="sphere")
        assert signed_log_energy(mu, mu, policy=REG) == 0.0

    def test_mismatched_supports(self):
        mu = DiscreteMeasure(equator_grid(8), np.full(8, 1 / 8), side="sphere")
        nu = DiscreteMeasure(equator_grid(8, offset=0.1), np.full(8, 1 / 8), side="sphere")
        with pytest.raises(MismatchedSupports):
            signed_log_energy(mu, nu)

    def test_disjoint_uniform_grids_positive(self):
        m = 100
        a, b = offset_grids_on_union(m, np.pi / m)
        value = signed_log_energy(a, b, policy=REG)
        oracle = quadrature_signed_energy(
            np.full(m, 1 / m), 0.0, np.full(m, 1 / m), np.pi / m
        )
        assert value >= 0.0
        assert oracle >= 0.0

    def test_four_point_rotation_positive(self):
        a, b = offset_grids_on_union(4, np.pi / 4)
        value = signed_log_energy(a, b, policy=REG)
        oracle = quadrature_signed_energy(
            np.full(4, 0.25), 0.0, np.full(4, 0.25), np.pi / 4
        )
        assert value >= 0.0
        assert oracle >= 0.0

    def test_random_grid_pairs_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(40, 160))
            pos = equator_grid(m)
            w1 = rng.exponential(size=m)
            w1 /= w1.sum()
            w2 = rng.exponential(size=m)
            w2 /= w2.sum()
            mu = DiscreteMeasure(pos, w1, side="sphere")
            nu = DiscreteMeasure(pos, w2, side="sphere")
            assert signed_log_energy(mu, nu, policy=REG) >= -1e-10

    def test_off_diagonal_can_be_negative_for_atoms(self):
        # the documented caveat for the unregularized surrogate: two
        # adjacent atoms at chord sin(pi/4) < 1 give a negative cross term
        pos = equator_grid(4)
        mu = DiscreteMeasure(pos, np.array([1.0, 0.0, 0.0, 0.0]), side="sphere")
        nu = DiscreteMeasure(pos, np.array([0.0, 1.0, 0.0, 0.0]), side="sphere")
        assert signed_log_energy(mu, nu) < 0.0
