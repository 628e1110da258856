import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import fft, integrate, special

from loggas import (
    ClosedFormLaw,
    DiscreteMeasure,
    GasModel,
    GridSpec,
    PotentialSpec,
    Support,
    cauchy_law,
    cauchy_potential,
    circle_uniform_law,
    closed_form,
    closed_form_cell_masses,
    el_residual,
    fekete_descent,
    grid_minimize,
    measure_energy,
    quadratic_potential,
    sphere_uniform_law,
    spherical_law,
    spherical_potential,
)
import loggas
from loggas import equilibrium
from loggas.cli import parse_config, run
from loggas.energy import DiagonalPolicy, _pair_kernel
from loggas.equilibrium import GridKernel, check_solvable, project_to_simplex

CAUCHY = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1)
SPHERICAL = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 1)
QUADRATIC = GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 1)
# V(x) = x^2 + x/2 is not even, so v differs from its mirror image.
TILTED = GasModel(
    Support.REAL_LINE, 2.0,
    PotentialSpec("tilted", [0.0, 0.5, 1.0], "x"), 1,
)


def dense_kernel(model, atoms, h):
    """The pair kernel matrix Q, entry by entry: the oracle for GridKernel.

    The diagonal self-distance is h/2 (the regularized self-energy).
    """
    dist = np.abs(atoms[:, None] - atoms[None, :])
    np.fill_diagonal(dist, h / 2.0)
    v = model.potential_values(atoms)
    return _pair_kernel(model.beta, dist, v[:, None], v[None, :])


class DenseKernel:
    """GridKernel's interface over the dense matrix."""

    def __init__(self, model, grid):
        self.atoms, h = grid.atoms()
        self.matrix = dense_kernel(model, self.atoms, h)
        self.potential = model.potential_values(self.atoms)

    def __call__(self, w):
        return self.matrix @ w

    def log_part(self, w):
        """Q w less the potential part: the matrix minus (v_a + v_b)/2, applied."""
        v = self.potential
        return self.matrix @ w - 0.5 * (v * w.sum() + v @ w)


def dense_grid_minimize(monkeypatch, *args, **kwargs):
    """grid_minimize with the dense matrix in place of the FFT operator."""
    with monkeypatch.context() as m:
        m.setattr(equilibrium, "GridKernel", DenseKernel)
        return grid_minimize(*args, **kwargs)


def two_product_grid_minimize(model, grid):
    """grid_minimize's loop with a product of its own for Q y: the oracle for
    forming Q y from the products of z, w_new and w_prev.

    Starts from uniform weights; returns (weights, energy, iterations).
    """
    q = GridKernel(model, grid)
    size = len(q.atoms)
    step = 1.0 / (2.0 * equilibrium._spectral_norm(q) * 1.05)
    w = np.full(size, 1.0 / size)
    qw = q(w)
    energy_w = float(w @ qw)
    best_w, best_gap = w, math.inf
    y, w_prev, t = w.copy(), w.copy(), 1.0
    for k in range(1, grid.max_iter + 1):
        z = project_to_simplex(y - step * 2.0 * q(y))
        qz = q(z)
        energy_z = float(z @ qz)
        if energy_z <= energy_w:
            w_new, q_new, energy_new = z, qz, energy_z
        else:
            w_new = project_to_simplex(w - step * 2.0 * qw)
            q_new = q(w_new)
            energy_new = float(w_new @ q_new)
            t = 1.0
        grad = 2.0 * q_new
        gap = float(grad @ w_new - grad.min())
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = z + (t / t_next) * (w_new - z) + ((t - 1.0) / t_next) * (w_new - w_prev)
        w_prev, w, qw, energy_w = w, w_new, q_new, energy_new
        t = t_next
        if gap < best_gap:
            best_w, best_gap = w, gap
        if gap < grid.tol:
            break
    weights = best_w / math.fsum(best_w.tolist())
    return weights, float(weights @ q(weights)), k


class TestClosedForm:
    def test_cauchy(self):
        law = closed_form(CAUCHY)
        assert law.name == "cauchy"
        assert law.density(0.0) == pytest.approx(1 / math.pi)
        assert law.cdf(0.0) == pytest.approx(0.5)
        assert law.cdf(1.0) == pytest.approx(0.75)

    def test_spherical(self):
        law = closed_form(SPHERICAL)
        assert law.density(0j) == pytest.approx(1 / math.pi)
        # radial CDF at r=1 is 1/2; oracle: quadrature of the radial density
        mass, _ = integrate.quad(lambda r: 2 * r / (1 + r * r) ** 2, 0, 1)
        assert mass == pytest.approx(0.5, abs=1e-10)
        assert law.cdf(1.0) == pytest.approx(0.5)

    def test_matched_by_structure(self):
        # the law follows V's structure and the support, not the potential's name
        renamed = PotentialSpec("mine", log_coeff=1.0, poly=(0.0,))
        for support, name in [(Support.REAL_LINE, "cauchy"), (Support.COMPLEX_PLANE, "spherical")]:
            for potential in (cauchy_potential(), spherical_potential(), renamed):
                assert closed_form(GasModel(support, 2.0, potential, 1)).name == name

    def test_no_closed_form(self):
        assert closed_form(QUADRATIC) is None
        assert closed_form(GasModel(Support.REAL_LINE, 1.5, cauchy_potential(), 1)) is None
        tilted_log = PotentialSpec("cauchy", (0.0, 0.1), "x", log_coeff=1.0)
        assert closed_form(GasModel(Support.REAL_LINE, 2.0, tilted_log, 1)) is None
        half_line = GasModel(Support.HALF_LINE, 2.0, cauchy_potential(), 1)
        assert closed_form(half_line) is None
        assert closed_form(half_line, side="sphere") is None

    def test_sphere_side_laws(self):
        assert closed_form(CAUCHY, side="sphere").name == "circle_uniform"
        assert closed_form(SPHERICAL, side="sphere").name == "sphere_uniform"
        with pytest.raises(ValueError, match="side"):
            closed_form(CAUCHY, side="bogus")

    def test_densities_normalized(self):
        val, _ = integrate.quad(cauchy_law().density, -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-9)
        val, _ = integrate.quad(
            lambda r: spherical_law().density(complex(r)) * 2 * np.pi * r, 0, np.inf
        )
        assert val == pytest.approx(1.0, abs=1e-9)
        val, _ = integrate.quad(circle_uniform_law().density, 0, 2 * np.pi)
        assert val == pytest.approx(1.0, abs=1e-12)
        # sphere area is pi at radius 1/2
        assert sphere_uniform_law().density(0.0) * math.pi == pytest.approx(1.0)

    def test_reference_energies_against_quadrature(self):
        # uniform circle of radius R: mean of log|chord| is log R, so the
        # log energy is -log R; at R = 1/2 that is log 2
        mean_log, _ = integrate.quad(
            lambda t: np.log(2 * 0.5 * np.abs(np.sin(t / 2))) / (2 * np.pi),
            0, 2 * np.pi,
        )
        assert -mean_log == pytest.approx(math.log(2), abs=1e-9)
        assert closed_form(CAUCHY).energy == closed_form(CAUCHY, side="sphere").energy
        assert closed_form(CAUCHY).energy == pytest.approx(math.log(2))
        # uniform sphere of radius R: mean of log distance under the
        # polar-angle density sin(t)/2 gives energy 1/2 at R = 1/2
        mean_log, _ = integrate.quad(
            lambda t: np.log(2 * 0.5 * np.sin(t / 2)) * np.sin(t) / 2, 0, np.pi
        )
        assert -mean_log == pytest.approx(0.5, abs=1e-9)
        assert closed_form(SPHERICAL).energy == closed_form(SPHERICAL, side="sphere").energy
        assert closed_form(SPHERICAL).energy == pytest.approx(0.5)


class TestGridSpec:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            GridSpec((-1.0, 1.0), 8)

    def test_atoms_line(self):
        grid = GridSpec((-1.0, 1.0), 20)
        atoms, h = grid.atoms()
        assert h == pytest.approx(0.1)
        assert atoms[0] == pytest.approx(-0.95)
        assert len(atoms) == 20

    def test_atoms_plane(self):
        grid = GridSpec(((-2.0, 2.0), (-2.0, 2.0)), 16)
        atoms, h = grid.atoms()
        assert len(atoms) == 256
        assert h == pytest.approx(0.25)
        with pytest.raises(ValueError):
            GridSpec(((-2.0, 2.0), (-1.0, 1.0)), 16).atoms()

    @pytest.mark.parametrize("support, wide, narrow", [
        (Support.REAL_LINE, (-20.0, 20.0), (-1.0, 1.0)),
        (Support.COMPLEX_PLANE, ((-20.0, 20.0),) * 2, ((-0.9, 0.9),) * 2),
    ], ids=["line", "plane"])
    def test_potential_must_be_finite_on_the_grid(self, support, wide, narrow):
        # V = 1e306 |x|^2 is inf for |x| > 13.4; the check itself warns of nothing
        model = GasModel(support, 1.0, PotentialSpec("steep", (0.0, 1e306)), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^grid.window: V is not finite"):
                grid_minimize(model, GridSpec(wide, 32))
            # finite, but the solver's Q w would overflow
            with pytest.raises(ValueError, match=r"^grid.window: max \|V\| is \S+e\+30[56] on"):
                check_solvable(model, GridSpec(narrow, 16))

    @pytest.mark.parametrize("support, window, coefficient", [
        (Support.REAL_LINE, (-1.0, 1.0), 1e148),
        (Support.COMPLEX_PLANE, ((-0.9, 0.9),) * 2, 1e147),
    ], ids=["line", "plane"])
    def test_potential_just_inside_the_scale_bound_solves(self, support, window, coefficient):
        # max |V| times the atom count is 1.4e149 on the line, 3.7e149 on the plane
        model = GasModel(support, 1.0, PotentialSpec("steep", (0.0, coefficient)), 1)
        grid = GridSpec(window, 16, max_iter=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            measure, report = grid_minimize(model, grid)
        assert np.isfinite(report.energy) and report.converged
        assert measure.weights.sum() == pytest.approx(1.0)


class TestProjectToSimplex:
    def test_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.standard_normal(rng.integers(1, 40))
            w = project_to_simplex(v)
            assert np.all(w >= 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fixed_point(self):
        w = np.array([0.2, 0.3, 0.5])
        assert project_to_simplex(w) == pytest.approx(w)

    @pytest.mark.parametrize("v", [
        np.array([1e16, 0.0]),
        np.array([1e147, 0.0, -1e147]),
        np.random.default_rng(3).standard_normal(100) * 1e200,
    ], ids=["1e16", "1e147", "1e200"])
    def test_huge_entries_put_all_mass_on_the_maximum(self, v):
        # Unshifted, u[0] - (u[0] - 1) rounds to 0 past about 2**53 and the
        # projection found no index.
        w = project_to_simplex(v)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert w[np.argmax(v)] == 1.0


def spherical_mass_by_quadrature(box) -> float:
    (xlo, xhi), (ylo, yhi) = box
    mass, _ = integrate.dblquad(
        lambda y, x: 1.0 / (np.pi * (1.0 + x * x + y * y) ** 2),
        xlo, xhi, ylo, yhi, epsabs=1e-10,
    )
    return mass


class TestCapturedMass:
    WINDOWS = [
        ((-4.0, 4.0), (-4.0, 4.0)),
        ((-20.0, 20.0), (-20.0, 20.0)),
        ((-1.0, 3.0), (-2.0, 5.0)),
        ((0.5, 1.0), (0.2, 7.0)),
    ]

    @pytest.mark.parametrize("window", WINDOWS)
    def test_planar_mass_matches_quadrature(self, window):
        oracle = spherical_mass_by_quadrature(window)
        assert abs(equilibrium.captured_mass(SPHERICAL, window) - oracle) <= 1e-14

    @pytest.mark.parametrize("window", WINDOWS)
    def test_planar_cells_share_the_window_path(self, window):
        # the cells of a grid on the window are boxes of the same
        # corner-difference path as the window itself
        m = 16
        edges = [np.linspace(lo, hi, m + 1) for lo, hi in window]
        cells = closed_form(SPHERICAL).box_masses(edges)
        assert cells.shape == (m, m)
        window_mass = equilibrium.captured_mass(SPHERICAL, window)
        assert abs(cells.sum() - window_mass) <= 1e-14
        for iy, ix in [(0, 0), (0, m - 1), (m // 2, m // 2 - 1), (m - 1, 3)]:
            box = ((edges[0][ix], edges[0][ix + 1]), (edges[1][iy], edges[1][iy + 1]))
            oracle = spherical_mass_by_quadrature(box) / spherical_mass_by_quadrature(window)
            assert abs(cells[iy, ix] / cells.sum() - oracle) <= 1e-13

    def test_planar_cell_masses_in_atom_order(self):
        # off-center in x only, so a transposed mass array would not match
        grid = GridSpec(((-1.0, 5.0), (-3.0, 3.0)), 16)
        masses = closed_form_cell_masses(SPHERICAL, grid)
        atoms, _ = grid.atoms()
        assert masses.sum() == pytest.approx(1.0, abs=1e-14)
        midpoint = spherical_law().density(atoms)
        assert np.max(np.abs(masses / (midpoint / midpoint.sum()) - 1.0)) <= 0.05

    def test_no_closed_form(self):
        assert equilibrium.captured_mass(QUADRATIC, (-4.0, 4.0)) is None
        with pytest.raises(ValueError, match="^no closed-form limit on real_line at beta=2.0$"):
            closed_form_cell_masses(QUADRATIC, GridSpec((-4.0, 4.0), 16))


class TestGridMinimize:
    def test_cauchy_small(self):
        grid = GridSpec((-12.0, 12.0), 128, tol=1e-5, max_iter=50000)
        mu, rep = grid_minimize(CAUCHY, grid)
        assert rep.converged
        assert rep.gap <= 1e-5
        assert abs(rep.energy - math.log(2)) <= 0.06
        assert rep.captured_mass == pytest.approx(
            cauchy_law().cdf(12) - cauchy_law().cdf(-12), abs=1e-12
        )

    def test_solver_gates(self):
        with pytest.raises(ValueError, match="^grid.window: has atoms outside half_line"):
            grid_minimize(
                GasModel(Support.HALF_LINE, 2.0, cauchy_potential(), 1),
                GridSpec((-1.0, 10.0), 32),
            )
        with pytest.raises(ValueError, match="^model.beta: 3 exceeds 2 log_coeff = 2;"):
            grid_minimize(
                GasModel(Support.REAL_LINE, 3.0, cauchy_potential(), 1),
                GridSpec((-10.0, 10.0), 32),
            )

    def test_off_centre_window(self):
        # an even V takes any window whose atoms lie in the support
        grid = GridSpec((-10.0, 30.0), 400)
        _, rep = grid_minimize(CAUCHY, grid)
        assert rep.converged
        assert rep.captured_mass == cauchy_law().box_masses([[-10.0, 30.0]]).item()
        assert rep.captured_mass == pytest.approx(
            (math.atan(30.0) + math.atan(10.0)) / math.pi, abs=1e-15
        )
        assert abs(rep.energy - math.log(2)) <= 0.02  # -1.65e-2 measured

    def test_initializations_agree(self):
        tol = 1e-5
        grid = GridSpec((-10.0, 10.0), 64, tol=tol, max_iter=50000)
        rng = np.random.default_rng(1)
        energies = []
        for _ in range(3):
            w0 = rng.exponential(size=64)
            w0 /= w0.sum()
            _, rep = grid_minimize(CAUCHY, grid, init_weights=w0)
            energies.append(rep.energy)
        assert max(energies) - min(energies) <= 2 * tol

    def test_symmetric_weights_for_even_potential(self):
        grid = GridSpec((-8.0, 8.0), 64, tol=1e-7, max_iter=50000)
        mu, _ = grid_minimize(CAUCHY, grid)
        assert np.max(np.abs(mu.weights - mu.weights[::-1])) <= 1e-9

    def test_permutation_invariance(self):
        # relabeling the grid atoms relabels the weights and nothing else
        grid = GridSpec((-8.0, 8.0), 32, tol=1e-8, max_iter=50000)
        mu, rep = grid_minimize(CAUCHY, grid)
        atoms, h = grid.atoms()
        rng = np.random.default_rng(2)
        perm = rng.permutation(len(atoms))
        # solve the permuted problem by minimizing over the permuted kernel
        q = dense_kernel(CAUCHY, atoms[perm], h)
        w = np.full(len(atoms), 1.0 / len(atoms))
        step = 1.0 / (2.0 * np.linalg.norm(q, 2) * 1.05)
        for _ in range(20000):
            w = project_to_simplex(w - step * 2.0 * (q @ w))
        unpermuted = np.empty_like(w)
        unpermuted[perm] = w
        assert np.max(np.abs(unpermuted - mu.weights)) <= 1e-6

    def test_objective_monotone_and_gap_nonnegative(self):
        grid = GridSpec((-10.0, 10.0), 64, tol=1e-7, max_iter=5000)
        energies, gaps = [], []
        grid_minimize(
            CAUCHY, grid,
            on_iterate=lambda k, e, g: (energies.append(e), gaps.append(g)),
        )
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        assert all(g >= 0.0 for g in gaps)

    def test_minimizer_pushforward_near_uniform_on_circle(self):
        from loggas import pushforward

        grid = GridSpec((-20.0, 20.0), 400, tol=1e-4, max_iter=100000)
        mu, _ = grid_minimize(CAUCHY, grid)
        nu = pushforward(mu)
        angles = np.mod(
            np.arctan2(nu.positions[:, 2] - 0.5, nu.positions[:, 0]), 2 * np.pi
        )
        order = np.argsort(angles)
        cum = np.cumsum(nu.weights[order])
        target = angles[order] / (2 * np.pi)
        # weighted KS of the atomic angular measure against uniform
        stat = np.max(
            np.maximum(np.abs(cum - target), np.abs(cum - nu.weights[order] - target))
        )
        assert stat <= 0.05

    def test_nonconvergence_flagged(self):
        grid = GridSpec((-10.0, 10.0), 64, tol=1e-12, max_iter=5)
        mu, rep = grid_minimize(CAUCHY, grid)
        assert not rep.converged
        assert rep.gap > 1e-12
        assert len(mu) == 64

    def test_quadratic_support_concentration(self):
        grid = GridSpec((-2.0, 2.0), 400, tol=1e-4, max_iter=50000)
        mu, rep = grid_minimize(QUADRATIC, grid)
        edge = math.sqrt(2) + 0.1
        inside = np.abs(mu.positions.real) <= edge
        assert mu.weights[inside].sum() >= 0.99
        assert rep.captured_mass is None

    def test_cell_masses_renormalized(self):
        grid = GridSpec((-10.0, 10.0), 64)
        masses = closed_form_cell_masses(CAUCHY, grid)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(masses >= 0)


class TestGridKernel:
    @pytest.mark.parametrize("model, grid", [
        (CAUCHY, GridSpec((-20.0, 20.0), 400)),
        (SPHERICAL, GridSpec(((-4.0, 4.0), (-4.0, 4.0)), 20)),
        (SPHERICAL, GridSpec(((-1.0, 3.0), (-3.0, 1.0)), 17)),
        (GasModel(Support.REAL_LINE, 1.0, quadratic_potential(), 1), GridSpec((-2.0, 2.0), 64)),
        (TILTED, GridSpec((-1.5, 2.5), 37)),
    ])
    def test_matches_dense_matvec(self, model, grid):
        q = GridKernel(model, grid)
        dense = DenseKernel(model, grid)
        rng = np.random.default_rng(5)
        for _ in range(3):
            # unit vectors of mixed sign: 1^T w is far from 1
            w = rng.standard_normal(len(q.atoms))
            w /= np.linalg.norm(w)
            assert np.max(np.abs(q(w) - dense(w))) <= 1e-13

    @pytest.mark.parametrize("grid", [
        GridSpec((-20.0, 20.0), 3600),
        GridSpec(((-4.0, 4.0), (-4.0, 4.0)), 60),
    ], ids=["line", "plane"])
    def test_matvec_makes_no_fft_array(self, grid):
        # The FFT arrays (~117 KB here) are made once.  Made per call, malloc
        # returned their pages and faulted them in again, by heap layout.
        model = CAUCHY if not grid.is_planar else SPHERICAL
        q = GridKernel(model, grid)
        w = np.full(len(q.atoms), 1.0 / len(q.atoms))
        q(w)
        tracemalloc.start()
        try:
            q(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * w.nbytes  # the result and its temporaries, 3,600 floats each

    @pytest.mark.parametrize("model, grid", [
        (CAUCHY, GridSpec((-20.0, 20.0), 400)),
        (SPHERICAL, GridSpec(((-4.0, 4.0), (-4.0, 4.0)), 20)),
        (TILTED, GridSpec((-1.5, 2.5), 64)),
    ])
    def test_solve_matches_dense_solve(self, model, grid, monkeypatch):
        grid = replace(grid, tol=1e-4, max_iter=100000)
        mu, rep = grid_minimize(model, grid)
        mu_d, rep_d = dense_grid_minimize(monkeypatch, model, grid)
        assert rep.iterations == rep_d.iterations
        assert rep.converged and rep_d.converged
        assert abs(rep.energy - rep_d.energy) <= 1e-12
        assert np.max(np.abs(mu.weights - mu_d.weights)) <= 1e-12
        summed = measure_energy(mu, model, policy=DiagonalPolicy.REGULARIZED_SELF_ENERGY)
        assert abs(rep.energy - summed) <= 1e-12

    def test_fft_length_is_5_smooth_next_fast_len(self):
        lengths = [equilibrium._fft_length(n) for n in range(1, 5001)]
        assert lengths == [fft.next_fast_len(n, real=True) for n in range(1, 5001)]

    def test_plane_60_iterations(self):
        # 308 with the step from the norm of the whole Q
        grid = GridSpec(((-4.0, 4.0), (-4.0, 4.0)), 60, tol=1e-4)
        _, rep = grid_minimize(SPHERICAL, grid)
        assert rep.converged and rep.iterations == 173
        assert abs(rep.energy - 0.5) <= 0.05

    def test_one_product_per_iteration(self, monkeypatch):
        # every product, the step's power iteration included, goes through log_part
        counts = {"products": 0, "projections": 0}
        product, project = GridKernel.log_part, equilibrium.project_to_simplex

        def counted_product(self, w):
            counts["products"] += 1
            return product(self, w)

        def counted_project(v):
            counts["projections"] += 1
            return project(v)

        monkeypatch.setattr(GridKernel, "log_part", counted_product)
        monkeypatch.setattr(equilibrium, "project_to_simplex", counted_project)
        grid = GridSpec(((-4.0, 4.0), (-4.0, 4.0)), 60, tol=1e-4)
        _, rep = grid_minimize(SPHERICAL, grid)
        assert rep.iterations == 173
        # 20 for the power iteration, one at the start, one per projection
        # (an iteration's, and a fallback's) and one for the final energy
        assert counts["products"] == 22 + counts["projections"] == 215

    @pytest.mark.parametrize("model, grid", [
        (SPHERICAL, GridSpec(((-4.0, 4.0), (-4.0, 4.0)), 60)),
        (GasModel(Support.REAL_LINE, 1.0, quadratic_potential(), 1), GridSpec((-3.0, 3.0), 400)),
        (CAUCHY, GridSpec((-20.0, 20.0), 3200)),
    ], ids=["plane-60", "quadratic-line-400", "cauchy-line-3200"])
    def test_solve_matches_two_product_solve(self, model, grid):
        mu, rep = grid_minimize(model, grid)
        weights, energy, iterations = two_product_grid_minimize(model, grid)
        assert rep.converged
        assert rep.iterations == iterations
        assert np.max(np.abs(mu.weights - weights)) <= 1e-13
        assert abs(rep.energy - energy) <= 1e-14

    def test_cli_outputs_reproducible(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            raw = {
                "command": "equilibrium",
                "model": {"support": "complex_plane", "beta": 2.0, "n": 1,
                          "potential": {"name": "spherical"}},
                "grid": {"window": [[-4, 4], [-4, 4]], "resolution": 24},
                "out": str(tmp_path / name),
            }
            assert run(parse_config(json.dumps(raw))) == 0
            outputs.append([
                (tmp_path / name / f).read_bytes() for f in ("report.json", "measure.csv")
            ])
        assert outputs[0] == outputs[1]

    def test_outputs_do_not_depend_on_the_blas_thread_count(self):
        # 101 x 101 = 10,201 atoms: above 10,000, OpenBLAS splits a dot product
        # across its threads, so a BLAS inner product would change the bytes.
        code = (
            "import hashlib\n"
            "from loggas import GasModel, GridSpec, Support, grid_minimize, spherical_potential\n"
            "model = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 1)\n"
            "mu, rep = grid_minimize(model, GridSpec(((-4.0, 4.0), (-4.0, 4.0)), 101))\n"
            "print(repr(rep.energy), rep.iterations, hashlib.sha256(mu.weights.tobytes()).hexdigest())\n"
        )
        src = str(Path(loggas.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                timeout=300, env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads},
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0] and outputs[0] == outputs[1]


def arcsine_cdf(x):
    """The arcsine law on [0, 1]."""
    return 2.0 / np.pi * np.arcsin(np.sqrt(np.clip(x, 0.0, 1.0)))


def marchenko_pastur_cdf(y):
    """The Marchenko-Pastur law of ratio 1 on [0, 4]: the square of a
    semicircular variable on [-2, 2]."""
    y = np.clip(y, 0.0, 4.0)
    return np.sqrt(y * (4.0 - y)) / (2.0 * np.pi) + 2.0 / np.pi * np.arcsin(np.sqrt(y) / 2.0)


class TestExactLawsAtEveryBeta:
    """Two solves whose minimizers are known at every beta, with no quadrature.

    V = 0 on the unit segment: the arcsine law, energy (beta/2) log 4.
    V = x on the half line: the law of (beta/2) Y, Y Marchenko-Pastur of
    ratio 1, energy (beta/2)(3/2 - log(beta/2)).  Each law has an inverse
    square-root edge, so the energy error falls about 3.4x per 4x refinement
    and the CDF error at the cell edges like h^(1/2).  The bounds are 1.25
    times the errors measured.
    """

    @staticmethod
    def solve(support, beta, m):
        """(report, energy - exact, max CDF error at the cell edges) at tol 1e-6."""
        if support is Support.UNIT_SEGMENT:
            model = GasModel(support, beta, PotentialSpec("flat"), 1)
            window, exact, cdf = (0.0, 1.0), beta / 2.0 * math.log(4.0), arcsine_cdf
        else:
            model = GasModel(support, beta, PotentialSpec("linear", (0.0, 1.0), "x"), 1)
            window, exact = (0.0, 2.5 * beta), beta / 2.0 * (1.5 - math.log(beta / 2.0))
            cdf = lambda x: marchenko_pastur_cdf(2.0 * x / beta)
        mu, rep = grid_minimize(model, GridSpec(window, m, tol=1e-6))
        edges = np.linspace(*window, m + 1)
        cumulative = np.concatenate([[0.0], np.cumsum(mu.weights)])
        return rep, rep.energy - exact, np.max(np.abs(cumulative - cdf(edges)))

    @pytest.mark.parametrize("support, beta, m, energy_error, cdf_error", [
        (Support.UNIT_SEGMENT, 1.0, 100, 8.54e-3, 2.50e-2),
        (Support.UNIT_SEGMENT, 1.0, 400, 2.55e-3, 1.27e-2),
        (Support.UNIT_SEGMENT, 2.0, 100, 1.71e-2, 2.50e-2),
        (Support.UNIT_SEGMENT, 2.0, 400, 5.09e-3, 1.27e-2),
        (Support.HALF_LINE, 1.0, 400, 5.49e-3, 2.87e-2),
        (Support.HALF_LINE, 2.0, 400, 1.10e-2, 2.87e-2),
    ], ids=["segment-1-100", "segment-1-400", "segment-2-100", "segment-2-400",
            "half-line-1-400", "half-line-2-400"])
    def test_energy_and_cdf(self, support, beta, m, energy_error, cdf_error):
        rep, de, dcdf = self.solve(support, beta, m)
        assert rep.converged and rep.captured_mass is None
        assert abs(de) <= 1.25 * energy_error
        assert dcdf <= 1.25 * cdf_error

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_segment_error_falls_under_refinement(self, beta):
        coarse = self.solve(Support.UNIT_SEGMENT, beta, 100)[1]
        fine = self.solve(Support.UNIT_SEGMENT, beta, 400)[1]
        assert abs(fine) * 3.0 <= abs(coarse)  # 3.36 measured at both beta


class TestSpectralNorm:
    """The step's norm is that of Q on zero-sum vectors, ||P K P||."""

    @pytest.mark.parametrize("support, potential, window, m", [
        (Support.REAL_LINE, cauchy_potential(), (-20.0, 20.0), 64),
        (Support.COMPLEX_PLANE, spherical_potential(), ((-4.0, 4.0),) * 2, 16),
    ], ids=["line-64", "plane-16"])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_matches_dense_eigenvalue(self, support, potential, window, m, beta):
        model = GasModel(support, beta, potential, 1)
        grid = GridSpec(window, m)
        dense = DenseKernel(model, grid)
        v, size = dense.potential, len(dense.atoms)
        k = dense.matrix - 0.5 * (v[:, None] + v[None, :])
        p = np.eye(size) - 1.0 / size
        expected = np.max(np.abs(np.linalg.eigvalsh(p @ k @ p)))
        assert equilibrium._spectral_norm(GridKernel(model, grid)) == pytest.approx(
            expected, rel=1e-6)

    def test_independent_of_potential_and_spacing(self):
        cauchy = equilibrium._spectral_norm(GridKernel(CAUCHY, GridSpec((-20.0, 20.0), 400)))
        quadratic = equilibrium._spectral_norm(GridKernel(QUADRATIC, GridSpec((-3.0, 3.0), 400)))
        assert cauchy == pytest.approx(quadratic, rel=1e-9)

    def test_finite_for_a_potential_near_the_scale_bound(self):
        # Through the whole Q, the mean of terms near 1e148 leaves a residue near
        # 1e131 that swamps the kernel part.
        model = GasModel(Support.REAL_LINE, 1.0, PotentialSpec("steep", (0.0, 1e148)), 1)
        norm = equilibrium._spectral_norm(GridKernel(model, GridSpec((-1.0, 1.0), 16)))
        assert math.isfinite(norm) and norm > 0
        quadratic = replace(QUADRATIC, beta=1.0)
        assert norm == pytest.approx(
            equilibrium._spectral_norm(GridKernel(quadratic, GridSpec((-1.0, 1.0), 16))), rel=1e-9)


class TestFeketeDescent:
    def test_quadratic_pair(self):
        model = GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 2)
        out = fekete_descent(
            model, np.array([-1.0, 1.0], dtype=complex),
            max_iter=5000, grad_tol=1e-12,
        )
        assert np.sort(out.real) == pytest.approx([-0.5, 0.5], abs=1e-6)

    def test_quadratic_pair_oracle(self):
        # grid search over symmetric pairs {-a, a} maximizing the log weight
        a_grid = np.linspace(0.05, 2.0, 40000)
        objective = 2 * np.log(2 * a_grid) - 4 * a_grid**2
        a_star = a_grid[np.argmax(objective)]
        assert a_star == pytest.approx(0.5, abs=1e-4)

    def test_cauchy_pair(self):
        from loggas.equilibrium import _pairwise_gradient

        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 2)
        out = fekete_descent(
            model, np.array([-2.0, 2.0], dtype=complex),
            max_iter=5000, grad_tol=1e-10,
        )
        g = _pairwise_gradient(out, model)
        assert np.max(np.abs(g)) <= 1e-8
        # oracle: 1-d grid search over symmetric pairs
        a_grid = np.linspace(0.05, 2.0, 40000)
        objective = 2 * np.log(2 * a_grid) - 4 * np.log1p(a_grid**2)
        a_star = a_grid[np.argmax(objective)]
        assert np.sort(out.real) == pytest.approx([-a_star, a_star], abs=1e-4)
        assert a_star == pytest.approx(1 / math.sqrt(3), abs=1e-4)

    def test_coincident_start_rejected(self):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 3)
        with pytest.raises(ValueError, match="coincident"):
            fekete_descent(model, np.array([0.5, -1.0, 0.5], dtype=complex))

    def test_log_density_non_decreasing(self):
        from loggas import log_density

        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 5)
        rng = np.random.default_rng(3)
        config = rng.standard_normal(5).astype(complex)
        ld0 = log_density(config, model)
        out = fekete_descent(model, config, max_iter=50)
        assert log_density(out, model) >= ld0

    def test_force_balance_at_fixed_point(self):
        from loggas.equilibrium import _pairwise_gradient

        model = GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 8)
        rng = np.random.default_rng(4)
        config = (2 * rng.random(8) - 1).astype(complex)
        pts = fekete_descent(model, config, max_iter=20000, grad_tol=1e-9)
        # beta * sum_j (x_i - x_j)/|x_i - x_j|^2 == n * V'(x_i) at the optimum
        diff = pts[:, None] - pts[None, :]
        d2 = np.abs(diff) ** 2
        np.fill_diagonal(d2, 1.0)
        force = diff / d2
        np.fill_diagonal(force, 0.0)
        lhs = model.beta * force.sum(axis=1)
        rhs = model.n * model.potential_gradient(pts)
        # the line search plateaus once log-density gains fall below float
        # resolution, leaving a residual force of order 1e-7
        assert np.max(np.abs(lhs - rhs)) <= 1e-6


class TestElResidual:
    def test_cauchy_flat_zero(self):
        u = el_residual(cauchy_law(), CAUCHY, [0.0, 1.0, 5.0, 20.0])
        assert np.max(np.abs(u)) <= 1e-6

    def test_cauchy_oracle_riemann(self):
        # independent check of the log potential at x = 1 on a dense grid
        ys = np.linspace(-4000, 4000, 4_000_001)
        dens = 1 / (np.pi * (1 + ys**2))
        x = 1.0
        sep = np.abs(x - ys)
        sep[sep == 0] = 1.0
        riemann = np.sum(np.log(sep) * dens) * (ys[1] - ys[0])
        # the Riemann oracle carries ~1e-3 of tail-truncation and
        # singular-cell bias of its own; it confirms the closed form only
        # to that accuracy
        assert riemann == pytest.approx(0.5 * math.log(1 + x * x), abs=3e-3)

    def test_spherical_flat(self):
        u = el_residual(spherical_law(), SPHERICAL, [0.0, 1.0, 3.0])
        assert np.max(u) - np.min(u) <= 1e-5
        assert np.max(np.abs(u)) <= 1e-5

    def test_gaussian_radial_oracle(self):
        # e^{-|z|^2}/pi has log potential log|x| + E1(|x|^2)/2, -gamma/2 at 0;
        # with V = 0 the residual is -beta times it
        gauss = ClosedFormLaw(
            "gauss", lambda z: np.exp(-np.abs(z) ** 2) / np.pi,
            lambda r: -np.expm1(-np.square(r)), "r",
            energy=(np.euler_gamma - math.log(2.0)) / 2.0,
            corner=lambda a, b: special.erf(a) * special.erf(b) / 4.0,
        )
        flat = GasModel(Support.COMPLEX_PLANE, 2.0, PotentialSpec("zero"), 1)
        probes = np.array([0.0, 0.3, 1.0, 3.0, 10.0])
        exact = np.array([-np.euler_gamma / 2] + [
            math.log(x) + 0.5 * special.exp1(x * x) for x in probes[1:]
        ])
        u = el_residual(gauss, flat, probes)
        assert np.max(np.abs(u + 2.0 * exact)) <= 1e-10

    def test_quadrature_failure_raised(self):
        from loggas.equilibrium import _quad

        with pytest.raises(RuntimeError, match="reported error"):
            # wildly oscillatory integrand cannot meet an absurd budget
            _quad(lambda u: math.sin(1.0 / (u + 1e-12)), 0.0, 1.0, 1e-14, limit=10)

    def test_atom_probe_singular(self):
        mu = DiscreteMeasure(np.array([0j, 1 + 0j]), np.array([0.5, 0.5]))
        u = el_residual(mu, CAUCHY, [0.0, 2.0])
        assert u[0] == math.inf
        assert np.isfinite(u[1])

    def test_discrete_candidate_matches_law_in_bulk(self):
        grid = GridSpec((-30.0, 30.0), 1200)
        masses = closed_form_cell_masses(CAUCHY, grid)
        atoms, _ = grid.atoms()
        mu = DiscreteMeasure(atoms, masses)
        u = el_residual(mu, CAUCHY, [0.0, 1.0, 2.0])
        # discretized law is near-optimal; the residual spread reflects the
        # 2% of mass the window truncates
        assert np.max(u) - np.min(u) <= 0.05
