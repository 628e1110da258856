import math

import numpy as np
import pytest

from loggas import (
    DiscreteMeasure,
    EmptySample,
    GasModel,
    GridSpec,
    NoReference,
    Support,
    angular_ks_distance,
    cauchy_law,
    cauchy_potential,
    closed_form_cell_masses,
    empirical_measure,
    ks_distance,
    quadratic_potential,
    radial_cdf_distance,
    rate_gap,
    spherical_law,
)

CAUCHY = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 2)


class TestKsDistance:
    def test_three_point_example(self):
        # oracle: enumerate all step discrepancies by hand
        samples = [-1.0, 0.0, 1.0]
        cdf_vals = [0.25, 0.5, 0.75]
        discrepancies = []
        n = 3
        for i, f in enumerate(cdf_vals, start=1):
            discrepancies.append(abs(i / n - f))
            discrepancies.append(abs((i - 1) / n - f))
        assert max(discrepancies) == 0.25
        fit = ks_distance(samples, cauchy_law().cdf, reference="cauchy")
        assert fit.statistic == pytest.approx(0.25)
        assert fit.sample_size == 3

    def test_quantile_construction(self):
        n = 200
        qs = np.tan(np.pi * (np.arange(1, n + 1) / (n + 1) - 0.5))  # Cauchy quantiles
        fit = ks_distance(qs, cauchy_law().cdf)
        assert fit.statistic <= 1 / (n + 1) + 1e-9

    def test_single_sample_at_median(self):
        assert ks_distance([0.0], cauchy_law().cdf).statistic == pytest.approx(0.5)

    def test_empty(self):
        with pytest.raises(EmptySample):
            ks_distance([], cauchy_law().cdf)

    def test_monotone_reparameterization_invariance(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_cauchy(500)
        base = ks_distance(xs, cauchy_law().cdf).statistic
        # apply arctan jointly to samples and CDF
        mapped = ks_distance(
            np.arctan(xs), lambda t: cauchy_law().cdf(np.tan(t))
        ).statistic
        assert mapped == pytest.approx(base, abs=1e-12)


class TestRadialCdfDistance:
    def test_single_modulus_example(self):
        fit = radial_cdf_distance([1.0 + 0j], spherical_law().cdf)
        assert fit.statistic == pytest.approx(0.5)

    def test_radial_quantiles(self):
        n = 100
        u = np.arange(1, n + 1) / (n + 1)
        rs = np.sqrt(u / (1 - u))  # inverse of r^2/(1+r^2)
        fit = radial_cdf_distance(rs.astype(complex), spherical_law().cdf)
        assert fit.statistic <= 1 / (n + 1) + 1e-9

    def test_empty(self):
        with pytest.raises(EmptySample):
            radial_cdf_distance([], spherical_law().cdf)


class TestAngularKs:
    def test_uniform_angles(self):
        n = 128
        zs = np.exp(2j * np.pi * (np.arange(1, n + 1) / (n + 1)))
        assert angular_ks_distance(zs).statistic <= 1 / (n + 1) + 1e-9


class TestRateGap:
    def test_delta_pair(self):
        mu = empirical_measure(np.array([-1.0, 1.0], dtype=complex))
        assert rate_gap(mu, CAUCHY) == pytest.approx(-math.log(2))

    def test_law_grid_small_gap(self):
        grid = GridSpec((-10.0, 10.0), 400)
        masses = closed_form_cell_masses(CAUCHY, grid)
        atoms, _ = grid.atoms()
        mu = DiscreteMeasure(atoms, masses)
        assert abs(rate_gap(mu, CAUCHY)) <= 0.05

    def test_gap_shrinks_with_resolution(self):
        gaps = []
        for res in (100, 400, 1600):
            grid = GridSpec((-10.0, 10.0), res)
            masses = closed_form_cell_masses(CAUCHY, grid)
            atoms, _ = grid.atoms()
            gaps.append(abs(rate_gap(DiscreteMeasure(atoms, masses), CAUCHY)))
        assert gaps[2] < gaps[1] < gaps[0]

    def test_no_reference(self):
        from loggas import measure_energy

        quad = GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 2)
        mu = empirical_measure(np.array([-1.0, 1.0], dtype=complex))
        with pytest.raises(NoReference):
            rate_gap(mu, quad)
        expected = measure_energy(mu, quad) - 1.0
        assert rate_gap(mu, quad, reference=1.0) == pytest.approx(expected)

    def test_minimizer_self_reference(self):
        from loggas import grid_minimize, measure_energy

        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1)
        grid = GridSpec((-10.0, 10.0), 64, tol=1e-5, max_iter=50000)
        mu, rep = grid_minimize(model, grid)
        # referencing the minimizer's own off-diagonal energy gives zero
        ref = measure_energy(mu, model)
        assert rate_gap(mu, model, reference=ref) == 0.0
