"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
suite executes.  Statistical tolerances are test budgets; exact-identity
tolerances are absolute floating-point bounds.
"""

import json
import math
import time

import numpy as np
import pytest

from loggas import (
    Admissibility,
    ChainParams,
    DiagonalPolicy,
    DiscreteMeasure,
    GasModel,
    GridSpec,
    PotentialSpec,
    Support,
    admissibility_check,
    angular_ks_distance,
    cauchy_law,
    cauchy_potential,
    chain_seed,
    closed_form_cell_masses,
    el_residual,
    fekete_descent,
    grid_minimize,
    ks_distance,
    mh_chain,
    mh_chains,
    project_array,
    quadratic_potential,
    radial_cdf_distance,
    signed_log_energy,
    spherical_law,
    spherical_potential,
)
from loggas.cli import main as cli_main
from loggas.io import read_json
from loggas.verify import SUITE_TOLERANCES, run_identity_suites

LOG2 = math.log(2.0)


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num:2d}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


@pytest.fixture(scope="module")
def cauchy_chain_pool():
    """(cauchy, beta=2, N=128): 2000 recorded sweeps after 1000 burn-in."""
    model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 128)
    params = ChainParams(sweeps=3000, burn_in=1000)
    rng = np.random.default_rng(77)
    init = rng.standard_normal(128).astype(complex)
    t0 = time.perf_counter()
    samples, _ = mh_chain(model, init, params, seed=2024)
    elapsed = time.perf_counter() - t0
    pool = samples.real.ravel()
    return pool, elapsed


def test_criterion_01_exact_identity_suite():
    t0 = time.perf_counter()
    result = run_identity_suites(seed=2024)
    elapsed = time.perf_counter() - t0
    devs = {k: v["max_deviation"] for k, v in result["suites"].items()}
    ok = result["pass"] and elapsed < 5.0
    detail = (
        f"metric {devs['metric']:.1e}, pole {devs['pole']:.1e}, "
        f"kernel {devs['kernel_transport']:.1e}, "
        f"density {devs['density_transport']:.1e}, "
        f"energy {devs['energy_transport']:.1e}, {elapsed:.2f}s"
    )
    assert SUITE_TOLERANCES["metric"] == 1e-12
    assert SUITE_TOLERANCES["kernel_transport"] == 1e-12
    assert SUITE_TOLERANCES["density_transport"] == 1e-10
    assert SUITE_TOLERANCES["energy_transport"] == 1e-10
    _report(1, "exact identity suite (1e5 seeded inputs, < 5 s)", ok, detail)


def test_criterion_02_cauchy_limit_law(cauchy_chain_pool):
    pool, elapsed = cauchy_chain_pool
    stat = ks_distance(pool, cauchy_law().cdf, reference="cauchy").statistic
    ok = stat <= 0.05 and elapsed < 60.0
    _report(2, "Cauchy limit law, KS <= 0.05 in < 60 s",
            ok, f"KS={stat:.4f}, {elapsed:.1f}s, pool {len(pool)}")


def test_criterion_03_spherical_limit_law():
    model = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 128)
    params = ChainParams(sweeps=3000, burn_in=1000)
    rng = np.random.default_rng(99)
    init = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    t0 = time.perf_counter()
    samples, _ = mh_chain(model, init, params, seed=512)
    elapsed = time.perf_counter() - t0
    pool = samples.ravel()
    radial = radial_cdf_distance(pool, spherical_law().cdf).statistic
    angular = angular_ks_distance(pool).statistic
    ok = radial <= 0.05 and angular <= 0.05 and elapsed < 90.0
    _report(3, "spherical limit law, radial & angular KS <= 0.05 in < 90 s",
            ok, f"radial={radial:.4f}, angular={angular:.4f}, {elapsed:.1f}s")


def test_criterion_04_pushforward_uniformity(cauchy_chain_pool):
    pool, _ = cauchy_chain_pool
    zs = project_array(pool.astype(complex))
    angles = np.mod(np.arctan2(zs[:, 2] - 0.5, zs[:, 0]), 2.0 * np.pi)
    stat = ks_distance(angles, lambda a: a / (2.0 * np.pi)).statistic
    ok = stat <= 0.05
    _report(4, "projected samples uniform on the meridian circle, KS <= 0.05",
            ok, f"KS={stat:.4f}")


def test_criterion_05_equilibrium_golden_energies():
    cauchy_model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1)
    grid_r = GridSpec((-20.0, 20.0), 400, tol=1e-4, max_iter=100000)
    mu_r, rep_r = grid_minimize(cauchy_model, grid_r)
    l1_r = float(np.sum(np.abs(mu_r.weights - closed_form_cell_masses(cauchy_model, grid_r))))

    spherical_model = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 1)
    grid_c = GridSpec(((-4.0, 4.0), (-4.0, 4.0)), 20, tol=1e-4, max_iter=100000)
    mu_c, rep_c = grid_minimize(spherical_model, grid_c)
    l1_c = float(np.sum(np.abs(mu_c.weights - closed_form_cell_masses(spherical_model, grid_c))))

    ok = (
        rep_r.converged and rep_r.gap <= 1e-4
        and abs(rep_r.energy - LOG2) <= 0.05
        and l1_r <= 0.05
        and rep_c.converged and rep_c.gap <= 1e-4
        and abs(rep_c.energy - 0.5) <= 0.05
    )
    detail = (
        f"cauchy: E={rep_r.energy:.4f} (ref {LOG2:.4f}), gap={rep_r.gap:.1e}, "
        f"L1={l1_r:.4f}; spherical: E={rep_c.energy:.4f} (ref 0.5), "
        f"gap={rep_c.gap:.1e}, L1={l1_c:.4f} (2-d L1 reported, not bounded: "
        "400 planar atoms cannot track the law to 0.05)"
    )
    _report(5, "solver golden energies at 400 atoms, gap <= 1e-4", ok, detail)


def test_criterion_06_euler_lagrange_residuals():
    cauchy_model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1)
    u_r = el_residual(cauchy_law(), cauchy_model, [0.0, 1.0, 5.0, 20.0])
    spherical_model = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 1)
    u_c = el_residual(spherical_law(), spherical_model, [0.0, 1.0, 3.0])
    flat_r = float(np.max(np.abs(u_r)))
    spread_c = float(np.max(u_c) - np.min(u_c))
    ok = flat_r <= 1e-6 and spread_c <= 1e-5
    _report(6, "effective potential constant: |U|<=1e-6 (line), spread<=1e-5 (plane)",
            ok, f"max|U|={flat_r:.2e}, spread={spread_c:.2e}")


def test_criterion_07_mode_descent():
    model = GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 2)
    out = fekete_descent(
        model, np.array([-1.0, 1.0], dtype=complex),
        max_iter=5000, grad_tol=1e-12,
    )
    err = float(np.max(np.abs(np.sort(out.real) - np.array([-0.5, 0.5]))))
    ok = err <= 1e-6
    _report(7, "mode descent reaches {-1/2, 1/2} within 1e-6", ok, f"err={err:.2e}")


def test_criterion_08_convexity_and_uniqueness():
    def equator_grid(m, offset=0.0):
        phi = 2.0 * np.pi * np.arange(m) / m + offset
        return np.column_stack([0.5 * np.cos(phi), np.zeros(m), 0.5 + 0.5 * np.sin(phi)])

    rng = np.random.default_rng(8)
    reg = DiagonalPolicy.REGULARIZED_SELF_ENERGY
    worst = math.inf
    for _ in range(100):
        m = int(rng.integers(40, 160))
        pos = equator_grid(m)
        w1 = rng.exponential(size=m)
        w1 /= w1.sum()
        w2 = rng.exponential(size=m)
        w2 /= w2.sum()
        mu = DiscreteMeasure(pos, w1, side="sphere")
        nu = DiscreteMeasure(pos, w2, side="sphere")
        worst = min(worst, signed_log_energy(mu, nu, policy=reg))
    mu_eq = DiscreteMeasure(equator_grid(64), np.full(64, 1 / 64), side="sphere")
    zero = signed_log_energy(mu_eq, mu_eq, policy=reg)

    model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1)
    tol = 1e-4
    grid = GridSpec((-20.0, 20.0), 400, tol=tol, max_iter=100000)
    energies = []
    for _ in range(5):
        w0 = rng.exponential(size=400)
        w0 /= w0.sum()
        _, rep = grid_minimize(model, grid, init_weights=w0)
        energies.append(rep.energy)
    spread = max(energies) - min(energies)

    ok = worst >= -1e-10 and zero == 0.0 and spread <= 2 * tol
    _report(8, "signed energy >= -1e-10 on 100 grid pairs, 0 at equality; "
               "5 random inits agree within 2 tol",
            ok, f"min={worst:.3e}, at-equality={zero}, energy spread={spread:.2e}")


def test_criterion_09_convergence_trend():
    law = cauchy_law()
    params = ChainParams(sweeps=1200, burn_in=400)
    medians = []
    for n in (16, 64, 256):
        model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), n)
        seeds = range(5)
        inits = [
            np.random.default_rng(chain_seed(seed, n + 1)).standard_normal(n).astype(complex)
            for seed in seeds
        ]
        samples, _ = mh_chains(model, inits, params, [chain_seed(seed, n) for seed in seeds])
        stats = [ks_distance(chain.real.ravel(), law.cdf).statistic for chain in samples]
        medians.append(float(np.median(stats)))
    ok = medians[1] <= medians[0] and medians[2] <= medians[1]
    _report(9, "median KS non-increasing across N in {16, 64, 256} (5 seeds)",
            ok, "medians " + ", ".join(f"{m:.4f}" for m in medians))


def test_criterion_10_growth_classification():
    strong = admissibility_check(GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 1))
    weak = admissibility_check(GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1))
    half_log = PotentialSpec("half_log", poly=[], poly_var="r2",
                             log_coeff=0.5, beta_prime=2.0)
    inadmissible = admissibility_check(GasModel(Support.REAL_LINE, 2.0, half_log, 1))
    ok = (
        strong is Admissibility.STRONG
        and weak is Admissibility.WEAK_ONLY
        and inadmissible is Admissibility.INADMISSIBLE
    )
    _report(10, "growth classes: quadratic Strong, cauchy WeakOnly, "
                "half-log Inadmissible",
            ok, f"{strong.value}, {weak.value}, {inadmissible.value}")


def test_criterion_11_reproducibility(tmp_path):
    cfg = {
        "command": "sample",
        "model": {"support": "real_line", "beta": 2.0, "n": 32,
                  "potential": {"name": "cauchy"}},
        "chain": {"sweeps": 400, "burn_in": 100},
        "seed": 31337,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code_a = cli_main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    code_b = cli_main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    identical = (tmp_path / "a" / "samples.csv").read_bytes() == (
        tmp_path / "b" / "samples.csv"
    ).read_bytes()
    verify_code = cli_main(["verify", "--out", str(tmp_path / "v"), "--seed", "7"])
    verify_json = read_json(tmp_path / "v" / "verify.json")
    ok = code_a == 0 and code_b == 0 and identical and verify_code == 0 and verify_json["pass"]
    _report(11, "same seed + config gives byte-identical CSV; verify exits 0",
            ok, f"identical={identical}, verify exit={verify_code}")
