"""Sample the gas with the adaptive Metropolis chain and check the limit law.

A single-particle random-walk chain targets the joint Gibbs density; the
step scale tunes itself toward 30% acceptance during burn-in and then
freezes.  Pooled post-burn-in samples approximate the limiting one-point
law, which for the weakly confined line gas at beta = 2 is the standard
Cauchy distribution.
"""

import numpy as np

from loggas import (
    ChainParams,
    GasModel,
    Support,
    angular_ks_distance,
    cauchy_law,
    cauchy_potential,
    ks_distance,
    mh_chain,
    project_array,
    radial_cdf_distance,
    spherical_law,
    spherical_potential,
)

rng = np.random.default_rng(1)

print("=== line gas, n = 64 ===")
model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 64)
params = ChainParams(sweeps=2000, burn_in=800)
init = rng.standard_normal(64).astype(complex)
samples, stats = mh_chain(model, init, params, seed=42)
pool = samples.real.ravel()
print(f"  recorded {len(samples)} sweeps, pooled {len(pool)} values")
print(f"  acceptance rate {stats.acceptance_rate:.3f} "
      f"(tuned step scale {stats.final_step_scale:.3f})")
print(f"  log-density drifted {stats.log_density_trace[0]:.1f} -> "
      f"{stats.log_density_trace[-1]:.1f} across the recorded phase")
fit = ks_distance(pool, cauchy_law().cdf, reference="cauchy")
print(f"  KS distance to the Cauchy law: {fit.statistic:.4f}")

print()
print("=== the same samples seen on the sphere ===")
zs = project_array(pool.astype(complex))
angles = np.mod(np.arctan2(zs[:, 2] - 0.5, zs[:, 0]), 2 * np.pi)
fit_angles = ks_distance(angles, lambda a: a / (2 * np.pi))
print(f"  projected to the meridian circle, angles vs uniform: "
      f"KS = {fit_angles.statistic:.4f}")
print("  (the push-forward of the limit law is the uniform circle measure)")

print()
print("=== plane gas, n = 64 ===")
model_c = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 64)
init_c = rng.standard_normal(64) + 1j * rng.standard_normal(64)
samples_c, stats_c = mh_chain(model_c, init_c, params, seed=42)
pool_c = samples_c.ravel()
radial = radial_cdf_distance(pool_c, spherical_law().cdf)
angular = angular_ks_distance(pool_c)
print(f"  acceptance rate {stats_c.acceptance_rate:.3f}")
print(f"  radial CDF distance {radial.statistic:.4f}, "
      f"angular KS {angular.statistic:.4f}")

print()
print("=== determinism ===")
samples_again, _ = mh_chain(model, init, params, seed=42)
identical = np.array_equal(samples, samples_again)
print(f"  rerunning with the same seed reproduces the stream exactly: {identical}")
