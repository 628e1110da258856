"""Exact matrix-model samplers for the two beta = 2 reference gases.

The line gas with V = log(1+x^2) is the image of the unitary-ensemble
eigenphase gas under the half-angle tangent, so one Haar-unitary
eigendecomposition yields one exact joint draw.  The plane gas with
V = log(1+|x|^2) arises from the generalized eigenvalues of a pair of
complex Gaussian matrices.  Both beat the Markov chain whenever beta = 2
is what you want.
"""

import time

import numpy as np

from loggas import (
    angular_ks_distance,
    cauchy_law,
    ks_distance,
    radial_cdf_distance,
    sample_cauchy_ensemble,
    sample_spherical_ensemble,
    spherical_law,
)

print("=== one-particle sanity check ===")
draws = np.concatenate(
    [sample_cauchy_ensemble(1, seed=s).real for s in range(5000)]
)
fit = ks_distance(draws, cauchy_law().cdf)
print(f"  n=1 eigenphase through tan(theta/2), 5000 draws: "
      f"KS vs standard Cauchy = {fit.statistic:.4f}")

print()
print("=== pooled spectra, n = 64 ===")
t0 = time.perf_counter()
pool = np.concatenate(
    [sample_cauchy_ensemble(64, seed=s).real for s in range(200)]
)
dt = time.perf_counter() - t0
fit = ks_distance(pool, cauchy_law().cdf)
print(f"  200 draws in {dt:.1f}s, pooled {len(pool)} eigenvalues")
print(f"  KS vs the Cauchy law: {fit.statistic:.4f}")

print()
print("=== generalized-eigenvalue gas on the plane, n = 64 ===")
t0 = time.perf_counter()
pool_c = np.concatenate(
    [sample_spherical_ensemble(64, seed=s) for s in range(100)]
)
dt = time.perf_counter() - t0
radial = radial_cdf_distance(pool_c, spherical_law().cdf)
angular = angular_ks_distance(pool_c)
print(f"  100 draws in {dt:.1f}s")
print(f"  radial CDF distance to r^2/(1+r^2): {radial.statistic:.4f}")
print(f"  angular KS vs uniform:              {angular.statistic:.4f}")

print()
print("=== heavy tails in the flesh ===")
q99 = np.quantile(np.abs(pool), 0.99)
q999 = np.quantile(np.abs(pool), 0.999)
print(f"  |x| quantiles of the line gas: 99% at {q99:.1f}, 99.9% at {q999:.1f}")
print("  (no compactly supported limit here; the confinement only just "
      "balances the repulsion)")
