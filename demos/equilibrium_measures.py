"""Compute limiting measures twice: closed form and convex minimization.

For the two reference gases at beta = 2 the limiting measure is known:
a Cauchy law on the line, the heavy-tailed radial law on the plane.
The grid solver recovers both from scratch by minimizing the discrete
pair energy over probability weights, and the effective-potential
(first-order optimality) check confirms the closed forms directly.
"""

import math

import numpy as np

from loggas import (
    GasModel,
    GridSpec,
    Support,
    cauchy_law,
    cauchy_potential,
    closed_form_cell_masses,
    el_residual,
    fekete_descent,
    grid_minimize,
    spherical_law,
    spherical_potential,
    quadratic_potential,
)
from loggas.io import write_measure_csv

print("=== line gas with V = log(1+x^2), beta = 2 ===")
model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 1)
grid = GridSpec((-20.0, 20.0), 400, tol=1e-4, max_iter=100000)
measure, report = grid_minimize(model, grid)
ref = closed_form_cell_masses(model, grid)
print(f"  converged={report.converged} after {report.iterations} iterations, "
      f"duality gap {report.gap:.2e}")
print(f"  discrete energy  {report.energy:.6f}")
print(f"  reference energy {math.log(2):.6f}  (log-energy of the uniform "
      "meridian circle)")
print(f"  L1 distance to the window-renormalized Cauchy law: "
      f"{np.sum(np.abs(measure.weights - ref)):.4f}")
print(f"  window captures {report.captured_mass:.4f} of the law's mass")
write_measure_csv("cauchy_equilibrium.csv", measure)
print("  weights written to cauchy_equilibrium.csv")

print()
print("=== plane gas with V = log(1+|x|^2), beta = 2 ===")
model_c = GasModel(Support.COMPLEX_PLANE, 2.0, spherical_potential(), 1)
grid_c = GridSpec(((-4.0, 4.0), (-4.0, 4.0)), 20, tol=1e-4, max_iter=100000)
measure_c, report_c = grid_minimize(model_c, grid_c)
print(f"  converged={report_c.converged}, gap {report_c.gap:.2e}")
print(f"  discrete energy  {report_c.energy:.6f}")
print("  reference energy 0.500000  (log-energy of the uniform sphere)")

print()
print("=== first-order optimality of the closed forms ===")
u_line = el_residual(cauchy_law(), model, [0.0, 1.0, 5.0, 20.0])
print(f"  line law, U(x) at probes 0, 1, 5, 20: "
      + ", ".join(f"{u:+.2e}" for u in u_line))
u_plane = el_residual(spherical_law(), model_c, [0.0, 1.0, 3.0])
print(f"  plane law, U(x) at |x| = 0, 1, 3:    "
      + ", ".join(f"{u:+.2e}" for u in u_plane))
print("  (constant U on the support is the optimality condition; "
      "these laws give U identically 0)")

print()
print("=== mode configurations by gradient ascent ===")
quad = GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 2)
out = fekete_descent(quad, np.array([-1.0, 1.0], dtype=complex),
                     max_iter=5000, grad_tol=1e-12)
print(f"  quadratic pair from (-1, 1): {np.sort(out.real)}  "
      "(stationary at +-1/2)")
cauchy2 = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 2)
out2 = fekete_descent(cauchy2, np.array([-2.0, 2.0], dtype=complex),
                      max_iter=5000, grad_tol=1e-10)
print(f"  cauchy pair from (-2, 2):    {np.sort(out2.real)}  "
      f"(stationary at +-1/sqrt(3) = +-{1/math.sqrt(3):.6f})")
