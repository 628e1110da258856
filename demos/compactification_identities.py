"""Walk through the sphere-compactification identities on concrete numbers.

The map T sends a complex point x to the sphere of radius 1/2 sitting on
the origin; the point at infinity becomes the north pole.  Three exact
identities make the sphere side equivalent to the plane side, and this
script evaluates both sides of each on random inputs.
"""

import numpy as np

from loggas import (
    GasModel,
    Support,
    cauchy_potential,
    chordal_distance,
    compactified_potential,
    log_density,
    log_density_sphere,
    project_array,
    quadratic_potential,
)
from loggas.verify import kernel_transport_deviation

rng = np.random.default_rng(0)

print("=== the projection on a few points ===")
points = (0, 1, 1 + 1j, 100j)
for x, (x1, x2, x3) in zip(points, project_array(points)):
    print(f"  T({x}) = ({x1:.6f}, {x2:.6f}, {x3:.6f})")

print()
print("=== metric identity: chord length between projections ===")
xs = rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)
ys = 10.0 * (rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000))
diff = project_array(xs) - project_array(ys)
euclid = np.sqrt(np.sum(diff * diff, axis=-1))
chordal = chordal_distance(xs, ys)
print(f"  |T(x)-T(y)| vs planar chord formula, 5e4 pairs: "
      f"max deviation {np.max(np.abs(euclid - chordal)):.2e}")
print(f"  chordal_distance(0, 1) = {chordal_distance(0, 1):.8f}  (= 1/sqrt(2))")
print(f"  chordal_distance(1, -1) = {chordal_distance(1, -1):.8f}  (sphere diameter)")

print()
print("=== kernel transport: pair kernels agree across the map ===")
worst = kernel_transport_deviation(rng, 2000)
print(f"  cauchy, spherical and quadratic models, 2000 random pairs each: "
      f"max deviation {worst:.2e}")

print()
print("=== the compactified potential ===")
model = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), 2)
pot = compactified_potential(model)
print(f"  cauchy at beta=2: V_sphere(T(3.7)) = "
      f"{pot.on_sphere_array(project_array(3.7)):.2e}  (identically 0)")
print(f"  cauchy at beta=2: V_sphere(pole)  = {pot.pole_value}")
quad = GasModel(Support.REAL_LINE, 2.0, quadratic_potential(), 2)
pot_q = compactified_potential(quad)
print(f"  quadratic: V_sphere(T(1)) = "
      f"{pot_q.on_sphere_array(project_array(1)):.6f}  (= 1 - log 2)")
print(f"  quadratic: V_sphere(pole) = {pot_q.pole_value}  (confinement wins)")

print()
print("=== density transport: Gibbs log-weights agree across the map ===")
for n in (2, 8, 32):
    model_n = GasModel(Support.REAL_LINE, 2.0, cauchy_potential(), n)
    points = rng.standard_normal(n).astype(complex)
    lhs = log_density(points, model_n)
    rhs = log_density_sphere(points, model_n)
    print(f"  n={n:3d}: plane {lhs:+.12f}   sphere {rhs:+.12f}   "
          f"diff {abs(lhs - rhs):.2e}")
