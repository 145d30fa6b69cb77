#!/usr/bin/env python3
# Meshes, nodal fields and the cone energies.
#
# The library discretizes a bounded interval or rectangle, stores functions
# at nodes, and evaluates every integral as a one-point-per-cell sum.  The
# central object is the cone energy
#
#     W(v) = integral (r/p(x)) |grad(v^(1/r))|^p(x) dx ,   v > 0,
#
# whose discrete form is convex on the positive cone because the r-th root
# is taken nodewise before differencing.
#
# Run: python demos/01_meshes_and_cone_energies.py

import numpy as np

from pxlaplace import (EnergyModel, NodeField, W_functional, build_interval,
                       build_rectangle, cell_gradient, exponent_field,
                       integrate, interpolate, phi_line)

print("=" * 68)
print("1. Interval mesh and quadrature")
print("=" * 68)
mesh = build_interval(0.0, 1.0, 8)
print(f"nodes:        {mesh.nodes.ravel()}")
print(f"cell sizes:   {mesh.cell_measures}")
print(f"boundary:     {mesh.boundary_mask.astype(int)}")
u = interpolate(mesh, "x*(1-x)")
print(f"u = x(1-x):   {np.round(u.values, 4)}")
print(f"grad u:       {np.round(cell_gradient(mesh, u.values).ravel(), 4)}")
print(f"int u dx:     {integrate(u):.6f}   (exact 1/6 = {1/6:.6f})")

print()
print("=" * 68)
print("2. The cone energy W and its mesh convergence")
print("=" * 68)
# For p = 2, r = 1:  W(x(1-x)) = (1/2) int (1-2x)^2 dx = 1/6.
for n in (16, 64, 256):
    m = build_interval(0.0, 1.0, n)
    model = EnergyModel(m, exponent_field(m, 2.0, r=1.0))
    w = W_functional(interpolate(m, "x*(1-x)"), model)
    print(f"n = {n:4d}:  W = {w:.8f}   error = {abs(w - 1/6):.2e}")

print()
print("=" * 68)
print("3. Hidden convexity: the line restriction is convex on the cone")
print("=" * 68)
mesh = build_interval(0.0, 1.0, 64)
model = EnergyModel(mesh, exponent_field(mesh, "2+x", r=2.0))
rng = np.random.default_rng(1)
v1 = NodeField(mesh, rng.uniform(0.1, 10.0, mesh.n_nodes))
v2 = NodeField(mesh, rng.uniform(0.1, 10.0, mesh.n_nodes))
phi0 = phi_line(v1, v2, 0.0, model)
phi1 = phi_line(v1, v2, 1.0, model)
print("theta    Phi(theta)    chord - Phi  (nonnegative = convex)")
for t in np.linspace(0.0, 1.0, 6):
    phi = phi_line(v1, v2, t, model)
    slack = (1 - t) * phi0 + t * phi1 - phi
    print(f"{t:4.2f}   {phi:11.6f}   {slack:12.4e}")

print()
print("=" * 68)
print("4. A rectangle works the same way")
print("=" * 68)
mesh2 = build_rectangle(0.0, 1.0, 0.0, 1.0, 16, 16)
model2 = EnergyModel(mesh2, exponent_field(mesh2, "2+0.5*x", r=1.5))
v = interpolate(mesh2, lambda x, y: 1.0 + x * (1 - x) * y * (1 - y))
print(f"{mesh2.n_nodes} nodes, {mesh2.n_cells} triangles, "
      f"area {mesh2.total_measure:.1f}")
print(f"W(1 + bump) = {W_functional(v, model2):.6f}")
