#!/usr/bin/env python3
# The first eigenpair and the sharpness of the subhomogeneity condition.
#
# With q = r = p constant, the reaction h u^(r-1) is exactly homogeneous
# and the problem becomes an eigenvalue problem: for h below the first
# eigenvalue only the zero solution remains, at h equal to it every
# multiple of the eigenfunction solves, and the energy is flat along that
# ray.  This is the boundary case showing q < r cannot be dropped.
#
# Run: python demos/04_eigenvalue_and_sharp_threshold.py

import numpy as np

from pxlaplace import (EnergyModel, NodeField, ProblemSpec, SolverOptions,
                       build_interval, constant_field, energy_E,
                       exponent_field, first_eigenpair, power_reaction,
                       solve_problem1)
from pxlaplace.cli import _richardson

print("=" * 68)
print("1. Rayleigh-quotient minimization, r = 2")
print("=" * 68)
print("     n     lambda       error vs pi^2")
lams = []
for n in (64, 128, 256):
    lam, phi = first_eigenpair(build_interval(0.0, 1.0, n), 2.0)
    lams.append(lam)
    print(f"  {n:4d}   {lam:.8f}   {abs(lam - np.pi**2):.2e}")
print(f"  Richardson-extrapolated: {_richardson(lams):.8f}  "
      f"(pi^2 = {np.pi**2:.8f})")

print()
print("=" * 68)
print("2. General homogeneity degree: r = 3 has a classical closed form")
print("=" * 68)
lam3, _ = first_eigenpair(build_interval(0.0, 1.0, 256), 3.0)
classical = 2.0 * (2 * np.pi / (3 * np.sin(np.pi / 3))) ** 3
print(f"  computed {lam3:.6f}   closed form {classical:.6f}")

print()
print("=" * 68)
print("3. Below the threshold: h = 0.9 * lambda leaves only zero")
print("=" * 68)
mesh = build_interval(0.0, 1.0, 96)
lam, phi = first_eigenpair(mesh, 2.0)
exponent = exponent_field(mesh, 2.0, r=2.0)
q2 = constant_field(mesh, 2.0)
sub = ProblemSpec("problem1", mesh, exponent,
                  power_reaction(constant_field(mesh, 0.9 * lam), q2))
rep = solve_problem1(sub, SolverOptions(), override=True)
print(f"  sup u = {np.abs(rep.solution.values).max():.2e}  "
      f"(descends to the trivial solution)")

print()
print("=" * 68)
print("4. At the threshold: the energy is flat along the eigenray")
print("=" * 68)
crit = EnergyModel(mesh, exponent,
                   reaction=power_reaction(constant_field(mesh, lam), q2))
print("      t        E(t * phi)")
for t in (0.1, 0.5, 1.0, 3.0, 10.0):
    e = energy_E(NodeField(mesh, t * phi.values), crit)
    print(f"  {t:6.2f}   {e: .3e}")
print("  -> every multiple of the eigenfunction is a minimizer:")
print("     infinitely many solutions at the homogeneous edge case.")
