#!/usr/bin/env python3
# The subhomogeneous Dirichlet problem: existence, positivity, uniqueness.
#
#     -div(|grad u|^(p(x)-2) grad u) = h(x) u^(q(x)-1),   u > 0,  u|bd = 0,
#
# with 1 <= q(x) <= r <= p(x) and the quotient f(x,s)/s^(r-1) strictly
# decreasing.  The solver minimizes the energy by damped Newton steps
# with flux-regularization continuation; nontriviality is certified by a
# negative energy, positivity nodewise, and the boundary slope by an
# inward difference quotient.
#
# Run: python demos/03_subhomogeneous_dirichlet_problem.py

import numpy as np

from pxlaplace import (ProblemSpec, SolverOptions, build_interval,
                       constant_field, exponent_field, power_reaction,
                       sharpness_regime, solve_problem1, uniqueness_experiment,
                       validate_f, weak_residual)

mesh = build_interval(0.0, 1.0, 256)
exponent = exponent_field(mesh, 2.0, r=2.0)
reaction = power_reaction(constant_field(mesh, 1.0),
                          constant_field(mesh, 1.5))
spec = ProblemSpec("problem1", mesh, exponent, reaction)

print("=" * 68)
print("1. Hypothesis validation and regime")
print("=" * 68)
rep = validate_f(reaction, exponent.r)
for e in rep.entries:
    print(f"  {e.name}: {e.status:5s} ({e.witness})")
tag = sharpness_regime(spec)
print(f"  regime: {tag.name}  "
      f"(fraction with q < r: {tag.frac_q_below_r:.0%})")

print()
print("=" * 68)
print("2. Solve by energy minimization")
print("=" * 68)
result = solve_problem1(spec, SolverOptions())
u = result.solution
print(f"converged:        {result.converged} "
      f"(iterations per continuation stage: {result.iterations})")
print(f"energy:           {result.energy:.6e}  (negative = nontrivial)")
print(f"max u:            {u.values.max():.6f}")
print(f"positive inside:  {result.positivity_ok}")
print(f"boundary slope:   {result.hopf_margin:.4f}  (> 0)")
print(f"weak residual:    {weak_residual(u, spec):.2e}")

print()
print("=" * 68)
print("3. Multi-start uniqueness probe")
print("=" * 68)
uni = uniqueness_experiment(spec, SolverOptions(), n_inits=4, seed=3,
                            tol=1e-6)
print(f"runs: {uni.n_runs}, all converged: {uni.all_converged}")
print(f"max pairwise distance: {uni.max_pairwise_distance:.2e}  "
      f"(tolerance 1e-6, passed: {uni.passed})")
print(f"pairwise gaps at the common solution: "
      f"{[f'{g:.1e}' for g in uni.gaps[:3]]} ...")

print()
print("=" * 68)
print("4. Solution profile")
print("=" * 68)
x = mesh.nodes[:, 0]
for xi in np.linspace(0.0, 1.0, 11):
    k = int(round(xi * (mesh.n_nodes - 1)))
    bar = "#" * int(60 * u.values[k] / u.values.max())
    print(f"x = {x[k]:4.2f}  u = {u.values[k]:.5f}  {bar}")
