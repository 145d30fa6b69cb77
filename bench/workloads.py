"""Benchmark workloads: inputs, calls into the public API, correctness gates.

Every case is built by ``build`` before timing starts and afterwards only
runs library calls.  The library is always reached through its module
attributes (``solver.solve_problem1``, ``inequality.diaz_saa_gap``, ...),
the sites the tracer wraps.

* solve-1d  problem1 (p = 2+x, r = 1.5, q = 1.2, h = 1), problem2 and
            the Kirchhoff problem, default SolverOptions except where a
            case caps a floor stall.
* solve-2d  problem1 with the same coefficients on the unit square.
* checks    seeded random cone pairs through check_ray_convexity and
            diaz_saa_gap, 1D isotropic and 2D weighted-quadratic.
* eigen     first_eigenpair in 1D (r = 3) and 2D (r = 2).

The solve and eigen cases are deterministic: the seed only draws the
check pairs.  Solve energies and eigenvalues are compared with
``reference.json`` (recorded by ``record_reference.py``) to 1e-9 relative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from pxlaplace import anisotropy, energy, grid, inequality, problems, solver
from pxlaplace.exponents import exponent_field

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
# mirrors eigenvalue_r3_n256 in tests/_baselines.json
EIGEN_PIN = {"eig-1d-r3-n256": (28.289995939202697, 1e-6)}

P, R, H, Q = "2+x", 1.5, "1", "1.2"
THETAS = np.linspace(0.05, 0.95, 7)  # as check-convexity in the CLI
# check pairs per pass; more 1D than 2D pairs keeps the case-time median
# inside one cluster of check times instead of on the edge between two
CHECK_PAIRS = {1: 48, 2: 16}

WORKLOADS = ("solve-1d", "solve-2d", "checks", "eigen")


@dataclass(frozen=True)
class Case:
    name: str
    kind: str    # "solve" | "eigen" | "convexity" | "gap"
    args: tuple

    def run(self) -> dict:
        """One library call; the result holds only plain numbers."""
        if self.kind == "solve":
            spec, opts = self.args
            rep = getattr(solver, "solve_" + spec.kind)(spec, opts)
            return {"energy": rep.energy, "iterations": list(rep.iterations),
                    "residual_max": rep.residual_max,
                    "converged": rep.converged, "grad_tol": opts.grad_tol,
                    "max_iters": opts.max_iters}
        if self.kind == "eigen":
            mesh, r = self.args
            lam, _ = solver.first_eigenpair(mesh, r)
            return {"eigenvalue": lam}
        if self.kind == "convexity":
            v1, v2, model = self.args
            rep = inequality.check_ray_convexity(v1, v2, model, THETAS,
                                                 kind="W_A")
            return {"min_slack": rep.min_slack, "scale": rep.scale,
                    "passed": rep.passed}
        w1, w2, model = self.args
        rep = inequality.diaz_saa_gap(w1, w2, model)
        rel = rep.gap / (abs(rep.i1) + abs(rep.i2) + 1.0)
        tol = 1e-10 if model.mesh.dimension == 1 else 1e-8  # as the CLI
        return {"gap": rep.gap, "relative_gap": rel, "passed": rel >= -tol}

    def check(self, result: dict, reference: dict) -> str | None:
        """Why ``result`` is wrong, or None when it is correct."""
        if self.kind in ("convexity", "gap"):
            return None if result["passed"] else "verdict failed"
        if self.kind == "solve":
            if not result["converged"]:
                return "converged=False"
            if not result["residual_max"] <= result["grad_tol"]:
                return f"residual_max {result['residual_max']!r} > grad_tol"
            return _compare("energy", result["energy"],
                            reference[self.name]["energy"], REL_TOL)
        lam = result["eigenvalue"]
        bad = _compare("eigenvalue", lam, reference[self.name]["eigenvalue"],
                       REL_TOL)
        if bad is None and self.name in EIGEN_PIN:
            pin, tol = EIGEN_PIN[self.name]
            bad = _compare("eigenvalue vs test pin", lam, pin, tol)
        return bad


def _compare(what: str, value: float, ref: float, rel: float) -> str | None:
    if math.isfinite(value) and abs(value - ref) <= rel * abs(ref):
        return None
    return f"{what} {value!r} differs from {ref!r} by more than {rel:g} rel"


def signature(result: dict | None) -> str:
    """Exact text of a result, for bitwise comparison between passes."""
    if result is None:
        return "error"
    return json.dumps({k: (v.hex() if isinstance(v, float) else v)
                       for k, v in result.items()}, sort_keys=True)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# -- inputs ------------------------------------------------------------------

def _interval(n: int) -> grid.Mesh:
    return grid.build_interval(0.0, 1.0, n)


def _square(n: int) -> grid.Mesh:
    return grid.build_rectangle(0.0, 1.0, 0.0, 1.0, n, n)


def _spec(kind: str, mesh: grid.Mesh) -> problems.ProblemSpec:
    reaction = energy.power_reaction(grid.interpolate(mesh, H),
                                     grid.interpolate(mesh, Q))
    absorption = kirchhoff = None
    if kind == "problem2":
        absorption = energy.power_absorption(grid.interpolate(mesh, "1"),
                                             grid.interpolate(mesh, "2"))
    if kind == "kirchhoff":
        kirchhoff = energy.saturating_kirchhoff(1.0, 2.0)
    return problems.ProblemSpec(kind, mesh, exponent_field(mesh, P, R),
                                reaction, absorption, kirchhoff)


def _solve(kind: str, mesh: grid.Mesh, label: str,
           max_iters: int | None = None) -> Case:
    opts = solver.SolverOptions()
    if max_iters is not None:
        label += f"-cap{max_iters}"
        opts = replace(opts, max_iters=max_iters)
    return Case(f"{kind}-{label}", "solve", (_spec(kind, mesh), opts))


def _cone_field(rng, mesh: grid.Mesh, zero_boundary: bool) -> grid.NodeField:
    vals = rng.uniform(0.1, 10.0, mesh.n_nodes)  # as the CLI check suites
    if zero_boundary:
        vals[mesh.boundary_mask] = 0.0
    return grid.NodeField(mesh, vals)


def _check_cases(rng, label: str, model: energy.EnergyModel) -> list:
    mesh = model.mesh
    cases = []
    for kind, zero_boundary in (("convexity", False), ("gap", True)):
        for i in range(CHECK_PAIRS[mesh.dimension]):
            pair = (_cone_field(rng, mesh, zero_boundary),
                    _cone_field(rng, mesh, zero_boundary))
            cases.append(Case(f"{kind}-{label}-{i}", kind, pair + (model,)))
    return cases


def build(workload: str, seed: int) -> list:
    """The cases of one pass, in run order."""
    if workload == "solve-1d":
        # n = 48 stalls at the floating-point floor (problem1 in two
        # eps-stages, Kirchhoff in one).  The iterate is frozen during such
        # a stall, so a 500-iteration cap (above every stage's useful
        # iterations) gives the same energy as the default 5000 at a tenth
        # of the wasted work.
        return [_solve("problem1", _interval(256), "n256"),
                _solve("problem2", _interval(40), "n40"),
                _solve("problem1", _interval(48), "n48", max_iters=500),
                _solve("kirchhoff", _interval(48), "n48", max_iters=500)]
    if workload == "solve-2d":
        return [_solve("problem1", _square(n), f"{n}x{n}")
                for n in (16, 24, 32)]
    if workload == "eigen":
        return [Case("eig-1d-r3-n256", "eigen", (_interval(256), 3.0)),
                Case("eig-2d-r2-16x16", "eigen", (_square(16), 2.0)),
                Case("eig-2d-r2-32x32", "eigen", (_square(32), 2.0))]
    if workload == "checks":
        rng = np.random.default_rng(seed)
        line = _interval(1024)
        square = _square(64)
        p_square = exponent_field(square, P, R)
        weights = [grid.interpolate(square, "1+x"),
                   grid.interpolate(square, "2-y")]
        iso = energy.EnergyModel(line, exponent_field(line, P, R))
        aniso = energy.EnergyModel(
            square, p_square,
            anisotropy=anisotropy.weighted_quadratic(p_square, weights))
        return _check_cases(rng, "1d", iso) + _check_cases(rng, "2d", aniso)
    raise ValueError(f"unknown workload {workload!r}")
