"""Print the exact result of every benchmark case, one line per case.

Builds the cases of each benchmark workload with ``bench/workloads.build``,
runs each case once and prints ``<workload> <case> <signature>``, where
the signature is ``workloads.signature`` of the result (every float as a
hex literal).  Each case adds a second line with what the signature
leaves out, from a second run of the same library call: ``slacks`` and
the hex of every slack for a convexity case, ``i1``/``i2`` and their hex
for a gap case, the sha256 of the solution's values, the stage exits
and the hex of ``hopf_margin`` for a solve case, and the sha256 of the
eigenfunction's values for an eigen case.  After the ``solve-1d`` cases
come the solves the benchmark lacks (``EXTRA_SOLVES``: problem1 with a
constant p of 20, 10 or 40, from starts where the unshifted Newton step
finds no Armijo step or a stage ends on a frozen iterate), each on one line with
``converged``, the iterations, the stage exits, the hex of the energy
and the sha256 of the solution.  After the ``solve-2d`` cases come, in
the same format, the weighted-flux solves the benchmark lacks
(``WEIGHTED_SOLVES``: problem1 under the weighted-quadratic flux of
weights 1+x and 2-y on the unit square).  Each of the two solve
workloads then adds, in the same format, its source-reaction solves
(``SOURCE_SOLVES``: problem1 with the source h = 1+x, which no bench
case solves), and ``solve-1d`` one more line with the verdict of the
r = 1 weak-comparison experiment (``COMPARISON``): the hex of
``max_excess``, the two flags and the notes.  After the ``eigen`` cases
come the eigen cases the benchmark lacks (``EXTRA_EIGEN``: r != 2 on 1D
and 2D meshes, a non-square 2D r = 2 mesh), each on one line with the
hex of lambda and the sha256 of phi, or the message of the error the
call raises.  Diffing the output of two
checkouts shows whether their results, whole fields included, are
bitwise equal.  The package is imported from the ``src/``
next to this script; nothing under ``bench/`` is changed.

Usage: python tools/result_bits.py [--seed S] [WORKLOAD ...]
       (default: seed 1, every workload)
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


def _sha256(values) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


def report_bits(case: workloads.Case) -> str:
    """What the case's signature leaves out, from the same library call
    the case makes (see the module docstring)."""
    if case.kind == "solve":
        spec, opts = case.args
        rep = getattr(workloads.solver, "solve_" + spec.kind)(spec, opts)
        return (f"solution {_sha256(rep.solution.values)} stage_exits "
                f"{','.join(rep.stage_exits)} hopf {rep.hopf_margin.hex()}")
    if case.kind == "eigen":
        _, phi = workloads.solver.first_eigenpair(*case.args)
        return f"phi {_sha256(phi.values)}"
    if case.kind == "convexity":
        v1, v2, model = case.args
        rep = workloads.inequality.check_ray_convexity(
            v1, v2, model, workloads.THETAS, kind="W_A")
        return "slacks " + " ".join(float(s).hex() for s in rep.slacks)
    rep = workloads.inequality.diaz_saa_gap(*case.args)
    return f"i1 {rep.i1.hex()} i2 {rep.i2.hex()}"


_grid = workloads.grid
# (name, p, cells of the 1D mesh, init, seed): problem1 with r = 1.5,
# h = 1, q = 1.2 and a constant p, at the default options otherwise
EXTRA_SOLVES = (
    ("p20-n32-bump", "20", 32, "bump", 0),
    ("p20-n32-seed3", "20", 32, "random", 3),
    ("p20-n32-seed14", "20", 32, "random", 14),
    ("p20-n32-seed15", "20", 32, "random", 15),
    ("p10-n128-seed12", "10", 128, "random", 12),
    ("p40-n32-bump", "40", 32, "bump", 0),
    ("p40-n128-bump", "40", 128, "bump", 0),
)
# (name, mesh, r); r = 1.01 raises ValueError
EXTRA_EIGEN = (
    ("eig-1d-r1.5-n64", _grid.build_interval(0, 1, 64), 1.5),
    ("eig-2d-r3-8x8", _grid.build_rectangle(0, 1, 0, 1, 8, 8), 3.0),
    ("eig-2d-r3-16x16", _grid.build_rectangle(0, 1, 0, 1, 16, 16), 3.0),
    ("eig-2d-r1.5-12x7", _grid.build_rectangle(0, 2, 0, 1, 12, 7), 1.5),
    ("eig-2d-r2-33x17", _grid.build_rectangle(0, 1, 0, 1, 33, 17), 2.0),
    ("eig-2d-r1.01-8x8", _grid.build_rectangle(0, 1, 0, 1, 8, 8), 1.01),
)


# (name, cells per side of the unit square): the bench's problem1 terms
# with the weighted-quadratic flux, solved by minimize_energy at the
# default options
WEIGHTED_SOLVES = (("weighted-8x8", 8), ("weighted-16x16", 16))


# (workload, name, mesh, r): problem1 with p = 2+x and the source
# reaction h = 1+x, solved by ``solver.solve`` at the default options;
# override is set because at r = 1 the source fails (f2)
SOURCE_SOLVES = (
    ("solve-1d", "source-r1-n64", _grid.build_interval(0, 1, 64), 1.0),
    ("solve-1d", "source-r1.5-n64", _grid.build_interval(0, 1, 64), 1.5),
    ("solve-2d", "source-r1.5-12x12",
     _grid.build_rectangle(0, 1, 0, 1, 12, 12), 1.5),
)
# (name, cells of the 1D mesh): weak comparison at p = 2+x and r = 1 of
# the data f1 = 1 <= f2 = 1+x, whose model solves the source f u^0
COMPARISON = ("comparison-r1-n64", 64)


def _solve_line(rep) -> str:
    """``converged``, iterations, stage exits, energy hex and solution
    sha256 of one solve report."""
    return (f"converged {rep.converged} iterations "
            f"{','.join(map(str, rep.iterations))} stage_exits "
            f"{','.join(rep.stage_exits)} energy {rep.energy.hex()} "
            f"solution {_sha256(rep.solution.values)}")


def weighted_solve_bits(n: int) -> str:
    """The report of one ``WEIGHTED_SOLVES`` case."""
    mesh = _grid.build_rectangle(0, 1, 0, 1, n, n)
    exponent = workloads.exponent_field(mesh, workloads.P, workloads.R)
    weights = [_grid.interpolate(mesh, "1+x"), _grid.interpolate(mesh, "2-y")]
    model = workloads.energy.EnergyModel(
        mesh, exponent,
        anisotropy=workloads.anisotropy.weighted_quadratic(exponent, weights),
        reaction=workloads.energy.power_reaction(
            _grid.interpolate(mesh, workloads.H),
            _grid.interpolate(mesh, workloads.Q)))
    return _solve_line(workloads.solver.minimize_energy(
        model, workloads.solver.SolverOptions()))


def extra_solve_bits(p: str, n: int, init: str, seed: int) -> str:
    """The report of one ``EXTRA_SOLVES`` case; the overflow and
    singular-matrix warnings its trials raise are silenced."""
    mesh = _grid.build_interval(0, 1, n)
    spec = workloads.problems.ProblemSpec(
        "problem1", mesh, workloads.exponent_field(mesh, p, workloads.R),
        workloads.energy.power_reaction(_grid.interpolate(mesh, workloads.H),
                                        _grid.interpolate(mesh, workloads.Q)))
    opts = workloads.solver.SolverOptions(init=init, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = workloads.solver.solve(spec, opts)
    return _solve_line(rep)


def source_solve_bits(mesh, r: float) -> str:
    """The report of one ``SOURCE_SOLVES`` case."""
    spec = workloads.problems.ProblemSpec(
        "problem1", mesh, workloads.exponent_field(mesh, workloads.P, r),
        workloads.energy.source_reaction(_grid.interpolate(mesh, "1+x")))
    return _solve_line(workloads.solver.solve(
        spec, workloads.solver.SolverOptions(), override=True))


def comparison_bits(n: int) -> str:
    """The verdict of the ``COMPARISON`` experiment."""
    mesh = _grid.build_interval(0, 1, n)
    model = workloads.energy.EnergyModel(
        mesh, workloads.exponent_field(mesh, workloads.P, 1.0))
    v = workloads.inequality.weak_comparison_experiment(
        model, _grid.interpolate(mesh, "1"), _grid.interpolate(mesh, "1+x"),
        workloads.solver.SolverOptions(), tol=1e-8)
    return (f"max_excess {v.max_excess.hex()} hypothesis_ok "
            f"{v.hypothesis_ok} conclusion_ok {v.conclusion_ok} "
            f"notes {'|'.join(v.notes)}")


def extra_eigen_bits(mesh, r: float) -> str:
    """lambda's hex and phi's sha256 of one ``EXTRA_EIGEN`` case, or the
    message of the ``ValueError`` it raises."""
    try:
        lam, phi = workloads.solver.first_eigenpair(mesh, r)
    except ValueError as exc:
        return f"error {exc}"
    return f"lam {lam.hex()} phi {_sha256(phi.values)}"


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the check pairs (default 1)")
    parser.add_argument("workload", nargs="*",
                        help="workloads to run (default: all of "
                        + ", ".join(workloads.WORKLOADS) + ")")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workload) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    for name in args.workload or workloads.WORKLOADS:
        for case in workloads.build(name, args.seed):
            print(name, case.name, workloads.signature(case.run()),
                  flush=True)
            print(name, case.name, report_bits(case), flush=True)
        if name == "solve-1d":
            for case_name, *case in EXTRA_SOLVES:
                print(name, case_name, extra_solve_bits(*case), flush=True)
        if name == "solve-2d":
            for case_name, n in WEIGHTED_SOLVES:
                print(name, case_name, weighted_solve_bits(n), flush=True)
        for workload, case_name, mesh, r in SOURCE_SOLVES:
            if workload == name:
                print(name, case_name, source_solve_bits(mesh, r), flush=True)
        if name == "solve-1d":
            print(name, COMPARISON[0], comparison_bits(COMPARISON[1]),
                  flush=True)
        if name == "eigen":
            for case_name, mesh, r in EXTRA_EIGEN:
                print(name, case_name, extra_eigen_bits(mesh, r), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
