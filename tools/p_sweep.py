"""Multi-start sweep of problem1 over exponents p and meshes.

For each exponent p in ``PS`` and each mesh in ``MESHES`` (1D n = 32 and
128 on (0, 1), 2D 8x8 and 16x16 on the unit square), solves problem1
with r = 1.5, h = 1 and q = 1.2 by ``minimize_energy`` at
``max_iters = 500``, from the bump and from the seeded random starts
0-20.  The problem is sublinear (q < r), so the paper's uniqueness
result says every start should reach the same minimizer.  ``PS`` holds
both sides of the solver's ladder rule: p = 1.5, 1.8 and 1.5+x fall
below 2 on some cell and walk every eps rung; 2+x and the constants 5 to
40 stay at or above 2 and run the last rung alone.  Prints one
line per (p, mesh): the starts that converged, the Newton steps summed
over all starts, the relative spread (max - min) / max |E| of the
energies of the converged starts, and the hex of the bump's energy.
The overflow and singular-matrix warnings of the trials are silenced.
The package is imported from the ``src/`` next to this script.

Usage: python tools/p_sweep.py   (about 30 seconds)
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pxlaplace.energy import power_reaction  # noqa: E402
from pxlaplace.exponents import exponent_field  # noqa: E402
from pxlaplace.grid import (build_interval, build_rectangle,  # noqa: E402
                            constant_field)
from pxlaplace.problems import ProblemSpec, build_energy_model  # noqa: E402
from pxlaplace.solver import SolverOptions, minimize_energy  # noqa: E402

PS = ("1.5", "1.8", "1.5+x", "2+x", "5", "10", "20", "40")
MESHES = {
    "1d-n32": lambda: build_interval(0, 1, 32),
    "1d-n128": lambda: build_interval(0, 1, 128),
    "2d-8x8": lambda: build_rectangle(0, 1, 0, 1, 8, 8),
    "2d-16x16": lambda: build_rectangle(0, 1, 0, 1, 16, 16),
}
SEEDS = range(21)
MAX_ITERS = 500


def sweep_line(p: str, mesh) -> str:
    """The summary of every start of problem1 with exponent p on mesh."""
    spec = ProblemSpec("problem1", mesh, exponent_field(mesh, p, 1.5),
                       power_reaction(constant_field(mesh, 1.0),
                                      constant_field(mesh, 1.2)))
    model = build_energy_model(spec)
    starts = [SolverOptions(max_iters=MAX_ITERS)] + [
        SolverOptions(max_iters=MAX_ITERS, init="random", seed=s)
        for s in SEEDS]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = [minimize_energy(model, opts) for opts in starts]
    energies = [r.energy for r in reports if r.converged]
    spread = (max(energies) - min(energies)) / max(map(abs, energies)) \
        if energies else float("nan")
    steps = sum(sum(r.iterations) for r in reports)
    return (f"converged {len(energies)}/{len(reports)} steps {steps} "
            f"spread {spread:.1e} bump_energy {reports[0].energy.hex()}")


def main() -> int:
    for p in PS:
        for name, build in MESHES.items():
            print(f"p{p:<5} {name:<9}", sweep_line(p, build()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
