"""Print the exact result of every benchmark case, one line per case.

Builds the cases of each benchmark workload with ``bench/workloads.build``,
runs each case once and prints ``<workload> <case> <signature>``, where
the signature is ``workloads.signature`` of the result (every float as a
hex literal).  Each ``checks`` case adds a second line with the report
values the signature leaves out: ``slacks`` and the hex of every slack
for a convexity case, ``i1``/``i2`` and their hex for a gap case.
Diffing the output of two checkouts shows whether their results are
bitwise equal.  The package is imported from the ``src/``
next to this script; nothing under ``bench/`` is changed.

Usage: python tools/result_bits.py [--seed S] [WORKLOAD ...]
       (default: seed 1, every workload)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


def report_bits(case: workloads.Case) -> str:
    """Hex of every slack of a convexity case, or of i1 and i2 of a gap
    case, from the same inequality call the case makes."""
    if case.kind == "convexity":
        v1, v2, model = case.args
        rep = workloads.inequality.check_ray_convexity(
            v1, v2, model, workloads.THETAS, kind="W_A")
        return "slacks " + " ".join(float(s).hex() for s in rep.slacks)
    rep = workloads.inequality.diaz_saa_gap(*case.args)
    return f"i1 {rep.i1.hex()} i2 {rep.i2.hex()}"


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
            if name == "checks":
                print(name, case.name, report_bits(case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
