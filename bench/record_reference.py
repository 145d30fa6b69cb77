"""Record the reference energies and eigenvalues the benchmark gates on.

Runs every deterministic case (solve-1d, solve-2d, eigen) once and writes
``reference.json`` next to this file.  Re-record only when a workload's
case list changes, never to make a changed result pass; the iterations
are stored for reading, the gate uses only energies and eigenvalues.

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys

from run import prepare

prepare()  # same thread caps and import path as the benchmark

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for workload in ("solve-1d", "solve-2d", "eigen"):
        for case in workloads.build(workload, seed=0):
            result = case.run()
            keep = ("energy", "iterations", "residual_max", "eigenvalue")
            reference[case.name] = {k: v for k, v in result.items() if k in keep}
            print(case.name, reference[case.name], flush=True)
    workloads.REFERENCE.write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
