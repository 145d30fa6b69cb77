"""Paired benchmark runs: a copy of the parent commit against this checkout.

    python tools/bench_pairs.py PARENT_DIR [--workload W ...] [--pairs 10]
                                [--seconds 28] [--seed 1]

PARENT_DIR holds the parent's files, made for example by
``git archive <commit> | tar -x -C PARENT_DIR``.  Each pair runs the
command of ``BENCHMARK.json`` (``bench/run.py --workload W --seed S
--seconds T --trace 0``) once in PARENT_DIR and once in this checkout,
odd pairs the parent first and even pairs the change first, so drift in
the host's speed falls on both sides alike.  The workloads default to
all of ``BENCHMARK.json``'s.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints the parent's and the change's median, the change's relative
difference, each side's quartiles Q1 and Q3 (inclusive quartiles), the
parent's interquartile range Q3 - Q1 and the pairs the change wins: a
win is a value strictly
better in the metric's ``better`` direction, and a tie counts for
neither side.  So the rule "the change wins at least nine pairs in ten
and the medians differ by more than the parent's IQR" reads off one
line.  Each workload ends with the failed and attempted operations of
each side.  The last line is the whole record as JSON, every run
included.  It reads ``bench/`` and ``BENCHMARK.json`` and writes
nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(side: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """The JSON result, the last stdout line, of one benchmark run."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{side}: {workload} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")


def quartiles(values: list) -> tuple:
    """Q1, median and Q3 of one side's runs, inclusive quartiles."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent: list, change: list, metric: dict) -> dict:
    """Medians, each side's quartiles, the parent's IQR and the change's
    wins for one metric."""
    name = metric["name"]
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    (q1, pm, q3), (c1, cm, c3) = quartiles(p), quartiles(c)
    return {"parent_median": pm, "change_median": cm,
            "relative": cm / pm - 1.0 if pm else None,
            "parent_q1": q1, "parent_q3": q3,
            "change_q1": c1, "change_q3": c3,
            "parent_iqr": q3 - q1,
            "change_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "pairs": len(p), "parent_runs": p, "change_runs": c,
            "unit": metric["unit"], "better": metric["better"]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for a quartile")
    if not (args.parent_dir / "bench" / "run.py").is_file():
        ap.error(f"{args.parent_dir} holds no bench/run.py")
    sides = {"parent": args.parent_dir.resolve(), "change": ROOT}
    record = {"command": spec["command"], "seed": args.seed,
              "seconds": args.seconds, "pairs": args.pairs,
              "order": "odd pairs ran the parent first, even pairs the "
                       "change first", "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], spec["command"],
                                           workload, args.seed, args.seconds))
            print(f"# {workload} pair {k + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)
        metrics = {m["name"]: compare(runs["parent"], runs["change"], m)
                   for m in spec["end_to_end"]}
        failed = {side: [sum(r["failed"] for r in runs[side]),
                         sum(r["attempted"] for r in runs[side])]
                  for side in runs}
        record["workloads"][workload] = {"metrics": metrics, "failed": failed}
        print(f"# {workload}: {args.pairs} pairs, seed {args.seed}, "
              f"{args.seconds:g} s")
        print(f"{'metric':<14} {'parent':>12} {'change':>12} {'relative':>9}"
              f" {'parent_q1..q3':>23} {'change_q1..q3':>23}"
              f" {'parent_iqr':>11} {'wins':>6}")
        for name, m in metrics.items():
            rel = "" if m["relative"] is None else f"{m['relative']:+.1%}"
            print(f"{name:<14} {m['parent_median']:>12.6g} "
                  f"{m['change_median']:>12.6g} {rel:>9} "
                  f"{m['parent_q1']:>11.6g}..{m['parent_q3']:<10.6g} "
                  f"{m['change_q1']:>11.6g}..{m['change_q3']:<10.6g} "
                  f"{m['parent_iqr']:>11.4g} "
                  f"{m['change_wins']:>3}/{m['pairs']}")
        print("failed " + ", ".join(f"{side} {f}/{a}"
                                    for side, (f, a) in failed.items()))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
