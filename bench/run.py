"""pxlaplace benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload solve-1d --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The cases of a workload form one pass, run one after another (each case
starts when the previous one ends).  Passes repeat while another one fits
in ``--seconds``; at least one always runs.  A fixed calibration kernel
runs between the cases, and the registered times are CPU times in units
of it, so that the host's speed divides out.  With ``--trace 1`` untraced
and traced passes alternate, the traced ones record spans around the
library's layers (see tracing.py), and the per-layer metrics replace the
end-to-end ones.  Every output is checked (workloads.py); the last stdout
line is the JSON result, and the exit code is 1 if any case failed.
See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
TRACE_DIR = ROOT / ".bench_out"
# CPU seconds of case work between two runs of the calibration kernel
CAL_EVERY_S = 0.2

E2E_UNITS = {"setup_s": "s", "wall_cal": "cal", "case_cal_p50": "cal",
             "case_cal_tail": "cal", "peak_rss_mb": "MB"}
# every per-layer metric, printed with its unit
LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "solver.iterations": "count",
    "solver.stages_at_cap": "count",
    "solver.evals_per_gradient": "ratio",
    "energy.energy_value.calls": "count",
    "energy.energy_value.s": "s",
    "energy.energy_value.from_minimize_energy.calls": "count",
    "energy.energy_value.from_minimize_energy.s": "s",
    "energy.energy_value.from_initial_guess.calls": "count",
    "energy.energy_value.from_initial_guess.s": "s",
    "energy.gateaux_gradient.calls": "count",
    "energy.gateaux_gradient.s": "s",
    "energy.dirichlet_part.calls": "count",
    "energy.dirichlet_part.s": "s",
    "solver.spsolve.calls": "count",
    "solver.spsolve.s": "s",
    "solver.minimize_energy.self_s": "s",
    "solver.hopf_diagnostic.s": "s",
    "solver.initial_guess.calls": "count",
    "solver.initial_guess.s": "s",
    "solver.first_eigenpair.s": "s",
    "solver.first_eigenpair.self_s": "s",
    "energy.phi_line.calls": "count",
    "energy.phi_line.s": "s",
    "energy.phi_prime.calls": "count",
    "energy.phi_prime.s": "s",
    "inequality.check_ray_convexity.self_s": "s",
    "inequality.diaz_saa_gap.self_s": "s",
    "grid.cell_average.calls": "count",
    "grid.cell_average.s": "s",
    "problems.validate.s": "s",
    "trace.overhead_frac": "ratio",
}


def _share_name(name: str) -> str:
    """Result name of a layer time: its share of the traced pass."""
    return name[:-1] + "share" if name.endswith((".s", ".self_s")) else name


# The per-layer metrics of the JSON result.  Layer times enter as shares
# of the traced pass time, which do not move with the machine's speed; the
# seconds are printed before the result.
RESULT_LAYER_UNITS = {
    _share_name(name): "ratio" if _share_name(name) != name else unit
    for name, unit in LAYER_UNITS.items()}


def prepare() -> dict:
    """Cap BLAS/OpenMP threads at nproc in this process's environment (read
    when numpy loads, inherited by the set-up probes) and put the
    checkout's ``src/`` and this directory first on the import path."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return {var: os.environ[var] for var in THREAD_VARS}


def _import_package() -> float:
    t0 = perf_counter()
    import pxlaplace
    elapsed = perf_counter() - t0
    origin = Path(pxlaplace.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"pxlaplace imported from {origin}, not {ROOT / 'src'}")
    return elapsed


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _fingerprint(caps: dict) -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "thread_caps": caps,
            "commit": _git_commit()}


def _setup_samples(args) -> list:
    """Import plus input building, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1]))
    return samples


class Calibration:
    """A fixed piece of numpy and SuperLU work that does not use pxlaplace,
    in the mix the workloads run: a Python loop over small array
    operations, then sparse solves of a 32x32 five-point Laplacian.

    A shared host's speed drifts by 20-50% over seconds and differs from
    one run to the next, in CPU time as much as in wall time.  The kernel
    runs between the cases of every pass; a case's CPU time, summed over
    the passes, divided by the summed mean CPU time of the kernel runs just
    before and after each repetition is its cost in multiples of the
    kernel's (unit ``cal``), and a change of host speed divides out."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        n = 32
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.np, self.spsolve = np, spla.spsolve
        self.matrix = (sp.kron(line, eye) + sp.kron(eye, line)).tocsc()
        self.rhs = np.ones(n * n)
        self.x = np.linspace(0.1, 1.0, 257)
        self.samples = []

    def run(self) -> int:
        """Runs the kernel once; returns the index of its CPU-time sample."""
        np, x = self.np, self.x
        t0 = process_time()
        p, total = 2.0 + x, 0.0
        for _ in range(400):
            total += float(np.sum(np.abs(np.diff(x) * 256.0) ** p[:-1]))
            x = x + 1e-9
        for _ in range(4):
            total += float(self.spsolve(self.matrix, self.rhs)[0])
        self.samples.append(process_time() - t0)
        if not math.isfinite(total):
            raise ArithmeticError("calibration kernel is not finite")
        return len(self.samples) - 1


def _bracket(record, cal) -> float:
    """Mean CPU time of the two kernel runs around a case."""
    lo, hi = record["cal"]
    return (cal.samples[lo] + cal.samples[hi]) / 2.0


def _cal_times(passes, cal) -> dict:
    """Each case's time in kernel units: its CPU time summed over
    ``passes`` divided by the summed kernel times around it."""
    cpu, unit = {}, {}
    for p in passes:
        for r in p["records"]:
            name = r["case"].name
            cpu[name] = cpu.get(name, 0.0) + r["cpu_s"]
            unit[name] = unit.get(name, 0.0) + _bracket(r, cal)
    return {name: cpu[name] / unit[name] for name in cpu}


def _best_times(passes) -> dict:
    """Each case's fastest wall time over ``passes``."""
    best = {}
    for p in passes:
        for r in p["records"]:
            name = r["case"].name
            best[name] = min(best.get(name, math.inf), r["s"])
    return best


def _tail(values) -> tuple:
    """Highest of p99.9/p99/p90 with at least ten values beyond it, else
    the largest value; returns (label, value)."""
    ordered = sorted(values)
    for pct in (99.9, 99.0, 90.0):
        if len(ordered) * (1.0 - pct / 100.0) >= 10.0:
            return f"p{pct:g}", statistics.quantiles(
                ordered, n=1000, method="inclusive")[round(pct * 10) - 1]
    return "max", ordered[-1]


def _run_pass(cases, reference, cal, tracer=None) -> dict:
    """One pass over ``cases``.  The calibration kernel runs first, last,
    and between cases once CAL_EVERY_S of case CPU time has gone by; each
    record keeps the kernel runs that bracket it (outside the pass time)."""
    records, pending = [], []
    wall = cpu_since_cal = 0.0
    last_cal = cal.run()
    for case in cases:
        if cpu_since_cal >= CAL_EVERY_S:
            last_cal = cal.run()
            for r in pending:
                r["cal"] = (r["cal"][0], last_cal)
            pending, cpu_since_cal = [], 0.0
        t0, c0 = perf_counter(), process_time()
        try:
            with tracer.span("case") if tracer else nullcontext():
                result = case.run()
            error = None
        except Exception as exc:  # a failed case is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        cpu, dt = process_time() - c0, perf_counter() - t0
        wall += dt
        cpu_since_cal += cpu
        if error is None:
            error = case.check(result, reference)
        records.append({"case": case, "s": dt, "cpu_s": cpu,
                        "cal": (last_cal, None), "result": result,
                        "error": error})
        pending.append(records[-1])
    last_cal = cal.run()
    for r in pending:
        r["cal"] = (r["cal"][0], last_cal)
    return {"wall": wall, "records": records, "traced": tracer is not None}


def _measure(cases, reference, cal, seconds: float, trace: bool, tracer):
    """Passes until the next one would overrun ``seconds``; with tracing,
    untraced and traced passes alternate and at least one of each runs."""
    passes, roots = [], []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t_pass = perf_counter()
        if traced:
            tracer.install()
            roots.append(len(tracer.start))
            try:
                with tracer.span("pass"):
                    passes.append(_run_pass(cases, reference, cal, tracer))
            finally:
                tracer.uninstall()
        else:
            passes.append(_run_pass(cases, reference, cal))
        now = perf_counter()
        if trace and len(passes) < 2:
            continue
        if now - start + (now - t_pass) > seconds:
            return passes, roots


def _report_cases(passes, cal, workload: str, seed: int):
    kinds = {r["case"].kind for r in passes[0]["records"]}
    if kinds & {"solve", "eigen"}:
        print(f"# {workload}: deterministic cases, seed {seed} recorded but "
              "unused; solver seed is SolverOptions.seed (0, bump init)")
        for k, p in enumerate(passes):
            for r in p["records"]:
                res = r["result"] or {}
                detail = " ".join(f"{key}={res[key]!r}" for key in
                                  ("iterations", "residual_max", "energy",
                                   "eigenvalue") if key in res)
                mark = "traced " if p["traced"] else ""
                print(f"case {r['case'].name} pass {k} {mark}t={r['s']:.4f} s "
                      f"cpu={r['cpu_s']:.4f} s {r['cpu_s'] / _bracket(r, cal):.3f} cal {detail} {'ok' if r['error'] is None else 'FAIL ' + r['error']}")
        return
    print(f"# {workload}: pairs drawn from seed {seed} before timing "
          f"(numpy default_rng)")
    groups = {}
    for p in passes:
        for r in p["records"]:
            name = r["case"].name.rsplit("-", 1)[0]
            groups.setdefault(name, []).append(r)
    for name, recs in groups.items():
        key = "min_slack" if name.startswith("convexity") else "relative_gap"
        worst = min((r["result"][key] for r in recs if r["result"]),
                    default=float("nan"))
        bad = sum(r["error"] is not None for r in recs)
        print(f"group {name} checks={len(recs)} "
              f"p50={statistics.median(r['s'] for r in recs):.6f} s "
              f"worst_{key}={worst!r} failed={bad}")
    for p in passes:
        for r in p["records"]:
            if r["error"] is not None:
                print(f"FAIL {r['case'].name}: {r['error']}")


def _mismatches(passes) -> int:
    """Cases whose result differs bitwise from the first pass's, which is
    untraced: tracing and repetition must not change results."""
    import workloads
    plain = {r["case"].name: workloads.signature(r["result"])
             for r in passes[0]["records"]}
    bad = 0
    for p in passes[1:]:
        for r in p["records"]:
            if r["error"] is None and (workloads.signature(r["result"])
                                       != plain[r["case"].name]):
                print(f"FAIL {r['case'].name}: result differs between passes")
                bad += 1
    return bad


def _layer_metrics(tracer, root: int, records) -> dict:
    layers = tracer.layer_times(root)

    def get(name, key="s", parent=None):
        entry = layers.get(name, {})
        if parent is not None:
            entry = entry.get("by_parent", {}).get(parent, {})
        return entry.get(key, 0 if key == "calls" else 0.0)

    m = {}
    for name in ("energy.energy_value", "energy.gateaux_gradient",
                 "energy.dirichlet_part", "solver.spsolve",
                 "solver.initial_guess", "energy.phi_line",
                 "energy.phi_prime", "grid.cell_average"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name)
    for parent in ("minimize_energy", "initial_guess"):
        pre = f"energy.energy_value.from_{parent}"
        m[f"{pre}.calls"] = get("energy.energy_value", "calls",
                                f"solver.{parent}")
        m[f"{pre}.s"] = get("energy.energy_value", "s", f"solver.{parent}")
    grads = get("energy.gateaux_gradient", "calls", "solver.minimize_energy")
    m["solver.evals_per_gradient"] = (
        m["energy.energy_value.from_minimize_energy.calls"] / grads
        if grads else 0.0)
    m["solver.minimize_energy.self_s"] = get("solver.minimize_energy",
                                             "self_s")
    m["solver.hopf_diagnostic.s"] = get("solver.hopf_diagnostic")
    m["solver.first_eigenpair.s"] = get("solver.first_eigenpair")
    m["solver.first_eigenpair.self_s"] = get("solver.first_eigenpair",
                                             "self_s")
    m["inequality.check_ray_convexity.self_s"] = get(
        "inequality.check_ray_convexity", "self_s")
    m["inequality.diaz_saa_gap.self_s"] = get("inequality.diaz_saa_gap",
                                              "self_s")
    m["problems.validate.s"] = get("problems.validate")
    stages = [(it, r["result"]["max_iters"]) for r in records
              if r["result"] and "iterations" in r["result"]
              for it in r["result"]["iterations"]]
    m["solver.iterations"] = sum(it for it, _ in stages)
    m["solver.stages_at_cap"] = sum(it == cap - 1 for it, cap in stages)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)  # run_seconds
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    caps = prepare()
    import_s = _import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        t0 = perf_counter()
        workloads.build(args.workload, args.seed)
        print(json.dumps({"import_s": import_s,
                          "inputs_s": perf_counter() - t0}))
        return 0

    fingerprint = _fingerprint(caps)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    setups = _setup_samples(args)
    cases = workloads.build(args.workload, args.seed)
    reference = workloads.load_reference()
    import tracing
    tracer = tracing.Tracer() if args.trace else None

    cal = Calibration()
    for _ in range(3):  # warm-up, discarded
        cal.run()
    cal.samples.clear()
    passes, roots = _measure(cases, reference, cal, args.seconds,
                             bool(args.trace), tracer)
    _report_cases(passes, cal, args.workload, args.seed)
    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(r["error"] is not None for p in passes for r in p["records"])
    failed += _mismatches(passes)
    plain = [p for p in passes if not p["traced"]]
    best = _best_times(plain)
    wall = sum(best.values())
    tail_label, tail = _tail(best.values())
    in_cal = _cal_times(plain, cal)
    print(f"# passes={len(passes)} untraced={len(plain)} cases={len(best)}; "
          "case_s_* are each case's fastest untraced wall time, case_cal_* "
          "its untraced CPU time in calibration-kernel units; "
          f"tails are {tail_label} over {len(best)} cases")
    print(f"cal_kernel_s {statistics.median(cal.samples)!r} s "
          f"(median CPU time of {len(cal.samples)} kernel runs)")
    print(f"wall_s {wall!r} s")
    print(f"case_s_p50 {statistics.median(best.values())!r} s")
    print(f"case_s_tail {tail!r} s")
    print(f"failed_frac {failed / attempted!r} ratio "
          f"({failed} of {attempted})")
    if args.workload == "checks":
        checks_per_s = (len(plain) * len(cases)
                        / sum(p["wall"] for p in plain))
        print(f"checks_per_s {checks_per_s!r} 1/s")

    if args.trace:
        # the layers of the fastest traced pass
        root, fastest = min(zip(roots, (p for p in passes if p["traced"])),
                            key=lambda rp: rp[1]["wall"])
        metrics = _layer_metrics(tracer, root, fastest["records"])
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
        traced = _best_times(p for p in passes if p["traced"])
        metrics["trace.overhead_frac"] = sum(traced.values()) / wall - 1.0
        for name, unit in LAYER_UNITS.items():
            print(f"{name} {metrics[name]!r} {unit}")
        metrics.update({_share_name(name): metrics[name] / fastest["wall"]
                        for name in LAYER_UNITS if _share_name(name) != name})
        units = RESULT_LAYER_UNITS
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.save(TRACE_DIR / f"trace-{args.workload}.npz",
                    {"workload": args.workload, "seed": args.seed,
                     "fingerprint": fingerprint, "pass_roots": roots,
                     "metrics": metrics})
    else:
        metrics = {
            "setup_s": statistics.median(s["import_s"] + s["inputs_s"]
                                         for s in setups),
            "wall_cal": sum(in_cal.values()),
            "case_cal_p50": statistics.median(in_cal.values()),
            "case_cal_tail": _tail(in_cal.values())[1],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    for name in units:
        if not (args.trace and name in LAYER_UNITS):  # printed above
            print(f"{name} {metrics[name]!r} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name],
                                         "unit": units[name]}
                                  for name in units}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
