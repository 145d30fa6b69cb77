"""Command-line front end.

Subcommands: solve, check-convexity, check-diaz-saa, check-comparison,
eig, validate, sweep.  Configuration is a JSON document; coefficient
fields are textual scalar expressions over x (and y in 2D), sampled at
the mesh nodes.  Runs are deterministic for a fixed config and seed, and
all floats are printed in shortest round-trip form, so repeated runs are
byte-identical.  Messages go to stderr, data to files and stdout.

Exit codes: 0 success/pass, 1 check failure, 2 usage/config error,
3 solver nonconvergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from . import anisotropy as aniso_mod
from . import energy, grid, inequality, problems, solver
from .exponents import exponent_field
from .expressions import ExprError

__all__ = ["main", "run_command", "load_config", "ConfigError"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3


class ConfigError(ValueError):
    pass


# -- config ------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def _need(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return cfg[key]


def _size(args, dom: dict, key: str, default: int) -> int:
    """A mesh size: its flag when given (eig takes no --nx/--ny), else the
    domain block's value, else ``default``."""
    flag = getattr(args, key, None)
    return dom.get(key, default) if flag is None else flag


def _build_mesh(cfg: dict, args) -> grid.Mesh:
    dom = _need(cfg, "domain")
    kind = _need(dom, "kind", "domain")
    if kind == "interval":
        return grid.build_interval(dom.get("a", 0.0), dom.get("b", 1.0),
                                   _size(args, dom, "n", 64))
    if kind == "rectangle":
        return grid.build_rectangle(dom.get("ax", 0.0), dom.get("bx", 1.0),
                                    dom.get("ay", 0.0), dom.get("by", 1.0),
                                    _size(args, dom, "nx", 16),
                                    _size(args, dom, "ny", 16))
    raise ConfigError(f"unknown domain kind {kind!r}")


def _field(mesh, source, what: str) -> grid.NodeField:
    try:
        return grid.interpolate(mesh, source)
    except (ExprError, ValueError) as e:
        raise ConfigError(f"bad expression for {what}: {e}") from None


def _build_exponent(cfg: dict, mesh):
    exp_cfg = _need(cfg, "exponent")
    try:
        return exponent_field(mesh, _need(exp_cfg, "p", "exponent"),
                              float(_need(exp_cfg, "r", "exponent")))
    except (ExprError, ValueError) as e:
        raise ConfigError(f"bad exponent block: {e}") from None


def _build_cone_model(cfg: dict, mesh) -> energy.EnergyModel:
    """Exponent + optional anisotropy block, for the check suites."""
    exponent = _build_exponent(cfg, mesh)
    aniso = None
    acfg = cfg.get("anisotropy")
    if acfg:
        kind = acfg.get("kind", "isotropic")
        if kind == "weighted-quadratic":
            weights = [_field(mesh, w, f"anisotropy weight {i}")
                       for i, w in enumerate(_need(acfg, "weights",
                                                   "anisotropy"))]
            try:
                aniso = aniso_mod.weighted_quadratic(exponent, weights)
            except ValueError as e:
                raise ConfigError(f"bad anisotropy block: {e}") from None
        elif kind != "isotropic":
            raise ConfigError(f"unknown anisotropy kind {kind!r}")
    return energy.EnergyModel(mesh, exponent, anisotropy=aniso)


_PROBLEM_KEYS = {"kind", "h", "q", "ell", "Q", "m0", "m_inf", "h_scale"}


def _build_problem(cfg: dict, mesh) -> problems.ProblemSpec:
    exponent = _build_exponent(cfg, mesh)
    prob = _need(cfg, "problem")
    unknown = set(prob) - _PROBLEM_KEYS
    if unknown:
        raise ConfigError(f"unknown problem key(s): {sorted(unknown)}")
    kind = _need(prob, "kind", "problem")
    scale = float(prob.get("h_scale", 1.0))
    h = _field(mesh, prob.get("h", "1"), "h")
    if scale != 1.0:
        h = grid.NodeField(mesh, scale * h.values)
    try:
        if "q" in prob:
            reaction = energy.power_reaction(h, _field(mesh, prob["q"], "q"))
        else:
            reaction = energy.source_reaction(h)
        absorption = None
        if kind == "problem2":
            absorption = energy.power_absorption(
                _field(mesh, _need(prob, "ell", "problem"), "ell"),
                _field(mesh, _need(prob, "Q", "problem"), "Q"))
        kirchhoff = None
        if kind == "kirchhoff":
            kirchhoff = energy.saturating_kirchhoff(
                float(_need(prob, "m0", "problem")),
                float(_need(prob, "m_inf", "problem")))
        return problems.ProblemSpec(kind, mesh, exponent, reaction,
                                    absorption, kirchhoff)
    except ValueError as e:
        raise ConfigError(f"bad problem block: {e}") from None


def _solver_options(cfg: dict) -> solver.SolverOptions:
    s = cfg.get("solver", {})
    known = {f.name for f in dataclasses.fields(solver.SolverOptions)}
    unknown = set(s) - known
    if unknown:
        raise ConfigError(f"unknown solver option(s): {sorted(unknown)}")
    try:
        return solver.SolverOptions(**s)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad solver block: {e}") from None


def _spec_and_options(cfg: dict, args) -> tuple:
    """Problem spec and solver options of a config.  The solver seed is
    the solver block's, else --seed (which solve and sweep require)."""
    spec = _build_problem(cfg, _build_mesh(cfg, args))
    opts = _solver_options(cfg)
    if "seed" not in cfg.get("solver", {}):
        opts = dataclasses.replace(opts, seed=args.seed)
    return spec, opts


# -- deterministic output ----------------------------------------------------

def _fmt(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _write_atomic(path: str, data: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_report(report: dict, path: str | None, quiet: bool):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path is not None:
        _write_atomic(path, text)
    if not quiet:
        sys.stdout.write(text)


def _solution_table(u: grid.NodeField) -> str:
    mesh = u.mesh
    lines = ["x,u" if mesh.dimension == 1 else "x,y,u"]
    for coords, val in zip(mesh.nodes, u.values):
        lines.append(",".join(_fmt(c) for c in coords) + "," + _fmt(val))
    return "\n".join(lines) + "\n"


def _out_path(args, cfg: dict, name: str) -> str | None:
    out = args.out or cfg.get("output", {}).get("dir")
    if out is None:
        return None
    return os.path.join(out, name)


# -- sampled instances for the check suites ----------------------------------

def _random_cone_field(rng, mesh, zero_boundary: bool) -> grid.NodeField:
    vals = rng.uniform(0.1, 10.0, mesh.n_nodes)
    if zero_boundary:
        vals[mesh.boundary_mask] = 0.0
    return grid.NodeField(mesh, vals)


def _convexity_sample(rng, model, cfg) -> tuple:
    v1 = _random_cone_field(rng, model.mesh, zero_boundary=False)
    v2 = _random_cone_field(rng, model.mesh, zero_boundary=False)
    rep = inequality.check_ray_convexity(v1, v2, model,
                                         np.linspace(0.05, 0.95, 7),
                                         kind="W_A")
    return rep.min_slack / rep.scale, rep.passed


def _diaz_saa_sample(rng, model, cfg) -> tuple:
    w1 = _random_cone_field(rng, model.mesh, zero_boundary=True)
    w2 = _random_cone_field(rng, model.mesh, zero_boundary=True)
    rep = inequality.diaz_saa_gap(w1, w2, model)
    rel = rep.gap / (abs(rep.i1) + abs(rep.i2) + 1.0)
    return rel, rel >= -(1e-10 if model.mesh.dimension == 1 else 1e-8)


def _comparison_sample(rng, model, cfg) -> tuple:
    base = rng.uniform(0.5, 1.5)
    extra = rng.uniform(0.0, 1.0, model.mesh.n_nodes)
    verdict = inequality.weak_comparison_experiment(
        model, grid.constant_field(model.mesh, base),
        grid.NodeField(model.mesh, base + extra), _solver_options(cfg),
        tol=1e-6)
    return verdict.max_excess, verdict.hypothesis_ok and verdict.conclusion_ok


# subcommand: (report key of the worst value, the worse of two values, sampler)
_CHECKS = {
    "check-convexity": ("worst_relative_slack", min, _convexity_sample),
    "check-diaz-saa": ("min_relative_gap", min, _diaz_saa_sample),
    "check-comparison": ("worst_excess", max, _comparison_sample),
}


def _cmd_check(cfg, args) -> int:
    """Draw ``--samples`` instances of a check and report the worst value
    and the failure count as ``check_<name>.json``; the exit code says
    whether all samples passed."""
    key, worse, sample = _CHECKS[args.command]
    model = _build_cone_model(cfg, _build_mesh(cfg, args))
    rng = np.random.default_rng(args.seed)
    worst = np.inf if worse is min else -np.inf
    failures = 0
    for _ in range(args.samples):
        value, passed = sample(rng, model, cfg)
        worst = worse(worst, value)
        failures += not passed
    check = args.command[len("check-"):]
    report = {"check": check, "samples": args.samples, "seed": args.seed,
              key: worst, "failures": failures, "passed": failures == 0}
    name = "check_" + check.replace("-", "_") + ".json"
    _dump_report(report, _out_path(args, cfg, name), args.quiet)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _cmd_solve(cfg, args) -> int:
    spec, opts = _spec_and_options(cfg, args)
    rep = solver.solve(spec, opts, override=bool(cfg.get("override", False)))
    table = _solution_table(rep.solution)
    path = _out_path(args, cfg, "solution.csv")
    if path is not None:
        _write_atomic(path, table)
    _dump_report(rep.as_dict(), _out_path(args, cfg, "report.json"), args.quiet)
    return EXIT_OK if rep.converged else EXIT_NONCONVERGED


def _cmd_eig(cfg, args) -> int:
    if cfg is None:  # no --config: the unit interval
        cfg = {"domain": {"kind": "interval"}}
    mesh0 = _build_mesh(cfg, args)
    if mesh0.dimension != 1:
        raise ConfigError("eig refinement ladder is 1D only")
    a, b = mesh0.bounds
    sizes = [mesh0.resolution[0] * 2 ** k for k in range(args.levels)]
    lambdas = [solver.first_eigenpair(grid.build_interval(a, b, n), args.r)[0]
               for n in sizes]
    seq = lambdas
    while len(seq) > 1:  # eliminate the h^2 error term pairwise
        seq = [(4.0 * seq[i + 1] - seq[i]) / 3.0 for i in range(len(seq) - 1)]
    report = {"command": "eig", "r": args.r, "sizes": sizes,
              "lambdas": lambdas, "extrapolated": seq[0]}
    _dump_report(report, _out_path(args, cfg, "eig_report.json"), args.quiet)
    return EXIT_OK


def _cmd_validate(cfg, args) -> int:
    mesh = _build_mesh(cfg, args)
    spec = _build_problem(cfg, mesh)
    r = spec.exponent.r
    out = {"f": problems.validate_f(spec.reaction, r).as_dict()}
    ok = out["f"]["passed"]
    if spec.absorption is not None:
        rep = problems.validate_g(spec.absorption, r, spec.exponent,
                                  mesh.dimension)
        out["g"] = rep.as_dict()
        ok = ok and rep.passed
        if spec.reaction.kind == "power":
            chain = problems.validate_corollary_chain(
                spec.reaction.q, spec.absorption.Q, r, spec.exponent)
            out["corollary_chain"] = chain.as_dict()
            ok = ok and chain.passed
    if spec.kirchhoff is not None:
        rep = problems.validate_M(spec.kirchhoff)
        out["M"] = rep.as_dict()
        ok = ok and rep.passed
    if spec.reaction.kind == "power":
        tag = problems.sharpness_regime(spec)
        out["regime"] = {"name": tag.name,
                         "frac_p_above_r": tag.frac_p_above_r,
                         "frac_q_below_r": tag.frac_q_below_r}
    out["passed"] = ok
    _dump_report(out, _out_path(args, cfg, "validation.json"), args.quiet)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _set_by_path(cfg: dict, dotted: str, value):
    parts = dotted.split(".")
    node = cfg
    for key in parts[:-1]:
        if not isinstance(node.get(key), dict):
            raise ConfigError(f"sweep parameter path {dotted!r} not in config")
        node = node[key]
    node[parts[-1]] = value


def _cmd_sweep(cfg, args) -> int:
    sweep = _need(cfg, "sweep")
    param = _need(sweep, "parameter", "sweep")
    values = _need(sweep, "values", "sweep")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values must be a nonempty list")
    rows = []
    any_nonconv = False
    for val in values:
        run_cfg = json.loads(json.dumps(cfg))  # deep copy
        _set_by_path(run_cfg, param, val)
        spec, opts = _spec_and_options(run_cfg, args)
        rep = solver.solve(spec, opts,
                           override=bool(run_cfg.get("override", False)))
        any_nonconv = any_nonconv or not rep.converged
        rows.append((val, rep))
    lines = ["value,energy,sup_u,residual_max,converged"]
    for val, rep in rows:
        lines.append(",".join([
            _fmt(val), _fmt(rep.energy),
            _fmt(np.abs(rep.solution.values).max()),
            _fmt(rep.residual_max), str(int(rep.converged)),
        ]))
    table = "\n".join(lines) + "\n"
    path = _out_path(args, cfg, "sweep.csv")
    if path is not None:
        _write_atomic(path, table)
    if not args.quiet:
        sys.stdout.write(table)
    return EXIT_NONCONVERGED if any_nonconv else EXIT_OK


# -- entry point ---------------------------------------------------------------

_MESH = ("--n", "--nx", "--ny")
# subcommand: (handler, the flags it reads besides --config, --out, --quiet)
_COMMANDS = {
    "solve": (_cmd_solve, ("--seed",) + _MESH),
    "check-convexity": (_cmd_check, ("--seed",) + _MESH + ("--samples",)),
    "check-diaz-saa": (_cmd_check, ("--seed",) + _MESH + ("--samples",)),
    "check-comparison": (_cmd_check, ("--seed",) + _MESH + ("--samples",)),
    "eig": (_cmd_eig, ("--n", "--levels", "--r")),
    "validate": (_cmd_validate, _MESH),
    "sweep": (_cmd_sweep, ("--seed",) + _MESH),
}


def _count(text: str) -> int:
    """argparse type of the counts and mesh sizes: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") \
            from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


_FLAGS = {
    "--seed": {"type": int, "required": True},
    "--n": {"type": _count},
    "--nx": {"type": _count},
    "--ny": {"type": _count},
    "--samples": {"type": _count, "default": 50},
    "--levels": {"type": _count, "default": 3},
    "--r": {"type": float, "default": 2.0},
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pxlaplace",
        description="variable-exponent energies: solvers and property checks")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=name != "eig")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out")
        p.add_argument("--quiet", action="store_true")
    return ap


def run_command(argv) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        cfg = None if args.config is None else load_config(args.config)
        return args.handler(cfg, args)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_USAGE
    except ValueError as e:
        sys.stderr.write(f"invalid input: {e}\n")
        return EXIT_USAGE
    except RuntimeError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_NONCONVERGED


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
