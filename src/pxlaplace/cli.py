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
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import anisotropy as aniso_mod
from . import energy, grid, inequality, problems, solver
from .exponents import exponent_field

__all__ = ["main", "run_command", "load_config", "ConfigError"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3


class ConfigError(ValueError):
    pass


# -- config ------------------------------------------------------------------

def _known(block: dict, keys, what: str) -> dict:
    """``block`` itself, once it holds no key outside ``keys``."""
    unknown = set(block) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")
    return block


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
    _known(cfg.get("output", {}), {"dir"}, "output key(s)")
    return cfg


def _need(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return cfg[key]


def _scalar(block: dict, key: str, where: str, default=None,
            flag: bool = False):
    """``block[key]``, else ``default`` (the key is required when there is
    none).  A flag must be a JSON boolean and a number a JSON number, an
    int or a float: float() would read true as 1 and "2" as 2, and bool()
    any nonempty string as true."""
    value = _need(block, key, where) if default is None \
        else block.get(key, default)
    if type(value) not in ((bool,) if flag else (int, float)):
        kind = "true or false" if flag else "a number"
        raise ConfigError(f"{where}.{key} must be {kind}, "
                          f"got {json.dumps(value)}")
    return value


def _size(args, dom: dict, key: str, default: int) -> int:
    """A mesh size: its flag when given (eig takes no --nx/--ny), else the
    domain block's value, else ``default``."""
    flag = getattr(args, key, None)
    return _scalar(dom, key, "domain", default) if flag is None else flag


# domain kind: (builder, bounds, sizes), the bounds and sizes with their
# defaults, in the builder's argument order
_DOMAINS = {
    "interval": (grid.build_interval, {"a": 0.0, "b": 1.0}, {"n": 64}),
    "rectangle": (grid.build_rectangle,
                  {"ax": 0.0, "bx": 1.0, "ay": 0.0, "by": 1.0},
                  {"nx": 16, "ny": 16}),
}


def _build_mesh(cfg: dict, args) -> grid.Mesh:
    dom = _need(cfg, "domain")
    kind = _need(dom, "kind", "domain")
    if kind not in _DOMAINS:
        raise ConfigError(f"unknown domain kind {kind!r}")
    build, bounds, sizes = _DOMAINS[kind]
    _known(dom, {"kind", *bounds, *sizes}, "domain key(s)")
    return build(*[_scalar(dom, k, "domain", d) for k, d in bounds.items()],
                 *[_size(args, dom, k, d) for k, d in sizes.items()])


def _field(mesh, source, what: str) -> grid.NodeField:
    try:
        return grid.interpolate(mesh, source)
    except ValueError as e:
        raise ConfigError(f"bad expression for {what}: {e}") from None


def _build_exponent(cfg: dict, mesh):
    exp_cfg = _known(_need(cfg, "exponent"), {"p", "r"}, "exponent key(s)")
    try:
        return exponent_field(mesh, _need(exp_cfg, "p", "exponent"),
                              _scalar(exp_cfg, "r", "exponent"))
    except ValueError as e:
        raise ConfigError(f"bad exponent block: {e}") from None


def _build_cone_model(cfg: dict, mesh) -> energy.EnergyModel:
    """Exponent + optional anisotropy block, for the check suites."""
    exponent = _build_exponent(cfg, mesh)
    aniso = None
    acfg = cfg.get("anisotropy")
    if acfg:
        _known(acfg, {"kind", "weights"}, "anisotropy key(s)")
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


def _build_problem(cfg: dict, mesh) -> problems.ProblemSpec:
    exponent = _build_exponent(cfg, mesh)
    prob = _known(_need(cfg, "problem"),
                  {"kind", "h", "q", "ell", "Q", "m0", "m_inf", "h_scale"},
                  "problem key(s)")
    kind = _need(prob, "kind", "problem")
    scale = _scalar(prob, "h_scale", "problem", 1.0)
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
                _scalar(prob, "m0", "problem"),
                _scalar(prob, "m_inf", "problem"))
        return problems.ProblemSpec(kind, mesh, exponent, reaction,
                                    absorption, kirchhoff)
    except ValueError as e:
        raise ConfigError(f"bad problem block: {e}") from None


def _solver_options(cfg: dict) -> solver.SolverOptions:
    s = _known(cfg.get("solver", {}),
               (f.name for f in dataclasses.fields(solver.SolverOptions)),
               "solver option(s)")
    try:
        return solver.SolverOptions(**s)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad solver block: {e}") from None


def _solve(cfg: dict, args) -> solver.SolveReport:
    """Solve a config's problem.  The solver seed is the solver block's,
    else --seed (which solve and sweep require); a JSON true
    ``override`` runs the solve although a hypothesis fails."""
    spec = _build_problem(cfg, _build_mesh(cfg, args))
    opts = _solver_options(cfg)
    if "seed" not in cfg.get("solver", {}):
        opts = dataclasses.replace(opts, seed=args.seed)
    override = _scalar(cfg, "override", "config", False, flag=True)
    return solver.solve(spec, opts, override=override)


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


def _emit(args, cfg: dict, name: str, text: str, echo: bool = True):
    """The one output rule: write ``text`` as the file ``name`` into --out,
    else into ``output.dir``, else nowhere, and echo it to stdout unless
    ``echo`` is false or --quiet is given."""
    out = args.out or cfg.get("output", {}).get("dir")
    if out is not None:
        _write_atomic(os.path.join(out, name), text)
    if echo and not args.quiet:
        sys.stdout.write(text)


def _dump_report(args, cfg: dict, name: str, report: dict):
    _emit(args, cfg, name, json.dumps(report, sort_keys=True, indent=2) + "\n")


def _solution_table(u: grid.NodeField) -> str:
    mesh = u.mesh
    lines = ["x,u" if mesh.dimension == 1 else "x,y,u"]
    for coords, val in zip(mesh.nodes, u.values):
        lines.append(",".join(_fmt(c) for c in coords) + "," + _fmt(val))
    return "\n".join(lines) + "\n"


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
    verdict = solver.weak_comparison_experiment(
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
    _dump_report(args, cfg, name, report)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _cmd_solve(cfg, args) -> int:
    rep = _solve(cfg, args)
    _emit(args, cfg, "solution.csv", _solution_table(rep.solution), echo=False)
    _dump_report(args, cfg, "report.json", rep.as_dict())
    return EXIT_OK if rep.converged else EXIT_NONCONVERGED


def _richardson(values) -> float:
    """Richardson extrapolation of values on meshes halved one after the
    other, for an error in even powers of h: level k combines neighbours
    with weight 4^k, which eliminates the h^(2k) term."""
    seq = list(values)
    for k in range(1, len(seq)):
        w = 4.0 ** k
        seq = [(w * b - a) / (w - 1.0) for a, b in zip(seq, seq[1:])]
    return seq[0]


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
    report = {"command": "eig", "r": args.r, "sizes": sizes,
              "lambdas": lambdas, "extrapolated": _richardson(lambdas)}
    _dump_report(args, cfg, "eig_report.json", report)
    return EXIT_OK


def _cmd_validate(cfg, args) -> int:
    """The solver's hypothesis table, plus the corollary chain of a
    problem2 and the regime of every problem."""
    spec = _build_problem(cfg, _build_mesh(cfg, args))
    reports = solver.hypotheses(spec)
    if spec.kind == "problem2":
        reports["corollary_chain"] = problems.validate_corollary_chain(
            spec.reaction.q, spec.absorption.Q, spec.exponent.r,
            spec.exponent)
    out = {key: rep.as_dict() for key, rep in reports.items()}
    ok = all(rep.passed for rep in reports.values())
    tag = problems.sharpness_regime(spec)
    out["regime"] = {"name": tag.name,
                     "frac_p_above_r": tag.frac_p_above_r,
                     "frac_q_below_r": tag.frac_q_below_r}
    out["passed"] = ok
    _dump_report(args, cfg, "validation.json", out)
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
    rows = [["value", "energy", "sup_u", "residual_max", "converged"]]
    any_nonconv = False
    for val in values:
        run_cfg = json.loads(json.dumps(cfg))  # deep copy
        _set_by_path(run_cfg, param, val)
        rep = _solve(run_cfg, args)
        any_nonconv = any_nonconv or not rep.converged
        # an expression such as "max(x,0.5)+2" is written as given
        rows.append([
            val if isinstance(val, str) else _fmt(val), _fmt(rep.energy),
            _fmt(np.abs(rep.solution.values).max()),
            _fmt(rep.residual_max), str(int(rep.converged)),
        ])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    _emit(args, cfg, "sweep.csv", out.getvalue())
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
    except (TypeError, ValueError, OverflowError) as e:
        sys.stderr.write(f"invalid input: {e}\n")
        return EXIT_USAGE
    except RuntimeError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_NONCONVERGED


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
