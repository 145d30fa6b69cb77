"""scipy loads at the first sparse assembly or solve, not at import.

``import pxlaplace``, ``validate`` and the ``check-*`` commands build no
sparse matrix, so they run on numpy alone, and no annotation names
scipy, so resolving the package's type hints needs no scipy either.  Each
import case runs in a fresh interpreter, since the suite's own process
has scipy loaded.  The
in-process tests hold the ``solver.sp``/``solver.spla``/``solver.lapack``
seam: each resolves to scipy on lookup, a stand-in set as ``solver.spla``
sees every sparse solve and one set as ``solver.lapack`` every band
factorization and solve, and a module is imported at its first lookup
only.  Three tests read the package's source instead of running it: the
mesh check is written once, in ``grid._on_mesh``, no module compares a
value with a reaction kind, since a reaction carries none, and the
modules import one another one way, with no cycle.
"""

import ast
import collections
import dataclasses
import graphlib
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from pxlaplace import solver
from pxlaplace.energy import ReactionTerm, power_reaction
from pxlaplace.exponents import exponent_field
from pxlaplace.grid import build_interval, build_rectangle, interpolate
from pxlaplace.problems import ProblemSpec
from pxlaplace.solver import SolverOptions, first_eigenpair, solve_problem1

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# the config of the README's command-line section
README_CONFIG = {
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 256},
    "exponent": {"p": "2+x", "r": 1.5},
    "problem": {"kind": "problem1", "h": "1", "q": "1.2"},
    "solver": {"grad_tol": 1e-9},
}

# imports pxlaplace, runs the command in argv (if any) through
# pxlaplace.cli.main, then prints the exit code and whether scipy is loaded
PROBE = """\
import sys
import pxlaplace
code = 0
if len(sys.argv) > 1:
    from pxlaplace.cli import main
    sys.argv[0] = "pxlaplace"
    try:
        main()
    except SystemExit as e:
        code = e.code
print(code, "scipy" in sys.modules)
"""


# resolves the type hints of every function, class and method defined in
# the package, then prints how many it resolved, whether scipy is loaded
# and each failure
HINTS = """\
import importlib, inspect, pkgutil, sys, typing
import pxlaplace
checked, failed = 0, []
for info in pkgutil.iter_modules(pxlaplace.__path__):
    module = importlib.import_module("pxlaplace." + info.name)
    for obj in list(vars(module).values()):
        if not (inspect.isfunction(obj) or inspect.isclass(obj)) \\
                or obj.__module__ != module.__name__:
            continue
        members = vars(obj).values() if inspect.isclass(obj) else ()
        for f in [obj, *filter(inspect.isfunction, members)]:
            checked += 1
            try:
                typing.get_type_hints(f)
            except Exception as e:
                failed.append(f"{module.__name__}.{f.__qualname__}: {e!r}")
print(checked, "scipy" in sys.modules, *failed, sep="\\n")
"""


def _run(tmp_path, script, *argv):
    """stdout of ``script`` run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          check=True, timeout=120).stdout


def _probe(tmp_path, *argv):
    """Exit code and whether scipy was loaded, in a fresh interpreter."""
    out = _run(tmp_path, PROBE, *argv).split()
    return int(out[0]), out[1] == "True"


def _command(tmp_path, *argv):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(README_CONFIG))
    return (*argv, "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--quiet")


def test_import_leaves_scipy_unloaded(tmp_path):
    assert _probe(tmp_path) == (0, False)


@pytest.mark.parametrize("argv", [
    ("validate",),
    ("check-convexity", "--samples", "200", "--seed", "1"),
    ("check-diaz-saa", "--samples", "200", "--seed", "1"),
])
def test_checks_run_without_scipy(tmp_path, argv):
    assert _probe(tmp_path, *_command(tmp_path, *argv)) == (0, False)
    assert any((tmp_path / "out").iterdir())


def test_type_hints_resolve_without_scipy(tmp_path):
    # no annotation may name scipy, which is not bound at import
    checked, scipy_loaded, *failed = _run(tmp_path, HINTS).splitlines()
    assert failed == []
    assert scipy_loaded == "False"
    assert int(checked) > 200


def test_solve_loads_scipy(tmp_path):
    assert _probe(tmp_path, *_command(tmp_path, "solve", "--seed", "7")) \
        == (0, True)


def test_solver_resolves_sp_and_spla_to_scipy():
    assert solver.spla is scipy.sparse.linalg
    assert solver.sp is scipy.sparse
    assert solver.lapack is scipy.linalg.lapack
    assert not hasattr(solver, "no_such_name")


def test_seam_imports_each_module_once(monkeypatch):
    # the first lookup of each name imports its module and keeps it; every
    # later lookup returns the kept module without calling import_module
    imported = collections.Counter()
    import_module = importlib.import_module

    def counting(name, *args, **kwargs):
        if name in solver._SCIPY.values():
            imported[name] += 1
        return import_module(name, *args, **kwargs)

    monkeypatch.setattr(importlib, "import_module", counting)
    for name in solver._SCIPY:
        monkeypatch.delattr(solver, name, raising=False)

    def eigenpairs():
        first_eigenpair(build_rectangle(0.0, 1.5, 0.0, 1.0, 6, 5), 2.0)
        first_eigenpair(build_interval(0.0, 1.0, 16), 3.0)

    eigenpairs()
    assert imported == {"scipy.sparse": 1, "scipy.linalg.lapack": 1}
    assert solver.lapack is scipy.linalg.lapack
    imported.clear()
    eigenpairs()
    assert imported == {}


class _Counting:
    """Forwards each attribute lookup to ``target`` and counts the calls
    made through it, by name."""

    def __init__(self, target):
        self.target, self.calls = target, collections.Counter()

    def __getattr__(self, name):
        fn = getattr(self.target, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted


def _stand_ins(monkeypatch, module, seam, names):
    """Sets a counting stand-in for ``module`` as ``solver.<seam>`` and
    counts, on ``module`` itself, the calls of ``names`` that reach it;
    returns both counters."""
    reached = _Counting(types.SimpleNamespace(
        **{name: getattr(module, name) for name in names}))
    for name in names:
        monkeypatch.setattr(module, name, getattr(reached, name))
    stub = _Counting(module)
    monkeypatch.setattr(solver, seam, stub)
    return stub, reached


def _problem1_and_eigen(mesh):
    """Iterations of a problem1 solve on ``mesh``, then one r = 3
    eigenpair on it."""
    spec = ProblemSpec("problem1", mesh, exponent_field(mesh, "2+x", r=1.5),
                       power_reaction(interpolate(mesh, "1"),
                                      interpolate(mesh, "1.2")))
    rep = solve_problem1(spec, SolverOptions())
    assert rep.converged
    first_eigenpair(mesh, 3.0)
    return rep.iterations


def test_a_stand_in_for_spla_sees_every_sparse_solve(monkeypatch):
    # every spsolve that reaches scipy must have gone through the stand-in
    # set as solver.spla (the seam a tracer wraps)
    stub, reached = _stand_ins(monkeypatch, scipy.sparse.linalg, "spla",
                               ("spsolve",))
    iterations = _problem1_and_eigen(build_interval(0.0, 1.0, 32))
    assert stub.calls == reached.calls
    assert stub.calls["spsolve"] == sum(iterations) > 0


def test_a_stand_in_for_lapack_sees_every_band_solve(monkeypatch):
    # every band factorization and solve of the eigen descent that reaches
    # scipy must have gone through the stand-in set as solver.lapack
    stub, reached = _stand_ins(monkeypatch, scipy.linalg.lapack, "lapack",
                               ("dpbtrf", "dpbtrs"))
    _problem1_and_eigen(build_interval(0.0, 1.0, 32))
    assert stub.calls == reached.calls
    assert stub.calls["dpbtrf"] == stub.calls["dpbtrs"] > 0


def test_the_mesh_check_is_written_only_in_grid_on_mesh():
    # an ``is not`` comparison on a ``.mesh`` attribute anywhere else is a
    # mesh check written out by hand; every entry point calls the helper
    inside, sites = set(), set()
    for path in sorted((SRC / "pxlaplace").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (path.name == "grid.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "_on_mesh"):
                inside.update(map(id, ast.walk(node)))
        sites |= {f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(isinstance(op, ast.IsNot) for op in node.ops)
                  and any(isinstance(x, ast.Attribute) and x.attr == "mesh"
                          for x in (node.left, *node.comparators))
                  and id(node) not in inside}
    assert sorted(sites) == []
    assert inside, "grid._on_mesh is missing"


def test_the_reaction_kind_is_read_only_by_the_validators():
    # a source is the power term with q = 1, so a reaction has no kind
    # field and no code compares a value with "power" or "source"; every
    # rule reads h and q
    assert "kind" not in {f.name for f in dataclasses.fields(ReactionTerm)}
    kinds = {"power", "source"}

    def names_a_kind(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List,
                                              ast.Set)) else (node,)
        return any(isinstance(e, ast.Constant) and e.value in kinds
                   for e in elts)

    sites = []
    for path in sorted((SRC / "pxlaplace").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sites += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(map(names_a_kind, (node.left, *node.comparators)))]
    assert sites == []


def test_the_package_imports_one_way():
    # every import between the package's modules, one inside a function
    # body included, points one way: the import graph has a topological
    # order (static_order raises graphlib.CycleError on a cycle)
    graph = {}
    for path in sorted((SRC / "pxlaplace").glob("*.py")):
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module
                            else (alias.name for alias in node.names))
    assert {"inequality", "problems"} <= graph["solver"]
    assert "expressions" in graph["grid"]  # an import inside a function
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert order.index("inequality") < order.index("solver")
