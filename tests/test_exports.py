"""Every public name resolves, and every imported name exists.

Import statements inside functions only run when the function does, so
a deleted name can hide there; these checks read the import statements
of the package, the demos and the bench harness from their source.
"""

import ast
import importlib
import pathlib

import pytest

import pxlaplace

PACKAGE = pathlib.Path(pxlaplace.__file__).parent
ROOT = PACKAGE.parents[1]
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py")
                 if p.stem not in ("__init__", "__main__"))
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")])


def _imports(path: pathlib.Path):
    """(module, name) for each name a file imports from pxlaplace; the
    module is None for ``from pxlaplace import name``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and path.parent == PACKAGE:
            module = node.module
        elif node.level == 0 and (node.module or "").split(".")[0] \
                == "pxlaplace":
            module = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            yield module, alias.name


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"pxlaplace.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"pxlaplace.{name}.__all__ names {missing}"


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_imported_names_exist(path):
    missing = []
    for module, name in _imports(path):
        owner = pxlaplace if module is None else \
            importlib.import_module(f"pxlaplace.{module}")
        if not hasattr(owner, name):
            missing.append(f"{module or 'pxlaplace'}.{name}")
    assert not missing, f"{path.name} imports {missing}"


def test_sources_found():
    assert len(MODULES) >= 10
    assert any(p.parent.name == "demos" for p in SOURCES)
    assert any(p.parent.name == "bench" for p in SOURCES)
