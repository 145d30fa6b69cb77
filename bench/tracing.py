"""In-memory span tracer for the benchmark.

The tracer wraps public pxlaplace functions at the module attribute their
callers look them up through (``pxlaplace.solver.energy_value`` for the
solver's calls, ``pxlaplace.inequality.phi_line`` for the checker's, ...).
Nothing under ``src/`` changes: wrapping swaps module attributes while the
tracer is installed and restores the originals when it is removed.  A
wrapper passes arguments and results through untouched, so traced and
untraced runs compute bitwise identical results.

A span is (name, parent span, start, end); spans are appended in start
order to flat arrays, kept in memory and written once by ``save``.
"""

from __future__ import annotations

import json
import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from pxlaplace import anisotropy, energy, exponents, inequality, problems, solver

# (module, attribute, span name): every lookup site the workloads reach.
# Span names are "<layer module>.<function>"; cell_average is looked up
# from four modules and validators from the solver.
SITES = (
    (solver, "minimize_energy", "solver.minimize_energy"),
    (solver, "initial_guess", "solver.initial_guess"),
    (solver, "hopf_diagnostic", "solver.hopf_diagnostic"),
    (solver, "first_eigenpair", "solver.first_eigenpair"),
    (solver, "energy_value", "energy.energy_value"),
    (solver, "gateaux_gradient", "energy.gateaux_gradient"),
    (solver, "dirichlet_part", "energy.dirichlet_part"),
    (solver, "validate_f", "problems.validate"),
    (solver, "validate_g", "problems.validate"),
    (solver, "validate_M", "problems.validate"),
    (solver, "sharpness_regime", "problems.validate"),
    (inequality, "check_ray_convexity", "inequality.check_ray_convexity"),
    (inequality, "diaz_saa_gap", "inequality.diaz_saa_gap"),
    (inequality, "phi_line", "energy.phi_line"),
    (inequality, "phi_prime", "energy.phi_prime"),
    (energy, "cell_average", "grid.cell_average"),
    (exponents, "cell_average", "grid.cell_average"),
    (anisotropy, "cell_average", "grid.cell_average"),
    (problems, "cell_average", "grid.cell_average"),
)


class _SparseLinalg:
    """Stands in for ``scipy.sparse.linalg`` inside the solver module, so
    only the solver's sparse solves are traced."""

    def __init__(self, real, spsolve):
        self._real = real
        self.spsolve = spsolve

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A harness-level span (a pass, a case)."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SITES:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        real = solver.spla
        self._patch(solver, "spla", _SparseLinalg(
            real, self._wrap(real.spsolve, "solver.spsolve")))

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading the spans ---------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_times(self, root: int) -> dict:
        """Per span name below span ``root``: calls, inclusive seconds, self
        seconds (minus direct children), and calls and seconds per parent
        span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = dur - np.bincount(a["parent"] + 1, weights=dur,
                                minlength=dur.size + 1)[1:]
        # spans are in start order, so the spans below root are the run
        # that follows it up to the first span whose parent precedes root
        after = np.flatnonzero(a["parent"][root + 1:] < root)
        sub = slice(root + 1, root + 1 + after[0] if after.size else dur.size)
        names = a["name"][sub]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        secs = np.bincount(names, weights=dur[sub], minlength=k)
        self_s = np.bincount(names, weights=own[sub], minlength=k)
        pair = names * k + a["name"][a["parent"][sub]]
        pair_calls = np.bincount(pair, minlength=k * k)
        pair_secs = np.bincount(pair, weights=dur[sub], minlength=k * k)
        out = {}
        for j in np.flatnonzero(calls):
            by_parent = {self.names[q]: {"calls": int(pair_calls[j * k + q]),
                                         "s": float(pair_secs[j * k + q])}
                         for q in range(k) if pair_calls[j * k + q]}
            out[self.names[j]] = {"calls": int(calls[j]), "s": float(secs[j]),
                                  "self_s": float(self_s[j]),
                                  "by_parent": by_parent}
        return out

    def save(self, path, meta: dict):
        """Write every span and ``meta`` to one compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            meta=np.array(json.dumps(meta)), **self.arrays())

