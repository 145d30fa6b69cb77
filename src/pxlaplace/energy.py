"""Discrete energies on the positive cone and their exact derivatives.

Everything is a finite sum over cells.  For a positive nodal field v and
constant r, the root field w = v^(1/r) is formed nodewise BEFORE the
difference quotient; with that ordering every 1D cell term
(a, b) -> |b^(1/r) - a^(1/r)|^p is convex on (0, inf)^2, so the discrete
cone energies are convex exactly, not just in the mesh limit.  Line
restrictions along segments in the cone and their derivatives are computed
in closed form, and the derivative formulas are the exact derivatives of
the discrete line values (the consistency tests rely on this).  A line
call takes one theta or a 1-D array of them: the combinations are formed
as one (k, n_nodes) stack, checked finite and tested for the cone from
one min() and one max() of it (``_require_cone``), and rooted at once.
The W and W_A rows are then taken in blocks of kb =
4096 // (dimension * n_cells) rows (``_row_blocks``), one gradient,
density and flux pass per block, whose temporaries stay within a budget
measured to page-fault no more often than single rows do: a 1D
n = 1024 or a 16 x 16 call takes 9 rows in blocks of 4, 4 and 1, a
64 x 64 call takes them one at a time as 1-D arrays.  Each row of a
block gets the products it gets alone, in the same order, and a block
is summed by one last-axis sum (``_row_sums``), which numpy takes
pairwise along each contiguous row as it sums that row alone, so a
value is bitwise the same whichever thetas share its call.  The J_hat
rows go one at a time.  A density is formed in place and reads the
mesh's vertex indexers, views on a 1D mesh (``grid.Mesh.vertex_cells``).

Reaction, absorption and saturating Kirchhoff terms extend the gradient
energies to the three Dirichlet problems; the Gateaux gradient assembles
the nodal derivative of each discrete energy for the descent solver.
``dirichlet_part`` and ``gateaux_gradient`` read the cell gradient the
field keeps (``grid._field_gradient``), so a field is differentiated once
however many energies, gradients and metrics are taken at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .anisotropy import AnisotropyModel, _dot, _flux_rows, _quad_form
from .exponents import ExponentField
from .grid import (Mesh, NodeField, _field_gradient, _gradient, _on_mesh,
                   _one_point, cell_average, constant_field, flux_loads,
                   integrate, scatter_add)

__all__ = [
    "ReactionTerm",
    "AbsorptionTerm",
    "KirchhoffTerm",
    "EnergyModel",
    "power_reaction",
    "source_reaction",
    "power_absorption",
    "saturating_kirchhoff",
    "potential_F",
    "potential_G",
    "M_hat",
    "kirchhoff_M",
    "W_functional",
    "W_A_functional",
    "dirichlet_part",
    "flux_pairing",
    "energy_E",
    "energy_E_hat",
    "energy_J",
    "energy_value",
    "phi_line",
    "phi_prime",
    "gateaux_gradient",
    "cone_delta",
]


# -- model terms ------------------------------------------------------------

@dataclass(frozen=True)
class ReactionTerm:
    """f(x, s) = h(x) s^(q(x)-1) for s >= 0, zero for s < 0.

    A source f(x, s) = h(x) is the power term with q = 1: given no q, the
    term takes the field of ones on h's mesh.
    """

    h: NodeField
    q: NodeField | None = None

    def __post_init__(self):
        if self.q is None:
            object.__setattr__(self, "q", constant_field(self.h.mesh, 1.0))


@dataclass(frozen=True)
class AbsorptionTerm:
    """g(x, s) = ell(x) s^(Q(x)-1) for s >= 0, zero for s < 0."""

    ell: NodeField
    Q: NodeField


@dataclass(frozen=True)
class KirchhoffTerm:
    """Saturating diffusion scale M(s) = m_inf - (m_inf - m0)/(1 + s).

    Continuous, M(0) = m0, monotone increasing to the finite limit m_inf.
    """

    m0: float
    m_inf: float


def power_reaction(h: NodeField, q: NodeField) -> ReactionTerm:
    if h.values.min() <= 0:
        raise ValueError("reaction coefficient h must be positive")
    if q.values.min() < 1:
        raise ValueError("reaction exponent q must be >= 1")
    return ReactionTerm(h, q)


def source_reaction(h: NodeField) -> ReactionTerm:
    if h.values.min() <= 0:
        raise ValueError("source h must be positive")
    return ReactionTerm(h)


def power_absorption(ell: NodeField, Q: NodeField) -> AbsorptionTerm:
    if ell.values.min() <= 0:
        raise ValueError("absorption coefficient must be positive")
    if Q.values.min() < 1:
        raise ValueError("absorption exponent must be >= 1")
    return AbsorptionTerm(ell, Q)


def saturating_kirchhoff(m0: float, m_inf: float) -> KirchhoffTerm:
    if not m0 > 0:
        raise ValueError("need M(0) = m0 > 0")
    if m_inf < m0:
        raise ValueError("need m_inf >= m0 (monotone increasing M)")
    return KirchhoffTerm(float(m0), float(m_inf))


@dataclass(frozen=True)
class EnergyModel:
    """Mesh + exponent data + optional terms selecting the functional.

    With no terms the model realizes the cone energies W / W_A; a reaction
    adds the problem-1 energy E, absorption the problem-2 energy E_hat,
    and a Kirchhoff term the nonlocal energy J.

    The quadrature-point data are averaged once, at construction, into
    read-only arrays: ``p_cells``, ``w_cells`` (the anisotropy's
    ``weights_at_cells()``: None for the isotropic flux, which has no
    weights; otherwise one row per weight, shape (dimension, n_cells), the
    layout of the cell gradients it multiplies) and ``potentials``, the
    (sign, h, q) cell data of the reaction (sign -1) and the absorption
    (sign +1), in that order.  The exponent and every field of the terms
    must live on ``mesh`` (``ValueError`` otherwise).
    """

    mesh: Mesh
    exponent: ExponentField
    anisotropy: AnisotropyModel | None = None
    reaction: ReactionTerm | None = None
    absorption: AbsorptionTerm | None = None
    kirchhoff: KirchhoffTerm | None = None
    p_cells: np.ndarray = field(init=False, repr=False, compare=False)
    w_cells: np.ndarray | None = field(init=False, repr=False, compare=False)
    potentials: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _on_mesh(self.mesh, self.exponent, what="exponent")
        if (self.anisotropy is not None
                and self.anisotropy.exponent is not self.exponent):
            raise ValueError("anisotropy built on a different exponent")
        if self.kirchhoff is not None and self.absorption is not None:
            raise ValueError("the nonlocal energy J has no absorption term")
        p = self.exponent.cellwise()
        w = (None if self.anisotropy is None
             else self.anisotropy.weights_at_cells())
        terms = []  # (sign, h, q) fields
        if self.reaction is not None:
            terms.append((-1.0, self.reaction.h, self.reaction.q))
        if self.absorption is not None:
            terms.append((1.0, self.absorption.ell, self.absorption.Q))
        _on_mesh(self.mesh, *[x for _, h, q in terms for x in (h, q)],
                 what="term field")
        object.__setattr__(self, "p_cells", p)
        object.__setattr__(self, "w_cells", w)
        object.__setattr__(self, "potentials", tuple(
            (sign, cell_average(h), cell_average(q))
            for sign, h, q in terms))


# -- potentials -------------------------------------------------------------

# Reaction and absorption share these: the absorption g(x, s) =
# ell s^(Q-1) is a power term with (h, q) = (ell, Q).

def _F_cells(u: np.ndarray, h: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Potential h u^q / q for u > 0, zero elsewhere.

    The cell arrays h and q broadcast against u, which may stack several
    fields; each step works in place on one array of u's shape.  At q = 1
    (a source) the power and the division are exact, so this is h u.
    """
    out = np.maximum(u, 0.0)
    out **= q
    out *= h
    out /= q
    return out


def _f_cells(u: np.ndarray, h: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Derivative of ``_F_cells`` in u, for positive h; h and q broadcast
    against u as they do there.

    h u^(q-1) is formed by one masked power, where u > 0 and, for q = 1,
    where u = 0 (0^0 = 1, the power rule read literally); elsewhere it
    stays zero, and zero times the positive h stays zero.
    """
    out = np.power(u, q - 1.0, out=np.zeros_like(u),
                   where=(u > 0) | ((u == 0) & (q == 1.0)))
    out *= h
    return out


def _potential(h: NodeField, q: NodeField, x, u: float) -> float:
    """``_F_cells`` of the one value u with h and q taken at the point x."""
    x = _one_point(h.mesh, x)
    h = np.atleast_1d(h.at(x))
    q = np.atleast_1d(q.at(x))
    return float(_F_cells(np.atleast_1d(float(u)), h, q)[0])


def potential_F(term: ReactionTerm, x, u: float) -> float:
    """F(x, u) = integral of f(x, s) over s in [0, u]; zero for u < 0."""
    return _potential(term.h, term.q, x, u)


def potential_G(term: AbsorptionTerm, x, u: float) -> float:
    """G(x, u) = integral of g(x, s) over s in [0, u]; zero for u < 0."""
    return _potential(term.ell, term.Q, x, u)


def M_hat(term: KirchhoffTerm, t: float) -> float:
    """Antiderivative of M; satisfies m0*t <= M_hat(t) <= m_inf*t.

    ``t`` may be a number or an array.
    """
    if np.min(t) < 0:
        raise ValueError("M_hat is defined for t >= 0")
    return term.m_inf * t - (term.m_inf - term.m0) * np.log1p(t)


def kirchhoff_M(term: KirchhoffTerm, s: float) -> float:
    return term.m_inf - (term.m_inf - term.m0) / (1.0 + s)


# -- cone energies ----------------------------------------------------------

def _require_cone(mesh: Mesh, values: np.ndarray, thetas=None):
    """Finite, and positive at interior nodes; zero trace allowed at the
    boundary.

    ``values`` is one field, or with ``thetas`` the (k, n_nodes) stack of
    the combinations at them, tested as one array; the cone error then
    names the first theta whose row leaves the cone.  Both tests read one
    min() and one max() of the values (either is NaN where a value is),
    so a value that is not finite is refused before any cone error, and
    the cone's masks are formed only when the min is <= 0.
    """
    if not values.size:
        return
    lo, hi = values.min(), values.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("field values must be finite")
    if lo <= 0:
        out = (values < 0) | ((values == 0) & ~mesh.boundary_mask)
        if out.any():
            raise ValueError(
                "field is outside the positive cone" if thetas is None else
                "combination leaves the cone at "
                f"theta={thetas[out.any(axis=1).argmax()]}")


# A line-row block's budget: 4,096 float64 values (32 KiB) in each of its
# (dimension, kb, n_cells) temporaries.  It was measured, not derived from
# one allocator threshold: glibc malloc hands freed memory back to the
# system above its mmap and trim thresholds, which move as a process runs
# and count every live temporary of a call, and that memory faults in
# again on the next call.  In fresh processes running the bench's check
# cases, blocks within this budget faulted no more often than rows alone
# on 1D n = 1,024 to 3,072 and on 16 x 16 and 32 x 32; budgets of 8,192
# and 16,384 values faulted 60 to 130 times a case, and ran up to 46%
# slower, on 1D n = 1,536 to 3,072 and (16,384) on 32 x 32.
_ROW_BLOCK = 4096


def _row_blocks(mesh: Mesh, k: int, weights) -> tuple:
    """Indexers of k line rows in blocks, and the flux weights shaped for
    the blocks' gradients.

    A block holds kb = _ROW_BLOCK // (dimension * n_cells) rows, a slice
    of the stack, with the weights as (dimension, 1, n_cells).  Where
    kb < 2 or there is one row, the rows go one at a time, each the 1-D
    row with the weights as given, so with the ops of that row alone.
    """
    kb = _ROW_BLOCK // (mesh.dimension * mesh.n_cells)
    if kb <= 1 or k <= 1:
        return range(k), weights
    return ([slice(i, i + kb) for i in range(0, k, kb)],
            None if weights is None else weights[:, None])


def _row_sums(s: np.ndarray) -> list:
    """The sum of s, one row, or of each row of s, a C-contiguous block,
    as floats.  A block takes one last-axis sum, which numpy takes
    pairwise along each contiguous row as it sums that row alone."""
    return [float(s.sum())] if s.ndim == 1 else s.sum(axis=-1).tolist()


def _cone_energies(model: EnergyModel, v: np.ndarray, weights) -> list:
    """The cone energy of each row of v, (k, n_nodes), whose caller has
    checked every row is in the cone.

    The rows are rooted as one stack and r/p and p/2 are formed once.
    They are taken in ``_row_blocks``; a block's gradients, densities and
    sums are those each of its rows gives alone, so every value is the
    one a single row gives.  A density is formed in place, |grad w|_W^2
    raised to p/2 and times r/p and the cell measures, and summed as
    ``integrate`` sums; as the products commute, the value is bitwise the
    one ``integrate`` gives.
    """
    mesh = model.mesh
    p = model.p_cells
    r_p, half_p = model.exponent.r / p, p / 2.0
    roots = v ** (1.0 / model.exponent.r)
    blocks, weights = _row_blocks(mesh, len(v), weights)
    out = []
    for b in blocks:
        s = _quad_form(weights, _gradient(mesh, roots[b]))
        s **= half_p
        s *= r_p
        s *= mesh.cell_measures
        out += _row_sums(s)
    return out


def _cone_energy(v: NodeField, model: EnergyModel, weights) -> float:
    """The cone energy of the one field v, refused off the model's mesh
    or outside the cone."""
    _on_mesh(model.mesh, v)
    _require_cone(v.mesh, v.values)
    return _cone_energies(model, v.values[None], weights)[0]


def W_functional(v: NodeField, model: EnergyModel) -> float:
    """Cone energy: integral of (r/p) |grad(v^(1/r))|^p, isotropic.

    v must live on the model's mesh (``ValueError`` otherwise)."""
    return _cone_energy(v, model, None)


def W_A_functional(v: NodeField, model: EnergyModel) -> float:
    """Anisotropic cone energy: integral of (r/p) A(x, grad(v^(1/r))).

    Coincides with ``W_functional`` (same arithmetic) for the isotropic
    family.  v must live on the model's mesh (``ValueError`` otherwise).
    """
    return _cone_energy(v, model, model.w_cells)


def dirichlet_part(u: NodeField, model: EnergyModel,
                   eps: float = 0.0) -> float:
    """Integral of (1/p) A(x, grad u), with optional flux regularization.

    The density is (s^(p/2) - eps^p)/p with s = eps^2 + |grad u|_A^2, whose
    xi-gradient is the regularized flux; the subtraction keeps the zero
    field at zero energy.  At eps = 0 it is A(x, grad u)/p.  ``energy_value``
    and the energies built on it take their field through here, so this
    is where a field off the model's mesh is refused (``ValueError``).
    """
    _on_mesh(model.mesh, u)
    p = model.p_cells
    s = eps * eps + _quad_form(model.w_cells, _field_gradient(u))
    s **= p / 2.0
    if eps:  # at eps = 0 the subtracted eps^p is an exact zero
        s -= eps ** p
    return integrate(s / p, model.mesh)


def _flux_pairings(model: EnergyModel, w: np.ndarray, s: np.ndarray,
                   weights) -> list:
    """``flux_pairing`` of each pair of rows of w and s, (k, n_nodes)
    each, taken in ``_row_blocks`` as ``_cone_energies`` takes its rows;
    every value is bitwise the one its pair gives alone."""
    mesh = model.mesh
    blocks, weights = _row_blocks(mesh, len(w), weights)
    out = []
    for b in blocks:
        flux = _flux_rows(model.p_cells, weights, _gradient(mesh, w[b]))
        d = _dot(flux, _gradient(mesh, s[b]))
        d *= mesh.cell_measures
        out += _row_sums(d)
    return out


def flux_pairing(model: EnergyModel, w: np.ndarray, s: np.ndarray,
                 weights) -> float:
    """Integral of a(x, grad w) . grad s for nodal values w and s.

    ``weights`` are the cell weights of the anisotropic flux, or None for
    the isotropic one.
    """
    mesh = model.mesh
    if not np.shape(w) == np.shape(s) == (mesh.n_nodes,):
        raise ValueError(f"got {np.shape(w)} and {np.shape(s)} values for "
                         f"{mesh.n_nodes} nodes")
    flux = _flux_rows(model.p_cells, weights, _gradient(mesh, w))
    return integrate(_dot(flux, _gradient(mesh, s)), mesh)


def _plus_F(base: float, u: NodeField, potentials) -> float:
    """base plus sign times the integral of each potential, in order."""
    uc = cell_average(u)
    for sign, h, q in potentials:
        base += sign * integrate(_F_cells(uc, h, q), u.mesh)
    return base


def energy_E(u: NodeField, model: EnergyModel, eps: float = 0.0) -> float:
    """Problem-1 energy: gradient part minus the reaction potential."""
    if model.reaction is None:
        raise ValueError("energy_E needs a reaction term")
    return _plus_F(dirichlet_part(u, model, eps), u, model.potentials[:1])


def energy_E_hat(u: NodeField, model: EnergyModel, eps: float = 0.0) -> float:
    """Problem-2 energy: energy_E plus the absorption potential."""
    if model.absorption is None or model.reaction is None:
        raise ValueError("energy_E_hat needs reaction and absorption terms")
    return energy_value(u, model, eps)


def energy_J(u: NodeField, model: EnergyModel, eps: float = 0.0) -> float:
    """Nonlocal energy: M_hat of the gradient part, minus the potential."""
    if model.kirchhoff is None or model.reaction is None:
        raise ValueError("energy_J needs reaction and Kirchhoff terms")
    return energy_value(u, model, eps)


def energy_value(u: NodeField, model: EnergyModel, eps: float = 0.0) -> float:
    """The energy the model realizes, composed from its terms.

    The Dirichlet part, under M_hat when a Kirchhoff term is present, plus
    sign times each potential of ``model.potentials``: minus the reaction,
    plus the absorption.  With no terms this is the Dirichlet part alone;
    with a reaction it is E, with an absorption too E_hat, and with a
    Kirchhoff term J.
    """
    d = dirichlet_part(u, model, eps)
    if model.kirchhoff is not None:
        d = M_hat(model.kirchhoff, d)
    return _plus_F(d, u, model.potentials)


# -- line restrictions on the cone ------------------------------------------

def cone_delta(v1: NodeField, v2: NodeField) -> float:
    """Half-width delta of the admissible parameter interval (-delta, 1+delta).

    Computed from nodal values as half the smallest ratio
    min(v1, v2)/|v2 - v1|, capped at 0.25; the convex combination stays in
    the cone for all theta in (-delta, 1 + delta).  Both fields must live
    on one mesh (``ValueError`` otherwise).
    """
    _on_mesh(v1.mesh, v2)
    a, b = v1.values, v2.values
    diff = np.abs(b - a)
    lo = np.minimum(a, b)
    mask = diff > 0
    if not mask.any():
        return 0.25
    return float(min(0.25, 0.5 * np.min(lo[mask] / diff[mask])))


def _combinations(v1: NodeField, v2: NodeField, theta,
                  mesh: Mesh) -> np.ndarray:
    """Rows (1-theta) v1 + theta v2, one per theta, formed as one stack,
    checked finite and tested for the cone at once by ``_require_cone``.
    Both fields must live on ``mesh``, the model's."""
    _on_mesh(mesh, v1, v2)
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    if thetas.ndim != 1:
        raise ValueError("theta must be a number or a 1-D array")
    t = thetas[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        v = (1.0 - t) * v1.values + t * v2.values
    _require_cone(mesh, v, thetas)
    return v


def _per_theta(theta, values: list):
    """A float for a scalar theta, else an array of one value per theta."""
    return float(values[0]) if np.ndim(theta) == 0 else np.array(values)


def _line_weights(model: EnergyModel, kind: str):
    """Flux weights of the line functional ``kind``: None for "W", the
    model's cell weights for "W_A" and "J_hat".  An unknown kind, and
    "J_hat" on a model without reaction and Kirchhoff terms, are refused
    here, before a line call does any work."""
    if kind == "W":
        return None
    if kind == "J_hat" and (model.kirchhoff is None or model.reaction is None):
        raise ValueError("J_hat needs reaction and Kirchhoff terms")
    if kind in ("W_A", "J_hat"):
        return model.w_cells
    raise ValueError(f"unknown line functional {kind!r}")


def phi_line(v1: NodeField, v2: NodeField, theta, model: EnergyModel,
             kind: str = "W"):
    """Selected functional at (1-theta) v1 + theta v2.

    kind "W" / "W_A": the cone energies; kind "J_hat": the nonlocal energy
    evaluated at the r-th root of the combination.  ``theta`` is a number,
    giving a float, or a 1-D array, giving an array with the value at each
    theta; each value is bitwise the one its theta gives alone, and each
    combination is tested for the cone once.
    """
    weights = _line_weights(model, kind)
    v = _combinations(v1, v2, theta, model.mesh)
    if kind == "J_hat":
        return _per_theta(theta, [energy_value(NodeField(model.mesh, w), model)
                                  for w in v ** (1.0 / model.exponent.r)])
    return _per_theta(theta, _cone_energies(model, v, weights))


def _quotient(diff: np.ndarray, v: np.ndarray, r: float) -> np.ndarray:
    """Rowwise diff / v^(1 - 1/r) for diff = v2 - v1 and the combination
    rows v; zero where v = v1 = v2 = 0."""
    if r == 1.0:
        return np.broadcast_to(diff, v.shape)
    pos = v > 0
    if np.any(~pos & (diff != 0)):
        raise ValueError("quotient undefined: v vanishes where v1 != v2")
    return np.divide(diff, v ** (1.0 - 1.0 / r), out=np.zeros_like(v),
                     where=pos)


def phi_prime(v1: NodeField, v2: NodeField, theta, model: EnergyModel,
              kind: str = "W"):
    """Exact derivative in theta of ``phi_line`` at the same arguments.

    Flux form: sum over cells of a(x, grad w) . grad s times measure,
    where w is the root field of the combination and s the nodewise
    quotient (v2 - v1)/v^(1-1/r).  For kind "J_hat" the flux part is
    scaled by M(dirichlet part)/r and the reaction contributes
    -(1/r) sum f(x, w) s.  ``theta`` is a number or a 1-D array, as for
    ``phi_line``.
    """
    weights = _line_weights(model, kind)
    mesh = model.mesh
    v = _combinations(v1, v2, theta, mesh)
    r = model.exponent.r
    s_rows = _quotient(v2.values - v1.values, v, r)
    roots = v ** (1.0 / r)
    out = _flux_pairings(model, roots, s_rows, weights)
    if kind != "J_hat":
        return _per_theta(theta, out)
    for i, (w_nodal, s) in enumerate(zip(roots, s_rows)):  # row by row
        w = NodeField(mesh, w_nodal)
        m = kirchhoff_M(model.kirchhoff, dirichlet_part(w, model))
        out[i] = m * out[i] / r
        wc, sc = cell_average(w), cell_average(NodeField(mesh, s))
        for sign, h, q in model.potentials:
            out[i] += sign * integrate(_f_cells(wc, h, q) * sc, mesh) / r
    return _per_theta(theta, out)


# -- Gateaux gradient for the solver ----------------------------------------

def gateaux_gradient(model: EnergyModel, u: NodeField,
                     eps: float = 0.0) -> NodeField:
    """Nodal derivative of the discrete energy; boundary entries are zero.

    The pairing of the returned field with any nodal test field equals the
    directional derivative of the discrete energy at u.  Assembled from
    per-cell flux contributions plus reaction/absorption terms; a present
    Kirchhoff term scales the flux part by M(dirichlet part).  The field
    must live on the model's mesh (``ValueError`` otherwise).
    """
    mesh = model.mesh
    _on_mesh(mesh, u)
    flux = _flux_rows(model.p_cells, model.w_cells, _field_gradient(u), eps)
    if model.kirchhoff is not None:
        flux = flux * kirchhoff_M(model.kirchhoff, dirichlet_part(u, model, eps))

    contrib = flux_loads(mesh, flux)
    uc = cell_average(u)
    for sign, h, q in model.potentials:
        contrib += (sign * _f_cells(uc, h, q) * mesh.cell_measures
                    / (mesh.dimension + 1))[:, None]

    g = scatter_add(mesh, contrib)
    g[mesh.boundary_mask] = 0.0
    return NodeField(mesh, g)
