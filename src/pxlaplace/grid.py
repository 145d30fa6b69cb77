"""Structured meshes with nodal fields, per-cell gradients and one-point quadrature.

The domain is a bounded interval (1D) or an axis-aligned rectangle (2D,
triangulated by splitting every quad along the same diagonal).  Every
functional in the package is a finite sum over cells: fields live at nodes,
gradients are the (constant) gradients of the piecewise-linear interpolant,
and integrals use one quadrature point per cell (segment midpoint, triangle
centroid).  Node ordering is lexicographic by coordinate, so all reductions
are reproducible.

The kernels work vertex by vertex.  Each mesh keeps vertex-major,
read-only copies of its cell table and basis gradients, built once with
the mesh: per cell vertex, one contiguous array of node indices and one
contiguous array per gradient component.  A cell gradient is then the sum
over vertices of basis gradient times vertex value, and a cell average the
sum of the vertex values divided once by their count; both add in the same
order as the dense per-cell formulas, so their results are bitwise the
same.  Cell vectors stay component-major, shape (dimension, n_cells), from
the gradient kernel ``_gradient`` through every flux, weight and reduction
that reads them; only the public ``cell_gradient`` hands out the
transposed (n_cells, dimension) view.  A field keeps its cell gradient
and its cell average, each computed on first use by ``_field_gradient``
and ``cell_average``, so every energy, gradient and metric at one field
reads the same arrays.

The interior-node matrices (the Newton metric, the r = 2 stiffness and
mass) are given as local cell matrices and share one assembly plan per
mesh, built on first use and kept with the mesh: ``assemble`` sums them
into its fixed CSR pattern, and ``_band`` sums them into LAPACK's lower
band storage through the plan's band map, one slot per cell-matrix
entry.  ``assemble`` imports ``scipy.sparse`` on its first call, so a
mesh, a field, an energy or a band costs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "NodeField",
    "build_interval",
    "build_rectangle",
    "cell_gradient",
    "flux_loads",
    "scatter_add",
    "interior_plan",
    "assemble",
    "integrate",
    "interpolate",
    "cell_average",
    "constant_field",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous copy of ``a``, private to its holder."""
    a = np.array(a, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Mesh:
    """Immutable simplicial mesh of an interval or rectangle.

    The mesh holds private read-only copies of its six array fields, so
    later writes to the caller's arrays do not reach it.  The vertex-major
    copies and the interior index are built once, with the mesh.  Its
    interior assembly plan is built on first use by ``interior_plan`` and
    kept with the mesh.

    Attributes:
        dimension: 1 or 2.
        bounds: (a, b) in 1D, (ax, bx, ay, by) in 2D.
        resolution: (n_cells,) in 1D, (nx, ny) quad counts in 2D.
        nodes: (n_nodes, dimension) coordinates, lexicographic order.
        cells: (n_cells, dimension+1) node indices per cell.
        boundary_mask: True exactly at nodes on the domain boundary.
        cell_measures: length/area per cell, all positive.
        quad_points: one point per cell (midpoint / centroid).
        shape_grads: (n_cells, dimension+1, dimension) gradients of the
            nodal P1 basis restricted to each cell.
        vertex_cells: (dimension+1, n_cells) copy of ``cells``, one row
            per cell vertex.
        vertex_grads: (dimension+1, dimension, n_cells) copy of
            ``shape_grads``, one row per vertex and gradient component.
        interior: indices of the interior (non-boundary) nodes, in
            increasing order.
    """

    dimension: int
    bounds: tuple
    resolution: tuple
    nodes: np.ndarray
    cells: np.ndarray
    boundary_mask: np.ndarray
    cell_measures: np.ndarray
    quad_points: np.ndarray
    shape_grads: np.ndarray
    vertex_cells: np.ndarray = field(init=False, repr=False, compare=False)
    vertex_grads: np.ndarray = field(init=False, repr=False, compare=False)
    interior: np.ndarray = field(init=False, repr=False, compare=False)
    _plan: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        for name in ("nodes", "cells", "boundary_mask", "cell_measures",
                     "quad_points", "shape_grads"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        object.__setattr__(self, "vertex_cells", _readonly(self.cells.T))
        object.__setattr__(self, "vertex_grads",
                           _readonly(self.shape_grads.transpose(1, 2, 0)))
        object.__setattr__(self, "interior",
                           _readonly(np.flatnonzero(~self.boundary_mask)))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def total_measure(self) -> float:
        return float(self.cell_measures.sum())


@dataclass(frozen=True)
class NodeField:
    """One finite scalar per mesh node.

    The field holds a private read-only copy of the values it is given:
    the caller's array stays writable, and later writes to it do not
    reach the field.
    Its cell averages and its (dimension, n_cells) P1 cell gradient are
    computed on first use by ``cell_average`` and ``_field_gradient`` and
    kept read-only with the field.  Two fields are equal when they share
    the mesh object and have equal values.
    """

    mesh: Mesh
    values: np.ndarray
    _cell_values: np.ndarray | None = field(default=None, init=False,
                                            repr=False, compare=False)
    _cell_grad: np.ndarray | None = field(default=None, init=False,
                                          repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"field has {v.shape} values, mesh has {self.mesh.n_nodes} nodes"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    def __eq__(self, other):
        if not isinstance(other, NodeField):
            return NotImplemented
        return self.mesh is other.mesh and np.array_equal(self.values,
                                                          other.values)

    def with_values(self, values) -> "NodeField":
        return NodeField(self.mesh, values)

    def at(self, points) -> np.ndarray:
        """Evaluate the piecewise-linear interpolant at arbitrary points."""
        return _interp_p1(self, points)


def _on_mesh(mesh: Mesh, *fields, what: str = "field"):
    """Refuse any of ``fields`` not sampled on ``mesh`` itself.

    Meshes are compared by identity; the ``ValueError`` reads "<what>
    sampled on a different mesh".  This is the package's one mesh check:
    every entry point that takes a field calls it before reading values.
    """
    for f in fields:
        if f.mesh is not mesh:
            raise ValueError(f"{what} sampled on a different mesh")


def _cell_count(n, name: str) -> int:
    """A cell count given as an integral number (16 or 16.0, not 16.9)."""
    if not float(n).is_integer():
        raise ValueError(f"{name} must be an integer, got {n!r}")
    return int(n)


def build_interval(a: float, b: float, n_cells: int) -> Mesh:
    """Uniform mesh of (a, b) with ``n_cells`` segments.

    Endpoints are flagged as boundary nodes.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"degenerate interval: a={a} must be < b={b}")
    n_cells = _cell_count(n_cells, "n_cells")
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")

    xs = np.linspace(a, b, n_cells + 1)
    nodes = xs[:, None]
    cells = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    measures = np.diff(xs)
    boundary = np.zeros(n_cells + 1, dtype=bool)
    boundary[[0, -1]] = True
    quad = 0.5 * (xs[:-1] + xs[1:])[:, None]
    inv_h = 1.0 / measures
    shape_grads = np.stack([-inv_h[:, None], inv_h[:, None]], axis=1)

    mesh = Mesh(1, (a, b), (n_cells,), nodes, cells, boundary, measures, quad,
                shape_grads)
    _check_measures(mesh, b - a)
    return mesh


def build_rectangle(ax: float, bx: float, ay: float, by: float,
                    nx: int, ny: int) -> Mesh:
    """Uniform triangulation of (ax,bx) x (ay,by): nx*ny quads, two
    triangles each, split along the same diagonal orientation."""
    ax, bx, ay, by = map(float, (ax, bx, ay, by))
    if not (ax < bx and ay < by):
        raise ValueError("degenerate rectangle: need ax < bx and ay < by")
    nx, ny = _cell_count(nx, "nx"), _cell_count(ny, "ny")
    if nx < 2 or ny < 2:
        raise ValueError(f"nx, ny must be >= 2, got {nx}, {ny}")

    xs = np.linspace(ax, bx, nx + 1)
    ys = np.linspace(ay, by, ny + 1)
    # node (i, j) -> index i*(ny+1)+j: lexicographic by (x, y)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i * (ny + 1) + j

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    n00, n10 = nid(ii, jj), nid(ii + 1, jj)
    n01, n11 = nid(ii, jj + 1), nid(ii + 1, jj + 1)
    # diagonal from (i,j) to (i+1,j+1) in every quad
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    cells = np.vstack([np.column_stack([lower, upper]).reshape(-1, 3)])

    boundary = np.zeros(nodes.shape[0], dtype=bool)
    gi, gj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="ij")
    edge = (gi == 0) | (gi == nx) | (gj == 0) | (gj == ny)
    boundary[nid(gi[edge], gj[edge])] = True

    p0 = nodes[cells[:, 0]]
    p1 = nodes[cells[:, 1]]
    p2 = nodes[cells[:, 2]]
    e1, e2 = p1 - p0, p2 - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    measures = 0.5 * np.abs(det)
    quad = (p0 + p1 + p2) / 3.0

    # gradients of barycentric coordinates: [g1; g2] = inv([e1; e2])^T
    inv_det = 1.0 / det
    g1 = np.column_stack([e2[:, 1], -e2[:, 0]]) * inv_det[:, None]
    g2 = np.column_stack([-e1[:, 1], e1[:, 0]]) * inv_det[:, None]
    shape_grads = np.stack([-(g1 + g2), g1, g2], axis=1)

    mesh = Mesh(2, (ax, bx, ay, by), (nx, ny), nodes, cells, boundary,
                measures, quad, shape_grads)
    _check_measures(mesh, (bx - ax) * (by - ay))
    return mesh


def _check_measures(mesh: Mesh, volume: float):
    if np.any(mesh.cell_measures <= 0):
        raise ValueError("mesh has a cell with nonpositive measure")
    if abs(mesh.total_measure - volume) > 1e-12 * abs(volume):
        raise ValueError("cell measures do not sum to the domain measure")


def _gradient(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    """(dimension, n_cells) gradients of the P1 interpolant of nodal values.

    The one gradient kernel: every energy, flux, metric and checker in the
    package differentiates through it, and reads its result in this
    component-major layout.  In 1D it is the difference quotient per
    segment; it is exact for globally affine fields and linear in the
    values.  Summed vertex by vertex in ``vertex_grads`` layout.
    """
    G, C = mesh.vertex_grads, mesh.vertex_cells
    out = G[0] * nodal[C[0]]
    for g, c in zip(G[1:], C[1:]):
        out += g * nodal[c]
    return out


def _field_gradient(u: NodeField) -> np.ndarray:
    """The (dimension, n_cells) ``_gradient`` of a field's values.

    Computed on the first call for a field, kept with it and returned
    read-only.
    """
    if u._cell_grad is None:
        out = _gradient(u.mesh, u.values)
        out.flags.writeable = False
        object.__setattr__(u, "_cell_grad", out)
    return u._cell_grad


def cell_gradient(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    """(n_cells, dimension) gradients of the P1 interpolant of nodal values:
    the transposed view of ``_gradient``'s result, one row per cell."""
    return _gradient(mesh, nodal).T


def _basis_pairing(mesh: Mesh, vec: np.ndarray) -> np.ndarray:
    """(n_cells, dimension+1) dot products of a component-major cell vector
    (dimension, n_cells) with the gradient of each cell vertex's basis
    function, summed over the components in order."""
    return np.einsum("dc,vdc->cv", vec, mesh.vertex_grads)


def flux_loads(mesh: Mesh, flux: np.ndarray) -> np.ndarray:
    """(n_cells, dimension+1) integrals of a cellwise constant flux, given
    component-major as (dimension, n_cells), against the gradient of each
    cell vertex's basis function."""
    return _basis_pairing(mesh, flux * mesh.cell_measures)


def scatter_add(mesh: Mesh, contrib: np.ndarray) -> np.ndarray:
    """Nodal sums of per-cell, per-vertex contributions.

    ``contrib`` has shape (n_cells, dimension+1), or (n_cells, 1) for one
    value shared by a cell's vertices; cells are added in their fixed order,
    each node's sum starting from zero.
    """
    if contrib.shape != mesh.cells.shape:
        contrib = np.broadcast_to(contrib, mesh.cells.shape)
    return np.bincount(mesh.cells.ravel(), contrib.ravel(), mesh.n_nodes)


def interior_plan(mesh: Mesh) -> tuple:
    """Assembly plan of the interior-node matrix.

    Built on the first call for a mesh, kept with it and returned as
    read-only arrays: the per-cell products G_i . G_j, the CSR ``indices``
    and ``indptr`` (the pattern is symmetric, so they are also the CSC
    ones), the slot in ``data`` of every cell entry (entries on a
    boundary row or column get the slot one past the end), the bandwidth
    bw (a 0-d array, the largest row - col of the pattern) and the band
    map: for every cell entry its flat slot in LAPACK's lower band
    storage, a Fortran-ordered (bw + 1, n) array holding entry (i, j) at
    (i - j, j), with every entry above the diagonal or on a boundary row
    or column sent to one spare slot past the end.  The lexicographic
    numbering of the structured grid keeps bw at 1 in 1D and ny in 2D.
    """
    if mesh._plan is None:
        nloc = mesh.dimension + 1
        n = mesh.interior.size
        idx = np.full(mesh.n_nodes, -1)
        idx[mesh.interior] = np.arange(n)
        rows = np.repeat(idx[mesh.cells], nloc, axis=1).ravel()
        cols = np.tile(idx[mesh.cells], (1, nloc)).ravel()
        keys = np.where((rows >= 0) & (cols >= 0), rows * n + cols, n * n)
        keys, slots = np.unique(keys, return_inverse=True)
        keys = keys[keys < n * n]
        indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.intc)
        GG = np.einsum("cid,cjd->cij", mesh.shape_grads, mesh.shape_grads)
        rows, cols = np.divmod(keys, n)
        bw = (rows - cols).max()
        spare = (bw + 1) * n
        band = np.where(rows >= cols, cols * (bw + 1) + rows - cols, spare)
        plan = (GG, cols.astype(np.intc), indptr, slots, bw,
                np.append(band, spare)[slots])
        object.__setattr__(mesh, "_plan", tuple(map(_readonly, plan)))
    return mesh._plan


def assemble(mesh: Mesh, loc: np.ndarray):
    """Interior-node ``scipy.sparse.csr_array`` summed from the local
    matrices ``loc`` (n_cells, d+1, d+1) into the mesh's fixed pattern, in
    cell order."""
    import scipy.sparse as sp
    indices, indptr, slots = interior_plan(mesh)[1:4]
    data = np.bincount(slots, loc.ravel(), indptr[-1] + 1)[:-1]
    n = indptr.size - 1
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def _band(mesh: Mesh, loc: np.ndarray) -> np.ndarray:
    """LAPACK's lower band storage, a Fortran-ordered (bw + 1, n) array, of
    the interior-node matrix summed from the local matrices ``loc``
    (n_cells, d+1, d+1): one ``np.bincount`` through the plan's band map,
    in cell order, so each entry is the sum ``assemble`` forms."""
    bw, band = interior_plan(mesh)[4:]
    n = mesh.interior.size
    ab = np.bincount(band, loc.ravel(), (bw + 1) * n + 1)
    return ab[:-1].reshape(n, bw + 1).T


def cell_average(u: NodeField) -> np.ndarray:
    """Vertex average of a nodal field per cell (its quad-point value).

    Computed on the first call for a field, kept with it and returned
    read-only.
    """
    if u._cell_values is None:
        C, v = u.mesh.vertex_cells, u.values
        out = v[C[0]] + v[C[1]]
        for c in C[2:]:
            out += v[c]
        out /= len(C)
        out.flags.writeable = False
        object.__setattr__(u, "_cell_values", out)
    return u._cell_values


def integrate(values, mesh: Mesh | None = None) -> float:
    """Integral over the domain: sum of quad-point values times measures.

    The one cell quadrature: every energy, pairing and modular in the
    package integrates through it.  Accepts per-cell scalars or a
    NodeField (averaged to quad points first).  Cells are reduced in
    their fixed construction order.
    """
    if isinstance(values, NodeField):
        mesh = values.mesh
        cellvals = cell_average(values)
    else:
        if mesh is None:
            raise ValueError("integrating raw values requires a mesh")
        cellvals = np.asarray(values, dtype=float)
        if cellvals.shape != (mesh.n_cells,):
            raise ValueError(
                f"got {cellvals.shape} values for {mesh.n_cells} cells"
            )
    return float(np.sum(cellvals * mesh.cell_measures))


def interpolate(mesh: Mesh, f) -> NodeField:
    """Sample an expression at the mesh nodes.

    ``f`` may be a callable (of x, or of x and y in 2D), a parsed or
    textual scalar expression over {x, y}, or a number.  An expression
    that uses y on a 1D mesh raises ``ValueError`` when it is evaluated,
    and so does a bool, which is not a number here.
    """
    from . import expressions

    if isinstance(f, bool):
        raise ValueError(f"expected a number or an expression, got {f!r}")
    if isinstance(f, str):
        f = expressions.parse_expr(f)
    x = mesh.nodes[:, 0]
    if isinstance(f, expressions.ScalarExpr):
        y = mesh.nodes[:, 1] if mesh.dimension == 2 else None
        vals = f.evaluate(x, y)
        return NodeField(mesh, np.broadcast_to(vals, x.shape).copy())
    if callable(f):
        vals = f(x) if mesh.dimension == 1 else f(x, mesh.nodes[:, 1])
        return NodeField(mesh, np.broadcast_to(np.asarray(vals, float), x.shape).copy())
    return constant_field(mesh, float(f))


def constant_field(mesh: Mesh, c: float) -> NodeField:
    return NodeField(mesh, np.full(mesh.n_nodes, float(c)))


def _interp_p1(u: NodeField, points) -> np.ndarray:
    """P1 interpolation of a nodal field at arbitrary points.

    Relies on the structured layout: meshes are always uniform interval or
    rectangle grids.  At cell quadrature points this coincides with the
    vertex average used by ``integrate``.
    """
    mesh = u.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != mesh.dimension:
        pts = pts.reshape(-1, mesh.dimension)
    if mesh.dimension == 1:
        out = np.interp(pts[:, 0], mesh.nodes[:, 0], u.values)
        return out if out.size > 1 else float(out[0])

    ax, bx, ay, by = mesh.bounds
    nx, ny = mesh.resolution
    hx, hy = (bx - ax) / nx, (by - ay) / ny
    fi = np.clip((pts[:, 0] - ax) / hx, 0.0, nx * (1 - 1e-16))
    fj = np.clip((pts[:, 1] - ay) / hy, 0.0, ny * (1 - 1e-16))
    i, j = fi.astype(int), fj.astype(int)
    xi, eta = fi - i, fj - j

    def nid(i, j):
        return i * (ny + 1) + j

    v = u.values
    u00, u10 = v[nid(i, j)], v[nid(i + 1, j)]
    u01, u11 = v[nid(i, j + 1)], v[nid(i + 1, j + 1)]
    low = u00 * (1 - xi) + u10 * (xi - eta) + u11 * eta
    upp = u00 * (1 - eta) + u11 * xi + u01 * (eta - xi)
    out = np.where(xi >= eta, low, upp)
    return out if out.size > 1 else float(out[0])
