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
same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "NodeField",
    "CellVectorField",
    "build_interval",
    "build_rectangle",
    "gradient",
    "cell_gradient",
    "flux_loads",
    "scatter_add",
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
    later writes to the caller's arrays do not reach it.

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

    def __post_init__(self):
        for name in ("nodes", "cells", "boundary_mask", "cell_measures",
                     "quad_points", "shape_grads"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        object.__setattr__(self, "vertex_cells", _readonly(self.cells.T))
        object.__setattr__(self, "vertex_grads",
                           _readonly(self.shape_grads.transpose(1, 2, 0)))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def interior(self) -> np.ndarray:
        """Indices of interior (non-boundary) nodes."""
        return np.flatnonzero(~self.boundary_mask)

    @property
    def total_measure(self) -> float:
        return float(self.cell_measures.sum())


@dataclass(frozen=True)
class NodeField:
    """One finite scalar per mesh node.

    The field holds a private read-only copy of the values it is given:
    the caller's array stays writable, and later writes to it do not
    reach the field.
    Its cell averages are computed on first use by ``cell_average`` and
    kept with the field.  Two fields are equal when they share the mesh
    object and have equal values.
    """

    mesh: Mesh
    values: np.ndarray
    _cell_values: np.ndarray | None = field(default=None, init=False,
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


@dataclass(frozen=True)
class CellVectorField:
    """One vector per cell, the value at the cell's quadrature point."""

    mesh: Mesh
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.shape != (self.mesh.n_cells, self.mesh.dimension):
            raise ValueError(
                f"vector field shape {v.shape} does not match "
                f"({self.mesh.n_cells}, {self.mesh.dimension})"
            )
        object.__setattr__(self, "vectors", _readonly(v))


def build_interval(a: float, b: float, n_cells: int) -> Mesh:
    """Uniform mesh of (a, b) with ``n_cells`` segments.

    Endpoints are flagged as boundary nodes.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"degenerate interval: a={a} must be < b={b}")
    n_cells = int(n_cells)
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
    nx, ny = int(nx), int(ny)
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


def gradient(u: NodeField) -> CellVectorField:
    """Cellwise gradient of the P1 interpolant of ``u``.

    In 1D this is the forward difference quotient per segment.  Exact for
    globally affine fields and linear in ``u``.
    """
    return CellVectorField(u.mesh, cell_gradient(u.mesh, u.values))


def cell_gradient(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    """(n_cells, dimension) gradients of the P1 interpolant of nodal values.

    Summed vertex by vertex in ``vertex_grads`` layout, so the result is
    the transpose of a (dimension, n_cells) array.
    """
    G, C = mesh.vertex_grads, mesh.vertex_cells
    out = G[0] * nodal[C[0]]
    for g, c in zip(G[1:], C[1:]):
        out += g * nodal[c]
    return out.T


def flux_loads(mesh: Mesh, flux: np.ndarray) -> np.ndarray:
    """(n_cells, dimension+1) integrals of a cellwise constant flux against
    the gradient of each cell vertex's basis function."""
    return np.einsum("cd,cvd->cv", flux * mesh.cell_measures[:, None],
                     mesh.shape_grads)


def scatter_add(mesh: Mesh, contrib: np.ndarray) -> np.ndarray:
    """Nodal sums of per-cell, per-vertex contributions.

    ``contrib`` has shape (n_cells, dimension+1), or (n_cells, 1) for one
    value shared by a cell's vertices; cells are added in their fixed order,
    each node's sum starting from zero.
    """
    weights = np.broadcast_to(contrib, mesh.cells.shape).ravel()
    return np.bincount(mesh.cells.ravel(), weights, mesh.n_nodes)


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

    Accepts per-cell scalars or a NodeField (averaged to quad points
    first).  Cells are reduced in their fixed construction order.
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
    textual scalar expression over {x, y}, or a number.
    """
    from . import expressions

    if isinstance(f, str):
        f = expressions.parse_expr(f)
    x = mesh.nodes[:, 0]
    if isinstance(f, expressions.ScalarExpr):
        if mesh.dimension == 1 and "y" in f.variables():
            raise ValueError("expression uses 'y' on a 1D mesh")
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
