"""Structured meshes with nodal fields, per-cell gradients and one-point quadrature.

The domain is a bounded interval (1D) or an axis-aligned rectangle (2D,
triangulated by splitting every quad along the same diagonal).  Every
functional in the package is a finite sum over cells: fields live at nodes,
gradients are the (constant) gradients of the piecewise-linear interpolant,
and integrals use one quadrature point per cell (segment midpoint, triangle
centroid).  Node ordering is lexicographic by coordinate, so all reductions
are reproducible.

A mesh is its box and its resolution.  It checks them, lays out the
uniform grid's nodes and cells itself and derives the rest from them:
the boundary nodes on the box, and per cell the measure, centroid and
basis gradients, with one simplex rule for d = 1 and 2.  So every mesh
is the uniform grid of its box, which point evaluation and the
Hopf diagnostic read by index; the builders ``build_interval`` and
``build_rectangle`` are one ``Mesh`` call each.

Point evaluation (``NodeField.at``, through ``_interp_p1``) is one P1
rule for d = 1 and 2: the grid coordinate of a point picks its cell,
the last cell holding the upper edge, and the point's simplex is the
mesh's own diagonal split, Freudenthal's, walked along the axes in
decreasing local coordinate.  It evaluates any batch of points at once;
the single-point functions of the package check through ``_one_point``
that they were given exactly one.

The kernels work vertex by vertex.  Each mesh keeps, built once with the
mesh, one node indexer per cell vertex and a vertex-major, read-only copy
of its basis gradients, one contiguous array per vertex and gradient
component.  An indexer is a slice where that vertex's nodes are a
contiguous range (both vertices of a 1D mesh), so reading through it is a
view, and a read-only index array otherwise (every 2D vertex).  A cell
gradient is then the sum over vertices of basis gradient times vertex
value, and a cell average the sum of the vertex values divided once by
their count; both add in the same order as the dense per-cell formulas, so
their results are bitwise the same.  Cell vectors stay component-major,
shape (dimension, n_cells), from the gradient kernel ``_gradient`` through
every flux, weight and reduction that reads them; only the public
``cell_gradient`` hands out the transposed (n_cells, dimension) view.  A
field keeps its cell gradient and its cell average, each computed on first
use by ``_field_gradient`` and ``cell_average``, so every energy, gradient
and metric at one field reads the same arrays.

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


def _indexer(nodes: np.ndarray):
    """``slice(a, a + len(nodes))`` if ``nodes`` is the range a, a + 1,
    ..., else a read-only copy of ``nodes``: either selects the same
    values."""
    a = int(nodes[0])
    if np.array_equal(nodes, np.arange(a, a + nodes.size)):
        return slice(a, a + nodes.size)
    return _readonly(nodes)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable uniform simplicial mesh of an interval or rectangle.

    A mesh is given its box and its resolution, and derives the rest once,
    with the mesh.  It refuses a box that is not finite and ordered ("a <
    b" per axis), a count that is not an integer of at least 2, and a
    grid whose cells do not all have a finite positive measure summing to
    the box's.  It lays out the nodes lexicographically by coordinate
    (``np.linspace`` per axis), the 1D segments (i, i + 1) and, per quad
    in i-major order, the lower triangle (n00, n10, n11) and then the
    upper one (n00, n11, n01), all split along the same diagonal.  Per
    cell it derives the measure, the centroid and the basis gradients by
    one simplex rule for d = 1 and 2: with E the (d, d) matrix of edges
    e_k = P_k - P_0, the gradients of vertices 1..d are the cofactors of
    E times 1/det E, vertex 0's is minus their sum, the measure is
    |det E|/d! and the centroid the vertex sum over d + 1.  The boundary
    nodes are those with a coordinate on the box.  So
    ``dataclasses.replace(mesh, bounds=...)`` lays out and derives them
    all again, and no mesh is other than the uniform grid of its box.

    The arrays are read-only and private to the mesh.  Meshes compare
    and hash by identity.  The interior assembly plan is built on first
    use by ``interior_plan`` and kept with the mesh.

    Attributes:
        bounds: (a, b) in 1D, (ax, bx, ay, by) in 2D, as floats.
        resolution: (n_cells,) in 1D, (nx, ny) quad counts in 2D, as ints.
        nodes: (n_nodes, dimension) coordinates, lexicographic order.
        cells: (n_cells, dimension+1) node indices per cell.
        dimension: 1 or 2.
        boundary_mask: True exactly at nodes on the box's boundary.
        cell_measures: length/area per cell, all positive.
        quad_points: one point per cell (midpoint / centroid).
        shape_grads: (n_cells, dimension+1, dimension) gradients of the
            nodal P1 basis restricted to each cell.
        vertex_cells: one node indexer per cell vertex, selecting
            ``cells[:, v]``: a slice where that column is a contiguous
            range of node numbers, else a read-only copy of it.
        vertex_grads: (dimension+1, dimension, n_cells) copy of
            ``shape_grads``, one row per vertex and gradient component.
        interior: indices of the interior (non-boundary) nodes, in
            increasing order.
    """

    bounds: tuple
    resolution: tuple
    nodes: np.ndarray = field(init=False, repr=False)
    cells: np.ndarray = field(init=False, repr=False)
    dimension: int = field(init=False)
    boundary_mask: np.ndarray = field(init=False, repr=False)
    cell_measures: np.ndarray = field(init=False, repr=False)
    quad_points: np.ndarray = field(init=False, repr=False)
    shape_grads: np.ndarray = field(init=False, repr=False)
    vertex_cells: tuple = field(init=False, repr=False)
    vertex_grads: np.ndarray = field(init=False, repr=False)
    interior: np.ndarray = field(init=False, repr=False)
    _plan: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        d = len(self.resolution)
        if d not in (1, 2) or len(self.bounds) != 2 * d:
            raise ValueError("bounds and resolution do not fit d = 1 or 2")
        bounds = tuple(map(float, self.bounds))
        if not all(a < b and b - a < np.inf
                   for a, b in zip(bounds[::2], bounds[1::2])):
            raise ValueError(f"degenerate {('interval', 'rectangle')[d - 1]}:"
                             f" need finite lower < upper bounds, got {bounds}")
        names = ("n_cells",) if d == 1 else ("nx", "ny")
        for n, name in zip(self.resolution, names):  # 16 or 16.0, not 16.9
            if not float(n).is_integer():
                raise ValueError(f"{name} must be an integer, got {n!r}")
        res = tuple(map(int, self.resolution))
        if min(res) < 2:
            raise ValueError(f"{', '.join(names)} must be >= 2, got "
                             + ", ".join(map(str, res)))
        lo, hi = np.array(bounds[::2]), np.array(bounds[1::2])
        axes = map(np.linspace, lo, hi, [n + 1 for n in res])
        X = np.array(np.meshgrid(*axes, indexing="ij")).reshape(d, -1)
        idx = np.arange(X.shape[1]).reshape([n + 1 for n in res])
        if d == 1:  # X[c] is coordinate c of each node, idx its grid index
            cells = np.column_stack([idx[:-1], idx[1:]])
        else:  # per quad, the lower then the upper triangle
            n00, n11 = idx[:-1, :-1], idx[1:, 1:]
            cells = np.stack([n00, idx[1:, :-1], n11, n00, n11, idx[:-1, 1:]],
                             axis=-1).reshape(-1, 3)
        P = X.take(cells.T, axis=1)  # P[c, v]: that of each cell's vertex v
        e = P[:, 1:] - P[:, :1]  # e[c, k - 1] = coordinate c of P_k - P_0
        if d == 1:
            det, cof = e[0, 0], np.ones_like(e)
        else:  # e1x e2y - e1y e2x; cof[k - 1] is vertex k's cofactor row
            with np.errstate(over="ignore"):  # an infinite area is refused
                det = e[0, 0] * e[1, 1] - e[1, 0] * e[0, 1]
            cof = np.array([[e[1, 1], -e[0, 1]], [-e[1, 0], e[0, 0]]])
        measures = np.abs(det) / d  # |det|/d!, d! = d for d <= 2
        if not np.all((measures > 0) & (measures < np.inf)):
            raise ValueError("a cell's measure is not finite and positive")
        if abs(measures.sum() - np.prod(hi - lo)) > 1e-12 * np.prod(hi - lo):
            raise ValueError("cell measures do not sum to the domain measure")
        g = cof * (1.0 / det)
        grads = np.concatenate([-g.sum(axis=0, keepdims=True), g])
        boundary = ((X == lo[:, None]) | (X == hi[:, None])).any(axis=0)
        derived = dict(
            bounds=bounds, resolution=res, nodes=X.T, cells=cells,
            dimension=d, boundary_mask=boundary, cell_measures=measures,
            quad_points=(P.sum(axis=1) / (d + 1)).T,
            shape_grads=grads.transpose(2, 0, 1),
            vertex_cells=tuple(map(_indexer, cells.T)),
            vertex_grads=grads, interior=np.flatnonzero(~boundary))
        for name, value in derived.items():
            if isinstance(value, np.ndarray):
                value = _readonly(value)
            object.__setattr__(self, name, value)

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
        """Evaluate the piecewise-linear interpolant at points of the
        mesh's box by ``_interp_p1``'s one rule for d = 1 and 2: a float
        for one point, an array of one value per point otherwise (empty
        for no points)."""
        out = _interp_p1(self, points)
        return out if out.size != 1 else float(out[0])


def _on_mesh(mesh: Mesh, *fields, what: str = "field"):
    """Refuse any of ``fields`` not sampled on ``mesh`` itself.

    Meshes are compared by identity; the ``ValueError`` reads "<what>
    sampled on a different mesh".  This is the package's one mesh check:
    every entry point that takes a field calls it before reading values.
    """
    for f in fields:
        if f.mesh is not mesh:
            raise ValueError(f"{what} sampled on a different mesh")


def build_interval(a: float, b: float, n_cells: int) -> Mesh:
    """Uniform mesh of (a, b) with ``n_cells`` segments; the endpoints are
    its boundary nodes."""
    return Mesh((a, b), (n_cells,))


def build_rectangle(ax: float, bx: float, ay: float, by: float,
                    nx: int, ny: int) -> Mesh:
    """Uniform triangulation of (ax,bx) x (ay,by): nx*ny quads, two
    triangles each, split along the same diagonal orientation."""
    return Mesh((ax, bx, ay, by), (nx, ny))


def _gradient(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    """(dimension, n_cells) gradients of the P1 interpolant of nodal values,
    or (dimension, k, n_cells) for a (k, n_nodes) stack of k fields.

    The one gradient kernel: every energy, flux, metric and checker in the
    package differentiates through it, and reads its result in this
    component-major layout.  In 1D it is the difference quotient per
    segment; it is exact for globally affine fields and linear in the
    values.  Summed vertex by vertex in ``vertex_grads`` layout, each
    vertex's values read through its ``vertex_cells`` indexer.  A stack
    reads a slice as a view and an index array by ``take``, which gives
    C-contiguous (k, n_cells) values (indexing ``nodal[:, c]`` gathers
    two to three times as slowly, into a strided array); each of its rows
    gets the products and sums, in the same vertex order, that it gets
    alone, so its gradients are bitwise the row's.
    """
    G, C = mesh.vertex_grads, mesh.vertex_cells
    read = nodal.__getitem__
    if nodal.ndim == 2:
        G = G[:, :, None]
        read = lambda c: (nodal[:, c] if isinstance(c, slice)
                          else nodal.take(c, axis=1))
    out = G[0] * read(C[0])
    for g, c in zip(G[1:], C[1:]):
        out += g * read(c)
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
    """(n_cells, dimension) gradients of the P1 interpolant of nodal values,
    one per mesh node: the transposed view of ``_gradient``'s result, one
    row per cell."""
    if np.shape(nodal) != (mesh.n_nodes,):
        raise ValueError(f"got {np.shape(nodal)} values for "
                         f"{mesh.n_nodes} nodes")
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
    NodeField (averaged to quad points first), which must be sampled on
    ``mesh`` when one is given.  Cells are reduced in their fixed
    construction order.
    """
    if isinstance(values, NodeField):
        _on_mesh(mesh or values.mesh, values)
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


def _one_point(mesh: Mesh, x) -> np.ndarray:
    """The point ``x`` as a (1, dimension) array.

    The single-point functions (``eval_A``, ``eval_N``, ``flux_a`` and
    the potentials) call it, so an ``x`` that does not hold exactly one
    coordinate per space dimension raises ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    if x.size != mesh.dimension:
        raise ValueError(f"need one point, got an array of shape {x.shape}")
    return x.reshape(1, -1)


def _interp_p1(u: NodeField, points) -> np.ndarray:
    """P1 interpolation of a nodal field at points of the mesh's box.

    One rule for d = 1 and 2, read from the bounds and resolution, as
    every mesh is the uniform grid of its box.  Per axis, the grid
    coordinate f = (x - lo)/h, taken as the integer j = rint(f) where x
    is the mesh's own coordinate of grid line j (``np.linspace(lo, hi,
    n + 1)[j]``; so a node's coordinate reads its index, and the upper
    edge n), gives the cell i = min(floor f, n - 1), so the last cell
    holds the upper edge, and the local coordinate t = f - i in [0, 1].
    The simplex is the mesh's diagonal split, Freudenthal's: the walk
    from the cell's first corner along the axes in decreasing t (ties
    take x first), with weights 1 - t(1), t(1) - t(2), ..., t(d).  Each
    corner c of the cell (a 0/1 step per axis) gets the weight
    max(0, min of t over c's axes - max of t over the others), 1 and 0
    standing for an empty min and max: the walk's weight at the walk's
    corners, 0 elsewhere.  The corners are added in Gray-code order, each
    one axis step from the last (0, x, xy, y in 2D), so a lower triangle
    adds u00 (1 - tx) + u10 (tx - ty) + u11 ty and an upper one
    u00 (1 - ty) + u11 tx + u01 (ty - tx) in that order, a zero term
    changing no sum.  A point at a node reads that node's value, and at
    cell quadrature points the result is the vertex average used by
    ``integrate``.  Returns one value per point; a point that is not
    finite or lies outside the box raises ``ValueError``.
    """
    mesh = u.mesh
    pts = np.asarray(points, dtype=float).reshape(-1, mesh.dimension)
    lo, hi = np.array(mesh.bounds[::2]), np.array(mesh.bounds[1::2])
    if not np.all((pts >= lo) & (pts <= hi)):
        raise ValueError("points must be finite and inside the mesh's box")
    n = np.array(mesh.resolution)
    f = (pts - lo) / ((hi - lo) / n)
    j = np.rint(f).astype(int)  # the nearest grid line per axis
    axes = map(np.linspace, lo, hi, n + 1)  # as the mesh lays out its nodes
    lines = np.transpose([a[k] for a, k in zip(axes, j.T)])
    f = np.where(pts == lines, j, f)
    i = np.minimum(f.astype(int), n - 1)
    t = f - i
    out = np.zeros(len(pts))
    for k in range(2 ** mesh.dimension):  # the corners in Gray-code order
        c = (k ^ k >> 1) >> np.arange(mesh.dimension) & 1
        lam = (t[:, c == 1].min(axis=1, initial=1.0)
               - t[:, c == 0].max(axis=1, initial=0.0))
        node = np.ravel_multi_index((i + c).T, n + 1)
        out += u.values[node] * np.maximum(lam, 0.0)
    return out
