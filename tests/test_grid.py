from dataclasses import replace

import numpy as np
import pytest

from pxlaplace.grid import (Mesh, NodeField, _basis_pairing, _field_gradient,
                            _gradient, build_interval, build_rectangle,
                            cell_average, cell_gradient, constant_field,
                            flux_loads, integrate, interpolate, scatter_add)


class TestBuildInterval:
    def test_uniform_partition(self):
        mesh = build_interval(0, 1, 4)
        assert np.allclose(mesh.nodes.ravel(), [0, 0.25, 0.5, 0.75, 1])
        assert mesh.total_measure == pytest.approx(1.0, rel=1e-15)
        assert list(mesh.boundary_mask) == [True, False, False, False, True]

    def test_cell_measures(self):
        mesh = build_interval(0, 2, 2)
        assert np.allclose(mesh.cell_measures, [1.0, 1.0])

    def test_degenerate_interval(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_interval(1, 0, 4)

    def test_cell_count_must_be_integral(self):
        assert build_interval(0, 1, 16.0).n_cells == 16
        assert build_rectangle(0, 1, 0, 1, 4.0, 3).n_cells == 2 * 4 * 3
        with pytest.raises(ValueError, match="must be an integer"):
            build_interval(0, 1, 16.9)
        with pytest.raises(ValueError, match="must be an integer"):
            build_rectangle(0, 1, 0, 1, 4, 3.5)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            build_interval(0, 1, 1)

    @pytest.mark.parametrize("a,b", [(0, np.inf), (-np.inf, 0),
                                     (-1e308, 1e308), (0, np.nan)],
                             ids=["inf", "minus-inf", "span-overflow", "nan"])
    def test_non_finite_bounds_refused(self, a, b):
        # refused before np.linspace, which warns on an infinite span
        with pytest.raises(ValueError, match="degenerate interval"):
            build_interval(a, b, 4)

    def test_node_order_lexicographic(self):
        mesh = build_interval(-1, 3, 8)
        assert np.all(np.diff(mesh.nodes[:, 0]) > 0)


class TestBuildRectangle:
    def test_unit_square_2x2(self):
        mesh = build_rectangle(0, 1, 0, 1, 2, 2)
        assert mesh.n_nodes == 9
        assert mesh.n_cells == 8
        assert mesh.total_measure == pytest.approx(1.0, rel=1e-15)

    def test_area_two(self):
        mesh = build_rectangle(0, 2, 0, 1, 4, 2)
        assert mesh.total_measure == pytest.approx(2.0, rel=1e-15)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_rectangle(0, 0, 0, 1, 2, 2)

    @pytest.mark.parametrize("bounds", [(0, np.inf, 0, 1), (0, 1, -np.inf, 1),
                                        (0, 1, -1e308, 1e308)],
                             ids=["inf", "minus-inf", "span-overflow"])
    def test_non_finite_bounds_refused(self, bounds):
        with pytest.raises(ValueError, match="degenerate rectangle"):
            build_rectangle(*bounds, 2, 2)

    def test_boundary_count(self):
        mesh = build_rectangle(0, 1, 0, 1, 4, 3)
        # perimeter nodes of a (nx+1) x (ny+1) grid
        assert mesh.boundary_mask.sum() == 2 * (4 + 3)

    def test_node_order_lexicographic(self):
        mesh = build_rectangle(0, 1, 0, 1, 3, 2)
        keys = [tuple(p) for p in mesh.nodes]
        assert keys == sorted(keys)

    def test_all_measures_positive(self):
        mesh = build_rectangle(-1, 2, 0.5, 3, 5, 4)
        assert np.all(mesh.cell_measures > 0)


class TestGradient:
    def test_affine_exactness(self):
        mesh = build_interval(0, 1, 7)
        u = interpolate(mesh, lambda x: 3 * x)
        assert np.allclose(cell_gradient(mesh, u.values), 3.0, atol=1e-14)

    def test_constant_field(self):
        mesh = build_interval(0, 1, 5)
        u = constant_field(mesh, 5.0)
        assert np.allclose(cell_gradient(mesh, u.values), 0.0)

    def test_quadratic_first_cell(self):
        # difference quotient of x^2 on [0, 0.25] is (0.0625 - 0)/0.25
        mesh = build_interval(0, 1, 4)
        u = interpolate(mesh, lambda x: x ** 2)
        assert cell_gradient(mesh, u.values)[0, 0] == \
            pytest.approx(0.25, rel=1e-14)

    def test_affine_exactness_2d(self):
        mesh = build_rectangle(0, 1, 0, 1, 3, 3)
        u = interpolate(mesh, lambda x, y: 2 * x - 5 * y + 1)
        assert np.allclose(cell_gradient(mesh, u.values), [2.0, -5.0], atol=1e-13)

    def test_linearity(self):
        mesh = build_interval(0, 1, 16)
        rng = np.random.default_rng(3)
        u = NodeField(mesh, rng.normal(size=mesh.n_nodes))
        v = NodeField(mesh, rng.normal(size=mesh.n_nodes))
        a, b = 2.5, -1.25
        combo = cell_gradient(mesh, a * u.values + b * v.values)
        split = a * cell_gradient(mesh, u.values) \
            + b * cell_gradient(mesh, v.values)
        assert np.array_equal(combo, split) or np.allclose(combo, split, atol=1e-15)


@pytest.mark.parametrize("width", ["vertices", "shared"])
@pytest.mark.parametrize("dim", [1, 2])
def test_scatter_add_matches_add_at_bitwise(dim, width):
    # both add each node's terms in cell order, starting from zero
    mesh = build_interval(0, 1, 37) if dim == 1 else \
        build_rectangle(0, 1.5, 0, 1, 7, 5)
    cols = mesh.dimension + 1 if width == "vertices" else 1
    rng = np.random.default_rng(11)
    contrib = rng.standard_normal((mesh.n_cells, cols)) \
        * 10.0 ** rng.uniform(-8, 8, (mesh.n_cells, cols))
    expected = np.zeros(mesh.n_nodes)
    np.add.at(expected, mesh.cells, contrib)
    assert scatter_add(mesh, contrib).tobytes() == expected.tobytes()


def _sheared_mesh() -> Mesh:
    """The 7 x 5 unit-square grid with its nodes mapped by the matrix
    [[1, 0.11], [0.37, 0.83]]; the mesh derives its basis gradients,
    measures and centroids from the mapped nodes.

    On the structured grids every cell has, per gradient component, a
    vertex whose basis gradient component is zero, so the order in which
    a kernel adds the vertices cannot show in its bits; here none is zero.
    """
    base = build_rectangle(0, 1, 0, 1, 7, 5)
    return Mesh(base.nodes @ np.array([[1.0, 0.11], [0.37, 0.83]]).T,
                base.cells, base.resolution)


KERNEL_MESHES = [(1, 7), (1, 256), (1, 1024), (2, (3, 4)), (2, (16, 17)),
                 (2, (64, 64)), (2, "sheared")]


@pytest.mark.parametrize("dim,size", KERNEL_MESHES,
                         ids=[f"{d}d-{s}" for d, s in KERNEL_MESHES])
def test_vertex_kernels_match_dense_formulas_bitwise(dim, size):
    # the dense per-cell formulas the vertex-major kernels replaced, with
    # cell vectors given and returned component-major, (dim, n_cells)
    if size == "sheared":
        mesh = _sheared_mesh()
        assert np.all(mesh.shape_grads != 0.0)
    else:
        mesh = build_interval(0, 1, size) if dim == 1 else \
            build_rectangle(0, 1.5, 0, 1, *size)
    G, m = mesh.shape_grads, mesh.cell_measures
    rng = np.random.default_rng(17)
    for scale in (1.0, 1e3, 1e6, 1e9):
        vals = rng.standard_normal(mesh.n_nodes) * scale
        vals[rng.random(mesh.n_nodes) < 0.25] = 0.0
        vals[:3] = 0.0  # a cell, or in 2D part of one, with zero vertices
        dense_grad = np.einsum("cvd,cv->cd", G, vals[mesh.cells])
        dense_avg = vals[mesh.cells].mean(axis=1)
        grad = cell_gradient(mesh, vals)
        avg = cell_average(NodeField(mesh, vals))
        assert grad.shape == dense_grad.shape
        assert np.ascontiguousarray(grad).tobytes() == dense_grad.tobytes()
        assert avg.tobytes() == dense_avg.tobytes()
        cols = _gradient(mesh, vals)
        assert cols.flags.c_contiguous
        assert cols.tobytes() == np.ascontiguousarray(dense_grad.T).tobytes()
        # the gradient adds the cell's vertices left to right
        ltr = G[:, 0] * vals[mesh.cells[:, 0], None]
        for v in range(1, dim + 1):
            ltr = ltr + G[:, v] * vals[mesh.cells[:, v], None]
        assert cols.tobytes() == np.ascontiguousarray(ltr.T).tobytes()
        # flux_loads, and the rank-one vector a_i = G_i . W xi of the
        # solver's metric, from the same pairing kernel
        flux = rng.standard_normal((mesh.dimension, mesh.n_cells)) * scale
        flux[:, ::5] = 0.0
        loads = np.einsum("cd,cvd->cv", flux.T * m[:, None], G)
        assert flux_loads(mesh, flux).tobytes() == loads.tobytes()
        a = np.einsum("cid,cd->ci", G, cols.T)
        assert _basis_pairing(mesh, cols).tobytes() == a.tobytes()


def test_vertex_major_copies_are_read_only():
    for mesh in (build_interval(0, 1, 8), build_rectangle(0, 1, 0, 1, 3, 4)):
        nloc = mesh.dimension + 1
        assert mesh.vertex_cells.shape == (nloc, mesh.n_cells)
        assert mesh.vertex_grads.shape == (nloc, mesh.dimension,
                                           mesh.n_cells)
        assert np.array_equal(mesh.vertex_cells.T, mesh.cells)
        assert np.array_equal(mesh.vertex_grads.transpose(2, 0, 1),
                              mesh.shape_grads)
        for a in (mesh.vertex_cells, mesh.vertex_grads):
            assert a.flags.c_contiguous and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1


def test_interior_index_is_kept_with_the_mesh():
    for mesh in (build_interval(0, 1, 8), build_rectangle(0, 1, 0, 1, 3, 4)):
        interior = mesh.interior
        assert mesh.interior is interior
        assert np.array_equal(interior, np.flatnonzero(~mesh.boundary_mask))
        assert not interior.flags.writeable
        with pytest.raises(ValueError):
            interior[0] = 0
        assert "interior" not in repr(mesh)


def test_mesh_keeps_private_copies_of_its_arrays():
    # a mesh built from the caller's arrays must not see later writes to
    # them: its cells and the kept vertex-major copy stay in agreement
    mesh = build_interval(0, 1, 4)
    cells = np.array(mesh.cells)
    nodes = np.array(mesh.nodes)
    m2 = replace(mesh, cells=cells, nodes=nodes)
    cells[0] = [1, 2]
    nodes[0] = 5.0
    assert np.array_equal(m2.cells, mesh.cells)
    assert np.array_equal(m2.vertex_cells.T, m2.cells)
    assert np.array_equal(m2.nodes, mesh.nodes)
    for name in ("nodes", "cells", "boundary_mask", "cell_measures",
                 "quad_points", "shape_grads"):
        a = getattr(m2, name)
        assert a.flags.c_contiguous and not a.flags.writeable
    assert cells.flags.writeable


@pytest.mark.parametrize("mesh", [build_interval(0, 1, 4),
                                  build_rectangle(0, 1, 0, 1, 3, 2)],
                         ids=["1d", "2d"])
def test_replaced_nodes_derive_the_geometry_again(mesh):
    # the geometry, bounds and boundary are derived from the nodes, so
    # doubling them doubles the domain: its measure is 2^d
    m2 = replace(mesh, nodes=2 * mesh.nodes)
    assert integrate(constant_field(m2, 1.0)) == 2.0 ** mesh.dimension
    assert m2.bounds == tuple(2 * b for b in mesh.bounds)
    assert np.array_equal(m2.boundary_mask, mesh.boundary_mask)
    assert np.array_equal(m2.quad_points, 2 * mesh.quad_points)
    assert np.array_equal(m2.shape_grads, mesh.shape_grads / 2)
    with pytest.raises(ValueError):  # derived fields are not inputs
        replace(mesh, cell_measures=2 * mesh.cell_measures)


def test_meshes_compare_by_identity():
    mesh, twin = build_interval(0, 1, 4), build_interval(0, 1, 4)
    assert mesh == mesh and mesh != twin
    assert len({mesh, twin, mesh}) == 2


def test_mesh_refuses_arrays_of_another_dimension():
    square = build_rectangle(0, 1, 0, 1, 3, 2)
    line = build_interval(0, 1, 4)
    for nodes, cells, resolution in [
            (square.nodes[:, :1], square.cells, square.resolution),
            (square.nodes, square.cells, (6,)),
            (square.nodes, square.cells[:, :2], square.resolution),
            (line.nodes, line.cells, (2, 2)),
            (line.nodes, np.column_stack([line.cells, line.cells[:, 0]]),
             line.resolution),
            (np.zeros((5, 3)), line.cells, (4, 1, 1))]:
        with pytest.raises(ValueError, match="do not fit"):
            Mesh(nodes, cells, resolution)


@pytest.mark.parametrize("bad", [0.25, np.nan, np.inf],
                         ids=["zero", "nan", "inf"])
def test_mesh_refuses_a_cell_without_a_finite_positive_measure(bad):
    # node 0 moved onto node 1 gives a zero length; a NaN or infinite
    # coordinate gives a NaN or infinite one
    nodes = build_interval(0, 1, 4).nodes.copy()
    nodes[0 if bad == 0.25 else 1] = bad
    with pytest.raises(ValueError, match="not finite and positive"):
        Mesh(nodes, build_interval(0, 1, 4).cells, (4,))


def test_cell_average_is_kept_with_the_field():
    mesh = build_rectangle(0, 1, 0, 1, 3, 4)
    u = interpolate(mesh, "x + 2*y")
    avg = cell_average(u)
    assert cell_average(u) is avg
    with pytest.raises(ValueError):
        avg[0] = 1.0
    # the kept average takes no part in comparison or repr
    assert NodeField(mesh, u.values) == u
    assert "_cell_values" not in repr(u)


def test_cell_gradient_is_kept_with_the_field():
    # the kept gradient is the kernel's result bitwise, computed once,
    # read-only and out of reach of the caller's array
    for mesh in (build_interval(0, 1, 8), build_rectangle(0, 1, 0, 1, 3, 4)):
        vals = np.random.default_rng(4).standard_normal(mesh.n_nodes)
        expected = _gradient(mesh, vals)
        u = NodeField(mesh, vals)
        grad = _field_gradient(u)
        assert grad.shape == (mesh.dimension, mesh.n_cells)
        assert grad.tobytes() == expected.tobytes()
        assert _field_gradient(u) is grad
        with pytest.raises(ValueError):
            grad[0, 0] = 1.0
        vals[:] = 5.0
        assert _field_gradient(u).tobytes() == expected.tobytes()
        # the kept gradient takes no part in comparison or repr
        assert NodeField(mesh, u.values) == u
        assert "_cell_grad" not in repr(u)


class TestIntegrate:
    def test_constant_one(self):
        mesh = build_interval(0, 1, 9)
        assert integrate(constant_field(mesh, 1.0)) == pytest.approx(1.0, rel=1e-15)

    def test_midpoint_exact_for_affine(self):
        mesh = build_interval(0, 1, 2)
        assert integrate(interpolate(mesh, "x")) == pytest.approx(0.5, rel=1e-15)

    def test_quadratic_second_order(self):
        # closed form: integral of x^2 over (0,1) is 1/3
        errs = []
        for n in (8, 16, 32, 64):
            mesh = build_interval(0, 1, n)
            errs.append(abs(integrate(interpolate(mesh, "x^2")) - 1 / 3))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.9)

    def test_convergence_2d(self):
        # integral of x*y over the unit square is 1/4
        errs = []
        for n in (4, 8, 16):
            mesh = build_rectangle(0, 1, 0, 1, n, n)
            errs.append(abs(integrate(interpolate(mesh, "x*y")) - 0.25))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 0.9)

    def test_size_mismatch(self):
        mesh = build_interval(0, 1, 4)
        with pytest.raises(ValueError):
            integrate(np.ones(3), mesh)

    def test_gradient_square_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mesh = build_interval(0, 1, 32)
            u = NodeField(mesh, rng.normal(size=mesh.n_nodes))
            g = cell_gradient(mesh, u.values)
            assert integrate(np.einsum("cd,cd->c", g, g), mesh) >= 0.0


class TestInterpolate:
    def test_bump_values(self):
        mesh = build_interval(0, 1, 2)
        u = interpolate(mesh, "x*(1-x)")
        assert np.allclose(u.values, [0.0, 0.25, 0.0])

    def test_constant_expression(self):
        mesh = build_interval(0, 1, 4)
        assert np.allclose(interpolate(mesh, "2").values, 2.0)

    def test_sin_at_half(self):
        mesh = build_interval(0, 1, 2)
        u = interpolate(mesh, "sin(3.14159265*x)")
        assert u.values[1] == pytest.approx(1.0, abs=1e-8)

    def test_y_on_1d_mesh_rejected(self):
        # evaluation has no short-circuit, so a y under any operator or
        # call is reached
        mesh = build_interval(0, 1, 4)
        for source in ("x+y", "2+y", "min(x, 0*y)", "sin(-y)^2",
                       "max(1, exp(x*y))"):
            with pytest.raises(ValueError, match="'y'"):
                interpolate(mesh, source)

    def test_bool_rejected(self):
        mesh = build_interval(0, 1, 4)
        for flag in (True, False):
            with pytest.raises(ValueError, match="number"):
                interpolate(mesh, flag)
        assert np.array_equal(interpolate(mesh, 1).values, np.ones(5))


class TestNodeField:
    def test_size_must_match(self):
        mesh = build_interval(0, 1, 4)
        with pytest.raises(ValueError):
            NodeField(mesh, np.ones(3))

    def test_values_must_be_finite(self):
        mesh = build_interval(0, 1, 4)
        with pytest.raises(ValueError, match="finite"):
            NodeField(mesh, [0, 1, np.nan, 1, 0])

    def test_point_evaluation_matches_cell_average(self):
        # P1 interpolation at quad points equals the vertex average
        for mesh in (build_interval(0, 2, 6), build_rectangle(0, 1, 0, 1, 3, 4)):
            rng = np.random.default_rng(5)
            u = NodeField(mesh, rng.uniform(size=mesh.n_nodes))
            assert np.allclose(u.at(mesh.quad_points), cell_average(u),
                               atol=1e-13)

    def test_immutable(self):
        mesh = build_interval(0, 1, 4)
        u = constant_field(mesh, 1.0)
        with pytest.raises(ValueError):
            u.values[0] = 2.0

    def test_holds_a_private_copy(self):
        # the caller's array stays writable, and writing to it (or to the
        # base of a view) changes neither the field nor its kept average
        mesh = build_interval(0, 1, 4)
        v = np.zeros(5)
        u = NodeField(mesh, v)
        v[1] = 3.0
        assert u.values[1] == 0.0
        base = np.ones(10)
        w = NodeField(mesh, base[::2])
        avg = cell_average(w)
        base[2] = 7.0
        assert np.array_equal(w.values, np.ones(5))
        assert np.array_equal(cell_average(w), avg)
        assert np.array_equal(avg, np.ones(4))

    def test_value_equality(self):
        mesh = build_rectangle(0, 1, 0, 1, 3, 2)
        v = np.linspace(0.0, 1.0, mesh.n_nodes)
        assert NodeField(mesh, v) == NodeField(mesh, v.copy())
        assert NodeField(mesh, v) != NodeField(mesh, v + 1.0)
        other = build_rectangle(0, 1, 0, 1, 3, 2)
        assert NodeField(mesh, v) != NodeField(other, v)
