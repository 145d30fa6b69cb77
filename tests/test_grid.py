from dataclasses import replace

import numpy as np
import pytest

from pxlaplace.anisotropy import _dot, _flux_rows
from pxlaplace.energy import EnergyModel, flux_pairing
from pxlaplace.exponents import exponent_field
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

    def test_values_must_be_one_per_node(self):
        # too many, too few, in 1D and 2D: refused, not read off the cells
        for mesh in (build_interval(0, 1, 4), build_rectangle(0, 1, 0, 1, 2, 2)):
            for n in (3, mesh.n_nodes + 2, mesh.n_nodes + 3):
                with pytest.raises(ValueError, match="values for"):
                    cell_gradient(mesh, np.ones(n))

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


KERNEL_MESHES = [(1, 7), (1, 256), (1, 1024), (2, (3, 4)), (2, (16, 17)),
                 (2, (64, 64))]


@pytest.mark.parametrize("dim,size", KERNEL_MESHES,
                         ids=[f"{d}d-{s}" for d, s in KERNEL_MESHES])
def test_vertex_kernels_match_dense_formulas_bitwise(dim, size):
    # the dense per-cell formulas the vertex-major kernels replaced, with
    # cell vectors given and returned component-major, (dim, n_cells)
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
    # one indexer per vertex, selecting that vertex's nodes: a slice on a
    # 1D mesh, a read-only index array on a 2D one
    for mesh in (build_interval(0, 1, 8), build_rectangle(0, 1, 0, 1, 3, 4)):
        nloc = mesh.dimension + 1
        assert len(mesh.vertex_cells) == nloc
        assert mesh.vertex_grads.shape == (nloc, mesh.dimension,
                                           mesh.n_cells)
        nodes = np.arange(mesh.n_nodes)
        for v, c in enumerate(mesh.vertex_cells):
            assert np.array_equal(nodes[c], mesh.cells[:, v])
            assert isinstance(c, slice) == (mesh.dimension == 1)
            if mesh.dimension == 2:
                assert c.flags.c_contiguous and not c.flags.writeable
                with pytest.raises(ValueError):
                    c[0] = 1
        assert np.array_equal(mesh.vertex_grads.transpose(2, 0, 1),
                              mesh.shape_grads)
        a = mesh.vertex_grads
        assert a.flags.c_contiguous and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1


INDEXER_MESHES = [build_interval(0, 1, n) for n in (2, 7, 1024)] + [
    build_rectangle(0, 1, 0, 1, 3, 4), build_rectangle(0, 1, 0, 2, 64, 33)]


@pytest.mark.parametrize("mesh", INDEXER_MESHES,
                         ids=["1d-2", "1d-7", "1d-1024", "2d-3x4", "2d-64x33"])
def test_indexed_kernels_match_the_gathered_forms_bitwise(mesh):
    # each vertex's values, read through its indexer (a view on a 1D
    # mesh), give the bits of the gathers u[cells[:, v]] summed in vertex
    # order; a 1D mesh has no vertex whose nodes are not a range
    assert [isinstance(c, slice) for c in mesh.vertex_cells] \
        == [mesh.dimension == 1] * (mesh.dimension + 1)
    G, cells, d = mesh.vertex_grads, mesh.cells, mesh.dimension
    rng = np.random.default_rng(23)
    w, s = rng.uniform(0.1, 10.0, (2, mesh.n_nodes))

    def gathered_gradient(u):
        out = G[0] * u[cells[:, 0]]
        for v in range(1, d + 1):
            out = out + G[v] * u[cells[:, v]]
        return out

    assert _gradient(mesh, w).tobytes() == gathered_gradient(w).tobytes()
    total = w[cells[:, 0]] + w[cells[:, 1]]
    for v in range(2, d + 1):
        total = total + w[cells[:, v]]
    assert (cell_average(NodeField(mesh, w)).tobytes()
            == (total / (d + 1)).tobytes())
    model = EnergyModel(mesh, exponent_field(mesh, "2.5+x", 1.5))
    for weights in (None, rng.uniform(1.0, 2.0, (d, mesh.n_cells))):
        flux = _flux_rows(model.p_cells, weights, gathered_gradient(w))
        gathered = np.sum(_dot(flux, gathered_gradient(s))
                          * mesh.cell_measures)
        assert (flux_pairing(model, w, s, weights).hex()
                == float(gathered).hex())


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
    # a mesh lays out its own nodes and cells, so no caller holds a
    # writable view of them, and they are not inputs to replace
    for mesh in (build_interval(0, 1, 4), build_rectangle(0, 1, 0, 1, 3, 2)):
        for name in ("nodes", "cells", "boundary_mask", "cell_measures",
                     "quad_points", "shape_grads", "vertex_grads",
                     "interior"):
            a = getattr(mesh, name)
            assert a.flags.c_contiguous and not a.flags.writeable
        for c in mesh.vertex_cells:  # a slice holds no array
            assert isinstance(c, slice) or (c.flags.c_contiguous
                                            and not c.flags.writeable)
        for name in ("nodes", "cells"):
            with pytest.raises(ValueError):
                replace(mesh, **{name: getattr(mesh, name)})


@pytest.mark.parametrize("mesh", [build_interval(0, 1, 4),
                                  build_rectangle(0, 1, 0, 1, 3, 2)],
                         ids=["1d", "2d"])
def test_replaced_nodes_derive_the_geometry_again(mesh):
    # replacing the bounds lays out the nodes again, and the geometry,
    # bounds and boundary follow them: doubling the box gives measure 2^d
    m2 = replace(mesh, bounds=tuple(2 * b for b in mesh.bounds))
    assert integrate(constant_field(m2, 1.0)) == 2.0 ** mesh.dimension
    assert np.array_equal(m2.nodes, 2 * mesh.nodes)
    assert m2.bounds == tuple(2 * b for b in mesh.bounds)
    assert m2.resolution == mesh.resolution
    assert np.array_equal(m2.cells, mesh.cells)
    assert np.array_equal(m2.boundary_mask, mesh.boundary_mask)
    assert np.array_equal(m2.quad_points, 2 * mesh.quad_points)
    assert np.array_equal(m2.shape_grads, mesh.shape_grads / 2)
    with pytest.raises(ValueError):  # derived fields are not inputs
        replace(mesh, cell_measures=2 * mesh.cell_measures)


def test_mesh_is_the_uniform_grid_of_its_box():
    # a direct call lays out exactly the builders' grid: lexicographic
    # nodes, and per quad the lower then the upper triangle
    mesh = Mesh((0, 2, 0, 4), (2, 2.0))
    assert mesh.bounds == (0.0, 2.0, 0.0, 4.0) and mesh.resolution == (2, 2)
    assert mesh.nodes.tolist() == [[i, 2 * j] for i in range(3)
                                   for j in range(3)]
    assert mesh.cells.tolist() == [[0, 3, 4], [0, 4, 1], [1, 4, 5],
                                   [1, 5, 2], [3, 6, 7], [3, 7, 4],
                                   [4, 7, 8], [4, 8, 5]]
    assert mesh.boundary_mask.tolist() == [True] * 4 + [False] + [True] * 4
    assert Mesh((0, 1), (4.0,)).cells.tolist() == [[0, 1], [1, 2], [2, 3],
                                                  [3, 4]]


def test_meshes_compare_by_identity():
    mesh, twin = build_interval(0, 1, 4), build_interval(0, 1, 4)
    assert mesh == mesh and mesh != twin
    assert len({mesh, twin, mesh}) == 2


def test_mesh_refuses_arrays_of_another_dimension():
    # a 1D mesh takes two bounds and one count, a 2D mesh four and two
    for bounds, resolution in [
            ((0, 1), (2, 2)), ((0, 1, 0, 1), (4,)), ((0, 1, 0), (2, 2)),
            ((0, 1, 0, 1, 0, 1), (2, 2, 2)), ((), ())]:
        with pytest.raises(ValueError, match="do not fit"):
            Mesh(bounds, resolution)


@pytest.mark.parametrize("bounds,resolution", [
    ((1e16, 1e16 + 2), (4,)), ((0, 1e300, 0, 1e300), (2, 2))],
    ids=["zero", "inf"])
def test_mesh_refuses_a_cell_without_a_finite_positive_measure(bounds,
                                                               resolution):
    # a box too narrow for its spacing collapses nodes onto each other,
    # and one too wide has an area that overflows
    with pytest.raises(ValueError, match="not finite and positive"):
        Mesh(bounds, resolution)


def test_mesh_checks_its_box_and_counts_itself():
    # the builders' checks, on a direct call
    with pytest.raises(ValueError, match="degenerate interval"):
        Mesh((1, 0), (4,))
    with pytest.raises(ValueError, match="degenerate rectangle"):
        Mesh((0, 1, 0, np.nan), (2, 2))
    with pytest.raises(ValueError, match="ny must be an integer"):
        Mesh((0, 1, 0, 1), (2, 2.5))
    with pytest.raises(ValueError, match="nx, ny must be >= 2"):
        Mesh((0, 1, 0, 1), (2, 1))


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

    def test_field_on_another_mesh_refused(self):
        # the mesh given is the one integrated over, or the call fails
        mesh = build_interval(0, 1, 4)
        one = constant_field(mesh, 1.0)
        assert integrate(one, mesh) == integrate(one) == 1.0
        with pytest.raises(ValueError, match="different mesh"):
            integrate(one, build_interval(0, 2, 4))

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

    @pytest.mark.parametrize("point", [[np.nan], [1.5], [-0.25], [np.inf],
                                       [0.5, np.nan]],
                             ids=["nan", "right", "left", "inf", "nan-second"])
    def test_point_outside_the_interval_refused(self, point):
        u = interpolate(build_interval(0, 1, 4), "x")
        assert u.at([0.0, 0.5, 1.0]).tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(ValueError, match="inside the mesh's box"):
            u.at(point)

    @pytest.mark.parametrize("point", [[np.nan, 0.5], [5.0, 0.5],
                                       [0.5, -1e-9], [0.5, np.inf]],
                             ids=["nan", "right", "below", "inf"])
    def test_point_outside_the_rectangle_refused(self, point):
        # neither numpy's cast of NaN to an index nor a clip to the edge
        u = interpolate(build_rectangle(0, 1, 0, 1, 4, 4), "x + 2*y")
        assert u.at([[0.0, 0.0], [0.5, 0.25]]).tolist() == [0.0, 1.0]
        with pytest.raises(ValueError, match="inside the mesh's box"):
            u.at([[0.25, 0.25], point])

    def test_upper_edge_reads_the_nodal_value(self):
        # the cell of a point on the upper edge is the last one, at local
        # coordinate 1, not a clip just below the edge
        u = interpolate(build_rectangle(0, 1, 0, 1, 2, 2), "x+y")
        assert u.at([1.0, 1.0]) == 2.0
        assert u.at([[1.0, 0.5], [0.5, 1.0]]).tolist() == [1.5, 1.5]
        assert interpolate(build_rectangle(0, 1, 0, 1, 64, 64),
                           "x+y").at([1.0, 1.0]) == 2.0
        # on 49 cells, (1 - 0)/(1/49) rounds above 49: the edge is
        # taken as the grid coordinate n itself
        assert interpolate(build_rectangle(0, 1, 0, 1, 49, 49),
                           "x+y").at([1.0, 1.0]) == 2.0
        u = NodeField(build_interval(0, 1, 49), np.arange(50.0))
        assert u.at([0.0, 1.0]).tolist() == [0.0, 49.0]

    def test_nodes_read_their_own_values(self):
        # a node whose (x - lo)/h rounds below its index is read at its
        # grid line, not from the cell below at t = 1 - eps
        meshes = [build_interval(0, 1, n) for n in range(2, 120)]
        for mesh in meshes + [build_rectangle(0, 1, 0, 2, 64, 33)]:
            v = np.random.default_rng(mesh.n_nodes).uniform(-1.0, 1.0,
                                                            mesh.n_nodes)
            assert NodeField(mesh, v).at(mesh.nodes).tobytes() == v.tobytes()

    @pytest.mark.parametrize("mesh", [
        build_interval(0, 1, 7), build_rectangle(0, 1, 0, 2, 64, 33),
    ], ids=["1d-n7", "2d-64x33"])
    def test_one_rule_agrees_with_the_interval_and_triangle_formulas(
            self, mesh):
        # np.interp in 1D, and in 2D the lower and upper triangle of the
        # cell, found by clipping the grid coordinate below the upper edge
        rng = np.random.default_rng(41)
        v = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        lo, hi = np.array(mesh.bounds[::2]), np.array(mesh.bounds[1::2])
        pts = rng.uniform(lo, hi, (10_000, mesh.dimension))
        if mesh.dimension == 1:
            expected = np.interp(pts[:, 0], mesh.nodes[:, 0], v)
        else:
            (nx, ny), h = mesh.resolution, (hi - lo) / mesh.resolution
            f = np.clip((pts - lo) / h, 0.0, np.array([nx, ny]) * (1 - 1e-16))
            (i, j), (xi, eta) = f.astype(int).T, (f - f.astype(int)).T
            u00, u10 = v[i * (ny + 1) + j], v[(i + 1) * (ny + 1) + j]
            u01, u11 = v[i * (ny + 1) + j + 1], v[(i + 1) * (ny + 1) + j + 1]
            expected = np.where(
                xi >= eta, u00 * (1 - xi) + u10 * (xi - eta) + u11 * eta,
                u00 * (1 - eta) + u11 * xi + u01 * (eta - xi))
        got = NodeField(mesh, v).at(pts)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(v).max()
        if mesh.dimension == 2:  # the corners' order adds the same sums
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mesh", [
        build_interval(0, 1, 4), build_rectangle(0, 1, 0, 1, 4, 4),
    ], ids=["1d", "2d"])
    def test_empty_batch_reads_no_values(self, mesh):
        u = interpolate(mesh, "1+x")
        for points in ([], np.empty((0, mesh.dimension))):
            out = u.at(points)
            assert isinstance(out, np.ndarray) and out.shape == (0,)

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
