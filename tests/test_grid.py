from dataclasses import replace

import numpy as np
import pytest

from pxlaplace.grid import (NodeField, build_interval, build_rectangle,
                            cell_average, cell_gradient, constant_field,
                            gradient, integrate, interpolate, scatter_add)


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

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            build_interval(0, 1, 1)

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
        assert np.allclose(gradient(u).vectors, 3.0, atol=1e-14)

    def test_constant_field(self):
        mesh = build_interval(0, 1, 5)
        assert np.allclose(gradient(constant_field(mesh, 5.0)).vectors, 0.0)

    def test_quadratic_first_cell(self):
        # difference quotient of x^2 on [0, 0.25] is (0.0625 - 0)/0.25
        mesh = build_interval(0, 1, 4)
        u = interpolate(mesh, lambda x: x ** 2)
        assert gradient(u).vectors[0, 0] == pytest.approx(0.25, rel=1e-14)

    def test_affine_exactness_2d(self):
        mesh = build_rectangle(0, 1, 0, 1, 3, 3)
        u = interpolate(mesh, lambda x, y: 2 * x - 5 * y + 1)
        assert np.allclose(gradient(u).vectors, [2.0, -5.0], atol=1e-13)

    def test_linearity(self):
        mesh = build_interval(0, 1, 16)
        rng = np.random.default_rng(3)
        u = NodeField(mesh, rng.normal(size=mesh.n_nodes))
        v = NodeField(mesh, rng.normal(size=mesh.n_nodes))
        a, b = 2.5, -1.25
        combo = gradient(NodeField(mesh, a * u.values + b * v.values)).vectors
        split = a * gradient(u).vectors + b * gradient(v).vectors
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
    # the dense per-cell formulas the vertex-major kernels replaced
    mesh = build_interval(0, 1, size) if dim == 1 else \
        build_rectangle(0, 1.5, 0, 1, *size)
    rng = np.random.default_rng(17)
    for scale in (1.0, 1e3, 1e6, 1e9):
        vals = rng.standard_normal(mesh.n_nodes) * scale
        vals[rng.random(mesh.n_nodes) < 0.25] = 0.0
        vals[:3] = 0.0  # a cell, or in 2D part of one, with zero vertices
        dense_grad = np.einsum("cvd,cv->cd", mesh.shape_grads,
                               vals[mesh.cells])
        dense_avg = vals[mesh.cells].mean(axis=1)
        grad = cell_gradient(mesh, vals)
        avg = cell_average(NodeField(mesh, vals))
        assert grad.shape == dense_grad.shape
        assert np.ascontiguousarray(grad).tobytes() == dense_grad.tobytes()
        assert avg.tobytes() == dense_avg.tobytes()


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
            g = gradient(u).vectors
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
        mesh = build_interval(0, 1, 4)
        with pytest.raises(ValueError, match="'y'"):
            interpolate(mesh, "x+y")


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
