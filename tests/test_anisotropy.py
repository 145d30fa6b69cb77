import numpy as np
import pytest

from pxlaplace.anisotropy import (AnisotropyModel, _flux_rows, _quad_form,
                                  check_hypothesis_A,
                                  check_N_strict_convexity, eval_A, eval_N,
                                  flux_a, isotropic, weighted_quadratic)
from pxlaplace.energy import (potential_F, potential_G, power_absorption,
                              power_reaction)
from pxlaplace.exponents import exponent_field
from pxlaplace.grid import (build_interval, build_rectangle, constant_field,
                            interpolate)


def iso_1d(p, r):
    mesh = build_interval(0, 1, 8)
    return isotropic(exponent_field(mesh, p, r=r))


def weighted_2d(w, p, r):
    mesh = build_rectangle(0, 1, 0, 1, 2, 2)
    exp = exponent_field(mesh, p, r=r)
    weights = [constant_field(mesh, wi) for wi in w]
    return weighted_quadratic(exp, weights)


class TestEvalA:
    def test_isotropic_cubic(self):
        model = iso_1d(3.0, 1.0)
        assert eval_A(model, [0.5], [2.0]) == pytest.approx(8.0, rel=1e-14)

    def test_zero_argument(self):
        for model in (iso_1d(2.5, 1.5), weighted_2d((4, 1), 2.0, 2.0)):
            zero = np.zeros(model.mesh.dimension)
            assert eval_A(model, model.mesh.quad_points[0], zero) == 0.0

    def test_weighted_quadratic_value(self):
        # N^2 with w=(4,1), xi=(1,1): 4+1 = 5
        model = weighted_2d((4, 1), 2.0, 2.0)
        assert eval_A(model, [0.5, 0.5], [1.0, 1.0]) == pytest.approx(5.0, rel=1e-14)


class TestEvalN:
    def test_isotropic_square(self):
        model = iso_1d(2.0, 2.0)
        assert eval_N(model, [0.5], [3.0]) == pytest.approx(9.0, rel=1e-14)

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    def test_r_homogeneity(self, r):
        model = iso_1d(2.5, r)
        xi = np.array([0.7])
        assert eval_N(model, [0.3], 2 * xi) == pytest.approx(
            2 ** r * eval_N(model, [0.3], xi), rel=1e-12)

    def test_weighted_r1(self):
        model = weighted_2d((4, 1), 2.0, 1.0)
        assert eval_N(model, [0.5, 0.5], [1.0, 1.0]) == pytest.approx(
            np.sqrt(5.0), rel=1e-14)


class TestFlux:
    def test_isotropic_p4(self):
        model = iso_1d(4.0, 1.0)
        assert flux_a(model, [0.5], [2.0]) == pytest.approx([8.0], rel=1e-14)

    def test_zero_vector_extension(self):
        for model in (iso_1d(1.5, 1.0), weighted_2d((4, 1), 3.0, 2.0)):
            zero = np.zeros(model.mesh.dimension)
            x = model.mesh.quad_points[0]
            assert np.array_equal(flux_a(model, x, zero), zero)

    def test_weighted_gradient(self):
        # a = (1/2) d/dxi (4 xi1^2 + xi2^2) = (4 xi1, xi2)
        model = weighted_2d((4, 1), 2.0, 2.0)
        assert flux_a(model, [0.5, 0.5], [1.0, 1.0]) == pytest.approx(
            [4.0, 1.0], rel=1e-14)

    def test_homogeneity_100_samples(self):
        rng = np.random.default_rng(19)
        mesh = build_interval(0, 1, 8)
        model = isotropic(exponent_field(mesh, "2+x", r=1.5))
        for _ in range(100):
            x = rng.uniform(0, 1, 1)
            xi = rng.normal(size=1)
            p = model.exponent.values.at(x)
            A0 = eval_A(model, x, xi)
            for t in (-2.0, 0.5, 3.0):
                At = eval_A(model, x, t * xi)
                assert abs(At - abs(t) ** p * A0) <= 1e-10 * max(1.0, A0)

    def test_euler_identity(self):
        # xi . a(x, xi) = A(x, xi), from p(x)-homogeneity
        rng = np.random.default_rng(23)
        models = [iso_1d(2.7, 1.5), weighted_2d((4, 1), 3.0, 2.0)]
        for model in models:
            dim = model.mesh.dimension
            for _ in range(50):
                x = model.mesh.quad_points[0]
                xi = rng.normal(size=dim)
                lhs = float(np.dot(xi, flux_a(model, x, xi)))
                rhs = eval_A(model, x, xi)
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_flux_matches_finite_difference(self):
        rng = np.random.default_rng(29)
        model = weighted_2d((4, 1), 2.5, 2.0)
        x = [0.5, 0.5]
        p = float(model.exponent.values.at(x))
        step = 1e-7
        for _ in range(20):
            xi = rng.normal(size=2)
            if np.linalg.norm(xi) < 0.1:
                continue
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = step
                fd[j] = (eval_A(model, x, xi + e) - eval_A(model, x, xi - e)) \
                    / (2 * step) / p
            a = flux_a(model, x, xi)
            assert np.allclose(a, fd, rtol=1e-6, atol=1e-9)


def _at_point_functions(model):
    """The single-point functions, each called as f(x) on ``model``."""
    mesh = model.mesh
    xi = np.ones(mesh.dimension)
    h, q = constant_field(mesh, 2.0), interpolate(mesh, "1.5+x")
    return {
        "eval_A": lambda x: eval_A(model, x, xi),
        "eval_N": lambda x: eval_N(model, x, xi),
        "flux_a": lambda x: flux_a(model, x, xi),
        "potential_F": lambda x: potential_F(power_reaction(h, q), x, 0.5),
        "potential_G": lambda x: potential_G(power_absorption(h, q), x, 0.5),
    }


@pytest.mark.parametrize("name", ["eval_A", "eval_N", "flux_a",
                                  "potential_F", "potential_G"])
@pytest.mark.parametrize("dim", [1, 2])
def test_single_point_functions_refuse_several_points(name, dim):
    # eval_A, eval_N and flux_a read the first of the points, and the
    # potentials raised numpy's broadcast error
    if dim == 1:
        model, one, two = iso_1d("2+x", 1.5), [0.1], [[0.1], [0.9]]
    else:
        model = weighted_2d((4, 1), 2.5, 2.0)
        one, two = [0.1, 0.2], [[0.1, 0.2], [0.9, 0.8]]
    f = _at_point_functions(model)[name]
    assert np.all(np.isfinite(f(one)))
    with pytest.raises(ValueError, match="need one point"):
        f(two)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("weighted", [False, True])
def test_flux_rows_match_masked_formula_bitwise(dim, weighted):
    # the row formulas the component-major kernels replaced: the einsum
    # quadratic form and the masked flux, where zero rows stay zero
    rng = np.random.default_rng(23)
    n = 400
    p = rng.uniform(1.2, 4.0, n)
    xi = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-6, 6, (n, 1))
    xi[::7] = 0.0
    w = rng.uniform(0.5, 2.0, (n, dim)) if weighted else None
    q = np.einsum("cd,cd->c", xi if w is None else w * xi, xi)
    wxi = xi if w is None else w * xi
    expected = np.zeros_like(xi)
    nz = q > 0.0
    expected[nz] = q[nz, None] ** ((p[nz] - 2.0) / 2.0)[:, None] * wxi[nz]
    # the kernels take (dim, n) arrays: contiguous, as the gradient kernel
    # and the model's weights give them, or the transposed views of rows
    # that the point evaluators pass
    for layout in (np.ascontiguousarray, np.asarray):
        cols = layout(xi.T)
        w_cols = None if w is None else layout(w.T)
        assert _quad_form(w_cols, cols).tobytes() == q.tobytes()
        flux = _flux_rows(p, w_cols, cols)
        assert flux.shape == (dim, n)
        assert np.ascontiguousarray(flux.T).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("weighted", [False, True])
def test_flux_rows_fast_path_matches_masked_path(dim, weighted):
    # at eps > 0 no column has s = 0 and the flux skips the mask, bitwise
    # as the masked formula gives it; at eps = 0 the zero columns still
    # get the zero flux
    rng = np.random.default_rng(29)
    n = 300
    p = rng.uniform(1.2, 4.0, n)
    xi = rng.standard_normal((dim, n)) * 10.0 ** rng.uniform(-6, 6, n)
    xi[:, ::7] = 0.0
    w = rng.uniform(0.5, 2.0, (dim, n)) if weighted else None
    wxi = xi if w is None else w * xi
    for eps in (1e-2, 1e-8):
        s = eps * eps + _quad_form(w, xi)
        nz = s > 0.0
        assert nz.all()
        masked = np.where(nz, s, 1.0) ** ((p - 2.0) / 2.0) * wxi
        masked[:, ~nz] = 0.0
        assert _flux_rows(p, w, xi, eps).tobytes() == masked.tobytes()
    flux = _flux_rows(p, w, xi)
    assert not flux[:, ::7].any()
    s = _quad_form(w, xi)[1::7]
    assert flux[:, 1::7].tobytes() == \
        (s ** ((p[1::7] - 2.0) / 2.0) * wxi[:, 1::7]).tobytes()


class TestHypothesisA:
    def test_isotropic_p2_identity_jacobian(self):
        rep = check_hypothesis_A(iso_1d(2.0, 1.0), 30, seed=1)
        assert rep.passed
        assert rep.gamma_hat == pytest.approx(1.0, rel=1e-6)
        assert rep.Gamma_hat == pytest.approx(1.0, rel=1e-6)

    def test_isotropic_p4_1d(self):
        # 1D: d a/d xi = 3 xi^2, on the unit sphere the ratio is p-1 = 3
        rep = check_hypothesis_A(iso_1d(4.0, 1.0), 30, seed=2)
        assert rep.passed
        assert rep.gamma_hat == pytest.approx(3.0, rel=1e-5)

    def test_isotropic_p4_2d(self):
        # tangential eigenvalue |xi|^(p-2) gives min(1, p-1) = 1 in 2D
        mesh = build_rectangle(0, 1, 0, 1, 2, 2)
        model = isotropic(exponent_field(mesh, 4.0, r=2.0))
        rep = check_hypothesis_A(model, 200, seed=3)
        assert rep.passed
        assert rep.gamma_hat == pytest.approx(1.0, rel=1e-2)

    def test_degenerate_weight_fails(self):
        # a zero weight makes the flux degenerate along its axis; the
        # constructor itself refuses it, so no such model reaches a check
        mesh = build_rectangle(0, 1, 0, 1, 2, 2)
        exp = exponent_field(mesh, 2.0, r=2.0)
        with pytest.raises(ValueError, match="positive"):
            AnisotropyModel(exp, (
                constant_field(mesh, 4.0), constant_field(mesh, 0.0)))

    def test_factory_rejects_nonpositive_weight(self):
        mesh = build_rectangle(0, 1, 0, 1, 2, 2)
        exp = exponent_field(mesh, 2.0, r=2.0)
        with pytest.raises(ValueError, match="positive"):
            weighted_quadratic(exp, (constant_field(mesh, 1.0),
                                     constant_field(mesh, 0.0)))

    @pytest.mark.parametrize("other", [
        build_rectangle(0, 2, 0, 3, 8, 8), build_rectangle(0, 1, 0, 1, 8, 8),
    ], ids=["other-domain", "equal-copy"])
    def test_factory_rejects_weights_on_another_mesh(self, other):
        # the exponent lives on an 8x8 grid of the unit square; meshes are
        # compared by identity, so an equal grid built apart is another
        mesh = build_rectangle(0, 1, 0, 1, 8, 8)
        exp = exponent_field(mesh, 2.0, r=2.0)
        with pytest.raises(ValueError, match="weight sampled on a different"):
            weighted_quadratic(exp, (constant_field(mesh, 1.0),
                                     interpolate(other, "1+y")))

    def test_constructor_rejects_weights_on_another_mesh(self):
        # built directly, not through weighted_quadratic: weights on an 8x8
        # grid of (0,2)x(0,3) would be read cell by cell as weights on the
        # exponent's 8x8 grid of the unit square
        mesh = build_rectangle(0, 1, 0, 1, 8, 8)
        other = build_rectangle(0, 2, 0, 3, 8, 8)
        exp = exponent_field(mesh, "2+x", r=1.5)
        with pytest.raises(ValueError, match="weight sampled on a different"):
            AnisotropyModel(exp, (
                interpolate(other, "1+x"), interpolate(other, "2-y")))

    @pytest.mark.parametrize("count", [1, 3])
    def test_constructor_needs_one_weight_per_dimension(self, count):
        mesh = build_rectangle(0, 1, 0, 1, 2, 2)
        exp = exponent_field(mesh, 2.0, r=2.0)
        with pytest.raises(ValueError, match="one weight field per"):
            AnisotropyModel(exp, (constant_field(mesh, 1.0),) * count)


class TestNStrictConvexity:
    def test_isotropic_r2_passes(self):
        rep = check_N_strict_convexity(iso_1d(2.0, 2.0), 100, seed=5)
        assert rep.passed

    def test_absolute_value_fails_on_rays(self):
        # r=1 in 1D: N = |xi| is affine along rays, equality flagged
        rep = check_N_strict_convexity(iso_1d(2.0, 1.0), 100, seed=6)
        assert not rep.passed
        assert rep.ray_equality_found

    def test_weighted_positive_definite_passes(self):
        rep = check_N_strict_convexity(weighted_2d((4, 1), 2.5, 2.0), 100, seed=7)
        assert rep.passed
        assert rep.min_margin >= 0.0
