from dataclasses import replace

import numpy as np
import pytest

from pxlaplace.exponents import (UNBOUNDED, ExponentField, exponent_bounds,
                                 exponent_field, luxemburg_norm, modular,
                                 sobolev_conjugate,
                                 validate_exponent_hypothesis)
from pxlaplace.grid import NodeField, build_interval, build_rectangle, \
    constant_field, interpolate


@pytest.fixture
def mesh():
    return build_interval(0, 1, 32)


class TestExponentBounds:
    def test_monotone_field_endpoints(self, mesh):
        p = interpolate(mesh, "2+x")
        assert exponent_bounds(p) == (2.0, 3.0)

    def test_constant(self, mesh):
        assert exponent_bounds(constant_field(mesh, 2.0)) == (2.0, 2.0)

    def test_invalid_exponent(self, mesh):
        vals = np.full(mesh.n_nodes, 2.0)
        vals[3] = 1.0
        with pytest.raises(ValueError, match="invalid exponent"):
            exponent_bounds(NodeField(mesh, vals))

    def test_r_above_p_minus_rejected(self, mesh):
        with pytest.raises(ValueError, match="r <= p_minus"):
            exponent_field(mesh, "2+x", r=2.5)


class TestExponentField:
    def test_extrema_are_derived_from_the_samples(self, mesh):
        p = ExponentField(interpolate(mesh, "2+x"), 1.5)
        assert (p.p_minus, p.p_plus) == (2.0, 3.0)
        q = replace(p, values=interpolate(mesh, "3+x"))
        assert (q.p_minus, q.p_plus) == (3.0, 4.0)

    def test_r_above_the_samples_is_refused(self, mesh):
        # the extrema are not inputs, so a constant p = 2 cannot be
        # given p_minus = 5 to admit r = 3
        with pytest.raises(ValueError, match="r <= p_minus"):
            ExponentField(constant_field(mesh, 2.0), 3.0)
        with pytest.raises(TypeError):
            ExponentField(constant_field(mesh, 2.0), p_minus=5.0,
                          p_plus=5.0, r=3.0)

    def test_cells_above_r_are_derived_with_the_field(self, mesh):
        # the one rule for "p exceeds r on a cell": p = 2 up to x = 1/2,
        # 1.5 + x beyond, exceeds r = 2 on the cells right of 1/2
        x = mesh.nodes[:, 0]
        p = ExponentField(NodeField(mesh, np.where(x < 0.5, 2.0, 1.5 + x)),
                          2.0)
        assert np.array_equal(p.above_r, mesh.quad_points[:, 0] > 0.5)
        assert np.array_equal(p.above_r, p.cellwise() - p.r > 1e-12)
        assert not p.above_r.flags.writeable
        assert not replace(p, values=constant_field(mesh, 2.0)).above_r.any()
        assert p == replace(p)

    def test_samples_not_above_one_are_refused(self, mesh):
        with pytest.raises(ValueError, match="invalid exponent"):
            ExponentField(constant_field(mesh, 1.0), 1.0)


class TestValidateHypothesis:
    def test_constant_passes(self, mesh):
        rep = validate_exponent_hypothesis(exponent_field(mesh, 2.0, r=2.0))
        assert rep["p_minus > 1"].status == "pass"
        assert rep["r <= p_minus"].status == "pass"

    def test_r_failure_reported(self, mesh):
        # bypass the constructor guard to exercise the report path
        field = exponent_field(mesh, "2+x", r=2.0)
        object.__setattr__(field, "r", 2.5)
        rep = validate_exponent_hypothesis(field)
        assert rep["r <= p_minus"].status == "fail"

    def test_holder_quotient_of_lipschitz_field(self, mesh):
        # |dp| = |dx| so the quotient is |dx|^(1/2), maximal = 1 on (0,1)
        rep = validate_exponent_hypothesis(exponent_field(mesh, "2+x", r=1.5),
                                           alpha1=0.5)
        assert rep.passed
        quotient = float(rep["holder_quotient"].witness.split("=")[-1])
        assert quotient == pytest.approx(1.0, rel=1e-12)


class TestModular:
    def test_unit_field(self, mesh):
        p = exponent_field(mesh, "2+x", r=1.0)
        assert modular(constant_field(mesh, 1.0), p) == pytest.approx(1.0, rel=1e-14)

    def test_zero_field(self, mesh):
        p = exponent_field(mesh, 2.0, r=1.0)
        assert modular(constant_field(mesh, 0.0), p) == 0.0

    def test_constant_two_p_two(self, mesh):
        p = exponent_field(mesh, 2.0, r=1.0)
        assert modular(constant_field(mesh, 2.0), p) == pytest.approx(4.0, rel=1e-14)

    def test_midpoint_convexity(self, mesh):
        rng = np.random.default_rng(7)
        p = exponent_field(mesh, "2+sin(3*x)", r=1.0)
        for _ in range(50):
            u = NodeField(mesh, rng.normal(size=mesh.n_nodes))
            v = NodeField(mesh, rng.normal(size=mesh.n_nodes))
            mid = NodeField(mesh, 0.5 * (u.values + v.values))
            lhs = modular(mid, p)
            rhs = 0.5 * (modular(u, p) + modular(v, p))
            assert lhs <= rhs + 1e-12 * (1 + rhs)


class TestLuxemburgNorm:
    def test_zero_field(self, mesh):
        p = exponent_field(mesh, 2.0, r=1.0)
        assert luxemburg_norm(constant_field(mesh, 0.0), p) == 0.0

    def test_unit_field_p2(self, mesh):
        p = exponent_field(mesh, 2.0, r=1.0)
        assert luxemburg_norm(constant_field(mesh, 1.0), p) == pytest.approx(1.0, abs=1e-10)

    def test_constant_p_homogeneity(self, mesh):
        # constant exponent: norm = modular^(1/p); here 8^(1/3) = 2
        p = exponent_field(mesh, 3.0, r=1.0)
        u = constant_field(mesh, 2.0)
        assert luxemburg_norm(u, p) == pytest.approx(2.0, abs=1e-10)

    def test_normalized_modular_is_one(self, mesh):
        rng = np.random.default_rng(13)
        p = exponent_field(mesh, "2+x", r=1.5)
        for _ in range(10):
            u = NodeField(mesh, rng.uniform(0.1, 5.0, mesh.n_nodes))
            lam = luxemburg_norm(u, p)
            assert modular(u.with_values(u.values / lam), p) == pytest.approx(
                1.0, abs=1e-10)

    def test_matches_constant_p_closed_form(self, mesh):
        rng = np.random.default_rng(17)
        p = exponent_field(mesh, 2.5, r=1.0)
        u = NodeField(mesh, rng.uniform(0.1, 3.0, mesh.n_nodes))
        assert luxemburg_norm(u, p) == pytest.approx(
            modular(u, p) ** (1 / 2.5), abs=1e-10)


class TestSobolevConjugate:
    def test_1d_always_unbounded(self, mesh):
        p = exponent_field(mesh, "2+x", r=1.0)
        assert np.all(sobolev_conjugate(p).values == UNBOUNDED)

    def test_2d_p2_unbounded(self):
        mesh = build_rectangle(0, 1, 0, 1, 2, 2)
        p = exponent_field(mesh, 2.0, r=1.0)
        assert np.all(sobolev_conjugate(p).values == UNBOUNDED)

    def test_2d_p_below_dimension(self):
        # N=2, p=1.5: conjugate is 2*1.5/(2-1.5) = 6
        mesh = build_rectangle(0, 1, 0, 1, 2, 2)
        p = exponent_field(mesh, 1.5, r=1.0)
        assert np.allclose(sobolev_conjugate(p).values, 6.0)
