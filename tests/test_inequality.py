import numpy as np
import pytest

from pxlaplace import energy
from pxlaplace.anisotropy import weighted_quadratic
from pxlaplace.energy import EnergyModel, flux_pairing, phi_line, phi_prime
from pxlaplace.exponents import exponent_field
from pxlaplace.grid import NodeField, build_interval, build_rectangle, \
    constant_field, interpolate
from pxlaplace.inequality import (check_ray_convexity, comparison_check,
                                  diaz_saa_gap, ratio_bound,
                                  weak_comparison_experiment)
from pxlaplace.solver import SolverOptions


def cone_model(n=64, p="2", r=2.0):
    mesh = build_interval(0, 1, n)
    return EnergyModel(mesh, exponent_field(mesh, p, r=r))


def weighted_model(dim):
    """p = 2+x, r = 1.5 with the weighted-quadratic flux (weights 1+x and
    2-y), on an interval or a rectangle."""
    mesh = (build_interval(0, 1, 64) if dim == 1
            else build_rectangle(0, 1.5, 0, 1, 9, 7))
    exponent = exponent_field(mesh, "2+x", r=1.5)
    weights = [interpolate(mesh, w) for w in ("1+x", "2-y")[:dim]]
    return EnergyModel(mesh, exponent,
                       anisotropy=weighted_quadratic(exponent, weights))


def zero_trace(mesh, values):
    v = np.asarray(values, dtype=float).copy()
    v[mesh.boundary_mask] = 0.0
    return NodeField(mesh, v)


class TestCheckRayConvexity:
    thetas = np.linspace(0.1, 0.9, 9)

    def test_proportional_pair_p_equals_r(self):
        model = cone_model(p="2", r=2.0)
        v1 = NodeField(model.mesh, interpolate(model.mesh, "x*(1-x)").values + 0.1)
        v2 = NodeField(model.mesh, 4 * v1.values)
        rep = check_ray_convexity(v1, v2, model, self.thetas)
        assert rep.passed
        assert rep.equality_on_grid
        assert rep.proportional_pair and rep.p_equals_r
        assert np.all(np.abs(rep.slacks) <= 1e-12 * rep.scale)

    def test_strictness_when_p_varies(self, regression):
        model = cone_model(p="2+x", r=2.0)
        v1 = NodeField(model.mesh, interpolate(model.mesh, "x*(1-x)").values + 0.1)
        v2 = NodeField(model.mesh, 4 * v1.values)
        rep = check_ray_convexity(v1, v2, model, self.thetas)
        assert rep.passed
        assert rep.min_slack > 0
        regression("ray_strictness_margin_p2x_r2_c4", rep.min_slack, rel_tol=1e-9)

    def test_identical_pair(self):
        model = cone_model(p="2+x", r=1.5)
        v = NodeField(model.mesh, interpolate(model.mesh, "1+x").values)
        rep = check_ray_convexity(v, v, model, self.thetas)
        assert rep.equality_on_grid
        assert np.all(np.abs(rep.slacks) <= 1e-15 * rep.scale)

    @pytest.mark.parametrize("kind", ["W", "W_A"])
    def test_one_cone_check_per_line_value(self, monkeypatch, kind):
        # Phi(0), Phi(1) and one value per theta, each checked once
        calls = []
        check = energy._require_cone
        monkeypatch.setattr(energy, "_require_cone",
                            lambda *a: calls.append(1) or check(*a))
        model = cone_model(p="2+x", r=1.5)
        rng = np.random.default_rng(5)
        v1, v2 = (NodeField(model.mesh, rng.uniform(0.1, 10, model.mesh.n_nodes))
                  for _ in range(2))
        check_ray_convexity(v1, v2, model, self.thetas, kind=kind)
        assert len(calls) == self.thetas.size + 2

    @pytest.mark.parametrize("kind", ["W", "W_A"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_slacks_are_the_line_value_slacks_bitwise(self, kind, dim):
        model = weighted_model(dim)
        rng = np.random.default_rng(107)
        v1, v2 = (NodeField(model.mesh, rng.uniform(0.1, 10, model.mesh.n_nodes))
                  for _ in range(2))
        rep = check_ray_convexity(v1, v2, model, self.thetas, kind=kind)
        phi0 = phi_line(v1, v2, 0.0, model, kind)
        phi1 = phi_line(v1, v2, 1.0, model, kind)
        expected = [(1.0 - t) * phi0 + t * phi1 - phi_line(v1, v2, t, model, kind)
                    for t in self.thetas]
        assert [s.hex() for s in rep.slacks] == [e.hex() for e in expected]
        assert rep.min_slack == min(expected)
        assert rep.scale == max(1.0, abs(phi0), abs(phi1))

    def test_empty_grid_rejected(self):
        model = cone_model()
        v = constant_field(model.mesh, 1.0)
        with pytest.raises(ValueError):
            check_ray_convexity(v, v, model, [])


class TestDiazSaaGap:
    def test_identical_pair(self):
        model = cone_model(p="2+x", r=1.5)
        w = zero_trace(model.mesh, interpolate(model.mesh, "x*(1-x)").values)
        rep = diaz_saa_gap(w, w, model)
        assert rep.gap == 0.0
        assert rep.equality_class == "identical"

    def test_proportional_pair_p_equals_r(self):
        model = cone_model(p="2", r=2.0)
        w1 = zero_trace(model.mesh, interpolate(model.mesh, "x*(1-x)").values)
        w2 = NodeField(model.mesh, 3 * w1.values)
        rep = diaz_saa_gap(w1, w2, model)
        scale = abs(rep.i1) + abs(rep.i2) + 1
        assert abs(rep.gap) <= 1e-10 * scale
        assert rep.equality_class == "proportional"

    def test_distinct_pair_positive_gap(self):
        model = cone_model(p="2", r=1.0)
        mesh = model.mesh
        x = mesh.nodes[:, 0]
        w1 = zero_trace(mesh, np.sin(np.pi * x))
        w2 = zero_trace(mesh, x * (1 - x))
        rep = diaz_saa_gap(w1, w2, model)
        assert rep.gap > 0
        assert rep.equality_class == "distinct"

    def test_gap_equals_integral_difference(self):
        # i1 and i2 from the transport formula of the Diaz-Saa integrals:
        #   i1 = integral a(grad w1) . grad(w1 - w2^r / w1^(r-1))
        #   i2 = integral a(grad w2) . grad(w1^r / w2^(r-1) - w2)
        rng = np.random.default_rng(71)
        model = cone_model(p="2+x", r=1.5)
        mesh = model.mesh
        r = model.exponent.r
        inner = mesh.interior
        for _ in range(20):
            w1 = zero_trace(mesh, rng.uniform(0.1, 10, mesh.n_nodes))
            w2 = zero_trace(mesh, rng.uniform(0.1, 10, mesh.n_nodes))
            a, b = w1.values, w2.values
            t1, t2 = np.zeros_like(a), np.zeros_like(a)
            t1[inner] = a[inner] - b[inner] ** r / a[inner] ** (r - 1)
            t2[inner] = a[inner] ** r / b[inner] ** (r - 1) - b[inner]
            i1 = flux_pairing(model, a, t1, model.w_cells)
            i2 = flux_pairing(model, b, t2, model.w_cells)
            rep = diaz_saa_gap(w1, w2, model)
            assert rep.i1 == pytest.approx(i1, rel=1e-12)
            assert rep.i2 == pytest.approx(i2, rel=1e-12)
            scale = abs(rep.i1) + abs(rep.i2) + 1
            assert rep.gap == pytest.approx(rep.i1 - rep.i2, abs=1e-10 * scale)

    def test_gap_equals_line_derivative_difference(self):
        rng = np.random.default_rng(73)
        model = cone_model(p="2+x", r=2.0)
        mesh = model.mesh
        w1 = zero_trace(mesh, rng.uniform(0.1, 10, mesh.n_nodes))
        w2 = zero_trace(mesh, rng.uniform(0.1, 10, mesh.n_nodes))
        rep = diaz_saa_gap(w1, w2, model)
        r = model.exponent.r
        v1 = NodeField(mesh, w1.values ** r)
        v2 = NodeField(mesh, w2.values ** r)
        direct = phi_prime(v1, v2, 1.0, model, "W_A") \
            - phi_prime(v1, v2, 0.0, model, "W_A")
        assert rep.gap == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_i1_i2_are_the_end_derivatives_bitwise(self, dim):
        model = weighted_model(dim)
        mesh = model.mesh
        rng = np.random.default_rng(109)
        w1, w2 = (zero_trace(mesh, rng.uniform(0.1, 10, mesh.n_nodes))
                  for _ in range(2))
        rep = diaz_saa_gap(w1, w2, model)
        r = model.exponent.r
        v1 = NodeField(mesh, w1.values ** r)
        v2 = NodeField(mesh, w2.values ** r)
        i1 = -phi_prime(v1, v2, 0.0, model, "W_A")
        i2 = -phi_prime(v1, v2, 1.0, model, "W_A")
        assert (rep.i1.hex(), rep.i2.hex()) == (i1.hex(), i2.hex())
        assert rep.gap.hex() == (i1 - i2).hex()

    def test_seeded_pairs_nonnegative(self):
        rng = np.random.default_rng(79)
        model = cone_model(p="2+x", r=1.5)
        mesh = model.mesh
        for _ in range(50):
            w1 = zero_trace(mesh, rng.uniform(0.1, 10, mesh.n_nodes))
            w2 = zero_trace(mesh, rng.uniform(0.1, 10, mesh.n_nodes))
            rep = diaz_saa_gap(w1, w2, model)
            assert rep.gap >= -1e-10 * (abs(rep.i1) + abs(rep.i2) + 1)

    def test_positive_boundary_rejected(self):
        model = cone_model()
        w = constant_field(model.mesh, 1.0)
        with pytest.raises(ValueError, match="boundary"):
            diaz_saa_gap(w, w, model)

    def test_zero_interior_value_rejected(self):
        model = cone_model(n=16)
        w = interpolate(model.mesh, "x*(1-x)").values.copy()
        w[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            diaz_saa_gap(zero_trace(model.mesh, w),
                         interpolate(model.mesh, "x*(1-x)"), model)

    def test_unbounded_ratio_rejected(self):
        model = cone_model(n=64)
        x = model.mesh.nodes[:, 0]
        w1 = zero_trace(model.mesh, x * (1 - x))
        w2 = zero_trace(model.mesh, x ** 2 * (1 - x))
        with pytest.raises(ValueError, match="inadmissible"):
            diaz_saa_gap(w1, w2, model, cap=50.0)

    def test_equality_classification_forces_proportionality(self):
        # near-zero gap with p = r: ratio must be constant
        model = cone_model(p="2", r=2.0)
        w1 = zero_trace(model.mesh,
                        interpolate(model.mesh, "x*(1-x)").values)
        w2 = NodeField(model.mesh, 2.5 * w1.values)
        rep = diaz_saa_gap(w1, w2, model)
        assert abs(rep.gap) <= 1e-10 * rep.scale
        interior = model.mesh.interior
        ratios = w2.values[interior] / w1.values[interior]
        assert np.ptp(ratios) <= 1e-8 * ratios.max()


class TestRatioBound:
    def test_identical_fields(self):
        mesh = build_interval(0, 1, 16)
        u = zero_trace(mesh, interpolate(mesh, "x*(1-x)").values)
        bounds = ratio_bound(u, u)
        assert bounds.sup12 == 1.0 and bounds.sup21 == 1.0
        assert bounds.admissible

    def test_sine_vs_parabola_grid_max(self):
        # dense-sampling oracle evaluated at the same interior nodes
        mesh = build_interval(0, 1, 512)
        x = mesh.nodes[:, 0]
        u1 = zero_trace(mesh, np.sin(np.pi * x))
        u2 = zero_trace(mesh, x * (1 - x))
        bounds = ratio_bound(u1, u2)
        xi = x[mesh.interior]
        oracle12 = np.max(np.sin(np.pi * xi) / (xi * (1 - xi)))
        oracle21 = np.max(xi * (1 - xi) / np.sin(np.pi * xi))
        assert bounds.sup12 == pytest.approx(oracle12, rel=1e-12)
        assert bounds.sup21 == pytest.approx(oracle21, rel=1e-12)
        # ratio peaks at the center (value 4); inverse approaches 1/pi at
        # the boundary-adjacent nodes
        assert bounds.sup12 == pytest.approx(4.0, rel=1e-4)
        assert bounds.sup21 == pytest.approx(1 / np.pi, rel=1e-2)

    def test_ratio_divergence_flags_inadmissible(self):
        mesh = build_interval(0, 1, 64)
        x = mesh.nodes[:, 0]
        u1 = zero_trace(mesh, x * (1 - x))
        u2 = zero_trace(mesh, x ** 2 * (1 - x))
        bounds = ratio_bound(u1, u2, cap=50.0)
        assert bounds.sup12 == pytest.approx(64.0, rel=1e-12)  # 1/x at x = h
        assert not bounds.admissible

    def test_zero_interior_value_rejected(self):
        mesh = build_interval(0, 1, 16)
        vals = interpolate(mesh, "x*(1-x)").values.copy()
        vals[3] = 0.0
        with pytest.raises(ValueError):
            ratio_bound(zero_trace(mesh, vals), zero_trace(mesh, vals))


class TestComparisonCheck:
    def closed_form_pair(self, n=64):
        # exact nodal solutions of -u'' = 1 and -u'' = 2
        mesh = build_interval(0, 1, n)
        x = mesh.nodes[:, 0]
        u1 = NodeField(mesh, x * (1 - x) / 2)
        u2 = NodeField(mesh, x * (1 - x))
        return mesh, u1, u2

    def test_equal_data(self):
        mesh, u1, _ = self.closed_form_pair()
        model = EnergyModel(mesh, exponent_field(mesh, 2.0, r=1.0))
        f = constant_field(mesh, 1.0)
        verdict = comparison_check(u1, u1, f, f, model, tol=0.0)
        assert verdict.max_excess == 0.0
        assert verdict.hypothesis_ok and verdict.conclusion_ok

    def test_closed_form_ordering_exact(self):
        mesh, u1, u2 = self.closed_form_pair()
        model = EnergyModel(mesh, exponent_field(mesh, 2.0, r=1.0))
        f1 = constant_field(mesh, 1.0)
        f2 = constant_field(mesh, 2.0)
        verdict = comparison_check(u1, u2, f1, f2, model, tol=0.0)
        assert verdict.hypothesis_ok
        assert verdict.max_excess <= 0.0
        assert verdict.conclusion_ok

    def test_hypothesis_gate_reports_without_raising(self):
        mesh, u1, u2 = self.closed_form_pair()
        model = EnergyModel(mesh, exponent_field(mesh, 2.0, r=1.0))
        f1 = constant_field(mesh, 2.0)
        f2 = constant_field(mesh, 1.0)  # f2 < f1: hypothesis violated
        verdict = comparison_check(u1, u2, f1, f2, model, tol=1e-6)
        assert not verdict.hypothesis_ok
        assert any("f1 <= f2" in note for note in verdict.notes)

    def test_p_equals_r_flagged(self):
        mesh, u1, u2 = self.closed_form_pair()
        model = EnergyModel(mesh, exponent_field(mesh, 2.0, r=2.0))
        f = constant_field(mesh, 1.0)
        verdict = comparison_check(u1, u2, f, f, model, tol=1e-6)
        assert not verdict.hypothesis_ok
        assert any("identically r" in note for note in verdict.notes)

    def test_subsupersolution_mode(self):
        mesh, u1, u2 = self.closed_form_pair()
        model = EnergyModel(mesh, exponent_field(mesh, 2.0, r=1.0))
        # -u1'' = 0.9 <= f1 = 1; -u2'' = 2.2 >= f2 = 2
        sub = NodeField(mesh, 0.9 * u1.values)
        sup = NodeField(mesh, 1.1 * u2.values)
        f1 = constant_field(mesh, 1.0)
        f2 = constant_field(mesh, 2.0)
        verdict = comparison_check(sub, sup, f1, f2, model, tol=0.0,
                                   mode="subsuper")
        assert verdict.hypothesis_ok
        assert verdict.conclusion_ok

    def test_subsuper_rejects_wrong_sign(self):
        mesh, u1, u2 = self.closed_form_pair()
        model = EnergyModel(mesh, exponent_field(mesh, 2.0, r=1.0))
        too_big = NodeField(mesh, 1.5 * u1.values)  # -u'' = 1.5 > f1 = 1
        f1 = constant_field(mesh, 1.0)
        f2 = constant_field(mesh, 2.0)
        verdict = comparison_check(too_big, u2, f1, f2, model, tol=1e-6,
                                   mode="subsuper")
        assert not verdict.hypothesis_ok


    def _notes(self, u1, u2, f1, f2, mode="solutions"):
        mesh = u1.mesh
        model = EnergyModel(mesh, exponent_field(mesh, 2.0, r=1.0))
        verdict = comparison_check(u1, u2, f1, f2, model, tol=1e-6,
                                   mode=mode)
        assert not verdict.hypothesis_ok
        return verdict.notes

    def test_negative_f1_is_noted(self):
        mesh, u1, u2 = self.closed_form_pair()
        notes = self._notes(u1, u2, constant_field(mesh, -1.0),
                            constant_field(mesh, 1.0))
        assert notes == ("f1 has negative values",)

    def test_a_vanishing_interior_value_is_noted(self):
        mesh, u1, u2 = self.closed_form_pair()
        values = u1.values.copy()
        values[len(values) // 2] = 0.0
        f = constant_field(mesh, 1.0)
        notes = self._notes(NodeField(mesh, values), u2, f, f)
        assert notes == ("fields are not positive at interior nodes",)

    def test_a_ratio_above_the_cap_is_noted(self):
        # u1/u2 = 1e7 at every interior node, above RATIO_CAP = 1e6
        mesh, u1, _ = self.closed_form_pair()
        f = constant_field(mesh, 1.0)
        notes = self._notes(u1, NodeField(mesh, 1e-7 * u1.values), f, f)
        assert notes == ("interior ratio exceeds the admissibility cap",)

    def test_subsuper_notes_a_u2_below_its_data(self):
        mesh, u1, u2 = self.closed_form_pair()
        sub = NodeField(mesh, 0.9 * u1.values)   # -u'' = 0.9 <= f1 = 1
        low = NodeField(mesh, 0.5 * u2.values)   # -u'' = 1 < f2 = 2
        notes = self._notes(sub, low, constant_field(mesh, 1.0),
                            constant_field(mesh, 2.0), mode="subsuper")
        assert notes == ("u2 is not a discrete supersolution",)

    def test_unknown_mode_is_refused(self):
        mesh, u1, u2 = self.closed_form_pair()
        model = EnergyModel(mesh, exponent_field(mesh, 2.0, r=1.0))
        f = constant_field(mesh, 1.0)
        with pytest.raises(ValueError, match="unknown mode 'exact'"):
            comparison_check(u1, u2, f, f, model, tol=1e-6, mode="exact")


class TestWeakComparisonExperiment:
    def test_linear_pair_end_to_end(self):
        mesh = build_interval(0, 1, 48)
        model = EnergyModel(mesh, exponent_field(mesh, "2+x", r=1.5))
        f1 = constant_field(mesh, 1.0)
        f2 = interpolate(mesh, "1+x")
        verdict = weak_comparison_experiment(model, f1, f2, SolverOptions(),
                                             tol=1e-6)
        assert verdict.hypothesis_ok
        assert verdict.conclusion_ok

    def test_equal_data_coincide(self):
        mesh = build_interval(0, 1, 48)
        model = EnergyModel(mesh, exponent_field(mesh, "2+x", r=1.0))
        f = constant_field(mesh, 1.0)
        verdict = weak_comparison_experiment(model, f, f, SolverOptions(),
                                             tol=1e-6)
        assert verdict.max_excess <= 1e-6

    def test_a_solve_that_does_not_converge_raises(self):
        mesh = build_interval(0, 1, 48)
        model = EnergyModel(mesh, exponent_field(mesh, "2+x", r=1.5))
        with pytest.raises(RuntimeError,
                           match="comparison solve did not converge"):
            weak_comparison_experiment(
                model, constant_field(mesh, 1.0), interpolate(mesh, "1+x"),
                SolverOptions(max_iters=1), tol=1e-6)
