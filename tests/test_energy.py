import warnings

import numpy as np
import pytest

from pxlaplace.anisotropy import _flux_rows, weighted_quadratic
from pxlaplace.energy import _f_cells, _quotient
from pxlaplace.energy import (EnergyModel, M_hat, W_A_functional, W_functional,
                              dirichlet_part, energy_E, energy_E_hat, energy_J,
                              energy_value, flux_pairing, gateaux_gradient,
                              phi_line,
                              phi_prime, potential_F, potential_G,
                              power_absorption, power_reaction,
                              saturating_kirchhoff, source_reaction)
from pxlaplace.exponents import exponent_field
from pxlaplace.grid import (NodeField, _gradient, build_interval,
                            build_rectangle, constant_field, interpolate)


def make_model(n=64, p="2", r=1.0, h=None, q=None, ell=None, Q=None,
               kirchhoff=None, mesh=None):
    mesh = mesh or build_interval(0, 1, n)
    exponent = exponent_field(mesh, p, r=r)
    reaction = None
    if h is not None:
        hf = interpolate(mesh, h)
        reaction = (power_reaction(hf, interpolate(mesh, q)) if q is not None
                    else source_reaction(hf))
    absorption = None
    if ell is not None:
        absorption = power_absorption(interpolate(mesh, ell),
                                      interpolate(mesh, Q))
    return EnergyModel(mesh, exponent, reaction=reaction,
                       absorption=absorption, kirchhoff=kirchhoff)


class TestPotentials:
    def test_F_power(self):
        model = make_model(h="1", q="2", r=2.0)
        assert potential_F(model.reaction, [0.5], 3.0) == pytest.approx(4.5)

    def test_F_negative_argument(self):
        model = make_model(h="1", q="2", r=2.0)
        assert potential_F(model.reaction, [0.5], -1.0) == 0.0

    def test_F_fractional_exponent(self):
        # 2 * 1^1.5 / 1.5 = 4/3
        model = make_model(h="2", q="1.5", r=2.0)
        assert potential_F(model.reaction, [0.5], 1.0) == pytest.approx(4 / 3)

    def test_G_values(self):
        model = make_model(h="1", q="1.5", r=2.0, ell="1", Q="2")
        assert potential_G(model.absorption, [0.5], 2.0) == pytest.approx(2.0)
        assert potential_G(model.absorption, [0.5], -3.0) == 0.0

    def test_G_cubic(self):
        model = make_model(h="1", q="1.5", r=2.0, ell="3", Q="3")
        assert potential_G(model.absorption, [0.5], 1.0) == pytest.approx(1.0)

    def test_f_cells_matches_gather_formula_bitwise(self):
        # the one masked power against the gathers it replaced, at u < 0,
        # u = 0 with q = 1 and q != 1, and u > 0
        rng = np.random.default_rng(8)
        n = 400
        u = rng.uniform(-2.0, 3.0, n) * 10.0 ** rng.uniform(-8, 3, n)
        u[::5] = 0.0
        q = rng.uniform(1.0, 4.0, n)
        q[::10] = 1.0
        h = rng.uniform(0.1, 5.0, n)
        expected = np.zeros_like(u)
        pos = u > 0
        expected[pos] = h[pos] * u[pos] ** (q[pos] - 1.0)
        zero = u == 0
        expected[zero] = np.where(q[zero] == 1.0, h[zero], 0.0)
        assert {(u < 0).any(), (zero & (q == 1.0)).any(),
                (zero & (q != 1.0)).any(), pos.any()} == {True}
        got = _f_cells(u, h, q)
        assert [x.hex() for x in got] == [x.hex() for x in expected]

    def test_f_cells_takes_stacked_fields_with_zeros(self):
        # like _F_cells, the cell arrays h and q broadcast against a u
        # that stacks several fields; an exact 0 in either row (q = 1 on
        # some of its cells, q != 1 on others) gives each row's own bits
        rng = np.random.default_rng(9)
        n = 40
        u = rng.uniform(-1.0, 2.0, (2, n))
        u[0, ::4] = 0.0
        u[1, 1::3] = 0.0
        q = rng.uniform(1.0, 3.0, n)
        q[::2] = 1.0
        h = rng.uniform(0.1, 5.0, n)
        got = _f_cells(u, h, q)
        assert got.shape == u.shape
        for k in range(2):
            assert got[k].tobytes() == _f_cells(u[k], h, q).tobytes()

    def test_M_hat_identity_scale(self):
        term = saturating_kirchhoff(1.0, 1.0)
        assert M_hat(term, 5.0) == 5.0

    def test_M_hat_zero(self):
        assert M_hat(saturating_kirchhoff(1.0, 2.0), 0.0) == 0.0

    def test_M_hat_closed_form(self):
        # 2*1 - (2-1)*ln 2
        term = saturating_kirchhoff(1.0, 2.0)
        assert M_hat(term, 1.0) == pytest.approx(2 - np.log(2), rel=1e-14)

    def test_M_hat_array_matches_scalar_loop(self):
        # validate_M evaluates its 101-point grid as one array
        ts = np.linspace(0.0, 100.0, 101)
        for m0, m_inf in ((1.0, 2.0), (0.5, 3.7), (2.0, 2.0)):
            term = saturating_kirchhoff(m0, m_inf)
            loop = np.array([M_hat(term, float(t)) for t in ts])
            assert M_hat(term, ts).tobytes() == loop.tobytes()

    def test_M_hat_negative_argument(self):
        with pytest.raises(ValueError):
            M_hat(saturating_kirchhoff(1.0, 2.0), -0.1)

    def test_M_hat_sandwich_on_grid(self):
        term = saturating_kirchhoff(0.5, 3.0)
        for t in np.linspace(0.0, 100.0, 201):
            val = M_hat(term, float(t))
            assert 0.5 * t - 1e-12 <= val <= 3.0 * t + 1e-12


@pytest.mark.parametrize("build, message", [
    (lambda m: power_reaction(constant_field(m, 0.0), constant_field(m, 1.5)),
     "reaction coefficient h must be positive"),
    (lambda m: power_reaction(constant_field(m, 1.0), constant_field(m, 0.5)),
     "reaction exponent q must be >= 1"),
    (lambda m: source_reaction(constant_field(m, -1.0)),
     "source h must be positive"),
    (lambda m: power_absorption(constant_field(m, 0.0),
                                constant_field(m, 2.0)),
     "absorption coefficient must be positive"),
    (lambda m: power_absorption(constant_field(m, 1.0),
                                constant_field(m, 0.9)),
     "absorption exponent must be >= 1"),
    (lambda m: saturating_kirchhoff(0.0, 1.0), r"need M\(0\) = m0 > 0"),
    (lambda m: saturating_kirchhoff(float("nan"), 1.0),
     r"need M\(0\) = m0 > 0"),
    (lambda m: saturating_kirchhoff(2.0, 1.0), r"need m_inf >= m0"),
], ids=["reaction-h", "reaction-q", "source-h", "absorption-ell",
        "absorption-Q", "kirchhoff-m0", "kirchhoff-m0-nan",
        "kirchhoff-decreasing"])
def test_term_constructors_refuse_bad_data(build, message):
    with pytest.raises(ValueError, match=message):
        build(build_interval(0, 1, 8))


class TestSourceIsThePowerTermWithQOne:
    def test_a_source_takes_the_field_of_ones(self):
        mesh = build_interval(0, 1, 8)
        term = source_reaction(interpolate(mesh, "1+x"))
        assert term.q.mesh is mesh
        assert np.all(term.q.values == 1.0)

    @pytest.mark.parametrize("mesh", [build_interval(0, 1, 24),
                                      build_rectangle(0, 1, 0, 2, 7, 5)],
                             ids=["1d", "2d"])
    def test_every_value_matches_the_power_term_bitwise(self, mesh):
        # u has negative values, zeros and positives, so every branch of
        # the potential and its derivative is read
        h = interpolate(mesh, "1+x")
        exponent = exponent_field(mesh, "2+x", r=1.5)
        source, power = (
            EnergyModel(mesh, exponent, reaction=term,
                        kirchhoff=saturating_kirchhoff(1.0, 2.0))
            for term in (source_reaction(h),
                         power_reaction(h, constant_field(mesh, 1.0))))
        rng = np.random.default_rng(4)
        values = rng.uniform(-0.5, 1.5, mesh.n_nodes)
        values[::3] = 0.0
        values[mesh.boundary_mask] = 0.0
        u = NodeField(mesh, values)
        for eps in (0.0, 1e-3):
            assert energy_value(u, source, eps).hex() == \
                energy_value(u, power, eps).hex()
            assert gateaux_gradient(source, u, eps).values.tobytes() == \
                gateaux_gradient(power, u, eps).values.tobytes()
        points = rng.uniform(0.0, 1.0, (6, mesh.dimension))
        for x, s in zip(points, (0.3, -1.0, 0.0, 2.5, 1e-300, 7.0)):
            assert potential_F(source.reaction, x, s).hex() == \
                potential_F(power.reaction, x, s).hex()
        v1, v2 = zero_trace_pair(mesh, 6)
        thetas = np.array([0.0, 0.4, 1.0])
        for line in (phi_line, phi_prime):
            assert line(v1, v2, thetas, source, "J_hat").tobytes() == \
                line(v1, v2, thetas, power, "J_hat").tobytes()


class TestWFunctional:
    def test_parabola_limit(self):
        # closed form: (1/2) integral of (1-2x)^2 = 1/6
        errs = []
        for n in (32, 64, 128):
            model = make_model(n=n)
            v = interpolate(model.mesh, "x*(1-x)")
            errs.append(abs(W_functional(v, model) - 1 / 6))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.9)

    def test_constant_field_zero(self):
        model = make_model(r=2.0, p="2")
        assert W_functional(constant_field(model.mesh, 3.0), model) == 0.0

    def test_scaling_when_p_equals_r(self):
        model = make_model(p="2", r=2.0)
        v = NodeField(model.mesh, interpolate(model.mesh, "x*(1-x)").values + 0.2)
        c = 3.7
        assert W_functional(NodeField(model.mesh, c * v.values), model) == \
            pytest.approx(c * W_functional(v, model), rel=1e-13)

    def test_cone_violation(self):
        model = make_model()
        bad = interpolate(model.mesh, "x-0.5")
        with pytest.raises(ValueError, match="cone"):
            W_functional(bad, model)

    def test_field_on_another_mesh_is_refused(self):
        # a positive bump on 32 cells of (0, 2) against a model on 32
        # cells of (0, 1); meshes are compared by identity
        model = make_model(n=32, p="2+x", r=1.5)
        v = interpolate(build_interval(0, 2, 32), "x*(2-x)")
        with pytest.raises(ValueError,
                           match="field sampled on a different mesh"):
            W_functional(v, model)


class TestWAFunctional:
    def test_isotropic_bitwise_equal(self):
        model = make_model(p="2+x", r=1.5)
        rng = np.random.default_rng(31)
        v = NodeField(model.mesh, rng.uniform(0.1, 10, model.mesh.n_nodes))
        assert W_A_functional(v, model) == W_functional(v, model)

    def test_constant_weight_factors_out(self):
        # 1D, w = 4, p = r = 2: A = 4 |xi|^2, so W_A = 4 W
        mesh = build_interval(0, 1, 64)
        exponent = exponent_field(mesh, 2.0, r=2.0)
        aniso = weighted_quadratic(exponent, [constant_field(mesh, 4.0)])
        model = EnergyModel(mesh, exponent, anisotropy=aniso)
        v = NodeField(mesh, interpolate(mesh, "(x*(1-x))^2").values + 1e-9)
        assert W_A_functional(v, model) == pytest.approx(
            4.0 * W_functional(v, model), rel=1e-13)

    def test_field_on_another_mesh_is_refused(self):
        model = make_model(n=32, p="2+x", r=1.5)
        v = interpolate(build_interval(0, 2, 32), "x*(2-x)")
        with pytest.raises(ValueError,
                           match="field sampled on a different mesh"):
            W_A_functional(v, model)

    def test_constant_zero(self):
        mesh = build_rectangle(0, 1, 0, 1, 3, 3)
        exponent = exponent_field(mesh, 2.0, r=2.0)
        aniso = weighted_quadratic(exponent, [constant_field(mesh, 4.0),
                                              constant_field(mesh, 1.0)])
        model = EnergyModel(mesh, exponent, anisotropy=aniso)
        assert W_A_functional(constant_field(mesh, 2.0), model) == 0.0

    def test_sandwich_between_W_multiples(self):
        # c1 W <= W_A <= c2 W with c1, c2 the extremes of A on the sphere
        mesh = build_rectangle(0, 1, 0, 1, 4, 4)
        exponent = exponent_field(mesh, 2.0, r=2.0)
        aniso = weighted_quadratic(exponent, [constant_field(mesh, 4.0),
                                              constant_field(mesh, 1.0)])
        model = EnergyModel(mesh, exponent, anisotropy=aniso)
        c1, c2 = 1.0, 4.0  # eigenvalues of diag(4, 1) on the unit sphere
        rng = np.random.default_rng(37)
        for _ in range(20):
            v = NodeField(mesh, rng.uniform(0.1, 10, mesh.n_nodes))
            wa = W_A_functional(v, model)
            w = W_functional(v, model)
            assert c1 * w - 1e-12 <= wa <= c2 * w + 1e-12


class TestModelMeshes:
    @pytest.mark.parametrize("term,other", [
        ("h", build_interval(0, 2, 32)), ("h", build_interval(0, 1, 16)),
        ("q", build_interval(0, 2, 32)), ("ell", build_interval(0, 2, 32)),
        ("Q", build_interval(0, 1, 64)),
    ], ids=["h-other-domain", "h-fewer-cells", "q", "ell", "Q-more-cells"])
    def test_term_field_on_another_mesh_is_refused(self, term, other):
        # every term field is sampled on a 32-cell mesh of (0, 1) but one,
        # sampled on ``other``; meshes are compared by identity
        mesh = build_interval(0, 1, 32)
        values = {"h": "1+x", "q": "1.2", "ell": "1", "Q": "2"}
        f = {k: interpolate(other if k == term else mesh, e)
             for k, e in values.items()}
        with pytest.raises(ValueError,
                           match="term field sampled on a different mesh"):
            EnergyModel(mesh, exponent_field(mesh, "2+x", r=1.5),
                        reaction=power_reaction(f["h"], f["q"]),
                        absorption=power_absorption(f["ell"], f["Q"]))

    def test_source_on_another_mesh_is_refused(self):
        mesh = build_interval(0, 1, 32)
        h = interpolate(build_interval(0, 2, 32), "1+x")
        with pytest.raises(ValueError,
                           match="term field sampled on a different mesh"):
            EnergyModel(mesh, exponent_field(mesh, 2.0, r=1.0),
                        reaction=source_reaction(h))


class TestProblemEnergies:
    def test_E_zero_field(self):
        model = make_model(h="1", q="2", r=1.0)
        assert energy_E(constant_field(model.mesh, 0.0), model) == 0.0

    def test_E_source_parabola(self):
        # (1/2)int(u')^2 - int(u) -> 1/6 - 1/6 = 0; the midpoint errors of
        # the two parts cancel identically on the parabola
        for n in (32, 64, 128):
            model = make_model(n=n, h="1", r=1.0)
            u = interpolate(model.mesh, "x*(1-x)")
            assert abs(energy_E(u, model)) <= 1e-12

    def test_E_power_parabola(self):
        # 1/6 - (1/2) int x^2 (1-x)^2 = 1/6 - 1/60
        model = make_model(n=512, h="1", q="2", r=1.0)
        u = interpolate(model.mesh, "x*(1-x)")
        assert energy_E(u, model) == pytest.approx(1 / 6 - 1 / 60, abs=2e-5)

    def test_E_requires_reaction(self):
        model = make_model()
        with pytest.raises(ValueError, match="reaction"):
            energy_E(constant_field(model.mesh, 0.0), model)

    def test_E_hat_zero_field(self):
        model = make_model(h="1", q="1.5", r=2.0, p="2", ell="1", Q="2")
        assert energy_E_hat(constant_field(model.mesh, 0.0), model) == 0.0

    def test_E_hat_negative_field_keeps_gradient_only(self):
        # both potentials vanish on the negative branch
        model = make_model(h="1", q="1.5", r=2.0, p="2", ell="1", Q="2")
        u = NodeField(model.mesh, -interpolate(model.mesh, "x*(1-x)").values)
        assert energy_E_hat(u, model) == pytest.approx(
            dirichlet_part(u, model, eps=0.0), rel=1e-14)

    def test_E_hat_adds_absorption(self):
        # + int u^2/2 = 1/60 for u = x(1-x)
        model = make_model(n=512, h="1", q="1.5", r=1.8, ell="1", Q="2")
        u = interpolate(model.mesh, "x*(1-x)")
        assert energy_E_hat(u, model) - energy_E(u, model) == pytest.approx(
            1 / 60, abs=2e-6)

    def test_J_reduces_to_E_bitwise_for_unit_M(self):
        model = make_model(h="1", q="1.5", r=2.0,
                           kirchhoff=saturating_kirchhoff(1.0, 1.0))
        u = interpolate(model.mesh, "x*(1-x)")
        assert energy_J(u, model) == energy_E(u, model)

    def test_J_zero_field(self):
        model = make_model(h="1", q="1.5", r=2.0,
                           kirchhoff=saturating_kirchhoff(1.0, 2.0))
        assert energy_J(constant_field(model.mesh, 0.0), model) == 0.0

    def test_J_composition_value(self):
        # negligible reaction: J ~ M_hat(D(u)) with D = 1/6 for u = x(1-x)
        model = make_model(n=512, h="1e-9", q="2", r=1.0,
                           kirchhoff=saturating_kirchhoff(1.0, 2.0))
        u = interpolate(model.mesh, "x*(1-x)")
        expected = M_hat(model.kirchhoff, dirichlet_part(u, model, eps=0.0))
        assert energy_J(u, model) == pytest.approx(expected, rel=1e-6)


class TestPhiLine:
    def test_endpoints(self):
        model = make_model(p="2+x", r=1.5)
        rng = np.random.default_rng(41)
        v1 = NodeField(model.mesh, rng.uniform(0.1, 10, model.mesh.n_nodes))
        v2 = NodeField(model.mesh, rng.uniform(0.1, 10, model.mesh.n_nodes))
        assert phi_line(v1, v2, 0.0, model) == W_functional(v1, model)
        assert phi_line(v1, v2, 1.0, model) == W_functional(v2, model)

    def test_identical_pair_constant(self):
        model = make_model(p="2+x", r=2.0)
        v = NodeField(model.mesh, interpolate(model.mesh, "1+x").values)
        vals = [phi_line(v, v, t, model) for t in (0.0, 0.3, 0.75, 1.0)]
        assert np.ptp(vals) <= 1e-14 * max(vals)

    def test_proportional_pair_quadratic_in_theta(self):
        # p=2, r=1, v2 = 2 v1: Phi(t) = (1+t)^2 W(v1) exactly
        model = make_model(n=128)
        v1 = interpolate(model.mesh, "x*(1-x)")
        v2 = NodeField(model.mesh, 2 * v1.values)
        w1 = W_functional(v1, model)
        for t in (0.2, 0.5, 0.9):
            assert phi_line(v1, v2, t, model) == pytest.approx(
                (1 + t) ** 2 * w1, rel=1e-12)
        assert w1 == pytest.approx(1 / 6, abs=1e-4)

    def test_cone_exit_rejected(self):
        model = make_model()
        v1 = NodeField(model.mesh, np.full(model.mesh.n_nodes, 1.0))
        v2 = NodeField(model.mesh, np.full(model.mesh.n_nodes, 3.0))
        with pytest.raises(ValueError, match="cone"):
            phi_line(v1, v2, -0.8, model)  # 1.0 - 0.8*2 < 0

    @pytest.mark.parametrize("line", [phi_line, phi_prime])
    def test_unknown_kind_rejected_before_any_work(self, line):
        # the kind is checked before the fields: these two live on
        # different meshes
        model = make_model(n=8)
        v1 = constant_field(model.mesh, 1.0)
        v2 = constant_field(build_interval(0, 1, 8), 2.0)
        with pytest.raises(ValueError, match="unknown line functional"):
            line(v1, v2, 0.5, model, kind="Z")

    def test_delta_interval_evaluates(self):
        from pxlaplace.energy import cone_delta
        model = make_model(p="2+x", r=1.5)
        v1 = NodeField(model.mesh, np.full(model.mesh.n_nodes, 2.0))
        v2 = NodeField(model.mesh, np.full(model.mesh.n_nodes, 3.0))
        delta = cone_delta(v1, v2)
        assert delta > 0
        phi_line(v1, v2, -delta / 2, model)
        phi_line(v1, v2, 1 + delta / 2, model)


class TestPhiPrime:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_flux_pairing_matches_explicit_formula_bitwise(self, dim):
        # the pairing behind phi_prime and the Diaz-Saa integrals: the flux
        # of _flux_rows, paired with grad s component by component in
        # order, then one sum of the pairings times the cell measures
        if dim == 1:
            model = make_model(n=97, p="2+x", r=1.5)
        else:
            mesh = build_rectangle(0, 1.5, 0, 1, 9, 7)
            exponent = exponent_field(mesh, "2+x*y", r=1.5)
            model = EnergyModel(mesh, exponent, anisotropy=weighted_quadratic(
                exponent, [interpolate(mesh, "1+x"), interpolate(mesh, "2-y")]))
        mesh = model.mesh
        rng = np.random.default_rng(29)
        for _ in range(3):
            w = rng.uniform(0.1, 10.0, mesh.n_nodes)
            s = rng.standard_normal(mesh.n_nodes)
            flux = _flux_rows(model.p_cells, model.w_cells, _gradient(mesh, w))
            gs = _gradient(mesh, s)
            pairing = flux[0] * gs[0]
            for k in range(1, dim):
                pairing = pairing + flux[k] * gs[k]
            expected = float(np.sum(pairing * mesh.cell_measures))
            got = flux_pairing(model, w, s, model.w_cells)
            assert got.hex() == expected.hex()

    def test_proportional_pair_derivative(self):
        # Phi(t) = (1+t)^2 W(v1) so Phi'(0) = 2 W(v1) -> 1/3
        model = make_model(n=256)
        v1 = interpolate(model.mesh, "x*(1-x)")
        v2 = NodeField(model.mesh, 2 * v1.values)
        d0 = phi_prime(v1, v2, 0.0, model)
        assert d0 == pytest.approx(2 * W_functional(v1, model), rel=1e-12)
        assert d0 == pytest.approx(1 / 3, abs=1e-4)

    def test_identical_pair_zero(self):
        model = make_model(p="2+x", r=1.5)
        v = NodeField(model.mesh, interpolate(model.mesh, "1+x").values)
        for t in (0.0, 0.4, 1.0):
            assert phi_prime(v, v, t, model) == 0.0

    def test_antisymmetry(self):
        model = make_model(p="2+x", r=1.5)
        rng = np.random.default_rng(43)
        v1 = NodeField(model.mesh, rng.uniform(0.5, 5, model.mesh.n_nodes))
        v2 = NodeField(model.mesh, rng.uniform(0.5, 5, model.mesh.n_nodes))
        for t in (0.0, 0.3, 1.0):
            assert phi_prime(v1, v2, t, model) == pytest.approx(
                -phi_prime(v2, v1, 1.0 - t, model), rel=1e-10)

    def test_monotone_in_theta(self):
        # derivative of a convex line restriction is nondecreasing
        model = make_model(p="2+x", r=2.0)
        rng = np.random.default_rng(47)
        for _ in range(10):
            v1 = NodeField(model.mesh, rng.uniform(0.1, 10, model.mesh.n_nodes))
            v2 = NodeField(model.mesh, rng.uniform(0.1, 10, model.mesh.n_nodes))
            ds = [phi_prime(v1, v2, t, model) for t in np.linspace(0, 1, 9)]
            assert np.all(np.diff(ds) >= -1e-10 * (1 + np.abs(ds).max()))

    @pytest.mark.parametrize("kind,kwargs", [
        ("W", dict(p="2+x", r=1.5)),
        ("W", dict(p="2", r=1.0)),
        ("J_hat", dict(p="2+x", r=2.0, h="1", q="1.5",
                       kirchhoff=saturating_kirchhoff(1.0, 2.0))),
    ])
    def test_matches_central_difference(self, kind, kwargs):
        model = make_model(n=48, **kwargs)
        rng = np.random.default_rng(53)
        mesh = model.mesh
        for _ in range(8):
            a = rng.uniform(0.5, 5, mesh.n_nodes)
            b = rng.uniform(0.5, 5, mesh.n_nodes)
            if kind == "J_hat":
                a[mesh.boundary_mask] = 0.0
                b[mesh.boundary_mask] = 0.0
            v1, v2 = NodeField(mesh, a), NodeField(mesh, b)
            theta, step = 0.37, 1e-6
            exact = phi_prime(v1, v2, theta, model, kind)
            fd = (phi_line(v1, v2, theta + step, model, kind)
                  - phi_line(v1, v2, theta - step, model, kind)) / (2 * step)
            assert exact == pytest.approx(fd, rel=1e-6)

    def test_weighted_anisotropy_central_difference(self):
        mesh = build_rectangle(0, 1, 0, 1, 6, 6)
        exponent = exponent_field(mesh, 2.0, r=1.5)
        aniso = weighted_quadratic(
            exponent, [interpolate(mesh, "1+3*x"), constant_field(mesh, 1.0)])
        model = EnergyModel(mesh, exponent, anisotropy=aniso)
        rng = np.random.default_rng(59)
        v1 = NodeField(mesh, rng.uniform(0.5, 5, mesh.n_nodes))
        v2 = NodeField(mesh, rng.uniform(0.5, 5, mesh.n_nodes))
        theta, step = 0.5, 1e-6
        exact = phi_prime(v1, v2, theta, model, "W_A")
        fd = (phi_line(v1, v2, theta + step, model, "W_A")
              - phi_line(v1, v2, theta - step, model, "W_A")) / (2 * step)
        assert exact == pytest.approx(fd, rel=1e-6)


def line_model(dim):
    """p = 2+x, r = 1.5, weighted-quadratic flux (weights 1+x and 2-y),
    reaction 1 * u^0.5 and a Kirchhoff term: every line kind applies."""
    mesh = (build_interval(0, 1, 48) if dim == 1
            else build_rectangle(0, 1.5, 0, 1, 9, 7))
    exponent = exponent_field(mesh, "2+x", r=1.5)
    weights = [interpolate(mesh, w) for w in ("1+x", "2-y")[:dim]]
    return EnergyModel(
        mesh, exponent, anisotropy=weighted_quadratic(exponent, weights),
        reaction=power_reaction(interpolate(mesh, "1"),
                                interpolate(mesh, "1.5")),
        kirchhoff=saturating_kirchhoff(1.0, 2.0))


def zero_trace_pair(mesh, seed):
    rng = np.random.default_rng(seed)
    pair = []
    for _ in range(2):
        v = rng.uniform(0.1, 10, mesh.n_nodes)
        v[mesh.boundary_mask] = 0.0
        pair.append(NodeField(mesh, v))
    return pair


class TestThetaArrays:
    thetas = np.array([0.0, 1.0, 0.05, 0.37, 0.95])

    @pytest.mark.parametrize("line", [phi_line, phi_prime])
    @pytest.mark.parametrize("kind", ["W", "W_A", "J_hat"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_array_matches_scalar_calls_bitwise(self, line, kind, dim):
        model = line_model(dim)
        v1, v2 = zero_trace_pair(model.mesh, 89)
        values = line(v1, v2, self.thetas, model, kind)
        assert isinstance(values, np.ndarray)
        assert values.shape == self.thetas.shape
        for t, value in zip(self.thetas, values):
            alone = line(v1, v2, float(t), model, kind)
            assert type(alone) is float
            assert float(value).hex() == alone.hex()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_line_values_are_the_cone_energies_bitwise(self, dim):
        model = line_model(dim)
        v1, v2 = zero_trace_pair(model.mesh, 97)
        for kind, functional in (("W", W_functional), ("W_A", W_A_functional)):
            values = phi_line(v1, v2, self.thetas, model, kind)
            for t, value in zip(self.thetas, values):
                v = NodeField(model.mesh, (1.0 - t) * v1.values + t * v2.values)
                assert value.hex() == functional(v, model).hex()

    def test_one_value_per_theta(self):
        model = line_model(1)
        v1, v2 = zero_trace_pair(model.mesh, 101)
        assert phi_line(v1, v2, [0.5], model).shape == (1,)
        assert phi_prime(v1, v2, np.array([]), model).shape == (0,)
        with pytest.raises(ValueError, match="1-D array"):
            phi_line(v1, v2, np.zeros((2, 2)), model)


class TestConeAndQuotient:
    """The cone test and the quotient accept and reject the same fields
    for one theta as for a stack of them, and warn about nothing."""

    def test_zero_boundary_passes(self):
        model = make_model(n=16, p="2+x", r=1.5)
        v1, v2 = zero_trace_pair(model.mesh, 103)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert W_functional(v1, model) > 0
            phi_line(v1, v2, np.array([0.0, 0.5, 1.0]), model)
            phi_prime(v1, v2, np.array([0.0, 0.5, 1.0]), model)

    @pytest.mark.parametrize("line", [phi_line, phi_prime])
    @pytest.mark.parametrize("node,value", [(5, 0.0), (5, -1.0), (0, -1.0)],
                             ids=["interior-zero", "interior-negative",
                                  "boundary-negative"])
    def test_outside_the_cone_raises_with_theta(self, line, node, value):
        model = make_model(n=16, p="2+x", r=1.5)
        ones = np.ones(model.mesh.n_nodes)
        bad = ones.copy()
        bad[node] = value
        v1, v2 = NodeField(model.mesh, bad), NodeField(model.mesh, ones)
        message = r"^combination leaves the cone at theta=0\.0$"
        for theta in (0.0, np.array([1.0, 0.0, 0.5])):
            with pytest.raises(ValueError, match=message):
                line(v1, v2, theta, model)
        with pytest.raises(ValueError,
                           match="^field is outside the positive cone$"):
            W_functional(v1, model)
        line(v1, v2, np.array([1.0, 0.75]), model)  # both in the cone

    def test_overflowing_combination_raises(self):
        model = make_model(n=16)
        big = constant_field(model.mesh, 1e308)
        for theta in (-1.0, np.array([0.5, -1.0])):
            with pytest.raises(ValueError, match="values must be finite"):
                phi_line(big, big, theta, model)

    def test_quotient_zero_where_all_vanish(self):
        r = 1.5
        diff = np.array([0.0, 1.0, -2.0, 0.0])
        v = np.array([[0.0, 2.0, 3.0, 0.5], [0.0, 0.25, 1e-300, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _quotient(diff, v, r)
        power = 1.0 - 1.0 / r
        for row, s_row in zip(v, s):
            assert s_row[0] == 0.0
            for j in range(1, 4):
                assert s_row[j].hex() == (diff[j] / row[j] ** power).hex()

    def test_quotient_raises_where_only_v_vanishes(self):
        # v1 = 0 where v2 = 1 on the boundary: the combination at theta = 0
        # vanishes there but v2 - v1 does not
        model = make_model(n=16, p="2+x", r=1.5)
        ones = np.ones(model.mesh.n_nodes)
        zero_trace = ones.copy()
        zero_trace[model.mesh.boundary_mask] = 0.0
        v1, v2 = NodeField(model.mesh, zero_trace), NodeField(model.mesh, ones)
        for theta in (0.0, np.array([0.5, 0.0])):
            with pytest.raises(ValueError, match="quotient undefined"):
                phi_prime(v1, v2, theta, model)
        phi_prime(v1, v2, np.array([0.5, 1.0]), model)
        # at r = 1 the quotient is v2 - v1 itself
        phi_prime(v1, v2, 0.0, make_model(n=16, p="2+x", r=1.0,
                                          mesh=model.mesh))


class TestHiddenConvexity:
    def test_1d_midpoint_slack(self):
        # the discrete cone energy is convex exactly in 1D
        rng = np.random.default_rng(61)
        model = make_model(n=64, p="2+x", r=2.0)
        mesh = model.mesh
        for _ in range(50):
            v1 = NodeField(mesh, rng.uniform(0.1, 10, mesh.n_nodes))
            v2 = NodeField(mesh, rng.uniform(0.1, 10, mesh.n_nodes))
            lhs = phi_line(v1, v2, 0.5, model)
            rhs = 0.5 * (phi_line(v1, v2, 0.0, model)
                         + phi_line(v1, v2, 1.0, model))
            assert lhs <= rhs + 1e-10 * max(1.0, rhs)

    def test_affine_on_rays_when_p_equals_r(self):
        model = make_model(p="2", r=2.0)
        v1 = NodeField(model.mesh,
                       interpolate(model.mesh, "x*(1-x)").values + 0.1)
        v2 = NodeField(model.mesh, 4 * v1.values)
        phi0 = phi_line(v1, v2, 0.0, model)
        phi1 = phi_line(v1, v2, 1.0, model)
        for t in np.linspace(0.1, 0.9, 5):
            affine = (1 - t) * phi0 + t * phi1
            assert phi_line(v1, v2, t, model) == pytest.approx(
                affine, rel=1e-12)

    def test_strict_gap_when_p_varies(self):
        model = make_model(p="2+x", r=2.0)
        v1 = NodeField(model.mesh,
                       interpolate(model.mesh, "x*(1-x)").values + 0.1)
        v2 = NodeField(model.mesh, 4 * v1.values)
        phi0 = phi_line(v1, v2, 0.0, model)
        phi1 = phi_line(v1, v2, 1.0, model)
        mid = phi_line(v1, v2, 0.5, model)
        assert 0.5 * (phi0 + phi1) - mid > 1e-6 * max(phi0, phi1)


class TestGateauxGradient:
    def test_zero_at_trivial_critical_point(self):
        model = make_model(h="1", q="1.5", r=2.0)
        g = gateaux_gradient(model, constant_field(model.mesh, 0.0), eps=0.0)
        assert np.all(g.values == 0.0)

    def test_linear_solution_residual(self):
        # independent tridiagonal solve of the p=2, f=1 discretization
        n = 64
        model = make_model(n=n, h="1", r=1.0)
        mesh = model.mesh
        h = 1.0 / n
        K = (np.diag(np.full(n - 1, 2.0)) + np.diag(np.full(n - 2, -1.0), 1)
             + np.diag(np.full(n - 2, -1.0), -1)) / h
        b = np.full(n - 1, h)
        u = np.zeros(mesh.n_nodes)
        u[1:-1] = np.linalg.solve(K, b)
        g = gateaux_gradient(model, NodeField(mesh, u), eps=0.0)
        assert np.abs(g.values[mesh.interior]).max() <= 1e-12

    def test_pairing_matches_directional_derivative(self):
        rng = np.random.default_rng(67)
        cases = [
            make_model(n=32, p="2+x", r=1.5, h="1", q="1.2"),
            make_model(n=32, p="2", r=1.8, h="2", q="1.5", ell="1", Q="2"),
            make_model(n=32, p="1.7+0.2*x", r=1.5, h="1", q="1.2",
                       kirchhoff=saturating_kirchhoff(1.0, 2.0)),
        ]
        from pxlaplace.energy import energy_value
        for model in cases:
            mesh = model.mesh
            for _ in range(5):
                u = np.clip(rng.uniform(0.5, 2.0, mesh.n_nodes), 0.5, None)
                u[mesh.boundary_mask] = 0.0
                phi = rng.normal(size=mesh.n_nodes)
                phi[mesh.boundary_mask] = 0.0
                uf = NodeField(mesh, u)
                g = gateaux_gradient(model, uf, eps=0.0)
                pairing = float(g.values @ phi)
                t = 1e-6
                fd = (energy_value(NodeField(mesh, u + t * phi), model, eps=0.0)
                      - energy_value(NodeField(mesh, u - t * phi), model,
                                     eps=0.0)) / (2 * t)
                assert pairing == pytest.approx(fd, rel=1e-6, abs=1e-12)


class TestModelCells:
    """Quadrature-point data are averaged once, when the model is built."""

    def test_cell_arrays_are_read_only(self):
        mesh = build_rectangle(0, 1, 0, 1, 3, 3)
        exponent = exponent_field(mesh, "2+x", r=1.5)
        aniso = weighted_quadratic(exponent, [interpolate(mesh, "1+x"),
                                              interpolate(mesh, "2-y")])
        model = EnergyModel(
            mesh, exponent, anisotropy=aniso,
            reaction=power_reaction(constant_field(mesh, 1.0),
                                    constant_field(mesh, 1.2)),
            absorption=power_absorption(constant_field(mesh, 1.0),
                                        constant_field(mesh, 2.0)))
        # one row of weights per dimension, the layout of cell gradients
        assert model.w_cells.shape == (2, mesh.n_cells)
        assert model.w_cells.flags.c_contiguous
        arrays = [model.p_cells, model.w_cells]
        arrays += [a for _, h, q in model.potentials for a in (h, q)]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert [sign for sign, _, _ in model.potentials] == [-1.0, 1.0]

    def test_isotropic_flux_has_no_weights(self):
        model = make_model(p="2+x", r=1.5)
        assert model.w_cells is None and model.potentials == ()

    def test_replace_carries_the_new_cells(self):
        from dataclasses import replace
        model = make_model(n=16, h="1", q="1.2", r=1.5, p="2+x")
        mesh = model.mesh
        h_new = interpolate(mesh, "2+x")
        new = replace(model, reaction=power_reaction(
            h_new, constant_field(mesh, 1.4)))
        (sign, h, q), = new.potentials
        assert sign == -1.0
        assert np.array_equal(h, h_new.values[mesh.cells].mean(axis=1))
        assert np.all(q == 1.4)
        assert np.all(model.potentials[0][1] == 1.0)

    def test_kirchhoff_with_absorption_rejected(self):
        # J has no absorption term: energy_value would ignore it while the
        # gradient added it
        with pytest.raises(ValueError, match="no absorption"):
            make_model(h="1", q="1.2", ell="1", Q="2", r=1.5, p="2+x",
                       kirchhoff=saturating_kirchhoff(1.0, 2.0))

    def test_anisotropy_on_another_exponent_rejected(self):
        # the energies would use p = 2+x, the anisotropy's flux p = 4
        mesh = build_rectangle(0, 1, 0, 1, 3, 3)
        weights = [constant_field(mesh, 1.0), constant_field(mesh, 2.0)]
        aniso = weighted_quadratic(exponent_field(mesh, 4.0, r=1.5), weights)
        with pytest.raises(ValueError, match="different exponent"):
            EnergyModel(mesh, exponent_field(mesh, "2+x", r=1.5),
                        anisotropy=aniso)
