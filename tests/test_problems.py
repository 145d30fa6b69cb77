import numpy as np
import pytest

from pxlaplace.energy import (KirchhoffTerm, power_absorption, power_reaction,
                              saturating_kirchhoff, source_reaction)
from pxlaplace.exponents import exponent_field
from pxlaplace.grid import build_interval, build_rectangle, constant_field, \
    interpolate
from pxlaplace.problems import (ProblemSpec, build_energy_model,
                                sharpness_regime,
                                validate_corollary_chain, validate_f,
                                validate_g, validate_M)


@pytest.fixture
def mesh():
    return build_interval(0, 1, 32)


def power(mesh, h, q):
    return power_reaction(interpolate(mesh, h), interpolate(mesh, q))


class TestValidateF:
    def test_subhomogeneous_passes(self, mesh):
        rep = validate_f(power(mesh, "1", "1.5"), r=2.0)
        assert rep.passed

    def test_q_equal_r_fails_monotonicity(self, mesh):
        rep = validate_f(power(mesh, "1", "2"), r=2.0)
        assert rep["f2"].status == "fail"

    def test_variable_q_crossing_r(self, mesh):
        # q = 1.2 + 0.5 x has q_plus = 1.7 > r = 1.6
        rep = validate_f(power(mesh, "1", "1.2+0.5*x"), r=1.6)
        assert rep["f2"].status == "fail"
        assert rep["f3"].status == "fail"

    def test_source_kind_constant_ratio_at_r1(self, mesh):
        rep = validate_f(source_reaction(constant_field(mesh, 1.0)), r=1.0)
        assert rep["f2"].status == "fail"

    def test_source_kind_passes_decay_for_r_above_one(self, mesh):
        rep = validate_f(source_reaction(constant_field(mesh, 1.0)), r=1.5)
        assert rep["f2"].status == "pass"
        assert rep["f3"].status == "pass"

    @pytest.mark.parametrize("r", [1.0, 1.5, 3.0])
    def test_a_source_and_the_power_term_with_q_one_get_one_verdict(
            self, mesh, r):
        h = interpolate(mesh, "1+x")
        source = validate_f(source_reaction(h), r)
        power_q1 = validate_f(power_reaction(h, constant_field(mesh, 1.0)), r)
        assert source.as_dict() == power_q1.as_dict()
        assert source.passed == (r > 1)

    def test_q_one_at_a_node_passes_f1(self, mesh):
        # f(x, 0) = h at x = 0 is allowed: f/s^(r-1) still decreases
        rep = validate_f(power(mesh, "1", "1+x"), r=2.5)
        assert rep["f1"].status == "pass"
        assert rep["f1"].witness == "h_min = 1.0, q_min = 1.0"
        assert rep.passed

    def test_outcome_depends_only_on_exponent_extrema(self, mesh):
        rng = np.random.default_rng(83)
        statuses = set()
        for _ in range(10):
            h = mesh.nodes[:, 0] * 0 + rng.uniform(0.1, 10, mesh.n_nodes)
            term = power_reaction(
                constant_field(mesh, 1.0).with_values(h),
                interpolate(mesh, "1.5"))
            rep = validate_f(term, r=2.0)
            statuses.add(tuple(e.status for e in rep.entries))
        assert len(statuses) == 1


class TestValidateG:
    def test_passes_in_1d(self, mesh):
        p = exponent_field(mesh, 2.0, r=2.0)
        term = power_absorption(constant_field(mesh, 1.0),
                                constant_field(mesh, 2.0))
        rep = validate_g(term, r=2.0, p=p)
        assert rep.passed

    def test_Q_below_r_fails_with_witness(self, mesh):
        p = exponent_field(mesh, 2.0, r=1.8)
        term = power_absorption(constant_field(mesh, 1.0),
                                interpolate(mesh, "1.5+0.2*x"))
        rep = validate_g(term, r=1.8, p=p)
        assert rep["g2"].status == "fail"
        assert "node" in rep["g2"].witness

    def test_growth_above_sobolev_conjugate_fails(self):
        # N=2, p=1.5: p* = 6; Q = 7 exceeds it
        mesh2 = build_rectangle(0, 1, 0, 1, 2, 2)
        p = exponent_field(mesh2, 1.5, r=1.2)
        term = power_absorption(constant_field(mesh2, 1.0),
                                constant_field(mesh2, 7.0))
        rep = validate_g(term, r=1.2, p=p)
        assert rep["g3"].status == "fail"
        assert "6.0" in rep["g3"].witness


class TestValidateM:
    def test_saturating_passes(self):
        rep = validate_M(saturating_kirchhoff(1.0, 2.0))
        assert rep.passed

    def test_zero_at_origin_fails(self):
        rep = validate_M(KirchhoffTerm(0.0, 2.0))
        assert rep["M1"].status == "fail"

    def test_decreasing_fails(self):
        rep = validate_M(KirchhoffTerm(2.0, 1.0))
        assert rep["M2"].status == "fail"


class TestCorollaryChain:
    def test_valid_chain(self, mesh):
        p = exponent_field(mesh, 2.0, r=1.8)
        rep = validate_corollary_chain(constant_field(mesh, 1.5),
                                       constant_field(mesh, 2.0), 1.8, p)
        assert rep.passed

    def test_r_equal_p_minus_fails_strictness(self, mesh):
        p = exponent_field(mesh, 2.0, r=2.0)
        rep = validate_corollary_chain(constant_field(mesh, 1.5),
                                       constant_field(mesh, 2.0), 2.0, p)
        assert rep["r < p_minus"].status == "fail"

    def test_Q_minus_below_r_fails(self, mesh):
        p = exponent_field(mesh, 2.0, r=1.8)
        rep = validate_corollary_chain(constant_field(mesh, 1.5),
                                       constant_field(mesh, 1.5), 1.8, p)
        assert rep["r <= Q_minus"].status == "fail"

    def test_chain_implies_f_and_g_pass(self, mesh):
        p = exponent_field(mesh, 2.0, r=1.8)
        q = constant_field(mesh, 1.5)
        Q = constant_field(mesh, 2.0)
        chain = validate_corollary_chain(q, Q, 1.8, p)
        assert chain.passed
        f_rep = validate_f(power_reaction(constant_field(mesh, 2.0), q), 1.8)
        g_rep = validate_g(power_absorption(constant_field(mesh, 1.0), Q),
                           1.8, p)
        assert f_rep.passed and g_rep.passed


class TestSharpnessRegime:
    def spec_for(self, mesh, p, r, q):
        exponent = exponent_field(mesh, p, r=r)
        return ProblemSpec("problem1", mesh, exponent, power(mesh, "1", q))

    def test_partial_c(self, mesh):
        tag = sharpness_regime(self.spec_for(mesh, "2+x", 2.0, "1.5"))
        assert tag.name == "unique-partial-c"
        assert tag.frac_p_above_r > 0.9

    def test_degenerate_eigen(self, mesh):
        tag = sharpness_regime(self.spec_for(mesh, "2", 2.0, "2"))
        assert tag.name == "degenerate-eigen"

    def test_unique_full(self, mesh):
        tag = sharpness_regime(self.spec_for(mesh, "2", 1.5, "1.2"))
        assert tag.name == "unique-full"

    def test_partial_d(self, mesh):
        tag = sharpness_regime(self.spec_for(mesh, "2", 2.0, "1.5"))
        assert tag.name == "unique-partial-d"
        assert tag.frac_q_below_r == 1.0

    def test_unclassified_crossing(self, mesh):
        # q straddles r: none of the uniqueness mechanisms apply
        tag = sharpness_regime(self.spec_for(mesh, "2", 1.6, "1.2+0.8*x"))
        assert tag.name == "unclassified"

    @pytest.mark.parametrize("p,r,name", [
        ("2+x", 1.5, "unique-full"), ("1.5", 1.5, "unique-partial-d"),
    ], ids=["full", "partial-d"])
    def test_a_source_is_classified(self, mesh, p, r, name):
        spec = ProblemSpec("problem1", mesh, exponent_field(mesh, p, r=r),
                           source_reaction(constant_field(mesh, 1.0)))
        assert sharpness_regime(spec).name == name

    def test_a_source_and_the_power_term_with_q_one_get_one_regime(self,
                                                                   mesh):
        exponent = exponent_field(mesh, "2+x", r=1.5)
        h = interpolate(mesh, "1+x")
        tags = [sharpness_regime(ProblemSpec("problem1", mesh, exponent, term))
                for term in (source_reaction(h),
                             power_reaction(h, constant_field(mesh, 1.0)))]
        assert tags[0] == tags[1]


class TestProblemSpec:
    def test_unknown_kind_is_refused(self, mesh):
        exponent = exponent_field(mesh, 2.0, r=1.5)
        with pytest.raises(ValueError, match="unknown problem kind 'problem3'"):
            ProblemSpec("problem3", mesh, exponent, power(mesh, "1", "1.2"))

    def test_problem2_requires_absorption(self, mesh):
        exponent = exponent_field(mesh, 2.0, r=1.8)
        with pytest.raises(ValueError, match="absorption"):
            ProblemSpec("problem2", mesh, exponent, power(mesh, "1", "1.5"))

    def test_kirchhoff_requires_term(self, mesh):
        exponent = exponent_field(mesh, 2.0, r=2.0)
        with pytest.raises(ValueError, match="Kirchhoff"):
            ProblemSpec("kirchhoff", mesh, exponent, power(mesh, "1", "1.5"))

    @pytest.mark.parametrize("part", ["reaction", "absorption"])
    def test_term_fields_on_another_mesh_are_refused(self, part):
        # same size, other domain: read node by node, q's values would
        # pass for the exponent mesh's and move the regime and f2/f3
        home, other = build_interval(0, 1, 16), build_interval(0, 2, 16)
        exponent = exponent_field(home, "2+x", r=1.5)
        reaction = power(other if part == "reaction" else home, "1", "1.2")
        absorption = power_absorption(
            *[constant_field(other if part == "absorption" else home, v)
              for v in (1.0, 2.0)])
        with pytest.raises(ValueError,
                           match="term field sampled on a different mesh"):
            ProblemSpec("problem2", home, exponent, reaction, absorption)


    def test_the_spec_keeps_its_one_model(self, mesh):
        # built once, with the spec: the model of a problem1 leaves out
        # the absorption and Kirchhoff terms its kind does not read
        exponent = exponent_field(mesh, "2+x", r=1.5)
        spec = ProblemSpec(
            "problem1", mesh, exponent, power(mesh, "1", "1.2"),
            power_absorption(constant_field(mesh, 1.0),
                             constant_field(mesh, 2.0)),
            saturating_kirchhoff(1.0, 2.0))
        assert build_energy_model(spec) is spec.model
        assert spec.model.exponent is exponent
        assert spec.model.reaction is spec.reaction
        assert spec.model.absorption is None
        assert spec.model.kirchhoff is None


@pytest.mark.parametrize("n", [16, 8])
def test_validate_g_refuses_a_term_on_another_mesh(n):
    # an equal-sized Q used to pass silently and an 8-cell one raised
    # numpy's broadcast error
    home, other = build_interval(0, 1, 16), build_interval(0, 2, n)
    term = power_absorption(constant_field(other, 1.0),
                            constant_field(other, 2.0))
    with pytest.raises(ValueError, match="term field sampled on a different"):
        validate_g(term, r=1.5, p=exponent_field(home, "2+x", r=1.5))
