import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, lapack
from scipy.optimize import brentq

from pxlaplace import energy, grid, solver
from pxlaplace.anisotropy import AnisotropyModel, weighted_quadratic
from pxlaplace.energy import (EnergyModel, KirchhoffTerm, dirichlet_part,
                              energy_value, gateaux_gradient, kirchhoff_M,
                              power_absorption, power_reaction,
                              saturating_kirchhoff, source_reaction)
from pxlaplace.exponents import exponent_field, modular
from pxlaplace.grid import NodeField, build_interval, build_rectangle, \
    cell_average, constant_field, interpolate
from pxlaplace.inequality import comparison_check, diaz_saa_gap, ratio_bound
from pxlaplace.problems import ProblemSpec, build_energy_model
from pxlaplace.solver import (SolverOptions, first_eigenpair, hopf_diagnostic,
                              initial_guess, minimize_energy, solve_kirchhoff,
                              solve_problem1, solve_problem2,
                              uniqueness_experiment, weak_residual)


def problem1_spec(n=128, p="2", r=2.0, h="1", q="1.5", mesh=None):
    mesh = mesh or build_interval(0, 1, n)
    exponent = exponent_field(mesh, p, r=r)
    if q is None:
        reaction = source_reaction(interpolate(mesh, h))
    else:
        reaction = power_reaction(interpolate(mesh, h), interpolate(mesh, q))
    return ProblemSpec("problem1", mesh, exponent, reaction)


def shoot_sqrt_reaction(nodes, s_lo=1e-4, s_hi=2.0):
    """Independent two-point BVP oracle for -u'' = sqrt(max(u, 0)),
    u(0) = u(1) = 0, u > 0, via shooting on the initial slope."""

    def rhs(_, y):
        return [y[1], -np.sqrt(max(y[0], 0.0))]

    def terminal(s):
        sol = solve_ivp(rhs, (0.0, 1.0), [0.0, s], rtol=1e-11, atol=1e-12,
                        dense_output=True)
        return sol.sol(1.0)[0]

    s_star = brentq(terminal, s_lo, s_hi, xtol=1e-13)
    sol = solve_ivp(rhs, (0.0, 1.0), [0.0, s_star], rtol=1e-11, atol=1e-12,
                    dense_output=True)
    return sol.sol(nodes)[0]


class TestLinearOracle:
    def test_nodal_solution_and_residual(self):
        spec = problem1_spec(n=256, r=1.0, q=None)
        rep = solve_problem1(spec, SolverOptions(), override=True)
        x = spec.mesh.nodes[:, 0]
        assert rep.converged
        assert np.abs(rep.solution.values - x * (1 - x) / 2).max() <= 1e-10
        assert rep.residual_max <= 1e-8

    def test_weak_residual_of_direct_solve(self):
        # independent tridiagonal assembly; its solution has zero residual
        n = 64
        spec = problem1_spec(n=n, r=1.0, q=None)
        h = 1.0 / n
        K = (np.diag(np.full(n - 1, 2.0)) + np.diag(np.full(n - 2, -1.0), 1)
             + np.diag(np.full(n - 2, -1.0), -1)) / h
        u = np.zeros(spec.mesh.n_nodes)
        u[1:-1] = np.linalg.solve(K, np.full(n - 1, h))
        assert weak_residual(NodeField(spec.mesh, u), spec) <= 1e-12

    def test_zero_field_zero_residual_for_superlinear_reaction(self):
        spec = problem1_spec(n=32, q="1.5")
        assert weak_residual(constant_field(spec.mesh, 0.0), spec) == 0.0


class TestInitialGuess:
    def test_negative_energy_scale_found(self):
        spec = problem1_spec(n=64)
        model = build_energy_model(spec)
        u0, found = initial_guess(model, SolverOptions())
        assert found is True
        from pxlaplace.energy import energy_value
        assert energy_value(u0, model) < 0

    def test_tiny_reaction_flags_no_negative_scale(self):
        spec = problem1_spec(n=64, h="1e-12", q="2", r=1.0)
        model = build_energy_model(spec)
        _, found = initial_guess(model, SolverOptions())
        assert found is False

    def test_provided_field_passes_through(self):
        spec = problem1_spec(n=32)
        model = build_energy_model(spec)
        given = constant_field(spec.mesh, 0.0).with_values(
            np.linspace(0, 0, spec.mesh.n_nodes))
        u0, found = initial_guess(model, SolverOptions(init=given))
        assert u0 is given and found is None

    @pytest.mark.parametrize("mesh", [
        build_interval(0, 1, 64), build_interval(0, 2, 32),
    ], ids=["more-cells", "other-domain"])
    def test_field_on_another_mesh_is_refused(self, mesh):
        # a 32-cell problem on (0, 1); meshes are compared by identity
        model = build_energy_model(problem1_spec(n=32))
        init = NodeField(mesh, np.zeros(mesh.n_nodes))
        with pytest.raises(ValueError, match="different mesh"):
            initial_guess(model, SolverOptions(init=init))


@pytest.mark.parametrize("mesh", [
    build_interval(0, 1, 64), build_interval(0, 2, 32),
], ids=["more-cells", "other-domain"])
@pytest.mark.parametrize("entry", ["energy_value", "phi_line", "phi_prime",
                                   "diaz_saa_gap", "weak_residual"])
def test_entry_points_refuse_a_field_on_another_mesh(entry, mesh):
    # a 32-cell problem on (0, 1), and positive zero-trace fields on
    # another mesh; meshes are compared by identity
    spec = problem1_spec(n=32, p="2+x", r=1.5, q="1.2")
    model = build_energy_model(spec)
    u = NodeField(mesh, solver._bump_profile(mesh))
    v = u.with_values(2.0 * u.values)
    calls = {"energy_value": lambda: energy_value(u, model),
             "phi_line": lambda: energy.phi_line(u, v, 0.5, model),
             "phi_prime": lambda: energy.phi_prime(u, v, 0.5, model),
             "diaz_saa_gap": lambda: diaz_saa_gap(u, v, model),
             "weak_residual": lambda: weak_residual(u, spec)}
    with pytest.raises(ValueError, match="field sampled on a different mesh"):
        calls[entry]()


# every public entry point that takes a field or an exponent, each given
# one sampled on ``other``: 16 cells of (0, 2), with as many nodes as the
# model's 16 cells of (0, 1), so no shape error can stand in for the check
MESH_RULE_ENTRIES = {
    "W_functional": lambda m, u, o: energy.W_functional(o, m),
    "W_A_functional": lambda m, u, o: energy.W_A_functional(o, m),
    "dirichlet_part": lambda m, u, o: dirichlet_part(o, m),
    "energy_value": lambda m, u, o: energy_value(o, m),
    "gateaux_gradient": lambda m, u, o: gateaux_gradient(m, o),
    "phi_line": lambda m, u, o: energy.phi_line(u, o, 0.5, m),
    "phi_prime": lambda m, u, o: energy.phi_prime(u, o, 0.5, m),
    "cone_delta": lambda m, u, o: energy.cone_delta(u, o),
    "diaz_saa_gap": lambda m, u, o: diaz_saa_gap(u, o, m),
    "ratio_bound": lambda m, u, o: ratio_bound(u, o),
    "comparison_check": lambda m, u, o: comparison_check(
        u, o, m.reaction.h, m.reaction.h, m, 1e-8),
    "modular": lambda m, u, o: modular(o, m.exponent),
    "initial_guess": lambda m, u, o: initial_guess(
        m, SolverOptions(init=o)),
    "EnergyModel": lambda m, u, o: EnergyModel(
        m.mesh, exponent_field(o.mesh, "2+x", r=1.5)),
    "AnisotropyModel": lambda m, u, o: AnisotropyModel(
        m.exponent, (o.with_values(1.0 + o.values),)),
    "ProblemSpec": lambda m, u, o: ProblemSpec(
        "problem1", m.mesh, exponent_field(o.mesh, "2+x", r=1.5),
        m.reaction),
}


@pytest.mark.parametrize("entry", MESH_RULE_ENTRIES)
def test_every_entry_point_refuses_another_mesh_of_equal_size(entry):
    model = build_energy_model(
        problem1_spec(n=16, p="2+x", r=1.5, q="1.2"))
    other = build_interval(0, 2, 16)
    u = NodeField(model.mesh, solver._bump_profile(model.mesh))
    o = NodeField(other, solver._bump_profile(other))
    with pytest.raises(ValueError, match="sampled on a different mesh"):
        MESH_RULE_ENTRIES[entry](model, u, o)


@pytest.mark.parametrize("grad_tol", ["1e-9", None, 1e-9 + 0j],
                         ids=["str", "none", "complex"])
def test_non_real_grad_tol_is_refused(grad_tol):
    with pytest.raises(ValueError,
                       match="grad_tol must be positive and finite"):
        SolverOptions(grad_tol=grad_tol)


class TestSubhomogeneousInstance:
    def test_against_shooting_oracle(self):
        spec = problem1_spec(n=256)
        rep = solve_problem1(spec, SolverOptions())
        assert rep.converged and rep.positivity_ok
        assert rep.negative_energy
        assert rep.hopf_margin > 0
        oracle = shoot_sqrt_reaction(spec.mesh.nodes[:, 0])
        assert np.abs(rep.solution.values - oracle).max() <= 1e-3

    def test_refinement_convergence_of_linear_instance(self):
        # function-space max-norm error of the P1 interpolant is O(h^2)
        errs = []
        for n in (32, 64, 128):
            spec = problem1_spec(n=n, r=1.0, q=None)
            rep = solve_problem1(spec, SolverOptions(), override=True)
            x = spec.mesh.nodes[:, 0]
            mids = 0.5 * (x[:-1] + x[1:])
            u_mid = 0.5 * (rep.solution.values[:-1] + rep.solution.values[1:])
            err_nodes = np.abs(rep.solution.values - x * (1 - x) / 2).max()
            err_mids = np.abs(u_mid - mids * (1 - mids) / 2).max()
            errs.append(max(err_nodes, err_mids))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.9)

    def test_variable_exponent_instance(self, regression):
        spec = problem1_spec(n=128, p="2+x", r=1.5, h="1", q="1.2")
        rep = solve_problem1(spec, SolverOptions())
        assert rep.converged and rep.positivity_ok
        assert rep.hopf_margin > 0
        regression("problem1_p2x_sup_u", float(rep.solution.values.max()),
                   rel_tol=1e-6)

    def test_validator_gate(self):
        spec = problem1_spec(n=32, q="2")  # q = r: hypotheses fail
        with pytest.raises(ValueError, match="hypotheses fail"):
            solve_problem1(spec, SolverOptions())
        rep = solve_problem1(spec, SolverOptions(), override=True)
        assert rep.regime == "degenerate-eigen"

    def test_nonconvergence_flagged(self):
        spec = problem1_spec(n=128)
        rep = solve_problem1(spec, SolverOptions(max_iters=1))
        assert not rep.converged

    def test_frozen_stage_ends_early(self):
        # the cap is far above what any stage needs at n = 48, so raising
        # it must not change the result; a stage that reaches the
        # floating-point floor (an accepted step leaving the iterate
        # bitwise unchanged) ends there instead of repeating that step
        spec = problem1_spec(n=48, p="2+x", r=1.5, q="1.2")
        short = solve_problem1(spec, SolverOptions(max_iters=500))
        long = solve_problem1(spec, SolverOptions(max_iters=5000))
        assert short.solution.values.tobytes() == long.solution.values.tobytes()
        assert short.iterations == long.iterations
        assert max(short.iterations) < 499
        assert (short.energy, short.residual_max, short.converged) == \
            (long.energy, long.residual_max, long.converged)

    def test_one_energy_evaluation_per_trial(self, monkeypatch):
        # README instance.  Besides the value of initial_guess's chosen
        # amplitude and the report's final value, the descent evaluates the
        # energy once per eps-stage start and once per line-search trial;
        # most iterations accept their first trial
        spec = problem1_spec(n=256, p="2+x", r=1.5, q="1.2")
        calls = []
        real = solver.energy_value

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "energy_value", counting)
        rep = solve_problem1(spec, SolverOptions())
        descent = len(calls) - 1 - 1
        assert descent <= 1.1 * (sum(rep.iterations) + len(rep.iterations))

    @pytest.mark.parametrize("kind", ["problem1", "kirchhoff"])
    def test_each_field_is_differentiated_once(self, monkeypatch, kind):
        # README instance, and its Kirchhoff variant.  Through a stand-in
        # for the one gradient kernel: the amplitude scan differentiates
        # its profile, and every field the solve takes an energy, a
        # Dirichlet part, a gradient or a metric at is differentiated
        # exactly once, however many of them it meets
        spec = problem1_spec(n=256, p="2+x", r=1.5, q="1.2")
        if kind == "kirchhoff":
            spec = replace(spec, kind=kind,
                           kirchhoff=saturating_kirchhoff(1.0, 2.0))
        real = grid._gradient
        differentiated, fields = [], {}

        def counting(mesh, nodal):
            differentiated.append(nodal)
            return real(mesh, nodal)

        def recording(fn, pos):
            def record(*args, **kwargs):
                fields[id(args[pos])] = args[pos]
                return fn(*args, **kwargs)
            return record

        for module in (grid, energy, solver):
            monkeypatch.setattr(module, "_gradient", counting)
        for name, pos in (("energy_value", 0), ("dirichlet_part", 0),
                          ("gateaux_gradient", 1), ("_interior_matrix", 1)):
            monkeypatch.setattr(solver, name,
                                recording(getattr(solver, name), pos))
        rep = solver.solve(spec, SolverOptions())
        assert rep.converged
        assert len({id(a) for a in differentiated}) == len(differentiated)
        assert len(differentiated) == len(fields) + 1

    def test_converged_needs_every_stage(self):
        # p = 1.5+x < 2 near x = 0 runs the seven-rung ladder: the first
        # three stages stop at the cap and report max_iters - 1 steps, the
        # rest meet grad_tol, and so does the final residual; the capped
        # stages alone make the solve unconverged
        opts = SolverOptions(max_iters=3)
        rep = solve_problem1(problem1_spec(n=256, p="1.5+x", r=1.5, q="1.2"),
                             opts)
        assert rep.iterations == (2, 2, 2, 1, 1, 0, 0)
        assert rep.stage_exits == ("max_iters",) * 3 + ("tol",) * 4
        assert rep.residual_max <= opts.grad_tol
        assert not rep.converged
        # README instance: its one stage stops at the cap
        rep = solve_problem1(problem1_spec(n=256, p="2+x", r=1.5, q="1.2"),
                             opts)
        assert (rep.iterations, rep.stage_exits) == ((2,), ("max_iters",))
        assert not rep.converged

    def test_converged_needs_the_unregularized_residual(self):
        # p = 1.5 < 2: every stage meets grad_tol on its regularized
        # gradient, but the unregularized residual stays above it
        opts = SolverOptions()
        spec = problem1_spec(n=128, p="1.5", r=1.5, q="1.2")
        rep = solve_problem1(spec, opts)
        assert rep.iterations == (12, 13, 10, 6, 4, 3, 1)
        assert rep.residual_max > opts.grad_tol
        assert not rep.converged

    def test_eps_ladder_has_seven_stages(self):
        # 1e-2 down to 1e-8 by factors of 0.1, with no repeat of the last
        # rung; a model with p < 2 on some cell runs one stage per rung
        # (test_p_below_two_keeps_the_seven_rungs)
        assert len(solver.EPS_LADDER) == 7
        assert np.allclose(solver.EPS_LADDER, 10.0 ** -np.arange(2, 9),
                           rtol=1e-15, atol=0)

    def test_p_at_least_two_runs_the_last_rung_alone(self):
        # README instance, p = 2+x >= 2 on every cell: one stage at
        # eps = 1e-8, within 1e-12 of the energy the seven rungs reach
        # (-0x1.69a482c3d8dc4p-6)
        rep = solve_problem1(problem1_spec(n=256, p="2+x", r=1.5, q="1.2"),
                             SolverOptions())
        assert rep.converged
        assert (rep.iterations, rep.stage_exits) == ((8,), ("tol",))
        assert rep.energy == pytest.approx(
            float.fromhex("-0x1.69a482c3d8dc4p-6"), rel=1e-12, abs=0)

    @pytest.mark.parametrize("p, n, opts, iterations, energy", [
        # from this start one rung caps at 499 steps and ends above the
        # energy the seven rungs reach
        ("1.5", 128, SolverOptions(max_iters=500, init="random", seed=0),
         (14, 13, 10, 6, 4, 3, 1), "-0x1.7b3f638abe884p-13"),
        ("1.5+x", 128, SolverOptions(),
         (9, 6, 3, 1, 1, 0, 0), "-0x1.a7512556c4a18p-8")])
    def test_p_below_two_keeps_the_seven_rungs(self, p, n, opts, iterations,
                                               energy):
        # p < 2 on some cell: the flux weight is singular there, and the
        # solve walks every rung of EPS_LADDER, bit for bit as before the
        # one-rung rule
        rep = solve_problem1(problem1_spec(n=n, p=p, r=1.5, q="1.2"), opts)
        assert rep.iterations == iterations
        assert rep.stage_exits == ("tol",) * 7
        assert rep.energy == float.fromhex(energy)

    def test_converged_residual_within_grad_tol_margin(self):
        opts = SolverOptions()
        for spec in (problem1_spec(n=64),
                     problem1_spec(n=64, p="2+x", r=1.5, q="1.2")):
            rep = solve_problem1(spec, opts)
            assert rep.converged
            assert rep.residual_max <= 10 * opts.grad_tol

    def test_iteration_budget(self):
        # README instance: the Newton metric converges superlinearly in
        # every eps-stage; a linear-rate metric needs thousands of steps
        spec = problem1_spec(n=256, p="2+x", r=1.5, q="1.2")
        rep = solve_problem1(spec, SolverOptions())
        assert rep.converged
        assert rep.stage_exits == ("tol",)
        assert sum(rep.iterations) <= 40


def _bench_spec(kind, n, dim=1):
    # p = 2+x, r = 1.5, h = 1, q = 1.2; absorption ell = 1 with power 2,
    # Kirchhoff M(s) saturating from 1 to 2
    mesh = build_interval(0, 1, n) if dim == 1 else \
        build_rectangle(0, 1, 0, 1, n, n)
    spec = problem1_spec(mesh=mesh, p="2+x", r=1.5, q="1.2")
    if kind == "problem1":
        return spec
    if kind == "problem2":
        return replace(spec, kind=kind, absorption=power_absorption(
            constant_field(mesh, 1.0), constant_field(mesh, 2.0)))
    return replace(spec, kind=kind, kirchhoff=saturating_kirchhoff(1.0, 2.0))


@pytest.mark.parametrize("kind, n, dim", [("problem1", 48, 1),
                                          ("problem2", 40, 1),
                                          ("kirchhoff", 48, 1),
                                          ("problem1", 8, 2)])
def test_unreachable_tolerance_stops_at_the_floor(kind, n, dim):
    # no stage can meet grad_tol = 1e-300, so it must end on a stall exit,
    # far below the cap; here the one stage of p = 2+x >= 2 ends on a
    # frozen iterate
    opts = SolverOptions(grad_tol=1e-300, max_iters=500)
    rep = solver.solve(_bench_spec(kind, n, dim), opts)
    assert rep.stage_exits == ("frozen",)
    assert max(rep.iterations) < opts.max_iters // 2
    assert not rep.converged


def _steep_spec():
    # p = 20 > r = 1.5 > q = 1.2: the hypotheses hold (regime unique-full),
    # but the flux weight (eps^2 + |u'|^2)^9 overflows on steep trials and
    # spans more than sixteen orders of magnitude across the metric
    return problem1_spec(n=32, p="20", r=1.5, q="1.2")


def _start(model, opts):
    # the start minimize_energy descends from: the initial guess, zeroed
    # on the boundary
    v = initial_guess(model, opts)[0].values.copy()
    v[model.mesh.boundary_mask] = 0.0
    return NodeField(model.mesh, v)


STEEP_ENERGY = -0.14131811913206757


def test_overflowing_trials_end_every_stage_on_the_floor(monkeypatch):
    # from the bump the unshifted Newton direction is about 1e22 long, so
    # every trial down to t = 1e-18 has a huge or overflowing energy: on
    # the unshifted metric alone the stage takes no step.  The retries on
    # the shifted metric reach the solution.  p = 20 >= 2, so the solve
    # runs the last rung alone
    opts = SolverOptions()
    model = build_energy_model(_steep_spec())
    start = _start(model, opts)
    with pytest.warns(RuntimeWarning, match="overflow"):
        u, iterations, exits = solver._descend(model, start,
                                               solver.EPS_LADDER[-1:], opts)
    assert iterations == (15,)
    assert exits == ("tol",)
    with pytest.warns(RuntimeWarning, match="overflow"):
        rep = solver.solve(_steep_spec(), opts)
    assert rep.regime == "unique-full"
    assert (rep.iterations, rep.stage_exits) == (iterations, exits)
    assert rep.solution.values.tobytes() == u.values.tobytes()
    assert rep.converged
    assert rep.energy == pytest.approx(STEEP_ENERGY, rel=1e-12)
    monkeypatch.setattr(solver, "SHIFTS", (0.0,))
    with pytest.warns(RuntimeWarning, match="overflow"):
        unshifted = solver._descend(model, start, solver.EPS_LADDER[-1:],
                                    opts)
    assert unshifted[1:] == ((0,), ("floor",))
    # so does every stage of the seven-rung ladder
    with pytest.warns(RuntimeWarning, match="overflow"):
        unshifted = solver._descend(model, start, solver.EPS_LADDER, opts)
    assert unshifted[1:] == ((0,) * 7, ("floor",) * 7)


def test_non_finite_start_energy_raises():
    # from the bump times 1e120 the energy overflows to inf while the
    # gradient stays finite, so the descent refuses the model inputs
    # instead of assembling a metric
    spec = problem1_spec(n=16, p="2+x", r=1.5, q="1.2")
    init = NodeField(spec.mesh, 1e120 * solver._bump_profile(spec.mesh))
    with pytest.warns(RuntimeWarning, match="overflow encountered in power"):
        with pytest.raises(ValueError, match="non-finite energy"):
            minimize_energy(build_energy_model(spec),
                            SolverOptions(init=init))


def test_singular_metric_floors_and_the_rerun_converges():
    # from this start SuperLU finds the unshifted metric exactly singular
    # and the Newton direction is NaN; the retries on the shifted metric
    # converge, and no trial overflows
    opts = SolverOptions(init="random", seed=3)
    with pytest.warns(spla.MatrixRankWarning) as caught:
        rep = solver.solve(_steep_spec(), opts)
    assert {w.category for w in caught} == {spla.MatrixRankWarning}
    assert rep.iterations == (26,)
    assert rep.stage_exits == ("tol",)
    assert rep.converged and rep.positivity_ok
    assert rep.energy == pytest.approx(STEEP_ENERGY, rel=1e-12)


# random starts of _steep_spec where, on the seven-rung ladder and the
# unshifted metric alone, the first stages end on the floor and the later
# ones meet grad_tol: (iterations and stage exits on the seven rungs
# unshifted, iterations on the seven rungs with the shifts, iterations of
# the solve, which runs the last rung alone)
EARLY_FLOOR = {14: ((2, 26, 2, 1, 0, 0, 0), ("floor",) + ("tol",) * 6,
                    (34, 3, 2, 1, 0, 0, 0), (31,)),
               15: ((0, 1, 36, 1, 0, 0, 0), ("floor",) * 2 + ("tol",) * 5,
                    (30, 3, 2, 1, 0, 0, 0), (34,))}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("seed", sorted(EARLY_FLOOR))
def test_early_floor_exits_still_converge(seed, monkeypatch):
    # on the seven rungs the shifted retries take the place of those
    # floors: every stage meets grad_tol, on the solution the bump reaches
    # on them, bit for bit.  The solve's one rung meets grad_tol with or
    # without the shifts, at the bump's energy
    unshifted_iterations, unshifted_exits, ladder_iterations, iterations = \
        EARLY_FLOOR[seed]
    opts = SolverOptions(init="random", seed=seed)
    model = build_energy_model(_steep_spec())
    start = _start(model, opts)
    u, its, exits = solver._descend(model, start, solver.EPS_LADDER, opts)
    assert (its, exits) == (ladder_iterations, ("tol",) * 7)
    bump = solver._descend(model, _start(model, SolverOptions()),
                           solver.EPS_LADDER, opts)[0]
    assert u.values.tobytes() == bump.values.tobytes()
    rep = solver.solve(_steep_spec(), opts)
    assert rep.converged
    assert rep.iterations == iterations
    assert rep.stage_exits == ("tol",)
    assert rep.energy == pytest.approx(STEEP_ENERGY, rel=1e-12)
    monkeypatch.setattr(solver, "SHIFTS", (0.0,))
    u, its, exits = solver._descend(model, start, solver.EPS_LADDER, opts)
    assert (its, exits) == (unshifted_iterations, unshifted_exits)
    assert energy_value(u, model) == pytest.approx(STEEP_ENERGY, rel=1e-12)
    unshifted = solver.solve(_steep_spec(), opts)
    assert unshifted.converged
    assert (unshifted.iterations, unshifted.stage_exits) == \
        (iterations, ("tol",))
    assert unshifted.solution.values.tobytes() == \
        rep.solution.values.tobytes()


def test_nan_direction_ends_every_stage_on_the_floor(monkeypatch):
    # README instance, through a stand-in spsolve that returns NaN: its
    # one stage solves once on the unshifted metric and once on every
    # shift, then ends on the floor, and the iterate never moves from the
    # start
    solved = []

    def spsolve(K, b, **kwargs):
        solved.append(K)
        return np.full_like(b, np.nan)

    monkeypatch.setattr(solver, "spla", SimpleNamespace(spsolve=spsolve))
    opts = SolverOptions()
    model = build_energy_model(problem1_spec(n=64, p="2+x", r=1.5, q="1.2"))
    rep = minimize_energy(model, opts)
    assert rep.iterations == (0,)
    assert rep.stage_exits == ("floor",)
    assert not rep.converged
    assert rep.solution.values.tobytes() == \
        _start(model, opts).values.tobytes()
    shifts = solver.SHIFTS
    assert len(solved) == len(shifts)
    K, *shifted = solved
    for mu, A in zip(shifts[1:], shifted):
        assert np.array_equal(A.toarray(), K.toarray() + mu * np.eye(
            K.shape[0]) * K.diagonal().max())


def test_shifts_run_from_zero_to_1e8():
    # 0, then 1e-10 up to 1e8 by factors of a hundred
    assert solver.SHIFTS == (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2,
                             1e4, 1e6, 1e8)


def test_unshifted_step_solves_the_assembled_matrix(monkeypatch):
    # README instance: no step needs a shift, so each Newton step solves
    # with the very matrix object grid.assemble returned
    assembled, solved = [], []
    real_assemble, real_spsolve = solver.assemble, spla.spsolve

    def assemble(mesh, loc):
        assembled.append(real_assemble(mesh, loc))
        return assembled[-1]

    def spsolve(K, b, **kwargs):
        solved.append(K)
        return real_spsolve(K, b, **kwargs)

    monkeypatch.setattr(solver, "assemble", assemble)
    monkeypatch.setattr(solver, "spla", SimpleNamespace(spsolve=spsolve))
    rep = solve_problem1(problem1_spec(n=256, p="2+x", r=1.5, q="1.2"),
                         SolverOptions())
    assert rep.converged
    assert len(solved) == len(assembled) == sum(rep.iterations)
    assert all(K is A for K, A in zip(solved, assembled))


# problem1 with p = 40, r = 1.5, q = 1.2: the energy every start reaches
STEEP_P40_ENERGY = {1: -0.15289846689004, 2: -0.08913471970409}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
@pytest.mark.parametrize("dim", [1, 2])
def test_p40_converges_from_every_start(dim):
    # the unshifted metric's weight (eps^2 + |grad u|^2)^19 spans dozens
    # of decades: its step overflows, and from two of the 1D starts the
    # metric is exactly singular in floating point.  With the shifts the
    # bump and four random starts all converge, to one energy, as the
    # uniqueness of the sublinear problem's minimizer says they must
    mesh = build_interval(0, 1, 32) if dim == 1 else \
        build_rectangle(0, 1, 0, 1, 8, 8)
    model = build_energy_model(
        problem1_spec(mesh=mesh, p="40", r=1.5, q="1.2"))
    starts = [SolverOptions()] + [SolverOptions(init="random", seed=s)
                                  for s in range(4)]
    for opts in starts:
        rep = minimize_energy(model, opts)
        assert rep.converged
        assert rep.stage_exits == ("tol",)
        assert rep.energy == pytest.approx(STEEP_P40_ENERGY[dim], rel=1e-12)


def test_frozen_stage_counts_when_the_residual_meets_grad_tol():
    # p = 1.7+x < 2 near x = 0 runs the seven-rung ladder: the fifth stage
    # ends on a frozen iterate, every other one on tol, and the final
    # residual is below grad_tol, so the solve converged
    opts = SolverOptions(init="random", seed=4)
    rep = solver.solve(problem1_spec(n=256, p="1.7+x", r=1.5, q="1.2"), opts)
    assert rep.iterations == (9, 3, 2, 1, 3, 1, 0)
    assert rep.stage_exits == ("tol",) * 4 + ("frozen",) + ("tol",) * 2
    assert rep.residual_max <= opts.grad_tol
    assert rep.converged


@pytest.mark.parametrize("init", ["bump", "random"])
@pytest.mark.parametrize("kind", ["problem1", "problem2", "kirchhoff"])
def test_batched_scan_matches_energy_loop(kind, init):
    # the amplitude scan evaluates all amplitudes as one array; it keeps
    # the amplitude, and the flag, of one energy_value call per amplitude
    model = build_energy_model(_bench_spec(kind, 48))
    mesh = model.mesh
    opts = SolverOptions(init=init, seed=4)
    if init == "bump":
        prof = solver._bump_profile(mesh)
    else:
        prof = np.exp(np.random.default_rng(4).uniform(-1.0, 1.0,
                                                       mesh.n_nodes))
        prof[mesh.boundary_mask] = 0.0
    ts = np.geomspace(1e-4, 10.0, 60)
    energies = [energy_value(NodeField(mesh, t * prof), model) for t in ts]
    k = int(np.argmin(energies))
    u0, found = initial_guess(model, opts)
    assert u0.values.tobytes() == (ts[k] * prof).tobytes()
    assert found is bool(energies[k] < 0.0)


@pytest.mark.parametrize("kind", ["problem2", "kirchhoff"])
def test_random_init_converges(kind):
    # from this start a linear-rate metric stalls at the floating-point
    # floor of a stage above grad_tol
    opts = SolverOptions(init="random", seed=1)
    rep = solver.solve(_bench_spec(kind, 48), opts)
    assert rep.converged
    assert rep.residual_max <= opts.grad_tol


def _difference_jacobian(model, u, eps, step=1e-6):
    """Central differences of the interior gradient entries."""
    interior = model.mesh.interior
    cols = []
    for j in interior:
        e = np.zeros_like(u)
        e[j] = step
        g_plus = gateaux_gradient(model, NodeField(model.mesh, u + e), eps)
        g_minus = gateaux_gradient(model, NodeField(model.mesh, u - e), eps)
        cols.append((g_plus.values - g_minus.values)[interior] / (2 * step))
    return np.array(cols).T


@pytest.mark.parametrize("flux", ["isotropic", "weighted"])
@pytest.mark.parametrize("p", ["2+x", 1.5])
@pytest.mark.parametrize("dim", [1, 2])
def test_metric_is_exact_hessian(dim, p, flux):
    # without a reaction the metric is the Hessian of the regularized
    # energy: it matches the difference Jacobian of the gradient
    if dim == 1:
        mesh = build_interval(0, 1, 12)
        weights = [interpolate(mesh, "1+x")]
    else:
        mesh = build_rectangle(0, 1, 0, 1, 5, 4)
        weights = [interpolate(mesh, "1+x"), interpolate(mesh, "2-y")]
    exponent = exponent_field(mesh, p, r=1.5)
    anisotropy = None
    if flux == "weighted":
        anisotropy = weighted_quadratic(exponent, weights)
    model = EnergyModel(mesh, exponent, anisotropy=anisotropy)
    u = np.random.default_rng(3).uniform(0.0, 1.0, mesh.n_nodes)
    u[mesh.boundary_mask] = 0.0
    eps = 1e-2
    K = grid.assemble(mesh, solver._interior_matrix(
        model, NodeField(mesh, u), eps)).toarray()
    J = _difference_jacobian(model, u, eps)
    assert np.abs(K - J).max() <= 1e-7 * np.abs(J).max()
    # the sparse assembly sums duplicate entries in either order
    assert np.abs(K - K.T).max() <= 1e-14 * np.abs(K).max()
    assert np.linalg.eigvalsh(K).min() > 0


@pytest.mark.parametrize("flux", ["isotropic", "weighted", "kirchhoff"])
@pytest.mark.parametrize("dim", [1, 2])
def test_planned_metric_matches_coo_assembly(dim, flux):
    # the metric summed into the mesh's fixed interior pattern equals a
    # COO assembly of local matrices formed cell by cell; under a
    # Kirchhoff term (isotropic flux) every entry is scaled by M(D)
    if dim == 1:
        mesh = build_interval(0, 2, 13)
        weights = [interpolate(mesh, "1+x")]
    else:
        mesh = build_rectangle(0, 1.5, 0, 1, 6, 5)
        weights = [interpolate(mesh, "1+x"), interpolate(mesh, "2-y")]
    exponent = exponent_field(mesh, "2+x", r=1.5)
    anisotropy = None
    if flux == "weighted":
        anisotropy = weighted_quadratic(exponent, weights)
    kirchhoff = None
    if flux == "kirchhoff":
        kirchhoff = saturating_kirchhoff(1.0, 3.0)
    model = EnergyModel(mesh, exponent, anisotropy=anisotropy,
                        kirchhoff=kirchhoff)
    u = np.random.default_rng(5).uniform(0.0, 1.0, mesh.n_nodes)
    u[mesh.boundary_mask] = 0.0
    eps, pref = 1e-2, 1.0
    if flux == "kirchhoff":
        pref = kirchhoff_M(kirchhoff, dirichlet_part(NodeField(mesh, u),
                                                      model, eps))
        assert pref > 1.0
    idx = np.full(mesh.n_nodes, -1)
    idx[mesh.interior] = np.arange(mesh.interior.size)
    rows, cols, vals = [], [], []
    for c, cell in enumerate(mesh.cells):
        G = mesh.shape_grads[c]
        W = np.eye(mesh.dimension) if model.w_cells is None else \
            np.diag(model.w_cells[:, c])
        p = model.p_cells[c]
        xi = G.T @ u[cell]
        s = eps ** 2 + xi @ W @ xi
        omega = pref * s ** ((p - 2) / 2) * mesh.cell_measures[c]
        a = G @ W @ xi
        loc = omega * G @ W @ G.T + omega * (p - 2) / s * np.outer(a, a)
        for i, j in np.ndindex(loc.shape):
            if idx[cell[i]] >= 0 and idx[cell[j]] >= 0:
                rows.append(idx[cell[i]])
                cols.append(idx[cell[j]])
                vals.append(loc[i, j])
    n = mesh.interior.size
    ref = sp.coo_array((vals, (rows, cols)), shape=(n, n)).toarray()
    K = grid.assemble(mesh, solver._interior_matrix(
        model, NodeField(mesh, u), eps))
    assert K.format == "csr" and K.has_sorted_indices
    assert np.abs(K.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()
    if flux != "weighted":
        # first_eigenpair's band Cholesky reads the lower triangle alone
        assert (K.T.toarray() == K.toarray()).all()


def test_interior_plan_is_built_once_per_mesh():
    # two solves and both eigen paths on one mesh fill the plan the first
    # solve built and kept with the mesh; its arrays are read-only
    mesh = build_rectangle(0, 1, 0, 1, 6, 5)
    spec = problem1_spec(p="2+x", r=1.5, q="1.2", mesh=mesh)
    assert mesh._plan is None
    solve_problem1(spec, SolverOptions())
    plan = mesh._plan
    assert plan is not None
    solve_problem1(spec, SolverOptions(init="random"))
    first_eigenpair(mesh, 2.0)
    first_eigenpair(mesh, 3.0)
    assert grid.interior_plan(mesh) is plan and mesh._plan is plan
    for a in plan:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1


def _polish_model(mesh, kind):
    exponent = exponent_field(mesh, "2+x", r=1.5)
    reaction = power_reaction(constant_field(mesh, 1.0),
                              constant_field(mesh, 1.2))
    if kind == "problem2":
        return EnergyModel(mesh, exponent, reaction=reaction,
                           absorption=power_absorption(
                               constant_field(mesh, 1.0),
                               constant_field(mesh, 2.0)))
    if kind == "kirchhoff":
        return EnergyModel(mesh, exponent, reaction=reaction,
                           kirchhoff=saturating_kirchhoff(1.0, 2.0))
    return EnergyModel(mesh, exponent, reaction=reaction)


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("kind", ["problem1", "problem2", "kirchhoff"])
@pytest.mark.parametrize("dim", [1, 2])
def test_polish_never_increases_energy(dim, kind, eps):
    # the line search tests polished trials: with E(polish(w)) <= E(w),
    # every step whose unpolished trial passes the Armijo test passes it
    mesh = build_interval(0, 1, 32) if dim == 1 else \
        build_rectangle(0, 1, 0, 1, 6, 6)
    model = _polish_model(mesh, kind)
    rng = np.random.default_rng(17)
    for _ in range(300):
        u = rng.standard_normal(mesh.n_nodes) * 10.0 ** rng.uniform(-2, 2)
        u[mesh.boundary_mask] = 0.0
        e = energy_value(NodeField(mesh, u), model, eps)
        polished = energy_value(
            NodeField(mesh, solver._polish(u, model)), model, eps)
        assert polished <= e + 1e-12 * (1.0 + abs(e))


class TestProblem2:
    def corollary_spec(self, n=96, ell="1"):
        mesh = build_interval(0, 1, n)
        exponent = exponent_field(mesh, 2.0, r=1.8)
        reaction = power_reaction(constant_field(mesh, 2.0),
                                  constant_field(mesh, 1.5))
        from pxlaplace.energy import power_absorption
        absorption = power_absorption(interpolate(mesh, ell),
                                      constant_field(mesh, 2.0))
        return ProblemSpec("problem2", mesh, exponent, reaction, absorption)

    def test_positive_solution(self):
        rep = solve_problem2(self.corollary_spec(), SolverOptions())
        assert rep.converged and rep.positivity_ok
        assert rep.negative_energy
        assert rep.hopf_margin > 0

    def test_stronger_absorption_shrinks_solution(self):
        rep1 = solve_problem2(self.corollary_spec(ell="1"), SolverOptions())
        rep100 = solve_problem2(self.corollary_spec(ell="100"), SolverOptions())
        assert rep100.solution.values.max() < rep1.solution.values.max()

    def test_validator_gate_rejects_matching_powers(self):
        # reaction and absorption with the same exponent above r: the
        # decreasing-quotient hypothesis fails
        mesh = build_interval(0, 1, 32)
        exponent = exponent_field(mesh, 2.0, r=1.8)
        from pxlaplace.energy import power_absorption
        term = power_reaction(constant_field(mesh, 1.0),
                              constant_field(mesh, 2.0))
        absorption = power_absorption(constant_field(mesh, 1.0),
                                      constant_field(mesh, 2.0))
        spec = ProblemSpec("problem2", mesh, exponent, term, absorption)
        with pytest.raises(ValueError, match="hypotheses fail"):
            solve_problem2(spec, SolverOptions())


class TestKirchhoff:
    def kirchhoff_spec(self, m0, m_inf, n=128):
        mesh = build_interval(0, 1, n)
        exponent = exponent_field(mesh, 2.0, r=2.0)
        reaction = power_reaction(constant_field(mesh, 1.0),
                                  constant_field(mesh, 1.5))
        return ProblemSpec("kirchhoff", mesh, exponent, reaction,
                           kirchhoff=saturating_kirchhoff(m0, m_inf))

    def test_unit_M_reduces_to_problem1_bitwise(self):
        speck = self.kirchhoff_spec(1.0, 1.0)
        spec1 = ProblemSpec("problem1", speck.mesh, speck.exponent,
                            speck.reaction)
        repk = solve_kirchhoff(speck, SolverOptions())
        rep1 = solve_problem1(spec1, SolverOptions())
        assert np.array_equal(repk.solution.values, rep1.solution.values)
        assert repk.energy == rep1.energy

    def test_scalar_consistency(self):
        spec = self.kirchhoff_spec(1.0, 2.0)
        rep = solve_kirchhoff(spec, SolverOptions())
        assert rep.converged
        D = dirichlet_part(rep.solution, build_energy_model(spec), eps=0.0)
        assert abs(rep.kirchhoff_M0 - kirchhoff_M(spec.kirchhoff, D)) <= 1e-8

    def test_scaling_against_root_find_oracle(self):
        # u = c u1 with M0 = M(c^2 D(u1)) and c = M0^(-2), where u1 solves
        # the unscaled problem (q = 1.5, p = r = 2)
        speck = self.kirchhoff_spec(1.0, 2.0)
        spec1 = ProblemSpec("problem1", speck.mesh, speck.exponent,
                            speck.reaction)
        rep1 = solve_problem1(spec1, SolverOptions())
        D1 = dirichlet_part(rep1.solution, build_energy_model(spec1), eps=0.0)
        M0 = brentq(lambda m: m - kirchhoff_M(speck.kirchhoff, m ** -4 * D1),
                    1.0, 2.0, xtol=1e-14)
        repk = solve_kirchhoff(speck, SolverOptions())
        scaled = M0 ** -2 * rep1.solution.values
        assert np.abs(repk.solution.values - scaled).max() <= 1e-6
        assert abs(repk.kirchhoff_M0 - M0) <= 1e-6

    def test_validator_gate(self):
        # m_inf < m0: M decreases, so (M2) fails
        mesh = build_interval(0, 1, 32)
        spec = ProblemSpec("kirchhoff", mesh, exponent_field(mesh, 2.0, r=2.0),
                           power_reaction(constant_field(mesh, 1.0),
                                          constant_field(mesh, 1.5)),
                           kirchhoff=KirchhoffTerm(1.0, 0.5))
        with pytest.raises(ValueError, match="hypotheses fail: M2"):
            solve_kirchhoff(spec, SolverOptions())
        assert solve_kirchhoff(spec, SolverOptions(), override=True).converged


@pytest.mark.parametrize("kind,keys", [
    ("problem1", {"f"}), ("problem2", {"f", "g"}), ("kirchhoff", {"f", "M"}),
])
def test_hypotheses_table_per_kind(kind, keys):
    mesh = build_interval(0, 1, 16)
    spec = ProblemSpec(kind, mesh, exponent_field(mesh, "2+x", r=1.5),
                       power_reaction(constant_field(mesh, 1.0),
                                      constant_field(mesh, 1.2)),
                       power_absorption(constant_field(mesh, 1.0),
                                        constant_field(mesh, 2.0)),
                       saturating_kirchhoff(1.0, 2.0))
    table = solver.hypotheses(spec)
    assert set(table) == keys
    assert all(rep.passed for rep in table.values())


def _dense_stiffness_and_mass(mesh):
    """Independent oracle: the P1 stiffness and the one-point mass
    sum_c m_c / nloc^2 * 11^T on all nodes, assembled densely."""
    nloc = mesh.dimension + 1
    K = np.zeros((mesh.n_nodes, mesh.n_nodes))
    M = np.zeros_like(K)
    for cell, m, G in zip(mesh.cells, mesh.cell_measures, mesh.shape_grads):
        K[np.ix_(cell, cell)] += m * G @ G.T
        M[np.ix_(cell, cell)] += m / nloc ** 2
    return K, M


class TestFirstEigenpair:
    def test_unit_interval_r2(self):
        mesh = build_interval(0, 1, 256)
        lam, phi = first_eigenpair(mesh, 2.0)
        assert lam == pytest.approx(np.pi ** 2, rel=5e-3)
        assert np.all(phi.values >= 0)
        # r-modular normalization
        from pxlaplace.grid import integrate
        mod = integrate(cell_average(phi) ** 2, mesh)
        assert mod == pytest.approx(1.0, abs=1e-10)

    def test_scaling_with_domain_length(self):
        lam1, _ = first_eigenpair(build_interval(0, 1, 128), 2.0)
        lam2, _ = first_eigenpair(build_interval(0, 2, 128), 2.0)
        assert lam2 == pytest.approx(lam1 / 4, rel=1e-3)

    def test_richardson_extrapolation(self):
        lams = [first_eigenpair(build_interval(0, 1, n), 2.0)[0]
                for n in (64, 128, 256)]
        seq = list(lams)
        while len(seq) > 1:
            seq = [(4 * seq[i + 1] - seq[i]) / 3 for i in range(len(seq) - 1)]
        assert seq[0] == pytest.approx(np.pi ** 2, rel=5e-4)

    def test_r3_monotone_and_pinned(self, regression):
        lams = [first_eigenpair(build_interval(0, 1, n), 3.0)[0]
                for n in (64, 128, 256)]
        assert lams[0] >= lams[1] >= lams[2] - 1e-9
        # classical closed form: (r-1) * (2 pi / (r sin(pi/r)))^r
        classical = 2.0 * (2 * np.pi / (3 * np.sin(np.pi / 3))) ** 3
        assert lams[2] == pytest.approx(classical, rel=1e-4)
        regression("eigenvalue_r3_n256", lams[2], rel_tol=1e-6)

    @pytest.mark.parametrize("mesh,r,pin", [
        (build_rectangle(0, 1, 0, 1, 16, 16), 2.0, 20.01582250296904),
        (build_rectangle(0, 1, 0, 1, 32, 32), 2.0, 19.808032024201342),
        (build_interval(0, 1, 256), 2.0, 9.869879979542391),
        (build_interval(0, 1, 256), 3.0, 28.289995939202697),
        (build_interval(0, 1, 64), 1.5, 5.320532049369774),
        (build_rectangle(0, 1, 0, 1, 8, 8), 3.0, 69.49509498595175),
    ], ids=["2d-16x16-r2", "2d-32x32-r2", "1d-n256-r2", "1d-n256-r3",
            "1d-n64-r1.5", "2d-8x8-r3"])
    def test_trajectory_pinned(self, mesh, r, pin):
        # the r = 2 descent stops at EIGEN_MAX_ITERS, so its value depends
        # on every iterate; pinned as tightly as the benchmark's reference
        lam, _ = first_eigenpair(mesh, r)
        assert lam == pytest.approx(pin, rel=1e-12)

    def test_r_must_exceed_one(self):
        with pytest.raises(ValueError):
            first_eigenpair(build_interval(0, 1, 16), 1.0)

    @staticmethod
    def _lapack_stand_in(monkeypatch, solve=lapack.dpbtrs,
                         factor=lapack.dpbtrf):
        """Set a stand-in for ``solver.lapack`` whose ``dpbtrf`` factors
        through ``factor(ab, **kw)`` and whose ``dpbtrs`` solves through
        ``solve(c, b, **kw)`` (scipy's by default); returns the counts of
        both calls."""
        calls = {"dpbtrf": 0, "dpbtrs": 0}

        def dpbtrf(ab, **kw):
            calls["dpbtrf"] += 1
            return factor(ab, **kw)

        def dpbtrs(c, b, **kw):
            calls["dpbtrs"] += 1
            return solve(c, b, **kw)

        monkeypatch.setattr(solver, "lapack", SimpleNamespace(
            dpbtrf=dpbtrf, dpbtrs=dpbtrs))
        return calls

    @pytest.mark.parametrize("mesh,r,factorizations,solves", [
        (build_rectangle(0, 1.5, 0, 1, 6, 5), 2.0, 1, 7),
        (build_interval(0, 1, 16), 3.0, 7, 7),
    ], ids=["2d-6x5-r2", "1d-n16-r3"])
    def test_factorizations_and_solves_per_step(self, monkeypatch, mesh, r,
                                                 factorizations, solves):
        # r = 2 factors K once per call; other r factor the metric at
        # every step; either way each step makes one band solve
        monkeypatch.setattr(solver, "EIGEN_MAX_ITERS", 7)
        calls = self._lapack_stand_in(monkeypatch)
        first_eigenpair(mesh, r)
        assert calls == {"dpbtrf": factorizations, "dpbtrs": solves}

    @pytest.mark.parametrize("mesh,r", [
        (build_interval(0, 1, 16), 3.0),
        (build_rectangle(0, 1.5, 0, 1, 6, 5), 1.5),
    ], ids=["1d-n16-r3", "2d-6x5-r1.5"])
    def test_each_step_reads_one_field(self, monkeypatch, mesh, r):
        # for r != 2 a step's gradient and metric read one field, so the
        # cell gradient it keeps serves both: every step, the last one
        # included, passes the gradient a field and then passes the
        # metric that same object
        calls = []

        def recording(name):
            real = getattr(solver, name)

            def record(*args, **kwargs):
                calls.append((name, args[1]))
                return real(*args, **kwargs)
            return record

        for name in ("gateaux_gradient", "_interior_matrix"):
            monkeypatch.setattr(solver, name, recording(name))
        first_eigenpair(mesh, r)
        steps = len(calls) // 2
        assert steps > 0 and len(calls) == 2 * steps
        assert [name for name, _ in calls] == (
            ["gateaux_gradient", "_interior_matrix"] * steps)
        for k in range(steps):
            assert calls[2 * k][1] is calls[2 * k + 1][1]

    @pytest.mark.parametrize("mesh,r", [
        (build_rectangle(0, 1.5, 0, 1, 6, 5), 2.0),
        (build_interval(0, 1, 16), 3.0),
    ], ids=["2d-6x5-r2", "1d-n16-r3"])
    def test_non_finite_step_raises(self, monkeypatch, mesh, r):
        # a NaN direction makes every trial NaN, and a +inf direction
        # every trial +inf; the quotient refuses both
        for bad in (np.nan, np.inf):
            self._lapack_stand_in(monkeypatch, lambda c, b, **kw: (
                np.full_like(b, bad), 0))
            with pytest.raises(ValueError,
                               match="field values must be finite"):
                first_eigenpair(mesh, r)

    @pytest.mark.parametrize("mesh,capped", [
        (build_interval(0, 1, 16), 74.20817252661486),
        (build_rectangle(0, 1, 0, 1, 6, 6), 234.49380226000812),
    ], ids=["1d-n16", "2d-6x6"])
    def test_r4_steps_at_the_quotients_newton_scale(self, monkeypatch, mesh,
                                                    capped):
        # for r > 2 the metric carries the gradient's factor r/den, so the
        # full step is the quotient's Newton step.  Unscaled, it overshoots
        # the high frequencies by r - 1 = 3, they never contract, and the
        # descent stopped at EIGEN_MAX_ITERS (400 band solves) at the
        # capped values; every Rayleigh value bounds lam_1 from above, so
        # the converged one is lower
        calls = self._lapack_stand_in(monkeypatch)
        lam, _ = first_eigenpair(mesh, 4.0)
        assert calls["dpbtrs"] < 50
        assert lam < capped

    @pytest.mark.parametrize("mesh,pin", [
        (build_interval(0, 1, 64), "0x1.548398db573c0p+2"),
        (build_rectangle(0, 1.5, 0, 1, 6, 5), "0x1.107dde90b6cf1p+3"),
    ], ids=["1d-n64", "2d-6x5"])
    def test_r_below_two_keeps_its_step_bitwise(self, mesh, pin):
        # r < 2 keeps the unscaled metric: its lam is pinned to the bit
        lam, _ = first_eigenpair(mesh, 1.5)
        assert lam.hex() == pin

    def test_stops_on_its_own_step(self, monkeypatch):
        # 1D r = 3 n = 256 stops when the predicted decrease g . d falls
        # to 4 ulps of lam, before trying a step; the halving scan down
        # to t = 1e-16 it ended on before took 67 quotient evaluations
        calls = []
        real = solver.dirichlet_part

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "dirichlet_part", counting)
        lam, _ = first_eigenpair(build_interval(0, 1, 256), 3.0)
        assert len(calls) <= 15
        assert lam.hex() == "0x1.c4a3d2c82d931p+4"

    def test_ends_on_the_halving_scan(self, monkeypatch):
        # 1D r = 1.8 n = 32 takes 59 steps; at the 60th no trial down to
        # t = 1e-16 lowers the quotient, and the descent ends there: 60
        # band solves, and 125 quotient evaluations (2 at the start, 67
        # trials over the 59 steps, the last step's 54 halvings and 2 at
        # the end).  lam sits 0.15% above the closed form
        # (r - 1)(2 pi / (r sin(pi / r)))^r = 7.80352
        calls = self._lapack_stand_in(monkeypatch)
        quotients = []
        real = solver.dirichlet_part

        def counting(*args, **kwargs):
            quotients.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "dirichlet_part", counting)
        lam, _ = first_eigenpair(build_interval(0, 1, 32), 1.8)
        assert calls["dpbtrs"] == 60 and len(quotients) == 125
        assert lam.hex() == "0x1.f4282d2972a3dp+2"

    def test_no_first_step_raises(self):
        # at r = 12 no step from the bump lowers the quotient; returning
        # the bump's own quotient (5.2e6 against the closed form 5.17e4)
        # would pass it off as an eigenvalue
        with pytest.raises(ValueError, match="no step lowers the quotient"):
            first_eigenpair(build_interval(0, 1, 256), 12.0)

    def test_no_first_step_raises_with_warnings_as_errors(self):
        # at r = 20 the trial quotients overflow; numpy's overflow warning,
        # raised as an error, used to stand in for the message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="no step lowers the quotient"):
                first_eigenpair(build_interval(0, 1, 64), 20.0)

    def test_singular_metric_raises(self):
        # at r = 1.01 the metric weight (eps^2 + |grad u|^2)^(-0.495)
        # grows where the iterate flattens (toward 1e15 at EIGEN_EPS);
        # after some 60 steps the metric is indefinite in floating point
        # and dpbtrf meets a nonpositive pivot
        with pytest.raises(ValueError, match="not positive definite"):
            first_eigenpair(build_rectangle(0, 1, 0, 1, 8, 8), 1.01)

    @pytest.mark.parametrize("mesh,r", [
        (build_rectangle(0, 1.5, 0, 1, 6, 5), 2.0),
        (build_interval(0, 1, 16), 3.0),
    ], ids=["2d-6x5-r2", "1d-n16-r3"])
    def test_failed_factorization_raises(self, monkeypatch, mesh, r):
        # dpbtrf's info > 0 is a failed factorization, never a NaN result
        calls = self._lapack_stand_in(monkeypatch, factor=lambda ab, **kw: (
            lapack.dpbtrf(ab, **kw)[0], 3))
        with pytest.raises(ValueError, match="not positive definite"):
            first_eigenpair(mesh, r)
        assert calls == {"dpbtrf": 1, "dpbtrs": 0}

    def test_unit_square_matches_dense_eigensolver(self):
        mesh = build_rectangle(0, 1, 0, 1, 16, 16)
        K, M = _dense_stiffness_and_mass(mesh)
        inner = np.ix_(mesh.interior, mesh.interior)
        lam_dense = eigh(K[inner], M[inner], eigvals_only=True,
                         subset_by_index=[0, 0])[0]
        lam, _ = first_eigenpair(mesh, 2.0)
        assert lam == pytest.approx(lam_dense, rel=1e-7)

    @pytest.mark.parametrize("mesh", [
        build_interval(0, 2, 13), build_rectangle(0, 1.5, 0, 1, 6, 5),
    ], ids=["1d", "2d"])
    def test_planned_stiffness_and_mass_match_dense(self, mesh):
        # K is the Newton metric at p = 2, B the one-point mass summed
        # into the same pattern, as first_eigenpair forms them at r = 2
        K, M = _dense_stiffness_and_mass(mesh)
        inner = np.ix_(mesh.interior, mesh.interior)
        model = EnergyModel(mesh, exponent_field(mesh, 2.0, 2.0))
        u = np.random.default_rng(2).uniform(0.0, 1.0, mesh.n_nodes)
        Kp = grid.assemble(mesh, solver._interior_matrix(
            model, NodeField(mesh, u), solver.EIGEN_EPS))
        nloc = mesh.dimension + 1
        Bp = grid.assemble(mesh, np.broadcast_to(
            mesh.cell_measures[:, None, None] / nloc ** 2,
            (mesh.n_cells, nloc, nloc)))
        assert np.abs(Kp.toarray() - K[inner]).max() <= \
            1e-14 * np.abs(K).max()
        assert np.abs(Bp.toarray() - M[inner]).max() <= \
            1e-14 * np.abs(M).max()

    @pytest.mark.parametrize("mesh,r,per_call", [
        (build_interval(0, 1, 32), 3.0, 0),
        (build_rectangle(0, 1.5, 0, 1, 6, 5), 3.0, 0),
        (build_interval(0, 1, 32), 2.0, 2),
        (build_rectangle(0, 1.5, 0, 1, 6, 5), 2.0, 2),
    ], ids=["1d-n32-r3", "2d-6x5-r3", "1d-n32-r2", "2d-6x5-r2"])
    def test_csr_assemblies_per_call(self, monkeypatch, mesh, r, per_call):
        # every band is summed straight from the local matrices, so only
        # the r = 2 setup assembles CSR matrices: K and B, once per call,
        # for the stacked operator [K; B]
        calls = []
        real = solver.assemble

        def counting(mesh, loc):
            calls.append(loc.shape)
            return real(mesh, loc)

        monkeypatch.setattr(solver, "assemble", counting)
        for k in (1, 2):
            first_eigenpair(mesh, r)
            assert len(calls) == k * per_call

    @pytest.mark.parametrize("mesh,bandwidth", [
        (build_interval(0, 2, 13), 1),
        (build_rectangle(0, 1.5, 0, 1, 6, 5), 5),
        (build_rectangle(0, 1, 0, 2, 3, 7), 7),
    ], ids=["1d", "2d", "2d-tall"])
    def test_band_layout_matches_dense(self, mesh, bandwidth):
        # the band summed from the local matrices is exactly the dense
        # lower band of their assembled matrix, entry (i, j) at (i - j, j)
        # and zero past the last row; its Cholesky factor solves like a
        # dense solve
        model = EnergyModel(mesh, exponent_field(mesh, 3.0, 3.0))
        rng = np.random.default_rng(3)
        loc = solver._interior_matrix(
            model, NodeField(mesh, rng.uniform(0.0, 1.0, mesh.n_nodes)),
            solver.EIGEN_EPS)
        dense = grid.assemble(mesh, loc).toarray()
        n = dense.shape[0]
        assert int(grid.interior_plan(mesh)[4]) == bandwidth
        ref = np.zeros((bandwidth + 1, n))
        for k in range(bandwidth + 1):
            ref[k, :n - k] = np.diagonal(dense, -k)
        ab = grid._band(mesh, loc)
        assert ab.flags.f_contiguous and (ab == ref).all()
        b = rng.uniform(-1.0, 1.0, n)
        x = lapack.dpbtrs(solver._band_cholesky(mesh, loc), b, lower=1)[0]
        expected = np.linalg.solve(dense, b)
        assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("mesh,r", [
        (build_rectangle(0, 1, 0, 1, 8, 8), 2.0),
        (build_interval(0, 1, 64), 2.0),
        (build_interval(0, 1, 64), 3.0),
    ], ids=["2d-8x8-r2", "1d-n64-r2", "1d-n64-r3"])
    def test_eigenvalue_is_the_energy_layer_quotient(self, mesh, r):
        # the returned lam is the Rayleigh value of phi on the energy
        # layer, whichever path the descent took
        lam, phi = first_eigenpair(mesh, r)
        model = EnergyModel(mesh, exponent_field(mesh, r, r))
        den = np.sum(cell_average(phi) ** r * mesh.cell_measures)
        assert lam == r * dirichlet_part(phi, model) / float(den)

    def test_unit_square(self):
        lam, phi = first_eigenpair(build_rectangle(0, 1, 0, 1, 24, 24), 2.0)
        assert lam == pytest.approx(2 * np.pi ** 2, rel=1e-2)
        assert np.all(phi.values >= 0)


class TestUniqueness:
    def test_multi_start_agreement(self):
        spec = problem1_spec(n=96)
        rep = uniqueness_experiment(spec, SolverOptions(), n_inits=3, seed=5,
                                    tol=1e-6)
        assert rep.all_converged
        assert rep.passed is True
        assert rep.max_pairwise_distance <= 1e-6
        assert all(abs(g) <= 1e-8 for g in rep.gaps)

    def test_degenerate_eigen_multiplicity(self):
        mesh = build_interval(0, 1, 96)
        lam, _ = first_eigenpair(mesh, 2.0)
        exponent = exponent_field(mesh, 2.0, r=2.0)
        reaction = power_reaction(constant_field(mesh, lam),
                                  constant_field(mesh, 2.0))
        spec = ProblemSpec("problem1", mesh, exponent, reaction)
        rep = uniqueness_experiment(spec, SolverOptions(), n_inits=3, seed=7,
                                    tol=1e-6)
        assert rep.regime == "degenerate-eigen"
        assert rep.expected_multiplicity
        assert rep.passed is None
        # distinct eigenray multiples: large spread relative to the scale
        assert rep.max_pairwise_distance > 0.1 * rep.solution_scale

    @pytest.mark.parametrize("mesh", [build_interval(0, 1, 32),
                                      build_rectangle(0, 1, 0, 1, 8, 8)],
                             ids=["1d", "2d"])
    def test_source_reaction_gets_a_verdict(self, mesh):
        # a source is the power term with q = 1: q_plus = 1 < r <= p_minus
        spec = ProblemSpec("problem1", mesh, exponent_field(mesh, "2+x", r=1.5),
                           source_reaction(constant_field(mesh, 1.0)))
        rep = uniqueness_experiment(spec, SolverOptions(), n_inits=3, seed=5,
                                    tol=1e-8)
        assert rep.regime == "unique-full"
        assert not rep.expected_multiplicity
        assert rep.n_runs == 4 and rep.all_converged
        assert rep.passed is True
        assert rep.max_pairwise_distance <= 1e-8


def test_weak_residual_needs_a_zero_trace():
    spec = problem1_spec(n=16)
    with pytest.raises(ValueError, match="weak_residual needs a zero-trace"):
        weak_residual(constant_field(spec.mesh, 1.0), spec)


class TestHopfDiagnostic:
    def test_parabola_quotient(self):
        mesh = build_interval(0, 1, 4)
        u = interpolate(mesh, "x*(1-x)")
        assert hopf_diagnostic(u) == pytest.approx(0.75, rel=1e-13)

    def test_zero_field(self):
        mesh = build_interval(0, 1, 8)
        assert hopf_diagnostic(constant_field(mesh, 0.0)) == 0.0

    def test_requires_zero_trace(self):
        mesh = build_interval(0, 1, 8)
        with pytest.raises(ValueError):
            hopf_diagnostic(constant_field(mesh, 1.0))

    def test_2d_positive_for_product_bump(self):
        mesh = build_rectangle(0, 1, 0, 1, 8, 8)
        u = interpolate(mesh, lambda x, y: x * (1 - x) * y * (1 - y))
        assert hopf_diagnostic(u) > 0

    def test_2d_matches_nearest_node_search(self):
        # hx != hy; a small value at each interior node in turn makes the
        # boundary nodes next to it, corners included, set the minimum
        mesh = build_rectangle(0, 2.5, 0, 1, 5, 3)
        rng = np.random.default_rng(0)
        inner = mesh.nodes[mesh.interior]
        for k in mesh.interior:
            vals = rng.uniform(1.0, 2.0, mesh.n_nodes)
            vals[mesh.boundary_mask] = 0.0
            vals[k] = 1e-3
            oracle = np.inf
            for b in np.flatnonzero(mesh.boundary_mask):
                d = np.linalg.norm(inner - mesh.nodes[b], axis=1)
                j = np.argmin(d)
                oracle = min(oracle, vals[mesh.interior[j]] / d[j])
            assert hopf_diagnostic(NodeField(mesh, vals)) == \
                pytest.approx(oracle, rel=1e-14)


class TestSolve2D:
    def test_linear_2d_matches_series_solution(self):
        # -lap u = 1 on the unit square; Fourier series reference at center
        mesh = build_rectangle(0, 1, 0, 1, 16, 16)
        exponent = exponent_field(mesh, 2.0, r=1.0)
        spec = ProblemSpec("problem1", mesh, exponent,
                           source_reaction(constant_field(mesh, 1.0)))
        rep = solve_problem1(spec, SolverOptions(), override=True)
        assert rep.converged
        ref = 0.0
        for m in range(1, 60, 2):
            for k in range(1, 60, 2):
                ref += (16 / np.pi ** 4
                        * np.sin(m * np.pi / 2) * np.sin(k * np.pi / 2)
                        / (m * k * (m ** 2 + k ** 2)))
        center = np.argmin(np.linalg.norm(mesh.nodes - 0.5, axis=1))
        assert rep.solution.values[center] == pytest.approx(ref, rel=5e-3)

    def _problem1_8x8(self, weights=None):
        mesh = build_rectangle(0, 1, 0, 1, 8, 8)
        spec = problem1_spec(p="2+x", r=1.5, q="1.2", mesh=mesh)
        model = build_energy_model(spec)
        if weights is None:
            return model
        return replace(model, anisotropy=weighted_quadratic(
            spec.exponent, [interpolate(mesh, w) for w in weights]))

    def test_unit_weights_match_isotropic_solve(self):
        # the weighted-quadratic branch of the metric with w = 1 is the
        # isotropic one
        iso = minimize_energy(self._problem1_8x8(), SolverOptions())
        unit = minimize_energy(self._problem1_8x8(("1", "1")), SolverOptions())
        assert unit.energy == pytest.approx(iso.energy, rel=1e-12)
        assert np.abs(unit.solution.values - iso.solution.values).max() \
            <= 1e-10

    def test_weighted_anisotropy_converges(self):
        opts = SolverOptions()
        rep = minimize_energy(self._problem1_8x8(("1+x", "2-y")), opts)
        assert rep.converged and rep.positivity_ok
        assert rep.residual_max <= opts.grad_tol


@pytest.mark.parametrize("init", [np.zeros(5), [0.0, 1.0], None, ("bump",)],
                         ids=["ndarray", "list", "none", "tuple"])
def test_init_that_is_neither_a_field_nor_a_name_is_refused(init):
    with pytest.raises(ValueError, match="^unknown init "):
        SolverOptions(init=init)
