"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import json

import numpy as np
from scipy.optimize import brentq

from pxlaplace.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, run_command
from pxlaplace.energy import (EnergyModel, dirichlet_part, energy_E,
                              kirchhoff_M, phi_line, phi_prime,
                              power_absorption, power_reaction,
                              saturating_kirchhoff, source_reaction)
from pxlaplace.exponents import exponent_field
from pxlaplace.grid import (NodeField, build_interval, build_rectangle,
                            constant_field, interpolate)
from pxlaplace.inequality import comparison_check, diaz_saa_gap
from pxlaplace.problems import (ProblemSpec, validate_corollary_chain,
                                validate_f, validate_g, validate_M)
from pxlaplace.solver import (SolverOptions, first_eigenpair,
                              solve_kirchhoff, solve_problem1, solve_problem2,
                              uniqueness_experiment,
                              weak_comparison_experiment)

from test_solver import shoot_sqrt_reaction

SIN_PROFILE = "1.5+0.5*sin(3.141592653589793*x)"


def verdict(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def cone_pair(rng, mesh, zero_boundary=False):
    a = rng.uniform(0.1, 10.0, mesh.n_nodes)
    b = rng.uniform(0.1, 10.0, mesh.n_nodes)
    if zero_boundary:
        a[mesh.boundary_mask] = 0.0
        b[mesh.boundary_mask] = 0.0
    return NodeField(mesh, a), NodeField(mesh, b)


def test_criterion_01_convexity(regression):
    mesh = build_interval(0, 1, 64)
    combos = []
    for p in ("2", "2+x", SIN_PROFILE):
        exponent_probe = exponent_field(mesh, p, r=1.0)
        for r in (1.0, 1.5, 2.0):
            if r <= exponent_probe.p_minus:
                combos.append(EnergyModel(
                    mesh, exponent_field(mesh, p, r=r)))
    rng = np.random.default_rng(2024)
    thetas = np.linspace(0.1, 0.9, 9)
    worst = np.inf
    for k in range(200):
        model = combos[k % len(combos)]
        v1, v2 = cone_pair(rng, mesh)
        phi0 = phi_line(v1, v2, 0.0, model)
        phi1 = phi_line(v1, v2, 1.0, model)
        scale = max(1.0, phi0, phi1)
        for t in thetas:
            slack = (1 - t) * phi0 + t * phi1 - phi_line(v1, v2, t, model)
            worst = min(worst, slack / scale)
    ok = worst >= -1e-10

    # proportional pairs with p = r: the line restriction is affine
    model_eq = EnergyModel(mesh, exponent_field(mesh, "2", r=2.0))
    affine_dev = 0.0
    for _ in range(20):
        v1 = NodeField(mesh, rng.uniform(0.1, 10.0, mesh.n_nodes))
        v2 = NodeField(mesh, rng.uniform(0.5, 4.0) * v1.values)
        phi0 = phi_line(v1, v2, 0.0, model_eq)
        phi1 = phi_line(v1, v2, 1.0, model_eq)
        scale = max(1.0, phi0, phi1)
        for t in thetas:
            dev = abs(phi_line(v1, v2, t, model_eq)
                      - ((1 - t) * phi0 + t * phi1)) / scale
            affine_dev = max(affine_dev, dev)
    ok = ok and affine_dev <= 1e-12

    # strictness margin for p = 2+x, r = 2 on the proportional pair c = 4
    model_st = EnergyModel(mesh, exponent_field(mesh, "2+x", r=2.0))
    v1 = NodeField(mesh, interpolate(mesh, "x*(1-x)").values + 0.1)
    v2 = NodeField(mesh, 4.0 * v1.values)
    phi0 = phi_line(v1, v2, 0.0, model_st)
    phi1 = phi_line(v1, v2, 1.0, model_st)
    margin = min((1 - t) * phi0 + t * phi1 - phi_line(v1, v2, t, model_st)
                 for t in thetas)
    ok = ok and margin > 0
    regression("acceptance_strictness_margin", margin, rel_tol=1e-9)
    verdict(1, ok, f"convexity slack >= -1e-10 (worst {worst:.2e}), "
                   f"affine dev {affine_dev:.2e}, strict margin {margin:.3e}")


def test_criterion_02_diaz_saa_gap():
    mesh = build_interval(0, 1, 64)
    models = [EnergyModel(mesh, exponent_field(mesh, p, r=r))
              for p, r in (("2", 1.0), ("2", 2.0), ("2+x", 1.5),
                           ("2+x", 2.0), (SIN_PROFILE, 1.5))]
    rng = np.random.default_rng(77)
    worst = np.inf
    for k in range(200):
        model = models[k % len(models)]
        w1, w2 = cone_pair(rng, mesh, zero_boundary=True)
        rep = diaz_saa_gap(w1, w2, model)
        worst = min(worst, rep.gap / (abs(rep.i1) + abs(rep.i2) + 1.0))
    ok = worst >= -1e-10

    w = NodeField(mesh, interpolate(mesh, "x*(1-x)").values)
    rep_id = diaz_saa_gap(w, w, models[1])
    ok = ok and rep_id.gap == 0.0 and rep_id.equality_class == "identical"

    w2 = NodeField(mesh, 3.0 * w.values)
    rep_prop = diaz_saa_gap(w, w2, models[1])  # p = r = 2
    prop_ok = abs(rep_prop.gap) <= 1e-10 * (abs(rep_prop.i1)
                                            + abs(rep_prop.i2) + 1.0)
    ok = ok and prop_ok and rep_prop.equality_class == "proportional"

    mesh2 = build_rectangle(0, 1, 0, 1, 16, 16)
    model2 = EnergyModel(mesh2, exponent_field(mesh2, "2+0.5*x", r=1.5))
    rng2 = np.random.default_rng(78)
    worst2 = np.inf
    for _ in range(50):
        w1, w2 = cone_pair(rng2, mesh2, zero_boundary=True)
        rep = diaz_saa_gap(w1, w2, model2)
        worst2 = min(worst2, rep.gap / (abs(rep.i1) + abs(rep.i2) + 1.0))
    ok = ok and worst2 >= -1e-8
    verdict(2, ok, f"gap floor 1D {worst:.2e}, 2D {worst2:.2e}, "
                   "identical/proportional equality cases exact")


def test_criterion_03_derivative_consistency():
    mesh = build_interval(0, 1, 48)
    kirch = saturating_kirchhoff(1.0, 2.0)
    reaction = power_reaction(constant_field(mesh, 1.0),
                              constant_field(mesh, 1.5))
    cases = [
        (EnergyModel(mesh, exponent_field(mesh, "2+x", r=1.5)), "W", False),
        (EnergyModel(mesh, exponent_field(mesh, "2", r=1.0)), "W", False),
        (EnergyModel(mesh, exponent_field(mesh, SIN_PROFILE, r=1.5)),
         "W_A", False),
        (EnergyModel(mesh, exponent_field(mesh, "2+x", r=2.0),
                     reaction=reaction, kirchhoff=kirch), "J_hat", True),
        (EnergyModel(mesh, exponent_field(mesh, "2", r=2.0),
                     reaction=reaction, kirchhoff=kirch), "J_hat", True),
    ]
    rng = np.random.default_rng(99)
    worst = 0.0
    for k in range(50):
        model, kind, zero_bd = cases[k % len(cases)]
        v1, v2 = cone_pair(rng, mesh, zero_boundary=zero_bd)
        theta, step = rng.uniform(0.2, 0.8), 1e-6
        exact = phi_prime(v1, v2, theta, model, kind)
        fd = (phi_line(v1, v2, theta + step, model, kind)
              - phi_line(v1, v2, theta - step, model, kind)) / (2 * step)
        worst = max(worst, abs(exact - fd) / max(abs(fd), 1e-12))
    ok = worst <= 1e-6
    verdict(3, ok, f"line-derivative vs central difference: worst rel {worst:.2e} "
                   "(50 instances incl. nonlocal)")


def test_criterion_04_gradient_consistency():
    from pxlaplace.energy import energy_value, gateaux_gradient
    mesh = build_interval(0, 1, 48)
    reaction = power_reaction(constant_field(mesh, 1.0),
                              constant_field(mesh, 1.5))
    absorption = power_absorption(constant_field(mesh, 1.0),
                                  constant_field(mesh, 2.0))
    models = [
        EnergyModel(mesh, exponent_field(mesh, "2+x", r=1.5),
                    reaction=reaction),
        EnergyModel(mesh, exponent_field(mesh, "2", r=1.8),
                    reaction=reaction, absorption=absorption),
        EnergyModel(mesh, exponent_field(mesh, "2.2+0.3*x", r=1.5),
                    reaction=reaction,
                    kirchhoff=saturating_kirchhoff(1.0, 2.0)),
    ]
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(30):
        model = models[k % len(models)]
        u = rng.uniform(0.5, 2.0, mesh.n_nodes)
        u[mesh.boundary_mask] = 0.0
        phi = rng.normal(size=mesh.n_nodes)
        phi[mesh.boundary_mask] = 0.0
        g = gateaux_gradient(model, NodeField(mesh, u), eps=0.0)
        pairing = float(g.values @ phi)
        t = 1e-6
        fd = (energy_value(NodeField(mesh, u + t * phi), model, eps=0.0)
              - energy_value(NodeField(mesh, u - t * phi), model, eps=0.0)) \
            / (2 * t)
        worst = max(worst, abs(pairing - fd) / max(abs(fd), 1e-12))
    ok = worst <= 1e-6
    verdict(4, ok, f"gradient pairing vs central difference: worst rel "
                   f"{worst:.2e} (30 triples over E/E_hat/J)")


def test_criterion_05_linear_oracle():
    errs = []
    ns = (32, 64, 128, 256)
    for n in ns:
        mesh = build_interval(0, 1, n)
        spec = ProblemSpec("problem1", mesh, exponent_field(mesh, 2.0, r=1.0),
                           source_reaction(constant_field(mesh, 1.0)))
        rep = solve_problem1(spec, SolverOptions(), override=True)
        assert rep.converged and rep.residual_max <= 1e-8
        x = mesh.nodes[:, 0]
        exact = lambda t: t * (1 - t) / 2
        mids = 0.5 * (x[:-1] + x[1:])
        u_mid = 0.5 * (rep.solution.values[:-1] + rep.solution.values[1:])
        err = max(np.abs(rep.solution.values - exact(x)).max(),
                  np.abs(u_mid - exact(mids)).max())
        errs.append(err)
    bounds_ok = all(e <= 5.0 / n ** 2 for e, n in zip(errs, ns))
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    ok = bounds_ok and -slope >= 1.9
    verdict(5, ok, f"linear oracle errors {['%.2e' % e for e in errs]} "
                   f"<= 5/n^2, slope {-slope:.3f} >= 1.9")


def test_criterion_06_uniqueness_subhomogeneous():
    n = 256
    mesh = build_interval(0, 1, n)
    spec = ProblemSpec("problem1", mesh, exponent_field(mesh, 2.0, r=2.0),
                       power_reaction(constant_field(mesh, 1.0),
                                      constant_field(mesh, 1.5)))
    rep = uniqueness_experiment(spec, SolverOptions(), n_inits=4, seed=11,
                                tol=1e-6)
    ok = rep.all_converged and rep.passed is True
    single = solve_problem1(spec, SolverOptions())
    oracle = shoot_sqrt_reaction(mesh.nodes[:, 0])
    oracle_err = np.abs(single.solution.values - oracle).max()
    ok = ok and oracle_err <= 1e-3
    ok = ok and single.negative_energy and single.hopf_margin > 0
    verdict(6, ok, f"five inits within {rep.max_pairwise_distance:.2e}, "
                   f"shooting-oracle error {oracle_err:.2e} <= 1e-3, "
                   f"energy {single.energy:.3e} < 0, "
                   f"hopf {single.hopf_margin:.3f} > 0")


def test_criterion_07_sharpness_eigen_regimes():
    mesh = build_interval(0, 1, 96)
    lam, phi = first_eigenpair(mesh, 2.0)
    exponent = exponent_field(mesh, 2.0, r=2.0)
    q2 = constant_field(mesh, 2.0)

    sub = ProblemSpec("problem1", mesh, exponent,
                      power_reaction(constant_field(mesh, 0.9 * lam), q2))
    rep = solve_problem1(sub, SolverOptions(), override=True)
    sup_u = float(np.abs(rep.solution.values).max())
    ok = sup_u <= 1e-6

    crit_model = EnergyModel(mesh, exponent, reaction=power_reaction(
        constant_field(mesh, lam), q2))
    ts = np.geomspace(0.1, 10.0, 41)
    flat = max(abs(energy_E(NodeField(mesh, t * phi.values), crit_model))
               for t in ts)
    scale = 0.5 * ts.max() ** 2 * lam
    ok = ok and flat <= 1e-9 * scale
    verdict(7, ok, f"h=0.9*lam drives sup u to {sup_u:.2e} <= 1e-6; "
                   f"h=lam eigenray energy flat to {flat / scale:.2e} rel")


def test_criterion_08_eigenvalue():
    lam256, _ = first_eigenpair(build_interval(0, 1, 256), 2.0)
    ok = abs(lam256 - np.pi ** 2) <= 0.005 * np.pi ** 2
    lams = [first_eigenpair(build_interval(0, 1, n), 2.0)[0]
            for n in (64, 128, 256)]
    seq = list(lams)
    while len(seq) > 1:
        seq = [(4 * seq[i + 1] - seq[i]) / 3 for i in range(len(seq) - 1)]
    ok = ok and abs(seq[0] - np.pi ** 2) <= 5e-4 * np.pi ** 2
    lam_wide, _ = first_eigenpair(build_interval(0, 2, 256), 2.0)
    ok = ok and abs(lam_wide - lam256 / 4) <= 1e-3 * lam256 / 4
    verdict(8, ok, f"lam(256) = {lam256:.6f} (pi^2 {np.pi**2:.6f}), "
                   f"extrapolated {seq[0]:.8f}, scaling lam(0,2) = lam/4 "
                   f"within 0.1%")


def test_criterion_09_comparison():
    # closed-form pair: exact nodal solutions of -u'' = 1 and -u'' = 2
    mesh = build_interval(0, 1, 64)
    x = mesh.nodes[:, 0]
    model_r1 = EnergyModel(mesh, exponent_field(mesh, 2.0, r=1.0))
    u1 = NodeField(mesh, x * (1 - x) / 2)
    u2 = NodeField(mesh, x * (1 - x))
    v = comparison_check(u1, u2, constant_field(mesh, 1.0),
                         constant_field(mesh, 2.0), model_r1, tol=0.0)
    ok = v.hypothesis_ok and v.max_excess <= 0.0

    rng = np.random.default_rng(202)
    worst = -np.inf
    for _ in range(20):
        mesh_k = build_interval(0, 1, 64)
        model = EnergyModel(mesh_k, exponent_field(mesh_k, "2+0.5*x", r=1.5))
        base = rng.uniform(0.5, 1.5)
        f1 = constant_field(mesh_k, base)
        f2 = NodeField(mesh_k, base + rng.uniform(0.0, 1.0, mesh_k.n_nodes))
        vd = weak_comparison_experiment(model, f1, f2, SolverOptions(),
                                        tol=1e-6)
        assert vd.hypothesis_ok
        worst = max(worst, vd.max_excess)
    ok = ok and worst <= 1e-6
    verdict(9, ok, f"closed-form ordering exact (excess {v.max_excess:.1e}), "
                   f"20 seeded monotone pairs: worst excess {worst:.2e} <= 1e-6")


def test_criterion_10_problem2():
    def spec_with(ell_value):
        mesh = build_interval(0, 1, 96)
        exponent = exponent_field(mesh, 2.0, r=1.8)
        return ProblemSpec(
            "problem2", mesh, exponent,
            power_reaction(constant_field(mesh, 2.0),
                           constant_field(mesh, 1.5)),
            power_absorption(constant_field(mesh, ell_value),
                             constant_field(mesh, 2.0)))

    spec = spec_with(1.0)
    ok = validate_f(spec.reaction, 1.8).passed
    ok = ok and validate_g(spec.absorption, 1.8, spec.exponent).passed
    ok = ok and validate_corollary_chain(
        spec.reaction.q, spec.absorption.Q, 1.8, spec.exponent).passed
    rep = uniqueness_experiment(spec, SolverOptions(), n_inits=2, seed=31,
                                tol=1e-6)
    ok = ok and rep.passed is True
    sol1 = solve_problem2(spec, SolverOptions())
    sol100 = solve_problem2(spec_with(100.0), SolverOptions())
    shrink = sol100.solution.values.max() < sol1.solution.values.max()
    ok = ok and shrink
    verdict(10, ok, f"validators pass, three inits within "
                    f"{rep.max_pairwise_distance:.2e}, absorption x100 "
                    f"shrinks sup u {sol1.solution.values.max():.4f} -> "
                    f"{sol100.solution.values.max():.4f}")


def test_criterion_11_kirchhoff():
    mesh = build_interval(0, 1, 128)
    exponent = exponent_field(mesh, 2.0, r=2.0)
    reaction = power_reaction(constant_field(mesh, 1.0),
                              constant_field(mesh, 1.5))
    kirch = saturating_kirchhoff(1.0, 2.0)
    speck = ProblemSpec("kirchhoff", mesh, exponent, reaction,
                        kirchhoff=kirch)
    spec1 = ProblemSpec("problem1", mesh, exponent, reaction)

    repk = solve_kirchhoff(speck, SolverOptions())
    model = EnergyModel(mesh, exponent, reaction=reaction, kirchhoff=kirch)
    D = dirichlet_part(repk.solution, model, eps=0.0)
    consistency = abs(repk.kirchhoff_M0 - kirchhoff_M(kirch, D))
    ok = consistency <= 1e-8

    rep1 = solve_problem1(spec1, SolverOptions())
    D1 = dirichlet_part(rep1.solution,
                        EnergyModel(mesh, exponent, reaction=reaction),
                        eps=0.0)
    M0 = brentq(lambda m: m - kirchhoff_M(kirch, m ** -4 * D1), 1.0, 2.0,
                xtol=1e-14)
    scaling_err = np.abs(repk.solution.values
                         - M0 ** -2 * rep1.solution.values).max()
    ok = ok and scaling_err <= 1e-6

    spec_unit = ProblemSpec("kirchhoff", mesh, exponent, reaction,
                            kirchhoff=saturating_kirchhoff(1.0, 1.0))
    rep_unit = solve_kirchhoff(spec_unit, SolverOptions())
    bitwise = np.array_equal(rep_unit.solution.values, rep1.solution.values)
    ok = ok and bitwise
    verdict(11, ok, f"M0 consistency {consistency:.1e} <= 1e-8, scaling "
                    f"oracle error {scaling_err:.2e} <= 1e-6, unit M "
                    f"bitwise-identical: {bitwise}")


def test_criterion_12_validator_examples():
    mesh = build_interval(0, 1, 32)

    def power(h, q):
        return power_reaction(interpolate(mesh, h), interpolate(mesh, q))

    checks = []
    # reaction validator: pass / fail(f2) / fail(q_plus > r)
    checks.append(validate_f(power("1", "1.5"), 2.0).passed is True)
    checks.append(validate_f(power("1", "2"), 2.0)["f2"].status == "fail")
    rep = validate_f(power("1", "1.2+0.5*x"), 1.6)
    checks.append(rep["f2"].status == "fail" and rep["f3"].status == "fail")
    # absorption validator: pass / fail(g2) / fail(g3 against p*)
    p1 = exponent_field(mesh, 2.0, r=2.0)
    checks.append(validate_g(
        power_absorption(constant_field(mesh, 1.0), constant_field(mesh, 2.0)),
        2.0, p1).passed is True)
    checks.append(validate_g(
        power_absorption(constant_field(mesh, 1.0),
                         interpolate(mesh, "1.5+0.2*x")),
        1.8, exponent_field(mesh, 2.0, r=1.8))["g2"].status == "fail")
    mesh2 = build_rectangle(0, 1, 0, 1, 2, 2)
    checks.append(validate_g(
        power_absorption(constant_field(mesh2, 1.0),
                         constant_field(mesh2, 7.0)),
        1.2, exponent_field(mesh2, 1.5, r=1.2))["g3"].status == "fail")
    # diffusion-scale validator: pass / fail(M1) / fail(M2)
    from pxlaplace.energy import KirchhoffTerm
    checks.append(validate_M(saturating_kirchhoff(1.0, 2.0)).passed is True)
    checks.append(validate_M(KirchhoffTerm(0.0, 2.0))["M1"].status == "fail")
    checks.append(validate_M(KirchhoffTerm(2.0, 1.0))["M2"].status == "fail")
    ok = all(checks)
    verdict(12, ok, f"all nine closed-form validator examples reproduce "
                    f"({sum(checks)}/9)")


def test_criterion_13_cli_contract(tmp_path):
    cfg = {
        "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 48},
        "exponent": {"p": "2", "r": 2.0},
        "problem": {"kind": "problem1", "h": "1", "q": "1.5"},
        "solver": {"grad_tol": 1e-9},
        "output": {"dir": str(tmp_path / "out")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    rc1 = run_command(["solve", "--config", str(path), "--seed", "7",
                       "--quiet"])
    first = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
    rc2 = run_command(["solve", "--config", str(path), "--seed", "7",
                       "--quiet"])
    second = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
    ok = rc1 == EXIT_OK and rc2 == EXIT_OK and first == second

    bad_cfg = dict(cfg)
    bad_cfg["problem"] = {"kind": "problem1", "h": "1", "q": "2"}
    bad_path = tmp_path / "fail.json"
    bad_path.write_text(json.dumps(bad_cfg))
    rc_fail = run_command(["validate", "--config", str(bad_path), "--quiet"])
    ok = ok and rc_fail == EXIT_CHECK_FAILED

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    rc_usage = run_command(["solve", "--config", str(broken), "--seed", "1",
                            "--quiet"])
    ok = ok and rc_usage == EXIT_USAGE
    verdict(13, ok, f"byte-identical reruns, exit codes: pass={rc1}, "
                    f"check-failure={rc_fail}, malformed-config={rc_usage}")
