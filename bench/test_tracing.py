"""The benchmark's tracer must not change what the library computes.

Runs small versions of every workload's case kinds untraced and traced and
requires bitwise identical energies, iterations, residuals, eigenvalues
and check verdicts, then checks that the wrapped attributes are restored.
"""

import numpy as np

import tracing
import workloads


def _small_cases():
    # sizes at which no eps-stage stalls, so the test stays fast
    line, square = workloads._interval(32), workloads._square(8)
    cases = [workloads._solve("problem1", line, "n32"),
             workloads._solve("problem2", workloads._interval(24), "n24"),
             workloads._solve("kirchhoff", line, "n32")]
    cases.append(workloads._solve("problem1", square, "8x8"))
    cases.append(workloads.Case("eig-1d", "eigen", (line, 3.0)))
    cases.append(workloads.Case("eig-2d", "eigen", (square, 2.0)))
    rng = np.random.default_rng(0)
    p_square = workloads.exponent_field(square, workloads.P, workloads.R)
    weights = [workloads.grid.interpolate(square, w) for w in ("1+x", "2-y")]
    aniso = workloads.energy.EnergyModel(
        square, p_square,
        anisotropy=workloads.anisotropy.weighted_quadratic(p_square, weights))
    iso = workloads.energy.EnergyModel(
        line, workloads.exponent_field(line, workloads.P, workloads.R))
    cases += workloads._check_cases(rng, "1d", iso)[::8]
    cases += workloads._check_cases(rng, "2d", aniso)[::8]
    return cases


def test_traced_results_are_bitwise_identical():
    cases = _small_cases()
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.SITES]
    plain = [workloads.signature(case.run()) for case in cases]

    tracer = tracing.Tracer()
    with tracer:
        with tracer.span("pass"):
            traced = [workloads.signature(case.run()) for case in cases]

    assert traced == plain
    assert [getattr(owner, attr) for owner, attr, _ in tracing.SITES] == originals
    assert tracing.solver.spla is tracing.solver.sp.linalg

    layers = tracer.layer_times(0)
    value = layers["energy.energy_value"]
    assert value["calls"] == sum(v["calls"] for v in value["by_parent"].values())
    assert set(value["by_parent"]) == {"solver.minimize_energy",
                                       "solver.initial_guess"}
    for name in ("solver.spsolve", "energy.gateaux_gradient",
                 "energy.dirichlet_part", "solver.first_eigenpair",
                 "energy.phi_line", "energy.phi_prime", "grid.cell_average",
                 "problems.validate", "solver.hopf_diagnostic"):
        assert layers[name]["calls"] > 0, name
        assert 0.0 <= layers[name]["self_s"] <= layers[name]["s"], name
