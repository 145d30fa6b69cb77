"""Energy-minimization solver, eigenpair computation and diagnostics.

The solver runs a damped Newton method on the regularized energy with a
geometric continuation in the flux regularization eps: the
degenerate/singular |grad u|^(p-2) factor is replaced by
(eps^2 + |grad u|^2)^((p-2)/2) and eps steps down the rungs of
``EPS_LADDER``.  The metric is the exact Hessian of the regularized
Dirichlet part (scaled by M(D) under a Kirchhoff term), which is SPD for
p > 1.  It leaves out the -F'' reaction part, which can make the Hessian
indefinite, and the dense rank-one Kirchhoff term M'(D) grad D grad D^T.
Each solve builds one assembly plan for its mesh: the cell products
G_i . G_j, a fixed CSR pattern and the slot of every cell entry in it, so
a Newton step only scales the products, adds the rank-one term and sums
the entries into place.  SuperLU solves the step under a symmetric
minimum-degree ordering (``MMD_AT_PLUS_A``).  The initial amplitude scan
evaluates all of its amplitudes as one array.
Each line-search trial is polished to its absolute value (positive part
when an absorption term is present), which never increases the discrete
energy, and the backtracking Armijo test runs on the polished trial: one
energy evaluation per trial, and the accepted trial's energy carries into
the next iteration.  Each eps-stage ends for one reason, recorded in the
report's ``stage_exits``: ``tol`` (the gradient met ``grad_tol``),
``floor`` (no Armijo step down to t = 1e-18), ``frozen`` (an accepted step
left the iterate bitwise unchanged) or ``max_iters``.  Reported residuals
use the unregularized flux.

``first_eigenpair`` runs a normalized preconditioned descent on the
Rayleigh quotient from the same plan.  At r = 2 it fills the interior
stiffness and one-point mass once and works with matrix-vector products
alone; other r go through the energy layer.  At r = 2 it stops at
``EIGEN_MAX_ITERS`` on every mesh measured.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .anisotropy import _quad_form
from .energy import (EnergyModel, M_hat, ReactionTerm, _F_cells,
                     dirichlet_part, energy_value, gateaux_gradient,
                     kirchhoff_M)
from .exponents import exponent_field
from .grid import Mesh, NodeField, cell_average, cell_gradient, constant_field
from .inequality import diaz_saa_gap
from .problems import ProblemSpec, build_energy_model, sharpness_regime, \
    validate_f, validate_g, validate_M

__all__ = [
    "SolverOptions",
    "SolveReport",
    "UniquenessReport",
    "minimize_energy",
    "initial_guess",
    "weak_residual",
    "solve",
    "solve_problem1",
    "solve_problem2",
    "solve_kirchhoff",
    "first_eigenpair",
    "uniqueness_experiment",
    "hopf_diagnostic",
]


# eps-continuation ladder, 1e-2 down to 1e-8 by factors of ten.  The
# first six rungs are the repeated products 1e-2 * 0.1 * ... * 0.1, so two
# of them sit one and two ulps above the decimals 1e-06 and 1e-07; the
# iterates, and so the pinned results, depend on these exact values.
EPS_LADDER = (0.01, 0.001, 0.0001, 1e-05, 1.0000000000000002e-06,
              1.0000000000000002e-07, 1e-08)
# backtracking line search: Armijo constant and step shrink factor
ARMIJO = 1e-4
SHRINK = 0.5
# first_eigenpair: stationarity tolerance (relative to max(1, lam)), the
# iteration cap, and the metric's eps, whose square only keeps the weight
# finite on cells where the gradient vanishes
EIGEN_TOL = 1e-12
EIGEN_MAX_ITERS = 400
EIGEN_EPS = 1e-15


@dataclass(frozen=True)
class SolverOptions:
    grad_tol: float = 1e-9
    max_iters: int = 5000
    init: object = "bump"  # "bump" | "random" | NodeField
    seed: int = 0

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class SolveReport:
    solution: NodeField
    energy: float
    residual_max: float
    iterations: tuple
    stage_exits: tuple
    converged: bool
    positivity_ok: bool
    hopf_margin: float
    negative_energy: bool
    kirchhoff_M0: float | None = None
    init_negative_energy: bool | None = None
    regime: str | None = None

    def as_dict(self) -> dict:
        """Every field but the solution, plus its sup-norm ``sup_u``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "solution"}
        out["sup_u"] = float(np.abs(self.solution.values).max())
        return out


def _bump_profile(mesh: Mesh) -> np.ndarray:
    """Nonnegative profile vanishing on the boundary, scaled to max 1."""
    if mesh.dimension == 1:
        a, b = mesh.bounds
        x = mesh.nodes[:, 0]
        prof = (x - a) * (b - x)
    else:
        ax, bx, ay, by = mesh.bounds
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        prof = (x - ax) * (bx - x) * (y - ay) * (by - y)
    return prof / prof.max()


def initial_guess(model: EnergyModel, opts: SolverOptions):
    """Starting field for the descent, scaled to negative energy when possible.

    A bump (or seeded random positive field, zeroed on the boundary) is
    scanned over a logarithmic amplitude grid; the amplitude minimizing
    the model energy is kept.  Returns (field, found_negative) where the
    flag records whether the kept amplitude has negative energy; a
    user-provided field passes through unchanged with flag None.
    """
    if isinstance(opts.init, NodeField):
        return opts.init, None
    mesh = model.mesh
    if opts.init == "bump":
        prof = _bump_profile(mesh)
    elif opts.init == "random":
        rng = np.random.default_rng(opts.seed)
        prof = np.exp(rng.uniform(-1.0, 1.0, mesh.n_nodes))
        prof[mesh.boundary_mask] = 0.0
    else:
        raise ValueError(f"unknown init {opts.init!r}")
    base = NodeField(mesh, prof)
    if model.reaction is None:
        return base, None
    # the energies of all amplitudes t as one array: along t * prof the
    # squared cell gradients scale by t^2 and the cell averages by t
    ts = np.geomspace(1e-4, 10.0, 60)
    t = ts[:, None]
    p, m = model.p_cells, mesh.cell_measures
    sq = _quad_form(model.w_cells, cell_gradient(mesh, prof))
    energies = ((t * t * sq) ** (p / 2.0) / p) @ m
    if model.kirchhoff is not None:
        energies = M_hat(model.kirchhoff, energies)
    uc = t * cell_average(base)
    for sign, h, q in model.potentials:
        energies += sign * (_F_cells(uc, h, q) @ m)
    u0 = NodeField(mesh, ts[np.argmin(energies)] * prof)
    return u0, bool(energy_value(u0, model) < 0.0)


def _interior_pattern(mesh: Mesh) -> tuple:
    """Assembly plan of the interior-node matrix, built once per mesh.

    Holds the per-cell products G_i . G_j, the CSR ``indices`` and
    ``indptr`` (the pattern is symmetric, so they are also the CSC ones)
    and the slot in ``data`` of every cell entry; entries on a boundary
    row or column get the slot one past the end.
    """
    nloc = mesh.dimension + 1
    n = mesh.interior.size
    idx = np.full(mesh.n_nodes, -1)
    idx[mesh.interior] = np.arange(n)
    rows = np.repeat(idx[mesh.cells], nloc, axis=1).ravel()
    cols = np.tile(idx[mesh.cells], (1, nloc)).ravel()
    keys = np.where((rows >= 0) & (cols >= 0), rows * n + cols, n * n)
    keys, slots = np.unique(keys, return_inverse=True)
    keys = keys[keys < n * n]
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.intc)
    GG = np.einsum("cid,cjd->cij", mesh.shape_grads, mesh.shape_grads)
    return GG, (keys % n).astype(np.intc), indptr, slots


def _fill(plan: tuple, loc: np.ndarray) -> sp.csr_array:
    """Sum the local matrices ``loc`` (n_cells, d+1, d+1) into the plan's
    fixed interior pattern, in cell order."""
    _, indices, indptr, slots = plan
    data = np.bincount(slots, loc.ravel(), indptr[-1] + 1)[:-1]
    n = indptr.size - 1
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def _stiffness_and_mass(mesh: Mesh, plan: tuple) -> tuple:
    """Interior P1 stiffness K and one-point mass B = sum_c m_c/(d+1)^2 11^T.

    For u vanishing on the boundary, u.Ku is twice the Dirichlet part at
    p = 2 and u.Bu the integral of the squared cell averages.
    """
    GG = plan[0]
    m = mesh.cell_measures[:, None, None]
    return (_fill(plan, m * GG),
            _fill(plan, np.broadcast_to(m / (mesh.dimension + 1) ** 2,
                                        GG.shape)))


def _interior_matrix(model: EnergyModel, u: np.ndarray, eps: float,
                     pref: float, plan: tuple) -> sp.csr_array:
    """Newton metric on interior nodes.

    The Hessian of ``pref`` times the eps-regularized Dirichlet part: with
    q = |xi|_W^2 and omega = pref (eps^2 + q)^((p-2)/2) |cell|, the local
    matrix is G_i^T (omega W) G_j + omega (p-2)/(eps^2+q) a_i a_j with
    a_i = G_i . W xi (W = I for the isotropic flux).  Relative to omega W
    its eigenvalues lie between min(1, p-1) and max(1, p-1), so it is SPD
    for p > 1.  The reaction, absorption and M'(D) parts are left out.
    The entries are summed into the fixed pattern of ``plan``, in cell
    order; for the isotropic flux the matrix is bitwise symmetric.
    """
    mesh = model.mesh
    w = model.w_cells
    p = model.p_cells
    GG = plan[0]
    xi = cell_gradient(mesh, u)
    s = eps * eps + _quad_form(w, xi)
    omega = pref * s ** ((p - 2.0) / 2.0) * mesh.cell_measures
    G = mesh.shape_grads
    if w is None:
        loc = omega[:, None, None] * GG
    else:
        loc = np.einsum("c,cd,cid,cjd->cij", omega, w, G, G)
        xi = w * xi
    # the rank-one term along a_i = G_i . W xi; it vanishes at p = 2
    a = np.einsum("cid,cd->ci", G, xi)
    loc += ((omega * (p - 2.0) / s)[:, None, None]
            * (a[:, :, None] * a[:, None]))
    return _fill(plan, loc)


def _polish(u: np.ndarray, model: EnergyModel) -> np.ndarray:
    # with an absorption term, |u| could increase the energy; the positive
    # part never does
    if model.absorption is not None:
        return np.maximum(u, 0.0)
    return np.abs(u)


def minimize_energy(model: EnergyModel, opts: SolverOptions) -> SolveReport:
    """Minimize the model energy over fields vanishing on the boundary.

    Runs the eps-continuation described in the module docstring.  The
    report's ``iterations`` and ``stage_exits`` hold, per stage, the
    number of steps taken (``max_iters - 1`` for a capped stage) and the
    exit reason.  ``converged`` is true when every stage exited on
    ``tol`` (the max-norm of its regularized nodal gradient at most
    ``grad_tol``) and the unregularized residual ``residual_max`` is at
    most ``grad_tol`` too (for p < 2 the two gradients differ).  The
    report also carries positivity and boundary-slope diagnostics and the
    negative-energy certificate of nontriviality.
    """
    mesh = model.mesh
    interior = mesh.interior
    plan = _interior_pattern(mesh)
    u0, init_flag = initial_guess(model, opts)
    u = u0.values.copy()
    u[mesh.boundary_mask] = 0.0

    iterations, exits = [], []
    for eps in EPS_LADDER:
        pref = 1.0
        n_it = 0
        reason = "max_iters"
        e0 = energy_value(NodeField(mesh, u), model, eps)
        for n_it in range(opts.max_iters):
            g = gateaux_gradient(model, NodeField(mesh, u), eps).values
            if np.abs(g[interior]).max() <= opts.grad_tol:
                reason = "tol"
                break
            if model.kirchhoff is not None:
                pref = kirchhoff_M(model.kirchhoff,
                                   dirichlet_part(NodeField(mesh, u), model, eps))
            K = _interior_matrix(model, u, eps, pref, plan)
            d = np.zeros_like(u)
            # K is SPD: a symmetric fill-reducing ordering fits
            d[interior] = spla.spsolve(K, -g[interior],
                                       permc_spec="MMD_AT_PLUS_A")
            gd = float(g @ d)
            if not np.isfinite(gd) or gd >= 0.0:
                # spsolve gives NaN on an exactly singular K (p = 20 gets
                # there); along -g, gd = -g.g < 0 as g is above grad_tol
                d = -g
                gd = float(g @ d)
            if not np.isfinite(e0):
                raise ValueError("non-finite energy: bad model inputs")
            t = 1.0
            while t > 1e-18:
                trial = _polish(u + t * d, model)
                e1 = energy_value(NodeField(mesh, trial), model, eps)
                if e1 <= e0 + ARMIJO * t * gd:
                    break
                t *= SHRINK
            else:
                reason = "floor"  # no Armijo step down to t = 1e-18
                break
            if trial.tobytes() == u.tobytes():
                # a frozen iterate: each iteration is a function of (u, eps)
                # alone, so the rest of this stage would repeat this one
                reason = "frozen"
                break
            u, e0 = trial, e1
        iterations.append(n_it)
        exits.append(reason)

    sol = NodeField(mesh, u)
    residual = float(np.abs(
        gateaux_gradient(model, sol).values[interior]).max())
    e_final = energy_value(sol, model)
    m0 = None
    if model.kirchhoff is not None:
        m0 = kirchhoff_M(model.kirchhoff, dirichlet_part(sol, model))
    return SolveReport(
        solution=sol,
        energy=float(e_final),
        residual_max=residual,
        iterations=tuple(iterations),
        stage_exits=tuple(exits),
        converged=all(r == "tol" for r in exits) and residual <= opts.grad_tol,
        positivity_ok=bool(np.all(u[interior] > 0.0)),
        hopf_margin=hopf_diagnostic(sol),
        negative_energy=bool(e_final < 0.0),
        kirchhoff_M0=m0,
        init_negative_energy=init_flag,
    )


def weak_residual(u: NodeField, spec: ProblemSpec) -> float:
    """Max-norm of the discrete weak-form residual over nodal test functions.

    Equals the max-norm of the unregularized nodal energy gradient; each
    entry is the pairing of the equation with one interior nodal basis
    function and inherits that node's cell-patch measure.
    """
    if np.any(u.values[u.mesh.boundary_mask] != 0):
        raise ValueError("weak_residual needs a zero-trace field")
    g = gateaux_gradient(build_energy_model(spec), u)
    return float(np.abs(g.values[u.mesh.interior]).max())


def solve(spec: ProblemSpec, opts: SolverOptions,
          override: bool = False) -> SolveReport:
    """Solve the problem ``spec`` describes by energy minimization.

    The reaction hypotheses are validated for every kind, the absorption
    hypotheses for problem2 and the diffusion-scale hypotheses for
    kirchhoff; a failure raises ValueError unless ``override`` is set.
    The report carries the regime tag of power-reaction instances.
    """
    r = spec.exponent.r
    reports = [validate_f(spec.reaction, r)]
    if spec.kind == "problem2":
        reports.append(validate_g(spec.absorption, r, spec.exponent,
                                  spec.mesh.dimension))
    elif spec.kind == "kirchhoff":
        reports.append(validate_M(spec.kirchhoff))
    bad = [e for rep in reports for e in rep.failures()]
    if bad and not override:
        raise ValueError("hypotheses fail: "
                         + "; ".join(f"{e.name}: {e.witness}" for e in bad))
    report = minimize_energy(build_energy_model(spec), opts)
    try:
        regime = sharpness_regime(spec).name
    except ValueError:
        regime = None
    return replace(report, regime=regime)


# one entry point serves every kind; the per-kind names stay for callers
solve_problem1 = solve_problem2 = solve_kirchhoff = solve


# -- first eigenpair ---------------------------------------------------------

def first_eigenpair(mesh: Mesh, r: float):
    """Smallest Rayleigh quotient of the r-homogeneous gradient energy.

    Minimizes (integral |grad u|^r) / (integral |u|^r) over zero-trace
    fields by normalized preconditioned descent from the bump profile.  For
    r != 2 it runs on the energy layer of the r-constant model: the
    numerator is r times its Dirichlet part, the quotient's gradient is
    r/den times the problem-1 gradient with p = q = r and h = lam, and the
    metric is the Newton metric of the Dirichlet part (without the
    -lam |u|^(r-2) term of the denominator), rebuilt each iteration.  At
    r = 2 the quotient is u.Ku / u.Bu for the interior stiffness K and
    one-point mass B, both assembled once per call: each quotient is two
    sparse matrix-vector products, the gradient is (2/den)(Ku - lam Bu)
    and the metric is K, factored once.  Both run the same loop and line
    search.  The descent stops when the quotient's gradient is below
    ``EIGEN_TOL`` (relative to max(1, lam)), no step decreases the
    quotient, or after ``EIGEN_MAX_ITERS`` iterations; at r = 2 every
    mesh measured ends at that cap.  Returns (lam, phi) with phi
    nonnegative and its r-modular normalized to one; lam is the Rayleigh
    value of phi itself, evaluated on the energy layer for every r.
    """
    if not r > 1:
        raise ValueError("need r > 1")
    interior = mesh.interior
    exponent = exponent_field(mesh, r, r)
    model = EnergyModel(mesh, exponent)
    plan = _interior_pattern(mesh)

    def rayleigh(v: np.ndarray) -> tuple:
        """Numerator and denominator of the Rayleigh quotient of v >= 0."""
        field = NodeField(mesh, v)
        den = float(np.sum(cell_average(field) ** r * mesh.cell_measures))
        return r * dirichlet_part(field, model), den

    if r == 2:
        # the quotient of two fixed quadratic forms; the metric is the
        # stiffness itself, factored once.  K is symmetric, so its
        # transpose is the CSC view splu takes
        K, B = _stiffness_and_mass(mesh, plan)
        lu = spla.splu(K.T)

        def quotient(v: np.ndarray) -> tuple:
            w = NodeField(mesh, v).values[interior]
            return float(w @ (K @ w)), float(w @ (B @ w))

        def gradient(v: np.ndarray, lam: float, den: float) -> np.ndarray:
            w = v[interior]
            return (K @ w - lam * (B @ w)) * (2.0 / den)
    else:
        quotient = rayleigh

        def gradient(v: np.ndarray, lam: float, den: float) -> np.ndarray:
            # lam > 0 and q = r > 1, so the term skips power_reaction's
            # checks
            eigen = replace(model, reaction=ReactionTerm(
                "power", constant_field(mesh, lam), exponent.values))
            g = gateaux_gradient(eigen, NodeField(mesh, v)).values
            return g[interior] * (r / den)

    u = _bump_profile(mesh)
    u = u / quotient(u)[1] ** (1.0 / r)
    num, den = quotient(u)
    for _ in range(EIGEN_MAX_ITERS):
        lam = num / den
        g = gradient(u, lam, den)
        if np.abs(g).max() <= EIGEN_TOL * max(1.0, lam):
            break

        if r != 2:
            lu = spla.splu(_interior_matrix(
                model, u, EIGEN_EPS, 1.0, plan).T)
        d = np.zeros_like(u)
        d[interior] = lu.solve(-g)

        t = 1.0
        while t > 1e-16:
            trial = np.abs(u + t * d)
            n2, d2 = quotient(trial)
            if d2 > 0 and n2 / d2 < lam:
                break
            t *= SHRINK
        else:
            break  # no decrease down to t = 1e-16
        # renormalized, the accepted trial has the quotient (n2 / d2) / 1
        u = trial / d2 ** (1.0 / r)
        num, den = n2 / d2, 1.0

    den = rayleigh(u)[1]
    phi = NodeField(mesh, np.abs(u) / den ** (1.0 / r))
    num, den = rayleigh(phi.values)
    return num / den, phi


# -- uniqueness and boundary diagnostics -------------------------------------

@dataclass(frozen=True)
class UniquenessReport:
    max_pairwise_distance: float
    solution_scale: float  # largest sup-norm among the converged solutions
    gaps: tuple
    n_runs: int
    all_converged: bool
    all_positive: bool
    regime: str
    expected_multiplicity: bool
    passed: bool | None  # None when inconclusive or multiplicity expected


def uniqueness_experiment(spec: ProblemSpec, opts: SolverOptions,
                          n_inits: int, seed: int, tol: float) -> UniquenessReport:
    """Multi-start uniqueness probe.

    Solves from the bump plus ``n_inits`` seeded random positive inits and
    reports the largest pairwise max-norm distance among converged
    positive solutions, together with the operator-difference gap of each
    pair (near zero at a common solution).  In the eigenvalue-degenerate
    regime multiplicity is expected and no verdict is issued.
    """
    regime = sharpness_regime(spec).name
    model = build_energy_model(spec)
    runs = [minimize_energy(model, replace(opts, init="bump"))]
    for k in range(n_inits):
        runs.append(minimize_energy(
            model, replace(opts, init="random", seed=seed + k)))

    all_converged = all(r.converged for r in runs)
    usable = [r.solution for r in runs if r.converged and r.positivity_ok]
    dist = 0.0
    scale = max((float(np.abs(s.values).max()) for s in usable), default=0.0)
    gaps = []
    for i in range(len(usable)):
        for j in range(i + 1, len(usable)):
            dist = max(dist, float(np.abs(
                usable[i].values - usable[j].values).max()))
            gaps.append(diaz_saa_gap(usable[i], usable[j], model).gap)

    expected_multiplicity = regime == "degenerate-eigen"
    if not all_converged or len(usable) < 2:
        passed = None
    elif expected_multiplicity:
        passed = None
    else:
        passed = dist <= tol
    return UniquenessReport(
        max_pairwise_distance=dist,
        solution_scale=scale,
        gaps=tuple(gaps),
        n_runs=len(runs),
        all_converged=all_converged,
        all_positive=all(r.positivity_ok for r in runs),
        regime=regime,
        expected_multiplicity=expected_multiplicity,
        passed=passed,
    )


def hopf_diagnostic(u: NodeField) -> float:
    """Smallest inward difference quotient over boundary nodes.

    For each boundary node, (value at the nearest interior node) / distance;
    a positive minimum certifies the discrete boundary-slope sign of the
    maximum principle.  The field must vanish on the boundary.

    On the structured grid the nearest interior node is unique: clip the
    boundary node's grid index into the interior index range per axis.
    """
    mesh = u.mesh
    if np.any(u.values[mesh.boundary_mask] != 0):
        raise ValueError("hopf_diagnostic needs a zero-trace field")
    bidx = np.flatnonzero(mesh.boundary_mask)
    shape = tuple(n + 1 for n in mesh.resolution)
    index = np.unravel_index(bidx, shape)
    nearest = np.ravel_multi_index(
        [np.clip(i, 1, n - 1) for i, n in zip(index, mesh.resolution)], shape)
    d = np.linalg.norm(mesh.nodes[bidx] - mesh.nodes[nearest], axis=-1)
    return float((u.values[nearest] / d).min())
