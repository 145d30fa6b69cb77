"""Energy-minimization solver, eigenpair computation and diagnostics.

The solver runs a damped Newton method on the regularized energy: the
degenerate/singular |grad u|^(p-2) factor is replaced by
(eps^2 + |grad u|^2)^((p-2)/2).  Where p < 2 on some cell that weight
is singular as eps -> 0, and eps steps down the rungs of ``EPS_LADDER``
(continuation in eps).  With p >= 2 on every cell the weight is only
degenerate, eps merely bounds it from below, and the solve runs the last
rung, eps = 1e-8, alone: on problem1 with p = 2+x it takes fewer Newton
steps than the seven rungs, to an energy within 1e-12.  The metric is
the exact Hessian of the regularized Dirichlet part (scaled by M(D) under
a Kirchhoff term), which is SPD for p > 1.  It leaves out the -F''
reaction part, which can make the Hessian indefinite, and the dense
rank-one Kirchhoff term M'(D) grad D grad D^T.
The metric is one set of local cell matrices, formed by
``_interior_matrix`` from the mesh's one interior assembly plan
(``grid.interior_plan``, built on first use and kept with the mesh): a
Newton step only scales the plan's cell products G_i . G_j and adds the
rank-one term.  ``grid.assemble`` sums the local matrices into the
plan's fixed CSR pattern, and SuperLU solves the step under a symmetric
minimum-degree ordering (``MMD_AT_PLUS_A``).  The initial amplitude
scan evaluates all of its amplitudes as one array.
Each line-search trial is polished to its absolute value (positive part
when an absorption term is present), which never increases the discrete
energy, and the backtracking Armijo test runs on the polished trial: one
energy evaluation per trial, and the accepted trial's energy carries into
the next iteration, as do the cell gradient and cell average its field
keeps, so a step differentiates each trial once.  ``_descend`` is the one
eps-stage loop, and the Newton step its one direction.  When a direction
has no Armijo step down to t = 1e-18 (a NaN or uphill one included), the
step is solved again with the same gradient and metric K shifted to
K + mu max(diag K) I, mu the next value of ``SHIFTS``
(Levenberg-Marquardt; Nocedal & Wright, Numerical Optimization, 3.4).
Each stage starts unshifted, and mu only grows within it.  Each
eps-stage ends for one reason, recorded in the report's
``stage_exits``: ``tol`` (the gradient met ``grad_tol``), ``floor``
(no Armijo step even at the largest shift), ``frozen`` (an accepted
step left the iterate bitwise unchanged) or ``max_iters``.  problem1
with p = 40 on 32 cells converges from every start measured, where the
unshifted step's trials overflow.
Reported residuals use the unregularized flux.

``first_eigenpair`` runs one normalized preconditioned descent on the
Rayleigh quotient for every r, on the interior values and the same plan.
Its metric is factored by LAPACK's band Cholesky (``dpbtrf`` in lower
band storage, solved by ``dpbtrs``): the grid's lexicographic numbering
makes every interior metric a band of width 1 in 1D and ny in 2D, and
``grid._band`` sums the band from the local matrices through the plan's
band map, with no CSR matrix between.  Only its setup depends on r.  At
r = 2 the quotient reads one stacked operator [K; B] of the interior
stiffness (the Newton metric at p = 2) and the one-point mass, so a
step costs one matrix-vector product per trial and one band solve with
K's factor, built once per call.  Other r go through the energy layer:
one field of each iterate serves the gradient and the metric, which is
factored at every step and never assembled as a CSR matrix.  At r = 2
a step runs two kernels, the product per trial and one band solve.
The gradient is the quotient's, r/den times the Dirichlet part's less
lam times the denominator's, and the metric the Dirichlet part's Newton
metric, so on the high frequencies the full step is r times the
quotient's Newton step and overshoots by a factor r - 1.  For r > 2
the metric carries the factor r/den, and the full step is the
quotient's Newton step (1D r = 3 n = 256: 10 steps instead of 34; r = 4
no longer meets the cap).  r < 2 keeps the unscaled metric, whose
overshoot r - 1 < 1 contracts (scaled, 1D r = 1.5 n = 256 made 141
band solves instead of 23, while 1D r = 1.8 and 2D r = 1.5 made fewer).
At r = 2 the overshoot factor r - 1 = 1 never contracts the high
frequencies, so the descent stops at ``EIGEN_MAX_ITERS`` on every mesh
measured; the step scaled by den/2 would be plain inverse iteration,
which moves the pinned r = 2 eigenvalues.  Other r stop on their own
step: when its predicted decrease g . d is at most 4 ulps of the
quotient, no trial could show a decrease, and the loop ends before
trying one (1D r = 3 n = 256: 13 quotient evaluations instead of 67).

The experiments of the paper's two applications sit here, above the
checkers they read: ``uniqueness_experiment`` solves from several starts
and takes the Diaz-Saa gap of each pair, and
``weak_comparison_experiment`` solves the comparison problem for two
right-hand sides and hands the solutions to
``inequality.comparison_check``.

The module does not import scipy: ``sp`` (``scipy.sparse``), ``spla``
(``scipy.sparse.linalg``) and ``lapack`` (``scipy.linalg.lapack``) are
module attributes resolved on first lookup by ``__getattr__``, and every
sparse or band solve looks ``spla`` or ``lapack`` up there, so each
loads at its first solve, as ``scipy.sparse`` does at the first
``grid.assemble`` (a Newton step or the r = 2 eigen setup).
``import pxlaplace`` pays for numpy alone.
"""

from __future__ import annotations

import importlib
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .anisotropy import _quad_form
from .energy import (EnergyModel, M_hat, ReactionTerm, _F_cells,
                     dirichlet_part, energy_value, gateaux_gradient,
                     kirchhoff_M)
from .exponents import exponent_field
from .grid import (Mesh, NodeField, _basis_pairing, _field_gradient,
                   _band, _gradient, _on_mesh, assemble, cell_average,
                   constant_field, integrate, interior_plan)
from .inequality import (ComparisonVerdict, _comparison_model,
                         comparison_check, diaz_saa_gap)
from .problems import ProblemSpec, build_energy_model, sharpness_regime, \
    validate_f, validate_g, validate_M

__all__ = [
    "SolverOptions",
    "SolveReport",
    "UniquenessReport",
    "minimize_energy",
    "initial_guess",
    "weak_residual",
    "hypotheses",
    "solve",
    "solve_problem1",
    "solve_problem2",
    "solve_kirchhoff",
    "first_eigenpair",
    "uniqueness_experiment",
    "weak_comparison_experiment",
    "hopf_diagnostic",
]


# eps-continuation ladder, 1e-2 down to 1e-8 by factors of ten.  The
# first six rungs are the repeated products 1e-2 * 0.1 * ... * 0.1, so two
# of them sit one and two ulps above the decimals 1e-06 and 1e-07; the
# iterates, and so the pinned results, depend on these exact values.
EPS_LADDER = (0.01, 0.001, 0.0001, 1e-05, 1.0000000000000002e-06,
              1.0000000000000002e-07, 1e-08)
# Levenberg-Marquardt shifts of the Newton metric, in units of its largest
# diagonal entry: 0, then 1e-10 up to 1e8 by factors of a hundred
SHIFTS = (0.0,) + tuple(10.0 ** e for e in range(-10, 9, 2))
# backtracking line search: Armijo constant and step shrink factor
ARMIJO = 1e-4
SHRINK = 0.5
# first_eigenpair: the iteration cap, and the metric's eps, whose square
# only keeps the weight finite on cells where the gradient vanishes
EIGEN_MAX_ITERS = 400
EIGEN_EPS = 1e-15
_SCIPY = {"sp": "scipy.sparse", "spla": "scipy.sparse.linalg",
          "lapack": "scipy.linalg.lapack"}


def __getattr__(name: str):
    """``sp``, ``spla`` and ``lapack``, imported on first lookup (PEP 562).

    Each sparse or band solve looks ``spla`` or ``lapack`` up through this
    function, so the module loads scipy at its first solve, not at import,
    and a stand-in set on the module under either name is the one that
    runs.  The module is kept as a global, and later lookups return that
    global without calling ``import_module``.
    """
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    kept = globals().get(name)
    if kept is None:  # import only on the first lookup
        kept = globals()[name] = importlib.import_module(_SCIPY[name])
    return kept


def _is_int(x) -> bool:
    """An integer, but not a bool (JSON ``true`` is not a count)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class SolverOptions:
    grad_tol: float = 1e-9
    max_iters: int = 5000
    init: object = "bump"  # "bump" | "random" | NodeField
    seed: int = 0

    def __post_init__(self):
        tol = self.grad_tol  # a real number, but not a bool
        if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                or not 0 < tol < np.inf):
            raise ValueError("grad_tol must be positive and finite")
        if not _is_int(self.max_iters) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer >= 1")
        if not _is_int(self.seed):
            raise ValueError("seed must be an integer")
        init = self.init  # a NodeField, or a str naming a start
        if not (isinstance(init, NodeField)
                or isinstance(init, str) and init in ("bump", "random")):
            raise ValueError(f"unknown init {init!r}")


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
    """Nonnegative profile vanishing on the boundary, scaled to max 1: the
    product over the axes of (x - lo)(hi - x), taken left to right."""
    prof = 1.0
    for x, lo, hi in zip(mesh.nodes.T, mesh.bounds[::2], mesh.bounds[1::2]):
        prof = prof * (x - lo) * (hi - x)
    return prof / prof.max()


def initial_guess(model: EnergyModel, opts: SolverOptions):
    """Starting field for the descent, scaled to negative energy when possible.

    A bump (or seeded random positive field, zeroed on the boundary) is
    scanned over a logarithmic amplitude grid; the amplitude minimizing
    the model energy is kept.  Returns (field, found_negative) where the
    flag records whether the kept amplitude has negative energy; a
    user-provided field passes through unchanged with flag None; it must
    live on the model's mesh (``ValueError`` otherwise).
    """
    if isinstance(opts.init, NodeField):
        _on_mesh(model.mesh, opts.init, what="init field")
        return opts.init, None
    mesh = model.mesh
    if opts.init == "bump":
        prof = _bump_profile(mesh)
    else:  # "random"
        rng = np.random.default_rng(opts.seed)
        prof = np.exp(rng.uniform(-1.0, 1.0, mesh.n_nodes))
        prof[mesh.boundary_mask] = 0.0
    base = NodeField(mesh, prof)
    if model.reaction is None:
        return base, None
    # the energies of all amplitudes t as one array: along t * prof the
    # squared cell gradients scale by t^2 and the cell averages by t
    ts = np.geomspace(1e-4, 10.0, 60)
    t = ts[:, None]
    p, m = model.p_cells, mesh.cell_measures
    sq = _quad_form(model.w_cells, _gradient(mesh, prof))
    energies = ((t * t * sq) ** (p / 2.0) / p) @ m
    if model.kirchhoff is not None:
        energies = M_hat(model.kirchhoff, energies)
    uc = t * cell_average(base)
    for sign, h, q in model.potentials:
        energies += sign * (_F_cells(uc, h, q) @ m)
    u0 = NodeField(mesh, ts[np.argmin(energies)] * prof)
    return u0, bool(energy_value(u0, model) < 0.0)


def _interior_matrix(model: EnergyModel, u: NodeField, eps: float):
    """Local matrices (n_cells, d+1, d+1) of the Newton metric at the
    field u; they read the cell gradient u keeps.

    The Hessian of the eps-regularized Dirichlet part, scaled by M(D) under
    a Kirchhoff term as ``gateaux_gradient`` scales the flux: with
    q = |xi|_W^2 and omega = M(D) (eps^2 + q)^((p-2)/2) |cell|, the local
    matrix is G_i^T (omega W) G_j + omega (p-2)/(eps^2+q) a_i a_j with
    a_i = G_i . W xi (W = I for the isotropic flux).  Relative to omega W
    its eigenvalues lie between min(1, p-1) and max(1, p-1), so it is SPD
    for p > 1.  The reaction, absorption and M'(D) parts are left out.
    ``grid.assemble`` sums them into the mesh's interior CSR pattern and
    ``grid._band`` into its lower band, both in cell order; for the
    isotropic flux the summed matrix is bitwise symmetric.  At p = 2
    without a Kirchhoff term they do not depend on u: they sum to the
    interior P1 stiffness.
    """
    mesh = model.mesh
    w = model.w_cells
    p = model.p_cells
    xi = _field_gradient(u)
    s = eps * eps + _quad_form(w, xi)
    pref = 1.0 if model.kirchhoff is None else kirchhoff_M(
        model.kirchhoff, dirichlet_part(u, model, eps))
    omega = pref * s ** ((p - 2.0) / 2.0) * mesh.cell_measures
    if w is None:
        loc = omega[:, None, None] * interior_plan(mesh)[0]
    else:
        G = mesh.shape_grads
        loc = np.einsum("c,dc,cid,cjd->cij", omega, w, G, G)
        xi = w * xi
    # the rank-one term along a_i = G_i . W xi; it vanishes at p = 2
    a = _basis_pairing(mesh, xi)
    loc += ((omega * (p - 2.0) / s)[:, None, None]
            * (a[:, :, None] * a[:, None]))
    return loc


def _band_cholesky(mesh: Mesh, loc: np.ndarray):
    """Cholesky factor, in LAPACK's lower band storage (``dpbtrf``), of
    the interior metric summed from the local matrices ``loc`` by
    ``grid._band``; ``ValueError`` if the metric is not positive
    definite.  ``dpbtrs`` with ``lower=1`` solves with it."""
    c, info = __getattr__("lapack").dpbtrf(_band(mesh, loc), lower=1,
                                           overwrite_ab=1)
    if info > 0:
        raise ValueError("the metric is not positive definite "
                         f"(leading minor {info})")
    return c


def _polish(u: np.ndarray, model: EnergyModel) -> np.ndarray:
    # with an absorption term, |u| could increase the energy; the positive
    # part never does
    if model.absorption is not None:
        return np.maximum(u, 0.0)
    return np.abs(u)


def _descend(model: EnergyModel, u: NodeField, ladder: tuple,
             opts: SolverOptions) -> tuple:
    """The eps-stage loop: damped Newton descent from the zero-trace field
    u, one stage per rung of ``ladder``.

    Returns (u, iterations, exits): the last iterate and, per stage, the
    number of steps taken (``max_iters - 1`` for a capped stage) and the
    exit reason.  Each stage starts on the unshifted metric K.  A Newton
    direction with no Armijo step down to t = 1e-18, one that is NaN
    (SuperLU gives NaN on an exactly singular metric) or not a descent
    direction included, is solved again with the same gradient on
    K + mu max(diag K) I, mu the next value of ``SHIFTS``; a retry is not
    an iteration, and mu keeps its value for the rest of the stage.  The
    stage ends on ``floor`` only when the largest shift fails too.
    """
    mesh = model.mesh
    interior = mesh.interior
    iterations, exits = [], []
    for eps in ladder:
        reason = "max_iters"
        e0 = energy_value(u, model, eps)
        k = 0  # index of the current shift in SHIFTS
        for n_it in range(opts.max_iters):
            g = gateaux_gradient(model, u, eps).values
            if np.abs(g[interior]).max() <= opts.grad_tol:
                reason = "tol"
                break
            if not np.isfinite(e0):
                raise ValueError("non-finite energy: bad model inputs")
            K = assemble(mesh, _interior_matrix(model, u, eps))
            for k in range(k, len(SHIFTS)):
                A = K if k == 0 else (K + SHIFTS[k] * K.diagonal().max()
                                      * __getattr__("sp").identity(
                                          K.shape[0])).tocsr()
                d = np.zeros_like(g)
                # K is SPD: a symmetric fill-reducing ordering fits
                d[interior] = __getattr__("spla").spsolve(
                    A, -g[interior], permc_spec="MMD_AT_PLUS_A")
                gd = float(g @ d)
                t = 1.0
                while gd < 0.0 and t > 1e-18:
                    trial = NodeField(mesh, _polish(u.values + t * d, model))
                    e1 = energy_value(trial, model, eps)
                    if e1 <= e0 + ARMIJO * t * gd:
                        break
                    t *= SHRINK
                else:
                    continue  # no Armijo step: retry on the next shift
                break
            else:
                reason = "floor"
                break
            if trial.values.tobytes() == u.values.tobytes():
                # a frozen iterate: each iteration is a function of
                # (u, eps, mu) alone, so the rest of this stage would
                # repeat this one
                reason = "frozen"
                break
            u, e0 = trial, e1
        iterations.append(n_it)
        exits.append(reason)
    return u, tuple(iterations), tuple(exits)


def minimize_energy(model: EnergyModel, opts: SolverOptions) -> SolveReport:
    """Minimize the model energy over fields vanishing on the boundary.

    Runs ``_descend`` once from the initial guess zeroed on the boundary:
    on every rung of ``EPS_LADDER`` when p < 2 on some cell, and on its
    last rung alone when p >= 2 on every cell, where the flux weight is
    never singular.  ``converged`` is true when no stage stopped
    at the cap and the unregularized residual ``residual_max`` is at most
    ``grad_tol`` (for p < 2 the regularized gradient a stage tests can be
    smaller).  The report also carries positivity and boundary-slope
    diagnostics and the negative-energy certificate of nontriviality.
    """
    mesh = model.mesh
    interior = mesh.interior
    u0, init_flag = initial_guess(model, opts)
    v = np.where(mesh.boundary_mask, 0.0, u0.values)
    # the iterate stays a NodeField, so the cell gradient and cell average
    # its trial's energy computed carry into the next gradient and metric
    # with p >= 2 on every cell the flux weight is never singular, and eps
    # only bounds it from below: the last rung alone takes fewer steps
    ladder = EPS_LADDER[-1:] if model.p_cells.min() >= 2.0 else EPS_LADDER
    u, iterations, exits = _descend(model, NodeField(mesh, v), ladder, opts)
    residual = float(np.abs(gateaux_gradient(model, u).values[interior]).max())
    converged = "max_iters" not in exits and residual <= opts.grad_tol
    e_final = energy_value(u, model)
    m0 = None
    if model.kirchhoff is not None:
        m0 = kirchhoff_M(model.kirchhoff, dirichlet_part(u, model))
    return SolveReport(
        solution=u,
        energy=float(e_final),
        residual_max=residual,
        iterations=iterations,
        stage_exits=exits,
        converged=converged,
        positivity_ok=bool(np.all(u.values[interior] > 0.0)),
        hopf_margin=hopf_diagnostic(u),
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


def hypotheses(spec: ProblemSpec) -> dict:
    """The hypothesis reports of a problem, keyed by the term they test:
    the reaction's ("f") for every kind, the absorption's ("g") for
    problem2 and the diffusion scale's ("M") for kirchhoff."""
    r = spec.exponent.r
    reports = {"f": validate_f(spec.reaction, r)}
    if spec.kind == "problem2":
        reports["g"] = validate_g(spec.absorption, r, spec.exponent)
    elif spec.kind == "kirchhoff":
        reports["M"] = validate_M(spec.kirchhoff)
    return reports


def solve(spec: ProblemSpec, opts: SolverOptions,
          override: bool = False) -> SolveReport:
    """Solve the problem ``spec`` describes by energy minimization.

    A failure of any of its ``hypotheses`` raises ValueError unless
    ``override`` is set.  The report carries the regime tag.
    """
    bad = [e for rep in hypotheses(spec).values() for e in rep.failures()]
    if bad and not override:
        raise ValueError("hypotheses fail: "
                         + "; ".join(f"{e.name}: {e.witness}" for e in bad))
    report = minimize_energy(build_energy_model(spec), opts)
    return replace(report, regime=sharpness_regime(spec).name)


# one entry point serves every kind; the per-kind names stay for callers
solve_problem1 = solve_problem2 = solve_kirchhoff = solve


# -- first eigenpair ---------------------------------------------------------

def first_eigenpair(mesh: Mesh, r: float):
    """Smallest Rayleigh quotient of the r-homogeneous gradient energy.

    Minimizes (integral |grad u|^r) / (integral |u|^r) over zero-trace
    fields by normalized preconditioned descent on the interior values,
    from the bump profile.  The descent stops before any trial when the
    step's predicted decrease g . d (g minus the gradient, d the step) is
    at most 4 ulps of lam, below which no trial can be judged (Hager and
    Zhang, SIAM J. Optim. 16, 2005); when no step down to t = 1e-16
    decreases the quotient; or after ``EIGEN_MAX_ITERS`` iterations.  A
    first step with no decrease, a non-finite step, or a metric that is
    not positive definite in floating point (r = 1.01 on 2D 8x8 meets
    one) raises ``ValueError``; a trial whose quotient overflows (r = 20
    meets them) reads as no decrease, with no numpy warning.  Returns
    (lam, phi) with phi nonnegative and its r-modular normalized to one;
    lam is the Rayleigh value of phi itself, evaluated on the energy layer
    for every r.

    One loop serves every r; only its setup depends on r, and supplies
    ``quotient(w) -> (num, den, carry)`` and ``step(carry, lam, den) ->
    (minus the gradient, the metric's band Cholesky factor)``.  A step
    evaluates the quotient once per trial and makes one ``dpbtrs``, with
    no other pass over the vectors.  At r = 2 the carry is the product
    [Kw; Bw] with the interior stiffness K (the Newton metric at p = 2)
    and the one-point mass B, and the metric is K, factored once.  For
    r != 2 the carry is the nodal values, and one field of them serves
    the gradient (r/den times the problem-1 gradient with p = q = r and
    h = lam) and the metric (the Newton metric of the Dirichlet part,
    without the -lam |u|^(r-2) term of the denominator).

    The scale rule: for r > 2 the metric is multiplied by the gradient's
    factor r/den, so t = 1 is the quotient's Newton step.  Without it the
    full step overshoots the high frequencies by a factor r - 1 > 1: at
    r = 3 every step halves, and at r = 4 they never contract and the
    descent meets the cap.  r < 2 keeps the unscaled metric (overshoot
    r - 1 < 1, which contracts).  At r = 2 the overshoot factor is
    r - 1 = 1, so the high frequencies never contract and the descent
    stops at ``EIGEN_MAX_ITERS``; the step scaled by den/2 would be
    inverse iteration, which moves the pinned r = 2 eigenvalues.
    """
    if not r > 1:
        raise ValueError("need r > 1")
    interior = mesh.interior
    exponent = exponent_field(mesh, r, r)
    model = EnergyModel(mesh, exponent)

    def rayleigh(v: np.ndarray) -> tuple:
        """Numerator and denominator of the Rayleigh quotient of the nodal
        values v >= 0, and v itself."""
        field = NodeField(mesh, v)
        den = integrate(cell_average(field) ** r, mesh)
        return r * dirichlet_part(field, model), den, v

    # the carry is linear in w, so the accepted trial's carry, divided by
    # the factor that normalizes the trial, is the next iterate's
    if r == 2:
        # the quotient of two fixed quadratic forms, given as local
        # matrices: K is the metric at p = 2, which does not depend on u,
        # and B the one-point mass sum_c m_c/(d+1)^2 11^T.  Both are
        # assembled and stacked, B below K, and K's band is factored once
        nloc = mesh.dimension + 1
        K = _interior_matrix(model, constant_field(mesh, 0.0), EIGEN_EPS)
        B = np.broadcast_to(mesh.cell_measures[:, None, None] / nloc ** 2,
                            (mesh.n_cells, nloc, nloc))
        KB = __getattr__("sp").vstack([assemble(mesh, K), assemble(mesh, B)],
                                      format="csr")
        chol = _band_cholesky(mesh, K)

        def quotient(w: np.ndarray) -> tuple:
            y = (KB @ w).reshape(2, -1)  # the carry [Kw; Bw]
            return float(w @ y[0]), float(w @ y[1]), y

        def step(y: np.ndarray, lam: float, den: float) -> tuple:
            return (lam * y[1] - y[0]) * (2.0 / den), chol
    else:
        def quotient(w: np.ndarray) -> tuple:
            return rayleigh(np.bincount(interior, w, mesh.n_nodes))

        def step(v: np.ndarray, lam: float, den: float) -> tuple:
            # one field serves the gradient and the metric, so both read
            # the cell gradient it keeps.  lam > 0 and q = r > 1, so the
            # term skips power_reaction's checks
            field = NodeField(mesh, v)
            eigen = replace(model, reaction=ReactionTerm(
                constant_field(mesh, lam), exponent.values))
            g = gateaux_gradient(eigen, field).values[interior] * (-r / den)
            loc = _interior_matrix(model, field, EIGEN_EPS)
            if r > 2:  # the quotient's Newton scale
                loc *= r / den
            return g, _band_cholesky(mesh, loc)

    u = _bump_profile(mesh)[interior]
    u = u / quotient(u)[1] ** (1.0 / r)
    num, den, y = quotient(u)
    # a trial quotient may overflow (r = 20 does); every non-finite value
    # is refused below by a test of its own, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(EIGEN_MAX_ITERS):
            lam = num / den
            g, chol = step(y, lam, den)  # g is minus the gradient
            d = __getattr__("lapack").dpbtrs(chol, g, lower=1)[0]
            if not np.isfinite(d).all():
                raise ValueError("field values must be finite")
            if g @ d <= 4.0 * np.spacing(lam):
                break  # the predicted decrease is below lam's rounding

            t = 1.0
            while t > 1e-16:
                trial = t * d
                trial += u
                n2, d2, y2 = quotient(np.abs(trial, out=trial))
                if d2 > 0 and n2 / d2 < lam:
                    break
                t *= SHRINK
            else:
                if k == 0:
                    raise ValueError(f"no step lowers the quotient at r = {r}")
                break  # no decrease down to t = 1e-16
            # renormalized, the accepted trial has the quotient (n2 / d2) / 1
            scale = d2 ** (1.0 / r)
            trial /= scale
            y2 /= scale
            u, y = trial, y2
            num, den = n2 / d2, 1.0

    u = np.bincount(interior, u, mesh.n_nodes)  # zero on the boundary
    den = rayleigh(u)[1]
    phi = NodeField(mesh, np.abs(u) / den ** (1.0 / r))
    num, den, _ = rayleigh(phi.values)
    return num / den, phi


# -- uniqueness, comparison and boundary diagnostics -------------------------

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
    regime multiplicity is expected and no verdict is issued.  A source
    is classified as the power term with q = 1.
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
    inconclusive = not all_converged or len(usable) < 2 or expected_multiplicity
    passed = None if inconclusive else dist <= tol
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


def weak_comparison_experiment(model: EnergyModel, f1: NodeField,
                               f2: NodeField, solver_opts, tol: float) -> ComparisonVerdict:
    """Solve the comparison problem for f1 and f2 and compare solutions.

    The right-hand side f(x) u^(r-1) deliberately sits at the equality
    edge of the subhomogeneity condition, so the problem validators are
    bypassed; nonconvergence of either solve propagates.  The verdict is
    ``inequality.comparison_check``'s.
    """
    results = []
    for f in (f1, f2):
        rep = minimize_energy(_comparison_model(model, f), solver_opts)
        if not rep.converged:
            raise RuntimeError("comparison solve did not converge")
        results.append(rep.solution)
    return comparison_check(results[0], results[1], f1, f2, model, tol)


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
