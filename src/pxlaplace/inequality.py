"""Property checkers for convexity, the operator-difference gap, and
weak comparison on discrete instances.

The central quantity is the gap Phi'(1) - Phi'(0) along the segment
between the r-th powers of two positive zero-trace fields: convexity of
the cone energy makes it nonnegative, with equality only for proportional
pairs (and, when p is not identically r, only for identical pairs).  The
gap is computed through the line derivative, which is well defined on the
mesh; the divergence form it represents in the continuum is not.

Each check makes one line call: ``check_ray_convexity`` evaluates Phi at
0, 1 and its whole theta grid in one ``phi_line`` call, and
``diaz_saa_gap`` both end derivatives in one ``phi_prime`` call.

``comparison_check`` decides the weak-comparison verdict of two given
fields; the experiment that solves for them,
``solver.weak_comparison_experiment``, sits above this module, which
imports nothing from the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .energy import (EnergyModel, gateaux_gradient, phi_line, phi_prime,
                     power_reaction)
from .grid import NodeField, _on_mesh, constant_field

__all__ = [
    "RayConvexityReport",
    "GapReport",
    "RatioBounds",
    "ComparisonVerdict",
    "check_ray_convexity",
    "diaz_saa_gap",
    "ratio_bound",
    "comparison_check",
    "RATIO_CAP",
]

RATIO_CAP = 1e6  # finite surrogate for an essentially bounded ratio
# subsolution/supersolution bound on the residual pairings in comparison_check
SUBSUPER_RESIDUAL_TOL = 1e-7


@dataclass(frozen=True)
class RayConvexityReport:
    slacks: np.ndarray
    min_slack: float
    scale: float
    equality_on_grid: bool   # all slacks below the equality tolerance
    proportional_pair: bool  # v2/v1 constant on the nodes
    p_equals_r: bool
    passed: bool             # no slack below -1e-10 * scale


@dataclass(frozen=True)
class GapReport:
    """The gap i1 - i2 and the two Diaz-Saa flux integrals, which are
    the line derivatives i1 = -Phi'(0) and i2 = -Phi'(1)."""

    gap: float
    i1: float
    i2: float
    equality_class: str      # "distinct" | "proportional" | "identical"
    ratio_sup: float         # sup of w1/w2 over interior nodes
    inv_ratio_sup: float     # sup of w2/w1
    scale: float


@dataclass(frozen=True)
class RatioBounds:
    """Interior sups of u1/u2 and u2/u1 with an admissibility flag."""

    sup12: float
    sup21: float
    admissible: bool


@dataclass(frozen=True)
class ComparisonVerdict:
    max_excess: float
    hypothesis_ok: bool
    conclusion_ok: bool
    notes: tuple = ()


def _scale(*values) -> float:
    return max(1.0, *[abs(v) for v in values])


def check_ray_convexity(v1: NodeField, v2: NodeField, model: EnergyModel,
                        theta_grid, kind: str = "W") -> RayConvexityReport:
    """Convexity slack of the line restriction on a theta grid.

    slack(theta) = (1-theta) Phi(0) + theta Phi(1) - Phi(theta) must be
    nonnegative up to rounding; it vanishes identically exactly when the
    pair is proportional and p is identically r.
    """
    thetas = np.asarray(list(theta_grid), dtype=float)
    if thetas.size == 0:
        raise ValueError("theta_grid must be nonempty")
    phis = phi_line(v1, v2, np.concatenate(([0.0, 1.0], thetas)), model, kind)
    phi0, phi1 = float(phis[0]), float(phis[1])
    slacks = (1.0 - thetas) * phi0 + thetas * phi1 - phis[2:]
    scale = _scale(phi0, phi1)
    min_slack = float(slacks.min())

    a, b = v1.values, v2.values
    pos = a > 0
    ratios = b[pos] / a[pos]
    proportional = (ratios.size > 0
                    and np.ptp(ratios) <= 1e-10 * max(1.0, np.abs(ratios).max())
                    and np.array_equal(b[~pos] == 0, a[~pos] == 0))

    return RayConvexityReport(
        slacks=slacks,
        min_slack=min_slack,
        scale=scale,
        equality_on_grid=bool(np.all(np.abs(slacks) <= 1e-10 * scale)),
        proportional_pair=bool(proportional),
        p_equals_r=not model.exponent.above_r.any(),
        passed=bool(min_slack >= -1e-10 * scale),
    )


def ratio_bound(u1: NodeField, u2: NodeField, cap: float = RATIO_CAP) -> RatioBounds:
    """Grid maxima of u1/u2 and u2/u1 over interior nodes.

    Boundary nodes are excluded: for zero-trace fields the ratio there is
    0/0 and its continuum value is the quotient of normal derivatives,
    which the interior nodes approximate.  Both fields must live on one
    mesh (``ValueError`` otherwise).
    """
    _on_mesh(u1.mesh, u2)
    interior = u1.mesh.interior
    return _ratio_bounds(u1.values[interior], u2.values[interior], cap)[0]


def _ratio_bounds(a: np.ndarray, b: np.ndarray, cap: float) -> tuple:
    """``ratio_bound`` of the interior values a of u1 and b of u2, and the
    ratio array b / a its ``sup21`` is taken from."""
    if np.any(b <= 0) or np.any(a <= 0):
        raise ValueError("ratio_bound needs positive interior values")
    ratios = b / a
    sup12 = float(np.max(a / b))
    sup21 = float(np.max(ratios))
    return RatioBounds(sup12, sup21, bool(sup12 <= cap and sup21 <= cap)), \
        ratios


def _classify_equality(w1: NodeField, w2: NodeField,
                       ratios: np.ndarray) -> str:
    """The equality class of a pair whose positive interior ratio array
    w2/w1 is ``ratios``."""
    a, b = w1.values, w2.values
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    if np.max(np.abs(a - b)) <= 1e-10 * scale:
        return "identical"
    if np.ptp(ratios) <= 1e-8 * max(1.0, ratios.max()):
        return "proportional"
    return "distinct"


def diaz_saa_gap(w1: NodeField, w2: NodeField, model: EnergyModel,
                 cap: float = RATIO_CAP) -> GapReport:
    """Operator-difference gap for a pair of positive zero-trace fields.

    Phi is theta -> W_A((1-theta) w1^r + theta w2^r).  Its line
    derivatives at the ends are the two Diaz-Saa flux integrals, up to
    sign: the quotient ``phi_prime`` pairs with is -(w1 - w2^r / w1^(r-1))
    at theta = 0 and w2 - w1^r / w2^(r-1) at theta = 1, so

        i1 = -Phi'(0) = integral a(x, grad w1) . grad(w1 - w2^r / w1^(r-1))
        i2 = -Phi'(1) = integral a(x, grad w2) . grad(w1^r / w2^(r-1) - w2)

    and the gap Phi'(1) - Phi'(0) = i1 - i2 is nonnegative by discrete
    convexity.  Raises for fields off the model's mesh, for pairs that do
    not vanish on the boundary, and, through ``ratio_bound``'s check, for
    pairs that are not positive at interior nodes or whose interior ratio
    exceeds the admissibility cap.
    Each field's boundary is tested and its interior gathered once, and
    one ratio array serves the bounds and the equality class.
    """
    mesh = model.mesh
    _on_mesh(mesh, w1, w2)
    a, b = w1.values, w2.values
    if a[mesh.boundary_mask].any() or b[mesh.boundary_mask].any():
        raise ValueError("gap inputs must vanish on the boundary")
    bounds, ratios = _ratio_bounds(a[mesh.interior], b[mesh.interior], cap)
    if not bounds.admissible:
        raise ValueError(
            f"inadmissible pair: interior ratio exceeds cap {cap:g}")

    r = model.exponent.r
    v1, v2 = NodeField(mesh, a ** r), NodeField(mesh, b ** r)
    i2, i1 = -phi_prime(v1, v2, np.array([1.0, 0.0]), model, "W_A")
    return GapReport(gap=float(i1 - i2), i1=float(i1), i2=float(i2),
                     equality_class=_classify_equality(w1, w2, ratios),
                     ratio_sup=bounds.sup12, inv_ratio_sup=bounds.sup21,
                     scale=_scale(abs(i1) + abs(i2)))


def comparison_check(u1: NodeField, u2: NodeField, f1: NodeField,
                     f2: NodeField, model: EnergyModel, tol: float,
                     mode: str = "solutions") -> ComparisonVerdict:
    """Weak-comparison verdict for two positive fields.

    Hypotheses: 0 <= f1 <= f2 nodewise, positive interior values with
    admissible ratios, and p not identically r.  In ``mode="subsuper"``
    the fields need not solve anything exactly: the discrete residual of
    u1 must be a subsolution pairing (<= ``SUBSUPER_RESIDUAL_TOL``
    against every nonnegative nodal test function) and u2 a
    supersolution pairing.
    Hypothesis violations are reported in the verdict, not raised: each
    failed hypothesis adds one note, and the hypotheses hold when there
    is none.  An unknown mode, and a field off the model's mesh, raise
    ``ValueError``, the mode first.
    """
    if mode not in ("solutions", "subsuper"):
        raise ValueError(f"unknown mode {mode!r}")
    _on_mesh(model.mesh, u1, u2, f1, f2)
    notes = []
    if np.any(f1.values < 0):
        notes.append("f1 has negative values")
    if np.any(f1.values > f2.values):
        notes.append("f1 <= f2 fails at some node")
    interior = model.mesh.interior
    a, b = u1.values[interior], u2.values[interior]
    if np.any(a <= 0) or np.any(b <= 0):
        notes.append("fields are not positive at interior nodes")
    elif not _ratio_bounds(a, b, RATIO_CAP)[0].admissible:
        notes.append("interior ratio exceeds the admissibility cap")
    if not model.exponent.above_r.any():
        notes.append("p is identically r (comparison needs p > r somewhere)")

    if mode == "subsuper" and not notes:
        r1 = _bvp_residual(u1, f1, model)
        r2 = _bvp_residual(u2, f2, model)
        if np.max(r1.values[interior]) > SUBSUPER_RESIDUAL_TOL:
            notes.append("u1 is not a discrete subsolution")
        if np.min(r2.values[interior]) < -SUBSUPER_RESIDUAL_TOL:
            notes.append("u2 is not a discrete supersolution")

    max_excess = float(np.max(u1.values - u2.values))
    return ComparisonVerdict(
        max_excess=max_excess,
        hypothesis_ok=not notes,
        conclusion_ok=bool(max_excess <= tol),
        notes=tuple(notes),
    )


def _comparison_model(model: EnergyModel, f: NodeField) -> EnergyModel:
    """The model's flux with the reaction f(x) u^(r-1) alone, a power
    term for every r (at r = 1 the source f)."""
    reaction = power_reaction(f, constant_field(f.mesh, model.exponent.r))
    return replace(model, reaction=reaction, absorption=None, kirchhoff=None)


def _bvp_residual(u: NodeField, f: NodeField, model: EnergyModel) -> NodeField:
    return gateaux_gradient(_comparison_model(model, f), u, eps=0.0)
