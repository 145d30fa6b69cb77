"""Problem definitions and closed-form hypothesis validators.

Three Dirichlet problems are supported: the subhomogeneous reaction
problem, its absorption variant, and the nonlocal Kirchhoff variant.  For
the built-in parametric reaction/absorption/diffusion kinds every
hypothesis reduces to comparisons between nodal exponent extrema, so the
validators decide them in closed form; conditions involving genuine limits
are marked indeterminate for anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (AbsorptionTerm, EnergyModel, KirchhoffTerm, M_hat,
                     ReactionTerm)
from .exponents import ExponentField, sobolev_conjugate, UNBOUNDED
from .grid import Mesh, NodeField, _on_mesh, cell_average
from .reporting import FAIL, INDETERMINATE, PASS, ValidationReport

__all__ = [
    "ProblemSpec",
    "build_energy_model",
    "validate_f",
    "validate_g",
    "validate_M",
    "validate_corollary_chain",
    "sharpness_regime",
    "RegimeTag",
]


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified Dirichlet problem instance.

    The exponent and every field of the reaction and absorption terms must
    be sampled on ``mesh`` (``ValueError`` otherwise).
    """

    kind: str  # "problem1" | "problem2" | "kirchhoff"
    mesh: Mesh
    exponent: ExponentField
    reaction: ReactionTerm
    absorption: AbsorptionTerm | None = None
    kirchhoff: KirchhoffTerm | None = None

    def __post_init__(self):
        if self.kind not in ("problem1", "problem2", "kirchhoff"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == "problem2" and self.absorption is None:
            raise ValueError("problem2 needs an absorption term")
        if self.kind == "kirchhoff" and self.kirchhoff is None:
            raise ValueError("kirchhoff needs a Kirchhoff term")
        _on_mesh(self.mesh, self.exponent, what="exponent")
        terms = (self.reaction.h, self.reaction.q) + (
            () if self.absorption is None
            else (self.absorption.ell, self.absorption.Q))
        _on_mesh(self.mesh, *terms, what="term field")


def build_energy_model(spec: ProblemSpec) -> EnergyModel:
    return EnergyModel(
        mesh=spec.mesh,
        exponent=spec.exponent,
        reaction=spec.reaction,
        absorption=spec.absorption if spec.kind == "problem2" else None,
        kirchhoff=spec.kirchhoff if spec.kind == "kirchhoff" else None,
    )


def _extrema(f: NodeField) -> tuple:
    return float(f.values.min()), float(f.values.max())


def validate_f(term: ReactionTerm, r: float) -> ValidationReport:
    """Hypotheses on the reaction term, decided in closed form.

    (f1) nonnegativity with f(x, 0) = 0;
    (f2) s -> f(x, s)/s^(r-1) strictly decreasing at every node;
    (f3) that quotient tends to +infinity at 0 and to 0 at infinity,
         uniformly in x.

    For the power kind these reduce to q > 1 nodewise, q < r nodewise,
    and q_plus < r; for the plain source kind (f2) needs r > 1 and (f3)
    holds iff r > 1.
    """
    report = ValidationReport()
    h_min = float(term.h.values.min())
    if term.kind == "source":
        report.add("f1", PASS if h_min > 0 else FAIL, f"h_min = {h_min}")
        report.add("f2", PASS if r > 1 else FAIL,
                   "f/s^(r-1) = h s^(1-r)" + ("" if r > 1 else " is constant"))
        report.add("f3", PASS if r > 1 else FAIL, f"r = {r}")
        return report

    q_minus, q_plus = _extrema(term.q)
    f1_ok = h_min > 0 and q_minus > 1
    report.add("f1", PASS if f1_ok else FAIL,
               f"h_min = {h_min}, q_min = {q_minus}"
               + ("" if q_minus > 1 else " (f(x,0) = h at q = 1)"))
    if q_plus < r:
        report.add("f2", PASS, f"q_plus = {q_plus} < r = {r}")
    else:
        witness = int(np.argmax(term.q.values))
        report.add("f2", FAIL,
                   f"q >= r at node {witness} (q = {term.q.values[witness]})")
    report.add("f3", PASS if q_plus < r else FAIL,
               f"q_plus = {q_plus}, r = {r}")
    return report


def validate_g(term: AbsorptionTerm, r: float, p: ExponentField,
               dimension: int) -> ValidationReport:
    """Hypotheses on the absorption term, decided in closed form.

    (g1) positivity for s > 0 with g(x, 0) = 0;
    (g2) s -> g(x, s)/s^(r-1) monotone increasing (not necessarily
         strictly): Q >= r nodewise;
    (g3) growth exponent between 1 and the Sobolev conjugate of p.

    Witnesses record the small-s domination constant C0 with
    g(x, s) <= C0 s^(r-1) near zero, and the large-s growth constant.
    ell and Q must be sampled on the mesh of p (``ValueError`` otherwise).
    """
    _on_mesh(p.mesh, term.ell, term.Q, what="term field")
    report = ValidationReport()
    ell_min = float(term.ell.values.min())
    Q_minus, Q_plus = _extrema(term.Q)
    g1_ok = ell_min > 0 and Q_minus > 1
    report.add("g1", PASS if g1_ok else FAIL,
               f"ell_min = {ell_min}, Q_min = {Q_minus}")
    if Q_minus >= r:
        report.add("g2", PASS, f"Q_min = {Q_minus} >= r = {r}")
    else:
        witness = int(np.argmin(term.Q.values))
        report.add("g2", FAIL,
                   f"Q < r at node {witness} (Q = {term.Q.values[witness]})")
    pstar = sobolev_conjugate(p, dimension)
    margin = pstar.values - term.Q.values
    if Q_minus > 1 and np.all(margin > 0):
        pstar_min = float(pstar.values.min())
        shown = "inf" if pstar_min >= UNBOUNDED else f"{pstar_min}"
        report.add("g3", PASS, f"Q_plus = {Q_plus} < p* (min p* = {shown})")
    else:
        witness = int(np.argmin(margin))
        report.add("g3", FAIL,
                   f"m = Q violates 1 < m < p* at node {witness} "
                   f"(Q = {term.Q.values[witness]}, p* = {pstar.values[witness]})")
    # growth-constant witnesses: g(x,s) <= C0 s^(r-1) on (0, 1], and
    # g(x,s)/s^(Q-1) <= C for all s
    C0 = float(term.ell.values.max())
    report.add("small_s_constant", INDETERMINATE, f"C0(s0=1) = {C0}")
    report.add("growth_constant", INDETERMINATE, f"C = {C0}")
    return report


def validate_M(term: KirchhoffTerm) -> ValidationReport:
    """Hypotheses on the diffusion scale, closed form for the saturating kind.

    (M1) M(0) > 0; (M2) monotone increasing; (M3) bounded with a finite
    monotone limit.  The antiderivative sandwich
    M(0) t <= M_hat(t) <= M(inf) t is checked on 101 points spanning
    [0, 100].
    """
    report = ValidationReport()
    report.add("M1", PASS if term.m0 > 0 else FAIL, f"M(0) = {term.m0}")
    report.add("M2", PASS if term.m_inf >= term.m0 else FAIL,
               f"m0 = {term.m0}, m_inf = {term.m_inf}")
    report.add("M3", PASS if np.isfinite(term.m_inf) else FAIL,
               f"M(+inf) = {term.m_inf}")
    if report.passed:
        ts = np.linspace(0.0, 100.0, 101)
        hats = M_hat(term, ts)
        ok = np.all(term.m0 * ts - 1e-12 <= hats) and np.all(
            hats <= term.m_inf * ts + 1e-12)
        report.add("M_hat_sandwich", PASS if ok else FAIL,
                   f"checked on {len(ts)} grid points, T = {ts.max()}")
    return report


def validate_corollary_chain(q: NodeField, Q: NodeField, r: float,
                             p: ExponentField) -> ValidationReport:
    """Exponent chain 1 <= q- <= q+ < r < p- <= p+ and r <= Q-."""
    report = ValidationReport()
    q_minus, q_plus = _extrema(q)
    Q_minus, _ = _extrema(Q)
    report.add("1 <= q_minus", PASS if q_minus >= 1 else FAIL,
               f"q_minus = {q_minus}")
    report.add("q_plus < r", PASS if q_plus < r else FAIL,
               f"q_plus = {q_plus}, r = {r}")
    report.add("r < p_minus", PASS if r < p.p_minus else FAIL,
               f"r = {r}, p_minus = {p.p_minus}")
    report.add("r <= Q_minus", PASS if r <= Q_minus else FAIL,
               f"r = {r}, Q_minus = {Q_minus}")
    return report


@dataclass(frozen=True)
class RegimeTag:
    name: str
    frac_p_above_r: float
    frac_q_below_r: float


def sharpness_regime(spec: ProblemSpec) -> RegimeTag:
    """Classify a power-reaction instance by its uniqueness mechanism.

    unique-full:       q_plus < r <= p_minus, quotient strictly decreasing
                       everywhere;
    unique-partial-c:  q <= r = p_minus with p > r on a positive fraction;
    unique-partial-d:  p identically r (constant) with q < r on a positive
                       fraction;
    degenerate-eigen:  q = r = p constant (eigenvalue-type instance);
    unclassified:      anything else.

    Fractions are measured at quadrature points.
    """
    if spec.reaction.kind != "power":
        raise ValueError("sharpness classification needs a power reaction")
    exp = spec.exponent
    r = exp.r
    p_cells = exp.cellwise()
    q_cells = cell_average(spec.reaction.q)
    frac_p = float(np.mean(p_cells - r > 1e-12))
    frac_q = float(np.mean(r - q_cells > 1e-12))
    q_minus, q_plus = _extrema(spec.reaction.q)

    p_const_r = exp.p_plus - exp.p_minus <= 1e-12 and abs(exp.p_minus - r) <= 1e-12
    q_const_r = q_plus - q_minus <= 1e-12 and abs(q_plus - r) <= 1e-12

    if p_const_r and q_const_r:
        name = "degenerate-eigen"
    elif q_plus <= r and abs(r - exp.p_minus) <= 1e-12 and frac_p > 0:
        name = "unique-partial-c"
    elif p_const_r and q_plus <= r and frac_q > 0:
        name = "unique-partial-d"
    elif q_plus < r <= exp.p_minus:
        name = "unique-full"
    else:
        name = "unclassified"
    return RegimeTag(name, frac_p, frac_q)


def _regime(spec: ProblemSpec) -> RegimeTag | None:
    """The regime tag of a power reaction; None for a source, which the
    classification does not cover."""
    return sharpness_regime(spec) if spec.reaction.kind == "power" else None
