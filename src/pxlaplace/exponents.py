"""Variable exponents p(x) with their bounds, modular and Luxemburg norm.

An exponent field carries nodal samples of p and the fixed homogeneity
constant r, and derives the grid extrema p_minus and p_plus from the
samples; it holds 1 <= r <= p_minus.  The modular of a field u is the
integral of |u(x)|^p(x); the Luxemburg norm is the scaling that brings
the modular to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (Mesh, NodeField, _on_mesh, cell_average, integrate,
                   interpolate)
from .reporting import FAIL, INDETERMINATE, PASS, ValidationReport

__all__ = [
    "ExponentField",
    "exponent_field",
    "exponent_bounds",
    "validate_exponent_hypothesis",
    "modular",
    "luxemburg_norm",
    "sobolev_conjugate",
    "UNBOUNDED",
]


@dataclass(frozen=True)
class ExponentField:
    """Nodal exponent samples and the comparison constant r.

    The field is given its samples and r, and derives the grid extrema
    p_minus and p_plus from the samples by ``exponent_bounds`` (so
    ``dataclasses.replace`` derives them again); it refuses samples not
    above 1 and an r outside [1, p_minus].  It also derives ``above_r``,
    the package's one rule for "p exceeds r on a cell": a read-only mask
    of the cells whose ``cellwise`` p exceeds r by more than 1e-12.  As
    r <= p_minus, p is identically r exactly when the mask is empty.
    """

    values: NodeField
    r: float
    p_minus: float = field(init=False)
    p_plus: float = field(init=False)
    above_r: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p_minus, p_plus = exponent_bounds(self.values)
        if not 1.0 <= self.r <= p_minus:
            raise ValueError(
                f"need 1 <= r <= p_minus, got r={self.r}, p_minus={p_minus}"
            )
        object.__setattr__(self, "p_minus", p_minus)
        object.__setattr__(self, "p_plus", p_plus)
        above = self.cellwise() - self.r > 1e-12
        above.flags.writeable = False
        object.__setattr__(self, "above_r", above)

    @property
    def mesh(self) -> Mesh:
        return self.values.mesh

    def cellwise(self) -> np.ndarray:
        return cell_average(self.values)


def exponent_field(mesh: Mesh, p, r: float) -> ExponentField:
    """Build an ExponentField by sampling ``p`` (number, callable or
    expression text) at the mesh nodes."""
    return ExponentField(interpolate(mesh, p), float(r))


def exponent_bounds(p: NodeField) -> tuple:
    """Grid extrema (min, max) of a nodal exponent field.

    Values must exceed 1 everywhere; the extrema under/over-estimate the
    true inf/sup of the sampled function, which is what every discrete
    statement here consumes.
    """
    vals = p.values
    p_minus = float(vals.min())
    p_plus = float(vals.max())
    if p_minus <= 1.0:
        raise ValueError(f"invalid exponent: min nodal value {p_minus} <= 1")
    return p_minus, p_plus


def validate_exponent_hypothesis(p: ExponentField, alpha1: float = 0.5) -> ValidationReport:
    """Finite checks on an exponent field.

    Verifies p_minus > 1 and r <= p_minus, and reports the empirical
    Hoelder quotient max |p(x)-p(x')| / |x-x'|^alpha1 over node pairs.
    The quotient is a finite surrogate, never a proof of continuity.
    """
    report = ValidationReport()
    report.add("p_minus > 1", PASS if p.p_minus > 1 else FAIL,
               f"p_minus = {p.p_minus}")
    report.add("r <= p_minus", PASS if p.r <= p.p_minus else FAIL,
               f"r = {p.r}, p_minus = {p.p_minus}")

    nodes = p.mesh.nodes
    vals = p.values.values
    worst = 0.0
    chunk = 512  # pairwise distances in blocks to bound memory
    for start in range(0, len(vals), chunk):
        sl = slice(start, start + chunk)
        diff = np.abs(vals[sl, None] - vals[None, :])
        dist = np.linalg.norm(nodes[sl, None, :] - nodes[None, :, :], axis=-1)
        mask = dist > 0
        if mask.any():
            worst = max(worst, float((diff[mask] / dist[mask] ** alpha1).max()))
    report.add("holder_quotient", INDETERMINATE,
               f"max |dp|/|dx|^{alpha1} = {worst}")
    return report


def modular(u: NodeField, p: ExponentField) -> float:
    """Integral of |u(x)|^p(x) with the mesh's one-point quadrature.

    u must live on the exponent's mesh (``ValueError`` otherwise)."""
    _on_mesh(p.mesh, u)
    uc = np.abs(cell_average(u))
    pc = p.cellwise()
    return integrate(uc ** pc, u.mesh)


def luxemburg_norm(u: NodeField, p: ExponentField) -> float:
    """inf{lambda > 0 : modular(u/lambda) <= 1}, by bisection.

    lambda -> modular(u/lambda) is strictly decreasing wherever positive,
    so the root is unique; returns 0 for the zero field.
    """
    if modular(u, p) == 0.0:
        return 0.0

    def phi(lam):
        return modular(u.with_values(u.values / lam), p)

    lam_hi = max(float(np.abs(u.values).max()), np.finfo(float).tiny)
    while phi(lam_hi) >= 1.0:
        lam_hi *= 2.0
    lam_lo = np.finfo(float).tiny
    for _ in range(200):
        mid = 0.5 * (lam_lo + lam_hi)
        if mid == lam_lo or mid == lam_hi:
            break
        val = phi(mid)
        if abs(val - 1.0) <= 1e-12:
            return mid
        if val > 1.0:
            lam_lo = mid
        else:
            lam_hi = mid
    return 0.5 * (lam_lo + lam_hi)


# Stand-in for +inf in nodal fields, which store finite values only.
UNBOUNDED = np.finfo(float).max


def sobolev_conjugate(p: ExponentField) -> NodeField:
    """Nodewise N*p/(N-p) where p(x) < N, with N the dimension of p's
    mesh; the UNBOUNDED sentinel elsewhere."""
    vals = p.values.values
    n = float(p.mesh.dimension)
    out = np.where(vals < n,
                   n * vals / np.where(vals < n, n - vals, 1.0),
                   UNBOUNDED)
    return NodeField(p.mesh, out)
