"""Anisotropic integrands A(x, xi), their r-th-root companions and fluxes.

Two built-in families:

* isotropic:            A(x, xi) = |xi|^p(x)
* weighted-quadratic:   A(x, xi) = (sum_i w_i(x) xi_i^2)^(p(x)/2)

Both are positively p(x)-homogeneous in xi.  The companion
N(x, xi) = A(x, xi)^(r/p(x)) is then r-homogeneous; it is strictly convex
in xi whenever r > 1 (and, off common rays, also for r = 1), which is the
structural property the cone-convexity results rest on.  The flux is
a(x, xi) = grad_xi A / p(x), extended by zero at xi = 0.

Ellipticity and growth of the flux Jacobian are certified empirically on
seeded samples; ``check_hypothesis_A`` reports the observed constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField
from .grid import NodeField, cell_average

__all__ = [
    "AnisotropyModel",
    "isotropic",
    "weighted_quadratic",
    "eval_A",
    "eval_N",
    "flux_a",
    "check_hypothesis_A",
    "check_N_strict_convexity",
    "HypothesisAReport",
    "MidpointConvexityReport",
]


@dataclass(frozen=True)
class AnisotropyModel:
    """Integrand family member: kind, exponent data and optional weights.

    Weights, when given, are one positive ``NodeField`` per space
    dimension on the exponent's mesh (``ValueError`` otherwise).
    """

    kind: str  # "isotropic" | "weighted-quadratic"
    exponent: ExponentField
    weights: tuple | None = None

    def __post_init__(self):
        if self.weights is None:
            return
        if len(self.weights) != self.mesh.dimension:
            raise ValueError("need one weight field per space dimension")
        for w in self.weights:
            if not isinstance(w, NodeField):
                raise ValueError("weights must be NodeFields")
            if w.mesh is not self.mesh:
                raise ValueError("weight sampled on a different mesh")
            if w.values.min() <= 0:
                raise ValueError("weighted-quadratic weights must be positive")

    @property
    def mesh(self):
        return self.exponent.mesh

    def weights_at_cells(self) -> np.ndarray | None:
        """Cell averages of the weights, one row each, shape
        (dimension, n_cells), read-only."""
        if self.weights is None:
            return None
        w = np.array([cell_average(w) for w in self.weights])
        w.flags.writeable = False
        return w

    def weights_at(self, points) -> np.ndarray | None:
        """The weights at the points, one row each."""
        if self.weights is None:
            return None
        return np.array([np.atleast_1d(w.at(points)) for w in self.weights])


def isotropic(exponent: ExponentField) -> AnisotropyModel:
    return AnisotropyModel("isotropic", exponent)


def weighted_quadratic(exponent: ExponentField, weights) -> AnisotropyModel:
    """Weighted-quadratic model; the constructor checks the weights."""
    return AnisotropyModel("weighted-quadratic", exponent, tuple(weights))


# -- vectorized kernels over component-major (dimension, k) arrays ----------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a_i b_i per column, added in component order."""
    out = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        out += x * y
    return out


def _quad_form(w: np.ndarray | None, xi: np.ndarray) -> np.ndarray:
    """sum_i w_i xi_i^2 per column (w = None means unit weights)."""
    return _dot(xi if w is None else w * xi, xi)


def _flux_rows(p: np.ndarray, w, xi: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """a(x, xi) columns: s^((p-2)/2) W xi with s = eps^2 + |xi|_W^2, so
    eps > 0 regularizes the |xi|^(p-2) factor."""
    wxi = xi if w is None else w * xi
    s = eps * eps + _dot(wxi, xi)
    nz = s > 0.0
    if nz.all():  # always at eps > 0
        return s ** ((p - 2.0) / 2.0) * wxi
    # every column at once, with 1 standing in for s where s = 0 so that no
    # power of zero is taken; those columns (xi = 0 at eps = 0) then get
    # the continuous extension at xi = 0, the zero flux
    out = np.where(nz, s, 1.0) ** ((p - 2.0) / 2.0) * wxi
    out[:, ~nz] = 0.0
    return out


def _point_data(model: AnisotropyModel, x):
    return np.atleast_1d(model.exponent.values.at(x)), model.weights_at(x)


def eval_A(model: AnisotropyModel, x, xi) -> float:
    """A(x, xi) at a single point; nonnegative, p(x)-homogeneous in xi."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float)).T
    p, w = _point_data(model, x)
    return float((_quad_form(w, xi) ** (p / 2.0))[0])


def eval_N(model: AnisotropyModel, x, xi) -> float:
    """N(x, xi) = A(x, xi)^(r/p(x)); r-homogeneous in xi."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float)).T
    n = _quad_form(model.weights_at(x), xi) ** (model.exponent.r / 2.0)
    return float(n[0])


def flux_a(model: AnisotropyModel, x, xi) -> np.ndarray:
    """Flux a(x, xi) = grad_xi A / p(x); a(x, 0) = 0."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float)).T
    p, w = _point_data(model, x)
    return _flux_rows(p, w, xi)[:, 0]


@dataclass(frozen=True)
class HypothesisAReport:
    gamma_hat: float
    Gamma_hat: float
    passed: bool
    sample_count: int
    seed: int


def _unit_sphere(rng, count: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sample_points(mesh, rng, count: int) -> np.ndarray:
    """``count`` uniform points of the domain box, (count, dimension):
    all the draws of the first axis, then those of the second."""
    return np.column_stack([rng.uniform(lo, hi, count) for lo, hi in
                            zip(mesh.bounds[::2], mesh.bounds[1::2])])


def check_hypothesis_A(model: AnisotropyModel, sample_count: int,
                       seed: int) -> HypothesisAReport:
    """Empirical ellipticity/growth certificate for the flux Jacobian.

    Samples points x and unit vectors xi, eta, forms d a_i / d xi_j by
    central differences, and records

        gamma_hat = min (eta' J eta) / (|xi|^(p-2) |eta|^2)
        Gamma_hat = max (sum |J_ij|) / |xi|^(p-2)

    Passes iff gamma_hat > 0 and Gamma_hat is finite.  By homogeneity,
    sampling xi on the unit sphere suffices.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    mesh = model.mesh
    dim = mesh.dimension
    pts = _sample_points(mesh, rng, sample_count)
    xis = _unit_sphere(rng, sample_count, dim)
    etas = _unit_sphere(rng, sample_count, dim)
    # probe the coordinate axes first so degenerate directions cannot be
    # missed by chance
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    k = min(len(axes), sample_count)
    etas[:k] = axes[:k]

    step = 1e-6
    gamma_hat = np.inf
    Gamma_hat = 0.0
    for k in range(sample_count):
        x, xi, eta = pts[k], xis[k], etas[k]
        p, w = _point_data(model, x)
        jac = np.empty((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = step
            hi = _flux_rows(p, w, (xi + e)[:, None])[:, 0]
            lo = _flux_rows(p, w, (xi - e)[:, None])[:, 0]
            jac[:, j] = (hi - lo) / (2.0 * step)
        if not np.all(np.isfinite(jac)):
            raise ValueError("flux Jacobian has non-finite entries: model defect")
        scale = np.linalg.norm(xi) ** (p[0] - 2.0)
        gamma_hat = min(gamma_hat, float(eta @ jac @ eta) / (scale * eta @ eta))
        Gamma_hat = max(Gamma_hat, float(np.abs(jac).sum()) / scale)

    passed = gamma_hat > 0.0 and np.isfinite(Gamma_hat)
    return HypothesisAReport(float(gamma_hat), float(Gamma_hat), bool(passed),
                             sample_count, seed)


@dataclass(frozen=True)
class MidpointConvexityReport:
    min_margin: float
    strict_ok: bool
    ray_equality_found: bool
    passed: bool
    sample_count: int
    seed: int


def check_N_strict_convexity(model: AnisotropyModel, sample_count: int,
                             seed: int) -> MidpointConvexityReport:
    """Midpoint strict-convexity probe of xi -> N(x, xi).

    Random pairs demand a strictly positive midpoint margin; every fourth
    pair is taken on a common ray (xi2 = 2 xi1), where r = 1 models are
    affine and the margin degenerates to zero.  Such ray equality fails
    the strictness requirement and is flagged.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    mesh = model.mesh
    dim = mesh.dimension
    r = model.exponent.r
    pts = _sample_points(mesh, rng, sample_count)

    min_margin = np.inf
    strict_ok = True
    ray_equality = False
    for k in range(sample_count):
        w = model.weights_at(pts[k])
        xi1 = rng.standard_normal(dim)
        if k % 4 == 3:
            xi2 = 2.0 * xi1  # common-ray probe
        else:
            xi2 = rng.standard_normal(dim)
        stack = np.column_stack([xi1, xi2, 0.5 * (xi1 + xi2)])
        n1, n2, nmid = _quad_form(w, stack) ** (r / 2.0)
        margin = 0.5 * (n1 + n2) - nmid
        scale = max(1.0, n1 + n2)
        min_margin = min(min_margin, margin / scale)
        if np.linalg.norm(xi1 - xi2) > 1e-6 and margin <= 0.0:
            strict_ok = False
            if abs(margin) <= 1e-12 * scale:
                ray_equality = True

    passed = min_margin >= -1e-12 and strict_ok
    return MidpointConvexityReport(float(min_margin), bool(strict_ok),
                                   bool(ray_equality), bool(passed),
                                   sample_count, seed)
