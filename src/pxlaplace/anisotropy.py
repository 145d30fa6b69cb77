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
from .grid import NodeField, _interp_p1, _on_mesh, _one_point, cell_average

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
    """Integrand family member: exponent data and optional weights.

    Weights, when given, are one positive ``NodeField`` per space
    dimension on the exponent's mesh (``ValueError`` otherwise).
    """

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
            _on_mesh(self.mesh, w, what="weight")
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


def isotropic(exponent: ExponentField) -> AnisotropyModel:
    return AnisotropyModel(exponent)


def weighted_quadratic(exponent: ExponentField, weights) -> AnisotropyModel:
    """Weighted-quadratic model; the constructor checks the weights."""
    return AnisotropyModel(exponent, tuple(weights))


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


def _point_data(model: AnisotropyModel, points: np.ndarray) -> tuple:
    """p at each of the (m, dimension) points, shape (m,), and the
    weights there, None or one row each, shape (dimension, m)."""
    fields = (model.exponent.values,) + (model.weights or ())
    p, *w = (_interp_p1(f, points) for f in fields)
    return p, np.array(w) if w else None


def eval_A(model: AnisotropyModel, x, xi) -> float:
    """A(x, xi) at a single point; nonnegative, p(x)-homogeneous in xi."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float)).T
    p, w = _point_data(model, _one_point(model.mesh, x))
    return float((_quad_form(w, xi) ** (p / 2.0))[0])


def eval_N(model: AnisotropyModel, x, xi) -> float:
    """N(x, xi) = A(x, xi)^(r/p(x)); r-homogeneous in xi."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float)).T
    w = _point_data(model, _one_point(model.mesh, x))[1]
    return float((_quad_form(w, xi) ** (model.exponent.r / 2.0))[0])


def flux_a(model: AnisotropyModel, x, xi) -> np.ndarray:
    """Flux a(x, xi) = grad_xi A / p(x); a(x, 0) = 0."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float)).T
    p, w = _point_data(model, _one_point(model.mesh, x))
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


def _sample_points(model: AnisotropyModel, count: int, seed: int) -> tuple:
    """The generator of ``seed`` and ``count`` uniform points of the
    model's domain box, (count, dimension), drawn from it first: all the
    draws of the first axis, then those of the second."""
    if count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    bounds = model.mesh.bounds
    return rng, np.column_stack([rng.uniform(lo, hi, count) for lo, hi in
                                 zip(bounds[::2], bounds[1::2])])


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
    rng, pts = _sample_points(model, sample_count, seed)
    dim = model.mesh.dimension
    xis = _unit_sphere(rng, sample_count, dim)
    etas = _unit_sphere(rng, sample_count, dim)
    # probe the coordinate axes first so degenerate directions cannot be
    # missed by chance
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    k = min(len(axes), sample_count)
    etas[:k] = axes[:k]

    # every sample at once, one column j of the Jacobians per pair of
    # _flux_rows calls; it works column by column, so each sample's
    # column is what the sample alone gives
    p, w = _point_data(model, pts)
    step = 1e-6
    fd = [(_flux_rows(p, w, xis.T + e) - _flux_rows(p, w, xis.T - e)).T
          for e in step * np.eye(dim)[:, :, None]]
    jac = np.stack(fd, axis=2) / (2.0 * step)  # (sample, i, j)
    if not np.all(np.isfinite(jac)):
        raise ValueError("flux Jacobian has non-finite entries: model defect")
    scale = np.linalg.norm(xis, axis=1) ** (p - 2.0)
    eJe = (etas[:, None] @ jac @ etas[:, :, None])[:, 0, 0]
    gamma_hat = np.min(eJe / ((scale[:, None] * etas)[:, None]
                              @ etas[:, :, None])[:, 0, 0])
    Gamma_hat = np.max(np.abs(jac).sum(axis=(1, 2)) / scale)

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
    rng, pts = _sample_points(model, sample_count, seed)
    dim = model.mesh.dimension
    r = model.exponent.r

    # all the normals in one call, in the order a loop over the samples
    # draws them: xi1, then xi2 unless the sample is a common-ray probe
    k = np.arange(sample_count)
    ray = k % 4 == 3
    first = 2 * k - k // 4  # the normals drawn before sample k
    normals = rng.standard_normal((2 * sample_count - sample_count // 4,
                                   dim)).T
    xi1 = normals[:, first]
    xi2 = 2.0 * xi1  # common-ray probe
    xi2[:, ~ray] = normals[:, first[~ray] + 1]
    w = _point_data(model, pts)[1]
    n1, n2, nmid = (_quad_form(w, v) ** (r / 2.0)
                    for v in (xi1, xi2, 0.5 * (xi1 + xi2)))
    margin = 0.5 * (n1 + n2) - nmid
    scale = np.maximum(1.0, n1 + n2)
    min_margin = np.min(margin / scale)
    bad = (np.linalg.norm(xi1 - xi2, axis=0) > 1e-6) & (margin <= 0.0)
    strict_ok = not bad.any()
    ray_equality = bool(np.any(bad & (np.abs(margin) <= 1e-12 * scale)))

    passed = min_margin >= -1e-12 and strict_ok
    return MidpointConvexityReport(float(min_margin), bool(strict_ok),
                                   bool(ray_equality), bool(passed),
                                   sample_count, seed)
