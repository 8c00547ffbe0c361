"""Numerical certification that a warped metric is a gradient Ricci soliton.

With u = log|K| the soliton structure is equivalent to the trace-free
Hessian of u vanishing together with Delta u = 2(lambda - K); radially,

    u'' - (b'/b) u' = 0        (trace-free part)
    u'' + (b'/b) u' = 2(lambda - K)

and the potential/Killing structure pins u' = 2 mu b, i.e. u'/b == 2 mu.
All derivatives here are central finite differences on the metric's own
r-grid (including b', recomputed from b), so the check does not reuse the
construction path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ZeroCurvatureError
from .geometry import WarpedMetric
from .ode import ProfileA, is_smooth_origin

ZERO_K = 1.0e-12


@dataclass(frozen=True)
class ResidualReport:
    """Grid suprema of the four soliton identities, with grid metadata."""

    max_tracefree: float
    max_laplace: float
    max_potential: float
    max_killing: float
    grid: np.ndarray
    spacing: float

    def to_json_dict(self) -> dict:
        return {
            "max_tracefree": self.max_tracefree,
            "max_laplace": self.max_laplace,
            "max_potential": self.max_potential,
            "max_killing": self.max_killing,
            "grid_points": int(self.grid.size),
            "grid_min": float(self.grid[0]),
            "grid_max": float(self.grid[-1]),
            "spacing": self.spacing,
        }


def _components(K: np.ndarray):
    """Maximal runs of constant curvature sign, split where K changes sign."""
    if np.any(np.abs(K) < ZERO_K):
        raise ZeroCurvatureError(
            "Gauss curvature vanishes on the grid; log|K| is undefined there"
        )
    sign = np.sign(K)
    breaks = np.nonzero(np.diff(sign) != 0)[0]
    edges = np.concatenate([[0], breaks + 1, [K.size]])
    return [(int(edges[i]), int(edges[i + 1])) for i in range(edges.size - 1)]


def _central_fields(metric: WarpedMetric, sl: slice):
    """(r, b, K, u', u'' + (b'/b) u', u'' - (b'/b) u') on the interior of a slice of the
    metric's grid: central differences of u = log|K| and of b."""
    r, b, K = metric.r[sl], metric.b[sl], metric.K[sl]
    h = metric.spacing
    u = np.log(np.abs(K))
    up = (u[2:] - u[:-2]) / (2.0 * h)
    upp = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    with np.errstate(divide="ignore", invalid="ignore"):  # not finite at b = 0; soliton_residual masks it
        cot_up = (b[2:] - b[:-2]) / (2.0 * h) / b[1:-1] * up
    return r[1:-1], b[1:-1], K[1:-1], up, upp + cot_up, upp - cot_up


def soliton_residual(metric: WarpedMetric) -> ResidualReport:
    """Suprema of the trace-free, Laplacian, potential and Killing identities.

    All four vanish exactly on a gradient soliton; on a grid of spacing h the
    finite-difference suprema are O(h^2).
    """
    p = metric.params
    grids = []
    tf, lap, pot, kil = 0.0, 0.0, 0.0, 0.0
    for lo, hi in _components(metric.K):
        r, b, K, up, plus, minus = _central_fields(metric, slice(lo, hi))
        # the origin circle b = 0 cannot enter the b'/b coefficient; b is relative to its maximum
        msk = b > 1e-8 * np.max(np.abs(metric.b))
        if hi - lo < 5 or not msk.any():
            continue
        tf = max(tf, float(np.max(np.abs(minus[msk]))))
        lap = max(lap, float(np.max(np.abs(plus[msk] - 2.0 * (p.lam - K[msk])))))
        pot = max(pot, float(np.max(np.abs(up - 2.0 * p.mu * b))))
        kil = max(kil, float(np.max(np.abs(up[msk] / b[msk] - 2.0 * p.mu))))
        grids.append(r)
    if not grids:
        raise DomainError("no usable sign component on the grid")
    grid = np.concatenate(grids)
    return ResidualReport(
        max_tracefree=tf, max_laplace=lap, max_potential=pot, max_killing=kil,
        grid=grid, spacing=metric.spacing,
    )


def smooth_extension_check(profile: ProfileA) -> tuple[bool, float | None]:
    """Whether the metric closes up smoothly over the origin circle.

    True iff a -> 1 as t -> 0 (within 1e-8); then the origin curvature is
    lambda - 2 mu and the curvature gradient vanishes there.
    """
    p = profile.params
    if profile.t0 > 0.0 or profile.t1 <= 0.0:
        raise DomainError("t = 0 is not in the closure of the profile domain")
    if is_smooth_origin(profile.a(0.0)):
        return True, p.lam - 2.0 * p.mu
    return False, None
