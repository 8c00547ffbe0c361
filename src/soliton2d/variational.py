"""The curvature entropy E[g] = int K log|K| dA and its first variation.

For rotationally symmetric metrics and radial perturbations
h = phi g + psi (dr^2 - b^2 dtheta^2) the variation reduces to

  dE[h] = -(1/4) int 2 phi (u'' + (b'/b) u' + 2K) 2 pi b dr
          +(1/2) int psi  (u'' - (b'/b) u') 2 pi b dr,        u = log|K|,

so soliton metrics (trace-free Hessian of u zero, Laplacian pinned) are
exactly the critical points under area-preserving (trace-free) variations,
and diffeomorphism invariance forces u'' + (b'/b)u' + 2K to be constant
(= 2 lambda) at critical metrics.  The finite-difference route rebuilds the
perturbed metric from its first fundamental form and recomputes its curvature
from the warped-product formula, differencing only the variation fields, fully
independent of the analytic formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, WindowError, ZeroCurvatureError
from .geometry import WarpedMetric
from .verify import ZERO_K, _central_fields


def bump(x):
    """C-infinity bump exp(1 - 1/(1-x^2)) on (-1, 1), peak value 1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi * xi))
    return out


def bump_prime(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    one = 1.0 - xi * xi
    out[inside] = np.exp(1.0 - 1.0 / one) * (-2.0 * xi / (one * one))
    return out


@dataclass(frozen=True)
class VariationField:
    """Compactly supported radial variation on a window.

    phi is the conformal part (h contains phi * g, trace 2 phi) and psi the
    trace-free radial part (pointwise norm psi * sqrt(2)).  Both are given
    as callables of r vanishing with two derivatives at the window ends.
    """

    r0: float
    r1: float
    phi: Optional[Callable] = None
    psi: Optional[Callable] = None

    def __post_init__(self):
        if not self.r0 < self.r1:
            raise WindowError("empty variation window")
        h = 1e-5 * (self.r1 - self.r0)
        for fn in (self.phi, self.psi):
            if fn is None:
                continue
            for edge in (self.r0, self.r1):
                stencil = np.array([edge - 2 * h, edge - h, edge, edge + h, edge + 2 * h])
                vals = np.asarray(fn(np.clip(stencil, self.r0, self.r1)))
                d1 = (vals[3] - vals[1]) / (2 * h)
                d2 = (vals[3] - 2 * vals[2] + vals[1]) / (h * h)
                if max(abs(vals[2]), abs(d1) * h, abs(d2) * h * h) > 1e-12:
                    raise WindowError(
                        "variation must vanish with two derivatives at the window ends"
                    )

    def phi_at(self, r):
        return self.phi(r) if self.phi is not None else np.zeros_like(np.asarray(r, float))

    def psi_at(self, r):
        return self.psi(r) if self.psi is not None else np.zeros_like(np.asarray(r, float))


def bump_variation(window, phi_amp: float = 0.0, psi_amp: float = 0.0) -> VariationField:
    """Bump-shaped variation filling the window."""
    r0, r1 = float(window[0]), float(window[1])
    c, wd = 0.5 * (r0 + r1), 0.5 * (r1 - r0)

    def mk(amp):
        if amp == 0.0:
            return None
        return lambda r: amp * bump((np.asarray(r, float) - c) / wd)

    return VariationField(r0=r0, r1=r1, phi=mk(phi_amp), psi=mk(psi_amp))


def lie_variation(metric: WarpedMetric, window, amp: float = 1.0) -> VariationField:
    """The variation h = L_X g of the radial field X = xi(r) d/dr, xi a bump.

    Decomposes as phi = div X = xi' + (b'/b) xi and psi = xi' - (b'/b) xi.
    """
    r0, r1 = float(window[0]), float(window[1])
    c, wd = 0.5 * (r0 + r1), 0.5 * (r1 - r0)

    def xi(r):
        return amp * bump((np.asarray(r, float) - c) / wd)

    def xi_p(r):
        return amp * bump_prime((np.asarray(r, float) - c) / wd) / wd

    def cot(r):
        b = np.interp(r, metric.r, metric.b)
        bp = np.interp(r, metric.r, metric.b_prime)
        return bp / b

    return VariationField(
        r0=r0, r1=r1,
        phi=lambda r: xi_p(r) + cot(r) * xi(r),
        psi=lambda r: xi_p(r) - cot(r) * xi(r),
    )


def _window_slice(metric: WarpedMetric, window, pad: int = 0) -> slice:
    r0, r1 = float(window[0]), float(window[1])
    if r0 >= r1:
        raise WindowError("empty window")
    i0 = int(np.searchsorted(metric.r, r0, side="left"))
    i1 = int(np.searchsorted(metric.r, r1, side="right"))
    i0 = max(i0 - pad, 0)
    i1 = min(i1 + pad, metric.r.size)
    if i1 - i0 < 9:
        raise WindowError("window covers too few grid points")
    return slice(i0, i1)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule over a uniform grid x.

    For an even number of samples the last interval gets the correction
    h (5 y[-1] + 8 y[-2] - y[-3]) / 12 on top of Simpson over the first
    N - 1 samples, as in scipy.integrate.simpson (since scipy 1.11).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    h = (x[-1] - x[0]) / (n - 1)
    if n == 2:
        return float(0.5 * h * (y[0] + y[1]))
    m = n if n % 2 else n - 1
    total = h / 3.0 * (y[0] + y[m - 1] + 4.0 * y[1:m - 1:2].sum() + 2.0 * y[2:m - 1:2].sum())
    if m < n:
        total += h * (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) / 12.0
    return float(total)


def _check_nonzero_K(K: np.ndarray):
    if np.any(np.abs(K) < ZERO_K):
        raise ZeroCurvatureError("Gauss curvature vanishes inside the window")


def _band_integral(metric: WarpedMetric, window, f_of_bK) -> float:
    """int f(b, K) dr over [r0, r1]: Simpson on the covered grid points plus
    trapezoid corrections for the fractional end cells."""
    r0 = max(float(window[0]), float(metric.r[0]))
    r1 = min(float(window[1]), float(metric.r[-1]))
    sl = _window_slice(metric, (r0, r1))
    r, b, K = metric.r[sl], metric.b[sl], metric.K[sl]
    _check_nonzero_K(K)
    f = f_of_bK(b, K)
    total = _simpson(f, r)
    for edge, node_r, node_f in ((r0, r[0], f[0]), (r1, r[-1], f[-1])):
        gap = abs(node_r - edge)
        if gap > 1e-300:
            be = float(np.interp(edge, metric.r, metric.b))
            Ke = float(np.interp(edge, metric.r, metric.K))
            _check_nonzero_K(np.array([Ke]))
            f_edge = float(f_of_bK(np.array([be]), np.array([Ke]))[0])
            total += 0.5 * (f_edge + node_f) * gap
    return total


def energy(metric: WarpedMetric, window) -> float:
    """E over the radial band: 2 pi int_{r0}^{r1} K log|K| b dr."""
    return 2.0 * math.pi * _band_integral(
        metric, window, lambda b, K: K * np.log(np.abs(K)) * b
    )


def total_curvature(metric: WarpedMetric, window) -> float:
    """2 pi int K b dr over the window."""
    return 2.0 * math.pi * _band_integral(metric, window, lambda b, K: K * b)


def first_variation(metric: WarpedMetric, v: VariationField) -> float:
    """Analytic first variation of E along the field v (radial reduction)."""
    if v.r0 < metric.r[0] - 1e-12 or v.r1 > metric.r[-1] + 1e-12:
        raise WindowError("variation support exceeds the metric domain")
    sl = _window_slice(metric, (v.r0, v.r1), pad=2)
    _check_nonzero_K(metric.K[sl])
    r, b, K, _, plus, minus = _central_fields(metric, sl)
    phi = np.asarray(v.phi_at(r))
    psi = np.asarray(v.psi_at(r))
    trace_term = -0.25 * _simpson(2.0 * phi * (plus + 2.0 * K) * 2.0 * math.pi * b, r)
    tf_term = 0.5 * _simpson(psi * minus * 2.0 * math.pi * b, r)
    return float(trace_term + tf_term)


def noether_defect(metric: WarpedMetric, window) -> float:
    """sup over the window of |u'' + (b'/b)u' + 2K - 2 lambda|.

    Diffeomorphism invariance makes this combination constant at critical
    metrics, and the profile equation pins the constant to 2 lambda.
    """
    sl = _window_slice(metric, window)
    _check_nonzero_K(metric.K[sl])
    _, _, K, _, plus, _ = _central_fields(metric, sl)
    return float(np.max(np.abs(plus + 2.0 * K - 2.0 * metric.params.lam)))


def _central4(f: np.ndarray, h: float):
    """First and second derivatives by fourth-order central stencils on the
    interior f[2:-2] of a uniform grid."""
    d1 = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d2 = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h * h)
    return d1, d2


def _perturbation(metric: WarpedMetric, v: VariationField):
    """(r, p, q, p', q', q'', b, K, b'/b) of _perturbed_energy on the support
    padded by 3 points (r and the last three on the interior [2:-2])."""
    sl = _window_slice(metric, (v.r0, v.r1), pad=3)
    r = metric.r[sl]
    phi, psi = np.asarray(v.phi_at(r)), np.asarray(v.psi_at(r))
    p, q = phi + psi, phi - psi
    (p1, _), (q1, q2) = _central4(p, metric.spacing), _central4(q, metric.spacing)
    b, K = metric.b[sl][2:-2], metric.K[sl][2:-2]
    return r[2:-2], p, q, p1, q1, q2, b, K, metric.b_prime[sl][2:-2] / b


def _perturbed_energy(fields, eps: float) -> float:
    """Energy of g + eps h rebuilt from the perturbed first fundamental form.

    With p = phi + psi and q = phi - psi the perturbed metric is the warped
    product A^2 dr^2 + B^2 dtheta^2, A = sqrt(1 + eps p), B = b sqrt(1 + eps q),
    whose curvature -(1/(AB)) (B'/A)' is expanded in the original r with the
    metric's own b', K and b'' = -K b.  Only p and q are differenced (fourth
    order on the metric's grid, where the fields are exact), and their
    derivatives enter multiplied by eps, so no O(1) quantity is differenced
    and the rounding does not grow as eps shrinks.  No derivative of log|K|
    enters, which keeps the oracle independent of the analytic variation.
    """
    r, p, q, p1, q1, q2, b, K, cot = fields
    g_rr = 1.0 + eps * p
    g_tt_fac = 1.0 + eps * q
    if np.any(g_rr <= 0.0) or np.any(g_tt_fac <= 0.0):
        raise DomainError("perturbation too large: metric degenerates")
    g_rr, g_tt_fac = g_rr[2:-2], g_tt_fac[2:-2]
    la = 0.5 * eps * p1 / g_rr               # A'/A
    lq = 0.5 * eps * q1 / g_tt_fac           # Q'/Q, Q = sqrt(1 + eps q)
    qq = 0.5 * eps * q2 / g_tt_fac - lq * lq  # Q''/Q
    Kt = (K - 2.0 * cot * lq - qq + (cot + lq) * la) / g_rr
    _check_nonzero_K(Kt)
    integrand = Kt * np.log(np.abs(Kt)) * b * np.sqrt(g_rr * g_tt_fac)
    return 2.0 * math.pi * _simpson(integrand, r)


def _fd_quotient(fields, eps: float) -> float:
    """(E[g + eps h] - E[g - eps h]) / (2 eps) on the fields of _perturbation."""
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    return float((_perturbed_energy(fields, +eps) - _perturbed_energy(fields, -eps)) / (2.0 * eps))


def fd_variation(metric: WarpedMetric, v: VariationField, eps: float = 1e-4) -> float:
    """Central-difference variation (E[g + eps h] - E[g - eps h]) / (2 eps).

    Independent oracle for the analytic formula: the perturbed metrics are
    rebuilt from their first fundamental forms, so no piece of the analytic
    variation enters.  Only phi and psi are differenced (see
    _perturbed_energy), so the quotient's error is O(eps^2) plus a rounding
    floor of about 1e-10 that does not grow as eps shrinks.
    """
    return _fd_quotient(_perturbation(metric, v), eps)


def variation_report(metric: WarpedMetric, v: VariationField, eps: float = 1e-4) -> dict:
    """Analytic/finite-difference comparison plus the conservation defect."""
    analytic = first_variation(metric, v)
    fields = _perturbation(metric, v)  # independent of eps: one set for eps, eps / 2 and eps / 4
    fds = np.array([_fd_quotient(fields, e) for e in (eps, eps / 2.0, eps / 4.0)])
    errs = np.abs(fds - analytic)
    if np.all(errs > 0.0):  # least squares through log(eps) equally spaced by log 2
        slope = math.log(errs[2] / errs[0]) / math.log(0.25)
    else:
        slope = math.inf  # differences vanished below roundoff
    return {
        "analytic": analytic,
        "finite_difference": float(fds[0]),
        "eps": eps,
        "slope_estimate": slope,
        "noether_defect": noether_defect(metric, (v.r0, v.r1)),
    }
