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

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, WindowError
from .geometry import WarpedMetric
from .verify import _central_fields, _check_nonzero_K

_log = logging.getLogger("soliton.variational")


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
    Where b = 0 (a smooth origin, at the window's end) (b'/b) xi is taken as
    its limit 0: xi vanishes there to all orders.
    """
    r0, r1 = float(window[0]), float(window[1])
    c, wd = 0.5 * (r0 + r1), 0.5 * (r1 - r0)

    def xi(r):
        return amp * bump((np.asarray(r, float) - c) / wd)

    def xi_p(r):
        return amp * bump_prime((np.asarray(r, float) - c) / wd) / wd

    def cot(r):
        b = np.interp(r, metric.r, metric.b)
        return np.divide(np.interp(r, metric.r, metric.b_prime), b, out=np.zeros_like(b), where=b != 0.0)

    return VariationField(
        r0=r0, r1=r1,
        phi=lambda r: xi_p(r) + cot(r) * xi(r),
        psi=lambda r: xi_p(r) - cot(r) * xi(r),
    )


def _window_range(metric: WarpedMetric, window) -> tuple[int, int]:  # [i0, i1) of the grid points in the window
    r0, r1 = float(window[0]), float(window[1])
    if r0 >= r1:
        raise WindowError("empty window")
    return int(np.searchsorted(metric.r, r0, side="left")), int(np.searchsorted(metric.r, r1, side="right"))


def _covered(i0: int, i1: int) -> slice:
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


def _band_integral(metric: WarpedMetric, window, f_of_bK) -> float:
    """int f(b, K) dr over [r0, r1]: Simpson on the covered grid points plus
    trapezoid corrections for the fractional end cells."""
    r0 = max(float(window[0]), float(metric.r[0]))
    r1 = min(float(window[1]), float(metric.r[-1]))
    sl = _covered(*_window_range(metric, (r0, r1)))
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


def _fields(metric: WarpedMetric, window, v: Optional[VariationField] = None, eps: Optional[float] = None):
    """The work the variation functions share, on offsets from one search of the grid: first_variation along v
    (None without v) on the window widened by 2 points, noether_defect on the window when called, and the fields
    of _perturbed_curvature on the window widened by 3 (its stencils); eps is checked first."""
    if v is not None and (v.r0 < metric.r[0] - 1e-12 or v.r1 > metric.r[-1] + 1e-12):
        raise WindowError("variation support exceeds the metric domain")
    if eps is not None and not 0.0 < eps < math.inf:
        raise DomainError("eps must be positive and finite")
    i0, i1 = _window_range(metric, window)
    n, pad = metric.r.size, 0 if v is None else 2
    sl = _covered(max(i0 - pad, 0), min(i1 + pad, n))
    _check_nonzero_K(metric.K[sl])
    r, b, K, _, plus, minus = _central_fields(metric, sl)

    def defect() -> float:  # on the window's points, at least 9; their interior in K ends 2 places earlier
        inner = slice(i0 - sl.start, _covered(i0, i1).stop - sl.start - 2)
        return float(np.max(np.abs(plus[inner] + 2.0 * K[inner] - 2.0 * metric.params.lam)))
    if v is None:
        return None, defect, None
    lo = max(i0 - 3, 0)
    r3, c = metric.r[lo:min(i1 + 3, n)], slice(sl.start + 1 - lo, sl.stop - 1 - lo)
    phi, psi = np.asarray(v.phi_at(r3)), np.asarray(v.psi_at(r3))
    trace_term = -0.25 * _simpson(2.0 * phi[c] * (plus + 2.0 * K) * 2.0 * math.pi * b, r)
    tf_term = 0.5 * _simpson(psi[c] * minus * 2.0 * math.pi * b, r)
    p, q, h, inner = phi + psi, phi - psi, metric.spacing, slice(lo + 2, lo + r3.size - 2)
    b, K = metric.b[inner], metric.K[inner]
    return float(trace_term + tf_term), defect, (r3[2:-2], p, q, _d1(p, h), _d1(q, h), _d2(q, h), b, K,
                                                 metric.b_prime[inner] / b)


def first_variation(metric: WarpedMetric, v: VariationField) -> float:
    """Analytic first variation of E along the field v (radial reduction)."""
    return _fields(metric, (v.r0, v.r1), v)[0]


def noether_defect(metric: WarpedMetric, window) -> float:
    """sup over the window of |u'' + (b'/b)u' + 2K - 2 lambda|.

    Diffeomorphism invariance makes this combination constant at critical
    metrics, and the profile equation pins the constant to 2 lambda.
    """
    return _fields(metric, window)[1]()


def _d1(f: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central first (_d2: second) derivative on the interior f[2:-2] of a uniform grid."""
    return (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)


def _d2(f: np.ndarray, h: float) -> np.ndarray:
    return (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h * h)


def _perturbed_curvature(fields, eps: float):
    """(g_rr, g_tt, K~) of g + eps h on the fields of _fields, rebuilt from its first fundamental form.

    With p = phi + psi and q = phi - psi the perturbed metric is the warped
    product A^2 dr^2 + B^2 dtheta^2, A = sqrt(1 + eps p), B = b sqrt(1 + eps q),
    whose curvature -(1/(AB)) (B'/A)' is expanded in the original r with the
    metric's own b', K and b'' = -K b.  Only p and q are differenced (fourth
    order on the metric's grid, where the fields are exact), and their
    derivatives enter multiplied by eps, so no O(1) quantity is differenced
    and the rounding does not grow as eps shrinks.  No derivative of log|K|
    enters, which keeps the oracle independent of the analytic variation.
    """
    _, p, q, p1, q1, q2, _, K, cot = fields
    g_rr, g_tt = 1.0 + eps * p, 1.0 + eps * q
    if (g_rr <= 0.0).any() or (g_tt <= 0.0).any():
        raise DomainError("perturbation too large: metric degenerates")
    g_rr, g_tt, c = g_rr[2:-2], g_tt[2:-2], 0.5 * eps
    la, lq = p1 * c / g_rr, q1 * c / g_tt  # A'/A and Q'/Q, Q = sqrt(1 + eps q)
    qq = q2 * c / g_tt - lq * lq  # Q''/Q
    return g_rr, g_tt, (K - 2.0 * cot * lq - qq + (lq + cot) * la) / g_rr


def _perturbed_energy(fields, eps: float) -> float:
    """Energy of g + eps h: 2 pi int K~ log|K~| b sqrt(g_rr g_tt) dr (see _perturbed_curvature)."""
    g_rr, g_tt, Kt = _perturbed_curvature(fields, eps)
    _check_nonzero_K(Kt)
    f = np.log(np.abs(Kt))  # the integrand, accumulated in place: fresh pages cost more than the arithmetic
    f *= Kt
    f *= fields[6]
    f *= np.sqrt(g_rr * g_tt)
    return 2.0 * math.pi * _simpson(f, fields[0])


def _fd_quotient(fields, eps: float) -> tuple[float, float, float]:
    """(E[g + eps h] - E[g - eps h]) / (2 eps) on the fields of _fields, then the two energies."""
    up, down = _perturbed_energy(fields, +eps), _perturbed_energy(fields, -eps)
    return float((up - down) / (2.0 * eps)), up, down


def fd_variation(metric: WarpedMetric, v: VariationField, eps: float = 1e-4) -> float:
    """Central-difference variation (E[g + eps h] - E[g - eps h]) / (2 eps).

    Independent oracle for the analytic formula: the perturbed metrics are
    rebuilt from their first fundamental forms, so no piece of the analytic
    variation enters.  Only phi and psi are differenced (see
    _perturbed_curvature), so the quotient's error is O(eps^2) plus a rounding
    floor of about 1e-10 that does not grow as eps shrinks.
    """
    return _fd_quotient(_fields(metric, (v.r0, v.r1), v, eps)[2], eps)[0]


def variation_report(metric: WarpedMetric, v: VariationField, eps: float = 1e-4) -> dict:
    """Analytic/finite-difference comparison plus the conservation defect.

    Four perturbed energies are evaluated, E[g +- eps h] and E[g +- (eps/4) h]: finite_difference is the
    quotient at eps, and slope_estimate the least-squares slope of log|quotient - analytic| against log eps
    through eps, eps/2 and eps/4 (+inf where the error at eps/4 is exactly 0, -inf where only the one at eps
    is: it grew).  Equally spaced in log eps, the middle point has zero weight, so E[g +- (eps/2) h] is not
    evaluated.  A quotient or error that is not finite raises DomainError.  Its debug record holds
    max |K~ / K - 1| at +-eps and +-eps/4 (k_departure).
    """
    analytic, defect, fields = _fields(metric, (v.r0, v.r1), v, eps)
    (fd, *e1), (fd4, *e4) = _fd_quotient(fields, eps), _fd_quotient(fields, eps / 4.0)
    err, err4 = abs(fd - analytic), abs(fd4 - analytic)
    if not (math.isfinite(err) and math.isfinite(err4)):  # err is finite only where both values are
        raise DomainError(f"a finite-difference quotient or its error is not finite: {fd!r}, {fd4!r}")
    slope = (math.log(err4 / err) / math.log(0.25) if err > 0.0 and err4 > 0.0
             else math.inf if err4 == 0.0 else -math.inf)  # the limits: exact at eps/4, or grown from exact at eps
    if _log.isEnabledFor(logging.DEBUG):
        dep = tuple(float(np.max(np.abs(_perturbed_curvature(fields, e)[2] / fields[7] - 1.0)))
                    for e in (eps, -eps, eps / 4.0, -eps / 4.0))  # where E(eps) leaves its quadratic regime
        _log.debug("variation report on %d samples: E(+-eps) %r, %r, E(+-eps/4) %r, %r, quotients %r, %r, errors %r, "
                   "%r, max |K~ / K - 1| at +-eps, +-eps/4 " + "%r, %r, %r, %r" % dep, fields[1].size, *e1, *e4, fd,
                   fd4, err, err4, extra={"k_departure": dep})
    return {
        "analytic": analytic,
        "finite_difference": fd,
        "eps": eps,
        "slope_estimate": slope,
        "noether_defect": defect(),
    }
