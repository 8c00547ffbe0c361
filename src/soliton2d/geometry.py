"""Warped-product metrics g = dr^2 + b(r)^2 dtheta^2 built from profiles.

In the coordinate t = b^2/4 the metric reads (a^2/t) dt^2 + 4t dtheta^2 with
a = 1/b', so arc length is recovered from r(t) = r0 + int a(s)/sqrt(s) ds.
The quadrature runs in w = sqrt(t) (smooth through the origin) with local
changes of variable toward singular edges: sqrt-type at finite-time blow-up
with lambda != 0, log-type at steady blow-up and at the lambda < 0 cusp,
reciprocal toward a decaying t = infinity end.  Gauss curvature follows the
algebraic identity K = lambda - 2 mu / a; the finite-difference route
-b''/b is kept separate as an independent check.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DomainError,
    EdgeError,
    NotSmoothOriginError,
    UnresolvedEndError,
    WindowEmptyError,
)
from .ode import (
    BLOW_UP,
    CONVERGES,
    DECAY_TO_ZERO,
    SMOOTH_ORIGIN,
    TRUNCATED,
    ProfileA,
    SolitonParams,
    _separatrix_time,
    implicit_profile,
    time_between_levels,
)

SMOOTH_ORIGIN_TOL = 1.0e-8

_GL_X, _GL_W = leggauss(7)


def curvature_from_a(params: SolitonParams, a) -> float:
    """Gauss curvature K = lambda - 2 mu / a of the metric with profile value a."""
    arr = np.asarray(a, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("profile value must be positive")
    return params.curvature(a)


# ---------------------------------------------------------------------------
# Arc-length table
# ---------------------------------------------------------------------------


class _Zone:
    """One quadrature zone [w_a, w_b], smooth in its own variable xi."""

    def __init__(self, kind: str, w_a: float, w_b: float, edge: float = math.nan, n: int = 800):
        self.kind = kind
        self.w_a, self.w_b = w_a, w_b
        self.edge = edge
        self.n = n

    def xi_of_w(self, w):
        w = np.asarray(w, dtype=float)
        if self.kind == "plain":
            return w
        if self.kind == "sqrt_hi":
            return -np.sqrt(np.maximum(self.edge - w, 0.0))
        if self.kind == "sqrt_lo":
            return np.sqrt(np.maximum(w - self.edge, 0.0))
        if self.kind == "log_lo":
            return np.log(w - self.edge)
        if self.kind == "log_hi":
            return -np.log(self.edge - w)
        if self.kind == "inv_hi":
            return -1.0 / w
        raise AssertionError(self.kind)

    def w_of_xi(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.kind == "plain":
            return xi
        if self.kind == "sqrt_hi":
            return self.edge - xi * xi
        if self.kind == "sqrt_lo":
            return self.edge + xi * xi
        if self.kind == "log_lo":
            return self.edge + np.exp(xi)
        if self.kind == "log_hi":
            return self.edge - np.exp(-xi)
        if self.kind == "inv_hi":
            return -1.0 / xi
        raise AssertionError(self.kind)

    def dw_dxi(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.kind == "plain":
            return np.ones_like(xi)
        if self.kind == "sqrt_hi":
            return -2.0 * xi
        if self.kind == "sqrt_lo":
            return 2.0 * xi
        if self.kind in ("log_lo", "log_hi"):
            return np.exp(xi if self.kind == "log_lo" else -xi)
        if self.kind == "inv_hi":
            return 1.0 / (xi * xi)
        raise AssertionError(self.kind)

    def nodes(self) -> np.ndarray:
        lo, hi = self.xi_of_w(self.w_a), self.xi_of_w(self.w_b)
        return np.linspace(float(lo), float(hi), self.n + 1)


class _ArcTable:
    """Cumulative arc length r(w) over a union of quadrature zones.

    Node values come from per-segment Gauss-Legendre in the zone variable;
    evaluation between nodes adds the exact partial-segment quadrature, so
    r(w) and its inverse are accurate to quadrature precision everywhere,
    not just at the nodes (interpolated tables leave node-scale wiggles that
    finite differencing downstream would amplify by 1/h^2).
    """

    def __init__(self, aeval, zones: list[_Zone]):
        self.aeval = aeval
        self.zones = zones
        self._zone_xi = []
        self._zone_r0 = []  # cumulative r at each zone's xi nodes
        w_nodes = [np.array([zones[0].w_a])]
        r_nodes = [np.array([0.0])]
        r_off = 0.0
        for z in zones:
            xi = z.nodes()
            incr = self._segment_integrals(z, xi)
            r_cum_full = np.concatenate([[r_off], r_off + np.cumsum(incr)])
            self._zone_xi.append(xi)
            self._zone_r0.append(r_cum_full)
            w_nodes.append(z.w_of_xi(xi[1:]))
            r_nodes.append(r_cum_full[1:])
            r_off = r_cum_full[-1]
        w = np.concatenate(w_nodes)
        r = np.concatenate(r_nodes)
        # dedupe seams and any rounding inversions near singular edges
        keep = np.concatenate([[True], np.diff(w) > 0])
        self.w, self.r = w[keep], r[keep]

    def _segment_integrals(self, z: _Zone, xi: np.ndarray) -> np.ndarray:
        mid = 0.5 * (xi[1:] + xi[:-1])
        half = 0.5 * np.diff(xi)
        pts = mid[:, None] + half[:, None] * _GL_X[None, :]
        w_pts = z.w_of_xi(pts.ravel())
        f = 2.0 * self.aeval(w_pts**2) * np.abs(z.dw_dxi(pts.ravel()))
        f = f.reshape(pts.shape)
        return (f * _GL_W[None, :]).sum(axis=1) * np.abs(half)

    def r_of_w(self, w):
        """Exact-quadrature arc length: node value plus a partial segment."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        out = np.empty_like(w)
        done = np.zeros(w.shape, dtype=bool)
        for z, xi, r0 in zip(self.zones, self._zone_xi, self._zone_r0):
            sel = (~done) & (w >= z.w_a - 1e-300) & (w <= z.w_b)
            if z is self.zones[-1]:
                sel = ~done
            if not np.any(sel):
                continue
            xq = np.asarray(z.xi_of_w(np.clip(w[sel], z.w_a, z.w_b)))
            idx = np.clip(np.searchsorted(xi, xq) - 1, 0, xi.size - 2)
            x_lo = xi[idx]
            mid = 0.5 * (x_lo + xq)
            half = 0.5 * (xq - x_lo)
            pts = mid[:, None] + half[:, None] * _GL_X[None, :]
            w_pts = z.w_of_xi(pts.ravel())
            f = 2.0 * self.aeval(w_pts**2) * np.abs(z.dw_dxi(pts.ravel()))
            part = (f.reshape(pts.shape) * _GL_W[None, :]).sum(axis=1) * half
            out[sel] = r0[idx] + part
            done |= sel
        return out if out.size > 1 else float(out[0])

    def w_of_r(self, r):
        """Linear first guess on the nodes polished by Newton on the exact quadrature."""
        r = np.clip(np.atleast_1d(np.asarray(r, dtype=float)), self.r[0], self.r[-1])
        idx = np.clip(np.searchsorted(self.r, r), 1, self.r.size - 1)
        w_lo, w_hi = self.w[idx - 1], self.w[idx]
        w = np.clip(np.interp(r, self.r, self.w), w_lo, w_hi)
        for _ in range(3):
            val = np.atleast_1d(self.r_of_w(w))
            slope = 2.0 * self.aeval(w**2)
            w = np.clip(w - (val - r) / slope, w_lo, w_hi)
        return w

    @property
    def r_min(self) -> float:
        return float(self.r[0])

    @property
    def r_max(self) -> float:
        return float(self.r[-1])


def _aeval(profile: ProfileA):
    """Evaluation callable valid on the whole metric t-range."""
    if profile.is_constant:
        g = profile.params.gamma
        return lambda t: np.full_like(np.asarray(t, dtype=float), g)
    return profile.a


def _metric_t_interval(profile: ProfileA) -> tuple[float, float, bool]:
    """(t_lo, t_hi, lo_closed): t-range of the metric and whether t_lo is attainable."""
    if profile.is_constant:
        return 0.0, math.inf, True
    t_lo = max(profile.t0, 0.0)
    t_hi = profile.t1
    if t_hi <= t_lo:
        raise DomainError("profile has no t > 0 portion, no metric to build")
    lo_closed = not (profile.t0 >= 0.0 and profile.tag0.kind == BLOW_UP)
    return t_lo, t_hi, lo_closed


def _lower_edge_kind(profile: ProfileA) -> Optional[str]:
    """Quadrature variable toward the lower edge; None for a regular integrand."""
    if profile.is_constant:
        return None
    if profile.t0 >= 0.0 and profile.tag0.kind == BLOW_UP:
        # steady edge and the t = 0 cusp both give a log-type divergence
        return "log_lo" if profile.params.lam == 0.0 or profile.t0 == 0.0 else "sqrt_lo"
    return None


def _upper_edge_kind(profile: ProfileA) -> Optional[str]:
    if profile.is_constant:
        return None
    tag = profile.tag1.kind
    if tag == BLOW_UP:
        return "log_hi" if profile.params.lam == 0.0 else "sqrt_hi"
    if tag == DECAY_TO_ZERO:
        return "inv_hi"
    return None


@dataclass(frozen=True)
class WarpedMetric:
    """Sampled realization (r, b, b', K) of g = dr^2 + b(r)^2 dtheta^2.

    t_of_r = b^2/4 is exact; b' = 1/a(t) and K = lambda - 2 mu/a along built
    metrics, or finite-difference values for metrics built from raw b data.
    """

    params: SolitonParams
    r: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    K: np.ndarray
    t_of_r: np.ndarray
    closed_form: Optional[tuple[str, float]] = None
    r_extent: tuple[float, float] = (-math.inf, math.inf)
    profile: Optional[ProfileA] = None

    @property
    def spacing(self) -> float:
        return float(self.r[1] - self.r[0])

    def interp_b(self, r0: float) -> float:
        return float(np.interp(r0, self.r, self.b))

    def interp_b_prime(self, r0: float) -> float:
        return float(np.interp(r0, self.r, self.b_prime))

    def to_csv(self) -> str:
        """CSV export with header ``r,b,db_dr,K`` at 17 significant digits."""
        buf = io.StringIO()
        buf.write("r,b,db_dr,K\n")
        for r, b, bp, k in zip(self.r, self.b, self.b_prime, self.K):
            buf.write(f"{r:.17g},{b:.17g},{bp:.17g},{k:.17g}\n")
        return buf.getvalue()


def _detect_closed_form(profile: ProfileA) -> Optional[tuple[str, float]]:
    p = profile.params
    if not p.is_steady or profile.kind != "closed_form":
        return None
    if p.mu < 0.0:
        return ("CIGAR", math.sqrt(-p.mu)) if profile.phi == 1.0 else None
    if profile.phi == 1.0:
        return ("EXPLODING", math.sqrt(p.mu))
    if profile.phi <= 0.0:
        return ("G3", math.sqrt(-profile.phi))
    return None


def build_warped_metric(
    profile: ProfileA,
    anchor: tuple[float, float],
    r_window: tuple[float, float],
    n_samples: int = 2001,
) -> WarpedMetric:
    """Reconstruct the metric on a uniform r-grid inside r_window.

    The anchor (r0, b0) places the radial coordinate: t = b0^2/4 must lie in
    the closure of the profile's t-domain, and b0 = 0 additionally requires
    the smooth-extension condition lim_{t->0} a = 1, in which case the grid
    starts at the origin with b'(0) = 1.  The window is clipped to the extent
    reachable from the profile data; an empty intersection raises.
    """
    r0, b0 = float(anchor[0]), float(anchor[1])
    if b0 < 0.0:
        raise DomainError("anchor b0 must be nonnegative")
    r_lo_req, r_hi_req = float(r_window[0]), float(r_window[1])
    if not r_lo_req < r_hi_req:
        raise WindowEmptyError("empty r-window")

    t_lo, t_hi, lo_closed = _metric_t_interval(profile)
    t_anchor = 0.25 * b0 * b0
    aeval = _aeval(profile)
    if b0 == 0.0:
        if t_lo > 0.0 or not lo_closed:
            raise DomainError("t = 0 is not in the closure of the profile domain")
        a0 = float(aeval(0.0))
        if abs(a0 - 1.0) > SMOOTH_ORIGIN_TOL:
            raise NotSmoothOriginError(
                f"b0 = 0 requires lim a(t) = 1 at t -> 0, got {a0!r}"
            )
    elif not (t_lo <= t_anchor <= t_hi):
        raise DomainError("anchor circle lies outside the profile domain")

    kind_lo = _lower_edge_kind(profile)
    kind_hi = _upper_edge_kind(profile)
    lam, mu = profile.params.lam, profile.params.mu
    w1 = math.sqrt(t_hi) if math.isfinite(t_hi) else math.inf
    w0 = math.sqrt(t_lo)

    # evaluable edge positions, kept strictly inside singular endpoints
    if kind_lo == "sqrt_lo":
        t_a = t_lo + 1.0 / (4.0 * abs(lam) * 1e16)
        w_a = math.sqrt(t_a)
        for _ in range(3):
            w_a = np.nextafter(w_a, math.inf) if w_a <= w0 else w_a
        w_a = max(w_a, np.nextafter(w0, math.inf))
    elif kind_lo == "log_lo":
        gap0 = (t_hi - t_lo) if math.isfinite(t_hi) else 1.0
        w_a = math.sqrt(t_lo + 1e-10 * gap0)
    else:
        w_a = w0

    if kind_hi == "sqrt_hi":
        t_b = t_hi - 1.0 / (4.0 * abs(lam) * 1e16)
        w_b = min(math.sqrt(t_b), np.nextafter(w1, 0.0))
    elif kind_hi == "log_hi":
        w_b = math.sqrt(t_hi - 1.0 / (4.0 * abs(mu) * 1e9))
    elif kind_hi == "inv_hi":
        # plain part up to a moderate level, reciprocal zone for the tail
        a_level = min(0.01, 0.5 * profile.a_ref if not profile.is_constant else 0.01)
        t_b = profile.t_ref + time_between_levels(profile.params, profile.a_ref, a_level)
        w_b = math.sqrt(max(t_b, 4.0 * t_anchor + 1.0))
    elif profile.is_constant:
        w_b = math.sqrt(max(4.0 * t_anchor, 1.0))
    elif profile.tag1.kind == CONVERGES:
        w_b = math.sqrt(max(profile.sample_range()[1], 4.0 * t_anchor, 1.0))
    else:  # TRUNCATED upper edge
        w_b = math.sqrt(profile.t1)

    n_core = max(2000, n_samples)

    def build_table(w_a, w_b):
        span = w_b - w_a
        c1 = w_a + (0.3 * span if kind_lo else 0.0)
        c2 = w_b - (0.3 * span if kind_hi in ("sqrt_hi", "log_hi") else 0.0)
        zones = []
        if kind_lo:
            zones.append(_Zone(kind_lo, w_a, c1, edge=w0))
        zones.append(_Zone("plain", c1, c2, n=n_core))
        if kind_hi in ("sqrt_hi", "log_hi"):
            zones.append(_Zone(kind_hi, c2, w_b, edge=w1))
        elif kind_hi == "inv_hi":
            zones.append(_Zone("inv_hi", w_b, 1e9, edge=math.inf))
        return _ArcTable(aeval, zones)

    table = build_table(w_a, w_b)
    w_anchor = math.sqrt(t_anchor)

    def offset():
        return r0 - float(table.r_of_w(w_anchor))

    # extend upward while the end is at infinite distance and not yet covered
    guard = 0
    while offset() + table.r_max < r_hi_req and guard < 80:
        if kind_hi == "log_hi":
            gap = t_hi - w_b * w_b
            if gap <= 16.0 * np.finfo(float).tiny:
                break
            w_b = math.sqrt(t_hi - gap * 1e-4)
        elif kind_hi is None and (
            profile.is_constant
            or profile.tag1.kind == CONVERGES
            or (profile.tag1.kind == TRUNCATED and math.isinf(profile.t1))
        ):
            w_b *= 2.0
        else:
            break  # finite total extent (sqrt blow-up edge or decay tail)
        table = build_table(w_a, w_b)
        guard += 1

    # extend downward toward an infinitely far inner edge (cusp / cylinder)
    guard = 0
    while offset() + table.r_min > r_lo_req and kind_lo == "log_lo" and guard < 80:
        gap = w_a * w_a - t_lo
        if gap < 1e-280:
            break
        w_a = math.sqrt(t_lo + gap * 1e-4)
        table = build_table(w_a, w_b)
        guard += 1

    off = offset()
    r_lo = max(r_lo_req, off + table.r_min)
    r_hi = min(r_hi_req, off + table.r_max)
    if not r_lo < r_hi:
        raise WindowEmptyError(
            f"requested r-window [{r_lo_req:g}, {r_hi_req:g}] misses the metric extent "
            f"[{off + table.r_min:g}, {off + table.r_max:g}]"
        )

    r = np.linspace(r_lo, r_hi, n_samples)
    w = np.asarray(table.w_of_r(r - off))
    include_origin = b0 == 0.0 and r_lo == r0
    t = w * w
    if include_origin:
        w[0], t[0] = 0.0, 0.0
    a_vals = np.asarray(aeval(t))
    if include_origin:
        a_vals[0] = 1.0
    b = 2.0 * w
    b_prime = 1.0 / a_vals
    K = profile.params.curvature(a_vals)
    return WarpedMetric(
        params=profile.params,
        r=r,
        b=b,
        b_prime=b_prime,
        K=K,
        t_of_r=t,
        closed_form=_detect_closed_form(profile),
        r_extent=(off + table.r_min, off + table.r_max),
        profile=profile,
    )


def metric_from_grid(params: SolitonParams, r: np.ndarray, b: np.ndarray) -> WarpedMetric:
    """Metric from raw (r, b) samples; b', K by central finite differences.

    Used for perturbed or externally supplied metrics where no profile is
    available; one-sided stencils at the two edge points.  The differenced
    curvature carries rounding noise ~ eps_machine/h^2, which downstream
    log|K| differencing amplifies by another 1/h^2: keep h >= 1e-3 here, or
    supply analytically differentiated K by constructing WarpedMetric
    directly.
    """
    r = np.asarray(r, dtype=float)
    b = np.asarray(b, dtype=float)
    if r.ndim != 1 or r.size < 5 or b.shape != r.shape:
        raise DomainError("need matching 1-d arrays with at least 5 samples")
    h = r[1] - r[0]
    bp = np.gradient(b, r, edge_order=2)
    bpp = np.empty_like(b)
    bpp[1:-1] = (b[2:] - 2.0 * b[1:-1] + b[:-2]) / (h * h)
    bpp[0] = (2.0 * b[0] - 5.0 * b[1] + 4.0 * b[2] - b[3]) / (h * h)
    bpp[-1] = (2.0 * b[-1] - 5.0 * b[-2] + 4.0 * b[-3] - b[-4]) / (h * h)
    K = -bpp / b
    return WarpedMetric(
        params=params, r=r, b=b, b_prime=bp, K=K, t_of_r=0.25 * b * b,
        closed_form=None, r_extent=(float(r[0]), float(r[-1])), profile=None,
    )


def radial_distance(profile: ProfileA, t_from: float, t_to: float, n: int = 4000) -> float:
    """Arc length between the circles at t_from and t_to.

    Both levels must keep the integrand a/sqrt(t) regular (anywhere except a
    blow-up edge); the smooth origin t = 0 is fine.
    """
    if not 0.0 <= t_from < t_to:
        raise DomainError("need 0 <= t_from < t_to")
    zone = _Zone("plain", math.sqrt(t_from), math.sqrt(t_to), n=n)
    return _ArcTable(_aeval(profile), [zone]).r_max


def curvature_from_b(metric: WarpedMetric, r: float) -> float:
    """Finite-difference curvature -b''/b at the grid point nearest r.

    Independent of the algebraic route K = lambda - 2 mu/a; second order in
    the grid spacing.  Needs five grid points on each side.
    """
    i = int(np.argmin(np.abs(metric.r - r)))
    if i < 5 or i > metric.r.size - 6:
        raise EdgeError("need at least 5 samples on each side of r")
    h = metric.spacing
    bpp = (metric.b[i - 1] - 2.0 * metric.b[i] + metric.b[i + 1]) / (h * h)
    return float(-bpp / metric.b[i])


def geodesic_curvature(metric: WarpedMetric, r0: float) -> float:
    """Geodesic curvature kappa = b'/b of the circle at radius r0."""
    b = metric.interp_b(r0)
    if b <= 0.0:
        raise DomainError("geodesic curvature needs b(r0) > 0")
    return metric.interp_b_prime(r0) / b


# ---------------------------------------------------------------------------
# Geometry report
# ---------------------------------------------------------------------------

SMOOTH_POINT = "SMOOTH_POINT"
CONE_END = "CONE_END"
CYLINDER_END = "CYLINDER_END"
CUSP_END = "CUSP_END"
GEODESIC_BOUNDARY = "GEODESIC_BOUNDARY"
EXPLODING_END = "EXPLODING_END"
BLOWUP_EDGE = "BLOWUP_EDGE"

POSITIVE = "POSITIVE"
NEGATIVE = "NEGATIVE"
ZERO = "ZERO"


@dataclass(frozen=True)
class EndDescriptor:
    kind: str
    angle: Optional[float] = None
    radius: Optional[float] = None
    length: Optional[float] = None
    curvature: Optional[float] = None
    nu: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        for key in ("angle", "radius", "length", "curvature", "nu"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


@dataclass(frozen=True)
class GeometryReport:
    complete_inner: bool
    complete_outer: bool
    complete: bool
    curvature_sign: str
    K_inf: float
    K_sup: float
    inner_end: EndDescriptor
    outer_end: EndDescriptor

    @property
    def bounded_curvature(self) -> bool:
        return math.isfinite(self.K_inf) and math.isfinite(self.K_sup)

    def to_json_dict(self) -> dict:
        return {
            "complete_inner": self.complete_inner,
            "complete_outer": self.complete_outer,
            "complete": self.complete,
            "curvature_sign": self.curvature_sign,
            "K_inf": self.K_inf,
            "K_sup": self.K_sup,
            "bounded_curvature": self.bounded_curvature,
            "inner_end": self.inner_end.to_json_dict(),
            "outer_end": self.outer_end.to_json_dict(),
        }


def t0_uncertainty(profile: ProfileA) -> float:
    """Rounding bound on a blow-up time T0 = C = t_ref - G(a_ref).

    A few ulps of each term of the subtraction, plus the rounding of a_ref
    and gamma amplified by the condition number |a G'(a)| = |a / a'(a)|.
    """
    p, a = profile.params, profile.a_ref
    scale = (abs(profile.t0) + abs(profile.t_ref) + abs(_separatrix_time(p, a))
             + abs(a / p.rhs(a)))
    return 8.0 * np.finfo(float).eps * scale


def _check_cusp(profile: ProfileA) -> None:
    """Validate the cusp thresholds: circle length below 1e-4 with K near lambda."""
    p = profile.params
    lam, mu = p.lam, p.mu
    t_len = (0.5e-4) ** 2 / 4.0  # b = 2 sqrt(t) < 1e-4
    t_K = (1e-3 / 2.0) ** 2 / (4.0 * mu * mu * (-lam)) if lam < 0 else t_len
    t_c = min(t_len, t_K)
    a_c = profile.a(t_c)
    K_c = p.curvature(a_c)
    if 2.0 * math.sqrt(t_c) >= 1e-4 or abs(K_c - lam) > 1e-3:
        raise UnresolvedEndError("cusp thresholds not met near t = 0")


def _resolve(profile: ProfileA) -> ProfileA:
    """The same branch over its maximal interval when the window cut an end."""
    if profile.kind != "implicit" or TRUNCATED not in (profile.tag0.kind, profile.tag1.kind):
        return profile
    return implicit_profile(
        profile.params, profile.t_ref, profile.a_ref, profile.C, (-math.inf, math.inf)
    )


def _inner_descriptor(profile: ProfileA):
    p = profile.params
    if profile.is_constant:
        g = p.gamma
        if abs(g - 1.0) <= SMOOTH_ORIGIN_TOL:
            return EndDescriptor(SMOOTH_POINT, curvature=0.0), True
        return EndDescriptor(CONE_END, angle=2.0 * math.pi / g), False
    if profile.t0 < 0.0:
        a0 = profile.a(0.0)
        if abs(a0 - 1.0) <= SMOOTH_ORIGIN_TOL:
            return EndDescriptor(SMOOTH_POINT, curvature=p.lam - 2.0 * p.mu), True
        # cone vertex at the origin: finite distance, no smooth extension
        return EndDescriptor(CONE_END, angle=2.0 * math.pi / a0), False
    if profile.tag0.kind == SMOOTH_ORIGIN:
        return EndDescriptor(SMOOTH_POINT, curvature=p.lam - 2.0 * p.mu), True
    if profile.tag0.kind == BLOW_UP:
        T0 = profile.t0
        if p.lam == 0.0:
            return EndDescriptor(CYLINDER_END, radius=2.0 * math.sqrt(T0)), True
        unc = t0_uncertainty(profile)
        if profile.t0_exact and T0 == 0.0:
            _check_cusp(profile)
            return EndDescriptor(CUSP_END, curvature=p.lam), True
        if abs(T0) <= unc and not profile.t0_exact:
            raise UnresolvedEndError(
                f"initial blow-up time {T0!r} within its uncertainty {unc:g}; "
                "cusp versus boundary is not decidable numerically"
            )
        if T0 > 0.0:
            return (
                EndDescriptor(GEODESIC_BOUNDARY, length=4.0 * math.pi * math.sqrt(T0)),
                False,
            )
        raise UnresolvedEndError("negative blow-up time with t-domain at 0")
    # TRUNCATED with t0 >= 0: window edge, no geometric conclusion
    return EndDescriptor(BLOWUP_EDGE), False


def _outer_descriptor(profile: ProfileA):
    p = profile.params
    if profile.is_constant:
        return EndDescriptor(CONE_END, angle=2.0 * math.pi / p.gamma), True
    tag = profile.tag1
    if tag.kind == BLOW_UP:
        T1 = profile.t1
        if p.lam == 0.0:
            return EndDescriptor(CYLINDER_END, radius=2.0 * math.sqrt(T1)), True
        return (
            EndDescriptor(GEODESIC_BOUNDARY, length=4.0 * math.pi * math.sqrt(T1)),
            False,
        )
    if tag.kind == DECAY_TO_ZERO:
        return EndDescriptor(EXPLODING_END, nu=math.sqrt(p.mu)), False
    if tag.kind == CONVERGES:
        return EndDescriptor(CONE_END, angle=2.0 * math.pi / tag.value), True
    return EndDescriptor(BLOWUP_EDGE), False


def geometry_report(profile: ProfileA, tol: float = 1e-8, resolve: bool = True) -> GeometryReport:
    """Completeness, curvature range, and end structure of the metric.

    Completeness of each end follows the convergence of the arc-length
    element a(t)/sqrt(t) toward it, from the exact tail of the implicit
    solution at that end; ends cut by the profile's window are resolved by
    viewing the same branch over its maximal interval first (disable with
    ``resolve=False`` to report BLOWUP_EDGE instead).
    """
    if resolve:
        profile = _resolve(profile)
    t_lo, t_hi, _ = _metric_t_interval(profile)

    inner, complete_inner = _inner_descriptor(profile)
    outer, complete_outer = _outer_descriptor(profile)

    mono = profile.monotonicity()
    sign = {"increasing": POSITIVE, "decreasing": NEGATIVE, "constant": ZERO}[mono]

    # K = lambda - 2 mu / a is monotone in a and a is monotone in t, so the
    # curvature range comes from the a-limits over the metric's t-interval
    p = profile.params
    if profile.is_constant:
        k_vals = [0.0, 0.0]
    else:
        limits = []
        if profile.t0 < 0.0 or profile.tag0.kind in (SMOOTH_ORIGIN, TRUNCATED):
            limits.append(profile.a(t_lo))
        elif profile.tag0.kind == BLOW_UP:
            limits.append(math.inf)
        if profile.tag1.kind == BLOW_UP:
            limits.append(math.inf)
        elif profile.tag1.kind == DECAY_TO_ZERO:
            limits.append(0.0)
        elif profile.tag1.kind == CONVERGES:
            limits.append(profile.tag1.value)
        else:
            limits.append(profile.a(profile.t1))
        k_vals = []
        for av in limits:
            if av == 0.0:
                k_vals.append(-math.inf if p.mu > 0 else math.inf)
            elif math.isinf(av):
                k_vals.append(p.lam)
            else:
                k_vals.append(p.curvature(av))
    K_inf, K_sup = min(k_vals), max(k_vals)

    return GeometryReport(
        complete_inner=complete_inner,
        complete_outer=complete_outer,
        complete=complete_inner and complete_outer,
        curvature_sign=sign,
        K_inf=float(K_inf),
        K_sup=float(K_sup),
        inner_end=inner,
        outer_end=outer,
    )
