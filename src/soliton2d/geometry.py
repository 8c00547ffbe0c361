"""Warped-product metrics g = dr^2 + b(r)^2 dtheta^2 built from profiles.

In the coordinate t = b^2/4 the metric reads (a^2/t) dt^2 + 4t dtheta^2 with
a = 1/b', so arc length is recovered from r(t) = r0 + int a(s)/sqrt(s) ds.
The quadrature runs in the branch's own level coordinate v (ode.py), in
which both a and t = C + G(a) are explicit.  Its nodes are 1/2 apart where
dr/dv varies on the unit scale and grow where it is constant (toward a
cylinder or cusp) or follows the cone law; a tail toward a geodesic boundary
stops once the rest of r is below an ulp.  From a lower edge at or next to a
regular t = 0 (smooth origin or cone vertex), where t = C + (t - C) would
cancel, a near-edge piece runs up to a seam in x with x^2 = t_lo + c |v - v_lo|,
in which a and t = t_lo + rise (ode._rise) are explicit too.  An edge's v comes
from its level where the caller holds it (entry_metric), so no level is
inverted, else from one float inversion of its time (radial_distance,
build_warped_metric).  An edge next to a cusp (C = 0) starts on v at x = 0.
Gauss curvature follows the algebraic identity K = lambda - 2 mu / a; the
finite-difference route -b''/b is kept separate as an independent check.
The geometry report (ends, completeness, curvature range) reads only the end
levels; it is defined in ode.py, without numpy, and re-exported here.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, EdgeError, NotSmoothOriginError, RangeError, WindowEmptyError
from .ode import (
    _MAX_SAMPLES,
    _V_MAX,
    _V_MIN,
    BLOW_UP,
    CONE_END,
    CONVERGES,
    CUSP_END,
    CYLINDER_END,
    DECAY_TO_ZERO,
    EXPLODING_END,
    GEODESIC_BOUNDARY,
    NEGATIVE,
    POSITIVE,
    SMOOTH_POINT,
    ZERO,
    EndDescriptor,
    GeometryReport,
    ProfileA,
    SolitonParams,
    _blowup_end,
    _branch_class,
    _fate,
    _inner_descriptor,
    _level_coordinate,
    _level_point,
    _level_state,
    _metric_t_interval,
    _outer_descriptor,
    _resolve,
    _rise,
    _slope_sign,
    _sorted_unique,
    _v_of_level,
    geometry_report,
    is_smooth_origin,
    t0_sign,
    t0_uncertainty,
)

_log = logging.getLogger("soliton.geometry")

# 7-point Gauss-Legendre nodes and weights on [-1, 1], as leggauss(7) gives them
_GL_X = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
])
_GL_W = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
    0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
])


def _lagrange(nodes) -> list:
    """Coefficients (highest power first) of each Lagrange basis polynomial at nodes, expanded from the
    products of its linear factors (within about an ulp, where inverting the Vandermonde matrix loses several)."""
    return [functools.reduce(np.convolve, ([1.0, -xj] for j, xj in enumerate(nodes) if j != i))
            / math.prod(xi - xj for j, xj in enumerate(nodes) if j != i) for i, xi in enumerate(nodes.tolist())]


#: _ANTI @ f gives the coefficients of tau^0..tau^7 of the antiderivative from -1 of the interpolant of f at _GL_X
_ANTI = np.array([(c := np.polyint(b))[::-1] - np.polyval(c, -1.0) * (np.arange(8) == 0) for b in _lagrange(_GL_X)]).T
#: The 8 Chebyshev-Lobatto nodes -cos(pi k / 7), ascending and exactly symmetric, and those nodes on [0, 1]
_LOB = np.sin(np.pi * np.arange(-7.0, 8.0, 2.0) / 14.0)
_S = (_LOB + 1.0) / 2.0
#: _INTERP @ values at _LOB gives the coefficients of u^0..u^7 of their interpolant
_INTERP = np.array([b[::-1] for b in _lagrange(_LOB)]).T
#: _TAYLOR @ c gives the polynomial c and its first 3 derivatives at _LOB: 4 blocks of 8 rows of (m!/(m-j)!) tau^(m-j)
_TAYLOR = (np.cumprod(np.vstack((np.ones(8), np.arange(8.0) - np.arange(3.0)[:, None])), 0)[:, None]
           * _LOB[:, None] ** (np.arange(8.0) - np.arange(4.0)[:, None, None])).reshape(32, 8)


def curvature_from_a(params: SolitonParams, a) -> float:
    """Gauss curvature K = lambda - 2 mu / a of the metric with profile value a."""
    arr = np.asarray(a, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("profile value must be positive")
    return params.curvature(a)


# ---------------------------------------------------------------------------
# Arc-length table
# ---------------------------------------------------------------------------

#: Distance in v from a regular lower edge to the seam where the near-edge
#: piece hands over to the level coordinate.  a changes by a factor of about
#: e^0.5 there, so t = C + (t - C) no longer cancels, and the 1/sqrt(t)
#: singularity at the edge stays half a unit of v away from the v nodes.
_SEAM = 0.5
_EDGE_SEGMENTS = 16  # Gauss-Legendre segments of the near-edge piece
#: A decay end (t -> inf, a -> 0) lies at finite distance but is not a
#: circle of the metric.  Its table stops 60 e-folds of a below the branch
#: scale, where the rest of the tail is about e^-30 of the radius.
_DECAY_SPAN = 60.0
#: Past _V_FLAT from the branch's centre the e^-|v| terms of dr/dv are below
#: an ulp: it is constant toward a cylinder or cusp and follows r ~ sqrt(v)
#: toward a cone (out to _CONE_SPAN), and v nodes grow by 1.25 per segment.
_V_FLAT = -math.log(math.ulp(1.0))
_CONE_SPAN = 1.0e15
#: x-range of the flat cone a == gamma, where t = x^2 and r = 2 gamma x are exact.
_X_FLAT = 1.0e150
_MAX_PARTS = 32  # x_of_r splits a table segment into at most this many equal parts
_TINY, _EPS, _HUGE = np.finfo(float).tiny, np.finfo(float).eps, np.finfo(float).max
_ROOTS = (1.0 / np.arange(1, 7))[:, None]
_UNIT = np.linspace(0.0, 1.0, 9)  # the v offsets 1/8 apart over the first unit


def _parts(f, x, r):
    """Parts of each segment (nodes x, r; f: dr/dx at its Gauss-Legendre points) for x_of_r,
    and each segment's estimate over its tolerance.

    There r = r_start + half y(tau), y = _ANTI @ f, with coefficients c_k ~ c1 rho^(k-1).  On n parts the
    dropped c8 and the error of x_of_r's inverse polynomial (node values from a third-order Taylor step,
    then interpolation: 12 rho^7 of tau on y = tau + rho tau^2) are 1 and 12 times half c1 rho^7 n^-8;
    the estimate, 26 times that, keeps twice their sum below half an ulp of max(1, |r|) (r = 0 is a node)."""
    c = np.abs(_ANTI @ f.T)
    with np.errstate(invalid="ignore", over="ignore"):
        err = 13.0 * (x[1:] - x[:-1]) * c[1] * ((c[2:] / np.maximum(c[1], _TINY)) ** _ROOTS).max(axis=0) ** 7
    err[np.isnan(err)] = 0.0  # nan to 0 here and inf to the largest float next, as np.nan_to_num
    ratio = np.minimum(err, _HUGE, out=err) / (0.5 * _EPS * np.maximum(1.0, np.minimum(abs(r[:-1]), abs(r[1:]))))
    return np.minimum(np.maximum(np.ceil(ratio ** 0.125), 1.0), _MAX_PARTS).astype(int), ratio


def _v_offsets(span: float, c: float, grow_lo: bool, grow_hi: bool):
    """Offsets of the v nodes from the start of the v piece out to span, and
    how many lie 1/2 apart within _V_FLAT of the offset c of the centre, in a
    grown zone and 1/2 apart beyond _V_FLAT.  They are 1/8 apart over the
    first unit (next to the seam), then 1/2 apart, except past _V_FLAT of c
    on a side that grows.  There they grow by 1.25 per segment away from the
    start, or on the far side away from c where c lies ahead of the start:
    a cone law's singularity lies behind the start or within the band."""
    lo = c - _V_FLAT if grow_lo else -math.inf
    hi = max(c + _V_FLAT, 2.0) if grow_hi else math.inf
    g = 1.25 ** np.arange(math.log(span + 2.0) / math.log(1.25))
    s = np.concatenate([_UNIT, [1.5, span], 2.0 * g[2.0 * g < lo],
                        np.arange(max(2.0, math.ceil(2.0 * lo) / 2.0 if grow_lo else 2.0), min(span, hi), 0.5),
                        max(c, 0.0) + (hi - max(c, 0.0)) * g])
    s = _sorted_unique(s[s <= span])
    grown, beyond = ((s > 2.0) & (s < lo)) | (s > hi), np.abs(s - c) > _V_FLAT
    n_grown, n_beyond = np.count_nonzero(grown), np.count_nonzero(beyond & ~grown)
    return s, (s.size - n_grown - n_beyond, n_grown, n_beyond)


class _ArcTable:
    """Cumulative arc length r(x) from the circle at t_lo to the one at t_hi.

    r = int a/sqrt(t) dt is taken over one coordinate x with a point map
    x -> (a, t, dr/dx).  From a lower edge t_lo at or near a regular t = 0
    (t rises by more than t_lo over the half unit of v to a seam), where
    C + (t - C) would cancel, a near-edge piece runs up to the seam.  It is
    explicit: x^2 = t_lo + c |v - v_lo| (c = |dt/dv| at the edge, so
    x ~ sqrt(t)), a from v and t = t_lo + ode._rise; from 0 < t_lo its first
    nodes grow geometrically, since dr/dx has a pole near x = 0.  On the flat
    cone a == gamma the piece is the whole table, with t = x^2 and
    dr/dx = 2 gamma.  Elsewhere x runs along the branch's level
    coordinate v (v = sigma x + v_shift, sigma = sign dt/dv = sign a'; x = 0
    at an edge next to a cusp, C = 0), in which a and t are explicit, with
    nodes that follow dr/dv (_v_offsets).  An edge's v comes from its level
    where the caller holds it, else from one float inversion of its time,
    and so does the circle of x_at.  Cylinder and
    cusp ends lie at v = _V_MAX, decay and cone ends at _DECAY_SPAN and
    _CONE_SPAN.  A geodesic boundary (C > 0 at v = inf) is cut where the rest
    of r is below an ulp of the part from ve = 1/2 (or the v piece's nearer
    end), since r = 0 is no nearer it: int a dt from v to it is
    log1p(e^-v) / (4 |mu|), over sqrt(t) with t between t(ve) and C.

    Node values come from per-segment Gauss-Legendre; evaluation between
    nodes adds the exact partial-segment quadrature, so r(x) and its inverse
    are accurate to quadrature precision everywhere, not just at the nodes
    (interpolated tables leave node-scale wiggles that finite differencing
    downstream would amplify by 1/h^2).  x_of_r inverts sorted samples by
    collocation on parts of the segments that hold them, as many parts as an
    error estimate from the table's own quadrature asks for (`parts`; `worst`
    is the largest estimate over its tolerance).  `start` names the table's
    start, `evals` counts point-map evaluations (`table_evals` of them for the
    table itself) and `segments` the (segments, parts, worst estimate over
    them) of the last x_of_r.
    """

    def __init__(self, profile: ProfileA, t_lo: float, t_hi: float, a_lo=None, a_hi=None):
        self.profile, self.t_lo, self.evals = profile, t_lo, 0
        self.x_c = t_c = -math.inf  # end of the near-edge piece
        if profile.is_constant:  # flat cone: the near-edge piece alone, t = x^2
            t_hi = t_c = min(t_hi, _X_FLAT**2)
        else:
            p, C = profile.params, profile.C
            self.branch, self.sigma = _branch_class(p, profile.a_ref), _slope_sign(p, profile.a_ref)
            blow0 = profile.tag0.kind == BLOW_UP and t_lo == profile.t0
            cusp = C == 0.0 and not blow0  # t = k psi has its digits: v starts at x = 0 there
            self.v_lo = v0 = _V_MAX if blow0 else self._v_at(t_lo, a_lo)
            if not (blow0 or cusp):
                with np.errstate(over="ignore"):  # checked next
                    rise, self.c = _rise(p, self.branch, v0, np.array([self.sigma * _SEAM]))
                if not (math.isfinite(C) and 0.0 < self.c < math.inf):
                    raise RangeError(f"t = C + G(a) leaves the float range at t = {t_lo:g} (C = {C:g}, "
                                     f"|dt/dv| = {self.c:g})")
                seam = t_lo + float(rise[0])
                if seam - t_lo >= t_lo:  # the near-edge piece up to the seam
                    t_c, v0 = seam, v0 + self.sigma * _SEAM
        self.start = "near-edge piece" if t_c > t_lo else "v from " + (
            "a blow-up" if blow0 else "a cusp edge" if cusp else "an interior edge")
        nodes = []
        if t_c > t_lo:
            x_lo = math.sqrt(t_lo)
            if profile.is_constant:
                self.x_c = math.sqrt(t_hi)
            else:  # x^2 = t_lo + c |v - v_lo|, with a pole of dr/dx near x = 0 where t_lo > 0
                span = _SEAM if t_hi >= t_c else abs(self._v_at(t_hi, a_hi) - self.v_lo)
                self.x_c = math.sqrt(t_lo + self.c * span)
                if t_lo > 0.0:
                    nodes.append(x_lo * 1.25 ** np.arange(1.0, math.log(self.x_c / x_lo) / math.log(1.25)))
            nodes.append(np.linspace(x_lo, self.x_c, _EDGE_SEGMENTS + 1))
        n_edge, zones = sum(n.size for n in nodes), (0, 0, 0)
        if t_c < t_hi:
            tag1, steady = profile.tag1.kind, math.isinf(profile.params.gamma)
            if tag1 == BLOW_UP and t_hi == profile.t1:
                v_end = _V_MAX
            elif math.isinf(t_hi) and tag1 == DECAY_TO_ZERO:
                v_end = max(_V_MIN, min(v0, 0.0) - _DECAY_SPAN)
            elif math.isinf(t_hi):  # convergence to the separatrix
                v_end = v0 + self.sigma * _CONE_SPAN
            else:
                v_end = self._v_at(t_hi, a_hi)
            if C > 0.0 and profile.a_ref > profile.params.gamma:  # a geodesic boundary at v = inf
                ve = min(max(0.5, min(v0, v_end)), max(v0, v_end))  # r = 0 lies no nearer it
                te = float(self._v_point(np.array([ve]))[1][0])
                v_stop = math.ceil(2.0 * _V_FLAT + 2.0 * math.log(2.0 / np.logaddexp(0.0, -ve))
                                   + abs(math.log(te / C))) / 2.0  # on the half-unit node grid
                v0, v_end = min(v0, v_stop), min(v_end, v_stop)
            # x goes on from the near-edge piece, is 0 at a cusp-side edge, or is sigma v: small where r is
            x0 = self.x_c if nodes else 0.0 if cusp else self.sigma * v0
            self.v_shift = v0 - self.sigma * x0
            # dr/dv is flat toward a cusp (C = 0) or cylinder (steady), where its e^-|v - c| terms
            # centre on v = 0, or on the turn of t - C = e^-v / (4 mu); it follows a law toward a cone
            flat = (C == 0.0) != steady
            kind0, kind1 = (_fate(profile.params, profile.a_ref, forward).kind for forward in (False, True))
            c = -math.log(4.0 * abs(profile.params.mu)) - math.log(abs(C)) if steady and C != 0.0 else 0.0
            s, zones = _v_offsets(abs(v_end - v0), self.sigma * (c - v0), kind0 == CONVERGES or (blow0 and flat),
                                  kind1 == CONVERGES or (kind1 == BLOW_UP and flat))
            nodes.append(x0 + s)
        self.x = _sorted_unique(np.concatenate(nodes))
        if self.x.size < 2:
            raise RangeError(f"the arc table from t = {t_lo:g} to {t_hi:g} has one node: its span rounds to 0")
        self.node_counts = (n_edge, *zones)  # near-edge piece and v zones
        # r = 0 at the node nearest x = 0, where the branch turns, and sums
        # run outward from there: their rounding stays at the scale of the
        # turn, not of an infinitely far end cut at the edge of the v-range
        incr, f = self._quad(self.x[:-1], self.x[1:])
        k = int(np.argmin(np.abs(self.x)))
        self.r = np.concatenate([-np.cumsum(incr[:k][::-1])[::-1], [0.0], np.cumsum(incr[k:])])
        self._f, self.table_evals = f, self.evals

    # parts and worst (_parts) are made on first use: a distance-only table never needs them
    _estimate = functools.cached_property(lambda self: _parts(self._f, self.x, self.r))
    parts = property(lambda self: self._estimate[0])
    worst = property(lambda self: float(self._estimate[1].max()))

    def _v_at(self, t: float, a: Optional[float] = None) -> float:
        """Level coordinate of the circle at t, from its level a where the caller holds it, else from t - C."""
        if a is not None:
            return _v_of_level(self.profile.params, self.branch, a)
        return _level_coordinate(self.profile.params, self.branch, float(t) - self.profile.C)

    def _v_point(self, v):
        return _level_point(self.profile.params, self.branch, self.profile.C, v)

    def point(self, x):
        """(a, t, dr/dx) at the table coordinate x, on the near-edge piece
        where x <= x_c and on the v piece elsewhere.  x is 1-d with every
        x <= x_c first, as nondecreasing x has them; it may be empty."""
        return self._map(x, self._edge_map, self._v_map)

    def level(self, x):
        """(a, t) at x as point gives them, without dr/dx: the samples' point map."""
        return self._map(x, self._edge_level, lambda x: _level_state(
            self.profile.params, self.branch, self.profile.C, self.sigma * x + self.v_shift)[:2])

    def _map(self, x, edge, v):
        self.evals += x.size
        i = int(x.searchsorted(self.x_c, side="right"))
        if i == x.size and self.x_c >= 0.0:
            return edge(x)
        if i == 0:
            return v(x)
        return tuple(np.concatenate(pair) for pair in zip(edge(x[:i]), v(x[i:])))

    def _edge_v(self, x):
        """(v, t) on the near-edge piece, v explicit in x and t risen from t_lo (_rise)."""
        p, d = self.profile.params, (self.sigma / self.c) * (x * x - self.t_lo)  # d = v - v_lo
        return self.v_lo + d, self.t_lo + _rise(p, self.branch, self.v_lo, d)[0]

    def _edge_level(self, x):
        """(a, t) on the near-edge piece, as _edge_map gives them."""
        if self.profile.is_constant:
            return np.full_like(x, self.profile.params.gamma), x * x
        return _level_state(self.profile.params, self.branch, self.profile.C, *self._edge_v(x))[:2]

    def _edge_map(self, x):
        """(a, t, dr/dx) on the near-edge piece: explicit in v, with dr/dx = dr/dv 2x / c; on the
        flat cone t = x^2 and dr/dx = 2 gamma."""
        if self.profile.is_constant:
            a = np.full_like(x, self.profile.params.gamma)
            return a, x * x, 2.0 * a
        with np.errstate(divide="ignore", invalid="ignore"):  # at x = t = 0 dr/dx is its limit 2a
            a, t, _, dr = _level_point(self.profile.params, self.branch, self.profile.C, *self._edge_v(x))
            return a, t, np.where(t > 0.0, dr * (2.0 / self.c) * x, 2.0 * a)

    def _v_map(self, x):
        a, t, _, dr = self._v_point(self.sigma * x + self.v_shift)
        return a, t, dr

    def x_at(self, t: float) -> float:
        """Table coordinate of the circle at t, from its level (_v_at)."""
        if self.profile.is_constant:
            x = math.sqrt(t)
        else:
            v = self._v_at(t)
            x = math.sqrt(self.t_lo + self.c * abs(v - self.v_lo)) if self.x_c >= 0.0 else math.inf
            if x > self.x_c and self.x[-1] > self.x_c:  # past the near-edge piece, on the v piece
                x = self.sigma * (v - self.v_shift)
        return min(max(x, self.x[0]), self.x[-1])

    def _quad(self, x0, x1):
        """Gauss-Legendre integral of dr/dx over each (x0, x1), and dr/dx at its 7 points."""
        half = 0.5 * (x1 - x0)
        pts = (0.5 * (x0 + x1))[:, None] + half[:, None] * _GL_X[None, :]
        f = self.point(pts.ravel())[2].reshape(pts.shape)
        return (f * _GL_W[None, :]).sum(axis=1) * half, f

    def r_of_x(self, x):
        """Exact-quadrature arc length: node value plus a partial segment."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        j = np.clip(np.searchsorted(self.x, x) - 1, 0, self.x.size - 2)
        return self.r[j] + self._quad(self.x[j], x)[0]

    def x_of_r(self, r):
        """Inverse of r_of_x at nondecreasing r (DomainError otherwise).

        Samples are located by merging them with the nodes.  Each segment
        that holds one is split into its parts (_parts), with dr/dx at their
        7 Gauss-Legendre points (one point-map call; they are interior, so
        each side of the seam x_c keeps its own one-sided slope).  On a part
        r(x) is the antiderivative of their degree-6 interpolant, exact to
        rounding; its inverse is fitted once, a polynomial of degree 7 through
        8 Chebyshev-Lobatto nodes in r, and each sample takes one Horner pass."""
        r = np.array(r, dtype=float, ndmin=1)
        np.minimum(np.maximum(r, self.r[0], out=r), self.r[-1], out=r)
        if (r[1:] < r[:-1]).any():
            raise DomainError("x_of_r needs nondecreasing r")
        held = r.searchsorted(self.r[1:-1], side="right")
        held = np.concatenate((held, [r.size])) - np.concatenate(([0], held))
        seg = held.nonzero()[0] + 1  # the segments that hold samples, held[seg - 1] each, in n parts
        held, n, x_lo, x_hi = held[seg - 1], self.parts[seg - 1], self.x[seg - 1], self.x[seg]
        self.segments = (seg.size, int(n.sum()), float(self._estimate[1][seg - 1].max()))
        j, end = np.arange(seg.size).repeat(n), n.cumsum()  # the segment of each part, of half-width h
        h, x0, i2 = (0.5 * (x_hi - x_lo) / n)[j], x_lo[j], 2 * (np.arange(j.size) - (end - n)[j])
        mid, lo = x0 + (i2 + 1) * h, x0 + i2 * h  # a part's centre and start, x_lo for the first
        hi = np.append(lo[1:], 0.0)  # its end: the next part's start, or the segment's end
        hi[end - 1] = x_hi
        f = self.point((mid[:, None] + h[:, None] * _GL_X).ravel())[2].reshape(mid.size, -1)
        # r at the sub-nodes, summed from the segment's start; rows are padded with empty parts
        rs = np.zeros((seg.size, n.max(initial=1) + 1))
        real = np.arange(rs.shape[1] - 1) < n[:, None]
        rs[:, 1:][real] = (y1 := f @ _GL_W) * h  # a part spans h y1 in r
        rs[:, 1:].cumsum(axis=1, out=rs[:, 1:])
        rs += self.r[seg - 1, None]
        r_part, end = rs[:, :-1][real], held.cumsum()  # a part holds its segment's samples from its start on
        first = np.minimum(np.maximum(r.searchsorted(r_part), (end - held)[j]), end[j])
        per = np.concatenate((first[1:], [r.size])) - first  # samples per part
        # on a part r = rs_k + h y(tau), y = sum_m c[m] tau^m from 0 to y1: at y = _S y1 (u = 2 y / y1 - 1 = _LOB) tau
        # is _LOB + e, e from the third-order Taylor series of the inverse about _LOB (0 where y' <= _TINY or |e| > 2)
        c = _ANTI @ (f - f[:, 3:4]).T
        c[:2] += f[:, 3]  # less the centre value, c[2:] round with the variation of f, not with f
        y = (_TAYLOR @ c).reshape(4, 8, -1)
        d = np.divide(1.0, y[1], out=np.zeros(y[1].shape), where=y[1] > _TINY)
        with np.errstate(over="ignore", invalid="ignore"):
            (a, b), d = np.multiply(y[2:], d, out=y[2:]), d * (_S[:, None] * y1 - y[0])
            e = d * (1.0 + d * (d * ((q := 0.5 * a) * a - b / 6.0) - q))
        e[~(np.abs(e) <= 2.0)] = 0.0
        coef = (_INTERP @ e) * h  # x = mid + h (u + the interpolant of e), in powers of u
        coef[1] += h
        # per sample: u in place of r, then one Horner pass, the result made last (each new array costs its pages)
        u = np.subtract(r, r_part.repeat(per), out=r)
        u *= (2.0 / np.maximum(y1 * h, _TINY)).repeat(per)
        np.minimum(np.maximum(np.subtract(u, 1.0, out=u), -1.0, out=u), 1.0, out=u)
        x = coef[7].repeat(per)
        for cm in coef[6::-1]:
            x *= u
            x += cm.repeat(per)
        x += mid.repeat(per)
        return np.minimum(np.maximum(x, lo.repeat(per), out=x), hi.repeat(per), out=x)


def _far_edge(profile: ProfileA, t: float) -> bool:
    """Whether t >= 0 is a blow-up edge at infinite distance (a cylinder or cusp)."""
    ends = ((profile.t0, profile.tag0), (profile.t1, profile.tag1))
    return any(tag.kind == BLOW_UP and t == edge for edge, tag in ends) and _blowup_end(profile.params, t)[1]


@dataclass(frozen=True)
class WarpedMetric:
    """Sampled realization (r, b, b', K) of g = dr^2 + b(r)^2 dtheta^2.

    t_of_r = b^2/4 is exact; b' = 1/a(t) and K = lambda - 2 mu/a along built
    metrics, or finite-difference values for metrics built from raw b data.
    r_extent: the r-range of the branch (build_warped_metric), window (entry_metric) or grid.
    """

    params: SolitonParams
    r: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    K: np.ndarray
    t_of_r: np.ndarray
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
        cols = (self.r, self.b, self.b_prime, self.K)
        row = "{:.17g},{:.17g},{:.17g},{:.17g}\n".format
        return "r,b,db_dr,K\n" + "".join(map(row, *(col.tolist() for col in cols)))


def build_warped_metric(
    profile: ProfileA,
    anchor: tuple[float, float],
    r_window: tuple[float, float],
    n_samples: int = 2001,
) -> WarpedMetric:
    """Reconstruct the metric on a uniform r-grid of n_samples >= 2 points inside r_window.

    The anchor (r0, b0), r0 finite, places the radial coordinate: t = b0^2/4 must lie in
    the closure of the profile's t-domain at finite distance, and b0 = 0
    additionally requires the smooth-extension condition lim_{t->0} a = 1,
    in which case the grid starts at the origin with b'(0) = 1.  The window
    is clipped to the extent reachable from the profile data; an empty
    intersection raises.
    """
    r0, b0 = float(anchor[0]), float(anchor[1])
    if not math.isfinite(r0):
        raise DomainError(f"anchor r0 must be finite, got {r0!r}")
    if b0 < 0.0:
        raise DomainError("anchor b0 must be nonnegative")
    if not float(r_window[0]) < float(r_window[1]):
        raise WindowEmptyError("empty r-window")

    t_lo, t_hi = _metric_t_interval(profile)
    t_anchor = 0.25 * b0 * b0
    if not (t_lo <= t_anchor <= t_hi) or _far_edge(profile, t_anchor):
        raise DomainError("anchor circle lies outside the profile domain")
    table = _ArcTable(profile, t_lo, t_hi)
    return _sampled_metric(table, r0, float(table.r_of_x(table.x_at(t_anchor))[0]), r_window, n_samples, b0 == 0.0)


def _sampled_metric(table: _ArcTable, r0: float, r_anchor: float, r_window, n: int, origin: bool) -> WarpedMetric:
    """The metric on n samples over r_window, clipped to the table's extent, with r = r0 at
    the table's r_anchor; with origin that is a smooth origin, where the grid may start."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError(f"need an integer number of samples n >= 2, got {n!r}")
    if n > _MAX_SAMPLES:
        raise DomainError(f"{n!r} samples exceed numpy's array size limit of {_MAX_SAMPLES} floats")
    profile = table.profile
    if origin and not is_smooth_origin(a0 := profile.a_at_zero()):
        raise NotSmoothOriginError(f"b0 = 0 requires lim a(t) = 1 at t -> 0, got {a0!r}")
    off = r0 - r_anchor
    extent = (off + float(table.r[0]), off + float(table.r[-1]))
    r_lo = max(float(r_window[0]), extent[0])
    r_hi = min(float(r_window[1]), extent[1])
    if not r_lo < r_hi:
        raise WindowEmptyError(
            f"requested r-window [{r_window[0]:g}, {r_window[1]:g}] misses the metric extent "
            f"[{extent[0]:g}, {extent[1]:g}]"
        )

    r = np.linspace(r_lo, r_hi, n)
    x = table.x_of_r(r - off)
    include_origin = origin and r_lo == r0
    if include_origin:
        x[0] = 0.0
    a_vals, t = table.level(x)
    if include_origin:
        a_vals[0] = 1.0
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("arc table from %s: %d near-edge nodes, v nodes %d 1/2 apart within _V_FLAT of the centre, "
                   "%d grown and %d 1/2 apart beyond, seam x_c = %r; x_of_r: %d segments in %d parts, worst "
                   "estimate %.3g of its tolerance; %d table and %d inverse point-map evaluations for %d samples",
                   table.start, *table.node_counts, table.x_c, *table.segments, table.table_evals,
                   table.evals - table.table_evals, n)
    return WarpedMetric(
        params=profile.params,
        r=r,
        b=2.0 * np.sqrt(t),
        b_prime=1.0 / a_vals,
        K=profile.params.curvature(a_vals),
        t_of_r=t,
        r_extent=extent,
        profile=profile,
    )


def metric_from_grid(params: SolitonParams, r: np.ndarray, b: np.ndarray) -> WarpedMetric:
    """Metric from raw (r, b) samples; b', K by central finite differences.

    Used for perturbed or externally supplied metrics where no profile is
    available; one-sided stencils at the two edge points.  Every stencil takes
    h = r[1] - r[0], so r must be finite, increasing and uniform to 8 ulps of
    its largest |r|, and b finite and positive (K = -b''/b), or DomainError is
    raised.  The differenced curvature carries rounding noise ~ eps_machine/h^2,
    which downstream log|K| differencing amplifies by another 1/h^2: keep
    h >= 1e-3 here, or supply analytically differentiated K by constructing
    WarpedMetric directly.
    """
    r = np.asarray(r, dtype=float)
    b = np.asarray(b, dtype=float)
    if r.ndim != 1 or r.size < 5 or b.shape != r.shape:
        raise DomainError("need matching 1-d arrays with at least 5 samples")
    h = r[1] - r[0]
    if not (np.isfinite(r).all() and np.isfinite(b).all() and (b > 0.0).all() and h > 0.0
            and np.abs(np.diff(r) - h).max() <= 8.0 * np.spacing(max(abs(r[0]), abs(r[-1])))):
        raise DomainError("need a finite, increasing, uniform r and a finite b > 0 to difference")
    bp = np.gradient(b, r, edge_order=2)
    bpp = np.empty_like(b)
    bpp[1:-1] = (b[2:] - 2.0 * b[1:-1] + b[:-2]) / (h * h)
    bpp[0] = (2.0 * b[0] - 5.0 * b[1] + 4.0 * b[2] - b[3]) / (h * h)
    bpp[-1] = (2.0 * b[-1] - 5.0 * b[-2] + 4.0 * b[-3] - b[-4]) / (h * h)
    K = -bpp / b
    return WarpedMetric(
        params=params, r=r, b=b, b_prime=bp, K=K, t_of_r=0.25 * b * b,
        r_extent=(float(r[0]), float(r[-1])), profile=None,
    )


def radial_distance(profile: ProfileA, t_from: float, t_to: float) -> float:
    """Arc length between the circles at t_from and t_to.

    Both levels lie in the closure of the metric's t-range; either may be a
    blow-up edge at finite distance (a geodesic boundary).  A cylinder or
    cusp edge lies at infinite distance and raises.
    """
    r = _window_table(profile, t_from, t_to).r
    return float(r[-1] - r[0])


def _window_table(profile: ProfileA, t_from: float, t_to: float, a_from=None, a_to=None) -> _ArcTable:
    """The arc table between the circles at t_from and t_to (levels a_from, a_to where known), at finite distance."""
    t_lo, t_hi = _metric_t_interval(profile)
    if not (t_lo <= t_from < t_to <= t_hi and math.isfinite(t_to)):
        raise DomainError("need t_from < t_to inside the metric's t-range")
    if _far_edge(profile, t_from) or _far_edge(profile, t_to):
        raise DomainError("a cylinder or cusp edge lies at infinite distance")
    return _ArcTable(profile, t_from, t_to, a_from, a_to)


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
    """Geodesic curvature kappa = b'/b of the circle at radius r0, inside the grid."""
    if not metric.r[0] <= r0 <= metric.r[-1]:
        raise DomainError(f"r0 = {r0:g} lies outside the grid [{metric.r[0]:g}, {metric.r[-1]:g}]")
    b = metric.interp_b(r0)
    if b <= 0.0:
        raise DomainError("geodesic curvature needs b(r0) > 0")
    return metric.interp_b_prime(r0) / b
