"""Warped-product metrics g = dr^2 + b(r)^2 dtheta^2 built from profiles.

In the coordinate t = b^2/4 the metric reads (a^2/t) dt^2 + 4t dtheta^2 with
a = 1/b', so arc length is recovered from r(t) = r0 + int a(s)/sqrt(s) ds.
The quadrature runs in the branch's own level coordinate v (ode.py), in
which both a and t = C + G(a) are explicit; from a lower edge at or next to a
regular t = 0, where t = C + (t - C) would cancel, a near-edge piece explicit
in x, x^2 = (t_lo + c |v - v_lo|) / c, runs up to a seam with t = t_lo + rise
(ode._rise).  One rule places every node: a coarse grid geometric in offset
from the table's start and from the centre of the band where dr/dv varies,
then rounds that split each segment whose own error estimates miss half an
ulp of max(1, |r|).  Edges' v come from their levels where the caller holds
them (entry_metric), else from one float inversion of their times.  Gauss
curvature follows the algebraic identity K = lambda - 2 mu / a; the
finite-difference route -b''/b is kept separate as an independent check.  The
geometry report reads only the end levels; it is defined in ode.py, without
numpy, and re-exported here.
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
    _FLOAT,
    _MAX_SAMPLES,
    _V_MAX,
    _V_MIN,
    BLOW_UP,
    DECAY_TO_ZERO,
    EndDescriptor,
    GeometryReport,
    ProfileA,
    SolitonParams,
    _a_of_v,
    _blowup_end,
    _branch_class,
    _dpsi,
    _level_coordinate,
    _level_state,
    _metric_t_interval,
    _rise,
    _slope_sign,
    _sorted_unique,
    _v_of_level,
    geometry_report,
    is_smooth_origin,
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
#: singularity at the edge stays half a unit of v away from the v piece.
_SEAM = 0.5
#: A decay end (t -> inf, a -> 0) lies at finite distance but is not a
#: circle of the metric.  Its table stops 60 e-folds of a below the branch
#: scale, where the rest of the tail is about e^-30 of the radius.
_DECAY_SPAN = 60.0
_V_FLAT, _CONE_SPAN = -math.log(math.ulp(1.0)), 1.0e15  # e^-_V_FLAT is an ulp; a cone end is followed to v ~ 1e15
_X_FLAT = 1.0e150  # x-range of the flat cone a == gamma, where t = x^2 and r = 2 gamma x are exact
_MAX_PARTS = 32  # x_of_r splits a table segment into at most this many equal parts
_MAX_SPLIT, _MAX_ROUNDS = 64, 8  # pieces of a segment per round at most, and rounds before RangeError
_TINY, _EPS, _HUGE = np.finfo(float).tiny, np.finfo(float).eps, np.finfo(float).max
_ROOTS = (1.0 / np.arange(1, 7))[:, None]
#: The coarse grid's offsets, 6 per factor 2 from 1/8 to the top of the float range
_OFFSETS = 2.0 ** (np.arange(-18.0, 6138.0) / 6.0)


def _estimates(f, w):
    """Absolute error estimates of x_of_r's inverse on one part and of the node value, per segment of width w
    (f: dr/dx at its Gauss-Legendre points).  There r = r_start + half y(tau), y = _ANTI @ f, with c_k ~ c1 rho^(k-1).
    On n parts the dropped c8 and the error of x_of_r's inverse polynomial (12 rho^7 of tau on y = tau + rho tau^2)
    are 1 and 12 times half c1 rho^7 n^-8; the first estimate is 26 times that at n = 1.  The 7-point rule is exact
    to degree 13, and the second is w c1 rho^14, rho no larger than the decay of the last coefficients."""
    c = np.abs(_ANTI @ f.T)
    with np.errstate(invalid="ignore", over="ignore"):
        rho = ((c[2:] / np.maximum(c[1], _TINY)) ** _ROOTS).max(axis=0)
        tail = np.sqrt((c[6:] / np.maximum(c[4:6], _TINY)).max(axis=0))
        err = np.array([13.0 * rho**7, np.minimum(rho, tail) ** 14]) * (w * c[1])
    err[np.isnan(err)] = 0.0  # nan to 0 here and inf to the largest float next, as np.nan_to_num
    return np.minimum(err, _HUGE, out=err)


def _parts(f, x, r, ratio=None):
    """x_of_r's parts of each segment (nodes x, r), 1 to _MAX_PARTS, and its inverse estimate over half an ulp of
    max(1, |r|) (r = 0 is a node): n parts divide that by n^8."""
    if ratio is None:
        ratio = _estimates(f, x[1:] - x[:-1])[0] / (0.5 * _EPS * np.maximum(1.0, np.minimum(abs(r[:-1]), abs(r[1:]))))
    return np.minimum(np.maximum(np.ceil(ratio ** 0.125), 1.0), _MAX_PARTS).astype(int), ratio


class _ArcTable:
    """Cumulative arc length r(x) from the circle at t_lo to the one at t_hi.

    r = int a/sqrt(t) dt is taken over one coordinate x, in pieces; each forms
    its state at x once (_state), level reads a and t and point dr/dx from it.
    From a lower edge t_lo at or near a regular t = 0 (t rises by more than
    t_lo over the half unit of v to a seam), where C + (t - C) would cancel,
    an explicit near-edge piece runs up to the seam: x^2 = (t_lo + c |v -
    v_lo|) / c (c = |dt/dv| at the edge, so x_c is about sqrt(1/2) at every
    scale), t = t_lo + ode._rise; on the flat cone a == gamma it is the whole
    table, with t = x^2 and dr/dx = 2 gamma.  Elsewhere x runs along the
    branch's level coordinate v (v = sigma x + v_shift, sigma = sign a'; x = 0
    at an edge next to a cusp, C = 0).  An edge's v comes from its level where
    the caller holds it, else from one float inversion of its time, as does
    the circle of x_at.  Cylinder and cusp ends lie at v = _V_MAX, decay and
    cone ends at _DECAY_SPAN and _CONE_SPAN; a geodesic boundary (C > 0 at v =
    inf) is cut where the rest of r, at most log1p(e^-v) / (4 |mu|) over
    sqrt(t), is below an ulp of the part from ve = 1/2 (or the v piece's
    nearer end).

    One rule places the nodes: a coarse grid geometric in offset (_OFFSETS)
    from the table's start and from the centre of the band where dr/dv varies,
    whichever is nearer, then rounds that split each segment whose estimates
    (_estimates) miss half an ulp of max(1, |r|), for its node value or for an
    inverse in at most _MAX_PARTS parts, into the equal pieces they ask for (a
    node estimate taken to fall like n^-13, two powers short of rho ~ width),
    in one point-map call.  A table that still misses after _MAX_ROUNDS rounds,
    or a piece an ulp of its x wide, raises RangeError.  Between nodes r(x)
    adds the exact partial-segment quadrature (interpolation would leave
    node-scale wiggles that differencing downstream amplifies by 1/h^2), and
    x_of_r inverts it by collocation on `parts` of the segments.  Also kept:
    `start`, `rounds`, `coarse` (segments), `worst` and `node_worst` (largest
    estimates over their tolerance), `evals`, `table_evals` and `segments`.
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
            if profile.is_constant:  # x^2 = t, dr/dx = 2 gamma
                self.x2_lo, self.x_c, f0 = t_lo, math.sqrt(t_hi), 2.0 * profile.params.gamma
            else:  # x^2 = x2_lo + |v - v_lo|, x2_lo = t_lo / c; dr/dx = 2 a sqrt(c) at the edge
                span = _SEAM if t_hi >= t_c else abs(self._v_at(t_hi, a_hi) - self.v_lo)
                self.x2_lo, self.x_c = t_lo / self.c, math.sqrt(t_lo / self.c + span)
                f0 = 2.0 * _a_of_v(p.gamma, self.branch, self.v_lo, _FLOAT) * math.sqrt(self.c)
            # offsets from x_lo down to 1/16 of the piece, to where r spans 1, and from t_lo > 0 to x_lo: about
            # that far behind the start lies a branch point of dr/dx, of relative size (x_lo / x_c)^2
            x_lo = math.sqrt(self.x2_lo)
            scale = max(f0, 1.0 / x_lo if x_lo * x_lo > _EPS * self.x_c * self.x_c else 0.0)
            k = np.arange(-int(6.0 * math.log2(min(max((self.x_c - x_lo) * scale, 16.0), _HUGE))), 0.0)
            nodes.append(np.concatenate(([x_lo], x_lo + (self.x_c - x_lo) * 2.0 ** (k / 6.0), [self.x_c])))
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
                te = float(_level_state(p, self.branch, C, np.array([ve]))[1][0])
                v_stop = _V_FLAT + math.log(2.0 / np.logaddexp(0.0, -ve)) + 0.5 * abs(math.log(te / C))
                v0, v_end = min(v0, v_stop), min(v_end, v_stop)
            # x goes on from the near-edge piece, is 0 at a cusp-side edge, or is sigma v: small where r is
            x0 = self.x_c if nodes else 0.0 if cusp else self.sigma * v0
            self.v_shift = v0 - self.sigma * x0
            # dr/dv varies in a band about v = 0, or about the turn of t - C = e^-v / (4 mu) on the steady class;
            # offsets run from the start below c / 2, c the centre's offset, and from the centre above it
            c = -math.log(4.0 * abs(profile.params.mu)) - math.log(abs(C)) if steady and C != 0.0 else 0.0
            span, c = abs(v_end - v0), self.sigma * (c - v0)
            o = _OFFSETS[:_OFFSETS.searchsorted(span)]
            s = np.concatenate(([0.0], o[:o.searchsorted(c / 2.0)], c - o[:o.searchsorted(c / 2.0, "right")][::-1],
                                [c], c + o) if c > 0.0 else ([0.0], o))
            nodes.append(x0 + np.append(s[:s.searchsorted(span)], span))
        x = _sorted_unique(np.concatenate(nodes))
        if x.size < 2:
            raise RangeError(f"the arc table from t = {t_lo:g} to {t_hi:g} has one node: its span rounds to 0")
        self.coarse, self.rounds = x.size - 1, 0
        with np.errstate(over="ignore", invalid="ignore"):  # a point map past the float range: checked below
            incr, f = self._quad(x[:-1], x[1:])
            while True:
                # r = 0 at the node nearest x = 0, where the branch turns, and sums
                # run outward from there: their rounding stays at the scale of the
                # turn, not of an infinitely far end cut at the edge of the v-range
                k, r = int(np.argmin(np.abs(x))), np.zeros(x.size)
                np.cumsum(incr[k:], out=r[k + 1:])
                r[:k] = -np.cumsum(incr[:k][::-1])[::-1]
                if not (math.isfinite(r[0]) and math.isfinite(r[-1])):  # every increment is >= 0
                    raise RangeError(f"the arc table from t = {t_lo:g} to {t_hi:g} leaves the float range")
                w = x[1:] - x[:-1]
                ratio = _estimates(f, w) / (0.5 * _EPS * np.maximum(1.0, np.minimum(abs(r[:-1]), abs(r[1:]))))
                if not ((ratio[0] > _MAX_PARTS**8).any() or (ratio[1] > 1.0).any()):
                    break
                n = np.minimum(np.ceil(np.maximum(ratio[0] ** 0.125 / _MAX_PARTS, ratio[1] ** (1 / 13))), _MAX_SPLIT)
                if self.rounds == _MAX_ROUNDS or (w < n * np.spacing(np.maximum(abs(x[:-1]), abs(x[1:])))).any():
                    raise RangeError(f"the arc table from t = {t_lo:g} to {t_hi:g} misses its tolerance after "
                                     f"{self.rounds} rounds of splits: estimates up to {ratio[0].max():.3g} (inverse) "
                                     f"and {ratio[1].max():.3g} (node value) of it")
                n = np.maximum(n, 1.0).astype(int)
                j = np.arange(n.size).repeat(n)  # the segment of each piece
                x = np.append(x[:-1][j] + (w / n)[j] * (np.arange(j.size) - (n.cumsum() - n)[j]), x[-1])
                fresh, incr, f = (n > 1)[j], incr[j], f[j]
                incr[fresh], f[fresh] = self._quad(x[:-1][fresh], x[1:][fresh])
                self.rounds += 1
        self.x, self.incr, self.r, self._f, self.table_evals = x, incr, r, f, self.evals
        (self.parts, self._ratio), (self.worst, self.node_worst) = _parts(f, x, r, ratio[0]), ratio.max(axis=1).tolist()

    def _v_at(self, t: float, a: Optional[float] = None) -> float:
        """Level coordinate of the circle at t, from its level a where the caller holds it, else from t - C."""
        if a is not None:
            return _v_of_level(self.profile.params, self.branch, a)
        return _level_coordinate(self.profile.params, self.branch, float(t) - self.profile.C)

    def point(self, x):
        """dr/dx at the table coordinate x, on the near-edge piece where x <= x_c and on the v piece elsewhere.
        x is 1-d with every x <= x_c first, as nondecreasing x has them; it may be empty.  From the piece's state
        (_state) dr/dv = a |dt/dv| / sqrt(t) (a sqrt|k| |dpsi/dv| / sqrt|psi| toward a cusp end, C = 0, where
        t = k psi underflows long before dr/dv does); dr/dx = dr/dv 2x on the near-edge piece, with its limit
        2 a sqrt(c) at x = t = 0, and 2 gamma on the flat cone."""
        return self._map(x, self._slope)

    def _slope(self, x, edge):
        with np.errstate(**{"divide": "ignore", "invalid": "ignore"} if edge else {}):  # the limit at x = t = 0
            a, t, k, ps, z = self._state(x, edge)
            if k is None:
                return 2.0 * a
            dt = k * (dps := -1.0 if z is None else _dpsi(self.branch, z))  # psi = 1 on the steady class
            if self.profile.C == 0.0:
                return a * np.sqrt(np.abs(k)) * np.abs(dps) / np.sqrt(np.abs(ps))
            del ps, dps, z  # the arc table's quadrature sets the peak memory here
            dr = a * np.abs(dt) / np.sqrt(t)
            return np.where(t > 0.0, dr * 2.0 * x, 2.0 * math.sqrt(self.c) * a) if edge else dr

    def level(self, x):
        """(a, t) at x as point's state gives them: the samples' point map."""
        return self._map(x, lambda x, edge: self._state(x, edge)[:2])

    def _map(self, x, fn):
        """fn(x, edge) on each piece of x, joined at the seam."""
        self.evals += x.size
        i = int(x.searchsorted(self.x_c, side="right"))
        if i == x.size and self.x_c >= 0.0:
            return fn(x, True)
        if i == 0:
            return fn(x, False)
        return np.concatenate((fn(x[:i], True), fn(x[i:], False)), axis=-1)

    def _state(self, x, edge):
        """_level_state's (a, t, k, psi, z) on one piece: on the near-edge piece v is explicit in x and t risen
        from t_lo (_rise), on the v piece v = sigma x + v_shift; on the flat cone a = gamma, t = x^2 (k: None)."""
        p, C = self.profile.params, self.profile.C
        if not edge:
            return _level_state(p, self.branch, C, self.sigma * x + self.v_shift)
        if self.profile.is_constant:
            return np.full_like(x, p.gamma), x * x, None, None, None
        d = self.sigma * (x * x - self.x2_lo)  # d = v - v_lo
        return _level_state(p, self.branch, C, self.v_lo + d, self.t_lo + _rise(p, self.branch, self.v_lo, d)[0])

    def x_at(self, t: float) -> float:
        """Table coordinate of the circle at t, from its level (_v_at)."""
        if self.profile.is_constant:
            x = math.sqrt(t)
        else:
            v = self._v_at(t)
            x = math.sqrt(self.x2_lo + abs(v - self.v_lo)) if self.x_c >= 0.0 else math.inf
            if x > self.x_c and self.x[-1] > self.x_c:  # past the near-edge piece, on the v piece
                x = self.sigma * (v - self.v_shift)
        return min(max(x, self.x[0]), self.x[-1])

    def _quad(self, x0, x1):
        """Gauss-Legendre integral of dr/dx over each (x0, x1), and dr/dx at its 7 points."""
        half = 0.5 * (x1 - x0)
        pts = (0.5 * (x0 + x1))[:, None] + half[:, None] * _GL_X[None, :]
        f = self.point(pts.ravel()).reshape(pts.shape)
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
        self.segments = (seg.size, int(n.sum()), float(self._ratio[seg - 1].max()))
        j, end = np.arange(seg.size).repeat(n), n.cumsum()  # the segment of each part, of half-width h
        h, x0, i2 = (0.5 * (x_hi - x_lo) / n)[j], x_lo[j], 2 * (np.arange(j.size) - (end - n)[j])
        mid, lo = x0 + (i2 + 1) * h, x0 + i2 * h  # a part's centre and start, x_lo for the first
        hi = np.append(lo[1:], 0.0)  # its end: the next part's start, or the segment's end
        hi[end - 1] = x_hi
        f = self.point((mid[:, None] + h[:, None] * _GL_X).ravel()).reshape(mid.size, -1)
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
        _log.debug("arc table from %s: %d split rounds from %d coarse to %d segments, worst node-value estimate "
                   "%.3g of its tolerance, seam x_c = %r; x_of_r: %d segments in %d parts, worst estimate %.3g of "
                   "its tolerance; %d table and %d inverse point-map evaluations for %d samples",
                   table.start, table.rounds, table.coarse, table.x.size - 1, table.node_worst, table.x_c,
                   *table.segments, table.table_evals, table.evals - table.table_evals, n)
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
    cusp edge lies at infinite distance and raises.  The table's increments
    are summed exactly (math.fsum), so only the quadrature rounds.
    """
    return math.fsum(_window_table(profile, t_from, t_to).incr)


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
