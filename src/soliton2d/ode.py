"""Positive solutions of the soliton profile equation.

The radial profile a(t) of a rotationally symmetric two-dimensional gradient
Ricci soliton satisfies the autonomous first-order equation

    a'(t) = 4 mu a(t)^2 (a(t)/gamma - 1),      gamma = 2 mu / lambda,

with ``gamma`` infinite in the steady case lambda = 0, where the equation
collapses to a'(t) = -4 mu a(t)^2 and is solvable in closed form.  The
equation is separable: on every monotone branch t = C + G(a), with G the
exact antiderivative of 1/a' normalized by G(inf) = 0.  So a branch blows up
exactly at t = C, and decay to 0 or convergence to the separatrix takes
infinite time.  This module represents profiles on their maximal intervals
through that implicit solution, evaluates a(t) by inverting G (closed-form
Lambert W guesses polished by two Halley steps, in float arithmetic for one
float), and applies the scaling/translation symmetries of the solution space.
Its geometry report reads the metric's ends and curvature range from the end
levels alone, so the module loads without numpy; the array paths import it on
first use.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import sys
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace
from typing import Optional

from .errors import (
    DomainError,
    MuZeroError,
    NonpositiveAnchorError,
    NotSteadyError,
    RangeError,
    UnresolvedEndError,
)

_log = logging.getLogger("soliton.ode")

#: Sentinel for gamma in the steady case lambda = 0.
INFINITE = math.inf

#: Halting levels: a window edge at or past the time where a reaches them
#: counts as reaching the blow-up or decay end.
A_BLOWUP = 1.0e8
A_ZERO = 1.0e-10

# Endpoint tag kinds.
BLOW_UP = "BLOW_UP"
DECAY_TO_ZERO = "DECAY_TO_ZERO"
CONVERGES = "CONVERGES"
SMOOTH_ORIGIN = "SMOOTH_ORIGIN"
TRUNCATED = "TRUNCATED"

#: |a(0) - 1| below which a window starting at t = 0 closes up smoothly (SMOOTH_ORIGIN)
SMOOTH_ORIGIN_TOL = 1.0e-8
#: Relative snap width for recognising the constant separatrix a == gamma.
SEPARATRIX_SNAP = 1.0e-13
#: The most samples a float64 array can hold: numpy refuses n with n * 8 > max intp (sys.maxsize).
_MAX_SAMPLES = sys.maxsize // 8


def is_smooth_origin(a0: float) -> bool:
    """Whether the level a(0) = a0 closes the metric up smoothly over t = 0."""
    return abs(a0 - 1.0) <= SMOOTH_ORIGIN_TOL


def on_separatrix(params: SolitonParams, a: float) -> bool:
    """Whether the level a lies within SEPARATRIX_SNAP * gamma of a finite positive gamma."""
    return 0.0 < params.gamma < math.inf and abs(a - params.gamma) <= SEPARATRIX_SNAP * params.gamma


@dataclass(frozen=True)
class SolitonParams:
    """The pair (lambda, mu), with the separatrix level gamma = 2 mu / lambda
    (INFINITE when lambda = 0) derived once, at construction.

    lam is the expansion constant (steady 0, shrinking > 0, expanding < 0)
    and mu the nonvanishing normalization of the rotational Killing field.
    """

    lam: float
    mu: float
    gamma: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "mu", float(self.mu))
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise DomainError("lambda and mu must be finite")
        if self.mu == 0.0:
            raise MuZeroError("mu must be nonzero")
        if not math.isfinite(4.0 * self.mu):
            raise RangeError(f"mu = {self.mu:g} overflows the coefficient 4 mu of the profile equation")
        object.__setattr__(self, "gamma", 2.0 * (self.mu / self.lam) if self.lam != 0.0 else INFINITE)
        if self.lam != 0.0 and not 0.0 < abs(self.gamma) < math.inf:
            raise RangeError(f"gamma = 2 mu / lambda overflows or underflows to {self.gamma:g} at lambda = {self.lam:g}")

    @property
    def kind(self) -> str:
        if self.lam > 0.0:
            return "shrinking"
        if self.lam < 0.0:
            return "expanding"
        return "steady"

    def rhs(self, a):
        """Right-hand side 2 lambda a^3 - 4 mu a^2 (== 4 mu a^2 (a/gamma - 1))."""
        import numpy as np
        a = np.asarray(a, dtype=float)
        out = 2.0 * self.lam * a**3 - 4.0 * self.mu * a**2
        return out if out.ndim else float(out)

    def curvature(self, a):
        """Gauss curvature lambda - 2 mu / a of the associated metric."""
        import numpy as np
        a = np.asarray(a, dtype=float)
        out = self.lam - 2.0 * self.mu / a
        return out if out.ndim else float(out)


def make_params(lam: float, mu: float) -> SolitonParams:
    """Validated constructor for :class:`SolitonParams`."""
    return SolitonParams(lam, mu)


@dataclass(frozen=True)
class EndTag:
    """Behavior of a profile at one endpoint of its interval."""

    kind: str
    value: Optional[float] = None  # limit a-value for CONVERGES

    def __str__(self):
        if self.kind == CONVERGES:
            return f"CONVERGES({self.value:g})"
        return self.kind


# ---------------------------------------------------------------------------
# The implicit solution.  With y = a/gamma and u = -1/y,
#
#     4 mu gamma G(a) = log|1 - 1/y| + 1/y = -psi(u),   psi(u) = u - log(1 + u),
#
# so t = C + G(a) reads psi(u) = -s with s = 4 mu gamma (t - C).  A branch
# lies above the separatrix (y > 1), below it (0 < y < 1) or on the far side
# of a negative gamma (y < 0).  On each, a coordinate v of the a-range keeps
# both ends of the class finite:
#
#   NEG   (gamma < 0): v = log(a/|gamma|)       (blow-up, decay)
#   ABOVE (y > 1)    : v = log(a/gamma - 1)     (blow-up, convergence)
#   BELOW (0 < y < 1): v = log(a/(gamma - a))   (decay, convergence)
#
# On BELOW, -psi = 1 - v + e^-v exactly.  Both a and t are explicit in v
# (_level_point), so the arc-length quadrature of the metric runs in v too.
# Inverting t is a Lambert W problem (Corless et al. 1996): with w = -s and
# p = 1 + u, NEG and ABOVE solve p - log p = 1 + w (the -1 and 0 branches of W
# at -e^(-1-w)), BELOW has v = 1 - s + W0(e^(s-1)); see _level_coordinate.
# ---------------------------------------------------------------------------

_NEG, _ABOVE, _BELOW, _STEADY = "neg", "above", "below", "steady"

# psi(u) = u^2 sum_k (-u)^k / (k + 2); the sum converges to rounding in 20
# terms for |u| < 1/8, where u - log(1 + u) would cancel.
_PSI_SERIES = [(-1.0) ** k / (k + 2) for k in range(20)]
_PSI_COEFFS = _PSI_SERIES[::-1]  # Horner order
_PSI_SMALL = 0.125
# v-range kept in evaluation: a up to ~1e152 |gamma| (u^2 stays normal) and
# down to ~1e-304 |gamma|
_V_MIN, _V_MAX = -700.0, 350.0
_S_MAX, _TINY = 1.0e305, sys.float_info.min  # |s| past every class's v-range; the smallest normal float
_EPS = sys.float_info.epsilon


def _psi_series(u):
    """u^2 sum_k (-u)^k / (k + 2) by Horner, as polyval evaluates it: in place on an array, in float arithmetic
    on a float (s u + c == c + s u)."""
    series = u * 0.0 + _PSI_COEFFS[0]
    for c in _PSI_COEFFS[1:]:
        series *= u
        series += c
    return u * u * series


def _psi(u, log1pu):
    """u - log(1 + u) given a precise log(1 + u), with a series where they cancel."""
    import numpy as np
    out = u - log1pu
    small = np.abs(u) < _PSI_SMALL
    if small.any():
        out[small] = _psi_series(u[small])
    return out


def _psi_float(u: float, log1pu: float) -> float:
    """_psi of one float in float arithmetic: the same roundings, without numpy's per-call cost."""
    return _psi_series(u) if abs(u) < _PSI_SMALL else u - log1pu


def _pieces(cond, x, f, g, m):
    """f(x, m) where cond, else g(x, m), each evaluated on its own elements only."""
    import numpy as np
    out = np.empty_like(x)
    for part, fn in ((cond, f), (~cond, g)):
        if part.all():
            return fn(x, m)
        if part.any():
            out[part] = fn(x[part], m)
    return out


@functools.cache
def _array_ops() -> SimpleNamespace:
    """The level inversion's functions on arrays, made on first use: numpy is imported there."""
    import numpy as np
    return SimpleNamespace(exp=np.exp, log=np.log, log1p=np.log1p, sqrt=np.sqrt, minimum=np.minimum, psi=_psi,
                           clip=lambda x, lo, hi: np.minimum(np.maximum(x, lo, out=x), hi, out=x), pieces=_pieces,
                           errstate=np.errstate)


# The same functions in float arithmetic (as _psi_float) on one float; float min and clip let a nan through, as
# numpy does, and a float overflows to inf without a warning to silence.
_FLOAT = SimpleNamespace(exp=math.exp, log=math.log, log1p=math.log1p, sqrt=math.sqrt, minimum=min, psi=_psi_float,
                         clip=lambda x, lo, hi: lo if x < lo else hi if x > hi else x,
                         pieces=lambda cond, x, f, g, m: f(x, m) if cond else g(x, m),
                         errstate=lambda **_: contextlib.nullcontext())


def _psi_v(branch: str, v, m):
    """(psi, dpsi/dv, z) at the level coordinate v of a branch class; z = u on NEG and ABOVE, e^-v on BELOW.

    Written so that each end of the class stays finite: the blow-up side up
    to _V_MAX, the decay side down to _V_MIN and the convergence side
    without limit.
    """
    if branch == _NEG:
        u = m.exp(-v)
        return m.psi(u, m.log1p(u)), -u * (u / (1.0 + u)), u
    if branch == _ABOVE:
        u = -1.0 / (1.0 + m.exp(v))
        return m.psi(u, m.minimum(v, 0.0) - m.log1p(m.exp(-abs(v)))), -u * u, u
    em = m.exp(-v)
    return v - 1.0 - em, 1.0 + em, em


def _a_of_v(g: float, branch: str, v, m=None):
    """The level a at coordinate v (v = log a on the steady class); on arrays unless m is given."""
    m = m or _array_ops()
    if branch == _NEG:
        return -g * m.exp(v)
    if branch == _ABOVE:
        return g * (1.0 + m.exp(v))
    if branch == _BELOW:
        return g / (1.0 + m.exp(-v))
    return m.exp(v)


def _v_of_level(params: SolitonParams, branch: str, a: float) -> float:
    """The level coordinate of the level a (the inverse of _a_of_v), clipped to the class's v-range."""
    g, (lo, hi) = params.gamma, _V_RANGE[branch]
    y = a / -g if branch == _NEG else (a - g) / g if branch == _ABOVE else a / (g - a) if branch == _BELOW else a
    return min(max(math.log(y) if y > 0.0 else -math.inf, lo), hi)  # y underflows at extreme scales


def _level_state(params: SolitonParams, branch: str, C: float, v, t=None):
    """(a, t, k, psi, dpsi/dv) at the level coordinate v, with a and t as _level_point gives them."""
    a = _a_of_v(params.gamma, branch, v)
    if branch == _STEADY:
        k, ps, dps = 1.0 / (4.0 * params.mu * a), 1.0, -1.0
    else:
        k, (ps, dps) = -1.0 / (4.0 * params.mu * params.gamma), _psi_v(branch, v, _array_ops())[:2]
    return a, C + k * ps if t is None else t, k, ps, dps


def _level_point(params: SolitonParams, branch: str, C: float, v, t=None):
    """(a, t, dt/dv, dr/dv) at the level coordinate v of the branch t = C + G(a).

    Both a and t are explicit in v: t - C = k psi(u) with k = -1 / (4 mu gamma),
    or k = 1 / (4 mu a) and psi = 1 on the steady class; dr/dv = a |dt/dv| / sqrt(t).
    A t given by the caller (a rise from a regular t = 0, where C + k psi cancels) is kept.
    """
    import numpy as np
    a, t, k, ps, dps = _level_state(params, branch, C, v, t)
    dt = k * dps
    if C == 0.0:  # toward a cusp end t = k psi underflows long before dr/dv does
        return a, t, dt, a * np.sqrt(np.abs(k)) * np.abs(dps) / np.sqrt(np.abs(ps))
    del ps, dps  # the arc table's quadrature sets the peak memory here
    return a, t, dt, a * np.abs(dt) / np.sqrt(t)


def _rise(params: SolitonParams, branch: str, v_lo: float, d):
    """(t(v_lo + d) - t(v_lo), |dt/dv| at v_lo) for |d| <= 1/2, without the cancellation of C + k psi.
    On NEG and ABOVE psi(u) - psi(u_lo) = A q - log1p(q), A = 1 + u_lo, q = (u - u_lo) / A, cancels by
    A / |A - 1| (1 + e^v_lo, e^v_lo); where that passes 4 it is taken as (A - 1) q + psi(q)."""
    import numpy as np
    k = 1.0 / (4.0 * params.mu) if branch == _STEADY else -1.0 / (4.0 * params.mu * params.gamma)
    E = math.exp(v_lo if branch in (_NEG, _ABOVE) else -v_lo)
    if branch == _STEADY:  # t - C = k e^-v
        return k * E * np.expm1(-d), abs(k) * E
    if branch == _BELOW:  # psi = v - 1 - e^-v
        return k * (d - E * np.expm1(-d)), abs(k) * (1.0 + E)
    if branch == _NEG:  # E = 1 / u_lo; on ABOVE E = -1 / u_lo - 1 underflows far along the cone
        q, A, A1 = np.expm1(-d) / (1.0 + E), 1.0 + 1.0 / E, 1.0 / E
    else:
        q, A, A1 = np.expm1(d) / (1.0 + E * np.exp(d)), E / (1.0 + E), -1.0 / (1.0 + E)
    log1pq = np.log1p(q)
    return k * (A * q - log1pq if A <= 4.0 * abs(A1) else A1 * q + _psi(q, log1pq)), abs(k * A1) / (1.0 + E)


def _branch_class(params: SolitonParams, a_ref: float) -> str:
    g = params.gamma
    if math.isinf(g):
        return _STEADY
    if g < 0.0:
        return _NEG
    return _ABOVE if a_ref > g else _BELOW


# v-range of each class: its blow-up and decay sides are cut where a stays
# representable, its convergence side is not
_V_RANGE = {
    _NEG: (_V_MIN, _V_MAX),
    _ABOVE: (-math.inf, _V_MAX),
    _BELOW: (_V_MIN, math.inf),
    _STEADY: (_V_MIN, _V_MAX),
}


def _level_guess(branch: str, s, m):
    """First guess of v where psi = -s, to about 1e-2; each piece runs on its side of the switch only (its domain)."""
    def _branch_series(r):  # u at r = +-sqrt(2w), where psi(u) = w near the branch point u = 0
        return r * (1.0 + r * (1.0 / 3.0 + r * (1.0 / 36.0 - r / 270.0)))
    if branch == _NEG:  # the branch-point series, or u = w + log(1 + u) iterated three times
        return -m.log(m.pieces(s > -2.0, -s, lambda w, m: _branch_series(m.sqrt(2.0 * w)),
                               lambda w, m: w + m.log1p(w + m.log1p(w + m.log1p(w))), m))
    if branch == _ABOVE:  # v = log(1 + u) - log(-u) from the series, or from log p = c + p, c = -1 - w, iterated twice
        return m.pieces(s > -1.0, -s, lambda w, m: m.log1p(u := _branch_series(-m.sqrt(2.0 * w))) - m.log(-u),
                        lambda w, m: (lp := (c := -1.0 - w) + m.exp(c + m.exp(c))) - m.log1p(-m.exp(lp)), m)
    # v = -L + e^-v iterated three times from v = -L; Winitzki's W0(x) = S (1 - log(1 + S) / (2 + S)),
    # S = log(1 + x), at x = e^L (2003); or W0(e^L) = L - log L + log L / L + log L (log L - 2) / (2 L^2)
    return m.pieces(s < -0.5, s - 1.0, lambda L, m: m.exp(L - m.exp(L - m.exp(L))) - L, lambda L, m: m.pieces(
        L < 3.0, L, lambda L, m: (S := m.log1p(m.exp(L))) * (1.0 - m.log1p(S) / (2.0 + S)) - L,
        lambda L, m: (lg := m.log(L)) * (1.0 + (lg - 2.0) / (2.0 * L)) / L - lg, m), m)


def _level_coordinate(params: SolitonParams, branch: str, dt):
    """The level coordinate v at times t with t - C = dt: vectorized, or in float arithmetic for a float dt.
    s is clamped to |s| <= _S_MAX (on the blow-up classes to s < 0); then two Halley steps from _level_guess."""
    m, (lo, hi) = _FLOAT if isinstance(dt, float) else _array_ops(), _V_RANGE[branch]
    k = 4.0 * params.mu * (1.0 if branch == _STEADY else params.gamma)
    with m.errstate(over="ignore"):  # s overflows at extreme scales: it is clamped; k keeps its digits
        s = k * dt if _TINY <= abs(k) < math.inf else 4.0 * params.mu * (params.gamma * dt)
    if branch == _STEADY:  # closed form
        return m.clip(-m.log(m.clip(s, _TINY, math.inf)), lo, hi)
    s = m.clip(s, -_S_MAX, _S_MAX if branch == _BELOW else -_TINY)
    v = m.clip(_level_guess(branch, s, m), lo, hi)
    for _ in range(2):  # q: the Newton step; psi''/psi' = -h, h = 1 + 1/(1 + u), 2 (1 + u), e^-v / (1 + e^-v)
        q, dps, z = _psi_v(branch, v, m)
        q = (q + s) / dps
        h = 1.0 + 1.0 / (1.0 + z) if branch == _NEG else 2.0 + 2.0 * z if branch == _ABOVE else z / dps
        h *= 0.5 * q  # in place on arrays: fresh pages cost more than the arithmetic
        h += 1.0
        q /= h
        v -= q
        v = m.clip(v, lo, hi)
    return v


def _separatrix_time(params: SolitonParams, a: float) -> float:
    """Antiderivative G with G'(a) = 1/a'(a) and G(inf) = 0: t = C + G(a) on a monotone branch.

    G = -psi(u) / (4 mu gamma) at u = -gamma / a, with log(1 + u) from log1p where u > -1/2 and from the quotient
    |a - gamma| / a elsewhere, exact near gamma and below it; nan where u overflows (the caller raises).
    """
    g = params.gamma
    k = 4.0 * params.mu * (a if math.isinf(g) else g)  # G = 1/k on the steady class
    if k == 0.0:
        raise RangeError(f"4 mu {'a' if math.isinf(g) else 'gamma'} underflows to 0 at mu = {params.mu:g}, a = {a:g}")
    if math.isinf(g):
        return 1.0 / k
    return -_psi_float(u := -g / a, math.log1p(u) if u > -0.5 else math.log(abs(a - g) / a)) / k


def time_between_levels(params: SolitonParams, a_from: float, a_to: float) -> float:
    """Exact signed time for the solution to move from a_from to a_to.

    ``a_to`` may be ``inf`` (blow-up).  Raises if the two levels straddle
    the positive separatrix.
    """
    if a_from <= 0 or a_to <= 0:
        raise DomainError("levels must be positive")
    g = params.gamma
    if math.isfinite(g) and g > 0:
        if (a_from - g) * (a_to - g) < 0:
            raise DomainError("levels straddle the separatrix a == gamma")
    g_to = 0.0 if math.isinf(a_to) else _separatrix_time(params, a_to)
    return g_to - _separatrix_time(params, a_from)


def blow_up_time_closed(mu: float, gamma: float) -> float:
    """Blow-up time of the solution anchored at a(0) = 1.

    Closed form 4 mu T = -1 - log(1 - gamma)/gamma from the separable
    integral; positive for forward blow-up (increasing solutions), negative
    when the blow-up lies in the past (decreasing solutions).  ``gamma`` may
    be INFINITE (steady case, the log term vanishes).
    """
    if mu == 0.0:
        raise MuZeroError("mu must be nonzero")
    if gamma == 0.0:
        raise DomainError("gamma must be nonzero")
    if math.isinf(gamma):
        return -1.0 / (4.0 * mu)
    if gamma >= 1.0:
        raise DomainError("closed form requires gamma < 1 (log(1 - gamma) undefined)")
    # -1 - log(1 - gamma)/gamma = psi(-gamma)/gamma, without its cancellation at small gamma
    return _psi_float(-gamma, math.log1p(-gamma)) / (4.0 * mu * gamma)


# ---------------------------------------------------------------------------
# Phase line analysis.  The equation is autonomous with fixed points at 0 and
# (when finite and positive) gamma, so the end of a branch in each time
# direction is decided by the sign of a' and the fixed points in the way.
# ---------------------------------------------------------------------------


def _slope_sign(params: SolitonParams, a: float) -> int:
    """Sign of a' = 4 mu a^2 (a/gamma - 1) at the level a, from the signs of
    its factors: the product itself underflows at tiny a."""
    g = params.gamma
    side = (a > g) - (a < g) if math.isfinite(g) and g > 0.0 else -1
    return side if params.mu > 0.0 else -side


def _fate(params: SolitonParams, a_ref: float, forward: bool) -> EndTag:
    """The end of the nonconstant branch through a_ref in one time direction."""
    g = params.gamma
    rising = (_slope_sign(params, a_ref) > 0) == forward  # does a increase toward this end
    if math.isfinite(g) and g > 0.0 and (a_ref < g) == rising:
        return EndTag(CONVERGES, g)
    return EndTag(BLOW_UP) if rising else EndTag(DECAY_TO_ZERO)


def _halt_level(params: SolitonParams, a_ref: float, kind: str) -> float:
    """The a-level past which an end of this kind counts as reached (never behind a_ref)."""
    if kind == BLOW_UP:
        return max(A_BLOWUP, a_ref)
    if kind == DECAY_TO_ZERO:
        return min(A_ZERO, a_ref)
    g = params.gamma
    dev = min(1e-12 * max(1.0, g), 0.5 * abs(a_ref - g))
    return g - dev if a_ref < g else g + dev


# ---------------------------------------------------------------------------
# ProfileA
# ---------------------------------------------------------------------------


def _sorted_unique(x):
    """np.unique of a float array, without the numpy.ma import np.unique costs."""
    import numpy as np
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


@dataclass(frozen=True)
class ProfileA:
    """A positive solution a(t) on its interval with endpoint behavior tags.

    Representation is the constant separatrix a == gamma (C is nan) or the
    implicit solution t = C + G(a) of the branch through the anchor, the
    steady closed forms a = 1/(4 mu (t - C)) included.  The form is
    invariant under the symmetries, so an image carries the transformed
    parameters and C moved like a time.
    """

    params: SolitonParams
    t_ref: float
    a_ref: float
    t0: float
    t1: float
    tag0: EndTag
    tag1: EndTag
    C: float = math.nan  # branch constant of t = C + G(a); nan on the separatrix
    t0_exact: bool = False  # initial blow-up placed analytically, not inferred

    # -- evaluation ---------------------------------------------------------

    def a(self, t):
        """Profile value(s), for a scalar t in float arithmetic; valid on the open interval and at finite-limit ends."""
        if not (scalar := isinstance(t, float)):
            import numpy as np
            scalar = not np.ndim(t)
        x = float(t) if scalar else np.asarray(t, dtype=float)
        ok = (x > self.t0 if self.tag0.kind == BLOW_UP else x >= self.t0) & (
            x < self.t1 if self.tag1.kind == BLOW_UP else x <= self.t1)
        if not (ok if scalar else ok.all()):
            raise DomainError(f"t outside profile domain ({self.t0:g}, {self.t1:g})")
        if self.is_constant:
            return self.params.gamma if scalar else np.full_like(x, self.params.gamma)
        if (branch := _branch_class(self.params, self.a_ref)) != _STEADY:
            v = _level_coordinate(self.params, branch, x - self.C)
            return _a_of_v(self.params.gamma, branch, v, _FLOAT if scalar else None)
        if scalar:  # a is 0 where 4 mu (t - C) overflows, inf where it is 0
            d = 4.0 * self.params.mu * (x - self.C)
            return 1.0 / d if d else math.copysign(math.inf, d)
        with np.errstate(over="ignore", divide="ignore"):  # as on a float
            return np.divide(1.0, 4.0 * self.params.mu * (x - self.C))

    def a_at_zero(self) -> float:
        """a(0): the anchor's level where t_ref = 0 (the branch passes through it exactly), else a(0.0)."""
        return self.a_ref if self.t_ref == 0.0 else self.a(0.0)

    # -- diagnostics --------------------------------------------------------

    def residual(self, t: float) -> float:
        """Normalized equation residual |a'_fd - rhs(a)| / (1 + |rhs(a)|).

        a'_fd is a five-point finite-difference derivative of the evaluated
        profile, taken in the variable 1/a^2 (a >= 1) or 1/a (a < 1) so the
        differenced quantity stays smooth near blow-up and decay.
        """
        import numpy as np
        t = float(t)
        a0 = self.a(t)
        # h follows the local dynamical rate so the truncation term stays flat
        rate = 4.0 * abs(self.params.mu) * a0 + 2.0 * abs(self.params.lam) * a0 * a0
        h = 6.0e-4 * min(1.0 + abs(t), 1.0 / rate if rate > 0 else math.inf)
        for edge in (self.t0, self.t1):
            if math.isfinite(edge) and edge != t:
                h = min(h, 0.05 * abs(t - edge))
        h = max(h, 1e3 * np.finfo(float).eps * (1.0 + abs(t)))
        ts = t + h * np.array([-2.0, -1.0, 1.0, 2.0])
        av = self.a(ts)
        if a0 >= 1.0:
            f = av**-2.0
            dfdt = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
            da_fd = -0.5 * a0**3 * dfdt
        else:
            f = 1.0 / av
            dfdt = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
            da_fd = -(a0**2) * dfdt
        rhs = self.params.rhs(a0)
        return abs(da_fd - rhs) / (1.0 + abs(rhs))

    def max_residual(self, n: int = 100, margin: float = 0.02) -> float:
        """Max residual over n uniform samples of the sample range."""
        import numpy as np
        lo, hi = self.sample_range(margin)
        return max(self.residual(t) for t in np.linspace(lo, hi, n))

    def _end_sample(self, edge: float, tag: EndTag, forward: bool) -> float:
        """Sampling edge toward one end: the window edge, or the time at the
        halting level of a blow-up, decay or convergence end."""
        if tag.kind in (TRUNCATED, SMOOTH_ORIGIN):
            if math.isfinite(edge):
                return edge
            return max(self.t_ref, 0.0) + 1.0 if forward else min(self.t_ref, 0.0) - 1.0
        t = self.C + _separatrix_time(self.params, _halt_level(self.params, self.a_ref, tag.kind))
        if tag.kind == BLOW_UP:  # stay inside the open end even where the level rounds onto it
            inside = math.nextafter(edge, -math.inf if forward else math.inf)
            t = min(t, inside) if forward else max(t, inside)
        return t

    def sample_range(self, margin: float = 0.0) -> tuple[float, float]:
        """A finite subinterval of the domain suitable for dense sampling."""
        lo = self._end_sample(self.t0, self.tag0, False)
        hi = self._end_sample(self.t1, self.tag1, True)
        pad = margin * (hi - lo)
        return lo + pad, hi - pad

    @property
    def is_constant(self) -> bool:
        return math.isnan(self.C)

    def monotonicity(self) -> str:
        """'increasing', 'decreasing' or 'constant' (phase-line trichotomy)."""
        if self.is_constant:
            return "constant"
        return {1: "increasing", 0: "constant", -1: "decreasing"}[_slope_sign(self.params, self.a_ref)]

    # -- export -------------------------------------------------------------

    def sample_grid(self, n: int = 0):
        """Sample times over the sample range: n uniform points, or for n = 0
        201 points geometric toward a blow-up end (fewer where they round
        onto the same time).  A negative n, or one past _MAX_SAMPLES, raises DomainError."""
        if n < 0:
            raise DomainError(f"need n >= 0 samples (0 for the default grid), got {n!r}")
        if n > _MAX_SAMPLES:
            raise DomainError(f"{n!r} samples exceed numpy's array size limit of {_MAX_SAMPLES} floats")
        import numpy as np
        lo, hi = self.sample_range(0.0)
        if n > 0:
            return np.linspace(lo, hi, n)
        if self.tag1.kind == BLOW_UP:
            return _sorted_unique(self.t1 - np.geomspace(self.t1 - lo, self.t1 - hi, 201))
        if self.tag0.kind == BLOW_UP:
            return _sorted_unique(self.t0 + np.geomspace(lo - self.t0, hi - self.t0, 201))
        return np.linspace(lo, hi, 201)

    def to_csv(self, n: int = 0) -> str:
        """CSV export with header ``t,a,dadt`` at 17 significant digits."""
        import numpy as np
        ts = self.sample_grid(n)
        av = np.atleast_1d(self.a(ts))
        dv = np.atleast_1d(self.params.rhs(av))
        row = "{:.17g},{:.17g},{:.17g}\n".format
        return "t,a,dadt\n" + "".join(map(row, ts.tolist(), av.tolist(), dv.tolist()))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def closed_form_profile(params: SolitonParams, phi: float) -> ProfileA:
    """Steady-case closed form a(t) = 1/(4 mu t + phi) on its maximal interval.

    It is the steady branch a = 1/(4 mu (t - C)) with pole C = -phi/(4 mu),
    anchored where a = 1.
    """
    if not math.isinf(params.gamma):
        raise NotSteadyError("closed form requires lambda = 0 (gamma INFINITE)")
    C = -float(phi) / (4.0 * params.mu)
    return implicit_profile(params, C + 1.0 / (4.0 * params.mu), 1.0, C, (-math.inf, math.inf))


def constant_profile(params: SolitonParams, window: tuple[float, float]) -> ProfileA:
    """The separatrix solution a == gamma restricted to a window."""
    g = params.gamma
    if not (math.isfinite(g) and g > 0.0):
        raise DomainError("constant positive solution requires finite gamma > 0")
    t_lo, t_hi = float(window[0]), float(window[1])
    t_ref = t_lo if math.isfinite(t_lo) else (t_hi if math.isfinite(t_hi) else 0.0)
    return ProfileA(
        params=params, t_ref=t_ref, a_ref=g, t0=t_lo, t1=t_hi,
        tag0=EndTag(TRUNCATED), tag1=EndTag(TRUNCATED),
    )


def implicit_profile(params: SolitonParams, t_ref: float, a_ref: float, C: float, window: tuple[float, float],
                     t0_exact: bool = False) -> ProfileA:
    """The branch t = C + G(a) through the level a_ref on window cap its maximal interval.

    An end is reached when the window covers the time at which a passes its
    halting level (A_BLOWUP, A_ZERO, or 1e-12 from gamma); the blow-up then
    sits exactly at C, decay and convergence at infinite time.  Otherwise the
    end is TRUNCATED at the window edge.  An anchor on the separatrix
    a == gamma has no such branch (see ``constant_profile``), nor does a nan C.
    """
    if _slope_sign(params, a_ref) == 0:
        raise DomainError("anchor on the separatrix a == gamma: the branch is constant")
    if math.isnan(C):
        raise RangeError(f"the branch constant C is nan: G(a) overflows at a = {a_ref:g}")
    ends = []
    for forward, edge in ((False, window[0]), (True, window[1])):
        tag = _fate(params, a_ref, forward)
        t_halt = C + _separatrix_time(params, _halt_level(params, a_ref, tag.kind))
        if edge < t_halt if forward else edge > t_halt:
            ends += [edge, EndTag(TRUNCATED)]
        elif tag.kind == BLOW_UP:
            ends += [C, tag]
        else:
            ends += [math.inf if forward else -math.inf, tag]
    t0, tag0, t1, tag1 = ends
    return ProfileA(
        params=params, t_ref=t_ref, a_ref=a_ref, t0=t0, t1=t1,
        tag0=tag0, tag1=tag1, C=C, t0_exact=t0_exact,
    )


def integrate_profile(
    params: SolitonParams,
    t_ref: float,
    a_ref: float,
    window: tuple[float, float],
) -> ProfileA:
    """The profile through (t_ref, a_ref) on window cap its maximal interval.

    Solves the separable equation exactly: the branch through the anchor is
    t = C + G(a) with C = t_ref - G(a_ref), so a blow-up end sits at t = C
    and decay or convergence ends at infinity (see ``implicit_profile`` for
    when a window counts as reaching them).  Anchors within SEPARATRIX_SNAP * gamma
    of gamma snap to the constant solution.
    """
    t_ref, a_ref = float(t_ref), float(a_ref)
    if not math.isfinite(a_ref) or a_ref <= 0.0:
        raise NonpositiveAnchorError("a_ref must be positive")
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (math.isfinite(t_ref) and t_lo <= t_ref <= t_hi):
        raise DomainError("window must contain a finite t_ref")

    if on_separatrix(params, a_ref):
        profile = constant_profile(params, (t_lo, t_hi))
    else:
        G = _separatrix_time(params, a_ref)
        if G == 0.0 == t_ref:  # G vanishes only at a = inf: C = -G lost its sign
            raise RangeError(f"G(a) underflows to 0 at a = {a_ref:g}, so the sign of C = -G is lost")
        profile = implicit_profile(params, t_ref, a_ref, t_ref - G, (t_lo, t_hi))
        if profile.t0 == 0.0 and profile.tag0.kind == TRUNCATED and is_smooth_origin(profile.a_at_zero()):
            profile = replace(profile, tag0=EndTag(SMOOTH_ORIGIN))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("through a(%r) = %r: branch class %s, C = %r, ends %s and %s, a(0) from the anchor: %s", t_ref, a_ref,
                   "separatrix" if profile.is_constant else _branch_class(params, a_ref), profile.C, profile.tag0,
                   profile.tag1, t_ref == 0.0)
    return profile


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scale:
    """Amplitude action a -> alpha a; (lam, mu, gamma) -> (lam/a^2, mu/a, a gamma)."""

    alpha: float


@dataclass(frozen=True)
class Rescale:
    """Metric scaling by beta^2: a -> a(t/beta^2); (lam, mu) -> (lam, mu)/beta^2."""

    beta: float


@dataclass(frozen=True)
class Translate:
    """Time translation a -> a(t - tau); parameters unchanged."""

    tau: float


def _transform_tag(tag: EndTag, amp: float) -> EndTag:
    if tag.kind == CONVERGES:
        return EndTag(CONVERGES, tag.value * amp)
    return tag


def apply_symmetry(profile: ProfileA, action) -> ProfileA:
    """Image of a profile under one of the three solution-space actions.

    The image is the same kind of profile for the transformed parameters:
    levels scale with the amplitude and times, the branch constant C
    included, move with the time map, so it satisfies the equation to the
    accuracy of the original data.
    """
    if isinstance(action, Scale):
        alpha = float(action.alpha)
        if alpha <= 0.0:
            raise DomainError("alpha must be positive")
        new_params = SolitonParams(profile.params.lam / alpha**2, profile.params.mu / alpha)
        amp, tsc, shf = alpha, 1.0, 0.0
    elif isinstance(action, Rescale):
        beta = float(action.beta)
        if beta <= 0.0:
            raise DomainError("beta must be positive")
        b2 = beta * beta
        new_params = SolitonParams(profile.params.lam / b2, profile.params.mu / b2)
        amp, tsc, shf = 1.0, b2, 0.0
    elif isinstance(action, Translate):
        new_params = profile.params
        amp, tsc, shf = 1.0, 1.0, float(action.tau)
        if not math.isfinite(shf):
            raise DomainError("tau must be finite")
    else:
        raise DomainError(f"unknown symmetry action {action!r}")

    def fwd_t(t):
        return t if math.isinf(t) else t * tsc + shf

    return replace(
        profile,
        params=new_params,
        t_ref=fwd_t(profile.t_ref),
        a_ref=amp * profile.a_ref,
        t0=fwd_t(profile.t0),
        t1=fwd_t(profile.t1),
        tag0=_transform_tag(profile.tag0, amp),
        tag1=_transform_tag(profile.tag1, amp),
        C=fwd_t(profile.C),
    )


# ---------------------------------------------------------------------------
# Geometry report: the metric's ends and curvature range from the end levels
# ---------------------------------------------------------------------------

SMOOTH_POINT = "SMOOTH_POINT"
CONE_END = "CONE_END"
CYLINDER_END = "CYLINDER_END"
CUSP_END = "CUSP_END"
GEODESIC_BOUNDARY = "GEODESIC_BOUNDARY"
EXPLODING_END = "EXPLODING_END"

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
        return {f.name: val for f in fields(self) if (val := getattr(self, f.name)) is not None}


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


def _metric_t_interval(profile: ProfileA) -> tuple[float, float]:
    """(t_lo, t_hi): t-range of the metric."""
    t_lo = max(profile.t0, 0.0)
    t_hi = profile.t1
    if t_hi <= t_lo:
        raise DomainError("profile has no t > 0 portion, no metric to build")
    return t_lo, t_hi


def t0_uncertainty(profile: ProfileA) -> float:
    """Rounding bound on a blow-up time T0 = C = t_ref - G(a_ref), whatever the profile's window.

    A few ulps of each term of the subtraction, plus the rounding of a_ref
    and gamma amplified by the condition number |a G'(a)| = |a / a'(a)| =
    1 / |4 mu a (a/gamma - 1)|, taken from the factors of a'.
    """
    p, a = profile.params, profile.a_ref
    cond = 1.0 / max(abs(4.0 * p.mu * a * (a / p.gamma - 1.0)), _TINY)
    return 8.0 * _EPS * (abs(profile.C) + abs(profile.t_ref) + abs(_separatrix_time(p, a)) + cond)


def t0_sign(profile: ProfileA) -> tuple[Optional[int], float]:
    """Sign of the blow-up time T0 = C and the rounding bound it was decided against.

    Exact (bound 0) when the blow-up was placed analytically (t0_exact), so
    only such a profile can have T0 = 0: the cusp families are measure zero.
    Otherwise None while |C| is within t0_uncertainty.
    """
    C = profile.C
    sign = (C > 0.0) - (C < 0.0)
    if profile.t0_exact:
        return sign, 0.0
    unc = t0_uncertainty(profile)
    return (None if abs(C) <= unc else sign), unc


def _resolve(profile: ProfileA) -> ProfileA:
    """The same branch over its maximal interval."""
    if profile.is_constant:
        return constant_profile(profile.params, (-math.inf, math.inf))
    return implicit_profile(profile.params, profile.t_ref, profile.a_ref, profile.C, (-math.inf, math.inf),
                            profile.t0_exact)


def _blowup_end(p: SolitonParams, T: float):
    """The end a blow-up at T >= 0 makes and whether it lies at infinite distance:
    a cylinder when lambda = 0, a cusp at T = 0, and a geodesic boundary otherwise."""
    if p.lam == 0.0:
        return EndDescriptor(CYLINDER_END, radius=2.0 * math.sqrt(T)), True
    if T == 0.0:
        return EndDescriptor(CUSP_END, curvature=p.lam), True
    return EndDescriptor(GEODESIC_BOUNDARY, length=4.0 * math.pi * math.sqrt(T)), False


def _inner_descriptor(profile: ProfileA, a_in: float):
    """The end at t = 0, or at the initial blow-up T0 = C >= 0 of a maximal branch."""
    p = profile.params
    if profile.is_constant or profile.t0 < 0.0:
        if is_smooth_origin(a_in):
            return EndDescriptor(SMOOTH_POINT, curvature=0.0 if profile.is_constant else p.lam - 2.0 * p.mu), True
        if a_in == 0.0:
            raise RangeError("a(0) underflows to 0, so the cone angle 2 pi / a(0) overflows")
        # cone vertex at the origin: finite distance, no smooth extension
        return EndDescriptor(CONE_END, angle=2.0 * math.pi / a_in), False
    if p.lam != 0.0:
        sign, unc = t0_sign(profile)
        if sign is None:
            raise UnresolvedEndError(f"initial blow-up time {profile.t0!r} within its uncertainty {unc:g}; "
                                     "cusp versus boundary is not decidable numerically")
    return _blowup_end(p, profile.t0)


def _outer_descriptor(profile: ProfileA, a_out: float):
    """The end toward t1 of a maximal branch, at the level a_out."""
    p = profile.params
    if a_out == math.inf:
        return _blowup_end(p, profile.t1)
    if a_out == 0.0:
        return EndDescriptor(EXPLODING_END, nu=math.sqrt(p.mu)), False
    return EndDescriptor(CONE_END, angle=2.0 * math.pi / a_out), True


def geometry_report(profile: ProfileA) -> GeometryReport:
    """Completeness, curvature range, and end structure of the metric.

    The report describes the profile's branch over its maximal interval,
    whatever window the profile was cut to, so each end is read from the
    exact end of the implicit solution: completeness follows from the
    convergence of the arc-length element a(t)/sqrt(t) toward it.
    """
    profile = _resolve(profile)
    _metric_t_interval(profile)  # raises when the branch has no t > 0 portion
    p, tag1 = profile.params, profile.tag1

    # the levels of a at t = 0 (inf at an initial blow-up) and at the outer
    # end, both gamma on the separatrix
    if profile.is_constant:
        a_in = a_out = p.gamma
    else:
        a_in = profile.a_at_zero() if profile.t0 < 0.0 else math.inf
        a_out = {BLOW_UP: math.inf, DECAY_TO_ZERO: 0.0, CONVERGES: tag1.value}[tag1.kind]
    inner, complete_inner = _inner_descriptor(profile, a_in)
    outer, complete_outer = _outer_descriptor(profile, a_out)

    mono = profile.monotonicity()
    sign = {"increasing": POSITIVE, "decreasing": NEGATIVE, "constant": ZERO}[mono]

    # K = lambda - 2 mu / a is monotone in a and a is monotone in t, so the
    # curvature range comes from the end levels: a = inf gives lambda, a = 0
    # an infinity, and the separatrix level a = gamma exactly 0 (to which
    # lambda - 2 mu / gamma only rounds)
    K_in, K_out = (0.0 if a == p.gamma else p.lam - (2.0 * p.mu / a if a else math.copysign(math.inf, p.mu))
                   for a in (a_in, a_out))
    if not all(math.isfinite(K) or a == 0.0 for K, a in ((K_in, a_in), (K_out, a_out))):  # infinite only at a = 0
        raise RangeError("the curvature range overflows")

    return GeometryReport(
        complete_inner=complete_inner,
        complete_outer=complete_outer,
        complete=complete_inner and complete_outer,
        curvature_sign=sign,
        K_inf=min(K_out, K_in),  # of 0.0 and -0.0 the outer one, as numpy's min and max
        K_sup=max(K_out, K_in),
        inner_end=inner,
        outer_end=outer,
    )
