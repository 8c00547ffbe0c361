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
through that implicit solution, evaluates a(t) by inverting G (a tabulated
first guess polished by Newton steps), and applies the scaling/translation
symmetries of the solution space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    DomainError,
    MuZeroError,
    NonpositiveAnchorError,
    NotSteadyError,
    RangeError,
)

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


def is_smooth_origin(a0: float) -> bool:
    """Whether the level a(0) = a0 closes the metric up smoothly over t = 0."""
    return abs(a0 - 1.0) <= SMOOTH_ORIGIN_TOL


def on_separatrix(params: SolitonParams, a: float) -> bool:
    """Whether the level a lies within SEPARATRIX_SNAP of a finite positive gamma."""
    return 0.0 < params.gamma < math.inf and abs(a - params.gamma) <= SEPARATRIX_SNAP * max(1.0, params.gamma)


@dataclass(frozen=True)
class SolitonParams:
    """The pair (lambda, mu); gamma = 2 mu / lambda is derived.

    lam is the expansion constant (steady 0, shrinking > 0, expanding < 0)
    and mu the nonvanishing normalization of the rotational Killing field.
    """

    lam: float
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "mu", float(self.mu))
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise DomainError("lambda and mu must be finite")
        if self.mu == 0.0:
            raise MuZeroError("mu must be nonzero")
        if not math.isfinite(4.0 * self.mu):
            raise RangeError(f"mu = {self.mu:g} overflows the coefficient 4 mu of the profile equation")
        if self.lam != 0.0 and not 0.0 < abs(self.gamma) < math.inf:
            raise RangeError(f"gamma = 2 mu / lambda overflows or underflows to {self.gamma:g} at lambda = {self.lam:g}")

    @property
    def gamma(self) -> float:
        """Separatrix level 2 mu / lambda, INFINITE when lambda = 0."""
        if self.lam == 0.0:
            return INFINITE
        return 2.0 * (self.mu / self.lam)

    @property
    def kind(self) -> str:
        if self.lam > 0.0:
            return "shrinking"
        if self.lam < 0.0:
            return "expanding"
        return "steady"

    def rhs(self, a):
        """Right-hand side 2 lambda a^3 - 4 mu a^2 (== 4 mu a^2 (a/gamma - 1))."""
        a = np.asarray(a, dtype=float)
        out = 2.0 * self.lam * a**3 - 4.0 * self.mu * a**2
        return out if out.ndim else float(out)

    def curvature(self, a):
        """Gauss curvature lambda - 2 mu / a of the associated metric."""
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
# of a negative gamma (y < 0).  On each, a coordinate v of the a-range and a
# stretch S of the time make S(v) asymptotically linear at both ends, so a
# table of S over v gives a first guess that two Newton steps polish to
# rounding:
#
#   NEG   (gamma < 0): v = log(a/|gamma|),       S = log psi          (blow-up, decay)
#   ABOVE (y > 1)    : v = log(a/gamma - 1),     S = log psi + psi    (blow-up, convergence)
#   BELOW (0 < y < 1): v = log(a/(gamma - a)),   S = asinh(-psi)      (decay, convergence)
#
# On BELOW, -psi = 1 - v + e^-v exactly.  Both a and t are explicit in v
# (_level_point), so the arc-length quadrature of the metric runs in v too.
# ---------------------------------------------------------------------------

_NEG, _ABOVE, _BELOW, _STEADY = "neg", "above", "below", "steady"

# psi(u) = u^2 sum_k (-u)^k / (k + 2); the sum converges to rounding in 20
# terms for |u| < 1/8, where u - log(1 + u) would cancel.
_PSI_SERIES = np.array([(-1.0) ** k / (k + 2) for k in range(20)])
_PSI_SMALL = 0.125
# v-range kept in evaluation: a up to ~1e152 |gamma| (u^2 stays normal) and
# down to ~1e-304 |gamma|
_V_MIN, _V_MAX = -700.0, 350.0


def _psi(u: np.ndarray, log1pu: np.ndarray) -> np.ndarray:
    """u - log(1 + u) given a precise log(1 + u), with a series where they cancel."""
    out = u - log1pu
    small = np.abs(u) < _PSI_SMALL
    if small.any():
        us = u[small]
        series = _PSI_SERIES[-1] + us * 0.0  # Horner, as polyval evaluates it
        for c in _PSI_SERIES[-2::-1]:
            series = c + series * us
        out[small] = us * us * series
    return out


def _psi_v(branch: str, v: np.ndarray):
    """(psi, dpsi/dv) at the level coordinate v of a branch class.

    Written so that each end of the class stays finite: the blow-up side up
    to _V_MAX, the decay side down to _V_MIN and the convergence side
    without limit.
    """
    if branch == _NEG:
        u = np.exp(-v)
        return _psi(u, np.log1p(u)), -u * (u / (1.0 + u))
    if branch == _ABOVE:
        u = -1.0 / (1.0 + np.exp(v))
        return _psi(u, np.minimum(v, 0.0) - np.log1p(np.exp(-np.abs(v)))), -u * u
    em = np.exp(-v)
    return v - 1.0 - em, 1.0 + em


def _stretch(branch: str, v: np.ndarray):
    """(S, dS/dv) on one branch class (see the table above)."""
    ps, dps = _psi_v(branch, v)
    if branch == _NEG:
        return np.log(ps), dps / ps
    if branch == _ABOVE:
        return np.log(ps) + ps, dps * (1.0 / ps + 1.0)
    return np.arcsinh(-ps), -dps / np.hypot(1.0, ps)


def _a_of_v(g: float, branch: str, v: np.ndarray) -> np.ndarray:
    """The level a at coordinate v (v = log a on the steady class)."""
    if branch == _NEG:
        return -g * np.exp(v)
    if branch == _ABOVE:
        return g * (1.0 + np.exp(v))
    if branch == _BELOW:
        return g / (1.0 + np.exp(-v))
    return np.exp(v)


def _level_point(params: SolitonParams, branch: str, C: float, v: np.ndarray):
    """(a, t, dt/dv, dr/dv) at the level coordinate v of the branch t = C + G(a).

    Both a and t are explicit in v: t - C = k psi(u) with k = -1 / (4 mu gamma),
    or k = 1 / (4 mu a) and psi = 1 on the steady class; dr/dv = a |dt/dv| / sqrt(t).
    """
    a = _a_of_v(params.gamma, branch, v)
    if branch == _STEADY:
        k, ps, dps = 1.0 / (4.0 * params.mu * a), 1.0, -1.0
    else:
        k, (ps, dps) = -1.0 / (4.0 * params.mu * params.gamma), _psi_v(branch, v)
    t, dt = C + k * ps, k * dps
    if C == 0.0:  # toward a cusp end t = k psi underflows long before dr/dv does
        return a, t, dt, a * np.sqrt(np.abs(k)) * np.abs(dps) / np.sqrt(np.abs(ps))
    del ps, dps  # the arc table's quadrature sets the peak memory here
    return a, t, dt, a * np.abs(dt) / np.sqrt(t)


def _stretch_target(branch: str, s: np.ndarray) -> np.ndarray:
    """S at the solution of psi(u) = -s."""
    if branch == _NEG:
        return np.log(-s)
    if branch == _ABOVE:
        return np.log(-s) - s
    return np.arcsinh(s)


_TABLE_DS = 0.01


@functools.cache
def _level_table(branch: str) -> tuple[float, np.ndarray]:
    """(S_0, v_j): the v with S(v_j) = S_0 + j * _TABLE_DS, for v in [-40, 40]; built on first use."""
    v_fine = np.linspace(-40.0, 40.0, 8001)
    s_fine, _ = _stretch(branch, v_fine)
    s_grid = np.arange(s_fine[-1], s_fine[0], _TABLE_DS)
    v = np.interp(s_grid, s_fine[::-1], v_fine[::-1])
    for _ in range(3):
        s, ds = _stretch(branch, v)
        v = v - (s - s_grid) / ds
    return float(s_grid[0]), v


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


def _level_coordinate(params: SolitonParams, branch: str, dt: np.ndarray) -> np.ndarray:
    """The level coordinate v at times t with t - C = dt (vectorized)."""
    mu, g = params.mu, params.gamma
    lo, hi = _V_RANGE[branch]
    if branch == _STEADY:
        with np.errstate(divide="ignore"):
            return np.clip(-np.log(4.0 * mu * dt), lo, hi)
    s = 4.0 * mu * g * dt
    if branch != _BELOW:
        # blow-up branches have s < 0 inside the domain; keep rounding there
        s = np.minimum(s, -np.finfo(float).tiny)
    s_target = _stretch_target(branch, s)
    s0, vt = _level_table(branch)
    x = (s_target - s0) * (1.0 / _TABLE_DS)
    j = np.clip(x, 0.0, vt.size - 2.0).astype(np.intp)
    v = vt[j] + (x - j) * (vt[j + 1] - vt[j])  # extrapolates linearly past the table
    for _ in range(2):
        np.clip(v, lo, hi, out=v)
        s_v, ds = _stretch(branch, v)
        v -= (s_v - s_target) / ds
    if branch == _BELOW:
        # S is logarithmic on the convergence side; past the table (v > 40)
        # -psi = 1 - v + e^-v = s gives v = 1 - s to rounding
        v = np.where(s < -39.0, 1.0 - s, v)
    return np.clip(v, lo, hi, out=v)


def _level_at(params: SolitonParams, branch: str, dt: np.ndarray) -> np.ndarray:
    """a on the branch class at times t with t - C = dt (vectorized)."""
    if branch == _STEADY:
        return 1.0 / (4.0 * params.mu * dt)
    return _a_of_v(params.gamma, branch, _level_coordinate(params, branch, dt))


def _separatrix_time(params: SolitonParams, a: float) -> float:
    """Antiderivative G with G'(a) = 1/a'(a) and G(inf) = 0.

    Exact time-to-level map of the separable equation, valid on a monotone
    branch: t = C + G(a).
    """
    g = params.gamma
    k = 4.0 * params.mu * (a if math.isinf(g) else g)  # G = 1/k on the steady class
    if k == 0.0:
        raise RangeError(f"4 mu {'a' if math.isinf(g) else 'gamma'} underflows to 0 at mu = {params.mu:g}, a = {a:g}")
    if math.isinf(g):
        return 1.0 / k
    u = np.array([-g / a])
    return -float(_psi(u, np.array([math.log(abs(a - g) / a)]))[0]) / k


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
    return float(_psi(np.array([-gamma]), np.array([math.log1p(-gamma)]))[0]) / (4.0 * mu * gamma)


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


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique of a float array, without the numpy.ma import np.unique costs."""
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
        """Profile value(s); valid on the open interval and at finite-limit endpoints."""
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo_ok = arr > self.t0 if self.tag0.kind == BLOW_UP else arr >= self.t0
        hi_ok = arr < self.t1 if self.tag1.kind == BLOW_UP else arr <= self.t1
        if not np.all(lo_ok & hi_ok):
            raise DomainError(f"t outside profile domain ({self.t0:g}, {self.t1:g})")
        if self.is_constant:
            out = np.full_like(arr, self.params.gamma)
        else:
            out = _level_at(self.params, _branch_class(self.params, self.a_ref), arr - self.C)
        return out if np.ndim(t) else float(out[0])

    # -- diagnostics --------------------------------------------------------

    def residual(self, t: float) -> float:
        """Normalized equation residual |a'_fd - rhs(a)| / (1 + |rhs(a)|).

        a'_fd is a five-point finite-difference derivative of the evaluated
        profile, taken in the variable 1/a^2 (a >= 1) or 1/a (a < 1) so the
        differenced quantity stays smooth near blow-up and decay.
        """
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
        lo, hi = self.sample_range(margin)
        return max(self.residual(t) for t in np.linspace(lo, hi, n))

    def _end_sample(self, edge: float, tag: EndTag, forward: bool) -> float:
        """Sampling edge toward one end: the window edge, or the time at the
        halting level of a blow-up, decay or convergence end."""
        if tag.kind in (TRUNCATED, SMOOTH_ORIGIN):
            if math.isfinite(edge):
                return edge
            return max(self.t_ref, 0.0) + 1.0 if forward else min(self.t_ref, 0.0) - 1.0
        level = _halt_level(self.params, self.a_ref, tag.kind)
        t = self.t_ref + time_between_levels(self.params, self.a_ref, level)
        if tag.kind == BLOW_UP:  # stay inside the open end even where the level rounds onto it
            inside = float(np.nextafter(edge, -math.inf if forward else math.inf))
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

    def sample_grid(self, n: int = 0) -> np.ndarray:
        """Sample times over the sample range: n uniform points, or for n = 0
        201 points geometric toward a blow-up end (fewer where they round
        onto the same time)."""
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
    when a window counts as reaching them).  Anchors within SEPARATRIX_SNAP of gamma
    snap to the constant solution.
    """
    t_ref, a_ref = float(t_ref), float(a_ref)
    if not math.isfinite(a_ref) or a_ref <= 0.0:
        raise NonpositiveAnchorError("a_ref must be positive")
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (t_lo <= t_ref <= t_hi):
        raise DomainError("window must contain t_ref")

    if on_separatrix(params, a_ref):
        return constant_profile(params, (t_lo, t_hi))

    G = _separatrix_time(params, a_ref)
    if G == 0.0 == t_ref:  # G vanishes only at a = inf: C = -G lost its sign
        raise RangeError(f"G(a) underflows to 0 at a = {a_ref:g}, so the sign of C = -G is lost")
    profile = implicit_profile(params, t_ref, a_ref, t_ref - G, (t_lo, t_hi))
    if profile.t0 == 0.0 and profile.tag0.kind == TRUNCATED and is_smooth_origin(profile.a(0.0)):
        profile = replace(profile, tag0=EndTag(SMOOTH_ORIGIN))
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
