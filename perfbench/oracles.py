"""Closed-form references the benchmark checks program output against.

Nothing here calls soliton2d.  The profile equation a' = 2 lam a^3 - 4 mu a^2
is separable, so each monotone branch is t(a) = t_anchor + G(a) - G(a_anchor)
with G' = 1/rhs, and every geometric quantity is a one-dimensional integral
in the variable a:

    dr               = a / (sqrt(t(a)) rhs(a)) da     (arc length)
    K log|K| b dr    = log|K| / a^2 da                 (K / rhs = 1 / (2 a^3))

The arc-length integrals run through scipy's adaptive quadrature, a path the
program does not use for its own arc-length tables.
"""

from __future__ import annotations

import math
import warnings

from scipy.integrate import quad

TWO_PI = 2.0 * math.pi

# Tolerances stated by the acceptance suite (tests/test_acceptance.py) or the
# README; each check names the one it uses.
RESIDUAL_MAX = 1e-5  # criterion 7, four soliton identities at h <= 1e-3
NOETHER_MAX = 1e-5  # criterion 9, conservation law at h = 1e-3
# criterion 9 bounds |first variation| by 1e-7 at h = 2e-4; the analytic
# variation converges at O(h^2), so at h = 1e-3 the same bound reads 25x larger
VARIATION_MAX_H1E3 = 1e-7 * (1e-3 / 2e-4) ** 2
RICHARDSON_MIN = 1.8  # criterion 9, FD-versus-analytic slope at eps = 1e-3
ANGLE_TOL = 1e-4  # criterion 4, cone angle and cylinder radius
LENGTH_TOL = 1e-3  # criterion 4, boundary length 2 pi
STEADY_B_TOL = 1e-6  # criterion 3, b(r) against tanh / tan
PROFILE_REL = 1e-8  # criterion 1, a(t) relative to the closed form
QUADRATURE_REL = 1e-10  # README: arc length "accurate to quadrature precision"


def rhs(lam: float, mu: float, a: float) -> float:
    return 2.0 * lam * a**3 - 4.0 * mu * a**2


def curvature(lam: float, mu: float, a: float) -> float:
    return lam - 2.0 * mu / a


def time_to_level(lam: float, mu: float, a_from: float, a_to: float) -> float:
    """int_{a_from}^{a_to} da / rhs(a), written with log1p so that it keeps
    full relative precision when the two levels are close; a_to may be inf."""
    if math.isinf(a_to):
        if lam == 0.0:
            return -1.0 / (4.0 * mu * a_from)
        g = 2.0 * mu / lam
        return -(math.log(abs(a_from - g) / a_from) / g + 1.0 / a_from) / (4.0 * mu)
    d = a_to - a_from
    steady = (1.0 / a_to - 1.0 / a_from) / (4.0 * mu)
    if lam == 0.0:
        return steady
    g = 2.0 * mu / lam
    logs = (math.log1p(d / (a_from - g)) - math.log1p(d / a_from)) / g
    return logs / (4.0 * mu) + steady


class Branch:
    """One monotone branch of the profile equation, known through the point
    (t_anchor, a_anchor); a_anchor = inf marks a blow-up at t_anchor."""

    def __init__(self, lam: float, mu: float, t_anchor: float, a_anchor: float):
        self.lam, self.mu = lam, mu
        self.t_anchor, self.a_anchor = t_anchor, a_anchor

    def t(self, a: float) -> float:
        if math.isinf(self.a_anchor):
            return self.t_anchor - time_to_level(self.lam, self.mu, a, math.inf)
        return self.t_anchor + time_to_level(self.lam, self.mu, self.a_anchor, a)

    def blowup_time(self) -> float:
        """t at which a -> inf along this branch (forward or backward)."""
        if math.isinf(self.a_anchor):
            return self.t_anchor
        return self.t_anchor + time_to_level(self.lam, self.mu, self.a_anchor, math.inf)

    def _element(self, a: float) -> float:
        return a / (math.sqrt(self.t(a)) * abs(rhs(self.lam, self.mu, a)))

    def arc_length(self, a1: float, a2: float) -> float:
        """Radial distance between the circles at levels a1 and a2 (a2 may be
        inf).  A level at t = 0 is integrated in u with a = a1 + s u^2, which
        removes the 1/sqrt(t) endpoint singularity."""
        if a2 < a1:
            a1, a2 = a2, a1
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=400)
        total = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lo = a1
            if self.t(a1) <= 0.0:
                hi = min(a2, a1 + 1.0)
                total += quad(lambda u: 2.0 * u * self._element(lo + u * u),
                              0.0, math.sqrt(hi - lo), **opts)[0]
                lo = hi
            if lo < a2:
                total += quad(self._element, lo, a2, **opts)[0]
        return total

    def energy(self, a1: float, a2: float) -> float:
        """E = 2 pi int K log|K| b dr between the levels a1 and a2, which is
        2 pi int log|K| / a^2 da because K / rhs = 1 / (2 a^3)."""
        lam, mu = self.lam, self.mu
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = quad(lambda a: math.log(abs(curvature(lam, mu, a))) / (a * a),
                       a1, a2, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return TWO_PI * val


def g4_params(gamma: float) -> tuple[float, float]:
    """(lam, mu) of the boundary-disk branch through a(0) = 1 whose blow-up
    sits at t = 1/4 (paper's normalization, boundary length 2 pi)."""
    mu = -1.0 - math.log1p(-gamma) / gamma
    return 2.0 * mu / gamma, mu


def g4_boundary_distance(gamma: float) -> float:
    """Distance from the disk center to its geodesic boundary circle."""
    lam, mu = g4_params(gamma)
    return Branch(lam, mu, 0.0, 1.0).arc_length(1.0, math.inf)


# Family table of the paper (complete, curvature sign, inner end, outer end);
# the same facts the acceptance suite asserts in criteria 4 and 5.
EXPECTED = {
    "G1_CIGAR": (True, "POSITIVE", "SMOOTH_POINT", "CYLINDER_END"),
    "G2_EXPLODING": (False, "NEGATIVE", "SMOOTH_POINT", "EXPLODING_END"),
    "G3": (False, "NEGATIVE", "CYLINDER_END", "EXPLODING_END"),
    "G4_PLUS": (False, "POSITIVE", "SMOOTH_POINT", "GEODESIC_BOUNDARY"),
    "G4_MINUS": (False, "POSITIVE", "SMOOTH_POINT", "GEODESIC_BOUNDARY"),
    "G5": (False, "NEGATIVE", "SMOOTH_POINT", "EXPLODING_END"),
    "G6": (True, "POSITIVE", "SMOOTH_POINT", "CONE_END"),
    "G7": (True, "NEGATIVE", "SMOOTH_POINT", "CONE_END"),
    "G8": (True, "NEGATIVE", "CUSP_END", "CONE_END"),
    "G9": (False, "NEGATIVE", "GEODESIC_BOUNDARY", "CONE_END"),
    "G10": (False, "NEGATIVE", "SMOOTH_POINT", "EXPLODING_END"),
    "G11": (False, "NEGATIVE", "CUSP_END", "EXPLODING_END"),
    "G12": (False, "NEGATIVE", "GEODESIC_BOUNDARY", "EXPLODING_END"),
}


def check_report(rep: dict, tag: str, lam: float, mu: float, branch: Branch,
                 nu: float | None = None) -> list[str]:
    """Names of the failed checks of a geometry report (its JSON form)
    against the family table and the closed-form end invariants."""
    fails = []
    complete, sign, inner, outer = EXPECTED[tag]
    if rep["complete"] != complete:
        fails.append("report.complete")
    if rep["curvature_sign"] != sign:
        fails.append("report.curvature_sign")
    ie, oe = rep["inner_end"], rep["outer_end"]
    if ie["kind"] != inner or oe["kind"] != outer:
        fails.append("report.end_kinds")
        return fails
    if complete and not rep["bounded_curvature"]:
        fails.append("report.complete_implies_bounded")
    g = 2.0 * mu / lam if lam != 0.0 else math.inf
    if inner == "SMOOTH_POINT" and not close(ie["curvature"], lam - 2.0 * mu, 1e-12):
        fails.append("report.origin_curvature")
    if outer == "CONE_END":
        want = TWO_PI / g if nu is None else nu
        if abs(oe["angle"] - want) > ANGLE_TOL:
            fails.append("report.cone_angle")
    if tag == "G1_CIGAR":
        want = 2.0 * math.sqrt(branch.blowup_time()) if nu is None else 1.0 / nu
        if abs(oe["radius"] - want) > ANGLE_TOL:
            fails.append("report.cylinder_radius")
    if tag == "G3":
        want = 2.0 * math.sqrt(branch.blowup_time()) if nu is None else nu
        if abs(ie["radius"] - want) > ANGLE_TOL:
            fails.append("report.cylinder_radius")
    for end in (ie, oe):
        if end["kind"] == "GEODESIC_BOUNDARY":
            want = 2.0 * TWO_PI * math.sqrt(branch.blowup_time())
            if abs(end["length"] - want) > LENGTH_TOL:
                fails.append("report.boundary_length")
        if end["kind"] == "EXPLODING_END" and not close(end["nu"], math.sqrt(mu), 1e-12):
            fails.append("report.exploding_nu")
        if end["kind"] == "CUSP_END" and not close(end["curvature"], lam, 1e-12):
            fails.append("report.cusp_curvature")
    return fails


def close(x: float, want: float, rel: float) -> bool:
    return abs(x - want) <= rel * max(1.0, abs(want))
