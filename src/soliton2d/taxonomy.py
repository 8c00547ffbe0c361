"""Classification into the twelve solution families and canonical catalog.

The decision table follows the phase-line case analysis: the steady branch
splits by the sign of mu and of its blow-up time C, a finite
positive separatrix splits by the side of the anchor, and the families with
an initial blow-up split by the sign of the blow-up time T0.  The sign of
T0 is read from geometry.t0_sign: trusted when it exceeds its numerical
uncertainty or when the profile was anchored analytically (the T0 = 0 cusp
families are measure zero and are produced exactly by the catalog, never
inferred from data).
"""

from __future__ import annotations

import copy
import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

from .errors import RangeError
from .geometry import _sampled_metric, _window_table, radial_distance, t0_sign
from .ode import (
    BLOW_UP,
    DECAY_TO_ZERO,
    SMOOTH_ORIGIN,
    ProfileA,
    SolitonParams,
    _separatrix_time,
    blow_up_time_closed,
    closed_form_profile,
    implicit_profile,
    integrate_profile,
    on_separatrix,
    time_between_levels,
)

G1_CIGAR = "G1_CIGAR"
G2_EXPLODING = "G2_EXPLODING"
G3 = "G3"
G4_PLUS = "G4_PLUS"
G4_MINUS = "G4_MINUS"
G5 = "G5"
G6 = "G6"
G7 = "G7"
G8 = "G8"
G9 = "G9"
G10 = "G10"
G11 = "G11"
G12 = "G12"
FLAT_SEPARATRIX = "FLAT_SEPARATRIX"
UNRESOLVED_T0_SIGN = "UNRESOLVED_T0_SIGN"

FAMILY_TAGS = (
    G1_CIGAR, G2_EXPLODING, G3, G4_PLUS, G4_MINUS, G5,
    G6, G7, G8, G9, G10, G11, G12,
)

_log = logging.getLogger("soliton.taxonomy")
#: Anchor level for the analytic construction of initial blow-up profiles,
#: raised to 4 |gamma| where the branch's scale is larger.
_A_ANCHOR = 1.0e6

#: Levels that bound the window of entry_metric (see there).
_A_CAP, _A_FLOOR, _CONV_DEV = 50.0, 0.95, 0.02


@dataclass(frozen=True)
class FamilyLabel:
    tag: str
    t0_estimate: Optional[float] = None
    t0_uncertainty: Optional[float] = None

    def __str__(self):
        if self.tag == UNRESOLVED_T0_SIGN:
            return f"{self.tag}(T0={self.t0_estimate:g} +- {self.t0_uncertainty:g})"
        return self.tag


@dataclass(frozen=True)
class CatalogEntry:
    family: FamilyLabel
    nu: float
    params: SolitonParams
    profile: ProfileA
    normalization_note: str


def classify(profile: ProfileA) -> FamilyLabel:
    """Family tag of the solution branch through the profile's anchor."""
    p = profile.params
    g = p.gamma
    if profile.is_constant:
        return FamilyLabel(FLAT_SEPARATRIX)
    a0 = profile.a_ref
    if math.isinf(g):
        if p.mu < 0.0:
            return FamilyLabel(G1_CIGAR)
        return FamilyLabel(G2_EXPLODING) if profile.C < 0.0 else FamilyLabel(G3)
    if on_separatrix(p, a0):
        return FamilyLabel(FLAT_SEPARATRIX)
    if g > 0.0:
        if p.mu > 0.0:
            return FamilyLabel(G4_PLUS) if a0 > g else FamilyLabel(G5)
        if a0 < g:
            return FamilyLabel(G6)
        below, on, above = G7, G8, G9
    else:
        if p.mu < 0.0:
            return FamilyLabel(G4_MINUS)
        below, on, above = G10, G11, G12
    # T0 is the branch constant C of t = C + G(a), whatever the profile's window
    sign, unc = t0_sign(profile)
    tag = UNRESOLVED_T0_SIGN if sign is None else {-1: below, 0: on, 1: above}[sign]
    return FamilyLabel(tag, profile.C, unc)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def _require_range(tag: str, nu: float, lo: float, hi: float, lo_open=True):
    if not ((nu > lo if lo_open else nu >= lo) and nu < hi):
        raise RangeError(f"{tag} requires nu in {'(' if lo_open else '['}{lo:g}, {hi:g}), got {nu:g}")


def disk_boundary_distance(gamma: float) -> float:
    """Distance from the center to the totally geodesic boundary circle.

    The branch through a(0) = 1 above the separatrix, time-normalized so the
    blow-up sits at t = 1/4 (boundary length 2 pi); the distance is the
    radial distance from t = 0 to the blow-up time C.  Strictly decreasing
    in gamma on each of (0, 1) and (-inf, 0).
    """
    prof = _disk_profile(gamma)
    return radial_distance(prof, 0.0, prof.C)


def _disk_profile(gamma: float) -> ProfileA:
    """The branch through a(0) = 1 above the separatrix gamma with its blow-up at t = 1/4.

    The blow-up time scales like 1/mu, so mu = 4 T0(mu = 1) =
    -1 - log(1 - gamma)/gamma, which blow_up_time_closed evaluates without
    its cancellation at small |gamma|.
    """
    mu = 4.0 * blow_up_time_closed(1.0, gamma)
    return integrate_profile(SolitonParams(2.0 * mu / gamma, mu), 0.0, 1.0, (0.0, math.inf))


@functools.cache
def _disk_ends(tag: str) -> tuple:
    """(x, gamma, distance) at the low and high ends of _disk_gamma's bracket, once per tag and process."""
    x_end = math.log(1e12)
    return tuple((x, g := -math.expm1(x), disk_boundary_distance(g))
                 for x in ((-x_end, -1e-9) if tag == G4_PLUS else (1e-9, x_end)))


def _disk_gamma(tag: str, nu: float) -> tuple[float, float]:
    """The gamma = 1 - e^x of the boundary disk at distance nu, and that distance.

    The distance rises with x = log(1 - gamma) over (log 1e-12, -1e-9) on
    G4_PLUS and (1e-9, log 1e12) on G4_MINUS, like 1 + 1/(2|x|) toward
    gamma -> 1 and near-linearly toward gamma -> -inf.  Chandrupatla's (1997)
    bracketed iteration stops within 8 ulps of nu, below the distance's own
    rounding, or on a bracket one ulp of gamma (dx = dgamma / (1 - gamma)) wide.
    """
    def point(x):
        g = -math.expm1(x)
        d = disk_boundary_distance(g)
        return x, d - nu, g, d

    misses = _disk_ends.cache_info().misses
    b, a = ((x, d - nu, g, d) for x, g, d in _disk_ends(tag))
    cached = _disk_ends.cache_info().misses == misses
    if not b[1] < 0.0 < a[1]:
        raise RangeError(f"{tag} boundary distance is attainable only in ({b[3]:.9g}, {a[3]:.9g}); got {nu:g}")
    c, t, n = a, 0.5, 0
    while True:
        n += 1
        new = point(a[0] + t * (b[0] - a[0]))
        b, c = (b, a) if (new[1] > 0.0) == (a[1] > 0.0) else (a, b)
        a = new
        (xa, fa, _, _), (xb, fb, _, _), (xc, fc, _, _) = a, b, c
        x, f, g, d = a if abs(fa) < abs(fb) else b
        tlim = (2.0 * math.ulp(x) + math.ulp(g) / (1.0 - g)) / abs(xb - xa)
        if abs(f) <= 8.0 * math.ulp(nu) or tlim > 0.5:
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("%s gamma solve: %d iterations, %d distance evaluations, bracket ends cached: %s, |d - nu| "
                           "= %r, bracket width %r in x", tag, n, n + 2 * (not cached), cached, abs(f), abs(xb - xa))
            return g, d
        xi, phi = (xa - xb) / (xc - xb), (fa - fb) / (fc - fb)
        t = 0.5  # inverse quadratic interpolation where Chandrupatla's test admits it
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = fa / (fb - fa) * fc / (fb - fc) + (xc - xa) / (xb - xa) * fa / (fc - fa) * fb / (fc - fb)
        t = min(1.0 - tlim, max(tlim, t))


def _blowup_anchor_profile(params: SolitonParams, T0: float) -> ProfileA:
    """Profile with an exact initial blow-up at T0: the branch t = T0 + G(a)
    (G the exact time-to-level antiderivative with G(inf) = 0), anchored at
    the level a = max(1e6, 4 |gamma|) on the blow-up side of the branch."""
    a_anchor = max(_A_ANCHOR, 4.0 * abs(params.gamma))
    t_anchor = T0 + _separatrix_time(params, a_anchor)
    return implicit_profile(params, t_anchor, a_anchor, T0, (min(0.0, T0), math.inf), t0_exact=True)


def catalog(tag: str, nu: float) -> CatalogEntry:
    """Canonical representative of a family at parameter nu.

    Normalizations: the steady families use their closed forms; the
    boundary-disk families set the blow-up time to 1/4 (boundary length
    2 pi) and recover gamma from nu = dist(center, boundary) by a bracketed
    root solve; the cusp families fix lambda = -1 with the blow-up exactly
    at t = 0; the boundary annuli put the blow-up at t = 1/4; cone families
    are indexed by the cone angle nu = 2 pi / gamma with mu = -1.
    """
    nu = float(nu)
    if tag == G1_CIGAR:
        _require_range(tag, nu, 0.0, math.inf)
        params = SolitonParams(0.0, -nu * nu)
        prof = closed_form_profile(params, 1.0)
        note = "closed form 1/(1 - 4 nu^2 t); nu is the metric scale"
    elif tag == G2_EXPLODING:
        _require_range(tag, nu, 0.0, math.inf)
        params = SolitonParams(0.0, nu * nu)
        prof = closed_form_profile(params, 1.0)
        note = "closed form 1/(1 + 4 nu^2 t); nu is the metric scale"
    elif tag == G3:
        _require_range(tag, nu, 0.0, math.inf, lo_open=False)
        params = SolitonParams(0.0, 1.0)
        prof = closed_form_profile(params, -nu * nu)
        note = "closed form 1/(4t - nu^2) at mu = 1; inner cylinder radius nu"
    elif tag in (G4_PLUS, G4_MINUS):
        gamma, nu = _disk_gamma(tag, nu)  # nu: the realized distance
        prof = _disk_profile(gamma)
        params = prof.params
        note = "blow-up time normalized to 1/4 (boundary length 2 pi); gamma by Chandrupatla's bracketed iteration on the boundary distance"
    elif tag == G5:
        _require_range(tag, nu, 0.0, math.inf)
        params = SolitonParams(nu * nu, nu * nu)  # gamma = 2
        prof = integrate_profile(params, 0.0, 1.0, (0.0, math.inf))
        note = "mu = nu^2 fixes the decaying-end scale; canonical gamma = 2"
    elif tag == G6:
        _require_range(tag, nu, 0.0, 2.0 * math.pi)
        gamma = 2.0 * math.pi / nu
        params = SolitonParams(-2.0 / gamma, -1.0)
        prof = integrate_profile(params, 0.0, 1.0, (0.0, math.inf))
        note = "cone angle nu = 2 pi / gamma; canonical mu = -1"
    elif tag == G7:
        _require_range(tag, nu, 2.0 * math.pi, math.inf)
        gamma = 2.0 * math.pi / nu
        params = SolitonParams(-2.0 / gamma, -1.0)
        prof = integrate_profile(params, 0.0, 1.0, (-math.inf, math.inf))
        note = "cone angle nu = 2 pi / gamma; canonical mu = -1"
    elif tag == G8:
        _require_range(tag, nu, 0.0, math.inf)
        gamma = 2.0 * math.pi / nu
        params = SolitonParams(-1.0, -gamma / 2.0)
        prof = _blowup_anchor_profile(params, 0.0)
        note = "lambda = -1 with the blow-up exactly at t = 0 (cusp end); cone angle nu"
    elif tag == G9:
        _require_range(tag, nu, 0.0, math.inf)
        gamma = 2.0 * math.pi / nu
        params = SolitonParams(-2.0 / gamma, -1.0)
        prof = _blowup_anchor_profile(params, 0.25)
        note = "blow-up at t = 1/4 (boundary length 2 pi); cone angle nu; canonical mu = -1"
    elif tag == G10:
        _require_range(tag, nu, 0.0, math.inf)
        params = SolitonParams(-2.0 * nu * nu, nu * nu)  # gamma = -1
        prof = integrate_profile(params, 0.0, 1.0, (-math.inf, math.inf))
        note = "mu = nu^2 fixes the decaying-end scale; canonical gamma = -1"
    elif tag == G11:  # its times scale like 1/(8 nu^4), kept a normal number
        _require_range(tag, nu, 0.0, (8.0 * 2.0**-1022) ** -0.25)
        params = SolitonParams(-1.0, nu * nu)  # gamma = -2 nu^2
        prof = _blowup_anchor_profile(params, 0.0)
        note = "lambda = -1 with the blow-up exactly at t = 0 (cusp end); mu = nu^2"
    elif tag == G12:
        _require_range(tag, nu, 0.0, math.inf)
        params = SolitonParams(-2.0 * nu * nu, nu * nu)  # gamma = -1
        prof = _blowup_anchor_profile(params, 0.25)
        note = "blow-up at t = 1/4 (boundary length 2 pi); mu = nu^2"
    else:
        raise RangeError(f"unknown family tag {tag!r}")

    return CatalogEntry(family=classify(prof), nu=nu, params=params, profile=prof,
                        normalization_note=note)


# Machine-readable family table: topology, parameter range, completeness,
# curvature sign, end structure.  The two boundary-disk branches count as one
# family G4 (their disjoint parameter ranges are given together), matching the
# enumeration of twelve.
CATALOG_TABLE = [
    {"family": G1_CIGAR, "topology": "plane", "nu_range": "(0, inf)",
     "complete": True, "curvature_sign": "POSITIVE",
     "inner_end": "SMOOTH_POINT", "outer_end": "CYLINDER_END",
     "notes": "steady; bounded curvature; cylinder radius 1/nu"},
    {"family": G2_EXPLODING, "topology": "plane", "nu_range": "(0, inf)",
     "complete": False, "curvature_sign": "NEGATIVE",
     "inner_end": "SMOOTH_POINT", "outer_end": "EXPLODING_END",
     "notes": "steady; curvature unbounded below"},
    {"family": G3, "topology": "punctured plane", "nu_range": "[0, inf)",
     "complete": False, "curvature_sign": "NEGATIVE",
     "inner_end": "CYLINDER_END", "outer_end": "EXPLODING_END",
     "notes": "steady; cylinder radius nu at the far end"},
    {"family": "G4", "topology": "disk", "nu_range": "(1, pi/2) / (pi/2, inf)",
     "complete": False, "curvature_sign": "POSITIVE",
     "inner_end": "SMOOTH_POINT", "outer_end": "GEODESIC_BOUNDARY",
     "notes": "shrinking; boundary length 2 pi; nu = dist(center, boundary), "
              "attainable below pi/2 (constant-curvature limit)",
     "branches": [G4_PLUS, G4_MINUS]},
    {"family": G5, "topology": "plane", "nu_range": "(0, inf)",
     "complete": False, "curvature_sign": "NEGATIVE",
     "inner_end": "SMOOTH_POINT", "outer_end": "EXPLODING_END",
     "notes": "shrinking; curvature unbounded below"},
    {"family": G6, "topology": "plane", "nu_range": "(0, 2 pi)",
     "complete": True, "curvature_sign": "POSITIVE",
     "inner_end": "SMOOTH_POINT", "outer_end": "CONE_END",
     "notes": "expanding; cone angle nu = 2 pi / gamma"},
    {"family": G7, "topology": "plane", "nu_range": "(2 pi, inf)",
     "complete": True, "curvature_sign": "NEGATIVE",
     "inner_end": "SMOOTH_POINT", "outer_end": "CONE_END",
     "notes": "expanding; cone angle nu = 2 pi / gamma"},
    {"family": G8, "topology": "punctured plane", "nu_range": "(0, inf)",
     "complete": True, "curvature_sign": "NEGATIVE",
     "inner_end": "CUSP_END", "outer_end": "CONE_END",
     "notes": "expanding; hyperbolic cusp at the puncture, cone angle nu"},
    {"family": G9, "topology": "punctured disk", "nu_range": "(0, inf)",
     "complete": False, "curvature_sign": "NEGATIVE",
     "inner_end": "GEODESIC_BOUNDARY", "outer_end": "CONE_END",
     "notes": "expanding; boundary length 2 pi, cone angle nu at the puncture"},
    {"family": G10, "topology": "plane", "nu_range": "(0, inf)",
     "complete": False, "curvature_sign": "NEGATIVE",
     "inner_end": "SMOOTH_POINT", "outer_end": "EXPLODING_END",
     "notes": "expanding; curvature unbounded below"},
    {"family": G11, "topology": "punctured plane", "nu_range": "(0, inf)",
     "complete": False, "curvature_sign": "NEGATIVE",
     "inner_end": "CUSP_END", "outer_end": "EXPLODING_END",
     "notes": "expanding; cusp at the puncture, curvature unbounded below"},
    {"family": G12, "topology": "punctured disk", "nu_range": "(0, inf)",
     "complete": False, "curvature_sign": "NEGATIVE",
     "inner_end": "GEODESIC_BOUNDARY", "outer_end": "EXPLODING_END",
     "notes": "expanding; boundary length 2 pi, curvature unbounded below"},
]


def catalog_listing() -> list[dict]:
    """The twelve-family table as fresh JSON-ready dictionaries."""
    return copy.deepcopy(CATALOG_TABLE)


# ---------------------------------------------------------------------------
# Default metric windows for catalog entries
# ---------------------------------------------------------------------------


def _t_at_level(profile: ProfileA, a_level: float) -> float:
    return profile.t_ref + time_between_levels(profile.params, profile.a_ref, a_level)


def entry_metric(entry: CatalogEntry, h: float = 1e-3):
    """A verification-friendly metric for a catalog entry.

    The radial window keeps the profile between moderate levels so that the
    curvature stays bounded away from zero: blow-up sides stop at a = _A_CAP
    (at least 4 gamma), decaying sides at a = _A_FLOOR, converging sides
    where |a - gamma| drops to _CONV_DEV * gamma.  Decaying sides stop no
    lower than |gamma| / 4, and annuli start 16 times higher: in a / |gamma|
    G11 is one metric at every nu.  Grid spacing is h.  One arc table over
    the window both measures and samples it, so r_extent is the window.
    """
    prof = entry.profile
    p = prof.params
    g = p.gamma
    a_cap = max(_A_CAP, 4.0 * g) if math.isfinite(g) and g > 0.0 else _A_CAP
    a_floor = max(min(_A_FLOOR, 0.75 * prof.a_ref), 0.25 * abs(g) if math.isfinite(g) else 0.0)

    if prof.tag1.kind == BLOW_UP:
        a_out = max(a_cap, prof.a_ref)
    elif prof.tag1.kind == DECAY_TO_ZERO:
        a_out = a_floor
    else:  # CONVERGES: stop where a - gamma still carries |K| safely above noise
        dev = min(_CONV_DEV * abs(g), 0.5 * abs(prof.a_ref - g))
        a_out = g + dev if prof.a_ref > g else g - dev

    # r = 0 at a smooth inner edge t = 0, or on an annulus at the circle of
    # the moderate inner level; the table reads each edge's v from its level
    smooth_inner = prof.t0 < 0.0 or prof.tag0.kind == SMOOTH_ORIGIN
    if smooth_inner:  # catalog entries are anchored there
        t_in, a_in = 0.0, prof.a_ref if prof.t_ref == 0.0 else None
    else:
        a_in = max(a_cap, 16.0 * a_floor)
        t_in = _t_at_level(prof, a_in)
    table = _window_table(prof, t_in, _t_at_level(prof, a_out), a_in, a_out)
    r_out = float(table.r[-1] - table.r[0])
    return _sampled_metric(table, 0.0, float(table.r[0]), (0.0, r_out), int(round(r_out / h)) + 1, t_in == 0.0)
