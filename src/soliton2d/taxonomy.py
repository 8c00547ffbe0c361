"""Classification into the twelve solution families and canonical catalog.

The decision table follows the phase-line case analysis: the steady branch
splits by the sign of mu and of its blow-up time C, a finite positive
separatrix by the side of the anchor, and the families with an initial
blow-up by the sign of the blow-up time T0, read from ode.t0_sign:
trusted when it exceeds its numerical uncertainty or when the profile was
anchored analytically (the T0 = 0 cusp families are measure zero and are
produced exactly by the catalog, never inferred from data).  The catalog
builds G4 by a root solve and every other family from one row of _FAMILIES.
Only the G4 solve and entry_metric need an arc table: they import geometry
(and with it numpy) when called.
"""

from __future__ import annotations

import copy
import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, RangeError
from .ode import (
    BLOW_UP,
    DECAY_TO_ZERO,
    SMOOTH_ORIGIN,
    _MAX_SAMPLES,
    ProfileA,
    SolitonParams,
    _separatrix_time,
    blow_up_time_closed,
    closed_form_profile,
    implicit_profile,
    integrate_profile,
    on_separatrix,
    t0_sign,
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
    profile: ProfileA
    normalization_note: str

    @property
    def params(self) -> SolitonParams:
        return self.profile.params


def classify(profile: ProfileA) -> FamilyLabel:
    """Family tag of the solution branch through the profile's anchor."""
    label = _family(profile)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("classify: %s, T0 = C = %r, t0_uncertainty %r", label.tag, profile.C, label.t0_uncertainty)
    return label


def _family(profile: ProfileA) -> FamilyLabel:
    """classify's decision table, without its record (catalog checks its entries with it)."""
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


def disk_boundary_distance(gamma: float) -> float:
    """Distance from the center to the totally geodesic boundary circle.

    The branch through a(0) = 1 above the separatrix, time-normalized so the
    blow-up sits at t = 1/4 (boundary length 2 pi); the distance is the
    radial distance from t = 0 to the blow-up time C.  Strictly decreasing
    in gamma on each of (0, 1) and (-inf, 0).
    """
    from .geometry import radial_distance
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


def _cone_gamma(nu: float) -> float:
    return 2.0 * math.pi / nu


def _cone(nu: float) -> SolitonParams:
    """The cone of angle nu = 2 pi / gamma at the canonical mu = -1."""
    return SolitonParams(-2.0 / _cone_gamma(nu), -1.0)


# Every family but G4, as tag: ((lower end of the nu range, upper end, whether the lower end is open),
# (lambda, mu) at nu, the branch of those parameters at nu, the normalization note).
_POSITIVE, _T_POS, _T_ALL = (0.0, math.inf, True), (0.0, math.inf), (-math.inf, math.inf)
_FAMILIES = {
    G1_CIGAR: (_POSITIVE, lambda nu: SolitonParams(0.0, -nu * nu), lambda p, nu: closed_form_profile(p, 1.0),
               "closed form 1/(1 - 4 nu^2 t); nu is the metric scale"),
    G2_EXPLODING: (_POSITIVE, lambda nu: SolitonParams(0.0, nu * nu), lambda p, nu: closed_form_profile(p, 1.0),
                   "closed form 1/(1 + 4 nu^2 t); nu is the metric scale"),
    G3: ((0.0, math.inf, False), lambda nu: SolitonParams(0.0, 1.0), lambda p, nu: closed_form_profile(p, -nu * nu),
         "closed form 1/(4t - nu^2) at mu = 1; inner cylinder radius nu"),
    G5: (_POSITIVE, lambda nu: SolitonParams(nu * nu, nu * nu), lambda p, nu: integrate_profile(p, 0.0, 1.0, _T_POS),
         "mu = nu^2 fixes the decaying-end scale; canonical gamma = 2"),
    G6: ((0.0, 2.0 * math.pi, True), _cone, lambda p, nu: integrate_profile(p, 0.0, 1.0, _T_POS),
         "cone angle nu = 2 pi / gamma; canonical mu = -1"),
    G7: ((2.0 * math.pi, math.inf, True), _cone, lambda p, nu: integrate_profile(p, 0.0, 1.0, _T_ALL),
         "cone angle nu = 2 pi / gamma; canonical mu = -1"),
    G8: (_POSITIVE, lambda nu: SolitonParams(-1.0, -_cone_gamma(nu) / 2.0),
         lambda p, nu: _blowup_anchor_profile(p, 0.0),
         "lambda = -1 with the blow-up exactly at t = 0 (cusp end); cone angle nu"),
    G9: (_POSITIVE, _cone, lambda p, nu: _blowup_anchor_profile(p, 0.25),
         "blow-up at t = 1/4 (boundary length 2 pi); cone angle nu; canonical mu = -1"),
    G10: (_POSITIVE, lambda nu: SolitonParams(-2.0 * nu * nu, nu * nu),
          lambda p, nu: integrate_profile(p, 0.0, 1.0, _T_ALL),
          "mu = nu^2 fixes the decaying-end scale; canonical gamma = -1"),
    G11: ((0.0, (8.0 * 2.0**-1022) ** -0.25, True),  # its times scale like 1/(8 nu^4), kept a normal number
          lambda nu: SolitonParams(-1.0, nu * nu), lambda p, nu: _blowup_anchor_profile(p, 0.0),
          "lambda = -1 with the blow-up exactly at t = 0 (cusp end); mu = nu^2"),
    G12: (_POSITIVE, lambda nu: SolitonParams(-2.0 * nu * nu, nu * nu), lambda p, nu: _blowup_anchor_profile(p, 0.25),
          "blow-up at t = 1/4 (boundary length 2 pi); mu = nu^2"),
}


def catalog(tag: str, nu: float) -> CatalogEntry:
    """Canonical representative of a family at parameter nu in (0, inf), unless stated.

    (lambda, mu) at nu, with gamma = 2 pi / nu on the cone families G6-G9, and the branch:
    G1_CIGAR (0, -nu^2) and G2_EXPLODING (0, nu^2), the closed forms through a(0) = 1; G3 (0, 1), nu in
    [0, inf), the closed form 1/(4t - nu^2) through a = 1 at t = (1 + nu^2)/4; through a(0) = 1 on t >= 0,
    G5 (nu^2, nu^2) and G6 (-2/gamma, -1), nu in (0, 2 pi), and on every t, G7 (-2/gamma, -1), nu in
    (2 pi, inf), and G10 (-2 nu^2, nu^2); the cusps G8 (-1, -gamma/2) and G11 (-1, nu^2), nu in
    (0, (8 * 2^-1022)^(-1/4)), with the blow-up exactly at t = 0, and the annuli G9 (-2/gamma, -1) and
    G12 (-2 nu^2, nu^2) at t = 1/4 (boundary length 2 pi), these four anchored at a = max(1e6, 4 |gamma|).
    The boundary disks G4_PLUS and G4_MINUS put the blow-up at t = 1/4 and recover gamma from nu =
    dist(center, boundary) by a bracketed root solve.
    """
    nu = float(nu)
    if tag in (G4_PLUS, G4_MINUS):
        gamma, nu = _disk_gamma(tag, nu)  # nu: the realized distance
        prof = _disk_profile(gamma)
        note = "blow-up time normalized to 1/4 (boundary length 2 pi); gamma by Chandrupatla's bracketed iteration on the boundary distance"
    elif tag in FAMILY_TAGS:
        (lo, hi, lo_open), params_at, branch, note = _FAMILIES[tag]
        if not ((nu > lo if lo_open else nu >= lo) and nu < hi):
            raise RangeError(f"{tag} requires nu in {'(' if lo_open else '['}{lo:g}, {hi:g}), got {nu:g}")
        prof = branch(params_at(nu), nu)
    else:
        raise RangeError(f"unknown family tag {tag!r}")
    label = _family(prof)
    if label.tag != tag:  # next to nu = 2 pi, a(0) = 1 snaps to the flat separatrix gamma
        raise RangeError(f"{tag} at nu = {nu:.17g} builds a {label.tag} branch, not a {tag} one")
    return CatalogEntry(label, nu, prof, note)


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


def entry_metric(entry: CatalogEntry, h: float = 1e-3):
    """A verification-friendly metric for a catalog entry.

    The radial window keeps the profile between moderate levels so that the
    curvature stays bounded away from zero: blow-up sides stop at a = _A_CAP
    (at least 4 gamma), decaying sides at a = _A_FLOOR, converging sides
    where |a - gamma| drops to _CONV_DEV * gamma.  Decaying sides stop no
    lower than |gamma| / 4, and annuli start 16 times higher: in a / |gamma|
    G11 is one metric at every nu.  Grid spacing is h, finite and positive, with
    at least 2 samples and r_out / h below _MAX_SAMPLES.  One arc table over the
    window both measures and samples it, so r_extent is the window.
    """
    from . import geometry
    if not 0.0 < h < math.inf:
        raise DomainError(f"entry_metric needs a finite spacing h > 0, got {h!r}")
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
    # the moderate inner level; an edge's time is C + G(level), its v read from the level
    smooth_inner = prof.t0 < 0.0 or prof.tag0.kind == SMOOTH_ORIGIN
    if smooth_inner:  # catalog entries are anchored there
        t_in, a_in = 0.0, prof.a_ref if prof.t_ref == 0.0 else None
    else:
        t_in = prof.C + _separatrix_time(p, a_in := max(a_cap, 16.0 * a_floor))
    table = geometry._window_table(prof, t_in, prof.C + _separatrix_time(p, a_out), a_in, a_out)
    r_out = float(table.r[-1] - table.r[0])
    if not (steps := r_out / h) < _MAX_SAMPLES:  # inf where r_out / h overflows
        raise DomainError(f"entry_metric spacing h = {h!r} gives {steps:.3g} samples over r_out = {r_out!r}, "
                          f"past numpy's array size limit of {_MAX_SAMPLES} floats")
    return geometry._sampled_metric(table, 0.0, float(table.r[0]), (0.0, r_out), int(round(steps)) + 1, t_in == 0.0)
