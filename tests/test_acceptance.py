"""Acceptance suite: one test per criterion, one printed verdict line each.

Each criterion pins its tolerance explicitly.  The O(h^2) certification of
the residuals runs on the spacing pair (4e-3, 2e-3), where the truncation
term dominates the integrator's precision floor for every family; the
1e-5 bound itself is asserted at h = 1e-3.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from soliton2d import (
    Rescale,
    Scale,
    Translate,
    apply_symmetry,
    blow_up_time_closed,
    build_warped_metric,
    bump_variation,
    classify,
    entry_metric,
    fd_variation,
    first_variation,
    geometry_report,
    integrate_profile,
    make_params,
    noether_defect,
    smooth_extension_check,
    soliton_residual,
    time_between_levels,
    variation_report,
)
from soliton2d.taxonomy import FAMILY_TAGS
from conftest import NU_SAMPLES, cached_entry, cached_metric, perturbed_cigar_metric

# Residuals are scale covariant (they grow with the entry's curvature scale
# at fixed grid spacing), so the fixed h = 1e-3 sweep samples each family
# near unit scale; the wide-range table above exercises classification and
# geometry, and the beta-action covariance is checked separately.
NU_VERIFY = {
    "G1_CIGAR": (0.5, 0.8, 1.0),
    "G2_EXPLODING": (0.5, 0.8, 1.0),
    "G3": (0.3, 0.7, 1.0),
    "G4_PLUS": (1.45, 1.3, 1.38),  # middle entry drives the O(h^2) pair
    "G4_MINUS": (1.7, 2.2, 3.0),
    "G5": (0.5, 0.8, 1.0),
    "G6": (1.5, math.pi, 5.0),
    "G7": (7.0, 3.0 * math.pi, 12.0),
    "G8": (1.0, math.pi, 6.0),
    "G9": (1.0, 2.0, 4.0),
    "G10": (0.5, 0.8, 1.0),
    "G11": (0.5, 0.8, 1.0),
    "G12": (0.5, 0.8, 1.0),
}

# families whose metrics extend smoothly over the origin circle
ORIGIN_FAMILIES = ("G1_CIGAR", "G2_EXPLODING", "G4_PLUS", "G4_MINUS",
                   "G5", "G6", "G7", "G10")
COMPLETE_FAMILIES = {"G1_CIGAR", "G6", "G7", "G8"}
NEGATIVE_FAMILIES = {"G2_EXPLODING", "G3", "G5", "G7", "G8", "G9", "G10", "G11", "G12"}


@contextmanager
def verdict(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def boundary_kappa(profile, a_level=1e6) -> float:
    """Geodesic curvature 1/(2 a sqrt(t)) of the circle at profile level a."""
    t = profile.t_ref + time_between_levels(profile.params, profile.a_ref, a_level)
    return 1.0 / (2.0 * a_level * math.sqrt(t))


def test_criterion_01_closed_form_agreement():
    with verdict(1, "steady profiles match 1/(1 -+ 4t) to 1e-8 relative"):
        prof_m = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, 0.2))
        ts = np.linspace(0.0, 0.2, 100)
        exact = 1.0 / (1.0 - 4.0 * ts)
        assert np.max(np.abs(prof_m.a(ts) - exact) / exact) <= 1e-8
        prof_p = integrate_profile(make_params(0.0, 1.0), 0.0, 1.0, (0.0, 5.0))
        ts = np.linspace(0.0, 5.0, 100)
        exact = 1.0 / (1.0 + 4.0 * ts)
        assert np.max(np.abs(prof_p.a(ts) - exact) / exact) <= 1e-8


def test_criterion_02_blow_up_time():
    with verdict(2, "detected blow-up time matches (-1 + 2 ln 2)/4 to 1e-6"):
        mu, gamma = 1.0, 0.5
        prof = integrate_profile(make_params(2.0 * mu / gamma, mu), 0.0, 1.0,
                                 (0.0, math.inf))
        closed = blow_up_time_closed(mu, gamma)
        assert closed == pytest.approx((-1.0 + 2.0 * math.log(2.0)) / 4.0, abs=1e-15)
        assert abs(prof.t1 - closed) <= 1e-6


def test_criterion_03_metric_reconstruction():
    with verdict(3, "cigar/exploding metrics match tanh/tan forms to 1e-6"):
        for nu in (0.5, 1.0, 2.0):
            prof = integrate_profile(make_params(0.0, -nu * nu), 0.0, 1.0,
                                     (0.0, math.inf))
            m = build_warped_metric(prof, (0.0, 0.0), (0.0, 5.0 / nu), 2001)
            assert np.max(np.abs(m.b - np.tanh(nu * m.r) / nu)) <= 1e-6, nu
            prof_e = integrate_profile(make_params(0.0, nu * nu), 0.0, 1.0,
                                       (0.0, math.inf))
            me = build_warped_metric(prof_e, (0.0, 0.0), (0.0, 1.2 / nu), 2001)
            assert np.max(np.abs(me.b - np.tan(nu * me.r) / nu)) <= 1e-6, nu


def _report_for(tag, nu):
    entry = cached_entry(tag, nu)
    return entry, geometry_report(entry.profile)


def test_criterion_04_twelve_family_table():
    with verdict(4, "full family table: completeness, sign, end structure"):
        for tag in FAMILY_TAGS:
            for nu in NU_SAMPLES[tag]:
                entry, rep = _report_for(tag, nu)
                assert rep.complete == (tag in COMPLETE_FAMILIES), (tag, nu)
                expect_sign = "NEGATIVE" if tag in NEGATIVE_FAMILIES else "POSITIVE"
                assert rep.curvature_sign == expect_sign, (tag, nu)
                gamma = entry.params.gamma
                if tag in ("G6", "G7", "G8", "G9"):
                    assert rep.outer_end.kind == "CONE_END", (tag, nu)
                    assert abs(rep.outer_end.angle - 2.0 * math.pi / gamma) <= 1e-4
                    assert abs(rep.outer_end.angle - nu) <= 1e-4
                if tag == "G1_CIGAR":
                    assert rep.outer_end.kind == "CYLINDER_END"
                    # the closed form (1/nu) tanh(nu r) carries radius 1/nu
                    assert abs(rep.outer_end.radius - 1.0 / nu) <= 1e-4
                if tag == "G3":
                    assert rep.inner_end.kind == "CYLINDER_END"
                    assert abs(rep.inner_end.radius - nu) <= 1e-4
                if tag in ("G8", "G11"):
                    assert rep.inner_end.kind == "CUSP_END", (tag, nu)
                if tag in ("G2_EXPLODING", "G5", "G10", "G11", "G12"):
                    assert rep.outer_end.kind == "EXPLODING_END", (tag, nu)
                if tag in ("G4_PLUS", "G4_MINUS", "G9", "G12"):
                    edge = rep.outer_end if tag.startswith("G4") else rep.inner_end
                    assert edge.kind == "GEODESIC_BOUNDARY", (tag, nu)
                    assert abs(edge.length - 2.0 * math.pi) <= 1e-3, (tag, nu)
                    assert boundary_kappa(entry.profile) <= 1e-4, (tag, nu)
                if tag in ORIGIN_FAMILIES:
                    assert rep.inner_end.kind == "SMOOTH_POINT", (tag, nu)


def test_criterion_05_complete_iff_bounded():
    with verdict(5, "complete entries have bounded curvature; unbounded are incomplete"):
        for tag in FAMILY_TAGS:
            for nu in NU_SAMPLES[tag]:
                _, rep = _report_for(tag, nu)
                if rep.complete:
                    assert rep.bounded_curvature, (tag, nu)
                if not rep.bounded_curvature:
                    assert not rep.complete, (tag, nu)


def test_criterion_06_negative_complete_witnesses():
    with verdict(6, "g7(3 pi) and g8(pi): complete, negative, non-constant curvature"):
        for tag, nu in (("G7", 3.0 * math.pi), ("G8", math.pi)):
            _, rep = _report_for(tag, nu)
            assert rep.complete, tag
            assert rep.curvature_sign == "NEGATIVE", tag
            assert rep.K_sup < 0.0 or abs(rep.K_sup) < 1e-12, tag
            assert rep.K_sup - rep.K_inf >= 0.1, tag


def test_criterion_07_soliton_residuals():
    with verdict(7, "four residuals <= 1e-5 at h = 1e-3, O(h^2), perturbed >= 1e-2"):
        names = ("max_tracefree", "max_laplace", "max_potential", "max_killing")
        for tag in FAMILY_TAGS:
            for nu in NU_VERIFY[tag]:
                rep = soliton_residual(cached_metric(tag, nu, h=1e-3))
                for name in names:
                    assert getattr(rep, name) <= 1e-5, (tag, nu, name)
        # O(h^2): halving the spacing divides every component by about four
        for tag in FAMILY_TAGS:
            nu = NU_VERIFY[tag][1]
            coarse = soliton_residual(cached_metric(tag, nu, h=4e-3))
            fine = soliton_residual(cached_metric(tag, nu, h=2e-3))
            for name in names:
                c, f = getattr(coarse, name), getattr(fine, name)
                assert c / f >= 3.5, (tag, name, c, f)
        pert = soliton_residual(perturbed_cigar_metric(h=1e-3))
        assert min(pert.max_tracefree, pert.max_potential, pert.max_killing) >= 1e-2


def test_criterion_08_smooth_extension():
    with verdict(8, "origin curvature equals lambda - 2 mu to 1e-6"):
        for tag in ORIGIN_FAMILIES:
            for nu in NU_SAMPLES[tag]:
                entry = cached_entry(tag, nu)
                ok, K0 = smooth_extension_check(entry.profile)
                assert ok, (tag, nu)
                assert K0 == entry.params.lam - 2.0 * entry.params.mu
                # numeric limit through the dense representation, not the formula
                K_num = entry.params.curvature(entry.profile.a(1e-12))
                assert abs(K_num - K0) <= 1e-6, (tag, nu)
            # and the reconstructed metric approaches it at the first nodes
            metric = cached_metric(tag, NU_VERIFY[tag][1], h=1e-3)
            assert metric.r[0] == 0.0 and metric.b[0] == 0.0
            K0m = metric.params.lam - 2.0 * metric.params.mu
            assert abs(metric.K[1] - K0m) <= 1e-4 * max(1.0, abs(K0m)), tag
            assert abs(metric.b_prime[1] - 1.0) <= 1e-5, tag


def test_criterion_09_variational_characterization():
    with verdict(9, "trace-free criticality, Richardson slope, conservation law"):
        # vanishing trace-free first variation on every catalog family
        for tag in FAMILY_TAGS:
            m = entry_metric(cached_entry(tag, NU_VERIFY[tag][1]), h=2e-4)
            lo, hi = m.r[0], m.r[-1]
            pad = 0.15 * (hi - lo)
            v = bump_variation((lo + pad, hi - pad), psi_amp=1.0)
            assert abs(first_variation(m, v)) <= 1e-7, tag
        # and clearly nonzero on eight perturbed metrics (amplitudes kept
        # small enough that the curvature stays one-signed on the window)
        vp = bump_variation((0.5, 2.2), psi_amp=0.3)
        for amp, k in ((0.01, 2.0), (0.01, 3.0), (0.02, 1.5), (0.005, 4.0),
                       (0.015, 2.5), (0.008, 3.0), (0.0075, 3.5), (0.012, 1.0)):
            mp = perturbed_cigar_metric(h=1e-4, amp=amp, k=k)
            fa = first_variation(mp, vp)
            fd = fd_variation(mp, vp, eps=1e-4)
            assert abs(fa) >= 1e-3 and abs(fd) >= 1e-3, (amp, k)
            assert fd == pytest.approx(fa, rel=1e-3), (amp, k)
        # Richardson slope of fd against analytic on the cigar
        m1 = entry_metric(cached_entry("G1_CIGAR", 1.0), h=1e-4)
        v1 = bump_variation((0.5, 2.0), psi_amp=1.0)
        rep = variation_report(m1, v1, eps=1e-3)
        assert rep["slope_estimate"] >= 1.8
        # conservation law on catalog metrics
        for tag in FAMILY_TAGS:
            m = cached_metric(tag, NU_VERIFY[tag][1], h=1e-3)
            nd = noether_defect(m, (float(m.r[1]), float(m.r[-2])))
            assert nd <= 1e-5, tag


def test_criterion_10_symmetry_checks():
    with verdict(10, "scaling orbit of the cigar family; classification invariance"):
        base = cached_entry("G1_CIGAR", 1.0)
        for nu in (0.5, 2.0):
            target = cached_entry("G1_CIGAR", nu)
            image = apply_symmetry(base.profile, Rescale(1.0 / nu))
            assert image.params.mu == pytest.approx(target.params.mu, rel=1e-12)
            ts = np.linspace(-0.1 / nu**2, 0.2 / nu**2, 100)
            rel = np.abs(image.a(ts) - target.profile.a(ts)) / target.profile.a(ts)
            assert np.max(rel) <= 1e-8
            m = build_warped_metric(image, (0.0, 0.0), (0.0, 4.0 / nu), 801)
            assert np.max(np.abs(m.b - np.tanh(nu * m.r) / nu)) <= 1e-8
        # classification invariance under the three actions (time translation
        # restricted so blow-up times keep their sign, which the tag encodes;
        # the exact T0 = 0 families sit on that knife edge, so any nonzero
        # translation genuinely moves them and they are skipped here)
        for tag in FAMILY_TAGS:
            prof = cached_entry(tag, NU_SAMPLES[tag][1]).profile
            for action in (Scale(2.0), Scale(0.4), Rescale(1.7), Rescale(0.6)):
                assert classify(apply_symmetry(prof, action)).tag == tag, (tag, action)
            if tag in ("G8", "G11"):
                continue
            t0 = prof.t0
            tau = 0.3 * abs(t0) if math.isfinite(t0) and t0 != 0.0 else 0.3
            for action in (Translate(tau), Translate(-tau)):
                assert classify(apply_symmetry(prof, action)).tag == tag, (tag, action)
