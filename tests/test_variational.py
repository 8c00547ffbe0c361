import logging
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from soliton2d import (
    DomainError,
    Rescale,
    VariationField,
    WindowError,
    ZeroCurvatureError,
    apply_symmetry,
    build_warped_metric,
    bump_variation,
    energy,
    entry_metric,
    fd_variation,
    first_variation,
    integrate_profile,
    lie_variation,
    make_params,
    noether_defect,
    total_curvature,
    variation_report,
)
from soliton2d import variational
from soliton2d.variational import _simpson
from conftest import FAMILY_SAMPLES, cached_entry, cached_metric, perturbed_cigar_metric


@pytest.fixture(scope="module")
def fine_cigar():
    return entry_metric(cached_entry("G1_CIGAR", 1.0), h=1e-4)


@pytest.fixture(scope="module")
def tf_bump():
    return bump_variation((0.5, 2.0), psi_amp=1.0)


class TestSimpson:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 101, 1000, 1001, 20001])
    def test_matches_scipy(self, n):
        x = np.linspace(0.3, 2.9, n)
        for y in (np.exp(-x) * np.sin(5.0 * x) + 1.0, np.cosh(x), x**3 - 2.0 * x):
            want = simpson(y, x=x)
            assert _simpson(y, x) == pytest.approx(want, rel=1e-14, abs=1e-300), n


class TestEnergy:
    def test_constant_curvature_one_gives_zero(self):
        # K == 1 band: integrand K log K vanishes identically
        r = np.linspace(0.2, 1.2, 4001)
        from soliton2d import SolitonParams, WarpedMetric

        b = np.sin(r)
        m = WarpedMetric(params=SolitonParams(1.0, 1e-300), r=r, b=b,
                         b_prime=np.cos(r), K=np.ones_like(r), t_of_r=0.25 * b * b,
                         r_extent=(0.2, 1.2), profile=None)
        assert energy(m, (0.3, 1.1)) == pytest.approx(0.0, abs=1e-12)

    def test_cigar_against_quadrature_oracle(self, fine_cigar):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle, _ = quad(
                lambda r: 2.0 * math.pi * (2.0 / np.cosh(r) ** 2)
                * math.log(2.0 / math.cosh(r) ** 2) * math.tanh(r),
                0.0, 2.0, epsabs=1e-14, epsrel=1e-14,
            )
        got = energy(fine_cigar, (0.0, 2.0))
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_scaling_law(self, fine_cigar):
        # E[c^2 g] on the scaled window equals E[g] - 2 log(c) * total curvature
        c = 2.0
        base_window = (0.0, 2.0)
        E0 = energy(fine_cigar, base_window)
        TC = total_curvature(fine_cigar, base_window)
        prof_s = apply_symmetry(cached_entry("G1_CIGAR", 1.0).profile, Rescale(c))
        m_s = build_warped_metric(prof_s, (0.0, 0.0), (0.0, c * 2.0 + 0.5), 60001)
        E_s = energy(m_s, (0.0, c * 2.0))
        assert abs(E_s - (E0 - 2.0 * math.log(c) * TC)) <= 1e-6

    def test_scaling_law_half(self, fine_cigar):
        c = 0.5
        E0 = energy(fine_cigar, (0.0, 2.0))
        TC = total_curvature(fine_cigar, (0.0, 2.0))
        prof_s = apply_symmetry(cached_entry("G1_CIGAR", 1.0).profile, Rescale(c))
        m_s = build_warped_metric(prof_s, (0.0, 0.0), (0.0, c * 2.0 + 0.25), 30001)
        E_s = energy(m_s, (0.0, c * 2.0))
        assert abs(E_s - (E0 - 2.0 * math.log(c) * TC)) <= 1e-6

    def test_zero_curvature_window_rejected(self):
        prof = integrate_profile(make_params(-2.0, -1.0), 0.0, 1.0, (0.0, 5.0))
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 2.0), 501)
        with pytest.raises(ZeroCurvatureError):
            energy(m, (0.5, 1.5))


class TestFirstVariation:
    def test_tracefree_vanishes_on_soliton(self, fine_cigar, tf_bump):
        assert abs(first_variation(fine_cigar, tf_bump)) <= 1e-8

    @pytest.mark.parametrize("tag", ["G2_EXPLODING", "G6", "G8", "G4_MINUS"])
    def test_tracefree_vanishes_across_families(self, tag):
        m = entry_metric(cached_entry(tag, FAMILY_SAMPLES[tag]), h=2e-4)
        lo, hi = m.r[0], m.r[-1]
        pad = 0.15 * (hi - lo)
        v = bump_variation((lo + pad, hi - pad), psi_amp=1.0)
        assert abs(first_variation(m, v)) <= 1e-7

    def test_conformal_reduces_to_area_pairing(self):
        # on a soliton, Delta u + 2K = 2 lambda, so the conformal variation
        # collapses to -lambda * 2 pi * int phi b dr
        m = entry_metric(cached_entry("G6", math.pi), h=1e-4)
        v = bump_variation((0.3, 1.2), phi_amp=1.0)
        got = first_variation(m, v)
        sel = (m.r >= 0.3) & (m.r <= 1.2)
        expected = -m.params.lam * 2.0 * math.pi * simpson(
            np.asarray(v.phi_at(m.r[sel])) * m.b[sel], x=m.r[sel]
        )
        assert got == pytest.approx(expected, abs=1e-7)

    def test_perturbed_metric_nonzero(self):
        m = perturbed_cigar_metric(h=1e-4)
        v = bump_variation((0.5, 2.5), psi_amp=0.3)
        assert abs(first_variation(m, v)) >= 1e-3

    def test_support_must_fit(self, fine_cigar):
        with pytest.raises(WindowError):
            first_variation(fine_cigar, bump_variation((1.0, 99.0), psi_amp=1.0))

    def test_compact_support_enforced(self):
        with pytest.raises(WindowError):
            # a field that does not vanish at the window edge
            from soliton2d import VariationField

            VariationField(r0=0.5, r1=1.5, psi=lambda r: np.ones_like(np.asarray(r)))


class TestFdVariation:
    def test_richardson_slope_cigar(self, fine_cigar, tf_bump):
        rep = variation_report(fine_cigar, tf_bump, eps=1e-3)
        assert rep["slope_estimate"] >= 1.8

    def test_fd_small_on_soliton(self, fine_cigar):
        v = bump_variation((0.5, 2.0), psi_amp=0.05)
        assert abs(fd_variation(fine_cigar, v, eps=1e-4)) <= 1e-6

    def test_fd_rounding_floor_below_eps2(self, fine_cigar):
        # the quotient differences no O(1) data, so shrinking eps keeps
        # shrinking the error instead of exposing an eps-independent floor
        v = bump_variation((0.5, 2.0), psi_amp=0.05)
        assert abs(fd_variation(fine_cigar, v, eps=1e-5)) <= 1e-8

    def test_richardson_slope_g11_coarse_grid(self):
        # a second-order stencil bias on h = 1e-3 would flatten the slope
        m = entry_metric(cached_entry("G11", 0.5), h=1e-3)
        lo, hi = m.r[0], m.r[-1]
        pad = 0.15 * (hi - lo)
        v = bump_variation((lo + pad, hi - pad), psi_amp=1.0)
        assert variation_report(m, v, eps=1e-3)["slope_estimate"] >= 1.8

    def test_fd_matches_analytic_on_perturbed(self):
        m = perturbed_cigar_metric(h=1e-4)
        v = bump_variation((0.5, 2.5), psi_amp=0.3)
        fa = first_variation(m, v)
        fd = fd_variation(m, v, eps=1e-4)
        assert abs(fa) >= 1e-3 and abs(fd) >= 1e-3
        assert fd == pytest.approx(fa, rel=1e-4)

    def test_agreement_order_eps2(self, fine_cigar, tf_bump):
        analytic = first_variation(fine_cigar, tf_bump)
        errs = [abs(fd_variation(fine_cigar, tf_bump, eps=e) - analytic)
                for e in (1e-3, 5e-4, 2.5e-4)]
        slope = np.polyfit(np.log([1e-3, 5e-4, 2.5e-4]), np.log(errs), 1)[0]
        assert slope >= 1.8


class TestNoether:
    def test_cigar_defect_small(self, cigar_metric):
        # closed-form identity: Delta log(2 sech^2 r) + 4 sech^2 r = 0
        assert noether_defect(cigar_metric, (0.3, 2.0)) <= 1e-5

    def test_g6_defect_small(self):
        m = cached_metric("G6", math.pi)
        assert noether_defect(m, (0.3, 1.5)) <= 1e-5

    def test_perturbed_defect_large(self):
        m = perturbed_cigar_metric(h=1e-3)
        assert noether_defect(m, (0.5, 2.5)) >= 1e-2

    def test_matches_verify_module_identities(self, cigar_metric):
        # laplace residual of the verify module bounds the noether defect
        # (they differ by the exact algebraic identity 2(lam - K) + 2K = 2 lam)
        from soliton2d import soliton_residual

        rep = soliton_residual(cigar_metric)
        nd = noether_defect(cigar_metric, (cigar_metric.r[1], cigar_metric.r[-2]))
        assert abs(nd - rep.max_laplace) <= 1e-8


class TestLieVariation:
    def test_diffeo_invariance_on_soliton(self, fine_cigar):
        v = lie_variation(fine_cigar, (0.5, 2.0), amp=0.3)
        fv = first_variation(fine_cigar, v)
        # trace formula -(1/2) int (Delta u + 2K) div X dmu with div X = phi
        sel = (fine_cigar.r >= 0.5) & (fine_cigar.r <= 2.0)
        r = fine_cigar.r[sel]
        u = np.log(np.abs(fine_cigar.K))
        h = fine_cigar.spacing
        up = (u[2:] - u[:-2]) / (2 * h)
        upp = (u[2:] - 2 * u[1:-1] + u[:-2]) / (h * h)
        lap = np.zeros_like(fine_cigar.r)
        lap[1:-1] = upp + (fine_cigar.b_prime[1:-1] / fine_cigar.b[1:-1]) * up
        integrand = (lap[sel] + 2 * fine_cigar.K[sel]) * np.asarray(v.phi_at(r)) * fine_cigar.b[sel]
        trace_formula = -0.5 * simpson(integrand * 2 * math.pi, x=r)
        assert abs(fv - trace_formula) <= 1e-7
        assert abs(fv) <= 1e-7  # both vanish: divergence integrates to zero

    def test_lie_variation_fd_consistency(self, fine_cigar):
        v = lie_variation(fine_cigar, (0.5, 2.0), amp=0.1)
        fd = fd_variation(fine_cigar, v, eps=1e-4)
        assert abs(fd) <= 1e-5  # diffeomorphism invariance at the discrete level

    def test_window_at_smooth_origin(self):
        # b'/b is infinite at b = 0, where the bump xi vanishes to all orders: (b'/b) xi is its limit 0 there,
        # not nan, and the report's fields are finite with no warning (the module's filter)
        m = entry_metric(cached_entry("G1_CIGAR", 1.0), h=1e-3)
        v = lie_variation(m, (0.0, 0.793))
        assert v.phi_at(np.array([0.0]))[0] == 0.0 and v.psi_at(np.array([0.0]))[0] == 0.0
        rep = variation_report(m, v, eps=1e-3)
        assert all(math.isfinite(val) for val in rep.values())


class TestVariationReport:
    def test_fields(self, fine_cigar, tf_bump):
        rep = variation_report(fine_cigar, tf_bump, eps=1e-3)
        assert set(rep) == {"analytic", "finite_difference", "eps",
                            "slope_estimate", "noether_defect"}
        assert rep["eps"] == 1e-3
        assert rep["noether_defect"] <= 1e-4

    def test_first_difference_reused_in_slope_fit(self, fine_cigar, tf_bump):
        # the reported difference is fd_variation at eps, and the slope is the
        # closed form through fd_variation at eps, eps / 2 and eps / 4
        eps = [1e-3, 5e-4, 2.5e-4]
        rep = variation_report(fine_cigar, tf_bump, eps=eps[0])
        analytic = first_variation(fine_cigar, tf_bump)
        errs = [abs(fd_variation(fine_cigar, tf_bump, e) - analytic) for e in eps]
        assert rep["finite_difference"] == fd_variation(fine_cigar, tf_bump, eps[0])
        assert rep["slope_estimate"] == math.log(errs[2] / errs[0]) / math.log(0.25)
        # the least-squares slope through three points equally spaced in log(eps)
        assert rep["slope_estimate"] == pytest.approx(np.polyfit(np.log(eps), np.log(errs), 1)[0], rel=1e-12)

    def test_nan_curvature_raises(self, fine_cigar):
        # a nan in the perturbed curvature K~ passed the |K~| < ZERO_K test and gave a nan energy
        v = VariationField(0.5, 2.0, phi=lambda r: np.where(np.abs(np.asarray(r, float) - 1.25) < 0.1, np.nan, 0.0))
        with pytest.raises(DomainError, match="not finite"):
            fd_variation(fine_cigar, v, eps=1e-3)
        with pytest.raises(DomainError, match="not finite"):
            variation_report(fine_cigar, v, eps=1e-3)

    def test_non_finite_quotient_raises(self, fine_cigar, tf_bump, monkeypatch):
        # an inf quotient has an inf error, which would pass any slope bound as an inf slope
        monkeypatch.setattr(variational, "_perturbed_energy", lambda fields, eps: math.inf if eps > 0.0 else 0.0)
        with pytest.raises(DomainError, match="not finite"):
            variation_report(fine_cigar, tf_bump, eps=1e-3)

    @pytest.mark.parametrize("err,err4,slope", [(0.0, 1e-9, -math.inf), (1e-9, 0.0, math.inf), (0.0, 0.0, math.inf)])
    def test_slope_where_an_error_is_exactly_zero(self, fine_cigar, tf_bump, monkeypatch, err, err4, slope):
        # an exact quotient at eps with an error at eps/4 gave slope +inf, which passes any slope bound
        analytic = first_variation(fine_cigar, tf_bump)
        monkeypatch.setattr(variational, "_fd_quotient",
                            lambda fields, eps: (analytic + (err if eps == 1e-3 else err4), 0.0, 0.0))
        assert variation_report(fine_cigar, tf_bump, eps=1e-3)["slope_estimate"] == slope

    @pytest.mark.parametrize("tag", list(FAMILY_SAMPLES))
    def test_report_matches_public_functions_bitwise(self, tag):
        # the atlas configuration (h = 1e-3, a trace-free bump on the middle 70 %, eps = 1e-3): every field
        # equals the public function it stands for, the slope the closed form through fd_variation at eps
        # and eps / 4, which is the least-squares slope through eps, eps / 2 and eps / 4
        m = entry_metric(cached_entry(tag, FAMILY_SAMPLES[tag]), h=1e-3)
        lo, hi = float(m.r[0]), float(m.r[-1])
        v = bump_variation((lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo)), psi_amp=1.0)
        eps = [1e-3, 5e-4, 2.5e-4]
        rep = variation_report(m, v, eps=eps[0])
        analytic = first_variation(m, v)
        fds = [fd_variation(m, v, e) for e in eps]
        errs = [abs(fd - analytic) for fd in fds]
        assert rep["analytic"] == analytic
        assert rep["finite_difference"] == fds[0]
        assert rep["noether_defect"] == noether_defect(m, (v.r0, v.r1))
        assert rep["slope_estimate"] == math.log(errs[2] / errs[0]) / math.log(0.25)
        assert rep["slope_estimate"] == pytest.approx(np.polyfit(np.log(eps), np.log(errs), 1)[0], rel=1e-9, abs=1e-9)


class TestReportErrors:
    """variation_report raises the typed error of each failing part, as first_variation, the
    finite differences and noether_defect raise them on their own."""

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_eps_outside_open_half_line(self, cigar_metric, eps):
        # a nan eps returned finite_difference nan and slope inf, which passes any slope bound
        v = bump_variation((0.5, 2.0), psi_amp=1.0)
        with pytest.raises(DomainError, match="eps"):
            variation_report(cigar_metric, v, eps=eps)
        with pytest.raises(DomainError, match="eps"):
            fd_variation(cigar_metric, v, eps=eps)

    @pytest.mark.parametrize("eps", [5e-324, 1e-323])
    def test_eps_whose_quarter_underflows(self, cigar_metric, eps):
        # the quotient at eps / 4 divided by 2 (eps / 4) = 0 and raised ZeroDivisionError
        with pytest.raises(DomainError, match="underflows"):
            variation_report(cigar_metric, bump_variation((0.5, 2.0), psi_amp=1.0), eps=eps)

    @pytest.mark.parametrize("eps", [1e-10, 1e-12, 1e-14, 1e-16, 1e-20, 1e-300])
    def test_eps_too_small_to_perturb_the_metric(self, eps):
        # max |p| = 1.5: eps 1e-10 to 1e-300 returned quotients of 3.0198e-4 (1e-10), 2.22e-4, 0.0, -3.33
        # and 0.0 against 3.0235e-4 at eps 1e-4 to 1e-8, with no error
        m = entry_metric(cached_entry("G1_CIGAR", 1.0), h=1e-2)
        v = bump_variation((0.5, 2.0), phi_amp=0.5, psi_amp=1.0)
        for call in (fd_variation, variation_report):
            with pytest.raises(DomainError, match="too small: it moves the metric by"):
                call(m, v, eps)

    def test_eps_whose_quarter_is_too_small(self):
        # 1.5 eps = 3e-8 passes 2^-26 = 1.49e-8, 1.5 eps / 4 does not
        m = entry_metric(cached_entry("G1_CIGAR", 1.0), h=1e-2)
        v = bump_variation((0.5, 2.0), phi_amp=0.5, psi_amp=1.0)
        fd_variation(m, v, 2e-8)
        with pytest.raises(DomainError, match=r"^eps = 5e-09 is too small"):
            variation_report(m, v, 2e-8)

    def test_zero_field_at_any_eps(self, cigar_metric):
        # nothing to perturb: the quotient is exactly 0, not rounding
        v = bump_variation((0.5, 2.0), phi_amp=0.0, psi_amp=0.0)
        assert fd_variation(cigar_metric, v, 1e-300) == 0.0

    def test_support_outside_the_metric(self, cigar_metric):
        v = bump_variation((1.0, 99.0), psi_amp=1.0)
        for call in (lambda: variation_report(cigar_metric, v, 1e-3), lambda: fd_variation(cigar_metric, v, 1e-3)):
            with pytest.raises(WindowError, match="support"):
                call()

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_window_of_too_few_points_for_the_defect(self, cigar_metric, k):
        # k grid points: enough for the analytic and finite-difference parts, which pad the window
        # by 2 and 3 points, too few for the conservation defect on the window itself; eps / 4 moves
        # the metric by at least 2.4e-8, above the 2^-26 = 1.5e-8 that a quotient needs
        r, h = cigar_metric.r, cigar_metric.spacing
        v = bump_variation((r[500] - 0.5 * h, r[499 + k] + 0.5 * h), psi_amp=1e-3)
        first_variation(cigar_metric, v)
        fd_variation(cigar_metric, v, eps=1e-4)
        with pytest.raises(WindowError, match="too few"):
            noether_defect(cigar_metric, (v.r0, v.r1))
        with pytest.raises(WindowError, match="too few"):
            variation_report(cigar_metric, v, eps=1e-4)

    @pytest.mark.parametrize("r0,r1", [(1.0, 1.0), (2.0, 1.0)])
    def test_empty_window(self, cigar_metric, r0, r1):
        with pytest.raises(WindowError, match="empty variation window"):
            VariationField(r0=r0, r1=r1)
        with pytest.raises(WindowError, match="empty window"):
            noether_defect(cigar_metric, (r0, r1))

    def test_zero_curvature_in_the_window(self):
        prof = integrate_profile(make_params(-2.0, -1.0), 0.0, 1.0, (0.0, 5.0))
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 2.0), 501)
        with pytest.raises(ZeroCurvatureError):
            variation_report(m, bump_variation((0.5, 1.5), psi_amp=1.0), eps=1e-4)

    def test_degenerate_perturbation(self, cigar_metric):
        # 1 - eps psi < 0 at the bump's peak
        with pytest.raises(DomainError, match="degenerates"):
            variation_report(cigar_metric, bump_variation((0.5, 2.0), psi_amp=1.0), eps=10.0)


class TestReportDebugRecord:
    def test_record(self, cigar_metric, caplog):
        v = bump_variation((0.5, 2.0), psi_amp=1.0)
        with caplog.at_level(logging.DEBUG, logger="soliton.variational"):
            rep = variation_report(cigar_metric, v, eps=1e-3)
        (record,) = [rec for rec in caplog.records if rec.name == "soliton.variational"]
        assert record.levelno == logging.DEBUG
        n, e_up, e_down, e4_up, e4_down, fd, fd4, err, err4 = record.args
        sel = (cigar_metric.r >= 0.5) & (cigar_metric.r <= 2.0)
        assert n == np.count_nonzero(sel) + 6  # the window widened by 3 points a side
        assert fd == rep["finite_difference"] == (e_up - e_down) / 2e-3
        assert fd4 == fd_variation(cigar_metric, v, 2.5e-4) == (e4_up - e4_down) / 5e-4
        assert (err, err4) == (abs(fd - rep["analytic"]), abs(fd4 - rep["analytic"]))

    def test_no_record_above_debug(self, cigar_metric, caplog):
        with caplog.at_level(logging.INFO, logger="soliton.variational"):
            variation_report(cigar_metric, bump_variation((0.5, 2.0), psi_amp=1.0), eps=1e-3)
        assert not [rec for rec in caplog.records if rec.name == "soliton.variational"]

    @staticmethod
    def conformal_departure(metric, window, amp, eps):
        """max |K~ / K - 1| on the window's grid points for h = phi g, phi = amp bump: the conformal metric
        e^(2w) g, e^(2w) = 1 + eps phi, has K~ = (K - w'' - (b'/b) w') / (1 + eps phi), all from the bump's
        closed-form derivatives."""
        (r0, r1), sel = window, (metric.r >= window[0]) & (metric.r <= window[1])
        r, b, bp, K = metric.r[sel], metric.b[sel], metric.b_prime[sel], metric.K[sel]
        c, wd = 0.5 * (r0 + r1), 0.5 * (r1 - r0)
        x = np.clip((r - c) / wd, -1.0 + 1e-9, 1.0 - 1e-9)
        one = 1.0 - x * x
        B = np.exp(1.0 - 1.0 / one)
        phi, phi1, phi2 = amp * B, amp * B * (-2.0 * x / one**2) / wd, amp * B * (6.0 * x**4 - 2.0) / one**4 / wd**2
        g = 1.0 + eps * phi
        w1, w2 = 0.5 * eps * phi1 / g, 0.5 * eps * phi2 / g - 0.5 * (eps * phi1 / g) ** 2
        return float(np.max(np.abs((K - w2 - bp / b * w1) / g / K - 1.0)))

    def test_record_holds_the_curvature_departure(self, cigar_metric, caplog):
        # max |K~ / K - 1| at +-eps and +-eps/4, in the message and as k_departure, against the conformal
        # closed form for a conformal bump (p = q = phi)
        window, amp, eps = (0.5, 2.0), 1.0, 1e-3
        v = bump_variation(window, phi_amp=amp)
        with caplog.at_level(logging.DEBUG, logger="soliton.variational"):
            variation_report(cigar_metric, v, eps=eps)
        (record,) = [rec for rec in caplog.records if rec.name == "soliton.variational"]
        dep = record.k_departure
        assert record.getMessage().endswith("max |K~ / K - 1| at +-eps, +-eps/4 %r, %r, %r, %r" % dep)
        for got, e in zip(dep, (eps, -eps, eps / 4.0, -eps / 4.0)):
            assert got == pytest.approx(self.conformal_departure(cigar_metric, window, amp, e), rel=1e-6)
        assert dep[2] == pytest.approx(dep[0] / 4.0, rel=0.05)  # K~ - K is first order in eps

    def test_departure_computed_only_at_debug(self, cigar_metric, caplog, monkeypatch):
        # the four energies form K~ four times; the indicator forms it four more times, at DEBUG only
        calls, perturbed = [], variational._perturbed_curvature
        monkeypatch.setattr(variational, "_perturbed_curvature", lambda *args: calls.append(1) or perturbed(*args))
        v = bump_variation((0.5, 2.0), psi_amp=1.0)
        for level, n in ((logging.INFO, 4), (logging.DEBUG, 8)):
            calls.clear()
            with caplog.at_level(level, logger="soliton.variational"):
                variation_report(cigar_metric, v, eps=1e-3)
            assert len(calls) == n

    @pytest.mark.parametrize("nu,eps,slope_lo,slope_hi,dep_lo,dep_hi", [
        (1.0, 1e-3, 1.4, 1.6, 2.0, 2.2), (1.0, 1e-4, 1.95, 2.05, 0.2, 0.22),
        (2.5, 1e-3, 2.1, 2.25, 0.85, 0.9), (4.0, 1e-3, 2.0, 2.1, 0.55, 0.6),
    ])
    def test_g9_slope_follows_the_departure(self, caplog, nu, eps, slope_lo, slope_hi, dep_lo, dep_hi):
        # the atlas configuration: on G9 at nu = 1 min |K| in the window is 0.0115, so K~ departs from K by
        # 2x at eps = 1e-3 and E(eps) leaves its quadratic regime (slope 1.49); at eps = 1e-4, or where |K|
        # is larger (nu = 2.5, 4), the slope is about 2
        m = entry_metric(cached_entry("G9", nu), h=1e-3)
        lo, hi = float(m.r[0]), float(m.r[-1])
        v = bump_variation((lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo)), psi_amp=1.0)
        with caplog.at_level(logging.DEBUG, logger="soliton.variational"):
            rep = variation_report(m, v, eps=eps)
        (record,) = [rec for rec in caplog.records if rec.name == "soliton.variational"]
        assert slope_lo < rep["slope_estimate"] < slope_hi
        assert dep_lo < max(record.k_departure) < dep_hi
