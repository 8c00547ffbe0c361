import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from soliton2d import (
    Rescale,
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
