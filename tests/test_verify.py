import dataclasses
import math

import numpy as np
import pytest

from soliton2d import (
    DomainError,
    Rescale,
    ZeroCurvatureError,
    apply_symmetry,
    build_warped_metric,
    closed_form_profile,
    constant_profile,
    entry_metric,
    integrate_profile,
    make_params,
    smooth_extension_check,
    soliton_residual,
)
from conftest import FAMILY_SAMPLES, cached_entry, cached_metric, perturbed_cigar_metric


class TestSolitonResidual:
    def test_cigar_small_residuals(self, cigar_metric):
        rep = soliton_residual(cigar_metric)
        assert rep.max_tracefree <= 1e-5
        assert rep.max_laplace <= 1e-5
        assert rep.spacing == pytest.approx(1e-3, rel=1e-3)

    def test_potential_and_killing_cigar(self, cigar_metric):
        # analytic identity: u' = -2 tanh r = 2 mu b, u'/b = -2
        rep = soliton_residual(cigar_metric)
        assert rep.max_potential <= 1e-6
        assert rep.max_killing <= 1e-6

    def test_perturbation_breaks_identities(self):
        m = perturbed_cigar_metric(h=1e-3)
        rep = soliton_residual(m)
        assert rep.max_tracefree >= 1e-2
        assert rep.max_potential >= 1e-2
        assert rep.max_killing >= 1e-2

    def test_constant_curvature_exact(self):
        # u = log|K| constant: both residuals reduce to |2(lam - K)| = 0.
        # round hemisphere band: b = sin r, K = 1, with lambda chosen = K
        r = np.linspace(0.2, 1.2, 2001)
        from soliton2d import SolitonParams, WarpedMetric

        b = np.sin(r)
        m = WarpedMetric(
            params=SolitonParams(1.0, 1e-300), r=r, b=b, b_prime=np.cos(r),
            K=np.ones_like(r), t_of_r=0.25 * b * b,
            r_extent=(0.2, 1.2), profile=None,
        )
        rep = soliton_residual(m)
        assert rep.max_tracefree == pytest.approx(0.0, abs=1e-10)
        assert rep.max_laplace == pytest.approx(0.0, abs=1e-10)

    def test_zero_curvature_rejected(self):
        prof = integrate_profile(make_params(-2.0, -1.0), 0.0, 1.0, (0.0, 5.0))
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 2.0), 501)  # flat plane
        with pytest.raises(ZeroCurvatureError):
            soliton_residual(m)

    def test_grid_without_usable_component_is_typed_error(self):
        # the central differences need five samples
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 1.0), 4)
        with pytest.raises(DomainError, match="need at least 5 samples"):
            soliton_residual(m)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_is_typed_error(self, n):
        # the spacing r[1] - r[0] raised IndexError
        m = self._readme_cigar()
        m = dataclasses.replace(m, r=m.r[:n], b=m.b[:n], b_prime=m.b_prime[:n], K=m.K[:n], t_of_r=m.t_of_r[:n])
        with pytest.raises(DomainError, match="need at least 5 samples"):
            soliton_residual(m)

    @staticmethod
    def _readme_cigar():
        # the README's verify grid: the cigar over (0, 3) with 3001 samples
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        return build_warped_metric(prof, (0.0, 0.0), (0.0, 3.0), 3001)

    def _cigar_with(self, field, where, value):
        m = self._readme_cigar()
        arr = getattr(m, field).copy()
        arr[where] = value
        return dataclasses.replace(m, **{field: arr})

    @pytest.mark.parametrize("where,value", [(1500, math.nan), (1500, math.inf), (1500, -math.inf),
                                             (slice(0, 1500), math.nan)], ids=["nan", "inf", "-inf", "nan-half"])
    def test_non_finite_curvature_is_typed_error(self, where, value):
        # split into runs of one curvature sign, a nan or -inf sample was a run of its own and skipped, nan on
        # half the grid left the other half certified, and +inf reported 0.0 residuals (max(0.0, nan) == 0.0)
        with pytest.raises(DomainError, match="not finite"):
            soliton_residual(self._cigar_with("K", where, value))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_warping_is_typed_error(self, value):
        with pytest.raises(DomainError):
            soliton_residual(self._cigar_with("b", 1500, value))

    def test_sign_change_is_one_report(self):
        # K - 1 crosses 0 near r = 0.88: one report over the whole grid, where log|K| dips, so it is no soliton
        m = self._readme_cigar()
        m = dataclasses.replace(m, K=m.K - 1.0)
        rep = soliton_residual(m)
        assert rep.grid.size == m.r.size - 2
        assert rep.max_tracefree >= 1.0 and rep.max_laplace >= 1.0

    @pytest.mark.parametrize("nu", [2e4, 1e5, 1e12])
    def test_origin_mask_is_relative(self, nu):
        # in a / |gamma| the G11 entry is one metric at every nu, with b about
        # 1.1 / nu^2: an absolute origin mask b > 1e-8 left no sample from
        # nu of about 1.1e4 on
        ref = soliton_residual(entry_metric(cached_entry("G11", 3.0)))
        rep = soliton_residual(entry_metric(cached_entry("G11", nu)))
        for name in ("max_tracefree", "max_laplace", "max_potential"):
            assert getattr(rep, name) == pytest.approx(getattr(ref, name), rel=1e-3), name

    @pytest.mark.parametrize("tag", sorted(FAMILY_SAMPLES))
    def test_catalog_families_pass(self, tag):
        rep = soliton_residual(cached_metric(tag, FAMILY_SAMPLES[tag]))
        for name in ("max_tracefree", "max_laplace", "max_potential", "max_killing"):
            assert getattr(rep, name) <= 1e-5, (tag, name)

    def test_order_h2_certification(self):
        # truncation-dominated regime: halving from 4e-3 to 2e-3
        coarse = soliton_residual(entry_metric(cached_entry("G5", 1.0), h=4e-3))
        fine = soliton_residual(entry_metric(cached_entry("G5", 1.0), h=2e-3))
        for name in ("max_tracefree", "max_laplace", "max_potential", "max_killing"):
            assert getattr(coarse, name) / getattr(fine, name) >= 3.5

    def test_scale_covariance_of_residuals(self):
        # rescaled entry verifies at the same order: no hidden unit errors
        e = cached_entry("G6", math.pi)
        prof_s = apply_symmetry(e.profile, Rescale(2.0))
        m = build_warped_metric(prof_s, (0.0, 0.0), (0.0, 3.0), 3001)
        rep = soliton_residual(m)
        assert rep.max_tracefree <= 1e-5
        assert rep.max_killing <= 1e-5

    def test_report_json(self, cigar_metric):
        d = soliton_residual(cigar_metric).to_json_dict()
        assert set(d) >= {"max_tracefree", "max_laplace", "max_potential",
                          "max_killing", "spacing", "grid_points"}


class TestSmoothExtension:
    def test_cigar(self, cigar_entry):
        ok, K0 = smooth_extension_check(cigar_entry.profile)
        assert ok and K0 == pytest.approx(2.0)

    def test_g3_domain_error(self):
        prof = closed_form_profile(make_params(0.0, 1.0), -1.0)  # domain (1/4, inf)
        with pytest.raises(DomainError):
            smooth_extension_check(prof)

    def test_constant_window_without_origin_raises(self):
        # the flat plane a == 1 restricted to t in (-5, -1) has no origin circle
        with pytest.raises(DomainError):
            smooth_extension_check(constant_profile(make_params(-2.0, -1.0), (-5.0, -1.0)))

    def test_g5_origin_curvature(self):
        entry = cached_entry("G5", 1.0)
        ok, K0 = smooth_extension_check(entry.profile)
        assert ok
        # lam = 1, mu = 1: negatively curved at the origin
        assert K0 == pytest.approx(-1.0)
        assert K0 < 0

    def test_non_unit_anchor_fails(self):
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 2.0, (0.0, 0.1))
        ok, K0 = smooth_extension_check(prof)
        assert not ok and K0 is None

    @pytest.mark.parametrize("tag", ["G1_CIGAR", "G2_EXPLODING", "G4_PLUS", "G4_MINUS",
                                     "G5", "G6", "G7", "G10"])
    def test_origin_families_extend(self, tag):
        entry = cached_entry(tag, FAMILY_SAMPLES[tag])
        ok, K0 = smooth_extension_check(entry.profile)
        assert ok
        assert K0 == pytest.approx(entry.params.lam - 2.0 * entry.params.mu, abs=1e-9)
