import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from soliton2d import (
    INFINITE,
    DomainError,
    MuZeroError,
    NonpositiveAnchorError,
    NotSteadyError,
    RangeError,
    Rescale,
    Scale,
    SolitonParams,
    Translate,
    apply_symmetry,
    blow_up_time_closed,
    classify,
    closed_form_profile,
    geometry_report,
    integrate_profile,
    make_params,
)
from soliton2d.ode import (
    BLOW_UP,
    CONVERGES,
    DECAY_TO_ZERO,
    SMOOTH_ORIGIN,
    TRUNCATED,
    _PSI_SERIES,
    _psi,
    _separatrix_time,
    implicit_profile,
)
from conftest import mp_time


def separable_time_oracle(mu, gamma, a_from, a_to):
    """Quadrature of dt = da / (4 mu a^2 (a/gamma - 1)), independent of the solver.

    Substituting u = 1/a turns the infinite range into [0, 1/a_from] with a
    smooth integrand u gamma / (4 mu (1 - u gamma)).
    """
    assert math.isinf(a_to)
    if math.isinf(gamma):
        return -1.0 / (4.0 * mu * a_from)
    f = lambda u: u * gamma / (4.0 * mu * (1.0 - u * gamma))
    val, err = quad(f, 0.0, 1.0 / a_from, limit=200, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-9
    return val


class TestMakeParams:
    def test_steady_gamma_infinite(self):
        p = make_params(0.0, -1.0)
        assert p.gamma == INFINITE
        assert p.kind == "steady"

    def test_gamma_ratio(self):
        p = make_params(-2.0, -1.0)
        assert p.gamma == 1.0
        assert p.kind == "expanding"

    def test_mu_zero_rejected(self):
        with pytest.raises(MuZeroError):
            make_params(0.5, 0.0)

    def test_overflowing_scale_rejected(self):
        # gamma = 2 (mu / lambda) is finite here, but 4 mu is not
        with pytest.raises(RangeError):
            make_params(1e308, 1e308)
        with pytest.raises(RangeError):
            make_params(0.0, -1e308)
        assert make_params(1e308, 4e307).gamma == 2.0 * 4e307 / 1e308

    @pytest.mark.parametrize("lam,mu", [(1e-300, -1e10), (-1e-300, 1e10), (1e300, 1e-300)],
                             ids=["gamma_-inf", "gamma_+inf", "gamma_0"])
    def test_gamma_outside_float_range_rejected(self, lam, mu):
        # 2 mu / lambda overflows or underflows: the first read as steady
        # (G1_CIGAR), the last divided by gamma = 0
        with pytest.raises(RangeError, match="gamma"):
            make_params(lam, mu)
        with pytest.raises(RangeError):
            SolitonParams(lam, mu)

    def test_numpy_scalars_become_floats(self):
        # numpy bools do not subtract: the phase-line and T0 signs raised TypeError
        p = SolitonParams(np.float64(-1.0), np.float64(-1.0))
        assert type(p.lam) is float and type(p.mu) is float
        assert classify(integrate_profile(p, 0.0, 1.0, (-math.inf, math.inf))).tag == "G6"
        prof = integrate_profile(make_params(-1.0, -1.0), np.float64(0.0), np.float64(3.0),
                                 (-math.inf, math.inf))
        assert type(prof.a_ref) is float and type(prof.t_ref) is float
        assert classify(prof).tag == "G7"

    def test_sign_classification(self):
        assert make_params(1.0, 1.0).kind == "shrinking"
        assert make_params(0.0, 1.0).kind == "steady"
        assert make_params(-1.0, 1.0).kind == "expanding"


class TestClosedForm:
    def test_cigar_branch(self):
        p = make_params(0.0, -1.0)
        prof = closed_form_profile(p, 1.0)
        assert prof.t0 == -math.inf
        assert prof.t1 == pytest.approx(0.25, abs=0)
        assert prof.tag1.kind == BLOW_UP
        assert prof.a(0.125) == pytest.approx(2.0, rel=1e-15)

    def test_exploding_branch(self):
        p = make_params(0.0, 1.0)
        prof = closed_form_profile(p, 1.0)
        assert prof.t0 == pytest.approx(-0.25, abs=0)
        assert prof.t1 == math.inf
        assert prof.tag1.kind == DECAY_TO_ZERO
        assert prof.a(1.0) == pytest.approx(0.2, rel=1e-15)

    def test_reciprocal_branch_behind_pole(self):
        p = make_params(0.0, 1.0)
        prof = closed_form_profile(p, -1.0)
        assert prof.t0 == pytest.approx(0.25, abs=0)
        assert prof.tag0.kind == BLOW_UP
        assert prof.a(0.5) == pytest.approx(1.0, rel=1e-15)

    def test_requires_steady(self):
        with pytest.raises(NotSteadyError):
            closed_form_profile(make_params(1.0, 1.0), 1.0)

    def test_outside_domain_raises(self):
        prof = closed_form_profile(make_params(0.0, -1.0), 1.0)
        with pytest.raises(DomainError):
            prof.a(0.3)


class TestIntegrateProfile:
    def test_matches_cigar_closed_form(self):
        p = make_params(0.0, -1.0)
        prof = integrate_profile(p, 0.0, 1.0, (0.0, 0.2))
        ts = np.linspace(0.0, 0.2, 100)
        exact = 1.0 / (1.0 - 4.0 * ts)
        assert np.max(np.abs(prof.a(ts) - exact) / exact) <= 1e-8

    def test_separatrix_snaps_to_constant(self):
        p = make_params(-2.0, -1.0)  # gamma = 1
        prof = integrate_profile(p, 0.0, 1.0, (0.0, 5.0))
        assert prof.is_constant
        assert prof.tag0.kind == TRUNCATED and prof.tag1.kind == TRUNCATED
        assert prof.a(3.3) == 1.0

    def test_converges_to_separatrix(self):
        # gamma = 1 stable for mu < 0; fitted exponential envelope
        p = make_params(-2.0, -1.0)
        prof = integrate_profile(p, 0.0, 0.5, (0.0, 25.0))
        assert prof.t1 == math.inf
        assert prof.tag1.kind == CONVERGES
        assert prof.tag1.value == pytest.approx(1.0)
        ts = np.linspace(2.0, 20.0, 40)
        dev = np.abs(prof.a(ts) - 1.0)
        assert np.all(dev <= np.exp(-ts))
        # fitted decay rate should be close to 4 mu gamma = -4
        msk = dev > 1e-12
        slope = np.polyfit(ts[msk], np.log(dev[msk]), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.1)

    def test_smooth_origin_tag(self):
        p = make_params(0.0, -1.0)
        prof = integrate_profile(p, 0.0, 1.0, (0.0, 0.2))
        assert prof.tag0.kind == SMOOTH_ORIGIN

    def test_nonpositive_anchor(self):
        with pytest.raises(NonpositiveAnchorError):
            integrate_profile(make_params(0.0, 1.0), 0.0, -1.0, (0.0, 1.0))

    def test_implicit_branch_on_separatrix_raises(self):
        # a == gamma is the constant solution, not a branch t = C + G(a)
        with pytest.raises(DomainError):
            implicit_profile(make_params(-2.0, -1.0), 0.0, 1.0, 0.0, (-math.inf, math.inf))

    def test_window_must_contain_anchor(self):
        with pytest.raises(DomainError):
            integrate_profile(make_params(0.0, 1.0), 2.0, 1.0, (0.0, 1.0))

    def test_decay_tagged_at_infinity(self):
        p = make_params(0.0, 1.0)
        prof = integrate_profile(p, 0.0, 1.0, (0.0, math.inf))
        assert prof.t1 == math.inf
        assert prof.tag1.kind == DECAY_TO_ZERO
        assert prof.a(1.0) == pytest.approx(0.2, rel=1e-10)

    def test_backward_blow_up(self):
        # decreasing branch above the separatrix: blow-up in the past
        p = SolitonParams(-1.0, -0.25)  # gamma = 1/2
        prof = integrate_profile(p, 0.0, 1.0, (-10.0, 10.0))
        assert prof.tag0.kind == BLOW_UP
        oracle = separable_time_oracle(p.mu, p.gamma, 1.0, np.inf)
        assert prof.t0 == pytest.approx(oracle, abs=1e-6)


class TestBlowUpTime:
    def test_closed_form_vs_quadrature(self):
        T = blow_up_time_closed(1.0, 0.5)
        assert T == pytest.approx((-1.0 + 2.0 * math.log(2.0)) / 4.0, abs=1e-15)
        assert T == pytest.approx(separable_time_oracle(1.0, 0.5, 1.0, np.inf), abs=1e-12)

    def test_negative_gamma_case(self):
        T = blow_up_time_closed(-1.0, -1.0)
        assert T == pytest.approx((1.0 - math.log(2.0)) / 4.0, abs=1e-15)
        assert T == pytest.approx(separable_time_oracle(-1.0, -1.0, 1.0, np.inf), abs=1e-12)

    def test_gamma_one_rejected(self):
        with pytest.raises(DomainError):
            blow_up_time_closed(1.0, 1.0)

    def test_numerical_halt_matches_closed_form(self):
        mu, gamma = 1.0, 0.5
        p = SolitonParams(2.0 * mu / gamma, mu)
        prof = integrate_profile(p, 0.0, 1.0, (0.0, math.inf))
        assert prof.t1 == pytest.approx(blow_up_time_closed(mu, gamma), abs=1e-6)

    @pytest.mark.parametrize(
        "mu,gamma",
        [(1.0, 0.5), (2.0, 0.25), (-1.0, -1.0), (-0.5, -4.0), (0.3, 0.9), (-1.0, 0.5)],
    )
    def test_halting_oracle_family(self, mu, gamma):
        """Numerical halting time matches the separable-integral quadrature."""
        lam = 2.0 * mu / gamma
        prof = integrate_profile(SolitonParams(lam, mu), 0.0, 1.0, (-10.0, 10.0))
        oracle = separable_time_oracle(mu, gamma, 1.0, np.inf)
        T = prof.t1 if oracle > 0 else prof.t0
        assert T == pytest.approx(oracle, abs=1e-6)


class TestResidualInvariant:
    @pytest.mark.parametrize(
        "lam,mu,a0",
        [(0.0, -1.0, 1.0), (0.0, 1.0, 1.0), (-2.0, -1.0, 0.5), (4.0, 1.0, 1.0), (-1.0, 1.0, 1.0)],
    )
    def test_sampled_residual_below_ten_tol(self, lam, mu, a0):
        prof = integrate_profile(SolitonParams(lam, mu), 0.0, a0, (0.0, math.inf))
        assert prof.max_residual(n=100) <= 1e-9

    def test_closed_form_residual(self):
        prof = closed_form_profile(make_params(0.0, -1.0), 1.0)
        assert prof.max_residual(n=100) <= 1e-9


class TestSymmetries:
    @pytest.mark.parametrize("mu,phi,action,analytic,t_pole,ts", [
        (-1.0, 1.0, Scale(2.0), lambda t: 2.0 / (1.0 - 4.0 * t), 0.25,
         np.linspace(-0.2, 0.2, 21)),
        # a(t) = 1/(4t - 1) blows up at t = 1/4; its images are a(t/beta^2) and a(t - tau)
        (1.0, -1.0, Rescale(1.7), lambda t: 1.0 / (4.0 * t / 1.7**2 - 1.0), 0.25 * 1.7**2,
         0.25 * 1.7**2 + np.geomspace(0.05, 50.0, 25)),
        (1.0, -1.0, Translate(0.3), lambda t: 1.0 / (4.0 * (t - 0.3) - 1.0), 0.55,
         0.55 + np.geomspace(0.05, 50.0, 25)),
    ], ids=["scale_cigar", "rescale_g3", "translate_g3"])
    def test_closed_form_images(self, mu, phi, action, analytic, t_pole, ts):
        out = apply_symmetry(closed_form_profile(make_params(0.0, mu), phi), action)
        assert t_pole == pytest.approx(out.t1 if mu < 0.0 else out.t0, rel=1e-15)
        assert_allclose(out.a(ts), analytic(ts), rtol=1e-14)
        # transformed parameters must keep the residual at solver accuracy
        assert max(out.residual(t) for t in ts) <= 1e-10

    def test_scaled_cigar_has_cone_vertex(self):
        # a(0) = 2 after Scale(2): the origin is a cone of angle 2 pi / 2
        out = apply_symmetry(closed_form_profile(make_params(0.0, -1.0), 1.0), Scale(2.0))
        rep = geometry_report(out)
        assert rep.inner_end.kind == "CONE_END" and not rep.complete_inner
        assert rep.inner_end.angle == pytest.approx(math.pi, rel=1e-15)

    def test_translate_shifts_domain_only(self):
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        out = apply_symmetry(prof, Translate(0.1))
        assert out.t1 == pytest.approx(prof.t1 + 0.1, rel=1e-12)
        assert out.a(0.225) == pytest.approx(prof.a(0.125), rel=1e-13)

    def test_rescale_parameters_consistent(self):
        p = make_params(-2.0, -1.0)
        prof = integrate_profile(p, 0.0, 0.5, (0.0, 25.0))
        out = apply_symmetry(prof, Rescale(2.0))
        assert out.params.lam == pytest.approx(-0.5)
        assert out.params.mu == pytest.approx(-0.25)
        # gamma' = 2 mu'/lam' preserved by the metric-scaling action
        assert out.params.gamma == pytest.approx(1.0)
        assert out.residual(4.0) <= 1e-9

    def test_rescale_preserves_unit_anchor_at_origin(self):
        p = make_params(-1.0, -0.5)  # gamma = 1, a(0) = 1 branch below
        prof = integrate_profile(p, 0.0, 0.25, (0.0, 60.0))
        out = apply_symmetry(prof, Rescale(3.0))
        assert out.a(0.0) == pytest.approx(prof.a(0.0), rel=1e-14)

    def test_symmetry_commutes_with_integration(self):
        # transform-then-integrate equals integrate-then-transform
        p = make_params(-2.0, -1.0)
        base = integrate_profile(p, 0.0, 0.5, (0.0, 10.0))
        beta = 1.7
        viewed = apply_symmetry(base, Rescale(beta))
        direct = integrate_profile(
            viewed.params, 0.0, 0.5, (0.0, 10.0 * beta**2)
        )
        ts = np.linspace(0.5, 10.0 * beta**2 * 0.9, 50)
        assert_allclose(viewed.a(ts), direct.a(ts), rtol=1e-8)

    def test_scale_commutes_with_integration(self):
        p = SolitonParams(4.0, 1.0)
        base = integrate_profile(p, 0.0, 1.0, (0.0, 0.09))
        alpha = 2.5
        viewed = apply_symmetry(base, Scale(alpha))
        direct = integrate_profile(viewed.params, 0.0, alpha, (0.0, 0.09))
        ts = np.linspace(0.0, 0.089, 50)
        assert_allclose(viewed.a(ts), direct.a(ts), rtol=1e-8)


@st.composite
def ode_cases(draw):
    mu = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
    lam = draw(st.sampled_from([-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0]))
    a0 = draw(st.floats(min_value=0.05, max_value=20.0, allow_nan=False))
    return lam, mu, a0


class TestMonotonicityTrichotomy:
    @given(ode_cases())
    @settings(max_examples=60, deadline=None)
    def test_direction_matches_phase_line(self, case):
        lam, mu, a0 = case
        p = SolitonParams(lam, mu)
        g = p.gamma
        if math.isfinite(g) and g > 0 and abs(a0 - g) <= 1e-10 * max(1.0, g):
            return  # separatrix neighborhood exercised elsewhere
        prof = integrate_profile(p, 0.0, a0, (0.0, 0.05))
        direction = prof.monotonicity()
        q = p.rhs(a0)
        expected = "increasing" if q > 0 else "decreasing"
        assert direction == expected
        lo, hi = prof.sample_range(0.01)
        ts = np.linspace(lo, hi, 30)
        vals = prof.a(ts)
        if expected == "increasing":
            assert np.all(np.diff(vals) > -1e-14)
        else:
            assert np.all(np.diff(vals) < 1e-14)

    @given(ode_cases())
    @settings(max_examples=60, deadline=None)
    def test_endpoint_tags_consistent_with_direction(self, case):
        # an increasing branch cannot decay forward nor blow up backward
        lam, mu, a0 = case
        p = SolitonParams(lam, mu)
        g = p.gamma
        if math.isfinite(g) and g > 0 and abs(a0 - g) <= 1e-10 * max(1.0, g):
            return
        prof = integrate_profile(p, 0.0, a0, (-math.inf, math.inf))
        if prof.monotonicity() == "increasing":
            assert prof.tag1.kind in (BLOW_UP, CONVERGES)
            assert prof.tag0.kind in (DECAY_TO_ZERO, CONVERGES)
        else:
            assert prof.tag1.kind in (DECAY_TO_ZERO, CONVERGES)
            assert prof.tag0.kind in (BLOW_UP, CONVERGES)
        if prof.tag1.kind == CONVERGES:
            assert prof.tag1.value == pytest.approx(g)

    def test_constant_iff_on_separatrix(self):
        # gamma = 1 is stable for mu < 0: above decreases back, below increases
        p = make_params(-2.0, -1.0)
        assert integrate_profile(p, 0.0, 1.0, (0.0, 1.0)).monotonicity() == "constant"
        assert integrate_profile(p, 0.0, 1.0 + 1e-6, (0.0, 1.0)).monotonicity() == "decreasing"
        assert integrate_profile(p, 0.0, 1.0 - 1e-6, (0.0, 1.0)).monotonicity() == "increasing"

    def test_direction_survives_underflow_of_rhs(self):
        # rhs(1e-200) = 2 lam a^3 - 4 mu a^2 underflows to 0, yet the branch
        # below gamma = 2 with mu < 0 rises from 0 toward gamma
        prof = integrate_profile(make_params(-1.0, -1.0), 0.0, 1e-200, (-math.inf, math.inf))
        assert prof.tag0.kind == DECAY_TO_ZERO
        assert prof.tag1.kind == CONVERGES and prof.tag1.value == 2.0
        assert prof.monotonicity() == "increasing"


class TestCsvExport:
    def test_matches_per_row_format(self):
        prof = integrate_profile(make_params(-4.0, -1.0), 0.0, 1.0, (-math.inf, math.inf))
        ts = prof.sample_grid(2001)
        av = prof.a(ts)
        rows = "".join(f"{t:.17g},{a:.17g},{d:.17g}\n"
                       for t, a, d in zip(ts, av, prof.params.rhs(av)))
        assert prof.to_csv(2001) == "t,a,dadt\n" + rows

    def test_header_and_precision(self):
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, 0.2))
        text = prof.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "t,a,dadt"
        t, a, dadt = map(float, lines[-1].split(","))
        assert a == pytest.approx(1.0 / (1.0 - 4.0 * t), rel=1e-12)
        assert dadt == pytest.approx(4.0 * a * a * (a / prof.params.gamma - 1.0) if math.isfinite(prof.params.gamma) else -4.0 * prof.params.mu * a * a, rel=1e-12)
        # 17 significant digits round-trip
        assert f"{a:.17g}" in lines[-1]


def test_psi_series_matches_polyval():
    # the Horner loop is polyval's own evaluation order: equal bit for bit
    u = np.random.default_rng(7).uniform(-0.125, 0.125, 10000)
    u = u[np.abs(u) < 0.125]
    expected = u * u * np.polynomial.polynomial.polyval(u, _PSI_SERIES)
    assert _psi(u, np.log1p(u)).tobytes() == expected.tobytes()


class TestMpmathOracles:
    """ProfileA.a and the blow-up time against 40-digit mpmath references."""

    # one branch per side of the separatrix and per time direction, with both
    # signs of lambda and of mu; the comments name the two ends
    BRANCHES = [
        (4.0, -1.0, 1.0),   # gamma < 0: decays backward, blows up forward
        (-2.0, 1.0, 1.0),   # gamma < 0: blows up backward, decays forward
        (4.0, 1.0, 1.0),    # above gamma = 1/2: converges backward, blows up forward
        (-4.0, -1.0, 1.0),  # above gamma = 1/2: blows up backward, converges forward
        (1.0, 1.0, 1.0),    # below gamma = 2: converges backward, decays forward
        (-1.0, -1.0, 1.0),  # below gamma = 2: decays backward, converges forward
        (0.0, -1.0, 2.0),   # steady: decays backward, blows up forward
        (0.0, 1.0, 0.5),    # steady: blows up backward, decays forward
    ]

    @staticmethod
    def levels(lam, mu, a_ref):
        """a-levels spanning the branch up to 1e-6 (relative) from its ends."""
        if lam == 0.0:
            return np.geomspace(1e-6, 1e6, 41)
        g = 2.0 * mu / lam
        if g < 0.0:
            return -g * np.geomspace(1e-6, 1e6, 41)
        if a_ref > g:
            return g * (1.0 + np.geomspace(1e-6, 1e6, 41))
        y = np.concatenate([np.geomspace(1e-6, 0.5, 21), 1.0 - np.geomspace(0.4, 1e-6, 20)])
        return g * y

    @pytest.mark.parametrize("lam,mu,a_ref", BRANCHES)
    def test_profile_matches_mpmath(self, lam, mu, a_ref):
        with mpmath.workdps(40):
            prof = integrate_profile(SolitonParams(lam, mu), 0.0, a_ref, (-math.inf, math.inf))
            # the branch constant C = t_ref - G(a_ref) to a few ulps ...
            C_exact = -mp_time(lam, mu, a_ref)
            assert abs(prof.C - C_exact) <= 4e-16 * abs(C_exact)
            # ... and a(t) on the branch t = C + G(a) through that C
            C = mpmath.mpf(prof.C)
            for level in self.levels(lam, mu, a_ref):
                t = float(C + mp_time(lam, mu, level))
                ref = mpmath.findroot(lambda a: C + mp_time(lam, mu, a) - t, mpmath.mpf(level))
                assert abs(prof.a(t) - ref) <= 1e-13 * ref, (level, t)

    @pytest.mark.parametrize("gamma", [0.99, 0.5, 1e-3, 1e-9, -1e-6, -0.5, -1.0, -40.0, INFINITE])
    @pytest.mark.parametrize("mu", [1.0, -0.3])
    def test_blow_up_time_matches_mpmath(self, mu, gamma):
        with mpmath.workdps(40):
            if math.isinf(gamma):
                exact = -1 / (4 * mpmath.mpf(mu))
            else:
                g = mpmath.mpf(gamma)
                exact = (-1 - mpmath.log(1 - g) / g) / (4 * mpmath.mpf(mu))
            assert abs(blow_up_time_closed(mu, gamma) - exact) <= 1e-15 * abs(exact)


class TestBranchTimesOutsideFloatRange:
    """Where a branch's time leaves the float range, a typed RangeError, not
    an internal ZeroDivisionError or IndexError or a profile that contradicts
    its own report."""

    @pytest.mark.parametrize("lam,mu,a", [
        (0.0, -6.4e-286, 2.4e-159),  # 4 mu a underflows on the steady class
        (1e100, 1e-200, 1.0),  # 4 mu gamma underflows (gamma = 2e-300)
    ], ids=["steady", "gamma"])
    def test_time_scale_underflow(self, lam, mu, a):
        p = make_params(lam, mu)
        with pytest.raises(RangeError, match="underflows to 0"):
            _separatrix_time(p, a)
        with pytest.raises(RangeError):
            integrate_profile(p, 0.0, a, (-math.inf, math.inf))

    def test_nan_branch_constant(self):
        # G(a_ref) overflows: C is nan and the profile would be read as the separatrix
        p = make_params(5.06e-144, 3.63e138)
        with pytest.raises(RangeError, match="C is nan"):
            integrate_profile(p, 0.0, 1.7e-126, (-math.inf, math.inf))
        with pytest.raises(RangeError, match="C is nan"):
            implicit_profile(p, 0.0, 1.0, math.nan, (-math.inf, math.inf))

    def test_underflowing_G_at_zero_time(self):
        # G(3.8e169) = 1 / (4 mu a) underflows to 0, so C = 0 - G has lost its sign
        p = make_params(0.0, 1.1e169)
        with pytest.raises(RangeError, match="sign of C"):
            integrate_profile(p, 0.0, 3.8e169, (-math.inf, math.inf))
        # away from t_ref = 0, C = t_ref is correctly rounded: the inner cylinder at C = 1
        prof = integrate_profile(p, 1.0, 3.8e169, (-math.inf, math.inf))
        assert prof.C == 1.0 and classify(prof).tag == "G3"
        rep = geometry_report(prof)
        assert rep.inner_end.kind == "CYLINDER_END" and rep.inner_end.radius == 2.0


class TestProfileKindFromC:
    def test_separatrix_has_nan_C(self):
        p = make_params(1.0, 1.0)
        flat = integrate_profile(p, 0.0, 2.0, (0.0, 1.0))
        assert flat.is_constant and math.isnan(flat.C)
        assert not integrate_profile(p, 0.0, 1.0, (0.0, 1.0)).is_constant

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_translate_by_non_finite_tau(self, tau):
        # Translate(nan) gave nan times, and classify called the image G1_CIGAR
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        with pytest.raises(DomainError, match="tau must be finite"):
            apply_symmetry(prof, Translate(tau))

    def test_t0_exact_through_the_constructor(self):
        # the branch through a = 1e6 with its initial blow-up at t = 0
        p = make_params(-1.0, 1.0)
        t_ref = _separatrix_time(p, 1e6)
        prof = implicit_profile(p, t_ref, 1e6, 0.0, (0.0, math.inf), t0_exact=True)
        assert prof.t0_exact and prof.t0 == 0.0 and prof.tag0.kind == BLOW_UP
        assert not implicit_profile(p, t_ref, 1e6, 0.0, (0.0, math.inf)).t0_exact
