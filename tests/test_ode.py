import logging
import math
from dataclasses import replace

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
    catalog,
    classify,
    closed_form_profile,
    constant_profile,
    geometry_report,
    integrate_profile,
    make_params,
    time_between_levels,
)
from soliton2d.ode import (
    BLOW_UP,
    CONVERGES,
    DECAY_TO_ZERO,
    SMOOTH_ORIGIN,
    TRUNCATED,
    _PSI_SERIES,
    _psi,
    _psi_float,
    _separatrix_time,
    implicit_profile,
    t0_uncertainty,
)
from soliton2d import ode
from soliton2d.verify import smooth_extension_check
import reference
from reference import Branch


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

    def test_gamma_set_once_at_construction(self):
        # a stored value, not recomputed per read; it takes no part in repr, equality or replace
        p = make_params(-2.0, -1.0)
        assert vars(p)["gamma"] == 1.0
        assert repr(p) == "SolitonParams(lam=-2.0, mu=-1.0)" and p == make_params(-2.0, -1.0)
        assert replace(p, lam=0.0).gamma == INFINITE

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

    def test_snap_is_relative_to_gamma(self):
        # gamma = 2e-50: a0 = 3e-14 lies 1.5e36 gamma off the separatrix, though within 1e-13 of it
        p = make_params(1.0, 1e-50)
        assert not integrate_profile(p, 0.0, 3e-14, (0.0, 1.0)).is_constant
        assert integrate_profile(p, 0.0, p.gamma * (1.0 + 5e-14), (0.0, 1.0)).is_constant
        assert not integrate_profile(p, 0.0, p.gamma * (1.0 + 1e-12), (0.0, 1.0)).is_constant
        # and the same anchors at gamma = 2e50 (the snap was relative there already)
        q = make_params(1.0, 1e50)
        assert integrate_profile(q, 0.0, q.gamma * (1.0 + 5e-14), (0.0, 1.0)).is_constant
        assert not integrate_profile(q, 0.0, q.gamma * (1.0 + 1e-12), (0.0, 1.0)).is_constant

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

    @pytest.mark.parametrize("n", [-1, -201])
    def test_negative_sample_count_raises(self, n):
        # a negative n silently gave the default 201-point grid
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, 0.2))
        for call in (prof.sample_grid, prof.to_csv):
            with pytest.raises(DomainError, match="n >= 0"):
                call(n)

    @pytest.mark.parametrize("n", [2**60, 2**63 - 1, 10**20])
    def test_sample_count_past_the_array_limit_raises(self, n):
        # numpy refuses these counts before it allocates anything, with a ValueError or an IndexError
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, 0.2))
        for call in (prof.sample_grid, prof.to_csv):
            with pytest.raises(DomainError, match="array size limit"):
                call(n)

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


def _psi_grid() -> list:
    """Values of u at which _psi_float must agree with _psi: both sides of the series switch
    |u| = 1/8, +-0 and +-tiny, -1 + ulp, large values, inf, nan and a random sample."""
    small = [math.nextafter(0.125, 0.0), 0.125, math.nextafter(0.125, 1.0)]
    tiny = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-160, 1e-8]
    u = small + [-x for x in small] + tiny + [-x for x in tiny]
    u += [-1.0 + 2.0**-53, -1.0 + 2.0**-52, -0.999, -0.5, 0.5, 1.0, 7.0, 1e8, 1e16, 1e200, 1.7e308]
    u += [math.inf, math.nan]
    return u + np.random.default_rng(19).uniform(-0.99, 2.0, 200).tolist()


def test_psi_float_matches_psi_bit_for_bit():
    for u in _psi_grid():
        lg = math.log1p(u)
        with np.errstate(invalid="ignore"):  # inf - inf
            ref = _psi(np.array([u]), np.array([lg]))
        got = _psi_float(u, lg)
        assert type(got) is float
        assert np.array([got]).tobytes() == ref.tobytes(), u


@pytest.mark.parametrize("lam,mu,a_ref", [
    (4.0, -1.0, 1.0), (-2.0, 1.0, 1.0), (4.0, 1.0, 1.0), (-4.0, -1.0, 1.0), (1.0, 1.0, 1.0), (-1.0, -1.0, 1.0),
])
def test_separatrix_time_bitwise_as_vectorized(lam, mu, a_ref):
    # G(a) = -psi(u) / (4 mu gamma) at u = -gamma / a, as the vectorized _psi rounds it, with log(1 + u)
    # from log1p where u > -1/2 and from the quotient |a - gamma| / a elsewhere
    p = make_params(lam, mu)
    g = p.gamma
    for a in TestMpmathOracles.levels(lam, mu, a_ref).tolist():
        u = -g / a
        ref = _psi(np.array([u]), np.array([math.log1p(u) if u > -0.5 else math.log(abs(a - g) / a)]))[0]
        assert _separatrix_time(p, a) == -float(ref) / (4.0 * mu * g)


@settings(max_examples=300, deadline=None)
@given(neg=st.booleans(), mu_exp=st.floats(-100.0, 100.0), mu_sign=st.sampled_from([-1.0, 1.0]),
       gamma_exp=st.floats(-100.0, 100.0), focus=st.booleans(), y=st.floats(0.0, 1.0))
def test_separatrix_time_matches_mpmath(neg, mu_exp, mu_sign, gamma_exp, focus, y):
    # G on NEG and ABOVE levels against 40-digit mpmath, mu and gamma at scales up to 1e+-100; lambda is a
    # power of 2, so gamma = 2 mu / lambda is exact.  Half the levels lie where 1/8 <= |u| < 1/2, u = -gamma / a
    # (a / |gamma| in [2, 8]).  The bound is 3 units of 2^-52 relative, plus, where |u| >= 1/8 and
    # psi = u - log(1 + u) is a difference, 2 units of the log term amplified by |log(1 + u)| / psi (up to 16).
    # The log of the quotient |a - gamma| / a missed it by up to 3.2x there (117 ulps of G); log1p(u) keeps 0.3
    mu = mu_sign * 10.0**mu_exp
    lam = (-1.0 if neg else 1.0) * mu_sign * 2.0 ** round(math.log2(2.0 * abs(mu)) - gamma_exp * math.log2(10.0))
    p = make_params(lam, mu)
    ratio = 2.0 * 4.0**y if focus else 10.0 ** (12.0 * y - 6.0)  # a / |gamma|, or a / gamma - 1 on ABOVE
    a = abs(p.gamma) * (ratio if neg or focus else 1.0 + ratio)
    u, log1pu = -p.gamma / a, math.log1p(-p.gamma / a)
    with mpmath.workdps(40):
        ref = float(Branch.of(lam, mu).G(a))
    cancel = 2.0 * abs(log1pu) / abs(u - log1pu) if abs(u) >= 0.125 else 0.0
    assert abs(_separatrix_time(p, a) - ref) <= 2.0**-52 * abs(ref) * (3.0 + cancel), (a / abs(p.gamma), ref)


def test_separatrix_time_on_neg_levels_below_two_gamma():
    # NEG levels a <= 2 |gamma| (u = -gamma / a >= 1/2), mu and gamma at scales up to 1e+-100, against 50-digit
    # mpmath.  Rounding u, forming psi = u - log1p(u) and dividing by 4 mu gamma cost at most 2.5 units of 2^-52
    # relative, and one ulp of log1p(u) costs log1p(u) / psi more (up to 4.3, at u = 1/2).  The quotient
    # |a - gamma| / a, used here before, rounds twice ahead of its log and missed this bound by up to 1.3x
    rng = np.random.default_rng(25)
    worst = 0.0
    for _ in range(1000):
        mu = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-100.0, 100.0)
        gamma_exp = rng.uniform(-100.0, 100.0)
        lam = -math.copysign(2.0 ** round(math.log2(2.0 * abs(mu)) - gamma_exp * math.log2(10.0)), mu)
        p = make_params(lam, mu)  # gamma = 2 mu / lam < 0 exactly
        a = abs(p.gamma) * 2.0 * 10.0 ** (-3.0 * rng.random() ** 3)  # most levels near 2 |gamma|
        u = -p.gamma / a
        with mpmath.workdps(50):
            ref = float(Branch.of(lam, mu).G(a))
        bound = 2.0**-52 * abs(ref) * (2.5 + math.log1p(u) / (u - math.log1p(u)))
        worst = max(worst, abs(_separatrix_time(p, a) - ref) / bound)
    assert worst <= 1.0


def test_scalar_psi_callers_keep_typed_errors_without_warnings():
    # u = -gamma / a overflows: G is nan without a RuntimeWarning, and the profile raises
    p = make_params(5.06e-144, 3.63e138)
    assert math.isnan(_separatrix_time(p, 1.7e-126))
    with pytest.raises(RangeError, match="C is nan"):
        integrate_profile(p, 0.0, 1.7e-126, (-math.inf, math.inf))
    with pytest.raises(RangeError, match="underflows to 0"):
        _separatrix_time(make_params(1e100, 1e-200), 1.0)
    for mu, gamma, err in [(0.0, 0.5, MuZeroError), (1.0, 0.0, DomainError), (1.0, 1.0, DomainError),
                           (1.0, 1.5, DomainError)]:
        with pytest.raises(err):
            blow_up_time_closed(mu, gamma)
    for gamma in (1e-300, -1e-300, 1.0 - 2.0**-53, -1e300):
        assert math.isfinite(blow_up_time_closed(1.0, gamma))


@pytest.mark.parametrize("lam,mu", [(0.0, -1.0), (0.0, 1.0), (-1.0, -1.0), (-0.5, -1.0), (3.0, 1.2), (0.2, -0.8),
                                    (-2.0, 1.0), (1.0, 1.0)])
def test_profile_at_zero_inverts_no_level(lam, mu, monkeypatch):
    # a(0) is the anchor's level where t_ref = 0: neither integrate_profile nor
    # smooth_extension_check inverts a(t) for it
    def refuse(*args):
        raise AssertionError("a level was inverted")

    monkeypatch.setattr(ode, "_level_coordinate", refuse)
    p = make_params(lam, mu)
    for window in ((0.0, math.inf), (-math.inf, math.inf), (0.0, 0.01)):
        prof = integrate_profile(p, 0.0, 1.0, window)
        assert prof.a_at_zero() == 1.0
        if window[0] == 0.0:
            assert prof.tag0.kind == SMOOTH_ORIGIN
        assert smooth_extension_check(prof) == (True, p.lam - 2.0 * p.mu)


def test_profile_at_zero_away_from_the_anchor():
    # with t_ref != 0 a(0) is the branch's value there
    p = make_params(-1.0, -1.0)
    prof = integrate_profile(p, 0.3, 1.2, (-math.inf, math.inf))
    assert prof.a_at_zero() == prof.a(0.0)


class TestProfileDebugRecord:
    """One soliton.ode record per integrate_profile: branch class, C and its rounding bound, end kinds and
    whether a(0) came from the anchor; and one per geometry_report: end levels and kinds, K range, completeness."""

    CASES = [
        (-1.0, -1.0, 0.0, 1.0, "below"), (4.0, 1.0, 0.0, 1.0, "above"), (4.0, -1.0, 0.5, 1.0, "neg"),
        (0.0, -1.0, 0.0, 1.0, "steady"), (1.0, 1.0, 0.2, 2.0, "separatrix"),
    ]

    @pytest.mark.parametrize("lam,mu,t_ref,a_ref,branch", CASES)
    def test_record(self, lam, mu, t_ref, a_ref, branch, caplog):
        with caplog.at_level(logging.DEBUG, logger="soliton.ode"):
            prof = integrate_profile(make_params(lam, mu), t_ref, a_ref, (0.0, math.inf))
        (record,) = [rec for rec in caplog.records if rec.name == "soliton.ode"]
        assert record.levelno == logging.DEBUG
        got_t, got_a, got_branch, C, tag0, tag1, from_anchor = record.args
        assert (got_t, got_a, got_branch, tag0, tag1) == (t_ref, a_ref, branch, prof.tag0, prof.tag1)
        assert C == prof.C or (math.isnan(C) and prof.is_constant)
        assert from_anchor == (t_ref == 0.0)

    @pytest.mark.parametrize("lam,mu,t_ref,a_ref,branch", CASES)
    def test_record_carries_the_rounding_bound_of_C(self, lam, mu, t_ref, a_ref, branch, caplog):
        # the bound classify decides the sign of T0 = C against; nan on the separatrix, which has no C
        with caplog.at_level(logging.DEBUG, logger="soliton.ode"):
            prof = integrate_profile(make_params(lam, mu), t_ref, a_ref, (0.0, math.inf))
        (record,) = [rec for rec in caplog.records if rec.name == "soliton.ode"]
        unc = record.c_uncertainty
        assert unc == t0_uncertainty(prof) > 0.0 if branch != "separatrix" else math.isnan(unc)
        assert record.getMessage().endswith(f"C's rounding bound {unc!r}")

    # the levels of a at t = 0 and at the outer end: a(0) = 1 or an initial blow-up, and a blow-up, gamma or decay
    @pytest.mark.parametrize("tag,nu,a_in,a_out", [("G1_CIGAR", 1.0, 1.0, math.inf), ("G4_PLUS", 1.3, 1.0, math.inf),
                                                   ("G9", 2.0, math.inf, "gamma"), ("G11", 1.0, math.inf, 0.0)])
    def test_geometry_report_record(self, tag, nu, a_in, a_out, caplog):
        prof = catalog(tag, nu).profile
        caplog.clear()  # the catalog's own records, where the suite runs with --log-level=DEBUG
        with caplog.at_level(logging.DEBUG, logger="soliton.ode"):
            rep = geometry_report(prof)
        (record,) = [rec for rec in caplog.records if rec.name == "soliton.ode"]
        assert record.levelno == logging.DEBUG
        assert record.args == (a_in, prof.params.gamma if a_out == "gamma" else a_out, rep.inner_end.kind,
                               rep.outer_end.kind, rep.K_inf, rep.K_sup, rep.complete)

    def test_no_record_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="soliton.ode"):
            geometry_report(integrate_profile(make_params(-1.0, -1.0), 0.0, 1.0, (0.0, math.inf)))
        assert not [rec for rec in caplog.records if rec.name == "soliton.ode"]


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
            C_exact = -Branch.of(lam, mu).G(a_ref)
            assert abs(prof.C - C_exact) <= 4e-16 * abs(C_exact)
            # ... and a(t) on the branch t = C + G(a) through that C
            branch = Branch.of(lam, mu, prof.C)
            for level in self.levels(lam, mu, a_ref):
                t = float(branch.t(level))
                ref = branch.level(t, mpmath.mpf(level))
                assert abs(prof.a(t) - ref) <= 1e-13 * ref, (level, t)

    @pytest.mark.parametrize("gamma", [0.99, 0.5, 1e-3, 1e-9, -1e-6, -0.5, -1.0, -40.0, INFINITE])
    @pytest.mark.parametrize("mu", [1.0, -0.3])
    def test_blow_up_time_matches_mpmath(self, mu, gamma):
        with mpmath.workdps(40):
            exact = reference.blow_up_time(mu, gamma)
            assert abs(blow_up_time_closed(mu, gamma) - exact) <= 1e-15 * abs(exact)


class TestLevelInversion:
    """ode._level_coordinate, in float and in array form, against 420-digit Lambert W on every class
    (``reference.lambert_v``): one guess per class (_level_guess, tested on its own against a bound of 0.4 in
    v) and three Halley steps.  The bound is 2 ulps of the level
    a(v), plus its sensitivity |da/dv| to one ulp of v, to the rounding of s = 4 mu gamma dt
    (2^-52 |s|) and, where |u| >= 1/8, to one ulp of log1p(u): psi = u - log1p(u) cancels there, which
    limits any inversion that evaluates that psi (about 2x the rest of the bound at |u| just above 1/8).
    """

    CLASSES = ["neg", "above", "below", "steady"]

    @classmethod
    def cases(cls, branch, n=48, seed=0):
        """(params, dt): mu and gamma at scales up to 1e+-300 (with a normal time scale 4 mu gamma), and
        levels spread over the class's v-range, half of them at unit scale, where psi cancels."""
        rng = np.random.default_rng([seed, cls.CLASSES.index(branch)])
        out = []
        while len(out) < n:
            mu = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
            g = math.inf if branch == "steady" else float((-1.0 if branch == "neg" else 1.0) * 10.0 ** rng.uniform(-300, 300))
            try:
                p = make_params(0.0 if branch == "steady" else 2.0 * mu / g, mu)
            except (RangeError, DomainError):
                continue
            k = 4.0 * p.mu * (1.0 if branch == "steady" else p.gamma)
            if not 2.2250738585072014e-308 <= abs(k) < math.inf:
                continue
            lo, hi = max(ode._V_RANGE[branch][0], -720.0), min(ode._V_RANGE[branch][1], 720.0)
            v = mpmath.mpf(rng.uniform(-4.0, 6.0) if len(out) % 2 else rng.uniform(lo, hi))
            dt = float(reference.minus_psi(branch, v) / (4 * mpmath.mpf(p.mu) * (1 if branch == "steady" else mpmath.mpf(p.gamma))))
            if dt != 0.0 and math.isfinite(dt):
                out.append((p, dt))
        return out

    def bound(self, branch, p, dt):
        """(the level a at dt, the bound on its error)."""
        g = mpmath.mpf(p.gamma) if branch != "steady" else None
        s = 4 * mpmath.mpf(p.mu) * (1 if branch == "steady" else g) * mpmath.mpf(dt)
        lo, hi = ode._V_RANGE[branch]
        v = min(max(reference.lambert_v(branch, s), lo), hi)
        a = reference.level_of_v(branch, g, v)
        dadv = abs(mpmath.diff(lambda x: reference.level_of_v(branch, g, x), v))
        dpsi = abs(mpmath.diff(lambda x: reference.minus_psi(branch, x), v))
        rounding = 2.0**-52 * abs(s)
        u = None if branch in ("below", "steady") else mpmath.exp(-v) if branch == "neg" else -1 / (1 + mpmath.exp(v))
        if u is not None and abs(u) >= 0.125:
            rounding += math.ulp(float(mpmath.log1p(u)))
        return a, 2 * math.ulp(float(a)) + float(dadv * (math.ulp(float(v)) + rounding / dpsi))

    @pytest.mark.parametrize("branch", CLASSES)
    def test_matches_lambert_w(self, branch):
        with mpmath.workdps(420):
            for p, dt in self.cases(branch):
                a, bound = self.bound(branch, p, dt)
                if not 2.2250738585072014e-308 <= a <= 1.7976931348623157e308:
                    continue  # the level itself leaves the float range
                v_float = ode._level_coordinate(p, branch, dt)
                v_array = ode._level_coordinate(p, branch, np.array([dt]))
                assert type(v_float) is float and v_array.shape == (1,)
                for v in (v_float, float(v_array[0])):
                    got = float(ode._a_of_v(p.gamma, branch, np.array([v]))[0])
                    assert abs(got - a) <= bound, (p, dt, v, float(a), bound)

    @pytest.mark.parametrize("branch", CLASSES)
    def test_guess_switches_and_psi_cancellation(self, branch):
        # both sides of where the piecewise guesses once switched (w = 2 on NEG, 1 on ABOVE; L = s - 1 = -1.5
        # and 3 on BELOW) and |u| = 1/8, where psi = u - log1p(u) starts to cancel, at unit scale
        p = make_params(*{"neg": (4.0, -1.0), "above": (4.0, 1.0), "below": (-1.0, -1.0), "steady": (0.0, -1.0)}[branch])
        k = 4.0 * p.mu * (1.0 if branch == "steady" else p.gamma)
        s_values = {"neg": [-2.0, -0.125 + math.log1p(0.125)], "above": [-1.0, 0.125 + math.log1p(-0.125)],
                    "below": [-0.5, 4.0], "steady": [1.0]}[branch]
        with mpmath.workdps(420):
            for s0 in s_values:
                for s in (s0 * (1.0 + 1e-3 * j) for j in range(-5, 6)):
                    a, bound = self.bound(branch, p, s / k)
                    for v in (ode._level_coordinate(p, branch, s / k), ode._level_coordinate(p, branch, np.array([s / k]))[0]):
                        got = float(ode._a_of_v(p.gamma, branch, np.array([v]))[0])
                        assert abs(got - a) <= bound, (s, v, float(a), bound)

    @pytest.mark.parametrize("branch", ["neg", "above", "below"])
    def test_guess_within_its_bound(self, branch):
        # the first guess alone is within 0.4 of v (it reads 0.14, 0.10 and 0.077 at most), so that three Halley
        # steps do not hide a worse one: over the class's v-range, at unit scale, and near +-_S_MAX and +-_TINY
        lo, hi = max(ode._V_RANGE[branch][0], -720.0), min(ode._V_RANGE[branch][1], 720.0)
        ends = [x * f for x in (ode._S_MAX, ode._TINY) for f in (-1.0, -0.5, -2.0 ** 0.5)]
        with mpmath.workdps(420):
            s_values = [float(reference.minus_psi(branch, mpmath.mpf(v)))
                        for v in np.concatenate((np.linspace(lo, hi, 41), np.linspace(-4.0, 6.0, 41)))]
            s_values += ends + ([-x for x in ends] if branch == "below" else [])
            for s in s_values:
                s = min(max(s, -ode._S_MAX), ode._S_MAX if branch == "below" else -ode._TINY)
                v = float(reference.lambert_v(branch, mpmath.mpf(s)))
                guesses = ode._level_guess(branch, s, ode._FLOAT), ode._level_guess(branch, np.array([s]), ode._array_ops())
                for got in (guesses[0], guesses[1][0]):
                    assert abs(got - v) <= 0.4, (s, got, v)

    SPECIAL_DT = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, math.inf, -math.inf,
                  math.nan, 1e308, -1e308]

    @pytest.mark.parametrize("branch", CLASSES)
    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
    def test_special_inputs_agree(self, branch, scale):
        # +-0, subnormal, +-inf and nan dt, and an s = 4 mu gamma dt that overflows (4 mu = 4e300 at scale
        # 1e300): both forms give the same v and level, and no math error escapes the float form
        lam, mu = {"neg": (4.0, -1.0), "above": (4.0, 1.0), "below": (-1.0, -1.0), "steady": (0.0, -1.0)}[branch]
        p = make_params(lam * scale, mu * scale)
        for dt in self.SPECIAL_DT:
            got, ref = ode._level_coordinate(p, branch, dt), ode._level_coordinate(p, branch, np.array([dt]))[0]
            assert type(got) is float
            assert got == ref or (math.isnan(got) and math.isnan(ref)), (dt, got, ref)
        # a profile's infinite ends: a(+-inf) is the limit level in both forms, the ABOVE convergence end included
        prof = integrate_profile(p, 0.0, 1.0, (-math.inf, math.inf))
        for t in (prof.t0, prof.t1):
            if math.isinf(t):
                got, ref = prof.a(t), prof.a(np.array([t]))[0]
                assert type(got) is float and got == ref and not math.isnan(got), (t, got, ref)

    def test_subnormal_time_scale(self):
        # 4 mu gamma = 4.2e-313 is subnormal: s = (4 mu gamma) dt would keep 3 digits fewer and miss the level
        # by 6 times the bound, so s is taken as 4 mu (gamma dt)
        mu, g, dt = 7.296864649049521e-230, -1.439894955410727e-84, 3.377417377090467e68
        p = make_params(2.0 * mu / g, mu)
        assert p.gamma == g and abs(4.0 * mu * g) < 2.2250738585072014e-308
        with mpmath.workdps(420):
            a, bound = self.bound("neg", p, dt)
            for v in (ode._level_coordinate(p, "neg", dt), ode._level_coordinate(p, "neg", np.array([dt]))[0]):
                assert abs(float(ode._a_of_v(g, "neg", np.array([v]))[0]) - a) <= bound

    def test_scalar_callers_pass_floats(self, monkeypatch):
        # ProfileA.a of a scalar and the arc table's time-only edges invert a Python float, in float arithmetic
        seen, invert = [], ode._level_coordinate

        def recording(params, branch, dt):
            seen.append(type(dt))
            return invert(params, branch, dt)

        monkeypatch.setattr(ode, "_level_coordinate", recording)
        from soliton2d import geometry
        monkeypatch.setattr(geometry, "_level_coordinate", recording)
        prof = integrate_profile(make_params(-1.0, -1.0), 0.0, 1.0, (-math.inf, math.inf))
        assert type(prof.a(0.3)) is float and type(prof.a(np.float64(0.3))) is float
        geometry.radial_distance(prof, 0.1, 0.5)
        assert seen and set(seen) == {float}


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


class TestTypedErrorsAndEdgeCases:
    @pytest.mark.parametrize("a_from,a_to", [(0.0, 1.0), (1.0, -2.0)])
    def test_time_between_nonpositive_levels(self, a_from, a_to):
        with pytest.raises(DomainError, match="positive"):
            time_between_levels(make_params(1.0, 1.0), a_from, a_to)

    def test_time_between_levels_across_the_separatrix(self):
        with pytest.raises(DomainError, match="straddle"):
            time_between_levels(make_params(1.0, 1.0), 1.0, 3.0)  # gamma = 2

    @pytest.mark.parametrize("lam,mu", [(0.0, 1.0), (1.0, -1.0)])  # gamma infinite, gamma < 0
    def test_constant_profile_needs_finite_positive_gamma(self, lam, mu):
        with pytest.raises(DomainError, match="gamma"):
            constant_profile(make_params(lam, mu), (0.0, 1.0))

    @pytest.mark.parametrize("action,message", [
        (Scale(0.0), "alpha"), (Scale(-1.0), "alpha"), (Rescale(0.0), "beta"), (Rescale(-2.0), "beta"),
        ("flip", "unknown symmetry"),
    ])
    def test_apply_symmetry_rejects(self, action, message):
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, 0.2))
        with pytest.raises(DomainError, match=message):
            apply_symmetry(prof, action)

    def test_sample_grid_toward_an_initial_blowup(self):
        # lambda = mu = -1 through a(1) = 3 > gamma = 2 blows up backward at C and converges forward
        prof = integrate_profile(make_params(-1.0, -1.0), 1.0, 3.0, (-math.inf, math.inf))
        assert (prof.tag0.kind, prof.tag1.kind) == (BLOW_UP, CONVERGES)
        ts = prof.sample_grid()
        gaps = np.diff(ts)
        assert np.all(gaps > 0.0) and gaps[0] < 1e-12 * gaps[-1]  # geometric toward the blow-up at t0
        # a passes the halting level 1e8 within an ulp of t0, so the grid starts on the first float inside
        assert ts[0] == np.nextafter(prof.t0, math.inf) and prof.a(ts[0]) > 1e7

    def test_sample_range_of_a_constant_profile_without_edges(self):
        prof = constant_profile(make_params(1.0, 1.0), (-math.inf, math.inf))
        assert prof.sample_range() == (-1.0, 1.0)  # a unit on each side of t_ref = 0
