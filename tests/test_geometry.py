import logging
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from soliton2d import (
    DomainError,
    EdgeError,
    NotSmoothOriginError,
    RangeError,
    SolitonParams,
    WindowEmptyError,
    build_warped_metric,
    catalog,
    closed_form_profile,
    constant_profile,
    curvature_from_a,
    curvature_from_b,
    disk_boundary_distance,
    entry_metric,
    geodesic_curvature,
    geometry,
    geometry_report,
    integrate_profile,
    make_params,
    metric_from_grid,
    radial_distance,
)
from soliton2d import ode
from soliton2d.geometry import EndDescriptor
from soliton2d.taxonomy import FAMILY_TAGS
from conftest import FAMILY_SAMPLES, NU_SAMPLES, cached_entry, cached_metric, mp_time


class TestCurvatureFromA:
    def test_cigar_origin(self):
        assert curvature_from_a(make_params(0.0, -1.0), 1.0) == pytest.approx(2.0)

    def test_flat_separatrix(self):
        # a = gamma = 1 for (lambda, mu) = (-2, -1)
        assert curvature_from_a(make_params(-2.0, -1.0), 1.0) == pytest.approx(0.0)

    def test_limit_is_lambda(self):
        p = make_params(-3.0, -1.0)
        assert curvature_from_a(p, 1e12) == pytest.approx(p.lam, abs=1e-11)

    @pytest.mark.parametrize("a", [0.0, -1.0, np.array([1.0, 0.0])])
    def test_nonpositive_level_raises(self, a):
        with pytest.raises(DomainError, match="positive"):
            curvature_from_a(make_params(0.0, -1.0), a)

    def test_sign_tracks_monotonicity(self):
        # increasing branch (mu < 0 below separatrix) has positive curvature
        p = make_params(-1.0, -1.0)  # gamma = 2
        prof = integrate_profile(p, 0.0, 1.0, (0.0, 10.0))
        ts = np.linspace(0.1, 2.0, 20)  # beyond t ~ 5 the deviation from gamma underflows
        assert prof.monotonicity() == "increasing"
        assert np.all(p.curvature(prof.a(ts)) > 0.0)


def test_overflowing_curvature_range_raises():
    # K = lambda - 2 mu at the smooth origin is about 2.5e308
    prof = integrate_profile(make_params(1.7e308, -4e307), 0.0, 1.0, (-math.inf, math.inf))
    with pytest.raises(RangeError):
        geometry_report(prof)


class TestBuildWarpedMetric:
    def test_cigar_matches_tanh(self):
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 5.0), 2001)
        assert np.max(np.abs(m.b - np.tanh(m.r))) <= 1e-6
        assert m.b_prime[0] == pytest.approx(1.0, abs=1e-12)
        assert m.K[0] == pytest.approx(2.0, abs=1e-9)

    def test_exploding_matches_tan(self):
        prof = integrate_profile(make_params(0.0, 1.0), 0.0, 1.0, (0.0, math.inf))
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 1.2), 2001)
        assert np.max(np.abs(m.b - np.tan(m.r))) <= 1e-6
        # total radial extent stops strictly before pi/2
        assert m.r_extent[1] < math.pi / 2.0
        assert m.r_extent[1] == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_flat_separatrix_is_plane(self):
        prof = integrate_profile(make_params(-2.0, -1.0), 0.0, 1.0, (0.0, 10.0))
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 3.0), 501)
        assert_allclose(m.b, m.r, atol=1e-12)

    def test_constant_profile_window_bounds_metric(self):
        # the flat plane a == gamma = 1 on t in (0, 5): the disk of radius 2 sqrt(5)
        prof = constant_profile(make_params(-2.0, -1.0), (0.0, 5.0))
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 100.0), 501)
        assert m.r_extent[1] == pytest.approx(2.0 * prof.params.gamma * math.sqrt(5.0), rel=1e-14)
        with pytest.raises(DomainError):
            radial_distance(prof, 0.0, 10.0)

    def test_coupling_identity(self, cigar_metric):
        m = cigar_metric
        prof = m.profile
        res = np.abs(prof.a(m.t_of_r[1:]) * m.b_prime[1:] - 1.0)
        assert np.max(res) <= 1e-8

    def test_t_of_r_exact(self, cigar_metric):
        assert_allclose(cigar_metric.t_of_r, 0.25 * cigar_metric.b**2, rtol=1e-15)

    @pytest.mark.parametrize("n", [0, 1, -3, 2.0])
    def test_sample_count_below_two_raises(self, n):
        # n = 0 and n < 0 raised numpy's ValueError, and n = 1 built a metric whose spacing raised IndexError
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        with pytest.raises(DomainError, match="samples"):
            build_warped_metric(prof, (0.0, 0.0), (0.0, 5.0), n)

    @pytest.mark.parametrize("n", [2**60, 2**63 - 1, 10**20])
    def test_sample_count_past_the_array_limit_raises(self, n):
        # numpy refuses a float64 array of n * 8 > max intp bytes before it allocates anything:
        # these raised its ValueError or an IndexError
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        with pytest.raises(DomainError, match="array size limit"):
            build_warped_metric(prof, (0.0, 0.0), (0.0, 5.0), n)

    @pytest.mark.parametrize("r0", [math.nan, math.inf, -math.inf])
    def test_anchor_radius_not_finite_raises(self, r0):
        # r0 = nan returned a metric whose b was all nan, with r_extent (nan, nan)
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        with pytest.raises(DomainError, match="r0"):
            build_warped_metric(prof, (r0, 1.0), (0.0, 5.0), 101)

    def test_smooth_origin_required(self):
        # anchored at a(0) = 2: no smooth extension over b = 0
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 2.0, (0.0, math.inf))
        with pytest.raises(NotSmoothOriginError):
            build_warped_metric(prof, (0.0, 0.0), (0.0, 1.0), 101)

    def test_smooth_origin_evaluates_the_point_map_only_through_point(self, monkeypatch):
        # a(0) comes from the profile: a piece of the point map called outside
        # _ArcTable.point (or level, its samples' form) would be missing from the table's evaluation count
        depth, outside = [0], []

        def counted(real):
            def call(table, x):
                depth[0] += 1
                try:
                    return real(table, x)
                finally:
                    depth[0] -= 1
            return call

        def piece(name, real):
            return lambda table, x: outside.append(name) if not depth[0] else real(table, x)

        for name in ("point", "level"):
            monkeypatch.setattr(geometry._ArcTable, name, counted(getattr(geometry._ArcTable, name)))
        for name in ("_edge_map", "_v_map", "_edge_level"):
            monkeypatch.setattr(geometry._ArcTable, name, piece(name, getattr(geometry._ArcTable, name)))
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        build_warped_metric(prof, (0.0, 0.0), (0.0, 5.0), 101)
        entry_metric(catalog("G6", math.pi), h=1e-2)
        assert outside == []

    def test_negative_b0_or_empty_window_raises(self):
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        with pytest.raises(DomainError, match="b0"):
            build_warped_metric(prof, (0.0, -1.0), (0.0, 1.0), 11)
        with pytest.raises(WindowEmptyError, match="empty r-window"):
            build_warped_metric(prof, (0.0, 0.0), (1.0, 1.0), 11)

    def test_origin_not_in_domain(self):
        prof = closed_form_profile(make_params(0.0, 1.0), -1.0)  # domain (1/4, inf)
        with pytest.raises(DomainError):
            build_warped_metric(prof, (0.0, 0.0), (0.0, 1.0), 101)

    def test_window_empty(self):
        prof = integrate_profile(make_params(0.0, 1.0), 0.0, 1.0, (0.0, math.inf))
        with pytest.raises(WindowEmptyError):
            build_warped_metric(prof, (0.0, 0.0), (10.0, 20.0), 101)

    def test_interior_anchor(self):
        # anchor the cigar at b0 = tanh(1), r0 = 1: same metric, shifted window
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        m = build_warped_metric(prof, (1.0, math.tanh(1.0)), (0.5, 3.0), 801)
        assert np.max(np.abs(m.b - np.tanh(m.r))) <= 1e-8


    def test_anchor_deep_in_cone(self):
        # t = 2500 on G6 lies far past the stretch table of a(t); there the
        # metric is the cone b = b0 + (r - r0) / gamma to rounding
        prof = catalog("G6", math.pi).profile  # gamma = 2
        m = build_warped_metric(prof, (0.0, 100.0), (-5.0, 5.0), 101)
        assert_allclose(m.b, 100.0 + 0.5 * m.r, rtol=1e-12)

    def test_cone_past_a_cusp(self):
        # the G8 table starts at its cusp; far along its cone b' = 1/gamma to
        # rounding, which holds only if the grown segments follow r ~ sqrt(v)
        # out from the branch's centre (the cone law's singularity lies within
        # the band there), not from the cusp end 350 units of v away
        prof = catalog("G8", math.pi).profile
        m = build_warped_metric(prof, (0.0, 2.0 * math.sqrt(prof.t_ref)), (25.0, 2000.0), 4001)
        assert_allclose(m.b, m.b[0] + (m.r - m.r[0]) / prof.params.gamma, rtol=1e-13)

    def test_cusp_entry_grid_is_smooth(self):
        # sample positions carry rounding at the scale of the window, not of
        # the far end of the cusp: log|K| has no node-scale noise to difference
        m = cached_metric("G8", math.pi)
        assert np.max(np.abs(np.diff(np.log(np.abs(m.K)), 4))) <= 5e-13


EPS = np.finfo(float).eps


def _newton_reference(table, r, steps=5):
    """x(r) from the linear guess on the table nodes and `steps` Newton steps
    on the same exact quadrature, each clipped to the sample's segment."""
    r = np.clip(r, table.r[0], table.r[-1])
    j = np.clip(np.searchsorted(table.r, r), 1, table.r.size - 1)
    lo, hi = table.x[j - 1], table.x[j]
    x = np.clip(np.interp(r, table.r, table.x), lo, hi)
    for _ in range(steps):
        x = np.clip(x - (table.r_of_x(x) - r) / table.point(x)[2], lo, hi)
    return x


def _assert_inverts(table, r, x):
    """x matches the reference to 8 ulp and r_of_x(x) matches r to 4 ulp.

    Rounding r (an ulp of max(1, |r|)) moves the root by that over dr/dx, so
    the x bound is taken at that scale where it exceeds max(1, |x|): toward a
    blow-up end dr/dx underflows and x is determined only that far.
    """
    r = np.clip(r, table.r[0], table.r[-1])
    x_ref = _newton_reference(table, r)
    r_scale = np.maximum(1.0, np.abs(r))
    x_scale = np.maximum(np.maximum(1.0, np.abs(x_ref)), r_scale / table.point(x_ref)[2])
    assert np.max(np.abs(x - x_ref) / x_scale) <= 8 * EPS
    assert np.max(np.abs(table.r_of_x(x) - r) / r_scale) <= 4 * EPS


def _assert_monotone_in_segments(table, r, x):
    """Nondecreasing r gives nondecreasing x, each in the table segment that holds its r (one on a node
    in the segment that ends there)."""
    seg = np.searchsorted(table.r[1:-1], np.clip(r, table.r[0], table.r[-1]))
    assert np.all(r[1:] >= r[:-1]) and np.all(x[1:] >= x[:-1])
    assert np.all((table.x[seg] <= x) & (x <= table.x[seg + 1]))


@pytest.fixture
def inversions(monkeypatch):
    """(table, r, x) of every _ArcTable.x_of_r call made while the test runs."""
    calls = []
    x_of_r = geometry._ArcTable.x_of_r

    def recording(table, r):
        x = x_of_r(table, r)
        calls.append((table, np.array(r, dtype=float), x))
        return x

    monkeypatch.setattr(geometry._ArcTable, "x_of_r", recording)
    return calls


def _blowup_start(tag, nu):
    prof = catalog(tag, nu).profile
    return build_warped_metric(prof, (0.0, 2.0 * math.sqrt(prof.t0)), (0.0, 5.0), 20001)


def _g11_cusp_side():
    prof = catalog("G11", 1.0).profile  # anchored at a = 1e6, r = 0 at v = log(5e5)
    return build_warped_metric(prof, (0.0, 2.0 * math.sqrt(prof.t_ref)), (-300.0, -50.0), 20001)


GROWN_WINDOWS = [
    # the cigar's cylinder, the G11 cusp and far along the G6 cone
    lambda: build_warped_metric(closed_form_profile(make_params(0.0, -1.0), 1.0),
                                (0.0, 0.0), (100.0, 175.0), 20001),
    _g11_cusp_side,
    lambda: build_warped_metric(catalog("G6", math.pi).profile, (0.0, 0.0), (1e4, 1e6), 20001),
]


def _g6_to_50(n):
    return build_warped_metric(catalog("G6", math.pi).profile, (0.0, 0.0), (0.0, 50.0), n)


def _cigar_to_100():
    return build_warped_metric(closed_form_profile(make_params(0.0, -1.0), 1.0), (0.0, 0.0), (0.0, 100.0), 101)


def _cigar_table():
    prof = closed_form_profile(make_params(0.0, -1.0), 1.0)
    return geometry._ArcTable(prof, *geometry._metric_t_interval(prof)[:2])


def test_gauss_legendre_literals_are_leggauss():
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(7)
    assert geometry._GL_X.tobytes() == x.tobytes()
    assert geometry._GL_W.tobytes() == w.tobytes()


def test_antiderivative_matrix():
    # column i holds the coefficients of tau^0..tau^7 of int_{-1}^tau L_i,
    # L_i the Lagrange basis at the nodes; each check below is a polynomial
    # evaluation, exact to a few ulp of the sum of its terms' magnitudes
    anti = geometry._ANTI
    powers = np.arange(8)

    def at(tau, coef):
        terms = np.asarray(tau)[:, None, None] ** powers[None, :, None] * coef[None]
        return terms.sum(axis=1), np.maximum(1.0, np.abs(terms).sum(axis=1))

    assert anti.shape == (8, 7)
    deriv = np.vstack([anti[1:] * powers[1:, None], np.zeros((1, 7))])
    got, scale = at(geometry._GL_X, deriv)
    assert np.all(np.abs(got - np.eye(7)) <= 4 * EPS * scale)
    got, scale = at([-1.0], anti)
    assert np.all(np.abs(got) <= 4 * EPS * scale)
    got, scale = at([1.0], anti)
    assert np.all(np.abs(got - geometry._GL_W) <= 4 * EPS * scale)


class TestArcLengthInverse:
    """x_of_r against a five-step Newton reference on the same quadrature."""

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_entry_metrics(self, tag, inversions):
        entry_metric(cached_entry(tag, FAMILY_SAMPLES[tag]), h=1e-4)
        _assert_inverts(*inversions[-1])
        _assert_monotone_in_segments(*inversions[-1])

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_entry_metric_nu_sweep(self, tag, inversions):
        for nu in NU_SAMPLES[tag]:
            entry_metric(cached_entry(tag, nu), h=1e-3)
            _assert_inverts(*inversions[-1])

    @pytest.mark.parametrize("build", [
        # across the seam between the w and v pieces
        lambda: build_warped_metric(closed_form_profile(make_params(0.0, -1.0), 1.0),
                                    (0.0, 0.0), (0.0, 3.0), 20001),
        lambda: build_warped_metric(catalog("G7", 3.0 * math.pi).profile,
                                    (0.0, 0.0), (0.0, 5.0), 20001),
        lambda: build_warped_metric(catalog("G10", 1.0).profile,
                                    (0.0, 0.0), (0.0, 5.0), 20001),
        # far toward a cone end, and from a blow-up (a geodesic boundary)
        lambda: build_warped_metric(catalog("G6", math.pi).profile,
                                    (0.0, 0.0), (0.0, 1e3), 20001),
        lambda: _blowup_start("G9", 2.0),
        lambda: _blowup_start("G12", 1.0),
        # wholly inside grown segments (test_grown_windows)
        *GROWN_WINDOWS,
        # segments that hold few samples each, and the G4_PLUS disk out to its boundary
        lambda: _g6_to_50(20001),
        lambda: _g6_to_50(201),
        _cigar_to_100,
        lambda: build_warped_metric(catalog("G4_PLUS", 1.45).profile, (0.0, 0.0), (0.0, 1e3), 20001),
    ], ids=["cigar_seam", "g7_seam", "g10_seam", "g6_far_cone", "g9_blowup", "g12_blowup",
            "cigar_cylinder", "g11_cusp", "g6_cone_grown", "g6_to_50", "g6_to_50_sparse",
            "cigar_to_100_sparse", "g4_plus_to_boundary"])
    def test_windows(self, build, inversions):
        build()
        _assert_inverts(*inversions[-1])
        _assert_monotone_in_segments(*inversions[-1])

    @pytest.mark.parametrize("build", GROWN_WINDOWS, ids=["cigar_cylinder", "g11_cusp", "g6_cone_grown"])
    def test_grown_windows(self, build, inversions):
        # every sample lies in a segment grown past the 1/2 spacing of the band
        build()
        table, _, x = inversions[-1]
        seg = np.clip(np.searchsorted(table.x, x), 1, table.x.size - 1)
        assert np.all(table.x[seg] - table.x[seg - 1] > 0.5)

    def test_samples_on_nodes_and_sub_nodes(self):
        table = _cigar_table()
        # the segments on both sides of the seam, each with samples on all
        # of the sub-nodes between its parts, and every table node alone
        c = int(np.searchsorted(table.x, table.x_c))
        segs = np.arange(c - 2, c + 3)
        assert np.all(table.parts[segs - 1] > 1)  # so each of them is split
        x_sub = np.concatenate([table.x[s - 1] + (table.x[s] - table.x[s - 1]) * np.arange(1, n + 1) / n
                                for s, n in zip(segs, table.parts[segs - 1])])
        for x in (x_sub, table.x):
            r = table.r_of_x(x)
            got = table.x_of_r(r)
            _assert_inverts(table, r, got)
            assert np.all(np.abs(got - x) <= 8 * EPS * np.maximum(1.0, np.abs(x)))

    def test_decreasing_samples_rejected(self):
        # samples are located by merging them with the sorted nodes
        table = _cigar_table()
        r = np.linspace(0.0, 3.0, 101)
        with pytest.raises(DomainError, match="nondecreasing"):
            table.x_of_r(r[::-1])
        assert np.array_equal(table.x_of_r(np.repeat(r, 2))[::2], table.x_of_r(r))

    def test_under_one_point_evaluation_per_sample(self, monkeypatch):
        # point-map evaluations inside x_of_r: a split segment costs 7 per
        # sub-segment whatever the number of its samples, and the inverse fitted
        # to its collocation polynomial costs none
        table = _cigar_table()
        r = np.linspace(0.0, 3.0, 20001)
        count = [0]
        point = geometry._ArcTable.point

        def counting(self, x):
            count[0] += np.size(x)
            return point(self, x)

        monkeypatch.setattr(geometry._ArcTable, "point", counting)
        table.x_of_r(r)
        assert count[0] <= 1 * r.size


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_one_table_per_entry_metric(tag, monkeypatch, caplog):
    # the window (t_in, t_out) is measured and sampled on the same table
    entry = cached_entry(tag, FAMILY_SAMPLES[tag])
    tables = []
    init = geometry._ArcTable.__init__

    def counting(self, *args):
        tables.append(args)
        init(self, *args)

    monkeypatch.setattr(geometry._ArcTable, "__init__", counting)
    with caplog.at_level(logging.DEBUG, logger="soliton.geometry"):
        m = entry_metric(entry)
    assert len(tables) == 1
    assert len([rec for rec in caplog.records if rec.name == "soliton.geometry"]) == 1
    # the entry metric's extent is its window
    assert m.r_extent == (0.0, m.r[-1])


class TestCuspEndWithLargeMu:
    """At a cusp (C = 0) t = k psi underflows toward the end before the arc
    length does, since k = -1 / (4 mu gamma) ~ 1/nu^4 on G11."""

    @pytest.mark.parametrize("nu", [1e5, 1e10])
    def test_g11_entry_metric_is_finite(self, nu):
        prof = cached_entry("G11", nu).profile
        table = geometry._ArcTable(prof, *geometry._metric_t_interval(prof)[:2])
        assert np.all(np.isfinite(table.r))
        m = entry_metric(cached_entry("G11", nu))
        assert np.all(np.isfinite(m.r_extent))
        assert all(np.all(np.isfinite(v)) for v in (m.r, m.b, m.b_prime, m.K))

    @pytest.mark.parametrize("nu", [1e5, 1e14, 1e30])
    def test_g11_entry_window_resolves(self, nu):
        # K = -1 - 2 nu^2 / a, so in a / |gamma| the entry is the same metric
        # at every nu: its window levels scale with |gamma| and keep the
        # samples of nu = 3, where fixed levels left 1 sample or none
        ref = entry_metric(cached_entry("G11", 3.0))
        m = entry_metric(cached_entry("G11", nu))
        assert m.r.size == ref.r.size
        assert_allclose(m.r, ref.r, rtol=1e-12)
        assert_allclose(m.K, ref.K, rtol=1e-12)

    def test_g11_times_below_normal_raise(self):
        # the times of G11 scale like 1/(8 nu^4)
        with pytest.raises(RangeError):
            catalog("G11", 1e77)

    def test_g11_extent_carries_no_nan(self):
        # the entry window once lay past the table's decay end here
        try:
            m = entry_metric(cached_entry("G11", 1e19))
        except WindowEmptyError as err:
            assert "nan" not in str(err)
        else:
            assert np.all(np.isfinite(m.r_extent)) and np.all(np.isfinite(m.b))


def test_debug_record_per_metric(caplog):
    prof = closed_form_profile(make_params(0.0, -1.0), 1.0)
    with caplog.at_level(logging.DEBUG, logger="soliton.geometry"):
        build_warped_metric(prof, (0.0, 0.0), (0.0, 3.0), 2001)
    (record,) = [rec for rec in caplog.records if rec.name == "soliton.geometry"]
    (start, n_edge, n_unit, n_grown, n_beyond, x_c, segments, parts, worst, table_evals, inverse_evals,
     samples) = record.args
    table = _cigar_table()
    assert record.levelno == logging.DEBUG
    assert (start, n_edge, x_c) == ("near-edge piece", geometry._EDGE_SEGMENTS + 1, table.x_c)
    # the seam node ends the near-edge piece and starts the v piece
    assert n_edge + n_unit + n_grown + n_beyond == table.x.size + 1
    # the cylinder end grows; toward it dr/dv is flat past _V_FLAT, so no node lies 1/2 apart beyond
    assert n_grown > 0 and n_beyond == 0
    assert samples == 2001
    # every segment that holds a sample is split into its parts
    held = np.unique(np.clip(np.searchsorted(table.r, np.linspace(0.0, 3.0, samples)), 1, table.x.size - 1))
    assert segments == held.size and parts == table.parts[held - 1].sum()
    assert segments <= parts <= geometry._MAX_PARTS * segments
    # the worst estimate over its tolerance, over the segments that hold samples, sets their most parts
    assert worst == geometry._parts(table._f, table.x, table.r)[1][held - 1].max() <= table.worst
    assert table.parts[held - 1].max() == min(max(math.ceil(worst ** 0.125), 1), geometry._MAX_PARTS)
    # the table's own quadrature; then the anchor's, 7 per part and one per sample
    assert table_evals == 7 * (table.x.size - 1)
    assert inverse_evals == 7 + 7 * parts + samples


@pytest.mark.parametrize("build,start", [
    (lambda: _blowup_start("G9", 2.0), "v from a blow-up"),
    (lambda: entry_metric(cached_entry("G11", 1.0)), "v from a cusp edge"),
    (lambda: entry_metric(cached_entry("G12", 1.0)), "v from an interior edge"),
    (lambda: entry_metric(cached_entry("G6", math.pi)), "near-edge piece"),
], ids=["g9_blowup", "g11_cusp_window", "g12_annulus_window", "g6_origin"])
def test_debug_record_names_the_start(build, start, caplog):
    with caplog.at_level(logging.DEBUG, logger="soliton.geometry"):
        build()
    (record,) = [rec for rec in caplog.records if rec.name == "soliton.geometry"]
    assert record.args[0] == start and record.args[1] == (start == "near-edge piece") * (geometry._EDGE_SEGMENTS + 1)
    assert math.isfinite(record.args[8]) and record.args[8] >= 0.0


@pytest.mark.parametrize("build,budget", [(lambda: _g6_to_50(20001), 64792 // 2), (_cigar_to_100, 2532)],
                         ids=["g6_to_50", "cigar_to_100_sparse"])
def test_inverse_evaluations_budget(build, budget, caplog):
    """Point-map evaluations of the inverse (anchor, parts and samples) on
    windows whose segments hold few samples each.  An inverse that took three
    Newton steps on the exact quadrature in each segment holding fewer than
    32 samples made 64792 on the G6 window and 2532 on the cigar's; this one
    makes at most half as many on the first and no more on the second."""
    with caplog.at_level(logging.DEBUG, logger="soliton.geometry"):
        build()
    (record,) = [rec for rec in caplog.records if rec.name == "soliton.geometry"]
    assert record.args[-2] <= budget


@pytest.mark.parametrize("case,parent", [("cigar", 5047), ("g4_plus_disk", 5054), ("g12_entry", 5782)])
def test_table_evaluations_budget(case, parent, monkeypatch):
    """Point-map evaluations of the largest arc table are at most a third of
    those of the table that spaced its v nodes 1/2 apart over the whole
    representable v-range (the counts in `parent`)."""
    gamma = cached_entry("G4_PLUS", 1.45).params.gamma
    run = {
        "cigar": lambda: build_warped_metric(closed_form_profile(make_params(0.0, -1.0), 1.0),
                                             (0.0, 0.0), (0.0, 5.0), 2001),
        "g4_plus_disk": lambda: disk_boundary_distance(gamma),
        "g12_entry": lambda: entry_metric(cached_entry("G12", 1.0)),
    }[case]
    counts, count = [], [0]
    point, init = geometry._ArcTable.point, geometry._ArcTable.__init__

    def counting_point(self, x):
        count[0] += np.size(x)
        return point(self, x)

    def counting_init(self, *args):
        start = count[0]
        init(self, *args)
        counts.append(count[0] - start)

    monkeypatch.setattr(geometry._ArcTable, "point", counting_point)
    monkeypatch.setattr(geometry._ArcTable, "__init__", counting_init)
    run()
    assert counts and max(counts) <= parent / 3


class TestCurvatureFromB:
    def test_cigar_at_one(self, cigar_metric):
        got = curvature_from_b(cigar_metric, 1.0)
        assert got == pytest.approx(2.0 / math.cosh(1.0) ** 2, abs=5e-4)

    def test_second_order(self, cigar_entry):
        from soliton2d import entry_metric

        def err(h):
            m = entry_metric(cigar_entry, h=h)
            i = int(np.argmin(np.abs(m.r - 1.0)))  # estimate lives at the snapped node
            return abs(curvature_from_b(m, m.r[i]) - 2.0 / math.cosh(m.r[i]) ** 2)

        assert err(2e-3) / err(1e-3) >= 3.0

    def test_flat_is_zero(self):
        prof = integrate_profile(make_params(-2.0, -1.0), 0.0, 1.0, (0.0, 10.0))
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 3.0), 1001)
        assert curvature_from_b(m, 1.5) == pytest.approx(0.0, abs=1e-9)

    def test_exploding_consistency(self):
        # -b''/b must agree with lambda - 2 mu b' for the tan metric
        prof = integrate_profile(make_params(0.0, 1.0), 0.0, 1.0, (0.0, math.inf))
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 1.2), 2401)
        got = curvature_from_b(m, 0.5)
        assert got == pytest.approx(-2.0 / math.cos(0.5) ** 2, abs=2e-4)
        i = int(np.argmin(np.abs(m.r - 0.5)))
        assert got == pytest.approx(-2.0 * m.b_prime[i], abs=2e-4)

    def test_edge_guard(self, cigar_metric):
        with pytest.raises(EdgeError):
            curvature_from_b(cigar_metric, cigar_metric.r[1])

    def test_k_consistency_all_interior(self, cigar_metric):
        m = cigar_metric
        h = m.spacing
        idx = range(10, m.r.size - 10, 200)
        for i in idx:
            fd = curvature_from_b(m, m.r[i])
            alg = m.params.lam - 2.0 * m.params.mu * m.b_prime[i]
            assert abs(fd - alg) <= 20.0 * h * h


class TestGeodesicCurvature:
    def test_flat_unit_circle(self):
        prof = integrate_profile(make_params(-2.0, -1.0), 0.0, 1.0, (0.0, 10.0))
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 3.0), 1001)
        assert geodesic_curvature(m, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_needs_positive_b(self, cigar_metric):
        with pytest.raises(DomainError, match="b\\(r0\\) > 0"):
            geodesic_curvature(cigar_metric, 0.0)  # the smooth origin, where b = 0

    @pytest.mark.parametrize("r0", [7.0, -1.0, math.inf, math.nan])
    def test_outside_the_grid_raises(self, cigar_metric, r0):
        # np.interp clamped: r0 = 7 and inf returned kappa at the grid's end, and nan returned nan
        with pytest.raises(DomainError, match="outside the grid"):
            geodesic_curvature(cigar_metric, r0)

    def test_cigar_value(self, cigar_metric):
        # analytic oracle sech^2(r)/tanh(r) from the tanh closed form
        got = geodesic_curvature(cigar_metric, 2.0)
        exact = (1.0 / math.cosh(2.0) ** 2) / math.tanh(2.0)
        assert got == pytest.approx(exact, abs=1e-6)

    def test_vanishes_at_boundary_blowup(self):
        # boundary-disk family: kappa -> 0 approaching the edge circle
        entry = cached_entry("G4_PLUS", 1.3)
        prof = entry.profile
        kappas = []
        for a_level in (1e2, 1e4, 1e6):
            from soliton2d import time_between_levels

            t = prof.t_ref + time_between_levels(prof.params, prof.a_ref, a_level)
            kappas.append(1.0 / (2.0 * a_level * math.sqrt(t)))
        assert kappas[0] > kappas[1] > kappas[2]
        assert kappas[2] <= 1e-4


class TestRadialDistance:
    def test_cigar_against_atanh(self):
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        # r(t): b = 2 sqrt(t) = tanh(r) so r = atanh(2 sqrt(t))
        for t in (0.01, 0.05, 0.2):
            assert radial_distance(prof, 0.0, t) == pytest.approx(
                math.atanh(2.0 * math.sqrt(t)), rel=1e-9
            )

    @pytest.mark.parametrize("t_from", [1e-300, 1e-12, 1e-6, 1e-3, 1e-2, 0.1, 0.24])
    def test_cigar_from_interior_edges(self, t_from):
        # tables from next to t = 0, which open with the explicit near-edge piece, to
        # next to the cylinder end, which start on the level coordinate
        prof = catalog("G1_CIGAR", 1.0).profile
        for t_to in (0.05, 0.2, 0.2499, 0.25 - 1e-9):
            if not t_from < t_to:
                continue
            with mpmath.workdps(40):
                ref = float(mpmath.atanh(2 * mpmath.sqrt(t_to)) - mpmath.atanh(2 * mpmath.sqrt(t_from)))
            got = radial_distance(prof, t_from, t_to)
            assert abs(got - ref) <= 4 * EPS * max(1.0, ref), (t_from, t_to)


class TestNearEdgePiece:
    """Tables that open at or next to a regular t = 0, on one branch of each class, against a
    40-digit mpmath quadrature over the level a, where dr = a da / (sqrt(t(a)) |a'(a)|), from
    edges at and near t = 0 to windows ending inside the near-edge piece (t_to = 0.04) and past
    its seam: radial_distance, which reads the edges' v from their times, and the window table
    of the same edges given by their levels.  Both open with the piece explicit in v."""

    CASES = [("G2_EXPLODING", 1.0, 0.3), ("G10", 1.0, 0.4), ("G7", 3.0 * math.pi, 0.7), ("G6", math.pi, 1.8)]

    @pytest.mark.parametrize("tag,nu,a_far", CASES, ids=["steady", "neg", "above", "below"])
    @pytest.mark.parametrize("t_from", [0.0, 1e-12, 1e-6, 1e-2])
    def test_radial_distance_matches_mpmath(self, tag, nu, a_far, t_from):
        prof = catalog(tag, nu).profile
        with mpmath.workdps(40):
            lam, mu, a_ref = (mpmath.mpf(x) for x in (prof.params.lam, prof.params.mu, prof.a_ref))

            def t_of(a):  # the profile is anchored at t_ref = 0
                with mpmath.extraprec(60):
                    return mp_time(lam, mu, a) - mp_time(lam, mu, a_ref)

            def level(t):
                return a_ref if t == 0 else mpmath.findroot(lambda a: t_of(a) - t, (a_ref, a_far), solver="anderson")

            def dr_da(y):  # at a = a_from + y; nodes that round onto a_from hold under 1e-20 of r
                with mpmath.extraprec(60):
                    a = a_from + y
                    t = t_of(a)
                    return a / (mpmath.sqrt(t) * abs(2 * lam * a**3 - 4 * mu * a**2)) if t > 0 else 0

            a_from = level(t_from)
            for a_to in (level(mpmath.mpf(0.04)), mpmath.mpf(a_far)):
                pts = [0] + [(a_to - a_from) * mpmath.mpf(2) ** -k for k in range(8, -1, -1)]
                ref = float(abs(mpmath.quad(dr_da, pts)))
                t_to = float(t_of(a_to))
                table = geometry._window_table(prof, t_from, t_to, float(a_from), float(a_to))
                assert table.start == "near-edge piece"
                for got in (radial_distance(prof, t_from, t_to), float(table.r[-1] - table.r[0])):
                    assert abs(got - ref) <= 4 * EPS * max(1.0, ref), (float(a_to), got, ref)


def _count_level_inversions(monkeypatch):
    """Sizes of the t arrays every ode._level_coordinate call inverts while the test runs."""
    sizes = []
    invert = geometry._level_coordinate

    def counting(params, branch, dt):
        sizes.append(np.size(dt))
        return invert(params, branch, dt)

    monkeypatch.setattr(geometry, "_level_coordinate", counting)
    monkeypatch.setattr(ode, "_level_coordinate", counting)
    return sizes


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_entry_metric_inverts_no_level(tag, monkeypatch):
    # every edge of an entry window is read from its level, and the samples from the point map
    entry = cached_entry(tag, FAMILY_SAMPLES[tag])
    sizes = _count_level_inversions(monkeypatch)
    entry_metric(entry)
    assert sizes == []


@pytest.mark.parametrize("tag", list(FAMILY_SAMPLES))
def test_entry_metric_reads_anchor_r_from_its_node(tag, monkeypatch):
    # the window starts at the table's first node, so r there is read, not integrated; the table, the
    # inverse and the samples take one point-map call each
    entry = cached_entry(tag, FAMILY_SAMPLES[tag])  # a G4 root solve builds metrics from times

    def no_quadrature(self, x):
        raise AssertionError("r_of_x called")

    calls, point = [], geometry._ArcTable.point

    def counting(self, x):
        calls.append(x.size)
        return point(self, x)

    monkeypatch.setattr(geometry._ArcTable, "r_of_x", no_quadrature)
    monkeypatch.setattr(geometry._ArcTable, "point", counting)
    entry_metric(entry)
    assert 1 <= len(calls) <= 3


@pytest.mark.parametrize("tag,nu", [("G10", 1.0), ("G7", 3.0 * math.pi), ("G6", math.pi), ("G5", 1.0)],
                         ids=["neg", "above", "below-cone", "below-decay"])
def test_time_based_paths_invert_only_scalars(tag, nu, monkeypatch):
    # radial_distance and build_warped_metric hold times: each edge and the anchor
    # cost one scalar inversion, and the near-edge piece is evaluated from v
    prof = catalog(tag, nu).profile
    sizes = _count_level_inversions(monkeypatch)
    for t_to in (0.04, 0.5):  # inside the near-edge piece and past its seam
        radial_distance(prof, 0.0, t_to)
        radial_distance(prof, 1e-6, t_to)
    for b0 in (0.0, 0.2, 1.0):  # anchors at the smooth origin, inside the piece and past it
        build_warped_metric(prof, (0.0, b0), (0.0, 2.0), 2001)
    assert sizes and set(sizes) == {1}


def test_disk_distance_inverts_only_scalars(monkeypatch):
    sizes = _count_level_inversions(monkeypatch)
    disk_boundary_distance(0.5)
    assert sizes and set(sizes) == {1}


def test_distance_only_tables_skip_the_inverse_parts(monkeypatch):
    # x_of_r's parts are made on its first call: distances never make them
    def refuse(*args):
        raise AssertionError("_parts ran")

    monkeypatch.setattr(geometry, "_parts", refuse)
    for gamma in (0.5, 0.999, -2.0):
        disk_boundary_distance(gamma)
    for tag, t_from, t_to in (("G6", 0.0, 0.5), ("G10", 0.0, 0.5), ("G7", 1e-6, 2.0), ("G9", 0.25, 1.0)):
        prof = cached_entry(tag, FAMILY_SAMPLES[tag]).profile
        assert radial_distance(prof, t_from, t_to) > 0.0
    with pytest.raises(AssertionError, match="_parts ran"):  # the inverse still needs them
        build_warped_metric(cached_entry("G6", math.pi).profile, (0.0, 0.0), (0.0, 1.0), 11)


@pytest.mark.parametrize("build", [
    lambda: entry_metric(cached_entry("G6", math.pi)),
    lambda: entry_metric(cached_entry("G12", 1.0)),
    lambda: build_warped_metric(closed_form_profile(make_params(0.0, -1.0), 1.0), (0.0, 0.0), (0.0, 3.0), 2001),
], ids=["g6_entry", "g12_entry", "cigar_metric"])
def test_debug_record_carries_worst(build, caplog, inversions):
    # the estimates, made on first use, are the ones _parts gives for the table; the record carries the worst
    # over the segments that held samples, table.worst the worst over all of them
    with caplog.at_level(logging.DEBUG, logger="soliton.geometry"):
        build()
    (record,) = [rec for rec in caplog.records if rec.name == "soliton.geometry"]
    ((table, r, _),) = inversions
    parts, ratio = geometry._parts(table._f, table.x, table.r)
    used = np.unique(np.searchsorted(table.r[1:-1], np.clip(r, table.r[0], table.r[-1])))
    assert record.args[8] == ratio[used].max() <= table.worst == ratio.max()
    assert math.isfinite(table.worst) and record.args[8] >= 0.0
    assert np.array_equal(table.parts, parts)


SMOOTH_FAMILIES = ("G1_CIGAR", "G2_EXPLODING", "G4_PLUS", "G4_MINUS", "G5", "G6", "G7", "G10")


@pytest.mark.parametrize("tag,nu", [(tag, nu) for tag in SMOOTH_FAMILIES for nu in NU_SAMPLES[tag]]
                         + [("G1_CIGAR", 0.91), ("G2_EXPLODING", 0.91), ("G6", 3.14159), ("G6", 0.91)])
def test_curvature_at_the_origin_circle_matches_mpmath(tag, nu):
    # K at the t = 0 circle is lambda - 2 mu / a(0), with a(0) = a_ref exactly where the
    # entry is anchored at t = 0; from an inverted a(0) it was 1-4 ulps off
    prof = cached_entry(tag, nu).profile
    p = prof.params
    assert prof.t_ref == 0.0
    with mpmath.workdps(40):
        ref = float(mpmath.mpf(p.lam) - 2 * mpmath.mpf(p.mu) / mpmath.mpf(prof.a_ref))
    rep = geometry_report(prof)
    assert rep.inner_end.kind == "SMOOTH_POINT"
    increasing = rep.curvature_sign == "POSITIVE"
    assert (rep.K_inf if (p.mu > 0.0) == increasing else rep.K_sup) == ref


@pytest.mark.parametrize("lam,mu,a0", [
    (-4.34892564534987e-44, 4.2733610360622594e-181, 1.0),  # |dt/dv| = 1 / (4 mu gamma ...) overflows
    (-3.51803444315493e-76, -1.9954481924456055e+96, 2.06395796731846e-176),  # C = G(a0) = inf
    (1.5990606360856977e-141, 9.490762255336447e-141, 4.974582825776629e-212),  # C = -inf
])
def test_edge_outside_float_range_raises(lam, mu, a0):
    # the near-edge piece has no digits; the table built from nan nodes and raised untyped errors
    prof = integrate_profile(make_params(lam, mu), 0.0, a0, (-math.inf, math.inf))
    with pytest.raises(RangeError, match="leaves the float range"):
        radial_distance(prof, 1e-9, 1e-3)


@pytest.mark.parametrize("mu", [1e-16, 1e-18])
def test_one_node_table_raises(mu):
    # the near-edge span rounds to 0 against |C| = 1 / (4 mu): the table kept one node, and point sent its
    # empty input to a v piece this table has not (AttributeError); the true distance is about 0.1
    prof = integrate_profile(make_params(0.0, mu), 0.0, 1.0, (-math.inf, math.inf))
    with pytest.raises(RangeError, match="one node"):
        radial_distance(prof, 0.0, 0.0025)


@pytest.mark.parametrize("make", [
    _cigar_table,  # near-edge piece and v piece
    lambda: geometry._window_table(catalog("G12", 1.0).profile, 1.0, 2.0),  # the v piece alone
    lambda: geometry._ArcTable(constant_profile(make_params(-2.0, -1.0), (0.0, 5.0)), 0.0, 5.0),  # edge alone
])
def test_point_of_no_samples(make):
    assert [val.size for val in make().point(np.empty(0))] == [0, 0, 0]


class TestRadialDistanceMpmath:
    """radial_distance against a 40-digit mpmath quadrature of dr = a dt/sqrt(t).

    The oracle runs over y = log|a - gamma|, where both a and the closed-form
    t = t_ref + G(a) - G(a_ref) are explicit, so no level is inverted and the
    cone or decay tail can be followed to t ~ 1e7.  dr/dy = |gamma / (4 mu a
    sqrt(t))|.  In the level pairs None is the anchor (t = 0 on G6 and G10)
    and inf the blow-up edge (the geodesic boundary of G9).
    """

    CASES = [
        ("G6", math.pi, [(None, -1.0), (-0.5, -3.0), (None, -4e8), (-40.0, -60.0)]),
        ("G10", 1.0, [(None, math.log(1.5)), (math.log(1.5), math.log(1.01)),
                      (None, math.log1p(1e-8))]),
        ("G9", 2.0, [(math.inf, 0.0), (math.inf, -20.0), (math.inf, -40.0), (math.inf, -60.0)]),
        # from the geodesic boundary, where the table stops its tail
        ("G12", 1.0, [(math.inf, 0.5), (math.inf, 3.0)]),
    ]

    @pytest.mark.parametrize("tag,nu,pairs", CASES, ids=[c[0] for c in CASES])
    def test_matches_mpmath(self, tag, nu, pairs):
        prof = catalog(tag, nu).profile
        with mpmath.workdps(40):
            lam, mu = mpmath.mpf(prof.params.lam), mpmath.mpf(prof.params.mu)
            g = 2 * mu / lam
            sign = 1 if prof.a_ref > g else -1

            def a_of(y):
                return g + sign * mpmath.exp(y)

            def G(y):
                return ((y - mpmath.log(a_of(y))) / g + 1 / a_of(y)) / (4 * mu)

            y_ref = mpmath.log(abs(prof.a_ref - g))

            def t_of(y):  # 60 extra bits keep t > 0 at nodes next to the anchor
                with mpmath.extraprec(60):
                    return prof.t_ref + G(y) - G(y_ref)

            def dr_dy(y):
                return abs(g / (4 * mu * a_of(y) * mpmath.sqrt(t_of(y))))

            for y1, y2 in pairs:
                y2 = mpmath.mpf(y2)
                if y1 == math.inf:  # breakpoints doubling their distance from y2 resolve far levels
                    t_from, pts = prof.t0, [y2] + [y2 + 2**k for k in range(10)] + [mpmath.inf]
                else:
                    y1 = y_ref if y1 is None else mpmath.mpf(y1)
                    t_from = float(t_of(y1))
                    # breakpoints 16 times closer to y1 each resolve long ranges
                    n = int(mpmath.log(abs(y2 - y1) + 1, 16)) + 1
                    pts = [y1] + [y1 + (y2 - y1) * mpmath.mpf(16) ** (k - n) for k in range(n + 1)]
                ref = abs(mpmath.quad(dr_dy, pts))
                got = radial_distance(prof, t_from, float(t_of(y2)))
                assert abs(got - ref) <= 1e-12 * ref, (y1, y2)

    def test_boundary_from_far_along_the_cone(self):
        # t = 0 of this G4_PLUS-type branch lies some 2300 units of v out on
        # the cone side of its turn, so its table follows the cone law from
        # there (nodes growing away from the singularity of the law at t = 0)
        # and is 1/2 apart again across the turn: nodes grown across the turn
        # once put this distance to the boundary 0.26 % off
        prof = integrate_profile(make_params(0.179, 5.57), 1.693, 90.09, (-math.inf, math.inf))
        with mpmath.workdps(40):
            mu, g = mpmath.mpf(prof.params.mu), 2 * mpmath.mpf(prof.params.mu) / mpmath.mpf(prof.params.lam)

            def G(y):  # t = C + G, with a = g + e^y above the separatrix
                a = g + mpmath.exp(y)
                return ((y - mpmath.log(a)) / g + 1 / a) / (4 * mu)

            def dr_dy(y):
                a = g + mpmath.exp(y)
                return g / (4 * mu * a * mpmath.sqrt(abs(prof.C + G(y))))  # abs: t(y0) rounds to +-0

            y0 = mpmath.findroot(lambda y: prof.C + G(y), -2345)  # t = 0
            pts = [y0 + d for d in (0, 1, 10, 100, 1000)] + [-300, -100, -30, -10, 0, 10, 30, 100, mpmath.inf]
            ref = mpmath.quad(dr_dy, pts)
        got = radial_distance(prof, 0.0, prof.C)
        assert abs(got - ref) <= 1e-12 * ref

    def test_infinitely_far_edges_raise(self):
        with pytest.raises(DomainError):
            radial_distance(catalog("G1_CIGAR", 1.0).profile, 0.0, 0.25)  # cylinder
        with pytest.raises(DomainError):
            radial_distance(catalog("G11", 1.0).profile, 0.0, 1.0)  # cusp


class TestBlowUpEnds:
    """One rule names a blow-up end at T >= 0: a cylinder when lambda = 0, a
    cusp at T = 0, both at infinite distance, and a geodesic boundary
    otherwise."""

    @pytest.mark.parametrize("tag", ["G8", "G9", "G3"])
    def test_origin_anchor_off_the_domain(self, tag):
        # the cusp (G8) and cylinder (G3) lie at infinite distance, and the
        # G9 boundary leaves no t = 0: b0 = 0 is an anchor like any other
        prof = catalog(tag, 1.0).profile
        with pytest.raises(DomainError, match="anchor circle lies outside the profile domain"):
            build_warped_metric(prof, (0.0, 0.0), (0.0, 1.0), 11)

    @pytest.mark.parametrize("tag,kind", [("G3", "CYLINDER_END"), ("G8", "CUSP_END"), ("G9", "GEODESIC_BOUNDARY")])
    def test_inner_end_and_distance(self, tag, kind):
        prof = catalog(tag, 1.0).profile
        rep = geometry_report(prof)
        assert rep.inner_end.kind == kind and rep.complete_inner == (kind != "GEODESIC_BOUNDARY")
        assert geometry._far_edge(prof, prof.t0) == rep.complete_inner

    def test_a0_underflow_is_a_range_error(self):
        # a(0) underflows to 0 on a steady branch: the cone angle 2 pi / a(0) divided by zero
        prof = integrate_profile(make_params(0.0, -2.385431410574351e+197), 9.987123255918306e+220,
                                 4.336074798850423e-223, (-math.inf, math.inf))
        with np.errstate(over="ignore"), pytest.raises(RangeError, match="a\\(0\\) underflows"):
            geometry_report(prof)

    @pytest.mark.parametrize("lam,mu,a_ref", [
        (-1.0, 1.0, 0.5), (-1.0, -1.0, 0.5), (1.0, 1.0, 3.0), (1.0, -1.0, 3.0),
        (1.0, 1.0, 1.0), (-1.0, -2.0, 1.0), (0.0, 1.0, 1.0), (0.0, -1.0, 1.0),
    ])
    def test_table_direction_is_the_slope_sign(self, lam, mu, a_ref):
        # a rises with v on every branch class, so sign dt/dv = sign a'
        prof = integrate_profile(make_params(lam, mu), 0.0, a_ref, (-math.inf, math.inf))
        table = geometry._ArcTable(prof, *geometry._metric_t_interval(prof))
        with np.errstate(all="ignore"):  # dr/dv is not read, and t < 0 at some v
            dt_dv = table._v_point(np.linspace(-5.0, 5.0, 11))[2]
        assert np.all(np.sign(dt_dv) == table.sigma)
        assert table.sigma == np.sign(prof.params.rhs(a_ref))


class TestCylinderEnds:
    """A cylinder end lies at infinite distance: windows deep into it build,
    with b at the cylinder radius."""

    def test_cigar_outer_cylinder(self):
        m = build_warped_metric(catalog("G1_CIGAR", 1.0).profile, (0.0, 0.0), (0.0, 50.0), 201)
        assert m.r[-1] == 50.0
        assert abs(m.b[-1] - 1.0) <= 1e-12

    def test_g3_inner_cylinder(self):
        m = build_warped_metric(catalog("G3", 1.0).profile, (0.0, 3.0), (-50.0, 1.0), 201)
        assert m.r[0] == -50.0
        assert abs(m.b[0] - 1.0) <= 1e-12

    def test_steady_turn_past_the_v_range(self):
        # G3 at nu = 1e-100 turns at v = -log(nu^2) = 460, past _V_MAX = 350:
        # across the table t - C = e^-v / 4 >> C and dr/dv = e^(v/2) / 2 grows,
        # so its nodes stay 1/2 apart up to the cylinder end
        prof = catalog("G3", 1e-100).profile
        table = geometry._ArcTable(prof, *geometry._metric_t_interval(prof)[:2])
        k = int(np.argmin(np.abs(table.x)))
        v_k = table.sigma * table.x[k] + table.v_shift
        assert -table.r[0] == pytest.approx(math.exp(geometry._V_MAX / 2) - math.exp(v_k / 2), rel=1e-14)

    def test_anchor_on_cylinder_rejected(self):
        # the cylinder circle itself is not at any finite r
        with pytest.raises(DomainError):
            build_warped_metric(catalog("G1_CIGAR", 1.0).profile, (0.0, 1.0), (-1.0, 0.0), 11)


class TestGeometryReport:
    def test_cigar(self):
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        rep = geometry_report(prof)
        assert rep.complete and rep.complete_inner and rep.complete_outer
        assert rep.curvature_sign == "POSITIVE"
        assert (rep.K_inf, rep.K_sup) == (pytest.approx(0.0), pytest.approx(2.0))
        assert rep.outer_end.kind == "CYLINDER_END"
        assert rep.outer_end.radius == pytest.approx(1.0, abs=1e-6)
        assert rep.inner_end.kind == "SMOOTH_POINT"

    def test_exploding(self):
        prof = integrate_profile(make_params(0.0, 1.0), 0.0, 1.0, (0.0, math.inf))
        rep = geometry_report(prof)
        assert not rep.complete
        assert rep.K_inf == -math.inf and rep.K_sup == pytest.approx(-2.0)
        assert rep.outer_end.kind == "EXPLODING_END"
        assert rep.outer_end.nu == pytest.approx(1.0)
        assert not rep.bounded_curvature

    def test_g6_cone(self):
        prof = integrate_profile(make_params(-1.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        rep = geometry_report(prof)
        assert rep.complete
        assert rep.curvature_sign == "POSITIVE"
        assert rep.outer_end.kind == "CONE_END"
        assert rep.outer_end.angle == pytest.approx(math.pi, abs=1e-10)

    def test_bounded_iff_a_bounded_away_from_zero(self):
        # decaying branch: curvature unbounded; converging branch: bounded
        rep_decay = geometry_report(
            integrate_profile(make_params(0.0, 1.0), 0.0, 1.0, (0.0, math.inf))
        )
        assert not rep_decay.bounded_curvature
        rep_conv = geometry_report(
            integrate_profile(make_params(-1.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        )
        assert rep_conv.bounded_curvature

    def test_truncated_window_resolves(self):
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, 0.1))
        rep = geometry_report(prof)  # re-integrates the maximal interval
        assert rep.outer_end.kind == "CYLINDER_END"

    def test_json_shape(self):
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, math.inf))
        d = geometry_report(prof).to_json_dict()
        assert d["complete"] is True
        assert d["outer_end"]["kind"] == "CYLINDER_END"
        assert "radius" in d["outer_end"]

    def test_cone_vertex_incomplete(self):
        # a(0) = 2 != 1: flat-cone-like vertex at the origin, not smooth
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 2.0, (0.0, math.inf))
        rep = geometry_report(prof)
        assert rep.inner_end.kind == "CONE_END"
        assert rep.inner_end.angle == pytest.approx(math.pi, rel=1e-8)
        assert not rep.complete_inner

    @pytest.mark.parametrize("tag,nu", [("G11", 0.5114), ("G8", 5.6569)])
    def test_cusp_entries_report_cusp_end(self, tag, nu):
        # the blow-up exactly at t = 0 is the cusp, with no fitted tail to miss
        rep = geometry_report(catalog(tag, nu).profile)
        assert rep.inner_end.kind == "CUSP_END"
        assert rep.inner_end.curvature == -1.0

    @pytest.mark.parametrize("nu", [5.0, 50.0, 1e3])
    def test_g11_cusp_over_whole_range(self, nu):
        # G11's range is (0, inf); its cusp is decided by T0 = 0 alone, with
        # no threshold on the circle length or the curvature near t = 0
        rep = geometry_report(catalog("G11", nu).profile)
        assert rep.inner_end.kind == "CUSP_END"
        assert rep.inner_end.curvature == -1.0
        assert rep.outer_end.kind == "EXPLODING_END"


# (lam, mu, t_ref, a_ref, windows): each window truncates an end of the
# branch through the anchor, or starts it at t = 0
WINDOWED_BRANCHES = {
    "cigar": (0.0, -1.0, 0.0, 1.0, [(0.0, 0.1), (-1.0, 0.2), (0.0, math.inf)]),
    "cigar_before_origin": (0.0, -1.0, -0.5, 1.0 / 3.0, [(-1.0, -0.25)]),
    "g6": (-1.0, -1.0, 0.0, 1.0, [(0.0, 1.0), (-0.5, 2.0), (0.0, math.inf)]),
    "cone_vertex": (-1.0, -1.0, 0.0, 0.5, [(0.0, 1.0), (-3.0, 0.5)]),
    "exploding": (0.0, 1.0, 1.0, 0.2, [(0.5, 2.0), (1.0, math.inf), (-1.0, 1.0)]),
    "boundary_cone": (-1.0, -1.0, 1.0, 5.0, [(0.9, 1.1), (1.0, math.inf)]),
    "boundary_exploding": (-2.0, 1.0, 1.0, 3.0, [(0.9, 1.1), (1.0, 50.0)]),
    "disk": (2.0, -1.0, 0.0, 1.0, [(0.0, 0.05), (-0.1, 0.1)]),
}


class TestReportReadsMaximalBranch:
    @pytest.mark.parametrize("case", WINDOWED_BRANCHES.values(), ids=WINDOWED_BRANCHES.keys())
    def test_window_reports_as_maximal_branch(self, case):
        lam, mu, t_ref, a_ref, windows = case
        p = make_params(lam, mu)
        full = geometry_report(integrate_profile(p, t_ref, a_ref, (-math.inf, math.inf)))
        for window in windows:
            assert geometry_report(integrate_profile(p, t_ref, a_ref, window)) == full, window

    @pytest.mark.parametrize("window", [(0.0, 5.0), (-5.0, -1.0), (2.0, math.inf)])
    def test_constant_window_reports_as_whole_cone(self, window):
        p = make_params(-2.0, -0.5)  # gamma = 1/2: a flat cone of angle 4 pi
        full = geometry_report(constant_profile(p, (-math.inf, math.inf)))
        assert full.inner_end.kind == "CONE_END" and full.outer_end.kind == "CONE_END"
        assert geometry_report(constant_profile(p, window)) == full

    def test_near_flat_separatrix_is_flat(self):
        # gamma = 1 + 1e-10 is a smooth origin, and the plane is reported
        # flat, although lambda - 2 mu is -2e-10
        p = make_params(2.0, 1.0 + 1e-10)
        rep = geometry_report(constant_profile(p, (-math.inf, math.inf)))
        assert rep.inner_end == EndDescriptor("SMOOTH_POINT", curvature=0.0)
        assert rep.outer_end == EndDescriptor("CONE_END", angle=2.0 * math.pi / p.gamma)
        assert (rep.K_inf, rep.K_sup, rep.complete) == (0.0, 0.0, True)


class TestMetricFromGrid:
    def test_recovers_cigar_curvature(self):
        r = np.arange(0.2, 3.0, 1e-3)
        m = metric_from_grid(SolitonParams(0.0, -1.0), r, np.tanh(r))
        exact = 2.0 / np.cosh(r) ** 2
        assert np.max(np.abs(m.K - exact)[2:-2]) <= 1e-5

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            metric_from_grid(SolitonParams(0.0, -1.0), np.arange(3.0), np.ones(4))

    def test_rejects_non_uniform_grid(self):
        # every stencil takes h = r[1] - r[0]: on this grid the cigar's K came out 2.37 off
        r = np.linspace(0.5, 3.0, 2001) ** 1.5
        with pytest.raises(DomainError, match="uniform"):
            metric_from_grid(SolitonParams(0.0, -1.0), r, np.tanh(r))

    def test_rejects_zero_warping(self):
        # b(0) = 0 gave K[0] = -b''/0 = inf, with a divide-by-zero RuntimeWarning
        r = np.linspace(0.0, 3.0, 3001)
        with pytest.raises(DomainError, match="b > 0"):
            metric_from_grid(SolitonParams(0.0, -1.0), r, np.tanh(r))

    @pytest.mark.parametrize("r,b", [
        (np.linspace(3.0, 0.2, 101), None), (np.linspace(0.2, 3.0, 101)[[0, 1, 2, 4, 3, *range(5, 101)]], None),
        (np.r_[np.linspace(0.2, 3.0, 100), np.nan], None), (np.r_[np.linspace(0.2, 3.0, 100), np.inf], None),
        (None, np.r_[np.ones(100), np.nan]), (None, np.r_[np.ones(100), np.inf]), (None, np.r_[np.ones(100), -1.0]),
    ], ids=["decreasing", "unsorted", "nan-r", "inf-r", "nan-b", "inf-b", "negative-b"])
    def test_rejects_grid_it_cannot_difference(self, r, b):
        r = np.linspace(0.2, 3.0, 101) if r is None else r
        with pytest.raises(DomainError):
            metric_from_grid(SolitonParams(0.0, -1.0), r, np.tanh(r) if b is None else b)

    @pytest.mark.parametrize("r", [np.linspace(0.2, 3.0, 2801), np.linspace(-5.0, -0.1, 1001),
                                   np.linspace(1000.0, 1001.0, 1001), np.cumsum(np.full(3000, 1e-3))])
    def test_accepts_uniform_grids(self, r):
        m = metric_from_grid(SolitonParams(0.0, -1.0), r, np.abs(np.tanh(r)))
        assert np.isfinite(m.K).all()


class TestMetricCsv:
    def test_matches_per_row_format(self):
        prof = catalog("G7", 3.0 * math.pi).profile
        m = build_warped_metric(prof, (0.0, 0.0), (0.0, 4.0), 2001)
        rows = "".join(f"{r:.17g},{b:.17g},{bp:.17g},{k:.17g}\n"
                       for r, b, bp, k in zip(m.r, m.b, m.b_prime, m.K))
        assert m.to_csv() == "r,b,db_dr,K\n" + rows

    def test_header_and_roundtrip(self, cigar_metric):
        text = cigar_metric.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "r,b,db_dr,K"
        r, b, bp, K = map(float, lines[5].split(","))
        assert b == pytest.approx(math.tanh(r), abs=1e-8)
        assert K == pytest.approx(2.0 * (1.0 - b * b), abs=1e-8)
