import logging
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soliton2d import (
    DomainError,
    FamilyLabel,
    RangeError,
    SolitonError,
    Rescale,
    Scale,
    SolitonParams,
    Translate,
    apply_symmetry,
    build_warped_metric,
    catalog,
    catalog_listing,
    classify,
    disk_boundary_distance,
    entry_metric,
    geometry_report,
    integrate_profile,
    make_params,
)
from soliton2d import geometry, ode, taxonomy
from soliton2d.geometry import radial_distance
from soliton2d.taxonomy import CATALOG_TABLE, FAMILY_TAGS, _disk_profile
from conftest import FAMILY_SAMPLES, NU_SAMPLES, cached_entry
from reference import Branch, blow_up_time, ulps


def disk_distance(lam, mu):
    """Distance from a(0) = 1 at t = 0 to the blow-up of the branch, 40 digits."""
    with mpmath.workdps(40):
        return Branch.of(lam, mu).through(0, 1).distance([1, 2, 10, 100, mpmath.inf])


class TestClassifyDecisionTable:
    def test_steady_cigar(self):
        prof = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, 0.2))
        assert classify(prof).tag == "G1_CIGAR"

    def test_steady_exploding_vs_g3(self):
        p = make_params(0.0, 1.0)
        assert classify(integrate_profile(p, 0.0, 1.0, (0.0, 1.0))).tag == "G2_EXPLODING"
        # anchor on the branch behind the pole: phi <= 0
        assert classify(integrate_profile(p, 0.5, 1.0, (0.3, 5.0))).tag == "G3"

    def test_positive_gamma_mu_positive(self):
        p = SolitonParams(4.0, 1.0)  # gamma = 1/2
        assert classify(integrate_profile(p, 0.0, 1.0, (0.0, 0.05))).tag == "G4_PLUS"
        p5 = SolitonParams(1.0, 1.0)  # gamma = 2
        assert classify(integrate_profile(p5, 0.0, 1.0, (0.0, 0.5))).tag == "G5"

    def test_positive_gamma_mu_negative(self):
        p6 = SolitonParams(-1.0, -1.0)  # gamma = 2, start below
        assert classify(integrate_profile(p6, 0.0, 1.0, (0.0, 1.0))).tag == "G6"
        p7 = SolitonParams(-4.0, -1.0)  # gamma = 1/2, start above: T0 < 0 always
        assert classify(integrate_profile(p7, 0.0, 1.0, (0.0, 1.0))).tag == "G7"

    def test_negative_gamma(self):
        p4m = SolitonParams(2.0, -1.0)  # gamma = -1
        assert classify(integrate_profile(p4m, 0.0, 1.0, (0.0, 0.05))).tag == "G4_MINUS"
        p10 = SolitonParams(-2.0, 1.0)  # gamma = -1
        assert classify(integrate_profile(p10, 0.0, 1.0, (0.0, 1.0))).tag == "G10"

    def test_flat_separatrix(self):
        prof = integrate_profile(make_params(-2.0, -1.0), 0.0, 1.0, (0.0, 1.0))
        assert classify(prof).tag == "FLAT_SEPARATRIX"

    def test_anchor_within_the_snap_of_gamma(self):
        # a nonconstant branch through gamma (1 + 1e-14) lies within SEPARATRIX_SNAP of gamma = 2: the flat cone
        p = make_params(1.0, 1.0)
        a = p.gamma * (1.0 + 1e-14)
        prof = ode.implicit_profile(p, 1.0, a, 1.0 - ode._separatrix_time(p, a), (-math.inf, math.inf))
        assert not prof.is_constant and classify(prof).tag == "FLAT_SEPARATRIX"

    def test_label_of_a_resolved_family_prints_its_tag(self):
        assert str(FamilyLabel("G6")) == "G6"

    def test_t0_positive_families_from_translation(self):
        # same solution curve, anchored so the blow-up lands at t = 0.4 > 0
        entry = cached_entry("G9", 2.0)
        p = entry.params
        prof = entry.profile
        shifted = apply_symmetry(prof, Translate(0.15))  # T0: 1/4 -> 0.4
        assert classify(shifted).tag == "G9"

    def test_unresolved_near_zero_t0(self):
        # anchor numerically so that T0 is within its uncertainty of zero
        p = SolitonParams(-1.0, -1.0)  # gamma = 2, branch above
        from soliton2d.ode import _separatrix_time

        t_anchor = _separatrix_time(p, 1e6)  # T0 = 0 exactly, but unflagged
        prof = integrate_profile(p, t_anchor, 1e6, (t_anchor - 1.0, math.inf))
        label = classify(prof)
        assert label.tag == "UNRESOLVED_T0_SIGN"
        assert abs(label.t0_estimate) <= label.t0_uncertainty
        assert str(label) == f"UNRESOLVED_T0_SIGN(T0={label.t0_estimate:g} +- {label.t0_uncertainty:g})"

    def test_t0_bound_does_not_depend_on_the_window(self):
        # lambda = mu = -1 through a(1) = 3 blows up at T0 = C = 0.946; cut to
        # (0.98, 2) the profile's t0 is the window's edge, but T0 and its bound are C's
        p = SolitonParams(-1.0, -1.0)
        whole, cut = (classify(integrate_profile(p, 1.0, 3.0, window))
                      for window in ((-math.inf, math.inf), (0.98, 2.0)))
        assert whole.tag == cut.tag == "G9" and cut.t0_estimate == whole.t0_estimate
        assert cut.t0_uncertainty == whole.t0_uncertainty == 3.848773152033876e-15
        assert type(whole.t0_uncertainty) is float

    def test_exact_t0_catalog_is_not_unresolved(self):
        for tag in ("G8", "G11"):
            entry = cached_entry(tag, FAMILY_SAMPLES[tag])
            assert entry.profile.t0_exact and entry.profile.t0 == 0.0
            assert classify(entry.profile).tag == tag

    @pytest.mark.parametrize("tag,inner", [("G8", "CUSP_END"), ("G9", "GEODESIC_BOUNDARY")])
    @pytest.mark.parametrize("nu", [1e-8, 1e-6, 2.0 * math.pi * 1e-6])
    def test_blowup_entries_at_small_cone_angle(self, tag, inner, nu):
        # gamma = 2 pi / nu reaches and passes the fixed anchor level 1e6; the
        # anchor must stay above the separatrix for the branch to be G8 / G9
        entry = catalog(tag, nu)
        assert entry.family.tag == tag
        rep = geometry_report(entry.profile)
        assert rep.inner_end.kind == inner
        assert rep.outer_end.kind == "CONE_END"
        assert rep.outer_end.angle == pytest.approx(nu, rel=1e-12)

    @pytest.mark.parametrize("lam,mu,t0,a0,tag", [
        (-1.0, -1.0, 1.0, 3.0, "G9"),  # T0 = C decided against its uncertainty
        (-1.0, 1.0, 0.0, 1.0, "G10"),
        (0.0, -1.0, 0.0, 1.0, "G1_CIGAR"),  # no T0 sign to decide: no uncertainty
    ])
    def test_debug_record(self, lam, mu, t0, a0, tag, caplog):
        prof = integrate_profile(make_params(lam, mu), t0, a0, (-math.inf, math.inf))
        with caplog.at_level(logging.INFO, logger="soliton.taxonomy"):
            classify(prof)
        # at --log-level=DEBUG the capture also holds the soliton.ode record of integrate_profile
        assert [rec for rec in caplog.records if rec.name == "soliton.taxonomy"] == []
        with caplog.at_level(logging.DEBUG, logger="soliton.taxonomy"):
            label = classify(prof)
        (record,) = [rec for rec in caplog.records if rec.name == "soliton.taxonomy"]
        assert record.args == (tag, prof.C, label.t0_uncertainty) and label.tag == tag
        assert (label.t0_uncertainty is None) == (tag == "G1_CIGAR")


class TestCatalog:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_round_trip(self, tag):
        entry = cached_entry(tag, FAMILY_SAMPLES[tag])
        assert classify(entry.profile).tag == tag
        assert entry.family.tag == tag

    def test_cigar_entry_closed_form(self):
        entry = cached_entry("G1_CIGAR", 1.0)
        assert entry.params.lam == 0.0 and entry.params.mu == -1.0
        ts = np.linspace(-0.5, 0.2, 10)
        np.testing.assert_allclose(entry.profile.a(ts), 1.0 / (1.0 - 4.0 * ts), rtol=1e-14)

    def test_g6_cone_angle(self):
        entry = cached_entry("G6", math.pi)
        assert entry.params.gamma == pytest.approx(2.0)
        rep = geometry_report(entry.profile)
        assert rep.outer_end.angle == pytest.approx(math.pi, abs=1e-10)

    def test_g3_zero_nu(self):
        entry = catalog("G3", 0.0)
        rep = geometry_report(entry.profile)
        assert rep.inner_end.kind == "CYLINDER_END"
        assert rep.inner_end.radius == pytest.approx(0.0, abs=1e-12)

    def test_range_enforcement(self):
        with pytest.raises(RangeError):
            catalog("G6", 7.0)  # >= 2 pi
        with pytest.raises(RangeError):
            catalog("G7", 6.0)  # <= 2 pi
        with pytest.raises(RangeError):
            catalog("G4_PLUS", 0.9)
        with pytest.raises(RangeError):
            catalog("G4_MINUS", 1.0)
        with pytest.raises(RangeError):
            catalog("G1_CIGAR", -1.0)

    def test_unknown_tag_raises_range(self):
        with pytest.raises(RangeError, match="unknown family tag 'G13'"):
            catalog("G13", 1.0)

    @pytest.mark.parametrize("tag, nu", [
        ("G6", math.nextafter(2.0 * math.pi, 0.0)),
        ("G6", 2.0 * math.pi * (1.0 - 1e-15)),
        ("G7", 2.0 * math.pi * (1.0 + 1e-13)),
    ])
    def test_other_family_next_to_two_pi_raises(self, tag, nu):
        # a(0) = 1 lies within SEPARATRIX_SNAP of gamma = 2 pi / nu, so the branch
        # snapped to the constant solution and the entry came out FLAT_SEPARATRIX
        with pytest.raises(RangeError, match=f"^{tag} at nu = .* builds a FLAT_SEPARATRIX branch, not a {tag} one$"):
            catalog(tag, nu)

    @pytest.mark.parametrize("tag", ["G5", "G2_EXPLODING"])
    def test_overflowing_scale_raises(self, tag):
        # mu = nu^2 = 1e308 overflows 4 mu; both entries used to come out
        # as G3 with K_inf = K_sup = nan
        with pytest.raises(RangeError):
            catalog(tag, 1e154)
        assert catalog(tag, 1e153).family.tag == tag

    def test_g4_plus_unattainable_above_hemisphere(self):
        # the boundary distance tends to the constant-curvature value pi/2
        # as gamma -> 0+, so larger requests cannot be realized
        with pytest.raises(RangeError):
            catalog("G4_PLUS", 2.0)

    def test_g4_distance_normalization(self):
        for tag in ("G4_PLUS", "G4_MINUS"):
            entry = cached_entry(tag, FAMILY_SAMPLES[tag])
            assert entry.nu == pytest.approx(FAMILY_SAMPLES[tag], abs=1e-8)
            # blow-up at 1/4 means the boundary circle has length 2 pi
            assert entry.profile.t1 == pytest.approx(0.25, abs=1e-9)

    def test_disk_boundary_distance_monotone(self):
        d = [disk_boundary_distance(g) for g in (0.2, 0.5, 0.8)]
        assert d[0] > d[1] > d[2] > 1.0
        dm = [disk_boundary_distance(g) for g in (-10.0, -1.0, -0.1)]
        assert dm[0] > dm[1] > dm[2] > math.pi / 2.0

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 0.0])
    def test_disk_boundary_distance_outside_its_gammas(self, gamma):
        # the disk branch needs gamma < 1, gamma != 0 (checked by blow_up_time_closed)
        with pytest.raises(DomainError):
            disk_boundary_distance(gamma)

    @pytest.mark.parametrize("gamma", [-2e295, -8.2e307])
    def test_disk_past_the_float_range_raises_naming_gamma(self, gamma):
        # -2e295 returned nan behind an overflow RuntimeWarning (an error under the suite's filter), and
        # -8.2e307 raised MuZeroError "mu must be nonzero", where 4 gamma overflows and mu underflows to 0
        with pytest.raises(RangeError, match=re.escape(f"gamma = {gamma!r}")):
            disk_boundary_distance(gamma)

    @pytest.mark.parametrize("gamma", [0.05, 0.2, 0.5, 0.8, 0.95, 0.98, -0.1, -1.0, -2.0, -10.0, -100.0, -1000.0])
    def test_disk_boundary_distance_matches_mpmath(self, gamma):
        # the oracle runs on the disk's own (lambda, mu), not on a mu rounded another way;
        # the table's increments are summed exactly, so only the quadrature rounds
        p = _disk_profile(gamma).params
        ref = disk_distance(p.lam, p.mu)
        assert ulps(disk_boundary_distance(gamma), ref) <= 3.0

    @pytest.mark.parametrize("gamma", [1e-9, -1e-9, 1e-6, 0.5, -2.0])
    def test_disk_mu_matches_mpmath(self, gamma):
        # mu = -1 - log(1 - gamma)/gamma puts the disk's blow-up at t = 1/4;
        # evaluated as written it cancels at small |gamma| (8e-8 off at 1e-9).
        # The blow-up time is T(1) / mu, so that mu is T(1) / 4 = T(1/4)
        with mpmath.workdps(40):
            ref = float(blow_up_time(0.25, gamma))
        prof = _disk_profile(gamma)
        assert abs(prof.params.mu - ref) <= 4 * np.spacing(abs(ref))
        assert abs(prof.C - 0.25) <= 4 * np.spacing(0.25)

    @pytest.mark.parametrize("tag,nu", [("G4_PLUS", 1.3), ("G4_MINUS", 2.2)])
    def test_g4_entry_realizes_nu(self, tag, nu):
        # the reported nu and the true boundary distance of the entry's disk
        # (3 ulps of the distance, and its solve's stop within 8 ulps of nu)
        entry = cached_entry(tag, nu)
        ref = disk_distance(entry.params.lam, entry.params.mu)
        assert ulps(entry.nu, ref) <= 3.0
        assert ulps(nu, ref) <= 14.0

    # each id keeps the budget of the solve that started from the two bracket ends and counted them
    @pytest.mark.parametrize("tag,nu,budget", [
        pytest.param(tag, nu, budget, id=f"{tag}-{nu}-{ends_budget}") for tag, nu, budget, ends_budget in [
            ("G4_PLUS", 1.05, 4, 19), ("G4_PLUS", 1.1, 2, 15), ("G4_PLUS", 1.3, 2, 13),
            ("G4_PLUS", 1.38, 2, 12), ("G4_PLUS", 1.45, 2, 11), ("G4_PLUS", 1.5, 2, 11),
            ("G4_MINUS", 1.7, 2, 19), ("G4_MINUS", 2.2, 2, 17), ("G4_MINUS", 3.0, 2, 14)]
    ])
    def test_g4_solve_accuracy_and_budget(self, tag, nu, budget, monkeypatch):
        # distance evaluations (about 0.25 ms each) of a warm solve stay within a per-nu budget
        # (near gamma -> 1, at nu = 1.05, the solve stops on a bracket one ulp of gamma wide)
        import soliton2d.taxonomy as tx
        tx._disk_nodes(tag)
        calls = []
        monkeypatch.setattr(tx, "disk_boundary_distance",
                            lambda g: calls.append(g) or disk_boundary_distance(g))
        entry = catalog(tag, nu)
        assert len(calls) <= budget
        assert abs(entry.nu - nu) <= 1e-13 * nu
        # the reported nu is the boundary distance of the entry's own disk
        assert entry.nu == radial_distance(entry.profile, 0.0, entry.profile.C)

    @pytest.mark.parametrize("tag,lo,hi", [("G4_PLUS", 1.3, 1.45), ("G4_MINUS", 1.7, 3.0)])
    def test_g4_warm_probes_on_atlas_range(self, tag, lo, hi, monkeypatch):
        # the benchmark's nu ranges: the proxy's root and one Newton step on its slope
        # leave at most 3 distance evaluations per warm solve on average
        import soliton2d.taxonomy as tx
        tx._disk_nodes(tag)
        calls = []
        monkeypatch.setattr(tx, "disk_boundary_distance",
                            lambda g: calls.append(g) or disk_boundary_distance(g))
        for i in range(20):
            nu = lo + (hi - lo) * (i + 0.5) / 20
            gamma, got = tx._disk_gamma(tag, nu)
            assert abs(got - nu) <= 8 * math.ulp(nu)
        assert len(calls) <= 3 * 20

    @pytest.mark.parametrize("tag,nu", [("G4_PLUS", 1.3), ("G4_MINUS", 2.2)])
    def test_g4_entry_independent_of_call_history(self, tag, nu):
        # gamma and nu depend on (tag, nu) alone: cold, after other nu and after the node cache is cleared
        import soliton2d.taxonomy as tx
        tx._disk_nodes.cache_clear()
        cold = catalog(tag, nu)
        for other in (0.99 * nu, 1.01 * nu, nu * (1 + 1e-12)):
            catalog(tag, other)
        warm = catalog(tag, nu)
        tx._disk_nodes.cache_clear()
        cleared = catalog(tag, nu)
        for entry in (warm, cleared):
            assert (entry.params.gamma, entry.nu) == (cold.params.gamma, cold.nu)

    @pytest.mark.parametrize("tag,nu", [("G4_PLUS", 1.3), ("G4_MINUS", 2.2)])
    def test_g4_solve_debug_record(self, tag, nu, caplog, monkeypatch):
        # the record counts the distance evaluations of this call: the nodes
        # are computed once per tag and process (cold), then come from the cache (warm)
        import soliton2d.taxonomy as tx
        calls = []
        monkeypatch.setattr(tx, "disk_boundary_distance",
                            lambda g: calls.append(g) or disk_boundary_distance(g))
        tx._disk_nodes.cache_clear()
        for cold in (True, False):
            calls.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="soliton.taxonomy"):
                entry = catalog(tag, nu)
            (record,) = [rec for rec in caplog.records if rec.name == "soliton.taxonomy"]
            got_tag, iterations, evaluations, cached, miss, width = record.args
            assert (got_tag, evaluations, cached) == (tag, len(calls), not cold)
            assert evaluations == iterations + tx._DISK_NODES * cold  # the nodes come first
            assert miss == abs(entry.nu - nu) <= 8 * math.ulp(nu)
            # the last bracket in x = log(1 - gamma) lies inside the two nodes around nu: when both
            # probes land on one side of the root, one end stays a node
            nodes = tx._disk_nodes(tag)
            k = next(j for j, node in enumerate(nodes) if node[4] >= nu)
            assert 0.0 < width <= nodes[k][2] - nodes[k - 1][2]

    @pytest.mark.parametrize("tag", ["G4_PLUS", "G4_MINUS"])
    def test_g4_bracket_ends_cached_match_fresh(self, tag):
        # every cached node is the distance a fresh evaluation gives; the end nodes are the
        # bracket's ends exactly, and they set the range check
        import soliton2d.taxonomy as tx
        nodes = tx._disk_nodes(tag)
        assert len(nodes) == tx._DISK_NODES
        x_end = math.log(1e12)
        assert [nodes[0][2], nodes[-1][2]] == ([-x_end, -1e-9] if tag == "G4_PLUS" else [1e-9, x_end])
        for _, _, x, g, d in nodes:
            assert g == -math.expm1(x) and d == disk_boundary_distance(g)
        assert [node[2] for node in nodes] == sorted(node[2] for node in nodes)
        assert tx._disk_nodes(tag) is nodes
        with pytest.raises(RangeError) as info:
            catalog(tag, 0.5)
        assert str(info.value) == {
            "G4_PLUS": "G4_PLUS boundary distance is attainable only in (1.01896044, 1.57079633); got 0.5",
            "G4_MINUS": "G4_MINUS boundary distance is attainable only in (1.57079633, 14.5086577); got 0.5"}[tag]

    @pytest.mark.parametrize("tag,nu", [
        ("G4_PLUS", 1.01), ("G4_PLUS", 1.0189), ("G4_MINUS", 14.6), ("G4_MINUS", 1e3),
    ])
    def test_g4_outside_bracket_raises_range(self, tag, nu):
        # below the G4_PLUS bracket (gamma = 1 - 1e-12) and above the
        # G4_MINUS one (gamma = -1e12)
        with pytest.raises(RangeError):
            catalog(tag, nu)

    def test_boundary_length_normalizations(self):
        for tag in ("G9", "G12"):
            entry = cached_entry(tag, FAMILY_SAMPLES[tag])
            T0 = entry.profile.t0
            assert 4.0 * math.pi * math.sqrt(T0) == pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_g8_lambda_normalization(self):
        entry = cached_entry("G8", math.pi)
        assert entry.params.lam == -1.0
        assert entry.params.gamma == pytest.approx(2.0)

    def test_listing_shape(self):
        rows = catalog_listing()
        assert len(rows) == 12
        g4 = next(row for row in rows if row["family"] == "G4")
        assert g4["branches"] == ["G4_PLUS", "G4_MINUS"]
        complete = {row["family"] for row in rows if row["complete"]}
        assert complete == {"G1_CIGAR", "G6", "G7", "G8"}

    def test_listing_rows_are_fresh(self):
        # the table is stored as listed; a caller's edits must not reach it
        want = catalog_listing()
        rows = catalog_listing()
        g4 = next(row for row in rows if row["family"] == "G4")
        g4["branches"].append("G4_ZERO")
        g4["nu_range"] = "(0, 1)"
        rows[0]["family"] = "G0"
        rows.pop()
        assert catalog_listing() == want

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_listing_row_matches_catalog_report(self, tag):
        # the listing states what the report of each catalog entry finds
        row = next(row for row in catalog_listing()
                   if row["family"] == tag or tag in row.get("branches", ()))
        for nu in NU_SAMPLES[tag]:
            rep = geometry_report(cached_entry(tag, nu).profile)
            got = (rep.complete, rep.curvature_sign, rep.inner_end.kind, rep.outer_end.kind)
            assert got == (row["complete"], row["curvature_sign"], row["inner_end"], row["outer_end"]), nu

    def test_listing_g4_ranges_meet_at_half_pi(self):
        g4 = next(row for row in catalog_listing() if row["family"] == "G4")
        assert g4["nu_range"] == "(1, pi/2) / (pi/2, inf)"
        # each branch stops at pi/2, the distance of the constant-curvature limit
        with pytest.raises(RangeError):
            catalog("G4_PLUS", 0.5 * math.pi + 1e-3)
        with pytest.raises(RangeError):
            catalog("G4_MINUS", 0.5 * math.pi - 1e-3)

    def test_g4_note_names_the_root_solve(self):
        note = cached_entry("G4_PLUS", 1.3).normalization_note
        assert "Chandrupatla" in note and "bisection" not in note


def _cone(nu):
    return -2.0 / (2.0 * math.pi / nu), -1.0


# The normalizations the catalog docstring states for every family but G4, typed here on their own:
# tag -> ((lambda, mu) at nu, the anchor (t_ref, a_ref) at nu or the exact blow-up time T0,
# the nu range as (lower end, upper end, whether the lower end is open)).
NORMALIZATION = {
    "G1_CIGAR": (lambda nu: (0.0, -nu * nu), lambda nu: (0.0, 1.0), (0.0, math.inf, True)),
    "G2_EXPLODING": (lambda nu: (0.0, nu * nu), lambda nu: (0.0, 1.0), (0.0, math.inf, True)),
    "G3": (lambda nu: (0.0, 1.0), lambda nu: (nu * nu / 4.0 + 0.25, 1.0), (0.0, math.inf, False)),
    "G5": (lambda nu: (nu * nu, nu * nu), lambda nu: (0.0, 1.0), (0.0, math.inf, True)),
    "G6": (_cone, lambda nu: (0.0, 1.0), (0.0, 2.0 * math.pi, True)),
    "G7": (_cone, lambda nu: (0.0, 1.0), (2.0 * math.pi, math.inf, True)),
    "G8": (lambda nu: (-1.0, -(2.0 * math.pi / nu) / 2.0), 0.0, (0.0, math.inf, True)),
    "G9": (_cone, 0.25, (0.0, math.inf, True)),
    "G10": (lambda nu: (-2.0 * nu * nu, nu * nu), lambda nu: (0.0, 1.0), (0.0, math.inf, True)),
    "G11": (lambda nu: (-1.0, nu * nu), 0.0, (0.0, (8.0 * 2.0**-1022) ** -0.25, True)),
    "G12": (lambda nu: (-2.0 * nu * nu, nu * nu), 0.25, (0.0, math.inf, True)),
}


class TestNormalizations:
    def test_every_family_but_g4(self):
        assert set(NORMALIZATION) == set(FAMILY_TAGS) - {"G4_PLUS", "G4_MINUS"}

    @pytest.mark.parametrize("tag", NORMALIZATION)
    def test_parameters_and_anchor(self, tag):
        params_at, anchor, _ = NORMALIZATION[tag]
        for nu in NU_SAMPLES[tag][:2]:
            entry = cached_entry(tag, nu)
            prof = entry.profile
            assert entry.params is prof.params
            assert (entry.params.lam, entry.params.mu) == params_at(nu)
            if callable(anchor):
                assert (prof.t_ref, prof.a_ref) == anchor(nu)
            else:  # the blow-up exactly at T0, anchored at a = max(1e6, 4 |gamma|) on the branch t = T0 + G(a)
                lam, mu = params_at(nu)
                assert prof.C == anchor and prof.t0_exact
                assert prof.a_ref == max(1e6, 4.0 * abs(2.0 * mu / lam))
                with mpmath.workdps(30):
                    want = anchor + Branch.of(lam, mu).G(prof.a_ref)
                assert prof.t_ref == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("tag", NORMALIZATION)
    def test_range_ends(self, tag):
        lo, hi, lo_open = NORMALIZATION[tag][2]
        bracket = f"{'(' if lo_open else '['}{lo:g}, {hi:g})"
        outside = [hi, math.inf] + ([lo] if lo_open else [math.nextafter(lo, -math.inf)])
        for nu in outside:
            with pytest.raises(RangeError, match=f"^{re.escape(f'{tag} requires nu in {bracket}, got {nu:g}')}$"):
                catalog(tag, nu)
        if not lo_open:  # G3's closed end
            assert catalog(tag, lo).family.tag == tag


class TestEntryWindowLength:
    """An entry metric's window is as long as its two levels are apart: the 40-digit quadrature over a between
    the levels the arc table was given, on the branch of the stored (mu, gamma) with C the catalog's exact
    blow-up time where it placed one, else through the anchor (t = 0 exactly at a smooth origin's level).
    Edges read from their levels stay within 3 ulps (1.5 at most, mean 0.4, over the 39 NU_SAMPLES entries);
    over those entries, edges inverted from their times reached 191 ulps (G12 at nu = 2).  Each family's
    FAMILY_SAMPLES nu keeps the plain tag as its id.
    """

    @pytest.mark.parametrize("tag,nu", [pytest.param(tag, nu, id=tag if nu == FAMILY_SAMPLES[tag] else f"{tag}-{nu:g}")
                                        for tag in NU_SAMPLES for nu in NU_SAMPLES[tag]])
    def test_matches_mpmath(self, tag, nu, monkeypatch):
        entry = cached_entry(tag, nu)  # built first: catalog's own disk probes call _window_table too
        calls, window_table = [], geometry._window_table  # entry_metric reads it from geometry when called
        monkeypatch.setattr(geometry, "_window_table", lambda *args: calls.append(args) or window_table(*args))
        m = entry_metric(entry, h=1e-3)
        (prof, _, _, a_in, a_out), = calls
        assert a_in is not None and a_out is not None  # both edges come from their levels
        with mpmath.workdps(40):
            branch = Branch(prof.params.mu, prof.params.gamma, prof.C)
            if not prof.t0_exact:
                branch = branch.through(prof.t_ref, prof.a_ref)
            lo, hi = sorted((mpmath.mpf(a_in), mpmath.mpf(a_out)))
            ref = branch.distance([lo * (hi / lo) ** (mpmath.mpf(k) / 8) for k in range(9)])
        assert ulps(float(m.r[-1]), ref) <= 3.0


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf, 10.0, 1e-300, 1e-320, 5e-324])
def test_entry_metric_spacing_raises(h):
    # h = 0 raised ZeroDivisionError, h < 0 and nan a ValueError, and h = inf or 10 built a one-sample metric;
    # r_out / h = 2.6e300 past numpy's array size limit raised its ValueError, and r_out / h = inf an OverflowError
    with pytest.raises(DomainError):
        entry_metric(cached_entry("G1_CIGAR", 1.0), h=h)


class TestScalingConsistency:
    def test_cigar_family_is_one_orbit(self):
        """catalog g1(nu) equals the metric-scaling image of g1(1)."""
        base = cached_entry("G1_CIGAR", 1.0)
        for nu in (0.5, 2.0):
            target = cached_entry("G1_CIGAR", nu)
            image = apply_symmetry(base.profile, Rescale(1.0 / nu))
            assert image.params.mu == pytest.approx(target.params.mu, rel=1e-14)
            ts = np.linspace(-0.1 / nu**2, 0.2 / nu**2, 50)
            np.testing.assert_allclose(image.a(ts), target.profile.a(ts), rtol=1e-8)
            # and the warped metrics agree: b_nu(r) = (1/nu) tanh(nu r)
            m = build_warped_metric(target.profile, (0.0, 0.0), (0.0, 4.0 / nu), 801)
            np.testing.assert_allclose(m.b, np.tanh(nu * m.r) / nu, atol=1e-8)

    def test_classification_invariant_under_actions(self):
        """Scaling actions never change the tag; translation preserves it as
        long as the blow-up time does not cross the origin (the tag of the
        T0-keyed families is anchored to t = b^2/4 >= 0, so moving the
        blow-up past 0 genuinely changes the geometry)."""
        cases = [
            ("G1_CIGAR", 1.0),
            ("G5", 1.0),
            ("G6", math.pi),
            ("G7", 3.0 * math.pi),
            ("G10", 1.0),
            ("G4_MINUS", 2.2),
        ]
        for tag, nu in cases:
            prof = cached_entry(tag, nu).profile
            for action in (Scale(2.0), Scale(0.3), Rescale(1.7)):
                assert classify(apply_symmetry(prof, action)).tag == tag, (tag, action)
            t0 = prof.t0
            tau = 0.3 * abs(t0) if math.isfinite(t0) and t0 != 0.0 else 0.37
            for action in (Translate(tau), Translate(-tau)):
                assert classify(apply_symmetry(prof, action)).tag == tag, (tag, action)

    def test_translation_changes_t0_family(self):
        # the non-geometric translation moves G10 (T0 < 0) into G12 (T0 > 0)
        prof = cached_entry("G10", 1.0).profile
        t0 = prof.t0
        moved = apply_symmetry(prof, Translate(-2.0 * t0))
        assert classify(moved).tag == "G12"


# ends the report must show for each family: the inner end (else a smooth
# point or cone vertex at t = 0) and the outer end of its listing row
_INNER_END = {"G3": "CYLINDER_END", "G8": "CUSP_END", "G11": "CUSP_END",
              "G9": "GEODESIC_BOUNDARY", "G12": "GEODESIC_BOUNDARY"}
_OUTER_END = {row["family"]: row["outer_end"] for row in CATALOG_TABLE}
_OUTER_END.update(G4_PLUS=_OUTER_END["G4"], G4_MINUS=_OUTER_END["G4"], FLAT_SEPARATRIX="CONE_END")


def _signed_scale():
    return st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0))


class TestEveryScale:
    """integrate, classify and report at scales up to 1e+-300: each raises
    nothing but SolitonError, and where classify and report both return,
    the report's ends are those of the family."""

    @settings(max_examples=400, deadline=None)
    @given(lam=st.just(0.0) | _signed_scale(), mu=_signed_scale(),
           a0=st.builds(lambda e: 10.0**e, st.floats(-300.0, 300.0)), t0=st.just(0.0) | _signed_scale())
    @example(lam=5.06e-144, mu=3.63e138, a0=1.7e-126, t0=0.0)
    @example(lam=0.0, mu=-6.4e-286, a0=2.4e-159, t0=0.0)
    @example(lam=0.0, mu=1.1e169, a0=3.8e169, t0=0.0)
    @example(lam=-8.540649283685946e+44, mu=14.380112391088037, a0=3.6517407237882324e-165,
             t0=-4.068318887140987e-244)
    @example(lam=0.0, mu=-2.385431410574351e+197, a0=4.336074798850423e-223, t0=9.987123255918306e+220)
    def test_typed_and_consistent(self, lam, mu, a0, t0):
        try:
            prof = integrate_profile(make_params(lam, mu), t0, a0, (-math.inf, math.inf))
        except SolitonError:
            return
        try:
            tag = classify(prof).tag
        except SolitonError:
            tag = None
        try:
            rep = geometry_report(prof)
        except SolitonError:
            return
        if tag in _OUTER_END:
            inner = _INNER_END.get(tag)
            assert rep.inner_end.kind in ((inner,) if inner else ("SMOOTH_POINT", "CONE_END")), tag
            assert rep.outer_end.kind == _OUTER_END[tag], tag


def _moderate_scale():
    return st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 2.0))


def _outcome(prof):
    """(tag, report) of a profile, or (the SolitonError type either raised, None)."""
    try:
        return classify(prof).tag, geometry_report(prof)
    except SolitonError as err:
        return type(err), None


class TestRescaleLaws:
    """ROADMAP item 6 (a), its Rescale half: the image of a catalog entry under Rescale(beta), beta log-uniform in
    [1e-40, 1e40], keeps its tag, completeness, curvature sign, bounded curvature and end kinds.  The K range and the
    cusp and smooth-point curvatures scale by 1/beta^2, cone angles stay, cylinder radii and boundary lengths scale by
    beta and the exploding-end nu by 1/beta, each to 4e-15 relative.  For curvatures, K = lambda - 2 mu / a is
    relative to its terms' size |lambda| + |lambda - K|: the image's (lambda, mu) / beta^2 are rounded, which moves
    a K that cancels by more (G4_PLUS at nu = 1.1: K = 0.0207 at lambda = 10.5 moves by 8e-14 of K)."""

    _KEPT = ("complete_inner", "complete_outer", "complete", "curvature_sign", "bounded_curvature")
    _POWER = {"angle": 0, "radius": 1, "length": 1, "curvature": -2, "nu": -1}  # each end field's power of beta

    @settings(max_examples=300, deadline=None)
    @given(tag=st.sampled_from(FAMILY_TAGS), j=st.integers(0, 2), log_beta=st.floats(-40.0, 40.0))
    def test_laws(self, tag, j, log_beta):
        beta, prof = 10.0**log_beta, cached_entry(tag, NU_SAMPLES[tag][j]).profile
        (tag0, rep0), (tag1, rep1) = _outcome(prof), _outcome(apply_symmetry(prof, Rescale(beta)))
        assert tag1 == tag0  # or both raise the same SolitonError type
        if rep0 is None:
            return
        assert [getattr(rep1, f) for f in self._KEPT] == [getattr(rep0, f) for f in self._KEPT]
        laws = [(rep0.K_inf, rep1.K_inf, -2), (rep0.K_sup, rep1.K_sup, -2)]
        for end0, end1 in ((rep0.inner_end, rep1.inner_end), (rep0.outer_end, rep1.outer_end)):
            assert (end1.kind, end1.to_json_dict().keys()) == (end0.kind, end0.to_json_dict().keys())
            laws += [(x0, getattr(end1, f), n) for f, n in self._POWER.items() if (x0 := getattr(end0, f)) is not None]
        lam = prof.params.lam
        for x0, x1, n in laws:
            want, size = x0 * beta**n, (abs(lam) + abs(lam - x0) if n == -2 else abs(x0)) * beta**n
            assert x1 == want or abs(x1 - want) <= 4e-15 * size, (x0, x1, n)


class TestCurvatureSign:
    """The report's curvature sign agrees with its K range: POSITIVE means
    K_inf >= 0, NEGATIVE means K_sup <= 0 and ZERO means both are 0.  a0 is
    drawn on its own scale or as a multiple of |gamma|, which reaches the
    cone ends a -> gamma, where K is exactly 0."""

    @settings(max_examples=400, deadline=None)
    @given(lam=st.just(0.0) | _moderate_scale() | _signed_scale(), mu=_moderate_scale() | _signed_scale(),
           a0=st.builds(lambda e: 10.0**e, st.floats(-2.0, 2.0) | st.floats(-300.0, 300.0)),
           of_gamma=st.booleans(), t0=st.just(0.0) | _moderate_scale() | _signed_scale())
    @example(lam=-3.4797432379500255, mu=-0.3206639236865883, a0=0.14166853450308778, of_gamma=False, t0=0.0)
    def test_sign_matches_range(self, lam, mu, a0, of_gamma, t0):
        try:
            params = make_params(lam, mu)
            a0 = a0 * abs(params.gamma) if of_gamma and math.isfinite(params.gamma) else a0
            rep = geometry_report(integrate_profile(params, t0, a0, (-math.inf, math.inf)))
        except SolitonError:
            return
        if rep.curvature_sign == "POSITIVE":
            assert rep.K_inf >= 0.0
        elif rep.curvature_sign == "NEGATIVE":
            assert rep.K_sup <= 0.0
        else:
            assert rep.curvature_sign == "ZERO" and rep.K_inf == rep.K_sup == 0.0


class TestKnifeEdgeT0:
    """classify on G7/G9 and G10/G12 branches whose T0 = t_ref - G(a0) is 0 to 128 ulps of G from 0: the
    estimate C lies within t0_uncertainty of the 50-digit T0, so no family of the wrong T0 sign is named."""

    def test_neg_branch_at_six_gamma(self):
        # a0 = 6.0 |gamma|, where G's log term log(|a - gamma| / a) lost 117 ulps: C = -6.18e-18 against a bound
        # of 5.01e-18 named G10, while T0 = +3.9e-19
        lam, mu, a0, t0 = -1.0, 1.4681031351729255, 17.663582089491975, 0.0007222563217412513
        with mpmath.workdps(50):
            T0 = mpmath.mpf(t0) - Branch.of(lam, mu).G(a0)
        assert 3.8e-19 < T0 < 4.0e-19
        label = classify(integrate_profile(make_params(lam, mu), t0, a0, (-math.inf, math.inf)))
        assert label.tag == "UNRESOLVED_T0_SIGN"
        assert abs(label.t0_estimate - T0) <= label.t0_uncertainty

    @settings(max_examples=300, deadline=None)
    @given(cone=st.booleans(), k=st.integers(-20, 20), mu_exp=st.floats(-3.0, 3.0),
           y=st.floats(math.log10(2.0), math.log10(8.0)) | st.floats(0.01, 2.0), steps=st.integers(0, 7),
           sign=st.sampled_from([-1, 0, 1]))
    def test_never_the_wrong_sign(self, cone, k, mu_exp, y, steps, sign):
        # lambda = -2^k keeps gamma = 2 mu / lambda exact; mu < 0 gives G7 / G9 (cone), mu > 0 G10 / G12; a0 is
        # y decades above |gamma|, half of them in [2, 8] |gamma|, and t_ref is G(a0) moved by 0 or +-2^steps ulps
        lam, mu = -(2.0**k), (-1.0 if cone else 1.0) * 10.0**mu_exp
        params = make_params(lam, mu)
        a0 = abs(params.gamma) * 10.0**y
        with mpmath.workdps(50):
            G = Branch.of(lam, mu).G(a0)
            t0 = float(G) + sign * 2**steps * math.ulp(float(G))
            T0 = mpmath.mpf(t0) - G
            label = classify(integrate_profile(params, t0, a0, (-math.inf, math.inf)))
            assert abs(label.t0_estimate - T0) <= label.t0_uncertainty, (float(T0), label)
        if label.tag != "UNRESOLVED_T0_SIGN":
            assert label.tag == ({-1: "G7", 1: "G9"} if cone else {-1: "G10", 1: "G12"})[1 if T0 > 0 else -1]


class TestCompleteMeansBoundedCurvature:
    """The paper's first corollary: a complete soliton has bounded curvature, and an exploding end has
    unbounded curvature.  Moderate (lambda, mu), anchors at a(0) = 1 and elsewhere, and the G8 catalog,
    with their Scale and Rescale images by factors up to 1e+-100."""

    @settings(max_examples=400, deadline=None)
    @given(source=st.sampled_from(["a(0) = 1", "a(0) = 1", "anchor", "anchor", "G8"]),
           lam=st.just(0.0) | _moderate_scale(), mu=_moderate_scale(), a0=st.floats(-2.0, 2.0), of_gamma=st.booleans(),
           t0=st.just(0.0) | _moderate_scale(), nu=st.floats(0.1, 20.0), action=st.sampled_from([None, Scale, Rescale]),
           factor=st.floats(-100.0, 100.0))
    @example(source="a(0) = 1", lam=0.0, mu=-1.0, a0=0.0, of_gamma=False, t0=0.0, nu=1.0, action=Rescale, factor=50.0)
    @example(source="a(0) = 1", lam=-1.0, mu=-2.0, a0=0.0, of_gamma=False, t0=0.0, nu=1.0, action=None, factor=0.0)
    @example(source="a(0) = 1", lam=-4.0, mu=-1.0, a0=0.0, of_gamma=False, t0=0.0, nu=1.0, action=Scale, factor=-100.0)
    @example(source="a(0) = 1", lam=0.0, mu=1.0, a0=0.0, of_gamma=False, t0=0.0, nu=1.0, action=None, factor=0.0)
    @example(source="G8", lam=0.0, mu=1.0, a0=0.0, of_gamma=False, t0=0.0, nu=3.0, action=Rescale, factor=100.0)
    def test_corollary(self, source, lam, mu, a0, of_gamma, t0, nu, action, factor):
        # a0 is 10^a0, or 10^a0 |gamma|; an anchor at a(0) = 1 closes up smoothly over t = 0
        try:
            if source == "G8":
                prof = catalog("G8", nu).profile
            else:
                params = make_params(lam, mu)
                a0 = 10.0**a0 * (abs(params.gamma) if of_gamma and math.isfinite(params.gamma) else 1.0)
                t_ref, a_ref = (0.0, 1.0) if source == "a(0) = 1" else (t0, a0)
                prof = integrate_profile(params, t_ref, a_ref, (-math.inf, math.inf))
            if action is not None:
                prof = apply_symmetry(prof, action(10.0**factor))
            rep = geometry_report(prof)
        except SolitonError:
            return
        if rep.complete:
            assert rep.bounded_curvature, rep
        if "EXPLODING_END" in (rep.inner_end.kind, rep.outer_end.kind):
            assert not rep.bounded_curvature, rep
