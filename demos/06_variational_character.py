"""Solitons as critical points of the curvature entropy E = int K log|K| dA.

Under compactly supported area-preserving (trace-free) variations the first
variation of E vanishes exactly at gradient soliton metrics; conformal
variations pair with the expansion constant; and diffeomorphism invariance
yields the conservation law Delta log|K| + 2K = 2 lambda.  A central
finite-difference quotient built from the perturbed first fundamental form
cross-checks the analytic variation at second order in epsilon.
"""

import math

import numpy as np

from soliton2d import (
    bump_variation,
    catalog,
    energy,
    entry_metric,
    fd_variation,
    first_variation,
    lie_variation,
    noether_defect,
    total_curvature,
    variation_report,
)
from soliton2d.variational import _simpson


def main():
    cigar = entry_metric(catalog("G1_CIGAR", 1.0), h=1e-4)
    print("== the energy of a cigar band ==")
    E = energy(cigar, (0.0, 2.0))
    TC = total_curvature(cigar, (0.0, 2.0))
    print(f"E[0, 2] = {E:.12f}, total curvature = {TC:.12f}")

    print("\n== criticality under trace-free variations ==")
    v_tf = bump_variation((0.5, 2.0), psi_amp=1.0)
    print(f"cigar, psi-bump:      dE = {first_variation(cigar, v_tf):+.3e}")
    g6 = entry_metric(catalog('G6', math.pi), h=1e-4)
    pad = 0.15 * (g6.r[-1] - g6.r[0])
    v6 = bump_variation((g6.r[0] + pad, g6.r[-1] - pad), psi_amp=1.0)
    print(f"cone soliton, psi-bump: dE = {first_variation(g6, v6):+.3e}")

    print("\n== conformal variations pair with the expansion constant ==")
    v_cf = bump_variation((0.3, 1.2), phi_amp=1.0)
    got = first_variation(g6, v_cf)
    sel = (g6.r >= 0.3) & (g6.r <= 1.2)
    area_pairing = -g6.params.lam * 2 * math.pi * _simpson(
        np.asarray(v_cf.phi_at(g6.r[sel])) * g6.b[sel], g6.r[sel])
    print(f"dE = {got:.10f} vs -lambda * 2 pi int phi b dr = {area_pairing:.10f}")

    print("\n== finite-difference oracle ==")
    rep = variation_report(cigar, v_tf, eps=1e-3)
    print(f"analytic = {rep['analytic']:+.3e}, fd = {rep['finite_difference']:+.3e}, "
          f"Richardson slope = {rep['slope_estimate']:.3f}")

    print("\n== diffeomorphism invariance and the conservation law ==")
    v_lie = lie_variation(cigar, (0.5, 2.0), amp=0.3)
    print(f"Lie-derivative variation: dE = {first_variation(cigar, v_lie):+.3e}")
    print(f"noether defect sup|Delta log|K| + 2K - 2 lambda|: "
          f"{noether_defect(cigar, (0.3, 2.2)):.2e}")

    print("\n== the scaling identity of E ==")
    from soliton2d import Rescale, apply_symmetry, build_warped_metric

    c = 2.0
    prof_s = apply_symmetry(catalog("G1_CIGAR", 1.0).profile, Rescale(c))
    m_s = build_warped_metric(prof_s, (0.0, 0.0), (0.0, 2 * c + 0.5), 60001)
    E_s = energy(m_s, (0.0, 2 * c))
    print(f"E[c^2 g] = {E_s:.10f} vs E - 2 log(c) TC = {E - 2 * math.log(c) * TC:.10f}")


if __name__ == "__main__":
    main()
