"""Profiles of the soliton equation and their blow-up times.

Every rotationally symmetric gradient Ricci soliton in two dimensions is
governed by one autonomous equation for the profile a(t) = 1/b'(r), with
t = b^2/4 a quarter of the squared circumference radius:

    a'(t) = 4 mu a^2 (a/gamma - 1),     gamma = 2 mu / lambda.

The equation is separable, so each branch is exactly t = C + G(a) and blows
up at t = C.  This script builds a few branches, checks the steady closed
forms, and compares the blow-up times against the closed-form formula.
"""

import math

import numpy as np

from soliton2d import (
    blow_up_time_closed,
    closed_form_profile,
    integrate_profile,
    make_params,
)


def main():
    print("== steady closed forms ==")
    cigar = closed_form_profile(make_params(0.0, -1.0), 1.0)
    print(f"cigar branch: domain ({cigar.t0:g}, {cigar.t1:g}), "
          f"tags {cigar.tag0} / {cigar.tag1}")
    print(f"  a(1/8) = {cigar.a(0.125):.15g}   (closed form gives 2)")

    numeric = integrate_profile(make_params(0.0, -1.0), 0.0, 1.0, (0.0, 0.2))
    ts = np.linspace(0.0, 0.2, 9)
    worst = np.max(np.abs(numeric.a(ts) - 1.0 / (1.0 - 4.0 * ts)) * (1.0 - 4.0 * ts))
    print(f"  implicit solution vs closed form, max rel err: {worst:.2e}")

    print("\n== blow-up times ==")
    for mu, gamma in ((1.0, 0.5), (-1.0, -1.0), (2.0, 0.25)):
        lam = 2.0 * mu / gamma
        prof = integrate_profile(make_params(lam, mu), 0.0, 1.0, (-10.0, 10.0))
        closed = blow_up_time_closed(mu, gamma)
        branch = prof.t1 if closed > 0 else prof.t0
        print(f"mu={mu:+.2f} gamma={gamma:+.2f}: branch T = {branch:+.12f}, "
              f"closed form {closed:+.12f}, diff {abs(branch - closed):.2e}")

    print("\n== approach to the stable separatrix ==")
    p = make_params(-2.0, -1.0)  # gamma = 1, stable for mu < 0
    prof = integrate_profile(p, 0.0, 0.5, (0.0, 25.0))
    print(f"branch through a(0) = 0.5: tag at t -> inf: {prof.tag1}")
    for t in (1.0, 3.0, 6.0):
        print(f"  |a({t:g}) - 1| = {abs(prof.a(t) - 1.0):.3e}  "
              f"(rate 4 mu gamma = {4 * p.mu * p.gamma:g})")

    print("\n== equation residual of the evaluated profile ==")
    print(f"cigar profile, max residual over 100 samples: "
          f"{numeric.max_residual():.2e}")


if __name__ == "__main__":
    main()
