"""Certifying the soliton equations as numerical residuals.

With u = log|K| the soliton structure is two identities, the vanishing
trace-free Hessian and the pinned Laplacian, plus the potential identity
u' = 2 mu b and the constancy of u'/b (the rotated gradient is a Killing
field).  All four are differenced on the metric's own radial grid, so they
are honest checks of the data rather than of the construction path.
"""

import math

import numpy as np

from soliton2d import SolitonParams, WarpedMetric, catalog, entry_metric, soliton_residual


def perturbed_cigar(h=1e-3, amp=0.01, k=3.0):
    r = np.arange(0.2, 3.0 + h / 2, h)
    T, Tp, Tpp = np.tanh(r), 1 / np.cosh(r) ** 2, -2 * np.tanh(r) / np.cosh(r) ** 2
    s, sp, spp = amp * np.sin(k * r), amp * k * np.cos(k * r), -amp * k * k * np.sin(k * r)
    b = T * (1 + s)
    bp = Tp * (1 + s) + T * sp
    bpp = Tpp * (1 + s) + 2 * Tp * sp + T * spp
    return WarpedMetric(params=SolitonParams(0.0, -1.0), r=r, b=b, b_prime=bp,
                        K=-bpp / b, t_of_r=0.25 * b * b,
                        r_extent=(0.2, 3.0), profile=None)


def main():
    print("== residual suprema on catalog metrics (h = 1e-3) ==")
    for tag, nu in (("G1_CIGAR", 1.0), ("G6", math.pi), ("G8", math.pi), ("G12", 0.8)):
        rep = soliton_residual(entry_metric(catalog(tag, nu), h=1e-3))
        print(f"{tag:<12s} tracefree={rep.max_tracefree:.2e} laplace={rep.max_laplace:.2e} "
              f"potential={rep.max_potential:.2e} killing={rep.max_killing:.2e}")

    print("\n== second-order convergence under grid halving ==")
    entry = catalog("G5", 1.0)
    for h in (4e-3, 2e-3, 1e-3):
        rep = soliton_residual(entry_metric(entry, h=h))
        print(f"h = {h:.0e}: tracefree = {rep.max_tracefree:.3e}, "
              f"laplace = {rep.max_laplace:.3e}")

    print("\n== a 1% perturbation is loud ==")
    rep = soliton_residual(perturbed_cigar())
    print(f"b -> tanh(r)(1 + 0.01 sin 3r): tracefree={rep.max_tracefree:.2f}, "
          f"potential={rep.max_potential:.2f}, killing={rep.max_killing:.2f}")
    print("four to six orders above the soliton floor: the identities pin the metric")


if __name__ == "__main__":
    main()
