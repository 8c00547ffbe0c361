"""The references of ``reference.py`` checked by themselves, so that a wrong one fails here and not inside a test
that compares the package against it: each agrees with itself at 40 and 60 digits to 1e-30 relative, G's closed
form with the quadrature of 1/a', and the quadrature over a with the cigar, the steady tan branch and the one
over y.  A quadrature from a t = 0 edge is good to about 1e-19 at 40 digits, not 1e-30: mpmath keeps 40 digits
of a node's position in [-1, 1], not of its offset from the edge, and dr grows as the inverse square root of
that offset.  The checks from an edge allow 1e-18; the float tests need 1e-16."""
import math

import mpmath
import pytest

import reference
from reference import Branch

# (lambda, mu) and a level on each branch class: gamma < 0, above and below gamma > 0, and steady
CLASSES = {"neg": (-2.0, 1.0, 0.5), "above": (4.0, 1.0, 3.0), "below": (1.0, 1.0, 0.7), "steady": (0.0, -1.0, 2.0)}

REFERENCES = {
    **{f"G_{k}": lambda k=k: Branch.of(*CLASSES[k][:2]).G(CLASSES[k][2]) for k in CLASSES},
    "G_of_y": lambda: Branch.of(4.0, 1.0).G(3.0, mpmath.log(2.5)),
    "time": lambda: Branch.of(4.0, 1.0).time(0.6, 3.0),
    "t_of_y": lambda: Branch.of(4.0, 1.0).through(0.25, 3.0).t(-1.0, side=1),
    "level": lambda: Branch.of(-1.0, -1.0).through(0.0, 1.0).level(0.3, 1.5),
    "level_of_y": lambda: Branch.of(4.0, 1.0).through(0.0, 3.0).level(-0.1, 0.0, side=1),
    "distance": lambda: Branch.of(4.0, 1.0).through(0.0, 1.0).distance([2, 10, 100, mpmath.inf]),
    "distance_of_y": lambda: Branch.of(-1.0, 1.0).through(0.0, math.log(3.0), side=1).distance(
        [math.log(2.5), math.log(2.1)], side=1),
    "blow_up_time": lambda: reference.blow_up_time(-0.3, 0.5),
    "cigar": lambda: sum(reference.cigar(mpmath.mpf(0.7))),
    "cigar_distance": lambda: reference.cigar_distance(0.2),
    "steady_b": lambda: reference.steady_b(1e-30, 0.15),
    **{f"lambert_v_{k}": lambda k=k: reference.lambert_v(k, reference.minus_psi(k, mpmath.mpf(1.5))) for k in CLASSES},
    **{f"level_of_v_{k}": lambda k=k: reference.level_of_v(k, mpmath.mpf(-0.5 if k == "neg" else 0.5), 1.5)
       for k in CLASSES},
    **{f"minus_psi_{k}": lambda k=k: reference.minus_psi(k, mpmath.mpf(1.5)) for k in CLASSES},
}


def _close(x, ref, rel=1e-30):
    return abs(x - ref) <= rel * abs(ref)


@pytest.mark.parametrize("name", REFERENCES)
def test_two_precisions_agree(name):
    with mpmath.workdps(40):
        lo = REFERENCES[name]()
    with mpmath.workdps(60):
        hi = REFERENCES[name]()
        assert hi != 0 and _close(lo, hi), (lo, hi)


@pytest.mark.parametrize("branch", CLASSES)
def test_closed_form_G_is_the_quadrature_of_one_over_a_prime(branch):
    lam, mu, a = CLASSES[branch]
    with mpmath.workdps(40):
        br = Branch.of(lam, mu)
        for a_to in [a / 4, a * 2] + ([mpmath.inf] if branch != "below" else []):  # below stays under gamma = 2
            assert _close(br.time(a, a_to), (0 if mpmath.isinf(a_to) else br.G(a_to)) - br.G(a)), a_to


@pytest.mark.parametrize("t", [1e-6, 0.01, 0.2, 0.2499])
def test_distance_and_level_on_the_cigar(t):
    # lambda = 0, mu = -1 through a(0) = 1: a = cosh^2 r and t = tanh^2(r) / 4, so the level at t is 1 / (1 - 4 t)
    with mpmath.workdps(40):
        br, level = Branch.of(0.0, -1.0).through(0, 1), lambda t: 1 / (1 - 4 * mpmath.mpf(t))
        assert _close(br.level(t, level(t) * (1 + mpmath.mpf(10) ** -6)), level(t))
        for t_from, rel in ((0, 1e-18), (t / 4, 1e-30)):
            ref = reference.cigar_distance(t) - reference.cigar_distance(t_from)
            assert _close(br.distance([level(t_from), level(t)]), ref, rel), t_from


@pytest.mark.parametrize("mu", [1e-30, 0.5, 3.0])
def test_distance_on_the_steady_tan_branch(mu):
    # lambda = 0, mu > 0 through a(0) = 1: t = (1/a - 1) / (4 mu) and b = 2 sqrt(t) = tan(sqrt(mu) r) / sqrt(mu)
    with mpmath.workdps(40):
        br = Branch.of(0.0, mu).through(0, 1)
        for a in (mpmath.mpf(0.9), mpmath.mpf(0.5), mpmath.mpf(0.1)):
            assert _close(br.t(a), (1 / a - 1) / (4 * mpmath.mpf(mu)))
            assert _close(reference.steady_b(mu, br.distance([1, a])), 2 * mpmath.sqrt(br.t(a)), 1e-18)


def test_distance_over_y_is_the_distance_over_a():
    # gamma = -2 and t = 0 at a = 1, y = log 3: r from a = 0.5 to 0.1
    with mpmath.workdps(40):
        br, (y0, *ys) = Branch.of(-1.0, 1.0), [mpmath.log(mpmath.mpf(a) + 2) for a in (1, 0.5, 0.1)]
        assert _close(br.through(0, y0, side=1).distance(ys, side=1), br.through(0, 1).distance([0.5, 0.1]))


@pytest.mark.parametrize("branch", CLASSES)
def test_lambert_v_inverts_minus_psi(branch):
    with mpmath.workdps(40):
        for v in (-3.0, 0.5, 4.0):
            assert _close(reference.lambert_v(branch, reference.minus_psi(branch, mpmath.mpf(v))), v), v


def test_blow_up_time_and_ulps():
    with mpmath.workdps(40):
        g, mu = mpmath.mpf(0.5), mpmath.mpf(-0.3)
        assert _close(reference.blow_up_time(mu, g), (-1 - mpmath.log(1 - g) / g) / (4 * mu))
        assert reference.blow_up_time(mu, math.inf) == -1 / (4 * mu)
    assert reference.ulps(1.0, mpmath.mpf(1) + mpmath.mpf(2) ** -52) == 1.0
