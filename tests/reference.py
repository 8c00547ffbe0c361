"""High-precision references for the tests, in mpmath at the caller's working precision (workdps).

Each takes a route the package does not: G in closed form (the package rounds -psi(u) / (4 mu gamma)), r by
quadrature of dr/da = a / (sqrt(t) |a'(a)|) over the level a or over y = log|a - gamma| (the package tabulates
it over its level coordinate v), a level by a root solve of c + G(a) = t (the package inverts psi), and closed
forms.  ``test_reference.py`` checks each at two precisions and against a second route.
"""
import math

import mpmath


class Branch:
    """The branch t = c + G(a) of (mu, gamma): G' = 1/a', a'(a) = 4 mu a^2 (a/gamma - 1), G(inf) = 0, and
    G = 1/(4 mu a) on the steady class gamma = inf.  A level x is a, or y = log|a - gamma| on the side
    side = sign(a - gamma), which keeps the digits of levels next to the separatrix."""

    def __init__(self, mu, gamma, c=0):
        self.mu, self.gamma, self.c = mpmath.mpf(mu), mpmath.mpf(gamma), c

    @classmethod
    def of(cls, lam, mu, c=0):
        """The branch of (lambda, mu), gamma = 2 mu / lambda taken in mpmath."""
        return cls(mu, mpmath.inf if lam == 0 else 2 * mpmath.mpf(mu) / mpmath.mpf(lam), c)

    def through(self, t, x, side=None):
        """The branch through t at the level x: c = t - G, at 60 extra bits."""
        with mpmath.extraprec(60):
            return Branch(self.mu, self.gamma, t - self.G(*self._level(x, side)))

    def G(self, a, y=None):
        """G(a); y = log|a - gamma| where the caller holds it more precisely than a."""
        mu, g, a = self.mu, self.gamma, mpmath.mpf(a)
        if mpmath.isinf(g):
            return 1 / (4 * mu * a)
        return ((mpmath.log(abs(a - g) / a) if y is None else y - mpmath.log(a)) / g + 1 / a) / (4 * mu)

    def slope(self, a):
        return 4 * self.mu * a * a * (a / self.gamma - 1)

    def time(self, a_from, a_to):
        """t(a_to) - t(a_from) by quadrature of 1 / a'(a)."""
        return mpmath.quad(lambda a: 1 / self.slope(a), [a_from, a_to])

    def _level(self, x, side):
        return (x, None) if side is None else (self.gamma + side * mpmath.exp(x), x)

    def t(self, x, side=None):
        """t at the level x, at 60 extra bits so that it keeps its digits next to a t = 0 edge."""
        with mpmath.extraprec(60):
            return self.c + self.G(*self._level(x, side))

    def level(self, t, start, side=None, **kwargs):
        """The level x where t(x) = t, by findroot from start (a point or a bracket)."""
        return mpmath.findroot(lambda x: self.t(x, side) - t, start, **kwargs)

    def distance(self, pts, side=None):
        """r between the levels pts[0] and pts[-1], by quadrature of dr/da or dr/dy = |gamma / (4 mu a sqrt(t))|
        with pts as breakpoints.  It runs over the offset x - pts[0], so nodes next to a t = 0 edge there keep
        their digits; dr is 0 where t rounds to <= 0."""
        x0 = mpmath.mpf(pts[0])

        def dr(d):
            with mpmath.extraprec(60):
                a, y = self._level(x0 + d, side)
                t = self.c + self.G(a, y)
                if not t > 0:
                    return 0
                return abs((a / self.slope(a) if side is None else self.gamma / (4 * self.mu * a)) / mpmath.sqrt(t))

        return abs(mpmath.quad(dr, [x - x0 for x in pts]))


def blow_up_time(mu, gamma):
    """Time from a(0) = 1 to the blow-up a = inf: C = -G(1)."""
    return -Branch(mu, gamma).G(1)


def cigar(r):
    """The cigar b = tanh r at r: (b, b' = sech^2 r, K = 2 sech^2 r, t = b^2 / 4)."""
    b, s = mpmath.tanh(r), mpmath.sech(r) ** 2
    return b, s, 2 * s, b * b / 4


def cigar_distance(t):
    """r from the tip of the cigar to its level t: b = 2 sqrt(t) = tanh r."""
    return mpmath.atanh(2 * mpmath.sqrt(t))


def steady_b(mu, r):
    """b = 2 sqrt(t) at r on the steady branch lambda = 0, mu > 0 through a(0) = 1: tan(sqrt(mu) r) / sqrt(mu)."""
    return mpmath.tan(mpmath.sqrt(mu) * mpmath.mpf(r)) / mpmath.sqrt(mu)


def lambert_v(branch, s):
    """The level coordinate v of each class of ``ode._level_coordinate`` at s = -psi, by Lambert W.  With
    p = 1 + u: p = -W(-e^(s - 1)) on the -1 branch (neg) and the 0 branch (above), v = 1 - s + W0(e^(s - 1))
    on below, and v = -log s on the steady class."""
    if branch == "steady":
        return -mpmath.log(s)
    if branch == "below":
        return 1 - s + mpmath.lambertw(mpmath.exp(s - 1)).real
    p = -mpmath.lambertw(-mpmath.exp(-1 + s), -1 if branch == "neg" else 0).real
    return -mpmath.log(p - 1) if branch == "neg" else mpmath.log(p) - mpmath.log(1 - p)


def level_of_v(branch, g, v):
    """The level a at the level coordinate v, gamma = g."""
    e = mpmath.exp(v)
    return e if branch == "steady" else -g * e if branch == "neg" else g * (1 + e) if branch == "above" else g * e / (1 + e)


def minus_psi(branch, v):
    """s = -psi at the level coordinate v."""
    if branch == "steady":
        return mpmath.exp(-v)
    if branch == "below":
        return 1 - v + mpmath.exp(-v)
    u = mpmath.exp(-v) if branch == "neg" else -1 / (1 + mpmath.exp(v))
    return mpmath.log1p(u) - u


def ulps(x, ref):
    """|x - ref| in ulps of ref, taken unrounded."""
    return float(abs(mpmath.mpf(x) - ref)) / math.ulp(float(ref))
