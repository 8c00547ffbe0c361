"""Error types shared across the package.

Every error carries a short machine-readable ``code``.  ``usage`` separates
bad inputs (CLI exit 1) from genuine numerical failures (CLI exit 2).
"""


class SolitonError(Exception):
    code = "ERROR"
    usage = True


class MuZeroError(SolitonError):
    code = "MU_ZERO"


class NotSteadyError(SolitonError):
    code = "NOT_STEADY"


class NonpositiveAnchorError(SolitonError):
    code = "NONPOSITIVE_A"


class DomainError(SolitonError):
    code = "DOMAIN"


class NotSmoothOriginError(SolitonError):
    code = "NOT_SMOOTH_ORIGIN"


class WindowEmptyError(SolitonError):
    code = "WINDOW_EMPTY"


class EdgeError(SolitonError):
    code = "EDGE"


class UnresolvedEndError(SolitonError):
    code = "UNRESOLVED_END"
    usage = False


class ZeroCurvatureError(SolitonError):
    code = "ZERO_CURVATURE"


class RangeError(SolitonError):
    code = "RANGE"


class WindowError(SolitonError):
    code = "WINDOW"
