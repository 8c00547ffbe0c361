import math

import numpy as np
import pytest
from hypothesis import settings

from soliton2d import SolitonParams, WarpedMetric, catalog, entry_metric

# every run draws the same examples: each test's examples follow from its own source, and none is replayed from a
# database; a test's @settings still sets its max_examples and deadline
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def perturbed_cigar_metric(h=1e-3, lo=0.2, hi=3.0, amp=0.01, k=3.0) -> WarpedMetric:
    """Cigar warping multiplied by (1 + amp sin(k r)), differentiated analytically.

    Analytic derivatives keep the curvature data smooth to machine precision,
    so downstream log|K| differencing measures the soliton defect and not
    rounding noise.
    """
    r = np.arange(lo, hi + h / 2.0, h)
    T, Tp, Tpp = np.tanh(r), 1.0 / np.cosh(r) ** 2, -2.0 * np.tanh(r) / np.cosh(r) ** 2
    s = amp * np.sin(k * r)
    sp = amp * k * np.cos(k * r)
    spp = -amp * k * k * np.sin(k * r)
    b = T * (1.0 + s)
    bp = Tp * (1.0 + s) + T * sp
    bpp = Tpp * (1.0 + s) + 2.0 * Tp * sp + T * spp
    return WarpedMetric(
        params=SolitonParams(0.0, -1.0),
        r=r, b=b, b_prime=bp, K=-bpp / b, t_of_r=0.25 * b * b,
        r_extent=(lo, hi), profile=None,
    )


# one nu sample per family for suite-wide sweeps (kept light; the acceptance
# module runs three nu per family)
FAMILY_SAMPLES = {
    "G1_CIGAR": 1.0,
    "G2_EXPLODING": 1.0,
    "G3": 1.0,
    "G4_PLUS": 1.3,
    "G4_MINUS": 2.2,
    "G5": 1.0,
    "G6": math.pi,
    "G7": 3.0 * math.pi,
    "G8": math.pi,
    "G9": 2.0,
    "G10": 1.0,
    "G11": 1.0,
    "G12": 1.0,
}

# three nu per family, across each family's range
NU_SAMPLES = {
    "G1_CIGAR": (0.5, 1.0, 2.0),
    "G2_EXPLODING": (0.5, 1.0, 2.0),
    "G3": (0.5, 1.0, 2.0),
    "G4_PLUS": (1.1, 1.3, 1.5),
    "G4_MINUS": (1.7, 2.2, 3.0),
    "G5": (0.5, 1.0, 2.0),
    "G6": (1.5, math.pi, 5.0),
    "G7": (7.0, 3.0 * math.pi, 12.0),
    "G8": (1.0, math.pi, 6.0),
    "G9": (1.0, 2.0, 4.0),
    "G10": (0.5, 1.0, 2.0),
    "G11": (1.0, 2.0, 3.0),
    "G12": (1.0, 2.0, 3.0),
}

_entry_cache = {}
_metric_cache = {}


def cached_entry(tag, nu):
    key = (tag, nu)
    if key not in _entry_cache:
        _entry_cache[key] = catalog(tag, nu)
    return _entry_cache[key]


def cached_metric(tag, nu, h=1e-3):
    key = (tag, nu, h)
    if key not in _metric_cache:
        _metric_cache[key] = entry_metric(cached_entry(tag, nu), h=h)
    return _metric_cache[key]


@pytest.fixture(scope="session")
def cigar_entry():
    return cached_entry("G1_CIGAR", 1.0)


@pytest.fixture(scope="session")
def cigar_metric():
    return cached_metric("G1_CIGAR", 1.0)
