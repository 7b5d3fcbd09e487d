"""The lift's univariate root finder on polynomials with known real roots."""

import math
import random
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polymul

from polydescent import geometry
from polydescent.geometry import _critical_points, _real_roots

EPS = sys.float_info.epsilon


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_finds_exactly_the_real_factors_roots(seed):
    # real roots are distinct multiples of 1/8, so at least 1/8 apart; each
    # quadratic (y - a)^2 + b^2 with b >= 1/2 has no real root
    rng = random.Random(seed)
    real = sorted(k / 8 for k in rng.sample(range(-24, 25), rng.randint(0, 5)))
    coeffs = [rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 4.0)]
    for r in real:
        coeffs = polymul(coeffs, [-r, 1.0])
    for _ in range(rng.randint(0, 2)):
        a, b = rng.randint(-24, 24) / 8, rng.randint(4, 16) / 8
        coeffs = polymul(coeffs, [a * a + b * b, -2.0 * a, 1.0])
    coeffs = [float(c) for c in coeffs]

    roots = _real_roots(coeffs)
    assert len(roots) == len(real)
    for r, expected in zip(roots, real):
        assert math.isfinite(r)
        assert abs(r - expected) < 1 / 16
        # backward error of the float root against the float coefficients,
        # evaluated exactly
        value = sum(Fraction(c) * Fraction(r) ** i for i, c in enumerate(coeffs))
        scale = sum(abs(c) * abs(r) ** i for i, c in enumerate(coeffs))
        assert abs(value) <= 64 * EPS * scale


def test_root_at_a_critical_point():
    # no sign change brackets these roots; they are found because the value
    # at the critical point is exactly zero
    assert _real_roots([0.0, 0.0, 0.0, 1.0]) == [0.0]
    assert _real_roots([1.0, -2.0, 1.0]) == [1.0]
    assert _real_roots([0.0, 0.0]) is None


def test_remembered_critical_points_leave_results_unchanged():
    # the curve's stage y^5 + c has the derivative 5*y^4 at every point, so
    # the second solve reads its critical points from the cache
    first = _real_roots([0.5, 0.0, 0.0, 0.0, 0.0, 1.0])
    hits = _critical_points.cache_info().hits
    first.append(99.0)
    second = _real_roots([0.5, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert _critical_points.cache_info().hits > hits
    assert second == first[:-1]
    assert len(second) == 1 and abs(second[0] ** 5 + 0.5) <= 8 * EPS


def test_root_bound_does_not_overflow():
    # the leading and constant coefficients are each representable, and so
    # is the root -1e200, but their plain ratio 1e600 is not
    roots = _real_roots([1e300, 0.0, 0.0, 1e-300])
    assert len(roots) == 1 and abs(roots[0] / -1e200 - 1.0) <= 4 * EPS


def test_polish_starts_near_a_far_root(monkeypatch):
    # the polish starts midway between the root bound and the critical
    # point 0; from far outside the root, Newton on y^3 + c closes in by only
    # a factor 2/3 per step, so the bound must be near |root| = 1e30
    calls = []
    horner = geometry._horner
    monkeypatch.setattr(
        geometry, "_horner", lambda coeffs, y: calls.append(y) or horner(coeffs, y)
    )
    _critical_points.cache_clear()
    roots = _real_roots([1e90, 0.0, 0.0, 1.0])
    assert len(roots) == 1 and abs(roots[0] / -1e30 - 1.0) <= 4 * EPS
    assert len(calls) <= 20
