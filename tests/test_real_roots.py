"""The lift's univariate root finder on polynomials with known real roots."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polymul

from conftest import manifold_start, random_system, random_tower
from polydescent import polynomials
from polydescent.geometry import (
    LiftError,
    NotRegularError,
    lift,
    project_to_manifold,
    tangent_frame,
)
from polydescent.polynomials import RootPlan, real_roots

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

    roots = real_roots(coeffs)
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
    assert real_roots([0.0, 0.0, 0.0, 1.0]) == [0.0]
    assert real_roots([1.0, -2.0, 1.0]) == [1.0]
    assert real_roots([0.0, 0.0]) is None


def test_remembered_critical_points_leave_results_unchanged(monkeypatch):
    # the curve's stage y^5 + c has the derivative 5*y^4 at every point, so
    # its plan finds the critical points once and each solve only reads them
    plan = RootPlan([0.0, 0.0, 0.0, 0.0, 1.0])
    monkeypatch.setattr(polynomials, "real_roots", None)  # a call would fail
    first = plan.roots(0.5)
    first.append(99.0)
    second = plan.roots(0.5)
    monkeypatch.undo()
    assert second == first[:-1] == real_roots([0.5, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert len(second) == 1 and abs(second[0] ** 5 + 0.5) <= 8 * EPS


def test_a_plan_needs_constant_tables_above_power_0_and_a_usable_lead():
    # tables as Polynomial.coefficient_tables gives them, lowest power first
    c0 = [(1.0, ((0, 2),)), (-0.5, ())]
    plan = RootPlan.of([c0, [(1.0, ())], [], [(4.0, ())]])
    assert plan.tail == [1.0, 0.0, 4.0]
    assert plan.roots(-5.0) == real_roots([-5.0, 1.0, 0.0, 4.0])
    for above in (
        [[(1.0, ((0, 1),))], [(4.0, ())]],  # a coefficient that varies
        [[(1.0, ())], [(5e-324 / 2, ())]],  # a lead that rounds to zero
        [[(1.0, ())], [(math.inf, ())]],
        [[(1.0, ())], [(-math.inf, ())]],
        [],  # constant in the stage's variable
    ):
        assert RootPlan.of([c0, *above]) is None


def test_root_bound_does_not_overflow():
    # the leading and constant coefficients are each representable, and so
    # is the root -1e200, but their plain ratio 1e600 is not
    roots = real_roots([1e300, 0.0, 0.0, 1e-300])
    assert len(roots) == 1 and abs(roots[0] / -1e200 - 1.0) <= 4 * EPS


def test_polish_starts_near_a_far_root(monkeypatch):
    # the polish starts midway between the root bound and the critical
    # point 0; from far outside the root, Newton on y^3 + c closes in by only
    # a factor 2/3 per step, so the bound must be near |root| = 1e30
    calls = []
    horner = polynomials._horner
    monkeypatch.setattr(
        polynomials, "_horner", lambda coeffs, y: calls.append(y) or horner(coeffs, y)
    )
    roots = real_roots([1e90, 0.0, 0.0, 1.0])
    assert len(roots) == 1 and abs(roots[0] / -1e30 - 1.0) <= 4 * EPS
    assert len(calls) <= 20


# -- warm-started polish --------------------------------------------------------


def _stage_polynomials(rng: random.Random) -> list[tuple[list[float], float]]:
    """(coefficients, warm value) of each lift stage at a point near a start.

    The start lies on the manifold of a random tower or system; the point
    is a small projected step away and is lifted from the start's lift,
    whose values are the warm values, as in a descent's poll.
    """
    while True:
        part = random_system(rng, rng.random() < 0.5)
        start = manifold_start(part, rng)
        if start is None:
            continue
        try:
            frame = tangent_frame(part, start)
            warm = lift(part, start)
            w = [rng.gauss(0.0, 0.05) for _ in range(part.manifold_dim)]
            p = project_to_manifold(frame, w)
            vals = None if p is None else lift(part, p, warm=warm).tolist()
        except (LiftError, NotRegularError, OverflowError):
            continue
        if vals is None:
            continue
        return [
            (part.compiled.stage_coeffs(j, vals), float(warm[y]))
            for j, y in enumerate(part.eliminated)
        ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_guess_moves_roots_by_a_few_ulps_at_most(seed):
    # each polish stops at an iterate whose Newton step is below 2e-16
    # relative, under 2 ulps from the root to first order, so the polish
    # from a guess and the one from the midpoint end within 4 ulps
    for coeffs, guess in _stage_polynomials(random.Random(seed)):
        cold, warm = real_roots(coeffs), real_roots(coeffs, guess)
        assert len(warm) == len(cold)
        for a, b in zip(cold, warm):
            assert abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_guess_outside_every_bracket_changes_nothing(seed):
    # beyond the root bound, infinite or NaN, the guess lies strictly inside
    # no bracket, so every polish starts at its midpoint as without one
    for coeffs, _ in _stage_polynomials(random.Random(seed)):
        cold = [r.hex() for r in real_roots(coeffs)]
        for guess in (math.nan, math.inf, -math.inf, 1e300, -1e300):
            assert [r.hex() for r in real_roots(coeffs, guess)] == cold


def test_a_polish_from_its_own_root_returns_it():
    # the returned iterate meets the stopping rule, so polishing again from
    # it stops at once: re-lifting an accepted lift returns it bit for bit
    rng = random.Random(11)
    for _ in range(20):
        for coeffs, _ in _stage_polynomials(rng):
            for r in real_roots(coeffs):
                assert r in real_roots(coeffs, r)


def test_a_warm_tower_lift_evaluates_less(monkeypatch):
    # polls 0.02 from the start of a 12-variable tower, each lifted from the
    # start's lift: polishing from the warm values takes about a third fewer
    # evaluations than from the bracket midpoints (the guess withheld)
    rng = random.Random(0)
    part = random_tower(rng, 12, 2)
    start = manifold_start(part, rng)
    frame = tangent_frame(part, start)
    warm = lift(part, start)  # also builds the stage plans
    steps = [[rng.gauss(0.0, 0.02) for _ in range(2)] for _ in range(20)]
    points = [project_to_manifold(frame, w) for w in steps]

    calls = []
    horner = polynomials._horner
    monkeypatch.setattr(polynomials, "_horner", lambda c, y: calls.append(y) or horner(c, y))

    def evaluations():
        calls.clear()
        lifts = [lift(part, p, warm=warm) for p in points]
        return len(calls), lifts

    guided, lifts = evaluations()
    planned = RootPlan.roots
    monkeypatch.setattr(RootPlan, "roots", lambda plan, c0, guess: planned(plan, c0))
    withheld, cold_lifts = evaluations()
    assert guided < 0.8 * withheld
    for a, b in zip(lifts, cold_lifts):
        assert np.allclose(a, b, rtol=8 * EPS, atol=0)
