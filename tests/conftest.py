"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import polydescent
from polydescent.polynomials import Monomial, Polynomial, VariableOrder, parse_polynomial
from polydescent.triangular import WhitneyPartition, validate_triangular, whitney_partition


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Let the Python processes the tests start import the package under test."""
    src = str(Path(polydescent.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


def random_polynomial(
    rng: random.Random,
    order: VariableOrder,
    max_total_degree: int = 5,
    max_terms: int = 8,
    coeff_bound: int = 10,
) -> Polynomial:
    """Random sparse polynomial with rational coefficients in [-bound, bound]."""
    n = len(order)
    terms: dict[Monomial, Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        exps: dict[int, int] = {}
        budget = rng.randint(0, max_total_degree)
        while budget > 0:
            v = rng.randrange(n)
            e = rng.randint(1, budget)
            exps[v] = exps.get(v, 0) + e
            budget -= e
            if rng.random() < 0.5:
                break
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, coeff_bound)
        c = Fraction(num, den)
        m = Monomial.of(exps)
        terms[m] = terms.get(m, Fraction(0)) + c
    return Polynomial(order, terms)


def random_nonconstant_polynomial(rng: random.Random, order: VariableOrder) -> Polynomial:
    while True:
        p = random_polynomial(rng, order)
        if p.main_variable() is not None:
            return p


def random_partition(rng: random.Random) -> WhitneyPartition:
    """A random triangular system, eliminated so the retained set is no prefix."""
    while True:
        n = rng.randint(3, 6)
        algebraic = sorted(rng.sample(range(n), rng.randint(2, n)))
        eliminated = sorted(rng.sample(algebraic, rng.randint(1, len(algebraic) - 1)))
        retained = [v for v in range(n) if v not in eliminated]
        if min(eliminated) < max(retained):
            break
    order = VariableOrder([f"z{i}" for i in range(n)])
    polys = []
    for v in algebraic:
        # main variable v at degree d; retained members avoid eliminated variables
        d = rng.randint(1, 3)
        allowed = {w for w in range(v + 1) if v in eliminated or w not in eliminated}
        tail = {
            m: c
            for m, c in random_polynomial(rng, order).terms.items()
            if m.variables() <= allowed and m.degree_of(v) < d
        }
        lead = Monomial(((v, d),))
        polys.append(Polynomial(order, {**tail, lead: Fraction(rng.randint(1, 5))}))
    part = whitney_partition(validate_triangular(polys, order), eliminate=eliminated)
    assert part.retained == tuple(retained)
    return part


def random_tower(rng: random.Random, n: int, m: int) -> WhitneyPartition:
    """A tower of n variables, m of them free, partitioned ``"auto"``.

    Every member is ``z^3 + z + h(lower variables)`` with a small rational
    ``h``, as in the benchmark's towers: ``t^3 + t + c`` is strictly
    increasing, so every stage has exactly one real root.
    """
    order = VariableOrder([f"u{i}" for i in range(m)] + [f"z{k}" for k in range(n - m)])
    polys = []
    for v in range(m, n):
        terms = {
            Monomial.of({v: 3}): Fraction(1),
            Monomial.of({v: 1}): Fraction(1),
            Monomial.of({}): Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((3, 5, 7))),
        }
        for _ in range(rng.randint(2, 3)):
            exps: dict[int, int] = {}
            for _ in range(rng.randint(1, 2)):
                w = rng.randrange(max(0, v - 4), v) if rng.random() < 0.6 else rng.randrange(m)
                exps[w] = exps.get(w, 0) + 1
            mono = Monomial.of(exps)
            coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(2, 5))
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        polys.append(Polynomial(order, terms))
    return whitney_partition(validate_triangular(polys, order), "auto")


def random_system(rng: random.Random, tower: bool) -> WhitneyPartition:
    """A random tower with 1-3 free variables, or a random system with a manifold."""
    while True:
        if tower:
            m = rng.randint(1, 3)
            return random_tower(rng, rng.randint(m + 3, m + 6), m)
        part = random_partition(rng)
        if part.manifold_dim >= 1:
            return part


def manifold_start(part: WhitneyPartition, rng: random.Random) -> np.ndarray | None:
    """A random point of the reduced manifold of ``part``, or None.

    Free variables are drawn from [-1, 1]; each retained member is then
    solved for its main variable, in variable order, taking the real root
    nearest zero, polished by three Newton steps.  None when a member has no
    real root there or its derivative vanishes at the root.
    """
    vals = [0.0] * len(part.order)
    members = {p.main_variable(): p for p in part.g_star}
    for v in part.retained:
        p = members.get(v)
        if p is None:
            vals[v] = rng.uniform(-1.0, 1.0)
            continue
        coeffs = [0.0] * (p.degree_in(v) + 1)
        for mono, c in p.terms.items():
            coeffs[mono.degree_of(v)] += float(c) * math.prod(
                vals[i] ** e for i, e in mono.exps if i != v
            )
        roots = [r.real for r in np.roots(coeffs[::-1]) if abs(r.imag) <= 1e-9]
        if not roots:
            return None
        vals[v] = min(roots, key=abs)
        dp = p.derivative(v)
        for _ in range(3):
            slope = dp.evaluate(vals)
            if slope == 0.0:
                return None
            vals[v] -= p.evaluate(vals) / slope
    return np.array([vals[v] for v in part.retained])


# -- the curve fixture: one quintic lift over a planar oval -----------------

@pytest.fixture(scope="session")
def curve3():
    """g_star = u^4 + x^2 - 1 over (u, x), g_circ = u^2 + x^3 + y^5."""
    order = VariableOrder(["u", "x", "y"])
    gs = parse_polynomial("u^4 + x^2 - 1", order)
    gc = parse_polynomial("u^2 + x^3 + y^5", order)
    sys = validate_triangular([gs, gc], order)
    part = whitney_partition(sys, eliminate=[order.index("y")])
    return part


def curve3_point(u: float, branch: int = +1) -> np.ndarray:
    """On-manifold reduced point (u, x) with x = branch * sqrt(1 - u^4)."""
    x = branch * float(np.sqrt(1.0 - u**4))
    return np.array([u, x])


def curve3_height(u: float, x: float) -> float:
    """Closed-form lifted coordinate y(u, x) = -(u^2 + x^3)^(1/5)."""
    t = u * u + x**3
    return -float(np.copysign(abs(t) ** 0.2, t))


# -- the quartic fixture: two linear lifts over a hyperbola ------------------

@pytest.fixture(scope="session")
def quartic4():
    """Triangular system {u^2 x^2 - 1, y1 + u, y2 + x} over u < x < y1 < y2."""
    order = VariableOrder(["u", "x", "y1", "y2"])
    polys = [
        parse_polynomial("u^2*x^2 - 1", order),
        parse_polynomial("y1 + u", order),
        parse_polynomial("y2 + x", order),
    ]
    sys = validate_triangular(polys, order)
    part = whitney_partition(sys, eliminate=[order.index("y1"), order.index("y2")])
    return part


def quartic4_originals(order: VariableOrder) -> list[Polynomial]:
    """The pre-triangularization constraints of the quartic fixture.

    Variables map as z1=u, z2=x, z3=y1, z4=y2.
    """
    return [
        parse_polynomial("y2 + y1 + x + u", order),
        parse_polynomial("y2*u + y2*y1 + y1*x + x*u", order),
        parse_polynomial("y2*x*u + y2*y1*u + y2*y1*x + y1*x*u", order),
        parse_polynomial("y2*y1*x*u - 1", order),
    ]


# -- the circle fixture: geometry tests need nonzero curvature ---------------

@pytest.fixture(scope="session")
def circle():
    """g_star = u^2 + x^2 - 1 over (u, x), nothing eliminated."""
    order = VariableOrder(["u", "x"])
    g = parse_polynomial("u^2 + x^2 - 1", order)
    sys = validate_triangular([g], order)
    return whitney_partition(sys, eliminate=[])
