"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import polydescent
from polydescent.polynomials import Monomial, Polynomial, VariableOrder, parse_polynomial
from polydescent.triangular import validate_triangular, whitney_partition


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
