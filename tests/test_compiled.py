"""A partition's compiled float form against exact-polynomial evaluation.

Every fixture and every ``"auto"`` partition retains a prefix of the
variables, so these tests eliminate explicitly to leave retained sets whose
reduced indices differ from their ambient ones.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import random_partition
import polydescent.triangular as triangular
from polydescent.geometry import LiftError, lift
from polydescent.polynomials import Polynomial, VariableOrder, eval_terms, parse_polynomial
from polydescent.triangular import validate_triangular, whitney_partition


def _horner(coeffs, y):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _magnitude(poly, point):
    """Sum of the absolute values of the terms: the scale of rounding error."""
    absolute = Polynomial(poly.order, {m: abs(c) for m, c in poly.terms.items()})
    return absolute.evaluate([abs(v) for v in point])


def _check_compiled(part, amb):
    """Compare ``part.compiled`` with ``Polynomial.evaluate`` at ambient ``amb``.

    The retained constraints are evaluated at the reduced point embedded in
    ``amb``; the compiled tables hold the same terms in the same order, so
    those values must agree bit for bit.
    """
    compiled = part.compiled
    assert part.compiled is compiled
    ret = part.retained
    p = [amb[v] for v in ret]

    assert compiled.residuals(p) == [g.evaluate(amb) for g in part.g_star]
    J = compiled.jacobian(p)
    H = compiled.hessians(p)
    for c, g in enumerate(part.g_star):
        for a, va in enumerate(ret):
            da = g.derivative(va)
            assert J[c, a] == da.evaluate(amb)
            for b in range(a, len(ret)):
                assert H[c, a, b] == H[c, b, a] == da.derivative(ret[b]).evaluate(amb)

    for j, (y, g) in enumerate(zip(part.eliminated, part.g_circ)):
        coeffs = compiled.stage_coeffs(j, amb)
        assert len(coeffs) == g.degree_in(y) + 1
        assert abs(_horner(coeffs, amb[y]) - g.evaluate(amb)) <= 1e-12 * (
            1.0 + _magnitude(g, amb)
        )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_matches_exact_evaluation(seed):
    rng = random.Random(seed)
    part = random_partition(rng)
    amb = [rng.uniform(-1.5, 1.5) for _ in part.order]
    _check_compiled(part, amb)
    try:
        lifted = lift(part, [amb[v] for v in part.retained])
    except LiftError:
        return
    _check_compiled(part, lifted.tolist())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_stage_coefficients_sum_the_exact_terms_in_order(seed):
    # each stage coefficient is the terms of its power of eliminated[j],
    # taken from the exact form in term order: bit for bit the same sum
    rng = random.Random(seed)
    part = random_partition(rng)
    amb = [rng.uniform(-1.5, 1.5) for _ in part.order]
    for j, (y, g) in enumerate(zip(part.eliminated, part.g_circ)):
        tables = [[] for _ in range(g.degree_in(y) + 1)]
        for m, c in g.terms.items():
            tables[m.degree_of(y)].append((float(c), m.without(y).exps))
        expected = [eval_terms(t, amb) for t in tables]
        assert part.compiled.stage_coeffs(j, amb) == expected


def test_stage_coefficient_past_the_float_range_saturates():
    order = VariableOrder(["u", "x", "y"])
    big = "2" + "0" * 308
    polys = [parse_polynomial(t, order) for t in ("u^2 + x^2 - 1", f"y^2 - {big}*x")]
    part = whitney_partition(validate_triangular(polys, order), eliminate=[2])
    assert part.compiled.stage_coeffs(0, [0.0, 1.0, 0.0]) == [-np.inf, 0.0, 1.0]
    assert part.compiled.stage_coeffs(0, [0.0, -1.0, 0.0]) == [np.inf, 0.0, 1.0]


def test_non_prefix_retained_set():
    order = VariableOrder(["u", "x", "y"])
    polys = [parse_polynomial(t, order) for t in ("x - u^2", "y^2 + u^2 - 1")]
    part = whitney_partition(validate_triangular(polys, order), eliminate=[1])
    assert part.retained == (0, 2)
    amb = [0.6, 5.0, 0.8]
    _check_compiled(part, amb)
    assert part.compiled.jacobian([0.6, 0.8]).tolist() == [[1.2, 1.6]]
    assert part.compiled.stage_coeffs(0, amb) == [-0.36, 1.0]


def test_hessians_evaluate_only_nonzero_second_partials(monkeypatch):
    # 2 constraints over 5 retained variables have 30 upper-triangle second
    # partials; only d2/du dv of the first and d2/dw^2 of the second are nonzero
    order = VariableOrder(["u", "v", "w", "x", "y"])
    polys = [parse_polynomial(t, order) for t in ("x - u*v", "y - w^2 + u")]
    part = whitney_partition(validate_triangular(polys, order), eliminate=[])
    calls = []
    real_eval_terms = triangular.eval_terms

    def counting_eval_terms(terms, vals):
        calls.append(terms)
        return real_eval_terms(terms, vals)

    monkeypatch.setattr(triangular, "eval_terms", counting_eval_terms)
    H = part.compiled.hessians([0.5, -1.0, 2.0, 0.3, 0.7])
    assert len(calls) == 2
    expected = np.zeros((2, 5, 5))
    expected[0, 0, 1] = expected[0, 1, 0] = -1.0
    expected[1, 2, 2] = -2.0
    assert H.tolist() == expected.tolist()
    assert not np.signbit(H[H == 0.0]).any()
    monkeypatch.undo()
    _check_compiled(part, [0.5, -1.0, 2.0, 0.3, 0.7])
