"""The planned, straight-line lift against the general path, bit for bit.

A lift stage whose coefficients above power 0 are constants keeps a
``RootPlan`` and hands it only its constant coefficient; every set of
tables runs as generated code once it is hot.  Each must return exactly what
the general path returns: ``eval_terms`` on the tables, and ``real_roots`` on
the stage coefficients, itself checked against a copy of the root finder as
it was before plans existed.
"""

import ast
import math
import random
import struct
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import manifold_start, random_system, random_tower
import polydescent.triangular as triangular
from polydescent import polynomials
from polydescent.geodesics import GeodesicState, christoffel, geodesic_integrate
from polydescent.geometry import lift, project_to_manifold, tangent_frame
from polydescent.polynomials import (
    Polynomial,
    VariableOrder,
    eval_terms,
    evaluator,
    matvec,
    parse_polynomial,
    real_roots,
)
from polydescent.triangular import CompiledSystem, validate_triangular, whitney_partition

INF = math.inf


def _bits(xs):
    return None if xs is None else [struct.pack("<d", x) for x in xs]


def _count_builds(monkeypatch):
    """A list that grows by one each time generated table code is compiled."""
    built = []

    def counting_compile(*args):
        built.append(args[0])
        return compile(*args)

    monkeypatch.setattr(polynomials, "compile", counting_compile, raising=False)
    return built


def _reference_real_roots(coeffs, guess=math.nan):
    """The root finder before plans: one pass, critical points by recursion."""
    d = len(coeffs) - 1
    while d >= 0 and coeffs[d] == 0.0:
        d -= 1
    if d < 0:
        return None
    coeffs = coeffs[: d + 1]
    if d == 0:
        return []
    if d == 1:
        return [-coeffs[0] / coeffs[1]]
    lead = abs(coeffs[d])
    ratio = 0.0
    for i in range(d):
        k = 1.0 / (d - i)
        r = abs(coeffs[i]) ** k / lead**k
        if r > ratio:
            ratio = r
    bound = 1.0 + 2.0 * ratio
    dcoeffs = [coeffs[e] * e for e in range(1, d + 1)]
    knots = [-bound, *_reference_real_roots(dcoeffs), bound]
    vals = [polynomials._horner(coeffs, x) for x in knots]
    roots = [x for x, f in zip(knots, vals) if f == 0.0]
    for lo, hi, flo, fhi in zip(knots, knots[1:], vals, vals[1:]):
        if flo < 0.0 < fhi or fhi < 0.0 < flo:
            roots.append(
                polynomials._bracketed_newton(coeffs, dcoeffs, lo, hi, fhi > 0.0, guess)
            )
    return sorted(roots)


def _partition(var_names, constraint_texts, eliminate_names):
    order = VariableOrder(var_names)
    polys = [parse_polynomial(t, order) for t in constraint_texts]
    elim = [order.index(n) for n in eliminate_names]
    return whitney_partition(validate_triangular(polys, order), eliminate=elim)


def _check_stage(compiled, j, vals, guess):
    coeffs = compiled.stage_coeffs(j, vals)
    general = real_roots(coeffs, guess)
    assert _bits(compiled.stage_roots(j, vals, guess)) == _bits(general)
    assert _bits(general) == _bits(_reference_real_roots(coeffs, guess))


# -- stage plans ------------------------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_planned_stages_return_the_general_roots(seed, tower):
    rng = random.Random(seed)
    part = random_system(rng, tower)
    for _ in range(4):
        vals = [rng.uniform(-2.0, 2.0) for _ in part.order]
        for j, y in enumerate(part.eliminated):
            for guess in (math.nan, vals[y], rng.uniform(-3.0, 3.0)):
                _check_stage(part.compiled, j, vals, guess)


def test_several_critical_points():
    # z^3 - 3z - x has critical points -1 and 1: one root for |x| > 2, three
    # for |x| < 2, and a double root at a critical point for x = +-2 (found
    # only where the critical point's value rounds to exactly zero)
    part = _partition(["x", "z"], ["x - 4/5", "z^3 - 3*z - x"], ["z"])
    xs = [k / 8 for k in range(-24, 25)] + [0.8, 1e-300, 1e300, -1e300]
    for x in xs:
        for guess in (math.nan, -1.6, -1.0, -0.27, 0.0, 1.0, 1.9, 5.0):
            _check_stage(part.compiled, 0, [x, guess], guess)
    assert len(part.compiled.stage_roots(0, [0.8, 0.0])) == 3
    assert len(part.compiled.stage_roots(0, [3.0, 0.0])) == 1


@pytest.mark.parametrize(
    "vals", [[1e200, 1e200, 0.0], [-1e200, 1e200, 0.0], [INF, 0.0, 0.0], [INF, 1.0, 0.0]]
)
@pytest.mark.parametrize("top", ["y^3 + y - u*x", "y - u*x", "y^5 - u*x"])
def test_a_constant_coefficient_past_the_float_range(top, vals):
    # u*x reads +-inf or nan: the plan takes it as real_roots does
    part = _partition(["u", "x", "y"], ["x - u", top], ["y"])
    for guess in (math.nan, 0.0, 1e300):
        _check_stage(part.compiled, 0, vals, guess)


def test_which_stages_are_planned(monkeypatch):
    # a constant lead and constant higher coefficients plan a stage; a lead
    # that varies, or one that rounds to zero, leaves it to real_roots
    def general(coeffs, guess):
        raise AssertionError("general path taken")

    monkeypatch.setattr(triangular, "real_roots", general)
    for top in ("y^3 + y - x", "y - x^2", "y^5 + x^3 + x"):
        part = _partition(["x", "y"], ["x - 1/2", top], ["y"])
        part.compiled.stage_roots(0, [0.5, 0.0])
    tiny = "1/1" + "0" * 400
    for top in ("x*y^2 - 1", "y^2 + x*y - 1", f"{tiny}*y^3 + y - x"):
        part = _partition(["x", "y"], ["x - 1/2", top], ["y"])
        with pytest.raises(AssertionError, match="general path taken"):
            part.compiled.stage_roots(0, [0.5, 0.0])


def test_every_tower_stage_is_planned(monkeypatch):
    monkeypatch.setattr(triangular, "real_roots", None)  # a call would fail
    rng = random.Random(5)
    for _ in range(5):
        part = random_tower(rng, rng.randint(8, 16), rng.randint(1, 3))
        start = manifold_start(part, rng)
        assert lift(part, start).shape == (len(part.order),)


def test_generated_code_is_built_when_hot(monkeypatch):
    # set-up, the start frame and projection and the first lifts build no
    # code; each table set builds its own once, at its 50th call, and reads
    # the same values before and after.  The chord's evaluator is shared by
    # every projection of its shape, so its count starts over here
    matvec.cache_clear()
    built = _count_builds(monkeypatch)
    rng = random.Random(2)
    part = random_tower(rng, 12, 2)
    start = manifold_start(part, rng)
    warm = lift(part, start)
    frame = tangent_frame(part, start)
    q = project_to_manifold(frame, [1e-3] * part.manifold_dim)
    lift(part, q, warm)
    assert built == []
    p, amb = start.tolist(), warm.tolist()
    stages = range(len(part.eliminated))
    table_sets = [
        lambda c: c.residuals(p),
        lambda c: c.jacobian(p).ravel().tolist(),
        lambda c: c.hessians(p).ravel().tolist(),
        *(lambda c, j=j: c.stage_coeffs(j, amb) for j in stages),
        *(lambda c, j=j: c.stage_roots(j, amb, amb[part.eliminated[j]]) for j in stages),
    ]
    for call in table_sets:
        compiled = CompiledSystem(part)
        first = _bits(call(compiled))
        for n in range(2, 52):
            assert _bits(call(compiled)) == first
            assert len(built) == (n >= 50)
        built.clear()


def test_stage_tables_are_cut_at_the_first_lift(monkeypatch):
    # set-up and every reader that does not lift (the Jacobian, the Hessians,
    # the frame, the projection, the Christoffel symbols and a geodesic) cut
    # no stage table; the first lift cuts each stage's once, for good
    cut = []
    cut_tables = Polynomial.coefficient_tables

    def counting_cut(poly, var):
        cut.append((poly, var))
        return cut_tables(poly, var)

    monkeypatch.setattr(Polynomial, "coefficient_tables", counting_cut)
    rng = random.Random(3)
    part = random_tower(rng, 14, 2)
    start = manifold_start(part, rng)
    part.compiled.residuals(start.tolist())
    part.compiled.jacobian(start.tolist())
    part.compiled.hessians(start.tolist())
    frame = tangent_frame(part, start)
    q = project_to_manifold(frame, [1e-3] * part.manifold_dim)
    christoffel(part, start)
    geodesic_integrate(part, GeodesicState(start, frame.U[:, 0]), 0.01, 1e-3)
    assert cut == []
    warm = lift(part, start)
    assert cut == list(zip(part.g_circ, part.eliminated))
    lift(part, q, warm)
    for j in range(len(part.eliminated)):
        part.compiled.stage_coeffs(j, warm.tolist())
    assert len(cut) == len(part.eliminated)


@pytest.mark.parametrize(
    "top, read",
    [("y^3 + y - x", 1), ("y^5 + 2*y^2 + x^3 + x", 1), ("x*y^2 + y - 1", 3), ("y^2 + x*y - 1", 3)],
)
def test_a_planned_stage_reads_only_its_power_0_table(monkeypatch, top, read):
    # a planned stage's plan holds its coefficients above power 0, so its
    # evaluator reads and generates code for the power-0 table alone; an
    # unplanned stage reads all of its tables
    part = _partition(["x", "y"], ["x - 1/2", top], ["y"])
    tables = part.g_circ[0].coefficient_tables(1)
    compiled = CompiledSystem(part)
    vals = [0.5, 0.25]
    expected = compiled.stage_coeffs(0, vals)  # cuts and plans the stage
    assert expected == [eval_terms(t, vals) for t in tables]
    calls = []

    def counting_eval_terms(terms, vals):
        calls.append(terms)
        return eval_terms(terms, vals)

    monkeypatch.setattr(polynomials, "eval_terms", counting_eval_terms)
    built = _count_builds(monkeypatch)
    compiled.stage_roots(0, vals)
    assert calls == tables[:read]
    for _ in range(47):
        assert compiled.stage_coeffs(0, vals) == expected
    assert built == []
    assert compiled.stage_coeffs(0, vals) == expected  # the 50th call
    (source,) = built
    assert len(ast.parse(source, mode="eval").body.body.elts) == read
    assert _bits(compiled.stage_coeffs(0, vals)) == _bits(expected)


# -- straight-line tables -------------------------------------------------------------

_coefficients = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, INF, -INF, 1e308, -1e308]),
)
_factors = st.lists(
    st.tuples(st.integers(0, 3), st.one_of(st.integers(1, 3), st.integers(1, 400))),
    max_size=3,
    unique_by=lambda f: f[0],
).map(lambda fs: tuple(sorted(fs)))
_tables = st.lists(st.tuples(_coefficients, _factors), max_size=6)
_values = st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(min_value=-4.0, max_value=4.0),
        st.sampled_from([0.0, -0.0, 1e200, -1e200, 1e-200]),
    ),
    min_size=4,
    max_size=4,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(_tables, max_size=3), max_size=3), _values)
def test_generated_tables_equal_eval_terms(groups, vals):
    # +-inf coefficients, powers past the float range (the code raises and
    # eval_terms saturates them), empty tables and empty sets; calls 1 to 49
    # read the tables, the 50th generates the code that serves the 51st
    for tables in groups:
        evaluate = evaluator(tables)
        expected = _bits([eval_terms(t, vals) for t in tables])
        for _ in range(51):
            assert _bits(evaluate(vals)) == expected


_entries = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 1e308, -1e308, 1e-300]),
)


@st.composite
def _products(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    m = draw(st.lists(_entries, min_size=rows * cols, max_size=rows * cols))
    return rows, cols, m, draw(st.lists(_entries, min_size=cols, max_size=cols))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_products())
@example((1, 3, [1e16, 1.0, -1e16], [1.0, 1.0, 1.0]))  # from CPython 3.12 sum() reads 1.0
def test_matvec_is_the_left_fold(product):
    # row i of M x is 0.0 + M[i, 0]*x[0] + ..., added left to right, both on
    # the calls that read the tables and on the generated code from the 50th
    rows, cols, m, x = product
    expected = _bits(
        [reduce(add, map(mul, m[i * cols : (i + 1) * cols], x), 0.0) for i in range(rows)]
    )
    matvec.cache_clear()
    evaluate = matvec(rows, cols)
    for _ in range(51):
        assert _bits(evaluate(m + x)) == expected


def test_one_chord_evaluator_per_shape():
    # projections from many frames, on two partitions of one shape, share
    # one matvec evaluator
    matvec.cache_clear()
    rng = random.Random(4)
    for part in (random_tower(rng, 12, 2), random_tower(rng, 12, 2)):
        for _ in range(3):
            frame = tangent_frame(part, manifold_start(part, rng))
            assert project_to_manifold(frame, [1e-3] * part.manifold_dim) is not None
    assert matvec.cache_info().misses == 1


def test_a_long_table_stays_on_eval_terms(monkeypatch):
    # a sum of thousands of terms nests past the compiler's recursion limit,
    # so a set holding a table of more than 500 is never generated
    built = _count_builds(monkeypatch)
    rng = random.Random(0)
    for n in (500, 501, 3000):
        factors = [((rng.randrange(3), rng.randint(1, 3)),) for _ in range(n)]
        table = [(rng.uniform(-1.0, 1.0), f) for f in factors]
        vals = [0.3, -1.7, 2.2]
        evaluate = evaluator([table, [(2.0, ())]])
        expected = _bits([eval_terms(table, vals), 2.0])
        for _ in range(51):
            assert _bits(evaluate(vals)) == expected
        assert len(built) == (n == 500)
        built.clear()


def _only_literals_and_reads(source: str) -> list[str]:
    """Nodes of ``source`` other than float literals, ``v[int]``, ``inf``,
    ``+``, ``*``, ``**`` by an integer literal and a negated literal."""
    tree = ast.parse(source, mode="eval").body
    nodes = list(ast.walk(tree))
    # an integer literal may only index v or be an exponent
    ints = {id(n.slice) for n in nodes if isinstance(n, ast.Subscript)}
    ints |= {id(n.right) for n in nodes if isinstance(getattr(n, "op", None), ast.Pow)}
    bad = []
    for node in nodes:
        if isinstance(node, ast.BinOp):
            ok = isinstance(node.op, (ast.Add, ast.Mult)) or (
                isinstance(node.op, ast.Pow) and isinstance(node.left, ast.Subscript)
                and type(getattr(node.right, "value", None)) is int
            )
        elif isinstance(node, ast.UnaryOp):
            ok = isinstance(node.op, ast.USub) and (
                type(getattr(node.operand, "value", None)) is float
                or getattr(node.operand, "id", None) == "inf"
            )
        elif isinstance(node, ast.Subscript):
            ok = getattr(node.value, "id", None) == "v" and id(node.slice) in ints
        elif isinstance(node, ast.Name):
            ok = node.id in ("v", "inf")
        elif isinstance(node, ast.Constant):
            ok = type(node.value) is (int if id(node) in ints else float)
        else:
            ok = isinstance(node, (ast.operator, ast.unaryop, ast.expr_context))
        if not ok:
            bad.append(ast.unparse(node))
    return bad


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tables)
def test_generated_source_holds_only_literals_and_reads(table):
    assert _only_literals_and_reads(polynomials._line(table)) == []


def test_source_check_catches_other_nodes():
    others = ("0.0 + f(v)", "v[i]", "v[0]**v[1]", "0.0 + x", "0.0 - v[0]", "'a'", "0.0 + 3")
    for source in others + ("-v[0]", "v[0.5]", "2.0**3", "v[0]**2.0"):
        assert _only_literals_and_reads(source) != [], source
    assert _only_literals_and_reads("0.0 + (-inf*v[0]**3*v[2]) + (1e+300)") == []
