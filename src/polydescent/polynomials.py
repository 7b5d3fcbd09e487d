"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from monomials to nonzero ``Fraction`` coefficients,
relative to a fixed ordering of the variables.  All symbolic work (arithmetic,
differentiation, the main-variable decomposition) stays exact; floating point
enters only in :meth:`Polynomial.compile`, :meth:`~Polynomial.coefficient_tables`
and :meth:`Polynomial.evaluate`: the first two build float term tables, which
:func:`eval_terms` evaluates and :func:`evaluator` turns into generated code
once a set of tables runs hot.  :func:`real_roots` and :class:`RootPlan` find
the real roots of univariate float polynomials, the lift's stages.

The canonical form stores no zero coefficients and no zero exponents, so two
polynomials are equal exactly when their term maps are equal, and the printed
form round-trips through :func:`parse_polynomial`.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence


class ParseError(ValueError):
    """Malformed polynomial text; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(ParseError):
    """An identifier in the text is not part of the variable order."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown variable '{name}'", offset)
        self.name = name


class InvalidExponentError(ParseError):
    """The token after '^' is not a nonnegative integer literal."""


class ConstantPolynomialError(ValueError):
    """Raised by operations that require a non-constant polynomial."""


# float term table: (coefficient, ((variable index, exponent), ...)) per term
Terms = list[tuple[float, tuple[tuple[int, int], ...]]]


def eval_terms(terms: Terms, vals: Sequence[float]) -> float:
    """Value of a compiled term table at ``vals``, indexed as it was compiled.

    Terms are evaluated independently and summed in table order.  Nothing
    raises: a power past the float range counts as the signed infinity that
    an overflowing product or sum gives, so such a value reads inf or nan.
    """
    total = 0.0
    for c, facs in terms:
        for i, e in facs:
            try:
                c *= vals[i] ** e
            except OverflowError:
                c *= math.copysign(math.inf, vals[i]) ** e
        total += c
    return total


# a longer sum nests deeper than the compiler's recursion limit allows
_LINE_TERMS = 500


def _line(terms: Terms) -> str:
    # '0.0 + (c*v[i]**e*v[j]**f) + ...' associates as eval_terms sums and
    # multiplies; v[i]**1 is v[i] for every float, so it is left out
    products = (
        "*".join([repr(c)] + [f"v[{i}]**{e}" if e > 1 else f"v[{i}]" for i, e in facs])
        for c, facs in terms
    )
    return " + ".join(["0.0", *(f"({p})" for p in products)])


# calls that read the tables before their code is generated: about where a
# compile pays for itself, and more than a set-up's start projection makes
_HOT_CALLS = 50


def evaluator(tables: Sequence[Terms]) -> Callable[[Sequence[float]], list[float]]:
    """``vals -> [eval_terms(t, vals) for t in tables]``, bit for bit.

    The first 49 calls read the tables with :func:`eval_terms`.  The 50th
    generates one expression per table over float literals and
    ``v[index]``, with :func:`eval_terms`' association, and that code serves
    every later call.  A power past the float range raises in it, and the
    call is then read from the tables, which saturate it.  A set holding a
    table of more than 500 terms is always read from the tables.
    """
    fits = all(len(t) <= _LINE_TERMS for t in tables)
    code = None
    calls = 0

    def evaluate_tables(vals):
        nonlocal code, calls
        if code is None:
            calls += 1
            if calls < _HOT_CALLS or not fits:
                return [eval_terms(t, vals) for t in tables]
            source = f"lambda v: [{', '.join(map(_line, tables))}]"
            code = eval(compile(source, "<straight-line tables>", "eval"), {"inf": math.inf})
        try:
            return code(vals)
        except OverflowError:
            return [eval_terms(t, vals) for t in tables]

    return evaluate_tables


@functools.cache
def matvec(rows: int, cols: int) -> Callable[[Sequence[float]], list[float]]:
    """The :func:`evaluator` of ``M x`` for a ``rows`` x ``cols`` matrix ``M``,
    read from ``[*M.ravel(), *x]``.

    Row i is ``0.0 + M[i, 0]*x[0] + ... + M[i, cols-1]*x[cols-1]``, summed
    left to right: the fold that ``sum`` makes of the products on CPython
    3.10 and 3.11, and the same on every interpreter (from 3.12 ``sum`` of
    floats is compensated).  Each shape has one evaluator per process, so
    its code is generated once, at the shape's 50th product.
    """
    x0 = rows * cols  # where x starts in the flat vector
    return evaluator(
        [[(1.0, ((i * cols + c, 1), (x0 + c, 1))) for c in range(cols)] for i in range(rows)]
    )


# float() rounds a magnitude from here on up to 2**1024, and raises
_FLOAT_LIMIT = 2**1024 - 2**970


def _saturated(c: Fraction) -> float:
    """``float(c)``, the rounded ``n / d``, or ±inf where ``float`` raises."""
    n, d = c.as_integer_ratio()
    if abs(n) < _FLOAT_LIMIT * d:
        return n / d
    return math.inf if n > 0 else -math.inf


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class VariableOrder(tuple):
    """An ordered tuple of distinct variable names; position = rank.

    The leftmost name is the smallest variable.  Orders are immutable and
    shared by every polynomial built over them.
    """

    __slots__ = ()

    def __new__(cls, names: Iterable[str]):
        self = super().__new__(cls, names)
        if not self:
            raise ValueError("variable order must be nonempty")
        if len(set(self)) != len(self):
            raise ValueError("variable order contains duplicate names")
        for n in self:
            if not _NAME_RE.match(n):
                raise ValueError(f"invalid variable name '{n}'")
        return self

    def __repr__(self) -> str:
        return f"VariableOrder({', '.join(self)})"


@dataclass(frozen=True)
class Monomial:
    """A product of variables with positive integer exponents.

    ``exps`` holds ``(variable index, exponent)`` pairs sorted by index;
    exponent zero is never stored, and the empty tuple is the monomial 1.
    """

    exps: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        idxs = [i for i, _ in self.exps]
        if idxs != sorted(set(idxs)):
            raise ValueError("monomial indices must be sorted and distinct")
        if any(e <= 0 for _, e in self.exps):
            raise ValueError("monomial exponents must be positive")

    @classmethod
    def of(cls, exponents: Mapping[int, int]) -> Monomial:
        return cls(tuple(sorted((i, e) for i, e in exponents.items() if e != 0)))

    def degree_of(self, var: int) -> int:
        for i, e in self.exps:
            if i == var:
                return e
        return 0

    @property
    def total_degree(self) -> int:
        return sum(e for _, e in self.exps)

    def variables(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.exps)

    def __mul__(self, other: Monomial) -> Monomial:
        merged = dict(self.exps)
        for i, e in other.exps:
            merged[i] = merged.get(i, 0) + e
        return Monomial.of(merged)

    def without(self, var: int) -> Monomial:
        return Monomial(tuple((i, e) for i, e in self.exps if i != var))


class Polynomial:
    """Immutable sparse polynomial with ``Fraction`` coefficients.

    Arithmetic (`+`, `-`, `*`, unary `-`) is exact.  Construction drops zero
    coefficients, so the zero polynomial has an empty term map.
    """

    __slots__ = ("terms", "order")

    def __init__(self, order: VariableOrder, terms: Mapping[Monomial, Fraction]):
        self.order = order
        self.terms = {m: c for m, c in terms.items() if c != 0}

    @classmethod
    def constant(cls, order: VariableOrder, value) -> Polynomial:
        return cls(order, {Monomial(): Fraction(value)})

    # -- structure --------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return all(m == Monomial() for m in self.terms)

    def variables(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.terms:
            out |= m.variables()
        return frozenset(out)

    def degree_in(self, var: int) -> int:
        return max((m.degree_of(var) for m in self.terms), default=0)

    def main_variable(self) -> int | None:
        """Greatest-ranked variable with positive degree, or None for constants."""
        vs = self.variables()
        return max(vs) if vs else None

    def decompose(self) -> tuple[Polynomial, int, Monomial, Polynomial, Polynomial]:
        """Split off the top power of the main variable.

        Returns ``(initial, main_degree, rank, tail, head)`` with
        ``self == initial * rank + tail`` exactly, where ``rank`` is the
        main variable raised to its degree, ``initial`` is free of the main
        variable, and ``head = initial * rank``.
        """
        v = self.main_variable()
        if v is None:
            raise ConstantPolynomialError("cannot decompose a constant polynomial")
        d = self.degree_in(v)
        init_terms: dict[Monomial, Fraction] = {}
        tail_terms: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            if m.degree_of(v) == d:
                init_terms[m.without(v)] = c
            else:
                tail_terms[m] = c
        initial = Polynomial(self.order, init_terms)
        tail = Polynomial(self.order, tail_terms)
        rank = Monomial(((v, d),))
        head = initial * Polynomial(self.order, {rank: Fraction(1)})
        return initial, d, rank, tail, head

    # -- arithmetic -------------------------------------------------------

    def _check_order(self, other: Polynomial):
        if self.order != other.order:
            raise ValueError("polynomials use different variable orders")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_order(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(self.order, out)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + -other

    def __neg__(self) -> Polynomial:
        return Polynomial(self.order, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check_order(other)
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = ma * mb
                out[m] = out.get(m, Fraction(0)) + ca * cb
        return Polynomial(self.order, out)

    # -- calculus ---------------------------------------------------------

    def derivative(self, var: int) -> Polynomial:
        """Exact partial derivative with respect to the variable at ``var``."""
        if not 0 <= var < len(self.order):
            raise ValueError(f"variable index {var} out of range")
        # lowering one exponent maps distinct monomials to distinct monomials
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m.degree_of(var)
            if e:
                out[Monomial.of({**dict(m.exps), var: e - 1})] = c * e
        return Polynomial(self.order, out)

    def compile(self, index_of: Mapping[int, int] | None = None) -> Terms:
        """Float term table for :func:`eval_terms`.

        Variable ``i`` is read from slot ``index_of[i]`` of the evaluation
        point, or from slot ``i`` without a map.  A coefficient past the
        float range compiles to the signed infinity, as a power does in
        :func:`eval_terms`.
        """
        ix = range(len(self.order)) if index_of is None else index_of
        return [
            (_saturated(c), tuple((ix[i], e) for i, e in m.exps))
            for m, c in self.terms.items()
        ]

    def coefficient_tables(self, var: int) -> list[Terms]:
        """The coefficients in ``var`` as :meth:`compile` tables, one per power from 0."""
        tables: list[Terms] = [[] for _ in range(self.degree_in(var) + 1)]
        for m, c in self.terms.items():
            facs = tuple(f for f in m.exps if f[0] != var)
            tables[m.degree_of(var)].append((_saturated(c), facs))
        return tables

    def evaluate(self, point: Sequence[float]) -> float:
        """Floating-point value at ``point`` (one value per variable, in order)."""
        if len(point) != len(self.order):
            raise ValueError("point length does not match variable order")
        return eval_terms(self.compile(), [float(v) for v in point])

    # -- canonical text ---------------------------------------------------

    def _sort_key(self, m: Monomial):
        dense = tuple(m.degree_of(i) for i in range(len(self.order)))
        return (m.total_degree, dense)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m in sorted(self.terms, key=self._sort_key, reverse=True):
            c = self.terms[m]
            factors = [
                self.order[i] if e == 1 else f"{self.order[i]}^{e}"
                for i, e in m.exps
            ]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.order == other.order
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.order, frozenset(self.terms.items())))


# -- real roots of univariate float polynomials (the lift's stages) ---------


def _horner(coeffs: list[float], y: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _bracketed_newton(
    coeffs: list[float],
    dcoeffs: list[float],
    lo: float,
    hi: float,
    fhi_pos: bool,
    guess: float,
) -> float:
    """The root in (lo, hi); the polynomial is positive at ``hi`` iff ``fhi_pos``.

    Starts at ``guess`` when it lies strictly inside the bracket (the warm
    start's value: a continuation step away from the root), else at the
    midpoint; a NaN guess lies inside none.  Newton steps are taken while
    they stay inside the bracket, falling back to bisection otherwise; the
    bracket shrinks every iteration.  Stops on an exact zero, at an iterate
    whose Newton step is below 2e-16 relative, or once no float lies
    strictly inside the bracket, so there is no iteration cap to run into.
    The iterate is returned without that last step, so a root the step rule
    returned is returned again when polished from itself.
    """
    x = guess if lo < guess < hi else 0.5 * (lo + hi)
    while lo < x < hi:
        f = _horner(coeffs, x)
        if f == 0.0:
            return x
        if (f > 0.0) == fhi_pos:
            hi = x
        else:
            lo = x
        df = _horner(dcoeffs, x)
        step = f / df if df != 0.0 else math.inf
        if abs(step) <= 2e-16 * abs(x):
            return x
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return x


def real_roots(coeffs: list[float], guess: float = math.nan) -> list[float] | None:
    """All real roots of odd multiplicity, ascending; None if identically zero.

    ``coeffs`` run from the lowest power up.  Each root in a bracket
    containing ``guess`` is polished from it (see :func:`_bracketed_newton`);
    the others from their bracket's midpoint.

    The polynomial is monotone between consecutive real roots of its
    derivative, so those roots (found by recursion down to the linear closed
    form), closed at both ends by Fujiwara's root bound, cut the line into
    intervals holding at most one root each.  Every interval whose ends
    differ in sign is closed with :func:`_bracketed_newton`.  Roots of even
    multiplicity produce no sign change and are found only where the value
    at a critical point is exactly zero; at such points the implicit function
    theorem fails anyway.  Past the degree, the work is :meth:`RootPlan.roots`.
    """
    d = len(coeffs) - 1
    while d >= 0 and coeffs[d] == 0.0:
        d -= 1
    if d < 0:
        return None
    if d == 0:
        return []
    return RootPlan(coeffs[1 : d + 1]).roots(coeffs[0], guess)


class RootPlan:
    """:func:`real_roots` of ``c0 + tail[0] y + ... + tail[-1] y^d``, for any ``c0``.

    What does not depend on ``c0`` is computed once, here: the derivative's
    coefficients, its real roots (the critical points) and the Fujiwara
    terms of ``tail``.  ``tail[-1]`` must be nonzero.  :meth:`of` plans a
    lift stage whose coefficients above power 0 are the same at every point.
    """

    __slots__ = ("tail", "dcoeffs", "critical", "k0", "lead_k0", "ratio")

    def __init__(self, tail: list[float]):
        d = len(tail)
        coeffs = [0.0, *tail]
        self.tail = tail
        self.dcoeffs = [coeffs[e] * e for e in range(1, d + 1)]
        self.critical = real_roots(self.dcoeffs) if d > 1 else []
        # Fujiwara's bound; each |c_i / c_d|^(1/(d-i)) is a ratio of roots so it
        # cannot overflow where the root is representable.  Their maximum
        # takes the i = 0 term in roots(); a NaN term is never the maximum
        lead = abs(tail[-1])
        self.k0 = 1.0 / d
        self.lead_k0 = lead**self.k0
        ratio = 0.0
        for i in range(1, d):
            k = 1.0 / (d - i)
            r = abs(coeffs[i]) ** k / lead**k
            if r > ratio:
                ratio = r
        self.ratio = ratio

    @classmethod
    def of(cls, tables: Sequence[Terms]) -> RootPlan | None:
        """The plan of coefficient tables, lowest power first; None unless those
        above power 0 hold no factors and the lead is finite and nonzero."""
        if any(facs for t in tables[1:] for _, facs in t):
            return None
        tail = [eval_terms(t, ()) for t in tables[1:]]
        return cls(tail) if tail and math.isfinite(tail[-1]) and tail[-1] != 0.0 else None

    def roots(self, c0: float, guess: float = math.nan) -> list[float]:
        """The real roots at ``c0``, ascending, polished from ``guess``."""
        coeffs = [c0, *self.tail]
        if len(coeffs) == 2:
            return [-c0 / coeffs[1]]
        r = abs(c0) ** self.k0 / self.lead_k0
        bound = 1.0 + 2.0 * (r if r > self.ratio else self.ratio)
        knots = [-bound, *self.critical, bound]
        vals = [_horner(coeffs, x) for x in knots]
        roots = [x for x, f in zip(knots, vals) if f == 0.0]
        for lo, hi, flo, fhi in zip(knots, knots[1:], vals, vals[1:]):
            if flo < 0.0 < fhi or fhi < 0.0 < flo:
                root = _bracketed_newton(coeffs, self.dcoeffs, lo, hi, fhi > 0.0, guess)
                roots.append(root)
        return sorted(roots)


# -- parsing ---------------------------------------------------------------

# every non-space character starts a match, so the matches tile the text up
# to trailing whitespace; 'bad' catches the characters no token starts with
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character '{m[kind]}'", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("eof", "", len(text)))
    return tokens


# how deep parentheses and unary minuses may nest: the parenthesis depth
# CPython's own tokenizer allows, and at up to 3 frames a level well inside
# the interpreter's recursion limit
_MAX_NESTING = 200


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := coeff | var ('^' uint)? | '(' expr ')' | '-' factor
    coeff  := int | int '/' posint

    Parentheses and unary minuses nest at most 200 deep.
    """

    def __init__(self, text: str, order: VariableOrder):
        self.tokens = _tokenize(text)
        self.order = order
        self.i = 0
        self.depth = 0

    @property
    def tok(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self):
        self.i += 1

    def expect_op(self, op: str):
        kind, text, pos = self.tok
        if kind != "op" or text != op:
            raise ParseError(f"expected '{op}'", pos)
        self.advance()

    def integer(self, error: type[ParseError] = ParseError) -> int:
        """The value of the current token, a digit run, which it consumes."""
        _, text, pos = self.tok
        try:
            value = int(text)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise error(f"integer literal of {len(text)} digits is too long", pos) from None
        self.advance()
        return value

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, text, pos = self.tok
        if kind != "eof":
            raise ParseError(f"unexpected '{text}'", pos)
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while self.tok[0] == "op" and self.tok[1] in "+-":
            op = self.tok[1]
            self.advance()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.tok[0] == "op" and self.tok[1] == "*":
            self.advance()
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        kind, text, pos = self.tok
        if kind == "op" and text in "-(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"nested more than {_MAX_NESTING} deep", pos)
            self.depth += 1
            self.advance()
            if text == "-":
                p = -self.factor()
            else:
                p = self.expr()
                self.expect_op(")")
            self.depth -= 1
            return p
        if kind == "num":
            value = Fraction(self.integer())
            if self.tok[0] == "op" and self.tok[1] == "/":
                self.advance()
                dkind, _, dpos = self.tok
                if dkind != "num":
                    raise ParseError("expected integer denominator", dpos)
                denominator = self.integer()
                if denominator == 0:
                    raise ParseError("denominator must be positive", dpos)
                value /= denominator
            return Polynomial.constant(self.order, value)
        if kind == "name":
            if text not in self.order:
                raise UnknownVariableError(text, pos)
            self.advance()
            var = self.order.index(text)
            exp = 1
            if self.tok[0] == "op" and self.tok[1] == "^":
                self.advance()
                ekind, _, epos = self.tok
                if ekind != "num":
                    raise InvalidExponentError(
                        "exponent is not a nonnegative integer literal", epos
                    )
                exp = self.integer(InvalidExponentError)
            if exp == 0:
                return Polynomial.constant(self.order, 1)
            return Polynomial(
                self.order, {Monomial(((var, exp),)): Fraction(1)}
            )
        raise ParseError(f"unexpected '{text or 'end of input'}'", pos)


def parse_polynomial(text: str, order: VariableOrder) -> Polynomial:
    """Parse ``text`` into the canonical :class:`Polynomial` over ``order``."""
    return _Parser(text, order).parse()
