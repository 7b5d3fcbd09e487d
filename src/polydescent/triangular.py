"""Triangular polynomial systems and the split into retained/eliminated blocks.

A triangular system has pairwise-distinct main variables and no constant
members; variables are *algebraic* when they are some member's main variable
and *free* otherwise.  The partition machinery peels off a suffix of the
constraints so that each eliminated variable can later be recovered by a
one-dimensional solve, leaving a lower-dimensional system over the retained
variables for the optimizer to walk on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .polynomials import Polynomial, RootPlan, Terms, VariableOrder, evaluator, real_roots


class ConstantMemberError(ValueError):
    """A would-be triangular system contains a constant polynomial."""


class DuplicateMainVariableError(ValueError):
    """Two members share the same main variable."""

    def __init__(self, name: str):
        super().__init__(f"two members share the main variable '{name}'")
        self.name = name


class NotEliminableError(ValueError):
    """The requested elimination breaks the triangular cascade."""


class EmptyReducedSystemError(ValueError):
    """Every constraint was eliminated; nothing is left to optimize over."""


class RankDeficientError(ValueError):
    """A linear system lost full row rank during triangularization."""


AUTO = "auto"


@dataclass(frozen=True)
class TriangularSystem:
    """A validated triangular set, members sorted by ascending main variable."""

    polynomials: tuple[Polynomial, ...]
    order: VariableOrder
    algebraic_vars: frozenset[int]
    free_vars: frozenset[int]

    @property
    def manifold_dim(self) -> int:
        return len(self.free_vars)


def validate_triangular(
    polys: Sequence[Polynomial], order: VariableOrder
) -> TriangularSystem:
    """Check the triangular-set conditions and classify the variables.

    Raises ``ValueError`` if ``polys`` is empty (a manifold needs at least
    one member to cut it out), :class:`ConstantMemberError` if any member is
    constant (the zero polynomial included) and
    :class:`DuplicateMainVariableError` if two members share a main variable.
    """
    if not polys:
        raise ValueError("a triangular system needs at least one member")
    by_mvar: dict[int, Polynomial] = {}
    for p in polys:
        if p.order != order:
            raise ValueError("polynomial built over a different variable order")
        v = p.main_variable()
        if v is None:
            raise ConstantMemberError(f"constant member '{p}' is not allowed")
        if v in by_mvar:
            raise DuplicateMainVariableError(order[v])
        by_mvar[v] = p
    algebraic = frozenset(by_mvar)
    free = frozenset(range(len(order))) - algebraic
    sorted_polys = tuple(by_mvar[v] for v in sorted(by_mvar))
    return TriangularSystem(sorted_polys, order, algebraic, free)


@dataclass(eq=False)
class WhitneyPartition:
    """Constraints and variables split for reduced-dimension descent.

    ``g_star`` involves retained variables only and cuts out the reduced
    manifold; ``g_circ[j]`` has main variable ``eliminated[j]`` and involves
    eliminated variables no later than the j-th, so the eliminated block can
    be solved one variable at a time.
    """

    system: TriangularSystem
    eliminated: tuple[int, ...]
    retained: tuple[int, ...]
    g_star: tuple[Polynomial, ...]
    g_circ: tuple[Polynomial, ...]

    @property
    def order(self) -> VariableOrder:
        return self.system.order

    @property
    def reduced_dim(self) -> int:
        return len(self.retained)

    @property
    def manifold_dim(self) -> int:
        return self.reduced_dim - len(self.g_star)

    def retained_names(self) -> tuple[str, ...]:
        return tuple(self.order[v] for v in self.retained)

    @cached_property
    def compiled(self) -> CompiledSystem:
        """The float form of this partition, built on first use."""
        return CompiledSystem(self)


class CompiledSystem:
    """Float term tables for a partition's constraints and their derivatives.

    Descent evaluates small polynomials millions of times; going through the
    exact-rational term maps each time is needless overhead, so every float
    evaluation of a partition reads these tables with plain Python floats.
    ``residuals``, ``jacobian`` and ``hessians`` take reduced coordinates
    (one value per retained variable); ``stage_coeffs`` and ``stage_roots``
    take an ambient point.  ``hessians`` evaluates only the nonzero second
    partials, whose tables are compiled on first use.

    Each set of tables (the residuals, the Jacobian, the Hessians, each
    stage's coefficients and each planned stage's constant coefficient) is
    evaluated by its own :func:`evaluator`, which generates code for it at
    its 50th call, so set-up generates none.  On the first lift, a stage
    whose coefficients above power 0 are constants, with a finite nonzero
    lead, gets a :class:`RootPlan`, so each of its root solves evaluates
    only its constant coefficient.
    """

    def __init__(self, part: WhitneyPartition):
        self._retained = part.retained
        self._red_of = {v: i for i, v in enumerate(part.retained)}
        # values of the retained constraints, at reduced coordinates
        self.residuals = evaluator([p.compile(self._red_of) for p in part.g_star])
        # exact first partials, kept to derive the Hessian tables from
        self._partials = [[p.derivative(v) for v in part.retained] for p in part.g_star]
        self._jac = evaluator(
            [dp.compile(self._red_of) for row in self._partials for dp in row]
        )
        # stage j: one table per power of eliminated[j], grouping that power's
        # terms in term order so each coefficient sums as the polynomial does;
        # eliminated[j] is the main variable, so a term's factor in it is last
        self._stages: list[list[Terms]] = []
        for y, p in zip(part.eliminated, part.g_circ):
            tables: list[Terms] = [[] for _ in range(p.degree_in(y) + 1)]
            for c, facs in p.compile():
                e = facs[-1][1] if facs and facs[-1][0] == y else 0
                tables[e].append((c, facs[:-1] if e else facs))
            self._stages.append(tables)
        self._stage_coeffs = [evaluator(tables) for tables in self._stages]

    @cached_property
    def _hess(self) -> tuple[list[tuple[int, int, int]], Callable]:
        # (c, a, b) of each nonzero d2 g_c / dv_a dv_b with b >= a, and the
        # evaluator of their tables
        slots, tables = [], []
        for c, row in enumerate(self._partials):
            for a, da in enumerate(row):
                for b, vb in enumerate(self._retained[a:], a):
                    if t := da.derivative(vb).compile(self._red_of):
                        slots.append((c, a, b))
                        tables.append(t)
        return slots, evaluator(tables)

    def jacobian(self, vals) -> np.ndarray:
        """Retained-constraint Jacobian, one row per constraint."""
        return np.array(self._jac(vals)).reshape(len(self._partials), len(self._retained))

    def hessians(self, vals) -> np.ndarray:
        """H[c, a, b]: second partials of retained constraint c."""
        d = len(self._retained)
        H = np.zeros((len(self._partials), d, d))
        slots, evaluate = self._hess
        for (c, a, b), h in zip(slots, evaluate(vals)):
            H[c, a, b] = H[c, b, a] = h
        return H

    def stage_coeffs(self, j: int, vals) -> list[float]:
        """Coefficients of ``g_circ[j]`` in ``eliminated[j]``, lowest power first."""
        return self._stage_coeffs[j](vals)

    @cached_property
    def _plans(self) -> list[tuple[RootPlan, Callable] | None]:
        # (plan, evaluator of the constant coefficient) of each stage whose
        # tables above power 0 hold no factors and whose lead is finite and
        # nonzero
        plans: list[tuple[RootPlan, Callable] | None] = [None] * len(self._stages)
        for j, tables in enumerate(self._stages):
            if all(not facs for t in tables[1:] for _, facs in t):
                tail = evaluator(tables[1:])(())
                if math.isfinite(tail[-1]) and tail[-1] != 0.0:
                    plans[j] = RootPlan(tail), evaluator(tables[:1])
        return plans

    def stage_roots(self, j: int, vals, guess: float = math.nan) -> list[float] | None:
        """``real_roots(self.stage_coeffs(j, vals), guess)``, bit for bit.

        A planned stage evaluates only its constant coefficient and hands it
        to its :class:`RootPlan`, which is what :func:`real_roots` runs too.
        """
        plan = self._plans[j]
        if plan is None:
            return real_roots(self.stage_coeffs(j, vals), guess)
        root_plan, c0 = plan
        return root_plan.roots(c0(vals)[0], guess)


def _real_root_guaranteed(p: Polynomial) -> bool:
    # odd degree with a constant leading coefficient has a real root for
    # every value of the other variables, and degree one has exactly one
    # wherever its initial is nonzero.  Higher odd degree may have several
    # (z^3 - 3*z - x has three at x = 0.8); the lift's warm start picks one.
    initial, d, _, _, _ = p.decompose()
    if d == 1:
        return True
    return d % 2 == 1 and initial.is_constant


def whitney_partition(
    sys: TriangularSystem, eliminate: Sequence[int] | str = AUTO
) -> WhitneyPartition:
    """Split ``sys`` into retained constraints and an eliminated cascade.

    ``eliminate`` lists algebraic variable indices in the order their
    constraints will be solved during the lift.  With ``AUTO`` the
    greatest-ranked algebraic variables are peeled off while the reduced
    dimension stays above ``min(2m + 1, n_vars)`` and the candidate
    constraint is guaranteed a real root (degree one, or odd degree with
    constant leading coefficient).  Odd degree above one may have several
    real roots; the lift then takes the one nearest its warm start.
    """
    by_mvar = {p.main_variable(): p for p in sys.polynomials}
    n = len(sys.order)
    m = sys.manifold_dim

    if isinstance(eliminate, str):
        if eliminate != AUTO:
            raise ValueError(f"unknown elimination mode '{eliminate}'")
        target = min(2 * m + 1, n)
        chosen: list[int] = []
        for v in sorted(sys.algebraic_vars, reverse=True):
            if n - len(chosen) <= target or not _real_root_guaranteed(by_mvar[v]):
                break
            chosen.append(v)
        eliminated = tuple(sorted(chosen))
    else:
        eliminated = tuple(eliminate)
        seen: set[int] = set()
        for v in eliminated:
            if not 0 <= v < n:
                raise ValueError(f"variable index {v} out of range")
            if v in seen:
                raise NotEliminableError(
                    f"variable '{sys.order[v]}' listed twice in eliminate"
                )
            seen.add(v)
            if v not in sys.algebraic_vars:
                raise NotEliminableError(
                    f"variable '{sys.order[v]}' is free; only algebraic "
                    "variables can be eliminated"
                )

    elim_set = set(eliminated)
    g_circ = tuple(by_mvar[v] for v in eliminated)
    g_star = tuple(
        p for p in sys.polynomials if p.main_variable() not in elim_set
    )
    if not g_star:
        raise EmptyReducedSystemError(
            "all constraints eliminated; nothing left to descend on"
        )
    retained = tuple(v for v in range(n) if v not in elim_set)

    for p in g_star:
        bad = p.variables() & elim_set
        if bad:
            name = sys.order[min(bad)]
            raise NotEliminableError(
                f"retained constraint '{p}' still involves eliminated "
                f"variable '{name}'"
            )
    for j, p in enumerate(g_circ):
        later = p.variables() & set(eliminated[j + 1 :])
        if later:
            name = sys.order[min(later)]
            raise NotEliminableError(
                f"eliminated constraint '{p}' involves '{name}', which is "
                "solved later in the elimination order"
            )

    return WhitneyPartition(sys, eliminated, retained, g_star, g_circ)


# -- the linear special case -------------------------------------------------


@dataclass
class LinearTriangularForm:
    """Row-triangularized linear constraints split into solve stages.

    ``r`` and ``qtb`` are R and Q^T b from a QR factorization of the original
    k x (m + k) ``A``.  Split at row and column ``split`` and column k, they
    hold the blocks A11 ... A23 and b1, b2: solving ``[A22 A23][x; u] = b2``
    walks the reduced manifold and solving
    ``A11 y = b1 - A12 x - A13 u`` recovers the full point.
    """

    r: np.ndarray
    qtb: np.ndarray
    split: int

    def solve_reduced(self, u: np.ndarray) -> np.ndarray:
        """x such that [A22 A23][x; u] = b2, for a freely chosen u."""
        u = np.asarray(u, dtype=float)
        s, k, r = self.split, self.r.shape[0], self.r
        return np.linalg.solve(r[s:, s:k], self.qtb[s:] - r[s:, k:] @ u)

    def recover(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Full point z = [y x u] with y solved from the top block."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        s, k, r = self.split, self.r.shape[0], self.r
        y = np.linalg.solve(r[:s, :s], self.qtb[:s] - r[:s, s:k] @ x - r[:s, k:] @ u)
        return np.concatenate([y, x, u])


def linear_whitney(A: np.ndarray, b: np.ndarray, m: int) -> LinearTriangularForm:
    """Triangularize the linear system ``A z = b`` into the two-stage form.

    ``A`` must be k x (m + k) with full row rank and k > m + 1, so the
    variable blocks are y (k - m - 1), x (m + 1) and u (m).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    k = A.shape[0]
    if m < 0:
        raise ValueError("m must be nonnegative")
    if A.shape[1] != m + k:
        raise ValueError(f"A must be k x (m + k); got {A.shape} with m={m}")
    if k <= m + 1:
        raise ValueError(f"need k > m + 1; got k={k}, m={m}")
    if b.shape != (k,):
        raise ValueError("b must have one entry per row of A")

    q, r = np.linalg.qr(A)
    diag = np.abs(np.diagonal(r))
    tol = max(A.shape) * np.finfo(float).eps * diag.max()
    if diag.min() <= tol:
        raise RankDeficientError(
            "triangularization failed: A is rank deficient (or a leading "
            "column block is singular in this variable order)"
        )
    return LinearTriangularForm(r, q.T @ b, k - m - 1)
