"""Floating-point geometry on the reduced manifold and its ambient parent.

Coordinates on the reduced manifold are vectors indexed by
``WhitneyPartition.retained``; ambient points are vectors over the full
variable order.  Three mechanisms live here:

* tangent frames: an orthonormal null-space basis of the retained-constraint
  Jacobian plus its Moore-Penrose pseudoinverse, both from one SVD;
* projection: the chord iteration ``q <- q - N g*(q)`` that pulls a tangent
  vector back onto the manifold, doubling as the failure oracle for the
  region where the implicit function theorem holds around the base point;
* the lift: solving the eliminated constraints one variable at a time to
  recover the ambient point over a reduced one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polynomials import Polynomial, eval_terms
from .triangular import WhitneyPartition


class NotRegularError(Exception):
    """The constraint Jacobian lost rank; the point is not on a regular level set."""


class LiftError(Exception):
    """The implicit-function lift failed at a reduced point."""


class NoRealRootError(LiftError):
    """An eliminated constraint has no real solution at this point."""

    def __init__(self, stage: int, var_name: str, detail: str):
        super().__init__(
            f"no real root for eliminated variable '{var_name}' "
            f"(stage {stage}): {detail}"
        )
        self.stage = stage
        self.var_name = var_name


class AmbiguousRootError(LiftError):
    """Two real roots are equidistant from the warm start; the lift is not unique."""

    def __init__(self, stage: int, var_name: str, detail: str):
        super().__init__(
            f"ambiguous root for eliminated variable '{var_name}' "
            f"(stage {stage}): {detail}"
        )
        self.stage = stage
        self.var_name = var_name


@dataclass(frozen=True)
class ProjectionConfig:
    """Tolerances and limits of the projection iteration."""

    residual_tol: float = 1e-10
    max_iters: int = 50
    oracle_radius: float = 0.5
    divergence_factor: float = 1e6

    def __post_init__(self):
        if not (
            self.residual_tol > 0
            and self.max_iters > 0
            and self.oracle_radius > 0
            and self.divergence_factor > 0
        ):
            raise ValueError("all projection parameters must be positive")


DEFAULT_PROJECTION = ProjectionConfig()


@dataclass(frozen=True)
class TangentFrame:
    """Tangent data at an on-manifold base point.

    ``U`` has orthonormal columns spanning the null space of the retained
    Jacobian ``J`` at ``base``; ``N`` is the pseudoinverse of ``J``.  The
    frame is immutable and safe to share.
    """

    partition: WhitneyPartition
    base: np.ndarray
    U: np.ndarray
    N: np.ndarray
    J: np.ndarray


# -- Jacobians and tangent frames --------------------------------------------


def _check_length(p, n: int, what: str):
    if len(p) != n:
        raise ValueError(f"{what} has {len(p)} coordinates, expected {n}")


def residuals(part: WhitneyPartition, p) -> np.ndarray:
    """Values of the retained constraints at reduced coordinates ``p``."""
    _check_length(p, part.reduced_dim, "reduced point")
    return np.array(part.compiled.residuals([float(v) for v in p]))


def jacobian(part: WhitneyPartition, p) -> np.ndarray:
    """Retained-constraint Jacobian at ``p``, one row per constraint."""
    _check_length(p, part.reduced_dim, "reduced point")
    return part.compiled.jacobian([float(v) for v in p])


def regular_pinv(part: WhitneyPartition, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jacobian, pseudoinverse, orthonormal null basis) at ``p``, from one SVD.

    Singular values at or below ``max(J.shape) * eps * s_max`` count as zero.
    Raises :class:`NotRegularError` when the Jacobian's numerical rank is
    below the number of retained constraints.
    """
    J = jacobian(part, p)
    u, s, vt = np.linalg.svd(J, full_matrices=True)
    smax = s[0] if s.size else 0.0
    cutoff = max(J.shape) * np.finfo(float).eps * smax
    rank = int(np.sum(s > cutoff))
    if rank < len(part.g_star):
        raise NotRegularError(
            f"Jacobian rank {rank} < {len(part.g_star)} at {np.asarray(p).tolist()}"
        )
    pinv = vt[:rank].T @ ((u[:, :rank] / s[:rank]).T)
    return J, pinv, vt[rank:].T


def tangent_frame(part: WhitneyPartition, p) -> TangentFrame:
    """Orthonormal tangent basis and Jacobian pseudoinverse at ``p``.

    Raises :class:`NotRegularError` when the Jacobian's numerical rank is
    below the number of retained constraints.
    """
    base = np.asarray(p, dtype=float).copy()
    J, pinv, null = regular_pinv(part, base)
    if null.size:
        m = null.shape[1]
        orth = float(np.max(np.abs(null.T @ null - np.eye(m))))
        tang = float(np.max(np.abs(J @ null)))
        if orth > 1e-12 or tang > 1e-10 * (1.0 + float(np.max(np.abs(J)))):
            raise RuntimeError(
                f"tangent frame failed its invariants (orth {orth:.2e}, "
                f"tangency {tang:.2e})"
            )
    return TangentFrame(part, base, null, pinv, J)


# -- projection (the oracle) --------------------------------------------------


def project_to_manifold(
    frame: TangentFrame, w, cfg: ProjectionConfig = DEFAULT_PROJECTION
) -> np.ndarray | None:
    """Project the tangent displacement ``w`` back onto the reduced manifold.

    Starting from ``q0 = base + U w``, iterates ``q <- q - N g*(q)`` with the
    pseudoinverse frozen at the base point.  Returns the on-manifold point,
    or None when the iteration leaves the ``oracle_radius`` ball around
    ``q0``, blows up its residual by ``divergence_factor``, or fails to meet
    ``residual_tol`` within ``max_iters`` updates.  None is the oracle
    saying the implicit function theorem stopped holding out here.
    """
    compiled_residuals = frame.partition.compiled.residuals
    w = np.asarray(w, dtype=float)
    q0 = (frame.base + frame.U @ w).tolist()
    q = list(q0)
    n_rows = frame.N.tolist()
    radius_sq = cfg.oracle_radius * cfg.oracle_radius
    r_init = None
    for n in range(cfg.max_iters + 1):
        g = compiled_residuals(q)
        r = max(abs(v) for v in g)
        if r <= cfg.residual_tol:
            return np.array(q)
        if r_init is None:
            r_init = r
        elif r > cfg.divergence_factor * r_init:
            return None
        if sum((a - b) ** 2 for a, b in zip(q, q0)) > radius_sq:
            return None
        if n == cfg.max_iters:
            return None
        q = [
            qi - sum(nc * gc for nc, gc in zip(row, g))
            for qi, row in zip(q, n_rows)
        ]
    return None


# -- univariate real roots for the lift ---------------------------------------


def _unit_grid(ratio: float = 1.25, floor: float = 1e-13) -> np.ndarray:
    pts = [1.0]
    while pts[-1] > floor:
        pts.append(pts[-1] / ratio)
    pos = np.array(pts[::-1])
    return np.concatenate([-pos[::-1], [0.0], pos])


_UNIT_GRID = _unit_grid()


def _horner(coeffs: list[float], y: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _bracketed_newton(
    coeffs: list[float], dcoeffs: list[float], lo: float, hi: float, fhi_pos: bool
) -> float:
    """One root in (lo, hi) with opposite signs at the ends.

    Newton steps are taken while they stay inside the bracket, falling back
    to bisection otherwise; the bracket shrinks every iteration.
    """
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f = _horner(coeffs, x)
        if f == 0.0:
            return x
        if (f > 0.0) == fhi_pos:
            hi = x
        else:
            lo = x
        df = _horner(dcoeffs, x)
        if df != 0.0:
            xn = x - f / df
            if not (lo < xn < hi):
                xn = 0.5 * (lo + hi)
        else:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 2e-16 * (1.0 + abs(xn)):
            return xn
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        x = xn
    return x


def _real_roots(coeffs: list[float]) -> list[float] | None:
    """All bracketable real roots, ascending; None if identically zero.

    Sign changes are located on a geometric grid scaled to the Cauchy root
    bound, then each bracket is closed with safeguarded Newton.  Roots of
    even multiplicity produce no sign change and are not found; at such
    points the implicit function theorem fails anyway.
    """
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
    bound = 1.0 + max(abs(c) for c in coeffs[:d]) / lead
    xs = bound * _UNIT_GRID
    vals = np.full_like(xs, coeffs[d])
    for e in range(d - 1, -1, -1):
        vals = vals * xs + coeffs[e]

    roots = [float(x) for x in xs[vals == 0.0]]
    dcoeffs = [coeffs[e] * e for e in range(1, d + 1)]
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    for i in flips:
        roots.append(
            _bracketed_newton(
                coeffs, dcoeffs, float(xs[i]), float(xs[i + 1]), vals[i + 1] > 0
            )
        )
    return sorted(roots)


# -- the lift ------------------------------------------------------------------


def _lift_values(
    part: WhitneyPartition, p, warm: list[float] | None
) -> list[float]:
    compiled = part.compiled
    vals = [0.0] * len(part.order)
    for i, v in zip(part.retained, p):
        vals[i] = float(v)
    for j, yvar in enumerate(part.eliminated):
        coeffs = compiled.stage_coeffs(j, vals)
        name = part.order[yvar]
        roots = _real_roots(coeffs)
        if roots is None:
            raise AmbiguousRootError(
                j, name, "constraint vanishes identically at this point"
            )
        if not roots:
            raise NoRealRootError(
                j,
                name,
                f"'{part.g_circ[j]}' has coefficients {coeffs} in {name}",
            )
        guess = warm[j] if warm is not None else 0.0
        roots.sort(key=lambda r: abs(r - guess))
        if len(roots) > 1 and abs(abs(roots[0] - guess) - abs(roots[1] - guess)) < 1e-9:
            raise AmbiguousRootError(
                j,
                name,
                f"roots {roots[0]} and {roots[1]} are equidistant from "
                f"warm start {guess}",
            )
        vals[yvar] = roots[0]
    return vals


def lift(part: WhitneyPartition, p, warm=None) -> np.ndarray:
    """Recover the ambient point over reduced coordinates ``p``.

    The eliminated constraints are solved in elimination order; each is
    univariate once the retained coordinates and the previously solved
    values are substituted.  Among multiple real roots the one nearest the
    warm start is taken (nearest zero without one).  Roots are polished to
    float precision.  Raises :class:`NoRealRootError` /
    :class:`AmbiguousRootError`, and ``ValueError`` when ``p`` or ``warm``
    has the wrong length.
    """
    _check_length(p, part.reduced_dim, "reduced point")
    if warm is not None:
        _check_length(warm, len(part.eliminated), "warm start")
        warm = [float(v) for v in warm]
    return np.array(_lift_values(part, p, warm))


class PulledBackObjective:
    """An ambient objective composed with the lift.

    Calling it at reduced coordinates lifts, evaluates and caches the lifted
    eliminated values as the warm start for the next call, so successive
    evaluations along a descent path track the same sheet.  Not safe to
    share across concurrent descent runs; give each its own instance.
    """

    def __init__(self, objective, part: WhitneyPartition):
        self.partition = part
        self.last_ambient: np.ndarray | None = None
        self._warm: list[float] | None = None
        if isinstance(objective, Polynomial):
            if objective.order != part.order:
                raise ValueError("objective uses a different variable order")
            terms = objective.compile()
            self._fn = lambda vals: eval_terms(terms, vals)
        else:
            self._fn = lambda vals: float(objective(np.array(vals)))

    def __call__(self, p) -> float:
        vals = _lift_values(self.partition, p, self._warm)
        self._warm = [vals[v] for v in self.partition.eliminated]
        self.last_ambient = np.array(vals)
        return self._fn(vals)

    @property
    def warm(self) -> list[float] | None:
        return list(self._warm) if self._warm is not None else None


def pullback_objective(objective, part: WhitneyPartition) -> PulledBackObjective:
    """Compose an ambient objective (Polynomial or callable) with the lift."""
    return PulledBackObjective(objective, part)
