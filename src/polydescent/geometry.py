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

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from .polynomials import Polynomial, eval_terms
from .triangular import WhitneyPartition


class NotRegularError(Exception):
    """The constraint Jacobian lost rank; the point is not on a regular level set."""


class LiftError(Exception):
    """The implicit-function lift failed at a reduced point (cause: ``prefix``)."""

    prefix = "lift failed"

    def __init__(self, stage: int, var_name: str, detail: str):
        super().__init__(
            f"{self.prefix} for eliminated variable '{var_name}' "
            f"(stage {stage}): {detail}"
        )
        self.stage = stage
        self.var_name = var_name


class NoRealRootError(LiftError):
    """An eliminated constraint has no real solution at this point."""

    prefix = "no real root"


class AmbiguousRootError(LiftError):
    """Two real roots are equidistant from the warm start; the lift is not unique."""

    prefix = "ambiguous root"


@dataclass(frozen=True)
class ProjectionConfig:
    """Tolerances and limits of the projection iteration."""

    residual_tol: float = 1e-10
    max_iters: int = 50
    oracle_radius: float = 0.5

    def __post_init__(self):
        if not (self.residual_tol > 0 and self.max_iters > 0 and self.oracle_radius > 0):
            raise ValueError("all projection parameters must be positive")


DEFAULT_PROJECTION = ProjectionConfig()


@dataclass(frozen=True)
class TangentFrame:
    """Tangent data at an on-manifold base point.

    ``U`` has orthonormal columns spanning the null space of the retained
    Jacobian at ``base``; ``N`` is the pseudoinverse of that Jacobian.  The
    frame is immutable and safe to share.
    """

    partition: WhitneyPartition
    base: np.ndarray
    U: np.ndarray
    N: np.ndarray


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
    cutoff = max(J.shape) * np.finfo(float).eps * s[0]
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
    return TangentFrame(part, base, null, pinv)


# -- projection (the oracle) --------------------------------------------------


def project_to_manifold(
    frame: TangentFrame, w, cfg: ProjectionConfig = DEFAULT_PROJECTION
) -> np.ndarray | None:
    """Project the tangent displacement ``w`` back onto the reduced manifold.

    Starting from ``q0 = base + U w``, iterates ``q <- q - N g*(q)`` with the
    pseudoinverse frozen at the base point.  Returns the on-manifold point,
    or None when ``w``, ``q0`` or a residual is not finite or overflows, the
    iteration leaves the ``oracle_radius`` ball around ``q0``, its residual
    exceeds 1e6 times its first value, or it fails to meet ``residual_tol``
    within ``max_iters`` updates.  None is the oracle saying the implicit
    function theorem stopped holding out here, and the caller re-bases.
    """
    compiled_residuals = frame.partition.compiled.residuals
    if not all(map(math.isfinite, w)):
        return None  # before numpy warns of it in the product
    q0 = (frame.base + frame.U @ np.asarray(w, dtype=float)).tolist()
    if not all(map(math.isfinite, q0)):
        return None
    q = list(q0)
    n_rows = frame.N.tolist()
    radius_sq = cfg.oracle_radius * cfg.oracle_radius
    r_init = None
    try:
        for n in range(cfg.max_iters + 1):
            g = compiled_residuals(q)
            if not all(map(math.isfinite, g)):
                return None
            r = max(map(abs, g))
            if r <= cfg.residual_tol:
                return np.array(q)
            if r_init is None:
                r_init = r
            elif r > 1e6 * r_init:
                return None
            if sum([(a - b) ** 2 for a, b in zip(q, q0)]) > radius_sq:
                return None
            if n == cfg.max_iters:
                return None
            q = [qi - sum(map(mul, row, g)) for qi, row in zip(q, n_rows)]
    except OverflowError:
        pass  # a residual or the distance from q0 left the float range
    return None


# -- univariate real roots for the lift ---------------------------------------


def _horner(coeffs: list[float], y: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _bracketed_newton(
    coeffs: list[float], dcoeffs: list[float], lo: float, hi: float, fhi_pos: bool
) -> float:
    """The root in (lo, hi); the polynomial is positive at ``hi`` iff ``fhi_pos``.

    Newton steps are taken while they stay inside the bracket, falling back
    to bisection otherwise; the bracket shrinks every iteration.  Stops on an
    exact zero, on a Newton step below 2e-16 relative, or once no float lies
    strictly inside the bracket, so there is no iteration cap to run into.
    """
    x = 0.5 * (lo + hi)
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
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return x


def _real_roots(coeffs: list[float]) -> list[float] | None:
    """All real roots of odd multiplicity, ascending; None if identically zero.

    The polynomial is monotone between consecutive real roots of its
    derivative, so those roots (found by recursion down to the linear closed
    form), closed at both ends by Fujiwara's root bound, cut the line into
    intervals holding at most one root each.  Every interval whose ends
    differ in sign is closed with :func:`_bracketed_newton`.  Roots of even
    multiplicity produce no sign change and are found only where the value
    at a critical point is exactly zero; at such points the implicit function
    theorem fails anyway.
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

    # Fujiwara's bound; each |c_i / c_d|^(1/(d-i)) is a ratio of roots so it
    # cannot overflow where the root is representable (a loop: this is hot)
    lead = abs(coeffs[d])
    ratio = 0.0
    for i in range(d):
        k = 1.0 / (d - i)
        r = abs(coeffs[i]) ** k / lead ** k
        if r > ratio:
            ratio = r
    bound = 1.0 + 2.0 * ratio
    dcoeffs = [coeffs[e] * e for e in range(1, d + 1)]
    knots = [-bound, *_critical_points(tuple(dcoeffs)), bound]
    vals = [_horner(coeffs, x) for x in knots]
    roots = [x for x, f in zip(knots, vals) if f == 0.0]
    for lo, hi, flo, fhi in zip(knots, knots[1:], vals, vals[1:]):
        if flo < 0.0 < fhi or fhi < 0.0 < flo:
            roots.append(_bracketed_newton(coeffs, dcoeffs, lo, hi, fhi > 0.0))
    return sorted(roots)


@lru_cache(maxsize=256)
def _critical_points(dcoeffs: tuple[float, ...]) -> tuple[float, ...]:
    # a stage's derivative is often the same at every point (y^5 + c has
    # 5*y^4 everywhere), so its roots are worth remembering
    return tuple(_real_roots(list(dcoeffs)))


# -- the lift ------------------------------------------------------------------


def _lift_values(part: WhitneyPartition, p, warm) -> list[float]:
    compiled = part.compiled
    if warm is None:
        vals = [0.0] * len(part.order)
    else:
        vals = np.asarray(warm, dtype=float).tolist()
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
            if not all(map(math.isfinite, coeffs)):
                raise OverflowError(f"lift stage {j} ({name}) has coefficients {coeffs}")
            raise NoRealRootError(
                j,
                name,
                f"'{part.g_circ[j]}' has coefficients {coeffs} in {name}",
            )
        guess = vals[yvar]
        roots.sort(key=lambda r: abs(r - guess))
        if len(roots) > 1 and abs(abs(roots[0] - guess) - abs(roots[1] - guess)) < 1e-9:
            raise AmbiguousRootError(
                j,
                name,
                f"roots {roots[0]} and {roots[1]} are equidistant from "
                f"warm start {guess}",
            )
        vals[yvar] = roots[0]
        if not math.isfinite(roots[0]):
            raise OverflowError(f"lift stage {j} ({name}) has root {roots[0]}")
    return vals


def lift(part: WhitneyPartition, p, warm=None) -> np.ndarray:
    """Recover the ambient point over reduced coordinates ``p``.

    The eliminated constraints are solved in elimination order; each is
    univariate once the retained coordinates and the previously solved
    values are substituted.  ``warm`` is an ambient point, typically the
    lift the caller accepted; among multiple real roots each stage takes the
    one nearest the warm start's value of its variable (nearest zero without
    one).  Roots are polished to float precision.  Raises
    :class:`NoRealRootError` / :class:`AmbiguousRootError`,
    ``OverflowError`` when a stage's chosen root is not finite or a stage
    with no real root has a coefficient that is not finite, and
    ``ValueError`` when ``p`` or ``warm`` has the wrong length.
    """
    _check_length(p, part.reduced_dim, "reduced point")
    if warm is not None:
        _check_length(warm, len(part.order), "warm start")
    return np.array(_lift_values(part, p, warm))


class PulledBackObjective:
    """An ambient objective composed with the lift.

    ``ftilde(p, warm)`` lifts reduced coordinates ``p`` as ``lift`` does,
    each stage taking the root nearest the ambient point ``warm``, and
    returns ``(value, ambient)``.  It keeps no state: a caller stays on one
    sheet by passing the lift it accepted.  Raises
    :class:`LiftError` when the lift fails and ``OverflowError`` when a
    power leaves the float range.
    """

    def __init__(self, objective, part: WhitneyPartition):
        self.partition = part
        if isinstance(objective, Polynomial):
            if objective.order != part.order:
                raise ValueError("objective uses a different variable order")
            terms = objective.compile()
            self._fn = lambda vals: eval_terms(terms, vals)
        else:
            self._fn = lambda vals: float(objective(np.array(vals)))

    def __call__(self, p, warm=None) -> tuple[float, np.ndarray]:
        vals = _lift_values(self.partition, p, warm)
        return self._fn(vals), np.array(vals)
