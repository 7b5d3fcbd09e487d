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
import sys
from dataclasses import dataclass

import numpy as np

from .polynomials import Polynomial, evaluator, matvec
from .triangular import WhitneyPartition, integer


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
        integer(self.max_iters, "max_iters", 1)
        if not (self.oracle_radius > 0 and 0 < self.residual_tol <= sys.float_info.max):
            raise ValueError("all projection parameters must be positive, residual_tol finite")


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


def _check_finite(p, what: str):
    if not all(map(math.isfinite, p)):
        raise ValueError(f"{what} has a coordinate that is not finite")


def residuals(part: WhitneyPartition, p) -> np.ndarray:
    """Values of the retained constraints at reduced coordinates ``p``."""
    _check_length(p, part.reduced_dim, "reduced point")
    return np.array(part.compiled.residuals([float(v) for v in p]))


def residual_norm(part: WhitneyPartition, p) -> float:
    """Largest absolute retained residual at ``p``; inf or nan past the float range."""
    return float(np.max(np.abs(residuals(part, p))))


def jacobian(part: WhitneyPartition, p) -> np.ndarray:
    """Retained-constraint Jacobian at ``p``, one row per constraint."""
    _check_length(p, part.reduced_dim, "reduced point")
    return part.compiled.jacobian([float(v) for v in p])


def regular_pinv(part: WhitneyPartition, p) -> tuple[np.ndarray, np.ndarray]:
    """(pseudoinverse, orthonormal null basis) of the Jacobian at ``p``, from one SVD.

    Singular values at or below ``max(J.shape) * eps * s_max`` count as zero.
    Raises :class:`NotRegularError` when the Jacobian is not finite or its
    numerical rank is below the number of retained constraints.
    """
    J = jacobian(part, p)
    if not all(map(math.isfinite, J.ravel().tolist())):
        raise NotRegularError(f"Jacobian at {np.asarray(p).tolist()} is not finite")
    u, s, vt = np.linalg.svd(J, full_matrices=True)
    cutoff = max(J.shape) * np.finfo(float).eps * s[0]
    rank = int(np.sum(s > cutoff))
    if rank < len(part.g_star):
        raise NotRegularError(
            f"Jacobian rank {rank} < {len(part.g_star)} at {np.asarray(p).tolist()}"
        )
    pinv = vt[:rank].T @ ((u[:, :rank] / s[:rank]).T)
    return pinv, vt[rank:].T


def tangent_frame(part: WhitneyPartition, p) -> TangentFrame:
    """Orthonormal tangent basis and Jacobian pseudoinverse at ``p``.

    Raises :class:`NotRegularError` when the Jacobian is not finite or its
    numerical rank is below the number of retained constraints.
    """
    base = np.asarray(p, dtype=float).copy()
    pinv, null = regular_pinv(part, base)
    return TangentFrame(part, base, null, pinv)


# -- projection (the oracle) --------------------------------------------------


def project_to_manifold(
    frame: TangentFrame, w, cfg: ProjectionConfig = DEFAULT_PROJECTION, start=None
) -> np.ndarray | None:
    """Project the tangent displacement ``w`` back onto the reduced manifold.

    Iterates ``q <- q - N g*(q)`` with the pseudoinverse frozen at the base
    point, from ``start`` or, without one, from ``q0 = base + U w``; each
    product ``N g*`` is :func:`~polydescent.polynomials.matvec`'s left fold,
    the same on every interpreter.  The
    iteration moves only within ``q0 + range(N)``, so its fixed point is the
    manifold point in that affine set; a start in the same set (the accepted
    point ``p`` plus ``U (w - w_p)``) aims at the same point from nearer.
    Returns the on-manifold point, or None when ``w``, ``q0``, ``start`` or
    a residual is not finite, the iteration leaves the
    ``oracle_radius`` ball around ``q0``, its residual exceeds 1e6 times the
    first residual it evaluates (the one at its start), or it fails to meet
    ``residual_tol`` within ``max_iters`` updates (at once when an update
    leaves ``q`` unchanged under ``==``, as every later one would).  None
    is the oracle saying the implicit function theorem stopped holding out
    here, and the caller re-bases.
    """
    compiled_residuals = frame.partition.compiled.residuals
    if not all(map(math.isfinite, w)):
        return None  # before numpy warns of it in the product
    q0 = (frame.base + frame.U @ np.asarray(w, dtype=float)).tolist()
    if start is None:
        q = q0
    else:
        _check_length(start, len(q0), "projection start")
        q = np.asarray(start, dtype=float).tolist()
    if not all(map(math.isfinite, q0)) or not all(map(math.isfinite, q)):
        return None
    chord = matvec(*frame.N.shape)
    n_flat = frame.N.ravel().tolist()
    r_init = None
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
        if math.dist(q, q0) > cfg.oracle_radius:
            return None
        if n == cfg.max_iters:
            return None
        q_next = [qi - s for qi, s in zip(q, chord(n_flat + g))]
        if q_next == q:
            return None  # rounding holds q still; the updates left would too
        q = q_next


# -- the lift ------------------------------------------------------------------


def _nearest_root(part: WhitneyPartition, j: int, vals, roots, guess: float) -> float:
    # a stage with no root, several or a vanishing constraint
    name = part.order[part.eliminated[j]]
    if roots is None:
        raise AmbiguousRootError(j, name, "constraint vanishes identically at this point")
    if not roots:
        coeffs = part.compiled.stage_coeffs(j, vals)
        if not all(map(math.isfinite, coeffs)):
            raise OverflowError(f"lift stage {j} ({name}) has coefficients {coeffs}")
        raise NoRealRootError(
            j,
            name,
            f"'{part.g_circ[j]}' has coefficients {coeffs} in {name}",
        )
    roots.sort(key=lambda r: abs(r - guess))
    if abs(abs(roots[0] - guess) - abs(roots[1] - guess)) < 1e-9:
        raise AmbiguousRootError(
            j,
            name,
            f"roots {roots[0]} and {roots[1]} are equidistant from warm start {guess}",
        )
    return roots[0]


def _lift_values(part: WhitneyPartition, p, warm) -> list[float]:
    _check_length(p, part.reduced_dim, "reduced point")
    _check_finite(p, "reduced point")
    if warm is None:
        vals = [0.0] * len(part.order)
    else:
        _check_length(warm, len(part.order), "warm start")
        vals = np.asarray(warm, dtype=float).tolist()
        _check_finite(vals, "warm start")
    for i, v in zip(part.retained, p):
        vals[i] = float(v)
    stage_roots = part.compiled.stage_roots
    for j, yvar in enumerate(part.eliminated):
        guess = vals[yvar]
        roots = stage_roots(j, vals, guess)
        if roots is not None and len(roots) == 1:
            root = roots[0]  # the common case: no choice to make
        else:
            root = _nearest_root(part, j, vals, roots, guess)
        if not math.isfinite(root):
            raise OverflowError(f"lift stage {j} ({part.order[yvar]}) has root {root}")
        vals[yvar] = root
    return vals


def lift(part: WhitneyPartition, p, warm=None) -> np.ndarray:
    """Recover the ambient point over reduced coordinates ``p``.

    The eliminated constraints are solved in elimination order; each is
    univariate once the retained coordinates and the previously solved
    values are substituted.  ``warm`` is an ambient point, typically the
    lift the caller accepted; among multiple real roots each stage takes the
    one nearest the warm start's value of its variable (nearest zero without
    one), and Newton's polish starts from that value where it lies inside a
    root's bracket.  Roots are polished to float precision; re-lifting a
    lift from itself returns it unless a stage's root is so ill-conditioned
    that its polish ended by closing the bracket.  Raises
    :class:`NoRealRootError` / :class:`AmbiguousRootError`,
    ``OverflowError`` when a stage's chosen root is not finite or a stage
    with no real root has a coefficient that is not finite, and
    ``ValueError`` when ``p`` or ``warm`` has the wrong length or a
    coordinate that is not finite.
    """
    return np.array(_lift_values(part, p, warm))


class PulledBackObjective:
    """An ambient objective composed with the lift.

    ``ftilde(p, warm)`` lifts reduced coordinates ``p`` as ``lift`` does,
    each stage taking the root nearest the ambient point ``warm``, and
    returns ``(value, ambient)``.  It keeps no state: a caller stays on one
    sheet by passing the lift it accepted.  Raises
    :class:`LiftError` when the lift fails, ``OverflowError`` when a
    stage leaves the float range and ``ValueError`` when ``p`` or ``warm``
    has the wrong length or is not finite; a polynomial objective past the
    float range reads inf or nan.
    """

    def __init__(self, objective, part: WhitneyPartition):
        self.partition = part
        if isinstance(objective, Polynomial):
            if objective.order != part.order:
                raise ValueError("objective uses a different variable order")
            evaluate = evaluator([objective.compile()])
            self._fn = lambda vals: evaluate(vals)[0]
        else:
            self._fn = lambda vals: float(objective(np.array(vals)))

    def __call__(self, p, warm=None) -> tuple[float, np.ndarray]:
        vals = _lift_values(self.partition, p, warm)
        return self._fn(vals), np.array(vals)
