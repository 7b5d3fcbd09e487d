"""Probabilistic descent over the reduced manifold.

Each iteration polls an opposite pair of random tangent steps at the current
base point, accepts one when it beats the sufficient-decrease threshold
``C * alpha^2``, doubles the step on success and halves it otherwise.  When
the projection oracle fails on either poll the walk re-bases: the tangent
frame moves to the current point, the accumulated tangent vector resets to
zero, and the step shrinks.  A run that keeps re-basing to the end, or
whose polls overflowed or started beyond the float range after its last
accepted point, is reported as not converged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .geometry import (
    DEFAULT_PROJECTION,
    LiftError,
    ProjectionConfig,
    PulledBackObjective,
    project_to_manifold,
    residual_norm,
    tangent_frame,
)
from .triangular import WhitneyPartition

SUCCESS = "SUCCESS"
UNSUCCESSFUL = "UNSUCCESSFUL"
REBASE = "REBASE"


class InvalidStartError(ValueError):
    """The supplied start point is not finite or not on the reduced manifold."""


@dataclass(frozen=True)
class DescentConfig:
    """Parameters of the polling loop.

    The step law is fixed: the step halves after a failed poll or a re-base
    and doubles after a success, never beyond ``alpha_max`` or the largest
    float.  ``c_forcing`` is the C in the sufficient-decrease threshold
    C * alpha^2; left as None it is chosen as 1e-4 * (1 + |f at the start|)
    so the threshold is meaningful across objective scales.  ``alpha0`` and
    ``c_forcing`` must be positive and finite.
    """

    alpha0: float
    alpha_max: float = math.inf
    c_forcing: float | None = None
    j_max: int = 1000
    seed: int = 0
    projection: ProjectionConfig = DEFAULT_PROJECTION

    def __post_init__(self):
        if not (0 < self.alpha0 < math.inf and self.alpha0 <= self.alpha_max):
            raise ValueError("need 0 < alpha0 <= alpha_max with alpha0 finite")
        if self.c_forcing is not None and not 0 < self.c_forcing < math.inf:
            raise ValueError("c_forcing must be positive and finite")
        if self.j_max < 0:
            raise ValueError("j_max must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass
class DescentProblem:
    """A partitioned constraint system, an ambient objective and a start point."""

    partition: WhitneyPartition
    objective: object
    start: np.ndarray


@dataclass(frozen=True)
class TraceRecord:
    j: int
    alpha: float
    f: float
    event: str
    coords: tuple[float, ...]


@dataclass
class DescentTrace:
    records: list[TraceRecord]
    final_reduced: np.ndarray
    final_ambient: np.ndarray
    final_objective: float
    converged: bool
    c_forcing: float

    @property
    def iterations(self) -> int:
        return len(self.records)


def random_unit_direction(rng: np.random.Generator, m: int) -> np.ndarray:
    """Uniform draw from the unit sphere in R^m (normalized Gaussian)."""
    if m < 1:
        raise ValueError("need at least one tangent dimension")
    while True:
        v = rng.standard_normal(m)
        n = math.sqrt(float(v @ v))
        if n > 0.0:
            return v / n


def check_convergence(trace: DescentTrace | Iterable[TraceRecord], window: int) -> bool:
    """True when the base point held still and the step size died down.

    Checks that no re-base happened in the final ``window`` iterations and
    that the last step size fell below 1e-8.  ``window`` must be at least 1.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    records = trace.records if isinstance(trace, DescentTrace) else list(trace)
    if not records:
        return False
    if any(r.event == REBASE for r in records[-window:]):
        return False
    return records[-1].alpha < 1e-8


# beyond the float range numpy stays quiet: the step or the poll fails instead
@np.errstate(over="ignore", invalid="ignore")
def descend(
    problem: DescentProblem,
    cfg: DescentConfig,
    on_record: Callable[[TraceRecord], None] | None = None,
) -> DescentTrace:
    """Run the polling loop for exactly ``cfg.j_max`` iterations.

    Every candidate passes through the projection oracle, so all trace
    points satisfy the retained constraints to the projection tolerance.
    A lift failure, an overflow or a value that is not finite while
    evaluating the objective merely fails that poll direction; a projection
    failure on either direction, a step that is not finite included,
    triggers a re-base.  Raises :class:`InvalidStartError` when the start or
    its objective value is not finite, or a start residual is not within
    ``residual_tol``.  Identical problem and config (seed included)
    reproduce the trace bit for bit.

    Each poll continues from the accepted point: its chord projection
    starts at ``p + U (step - w)``, which lies in the same affine set as
    ``q0 = base + U step`` and is nearer the manifold point there (after a
    re-base ``p`` is the base and ``w`` is zero, so it is ``q0``), and it is
    lifted from the accepted lift (the start's, then each success's), which
    ends as ``final_ambient``; a failed poll never moves the descent to
    another sheet.  A poll that projects onto ``p`` itself is not accepted:
    only the lift's rounding could put its value below ``f_current``.  An
    iteration whose two steps both equal ``w`` is UNSUCCESSFUL without
    projecting or lifting.  That is exact under float ``==``: both chords
    would start at ``p`` (a step equal to ``w`` up to a signed zero too),
    which is within tolerance, so both polls are ``p`` and are skipped.
    """
    part = problem.partition
    m = part.manifold_dim
    if m < 1:
        raise ValueError("manifold dimension is zero; there is nothing to poll")
    pcfg = cfg.projection

    p0 = np.asarray(problem.start, dtype=float).copy()
    if p0.shape != (part.reduced_dim,):
        raise ValueError(
            f"start point must have {part.reduced_dim} coordinates, got {p0.shape}"
        )
    if not np.isfinite(p0).all():
        raise InvalidStartError(f"start point {p0.tolist()} is not finite")
    r0 = residual_norm(part, p0)
    if not r0 <= pcfg.residual_tol:
        raise InvalidStartError(
            f"start residual {r0:.3e} exceeds tolerance {pcfg.residual_tol:.3e}"
        )

    ftilde = PulledBackObjective(problem.objective, part)
    f0, ambient = ftilde(p0)
    if not math.isfinite(f0):
        raise InvalidStartError(f"objective at the start is {f0}")
    c_forcing = (
        cfg.c_forcing if cfg.c_forcing is not None else 1e-4 * (1.0 + abs(f0))
    )

    rng = np.random.default_rng(cfg.seed)
    # loop state: the accepted point, its value, lift (the warm start) and
    # coordinates; the offset w from the frame's base; the step size; whether
    # a poll overflowed since the last acceptance
    p, f_current = p0, f0
    coords = tuple(p.tolist())
    w = [0.0] * m
    alpha = cfg.alpha0
    frame = tangent_frame(part, p0)
    overflowed = False
    records: list[TraceRecord] = []

    for j in range(cfg.j_max):
        alpha_j = alpha
        du = [alpha_j * c for c in random_unit_direction(rng, m).tolist()]
        steps = ([a + b for a, b in zip(w, du)], [a - b for a, b in zip(w, du)])
        alpha = 0.5 * alpha_j
        if steps[0] == w == steps[1]:
            event = UNSUCCESSFUL  # both polls are p itself
        else:
            # each chord starts from p moved along the tangent, not from q0
            starts = [p + frame.U @ np.subtract(step, w) for step in steps]
            points = [
                project_to_manifold(frame, step, pcfg, start)
                for step, start in zip(steps, starts)
            ]
            if points[0] is None or points[1] is None:
                q0s = [frame.base + frame.U @ s for s in steps]
                if not np.isfinite([*q0s, *starts]).all():
                    overflowed = True  # the poll started beyond the float range
                # oracle failure: re-base the tangent frame at the current point
                frame = tangent_frame(part, p)
                w = [0.0] * m
                event = REBASE
            else:
                threshold = f_current - c_forcing * alpha_j * alpha_j
                event = UNSUCCESSFUL
                for point, step in zip(points, steps):
                    if tuple(point.tolist()) == coords:
                        continue  # only the lift's rounding could make p beat itself
                    try:
                        f_poll, lifted = ftilde(point, ambient)
                    except LiftError:
                        continue
                    except OverflowError:
                        overflowed = True
                        continue
                    if not math.isfinite(f_poll):
                        overflowed = True
                    elif f_poll < threshold:
                        p, w, f_current, ambient = point, step, f_poll, lifted
                        coords = tuple(p.tolist())
                        alpha = min(cfg.alpha_max, 2.0 * alpha_j, sys.float_info.max)
                        event = SUCCESS
                        overflowed = False
                        break

        rec = TraceRecord(j, alpha_j, f_current, event, coords)
        records.append(rec)
        if on_record is not None:
            on_record(rec)

    return DescentTrace(
        records=records,
        final_reduced=p,
        final_ambient=ambient,
        final_objective=f_current,
        converged=check_convergence(records, 500) and not overflowed,
        c_forcing=c_forcing,
    )
