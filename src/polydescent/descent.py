"""Probabilistic descent over the reduced manifold.

Each iteration polls an opposite pair of random tangent steps at the current
base point, accepts one when it beats the sufficient-decrease threshold
``C * alpha^2``, doubles the step on success and halves it otherwise.  When
the projection oracle fails on either poll the walk re-bases: the tangent
frame moves to the current point, the accumulated tangent vector resets to
zero, and the step shrinks.  A run that keeps re-basing to the end is
reported as not converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .geometry import (
    DEFAULT_PROJECTION,
    LiftError,
    ProjectionConfig,
    PulledBackObjective,
    project_to_manifold,
    residuals,
    tangent_frame,
)
from .triangular import WhitneyPartition

SUCCESS = "SUCCESS"
UNSUCCESSFUL = "UNSUCCESSFUL"
REBASE = "REBASE"


class InvalidStartError(ValueError):
    """The supplied start point is not on the reduced manifold."""


@dataclass(frozen=True)
class DescentConfig:
    """Parameters of the polling loop.

    The step law is fixed: the step halves after a failed poll or a re-base
    and doubles after a success, never beyond ``alpha_max``.  ``c_forcing``
    is the C in the sufficient-decrease threshold C * alpha^2; left as None
    it is chosen as 1e-4 * (1 + |f at the start|) so the threshold is
    meaningful across objective scales.
    """

    alpha0: float
    alpha_max: float = math.inf
    c_forcing: float | None = None
    j_max: int = 1000
    seed: int = 0
    projection: ProjectionConfig = DEFAULT_PROJECTION

    def __post_init__(self):
        if not 0 < self.alpha0 <= self.alpha_max:
            raise ValueError("need 0 < alpha0 <= alpha_max")
        if self.c_forcing is not None and self.c_forcing <= 0:
            raise ValueError("c_forcing must be positive")
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
    that the last step size fell below 1e-8.
    """
    records = trace.records if isinstance(trace, DescentTrace) else list(trace)
    if not records:
        return False
    tail = records[-window:] if window > 0 else records
    if any(r.event == REBASE for r in tail):
        return False
    return records[-1].alpha < 1e-8


def _poll_value(ftilde: PulledBackObjective, p: np.ndarray) -> float | None:
    try:
        return ftilde(p)
    except LiftError:
        return None


def descend(
    problem: DescentProblem,
    cfg: DescentConfig,
    on_record: Callable[[TraceRecord], None] | None = None,
) -> DescentTrace:
    """Run the polling loop for exactly ``cfg.j_max`` iterations.

    Every candidate passes through the projection oracle, so all trace
    points satisfy the retained constraints to the projection tolerance.
    A lift failure while evaluating the objective merely fails that poll
    direction; a projection failure on either direction triggers a re-base.
    Identical problem and config (seed included) reproduce the trace bit
    for bit.
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
    r0 = residuals(part, p0)
    if r0.size and float(np.max(np.abs(r0))) > pcfg.residual_tol:
        raise InvalidStartError(
            f"start residual {float(np.max(np.abs(r0))):.3e} exceeds "
            f"tolerance {pcfg.residual_tol:.3e}"
        )

    ftilde = PulledBackObjective(problem.objective, part)
    f0 = ftilde(p0)
    c_forcing = (
        cfg.c_forcing if cfg.c_forcing is not None else 1e-4 * (1.0 + abs(f0))
    )

    rng = np.random.default_rng(cfg.seed)
    # loop state: current point, its value and lift (``ambient``), tangent
    # offset from the frame's base point, and the step size
    p, f_current, ambient = p0, f0, ftilde.last_ambient
    w = np.zeros(m)
    alpha = cfg.alpha0
    frame = tangent_frame(part, p0)
    records: list[TraceRecord] = []

    for j in range(cfg.j_max):
        alpha_j = alpha
        u = random_unit_direction(rng, m)
        w_plus = w + alpha_j * u
        w_minus = w - alpha_j * u
        p_plus = project_to_manifold(frame, w_plus, pcfg)
        p_minus = project_to_manifold(frame, w_minus, pcfg)

        if p_plus is None or p_minus is None:
            # oracle failure: re-base the tangent frame at the current point
            frame = tangent_frame(part, p)
            w = np.zeros(m)
            alpha = 0.5 * alpha_j
            event = REBASE
        else:
            threshold = f_current - c_forcing * alpha_j * alpha_j
            accepted = False
            f_plus = _poll_value(ftilde, p_plus)
            if f_plus is not None and f_plus < threshold:
                p, w, f_current = p_plus, w_plus, f_plus
                accepted = True
            else:
                f_minus = _poll_value(ftilde, p_minus)
                if f_minus is not None and f_minus < threshold:
                    p, w, f_current = p_minus, w_minus, f_minus
                    accepted = True
            if accepted:
                ambient = ftilde.last_ambient
                alpha = min(cfg.alpha_max, 2.0 * alpha_j)
                event = SUCCESS
            else:
                alpha = 0.5 * alpha_j
                event = UNSUCCESSFUL

        rec = TraceRecord(j, alpha_j, f_current, event, tuple(p.tolist()))
        records.append(rec)
        if on_record is not None:
            on_record(rec)

    window = min(500, cfg.j_max) if cfg.j_max > 0 else 1
    return DescentTrace(
        records=records,
        final_reduced=p,
        final_ambient=ambient,
        final_objective=f_current,
        converged=check_convergence(records, window),
        c_forcing=c_forcing,
    )
