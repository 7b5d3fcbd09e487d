"""Geodesics on the reduced manifold, for stepping and for geometry checks.

The connection coefficients come from contracting the pseudoinverse of the
retained-constraint Jacobian with the constraints' exact Hessians; geodesics
are integrated with classical fixed-step RK4 and the endpoint is projected
back onto the manifold.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_PROJECTION,
    ProjectionConfig,
    project_to_manifold,
    regular_pinv,
    tangent_frame,
)
from .triangular import WhitneyPartition


# most RK4 steps one integration takes: a README curve step costs about
# 150 us (2-vCPU Xeon VM), so the cap is a few minutes of work, where a
# duration of 1e300 over a step of 1e-3 would otherwise run without end
MAX_RK4_STEPS = 10**6


class DivergedError(Exception):
    """The integration blew up or the endpoint could not be re-projected."""


@dataclass
class GeodesicState:
    position: np.ndarray
    velocity: np.ndarray
    time: float = 0.0


def christoffel(part: WhitneyPartition, p) -> np.ndarray:
    """Connection coefficients gamma[i, j, k] at reduced coordinates ``p``.

    Row i of the Jacobian pseudoinverse is contracted with each constraint's
    Hessian, summing over the constraint index; the result is symmetric in
    the last two slots because mixed partials commute.  Raises
    :class:`~polydescent.geometry.NotRegularError` where the Jacobian
    loses rank or is not finite.
    """
    vals = [float(v) for v in p]
    pinv, _ = regular_pinv(part, vals)
    H = part.compiled.hessians(vals)
    return np.einsum("ic,cjk->ijk", pinv, H)


def _acceleration(part: WhitneyPartition, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    gamma = christoffel(part, z)
    return -np.einsum("ijk,j,k->i", gamma, v, v)


def geodesic_integrate(
    part: WhitneyPartition,
    state0: GeodesicState,
    duration: float,
    step: float,
    cfg: ProjectionConfig = DEFAULT_PROJECTION,
) -> GeodesicState:
    """Integrate the geodesic equation for ``duration`` with RK4 steps.

    ``step`` is the step magnitude; negative duration integrates backwards.
    The final position is projected back onto the manifold from a frame at
    the raw endpoint.  Raises ``ValueError`` unless ``step`` is positive,
    ``step``, ``duration`` and ``state0`` are finite (a number past the
    float range is not) and ``|duration| / step`` is at most ``MAX_RK4_STEPS``,
    :class:`DivergedError` if the speed grows a thousandfold or stops being
    a number, and propagates :class:`NotRegularError` from any stage.
    """
    if not 0 < step <= sys.float_info.max:
        raise ValueError(f"step must be a positive finite number, got {step}")
    if not abs(duration) <= sys.float_info.max:
        raise ValueError(f"duration must be finite, got {duration}")
    steps = abs(duration) / step
    if not steps <= MAX_RK4_STEPS:
        raise ValueError(
            f"duration / step must be at most {MAX_RK4_STEPS}, got {duration} / {step}"
        )
    z = np.asarray(state0.position, dtype=float).copy()
    v = np.asarray(state0.velocity, dtype=float).copy()
    for name, x in (("position", z), ("velocity", v)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} {x.tolist()} is not finite")
    if duration == 0:
        return GeodesicState(z, v, state0.time)

    n = max(1, math.ceil(steps))
    h = duration / n
    v0 = math.sqrt(float(v @ v))
    for _ in range(n):
        k1z, k1v = v, _acceleration(part, z, v)
        k2z, k2v = v + 0.5 * h * k1v, _acceleration(part, z + 0.5 * h * k1z, v + 0.5 * h * k1v)
        k3z, k3v = v + 0.5 * h * k2v, _acceleration(part, z + 0.5 * h * k2z, v + 0.5 * h * k2v)
        k4z, k4v = v + h * k3v, _acceleration(part, z + h * k3z, v + h * k3v)
        z = z + (h / 6.0) * (k1z + 2 * k2z + 2 * k3z + k4z)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not math.sqrt(float(v @ v)) <= 1e3 * v0:
            raise DivergedError("velocity grew by more than 1e3x")

    frame = tangent_frame(part, z)
    projected = project_to_manifold(frame, np.zeros(frame.U.shape[1]), cfg)
    if projected is None:
        raise DivergedError("endpoint could not be projected back onto the manifold")
    return GeodesicState(projected, v, state0.time + duration)
