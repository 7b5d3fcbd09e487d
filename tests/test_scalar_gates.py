"""One admission rule for the scalar arguments of the public API.

Every count goes through ``triangular.integer`` and every finite magnitude
through ``0 < x <= sys.float_info.max`` (``abs(duration)`` for the
duration), so a value that either rule refuses raises ``ValueError`` where
it enters, never ``OverflowError`` or ``TypeError`` further in.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polydescent.geodesics as geodesics_mod
from polydescent.descent import DescentConfig, check_convergence
from polydescent.geodesics import GeodesicState, geodesic_integrate
from polydescent.geometry import ProjectionConfig
from polydescent.polynomials import VariableOrder, parse_polynomial
from polydescent.triangular import integer, linear_whitney, validate_triangular, whitney_partition

UX, UXY = VariableOrder(["u", "x"]), VariableOrder(["u", "x", "y"])
CURVE = validate_triangular(
    [parse_polynomial("u^4 + x^2 - 1", UXY), parse_polynomial("u^2 + x^3 + y^5", UXY)], UXY
)
CIRCLE = whitney_partition(validate_triangular([parse_polynomial("u^2 + x^2 - 1", UX)], UX), [])
STATE = GeodesicState(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

# each gated scalar, as the one argument of a call that admits it
COUNTS = {
    "max_iters": lambda v: ProjectionConfig(max_iters=v),
    "j_max": lambda v: DescentConfig(alpha0=0.25, j_max=v),
    "seed": lambda v: DescentConfig(alpha0=0.25, seed=v),
    "window": lambda v: check_convergence([], window=v),
    "variable index": lambda v: whitney_partition(CURVE, [v]),
    "m": lambda v: linear_whitney(np.eye(3, 4), np.ones(3), v),
}
MAGNITUDES = {
    "alpha0": lambda v: DescentConfig(alpha0=v),
    "c_forcing": lambda v: DescentConfig(alpha0=0.25, c_forcing=v),
    "residual_tol": lambda v: ProjectionConfig(residual_tol=v),
    "step": lambda v: geodesic_integrate(CIRCLE, STATE, 1.0, v),
    "duration": lambda v: geodesic_integrate(CIRCLE, STATE, v, 1e-3),
}

BEYOND_FLOATS = st.integers(min_value=int(sys.float_info.max) + 1) | st.integers(
    max_value=-int(sys.float_info.max) - 1
)


@pytest.mark.parametrize("name", COUNTS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=st.floats())
def test_a_float_is_not_a_count(name, value):
    # 2.0 included: a float passes a comparison and fails later as an index
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        COUNTS[name](value)


@pytest.mark.parametrize("name", COUNTS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=st.integers() | BEYOND_FLOATS)
def test_an_integer_count_is_admitted_or_refused_as_a_value(name, value):
    try:
        COUNTS[name](value)
    except ValueError:
        pass


@pytest.mark.parametrize("name", MAGNITUDES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=BEYOND_FLOATS | st.sampled_from([math.nan, math.inf, -math.inf]))
def test_a_magnitude_past_the_float_range_is_refused(name, value):
    with pytest.raises(ValueError, match=f"{name} .*finite"):
        MAGNITUDES[name](value)


def test_integer_gate():
    n = integer(np.int64(3), "n", 3)
    assert n == 3 and type(n) is int
    with pytest.raises(ValueError, match=r"^n must be an integer, got 3\.0$"):
        integer(3.0, "n")
    with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
        integer(0, "n", 1)


class TestRegressions:
    # each passed its gate before and then crashed or hung further in

    def test_alpha0_past_the_float_range(self):
        # descend raised a bare OverflowError at its first poll
        with pytest.raises(ValueError, match="alpha0 finite"):
            DescentConfig(alpha0=10**400)

    def test_forcing_past_the_float_range(self):
        # descend raised a bare OverflowError at its first threshold
        with pytest.raises(ValueError, match="c_forcing must be positive and finite"):
            DescentConfig(alpha0=0.25, c_forcing=10**400)

    @pytest.fixture
    def no_rk4_step(self, monkeypatch):
        def fail(*args):
            raise AssertionError("an RK4 step was taken")

        monkeypatch.setattr(geodesics_mod, "_acceleration", fail)

    def test_duration_past_the_float_range(self, no_rk4_step):
        # math.isfinite raised a bare OverflowError
        with pytest.raises(ValueError, match="duration must be finite"):
            geodesic_integrate(CIRCLE, STATE, 10**400, 1.0)

    def test_too_many_rk4_steps(self, no_rk4_step):
        # about 1e303 steps: the integration ran for ages
        with pytest.raises(ValueError, match="duration / step must be at most 1000000"):
            geodesic_integrate(CIRCLE, STATE, 1e300, 1e-3)

    def test_step_count_cap(self, monkeypatch):
        monkeypatch.setattr(geodesics_mod, "MAX_RK4_STEPS", 10)
        geodesic_integrate(CIRCLE, STATE, -1.0, 0.1)
        with pytest.raises(ValueError, match="at most 10, got -1.0 / 0.099"):
            geodesic_integrate(CIRCLE, STATE, -1.0, 0.099)
