import math

import numpy as np
import pytest

import polydescent.geodesics as geodesics_mod
from conftest import curve3_point
from polydescent.geodesics import (
    DivergedError,
    GeodesicState,
    christoffel,
    geodesic_integrate,
)
from polydescent.geometry import NotRegularError, ProjectionConfig, tangent_frame
from polydescent.polynomials import VariableOrder, parse_polynomial
from polydescent.triangular import validate_triangular, whitney_partition


def _curve_only():
    """Reduced view of the curve fixture: just g_star over (u, x)."""
    order = VariableOrder(["u", "x"])
    g = parse_polynomial("u^4 + x^2 - 1", order)
    return whitney_partition(validate_triangular([g], order), eliminate=[])


class TestChristoffel:
    def test_circle_by_hand(self, circle):
        # J = (2u, 2x) at (0, 1) -> pinv = (0, 1/2)^T, Hessian = 2I,
        # so the x-component is the identity and the u-component vanishes
        gamma = christoffel(circle, [0.0, 1.0])
        assert np.allclose(gamma[0], np.zeros((2, 2)), atol=1e-14)
        assert np.allclose(gamma[1], np.eye(2), atol=1e-14)

    def test_affine_manifold_vanishes(self):
        order = VariableOrder(["u", "x"])
        part = whitney_partition(
            validate_triangular([parse_polynomial("x + 2*u - 1", order)], order),
            eliminate=[],
        )
        gamma = christoffel(part, [0.3, 0.4])
        assert np.max(np.abs(gamma)) == 0.0

    def test_symmetry_on_curve(self):
        part = _curve_only()
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = float(rng.uniform(-0.9, 0.9))
            gamma = christoffel(part, curve3_point(u))
            assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) <= 1e-14

    def test_non_finite_jacobian_is_not_regular(self):
        # 3u^2 overflows at u = 1e200
        order = VariableOrder(["u", "x"])
        g = parse_polynomial("u^3 + x^2 - 1", order)
        part = whitney_partition(validate_triangular([g], order), eliminate=[])
        with pytest.raises(NotRegularError, match="is not finite"):
            christoffel(part, [1e200, 1.0])

    def test_singular_point(self):
        order = VariableOrder(["u", "x"])
        part = whitney_partition(
            validate_triangular([parse_polynomial("u*x", order)], order),
            eliminate=[],
        )
        with pytest.raises(NotRegularError):
            christoffel(part, [0.0, 0.0])


class TestIntegrate:
    def test_circle_quarter_turn(self, circle):
        state = GeodesicState(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        out = geodesic_integrate(circle, state, math.pi / 2, 1e-3)
        assert np.max(np.abs(out.position - np.array([1.0, 0.0]))) <= 1e-6
        assert out.time == pytest.approx(math.pi / 2)

    def test_zero_duration(self, circle):
        state = GeodesicState(np.array([0.0, 1.0]), np.array([1.0, 0.0]), time=2.0)
        out = geodesic_integrate(circle, state, 0.0, 1e-3)
        assert np.array_equal(out.position, state.position)
        assert np.array_equal(out.velocity, state.velocity)
        assert out.time == 2.0

    def test_speed_and_constraint_conservation(self, monkeypatch):
        part = _curve_only()
        g = part.g_star[0]
        start = curve3_point(0.3)
        frame = tangent_frame(part, start)
        v0 = frame.U[:, 0]
        state = GeodesicState(start, v0)
        # raw endpoints measure integrator drift along the path: a projection
        # that returns the frame's base leaves the RK4 endpoint as it is
        with monkeypatch.context() as m:
            m.setattr(geodesics_mod, "project_to_manifold", lambda frame, w, cfg: frame.base)
            for t in np.linspace(0.1, 1.0, 10):
                raw = geodesic_integrate(part, state, float(t), 1e-3)
                assert abs(g.evaluate([*raw.position])) <= 1e-6
        out = geodesic_integrate(part, state, 1.0, 1e-3)
        speed0 = np.linalg.norm(v0)
        drift = abs(np.linalg.norm(out.velocity) - speed0)
        assert drift <= 1e-6 * speed0
        assert abs(g.evaluate([*out.position])) <= 1e-8

    def test_reversibility(self):
        part = _curve_only()
        start = curve3_point(-0.2, branch=-1)
        frame = tangent_frame(part, start)
        state = GeodesicState(start, frame.U[:, 0])
        fwd = geodesic_integrate(part, state, 0.7, 1e-3)
        back = geodesic_integrate(part, fwd, -0.7, 1e-3)
        assert np.max(np.abs(back.position - start)) <= 1e-6

    def test_bad_step_rejected(self, circle):
        state = GeodesicState(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            geodesic_integrate(circle, state, 1.0, 0.0)

    @pytest.mark.parametrize(
        "duration, step, message",
        [
            (1.0, math.nan, "step must be a positive finite number"),
            (1.0, math.inf, "step must be a positive finite number"),
            (1.0, -0.5, "step must be a positive finite number"),
            (math.inf, 1e-3, "duration must be finite"),
            (math.nan, 1e-3, "duration must be finite"),
            # before, math.ceil raised a bare OverflowError on the step count
            (1e300, 1e-300, "duration / step must be at most 1000000"),
            (-1e300, 1e-300, "duration / step must be at most 1000000"),
        ],
    )
    def test_non_finite_numbers_rejected(self, circle, duration, step, message):
        state = GeodesicState(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match=message):
            geodesic_integrate(circle, state, duration, step)

    @pytest.mark.parametrize(
        "bad, position, velocity",
        [
            ("velocity", [0.0, 1.0], [math.nan, 0.0]),
            ("velocity", [0.0, 1.0], [math.inf, 0.0]),
            ("position", [math.nan, 0.0], [1.0, 0.0]),
            ("position", [math.inf, math.inf], [1.0, 0.0]),
        ],
        ids=["velocity0", "velocity1", "position0", "position1"],
    )
    def test_non_finite_velocity_rejected(self, circle, bad, position, velocity):
        state = GeodesicState(np.array(position), np.array(velocity))
        for duration in (1.0, 0.0):  # also before the early return for zero
            with pytest.raises(ValueError, match=f"{bad} .* is not finite"):
                geodesic_integrate(circle, state, duration, 1e-3)

    def test_zero_velocity_stays_put(self, circle):
        state = GeodesicState(np.array([0.0, 1.0]), np.zeros(2))
        end = geodesic_integrate(circle, state, 1.0, 0.25)
        assert end.position.tolist() == [0.0, 1.0]
        assert end.velocity.tolist() == [0.0, 0.0]

    def test_speed_that_is_not_a_number_diverges(self, circle, monkeypatch):
        # a NaN acceleration in the last RK stage leaves the position finite
        # and makes the speed NaN, which no comparison with 1e3 * v0 trips
        real = geodesics_mod._acceleration
        calls = []

        def nan_fourth(part, z, v):
            calls.append(z)
            a = real(part, z, v)
            return a * math.nan if len(calls) == 4 else a

        monkeypatch.setattr(geodesics_mod, "_acceleration", nan_fourth)
        state = GeodesicState(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(DivergedError):
            geodesic_integrate(circle, state, 0.5, 0.5)

    def test_endpoint_outside_the_oracle_radius(self, circle):
        # two RK4 steps of 0.5 end 2.1e-4 inside the circle, beyond the radius
        state = GeodesicState(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        cfg = ProjectionConfig(oracle_radius=1e-6)
        with pytest.raises(DivergedError, match="endpoint could not be projected"):
            geodesic_integrate(circle, state, 1.0, 0.5, cfg)

    def test_diverged(self, circle):
        state = GeodesicState(np.array([0.0, 1.0]), np.array([1e3, 0.0]))
        with pytest.raises(DivergedError):
            geodesic_integrate(circle, state, 1.0, 0.5)

    def test_regularity_loss_propagates(self):
        order = VariableOrder(["u", "x"])
        part = whitney_partition(
            validate_triangular([parse_polynomial("u*x", order)], order),
            eliminate=[],
        )
        state = GeodesicState(np.array([0.5, 0.0]), np.array([-1.0, 0.0]))
        with pytest.raises(NotRegularError):
            geodesic_integrate(part, state, 0.5, 0.125)
