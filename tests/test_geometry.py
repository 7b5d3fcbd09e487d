import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    curve3_height,
    curve3_point,
    manifold_start,
    quartic4_originals,
    random_system,
)
from polydescent.geometry import (
    AmbiguousRootError,
    NoRealRootError,
    NotRegularError,
    ProjectionConfig,
    PulledBackObjective,
    jacobian,
    lift,
    project_to_manifold,
    residual_norm,
    residuals,
    tangent_frame,
)
from polydescent.polynomials import VariableOrder, parse_polynomial
from polydescent.triangular import validate_triangular, whitney_partition


def _partition(var_names, constraint_texts, eliminate_names=()):
    order = VariableOrder(var_names)
    polys = [parse_polynomial(t, order) for t in constraint_texts]
    sys = validate_triangular(polys, order)
    elim = [order.index(n) for n in eliminate_names]
    return whitney_partition(sys, eliminate=elim)


class TestJacobian:
    def test_curve_gradient(self, curve3):
        # d g*/d(u, x) = (4u^3, 2x)
        assert np.allclose(jacobian(curve3, [0.0, 1.0]), [[0.0, 2.0]])
        assert np.allclose(jacobian(curve3, [1.0, 0.0]), [[4.0, 0.0]])

    def test_linear(self):
        part = _partition(["u", "x"], ["x + u"])
        assert np.allclose(jacobian(part, [3.7, -2.0]), [[1.0, 1.0]])


class TestTangentFrame:
    def test_curve_frame(self, curve3):
        frame = tangent_frame(curve3, [0.0, 1.0])
        assert frame.U.shape == (2, 1)
        assert abs(abs(frame.U[0, 0]) - 1.0) < 1e-14
        assert abs(frame.U[1, 0]) < 1e-14
        assert np.allclose(frame.N.ravel(), [0.0, 0.5], atol=1e-14)

    def test_zero_dimensional(self):
        part = _partition(["u", "x"], ["u", "x"])
        frame = tangent_frame(part, [0.0, 0.0])
        assert frame.U.shape == (2, 0)

    def test_singular_point(self):
        part = _partition(["u", "x"], ["u*x"])
        with pytest.raises(NotRegularError):
            tangent_frame(part, [0.0, 0.0])

    @pytest.mark.parametrize(
        "constraint, p",
        [("x - 1" + "0" * 300 + "*u^2", [1e9, 1.0]), ("u^3 + x^2 - 1", [1e200, 1.0])],
        ids=["product", "power"],
    )
    def test_non_finite_jacobian_is_not_regular(self, constraint, p):
        # dg/du = -2e309 overflows in a product, 3e400 in a power: either way
        # the frame reports the Jacobian, not a rank its SVD could not give
        part = _partition(["u", "x"], [constraint])
        with pytest.raises(NotRegularError, match=r"Jacobian at \[.*\] is not finite"):
            tangent_frame(part, p)

    def test_invariants_along_curve(self, curve3):
        for u in np.linspace(-0.95, 0.95, 12):
            for branch in (+1, -1):
                p = curve3_point(float(u), branch)
                frame = tangent_frame(curve3, p)
                m = frame.U.shape[1]
                assert (
                    np.max(np.abs(frame.U.T @ frame.U - np.eye(m))) <= 1e-12
                )
                J = jacobian(curve3, frame.base)
                jn = np.max(np.abs(J))
                assert np.max(np.abs(J @ frame.U)) <= 1e-10 * (1 + jn)


class TestProjection:
    def test_zero_displacement_is_identity(self, curve3):
        p = curve3_point(0.3)
        frame = tangent_frame(curve3, p)
        q = project_to_manifold(frame, np.zeros(1))
        assert np.max(np.abs(q - p)) <= 1e-12

    def test_small_step(self, curve3):
        frame = tangent_frame(curve3, [0.0, 1.0])
        sign = 1.0 if frame.U[0, 0] > 0 else -1.0
        q = project_to_manifold(frame, [sign * 0.1])
        assert q is not None
        # independent oracle: x = sqrt(1 - u^4) at u = 0.1
        assert q[0] == pytest.approx(0.1, abs=1e-12)
        assert q[1] == pytest.approx(math.sqrt(1 - 1e-4), abs=1e-8)
        assert np.max(np.abs(residuals(curve3, q))) <= 1e-10

    def test_large_step_fails(self, curve3):
        frame = tangent_frame(curve3, [0.0, 1.0])
        assert project_to_manifold(frame, [10.0]) is None
        assert project_to_manifold(frame, [-10.0]) is None

    def test_divergence_fails(self, circle):
        # neither the radius nor the iteration cap can stop this chord
        # iteration; only the residual growing past 1e6 times its first
        # value does, before the residual overflows
        frame = tangent_frame(circle, [0.0, 1.0])
        cfg = ProjectionConfig(oracle_radius=1e300, max_iters=10**6)
        assert project_to_manifold(frame, [10.0], cfg) is None

    @pytest.mark.parametrize("constraint, w", [("x - u^4", 1e100)], ids=["residual"])
    def test_overflow_fails(self, constraint, w):
        # u^4 overflows in the first residual
        frame = tangent_frame(_partition(["u", "x"], [constraint]), [0.0, 0.0])
        cfg = ProjectionConfig(oracle_radius=math.inf)
        assert project_to_manifold(frame, [w], cfg) is None

    def test_distance_from_q0_cannot_overflow(self):
        # a start 1e160 from q0 = 0: its squared distance would overflow, but
        # with no radius the chord lands on the line x = 0 in one step
        frame = tangent_frame(_partition(["u", "x"], ["x"]), [0.0, 0.0])
        cfg = ProjectionConfig(oracle_radius=math.inf)
        q = project_to_manifold(frame, [0.0], cfg, start=[0.0, 1e160])
        assert q.tolist() == [0.0, 0.0]

    def test_oracle_ball_is_centred_on_q0(self):
        # on x = u^2 the chord from q0 = (0.8, 0) moves along x only and
        # lands on (0.8, 0.64).  A start at (0.8, 0.7) is 0.06 from that
        # point but 0.7 from q0, outside the ball around q0
        part = _partition(["u", "x"], ["x - u^2"])
        frame = tangent_frame(part, [0.0, 0.0])
        w = [0.8 * frame.U[0, 0]]
        cold = project_to_manifold(frame, w)
        assert cold.tolist() == pytest.approx([0.8, 0.64], abs=1e-15)
        assert project_to_manifold(frame, w, start=[0.8, 0.7]) is None
        wide = ProjectionConfig(oracle_radius=1.0)
        warm = project_to_manifold(frame, w, wide, start=[0.8, 0.7])
        assert warm.tolist() == pytest.approx(cold.tolist(), abs=1e-15)

    def test_divergence_is_measured_from_the_start(self, monkeypatch):
        # on x^3 + x = u the frozen chord map multiplies the error by -1.5
        # per step near (2, 1), so from a start 1e-9 off that point it
        # diverges.  It gives up once the residual passes 1e6 times the
        # residual at its start, long before 1e6 times the one at q0
        part = _partition(["u", "x"], ["x^3 + x - u"])
        frame = tangent_frame(part, [0.0, 0.0])
        # q0 = (1.5, 1.5); (2, 1) lies in q0 + range(N), 0.71 from q0
        w = [float(frame.U[:, 0] @ [1.5, 1.5])]
        cfg = ProjectionConfig(oracle_radius=1.0)
        seen = []
        real = part.compiled.residuals
        monkeypatch.setattr(
            part.compiled, "residuals", lambda q: seen.append(max(map(abs, real(q)))) or real(q)
        )
        assert project_to_manifold(frame, w, cfg, start=[2.0 + 1e-9, 1.0 - 1e-9]) is None
        r_start, r_q0 = seen[0], max(map(abs, real([1.5, 1.5])))
        assert max(seen[:-1]) <= 1e6 * r_start < seen[-1] < 1e6 * r_q0
        assert len(seen) < cfg.max_iters

    def test_non_finite_start_fails_at_once(self, circle, monkeypatch):
        frame = tangent_frame(circle, [0.0, 1.0])
        calls = []
        real = circle.compiled.residuals
        monkeypatch.setattr(circle.compiled, "residuals", lambda q: calls.append(q) or real(q))
        for start in ([math.nan, 1.0], [0.0, math.inf]):
            assert project_to_manifold(frame, [0.1], start=start) is None
        assert calls == []

    @pytest.mark.parametrize(
        "constraint, w, evaluations",
        [("x", math.inf, 0), ("x", math.nan, 0), ("x - 1" + "0" * 300 + "*u^2", 1e5, 1)],
        ids=["inf-step", "nan-step", "inf-residual"],
    )
    def test_non_finite_fails_at_once(self, monkeypatch, constraint, w, evaluations):
        # NaN trips no comparison in the chord loop, so without the checks
        # these would run all 51 residual evaluations before giving up
        part = _partition(["u", "x"], [constraint])
        frame = tangent_frame(part, [0.0, 0.0])
        calls = []
        real = part.compiled.residuals
        monkeypatch.setattr(part.compiled, "residuals", lambda q: calls.append(q) or real(q))
        assert project_to_manifold(frame, [w]) is None
        assert len(calls) == evaluations

    @pytest.mark.parametrize("field", ["residual_tol", "max_iters", "oracle_radius"])
    def test_config_must_be_positive(self, field):
        with pytest.raises(ValueError, match="must be positive"):
            ProjectionConfig(**{field: 0})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_residual_tol_must_be_finite(self, value):
        # an infinite tolerance would call every point on the manifold
        with pytest.raises(ValueError, match="residual_tol finite"):
            ProjectionConfig(residual_tol=value)

    def test_success_respects_radius_and_tol(self, curve3):
        rng = np.random.default_rng(5)
        cfg = ProjectionConfig()
        for u in np.linspace(-0.8, 0.8, 5):
            p = curve3_point(float(u))
            frame = tangent_frame(curve3, p)
            for _ in range(20):
                w = rng.uniform(-0.1, 0.1, size=1)
                q = project_to_manifold(frame, w, cfg)
                assert q is not None
                q0 = frame.base + frame.U @ w
                assert np.max(np.abs(residuals(curve3, q))) <= cfg.residual_tol
                assert np.linalg.norm(q - q0) <= cfg.oracle_radius


class TestLift:
    def test_curve_closed_form_point(self, curve3):
        amb = lift(curve3, [1.0, 0.0])
        assert np.allclose(amb, [1.0, 0.0, -1.0], atol=1e-12)

    def test_quartic_point(self, quartic4):
        amb = lift(quartic4, [1.0, 1.0])
        assert np.allclose(amb, [1.0, 1.0, -1.0, -1.0], atol=1e-12)
        for g in quartic4_originals(quartic4.order):
            assert abs(g.evaluate(amb)) <= 1e-12

    def test_no_real_root(self):
        part = _partition(["x", "y"], ["x + 1", "y^2 - x"], eliminate_names=["y"])
        with pytest.raises(NoRealRootError) as exc:
            lift(part, [-1.0])
        assert exc.value.stage == 0
        assert exc.value.var_name == "y"

    @pytest.mark.parametrize("top", ["y - u*x", "y^3 + y - u*x"])
    def test_a_stage_beyond_the_float_range_overflows(self, top):
        # u*x = 1e400: the linear stage's root is inf, and the cubic's
        # Fujiwara bound is inf although its root, about 2.2e133, is not
        part = _partition(["u", "x", "y"], ["x - u", top], eliminate_names=["y"])
        with pytest.raises(OverflowError, match=r"lift stage 0 \(y\)"):
            lift(part, [1e200, 1e200])

    def test_a_power_beyond_the_float_range_meets_the_lift_rules(self):
        # u^2 = 1e400 saturates to inf as u*x does: the linear stage's root
        # is inf and overflows, and u^2*y - 1 has the limit root 0.0 that
        # u*x*y - 1 has
        part = _partition(["u", "x", "y"], ["x - u", "y - u^2"], eliminate_names=["y"])
        with pytest.raises(OverflowError, match=r"lift stage 0 \(y\) has root inf"):
            lift(part, [1e200, 1e200])
        for top in ("u^2*y - 1", "u*x*y - 1"):
            part = _partition(["u", "x", "y"], ["x - u", top], eliminate_names=["y"])
            assert lift(part, [1e200, 1e200]).tolist() == [1e200, 1e200, 0.0]

    def test_ambiguous_without_warm_start(self):
        part = _partition(["x", "y"], ["x - 1", "y^2 - x"], eliminate_names=["y"])
        with pytest.raises(AmbiguousRootError):
            lift(part, [1.0])

    def test_warm_start_selects_nearest_root(self):
        part = _partition(["x", "y"], ["x - 4", "y^2 - x"], eliminate_names=["y"])
        assert lift(part, [4.0], warm=[4.0, 1.5])[1] == pytest.approx(2.0, abs=1e-12)
        assert lift(part, [4.0], warm=[4.0, -0.1])[1] == pytest.approx(-2.0, abs=1e-12)

    def test_close_root_pair_is_found(self):
        # y = x +- 0.01: both roots are real and share one cell of any grid
        # coarser than their gap
        part = _partition(
            ["u", "x", "y"],
            ["u^2 + x^2 - 1", "y^2 - 2*x*y + x^2 - 1/10000"],
            eliminate_names=["y"],
        )
        for warm, root in ((0.785, 0.79), (0.815, 0.81)):
            amb = lift(part, [0.6, 0.8], warm=[0.6, 0.8, warm])
            assert amb[2] == pytest.approx(root, abs=1e-12)

    @pytest.mark.parametrize("exponent", [90, 200])
    def test_huge_coefficient_root_is_polished(self, exponent):
        literal = "1" + "0" * exponent
        part = _partition(
            ["x", "y"], ["x - 2", f"y^3 + {literal}*x"], eliminate_names=["y"]
        )
        amb = lift(part, [2.0])
        g = part.g_circ[0]
        scale = abs(amb[1]) ** 3 + 2 * 10.0**exponent
        assert math.isfinite(amb[1])
        assert abs(g.evaluate(amb)) <= 1e-12 * scale

    def test_vanishing_constraint_is_ambiguous(self):
        part = _partition(["x", "y"], ["x", "x*y"], eliminate_names=["y"])
        with pytest.raises(AmbiguousRootError):
            lift(part, [0.0])

    def test_closed_form_agreement(self, curve3):
        rng = np.random.default_rng(17)
        for _ in range(200):
            u = float(rng.uniform(-1, 1))
            branch = 1 if rng.random() < 0.5 else -1
            p = curve3_point(u, branch)
            amb = lift(curve3, p)
            y_expected = curve3_height(p[0], p[1])
            assert abs(amb[2] - y_expected) <= 1e-9
            # full-system soundness
            for g in curve3.system.polynomials:
                assert abs(g.evaluate(amb)) <= 1e-9

    def test_sequential_stages(self):
        # y2 depends on y1; both must resolve in order
        part = _partition(
            ["u", "x", "y1", "y2"],
            ["x - u^2", "y1^3 - x", "y2 - y1 - u"],
            eliminate_names=["y1", "y2"],
        )
        amb = lift(part, [2.0, 4.0])
        y1 = 4.0 ** (1.0 / 3.0)
        assert amb[2] == pytest.approx(y1, rel=1e-12)
        assert amb[3] == pytest.approx(y1 + 2.0, rel=1e-12)


def ftilde(part, p, warm=None):
    """The height objective's pullback on ``part``, called as ``lift`` is."""
    return PulledBackObjective(parse_polynomial("y", part.order), part)(p, warm)


class TestWrongLength:
    """Public entry points reject reduced points and warm starts of the wrong length."""

    @pytest.mark.parametrize("fn", [lift, residuals, jacobian, ftilde])
    @pytest.mark.parametrize("p", [[0.6], [0.6, 0.8, 123.0]])
    def test_reduced_point(self, curve3, fn, p):
        with pytest.raises(ValueError, match="reduced point has"):
            fn(curve3, p)

    @pytest.mark.parametrize("warm", [[], [-0.9, 1.0], [-0.9]])
    def test_warm_start(self, curve3, warm):
        with pytest.raises(ValueError, match="warm start has"):
            lift(curve3, curve3_point(0.6), warm=warm)

    @pytest.mark.parametrize("warm", [[], [-0.9], [0.0, 1.0, -1.0, 7.0]])
    def test_pullback_warm_start(self, curve3, warm):
        # the pullback lifts as lift does: a warm start too short for the
        # ambient point, or one longer than it, is refused rather than read
        with pytest.raises(ValueError, match="warm start has"):
            ftilde(curve3, [0.0, 1.0], warm=warm)

    @pytest.mark.parametrize("start", [[0.6], [0.6, 0.8, 0.0]])
    def test_projection_start(self, curve3, start):
        frame = tangent_frame(curve3, curve3_point(0.6))
        with pytest.raises(ValueError, match="projection start has"):
            project_to_manifold(frame, [0.0], start=start)


class TestNonFinite:
    """The lift and the pullback refuse a point or a warm start that is not finite."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_warm_start(self, bad):
        # z^3 - 3z - x has three roots at x = 0.8; a warm value that is not
        # finite lies in no bracket and used to fall to the lowest root,
        # -1.579, where no warm start gives -0.273
        part = _partition(["x", "z"], ["x - 4/5", "z^3 - 3*z - x"], eliminate_names=["z"])
        assert lift(part, [0.8])[1] == pytest.approx(-0.27348502, abs=1e-8)
        pullback = PulledBackObjective(parse_polynomial("z", part.order), part)
        for fn in (lambda p, warm: lift(part, p, warm), pullback):
            with pytest.raises(ValueError, match="warm start has a coordinate that is not"):
                fn([0.8], [0.8, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_reduced_point(self, bad):
        # no stage reads u, so a value that is not finite there used to pass
        # into the ambient result
        part = _partition(["u", "x", "y"], ["x - u", "y - x"], eliminate_names=["y"])
        assert lift(part, [1.0, 1.0]).tolist() == [1.0, 1.0, 1.0]
        for fn in (lift, ftilde):
            with pytest.raises(ValueError, match="reduced point has a coordinate that is not"):
                fn(part, [bad, 1.0])


class TestPullback:
    def test_height_objective(self, curve3):
        f = parse_polynomial("y", curve3.order)
        ftilde = PulledBackObjective(f, curve3)
        value, ambient = ftilde(np.array([1.0, 0.0]))
        assert value == pytest.approx(-1.0, abs=1e-12)
        assert ambient.tolist() == [1.0, 0.0, value]

    def test_retained_only_objective_is_identity(self, curve3):
        f = parse_polynomial("x^2 + u^2", curve3.order)
        ftilde = PulledBackObjective(f, curve3)
        p = curve3_point(0.4)
        value, _ = ftilde(p)
        assert value == pytest.approx(p[0] ** 2 + p[1] ** 2, abs=1e-12)

    def test_sum_objective_on_quartic(self, quartic4):
        f = parse_polynomial("u + x + y1 + y2", quartic4.order)
        ftilde = PulledBackObjective(f, quartic4)
        value, _ = ftilde(np.array([1.0, 1.0]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_warm_start_chooses_the_sheet(self):
        # z^3 - 3z - x has three real roots at x = 0.8; a warm start near
        # each returns that root, whatever was called before
        part = _partition(
            ["u", "x", "z"], ["x - u", "z^3 - 3*z - x"], eliminate_names=["z"]
        )
        ftilde = PulledBackObjective(parse_polynomial("z", part.order), part)
        p = np.array([0.8, 0.8])
        roots = sorted(float(r.real) for r in np.roots([1.0, 0.0, -3.0, -0.8]))
        assert len(roots) == 3
        warms = [[0.8, 0.8, r + 0.05] for r in roots] + [None]
        first = [ftilde(p, warm) for warm in warms]
        for (value, ambient), root in zip(first, roots):
            assert value == pytest.approx(root, abs=1e-12)
            assert ambient[2] == value
        assert first[3][0] == first[1][0]  # no warm start: nearest zero
        again = [ftilde(p, warm) for warm in reversed(warms)][::-1]
        for (v1, a1), (v2, a2) in zip(first, again):
            assert v1 == v2 and a1.tobytes() == a2.tobytes()

    def test_objective_over_another_order(self, curve3):
        f = parse_polynomial("x", VariableOrder(["u", "x"]))
        with pytest.raises(ValueError, match="different variable order"):
            PulledBackObjective(f, curve3)

    def test_callable_objective(self, curve3):
        ftilde = PulledBackObjective(lambda z: float(z[2] ** 2), curve3)
        value, _ = ftilde(np.array([1.0, 0.0]))
        assert value == pytest.approx(1.0, abs=1e-12)


# -- warm-started projection ------------------------------------------------------


def _random_frame(rng: random.Random):
    """The tangent frame at a regular point of a random tower or system."""
    while True:
        part = random_system(rng, rng.random() < 0.5)
        base = manifold_start(part, rng)
        if base is None or residual_norm(part, base) > 1e-10:
            continue
        try:
            return tangent_frame(part, base)
        except NotRegularError:
            continue


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_warm_and_cold_projections_land_on_one_point(seed):
    """The chord from q0 and the chord from ``p + U (step - w)`` agree.

    ``p`` is the projection of ``w``, as after a success.  Both results lie
    in ``q0 + range(N)`` with residuals within ``residual_tol``, so to first
    order they differ by at most ``2 sqrt(k) residual_tol |N (J N)^-1|``,
    with J the Jacobian at the cold result and k its rows; ``4 eps |q|``
    covers the rounding of the two starts.  Where only one start meets the
    iteration cap both are retried without it in reach.  The cold chord may
    still fail alone, leaving the ball around q0 that the nearer start stays
    in; the warm one may not.
    """
    rng = random.Random(seed)
    frame = _random_frame(rng)
    part, m = frame.partition, frame.U.shape[1]
    cfg, roomy = ProjectionConfig(), ProjectionConfig(max_iters=5000)
    for _ in range(10):
        scale = rng.choice((1e-3, 1e-2, 0.1, 0.3))
        w = np.array([rng.gauss(0.0, scale) for _ in range(m)])
        p = project_to_manifold(frame, w, cfg)
        if p is None:
            continue
        step = w + np.array([rng.gauss(0.0, scale) for _ in range(m)])
        start = p + frame.U @ (step - w)
        cold = project_to_manifold(frame, step, cfg)
        warm = project_to_manifold(frame, step, cfg, start)
        if (cold is None) != (warm is None):
            cold = project_to_manifold(frame, step, roomy)
            warm = project_to_manifold(frame, step, roomy, start)
        if cold is None:
            continue
        assert warm is not None
        JN = jacobian(part, cold) @ frame.N
        bound = 2 * math.sqrt(len(JN)) * cfg.residual_tol * np.linalg.norm(
            frame.N @ np.linalg.inv(JN), 2
        )
        bound += 4 * np.finfo(float).eps * float(np.max(np.abs(cold)))
        assert np.linalg.norm(warm - cold) <= bound
