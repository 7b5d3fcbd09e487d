import math

import numpy as np
import pytest

import polydescent.descent as descent_mod
from polydescent.descent import (
    REBASE,
    SUCCESS,
    UNSUCCESSFUL,
    DescentConfig,
    DescentProblem,
    DescentTrace,
    InvalidStartError,
    TraceRecord,
    check_convergence,
    descend,
    random_unit_direction,
)
from polydescent.geometry import (
    NotRegularError,
    ProjectionConfig,
    PulledBackObjective,
    lift,
    residuals,
)
from polydescent.polynomials import VariableOrder, parse_polynomial
from polydescent.triangular import validate_triangular, whitney_partition


def curve_oracle_minimum() -> float:
    """Brute-force sweep of the height objective over the quartic curve."""
    us = np.linspace(-1.0, 1.0, 1_000_001)
    xs = np.sqrt(np.clip(1.0 - us**4, 0.0, None))
    best = math.inf
    for xb in (xs, -xs):
        t = us**2 + xb**3
        y = -np.sign(t) * np.abs(t) ** 0.2
        best = min(best, float(y.min()))
    return best


def hyperbola_oracle_minimum() -> float:
    """Dense sweep of (x-2)^2 + (u-2)^2 over the branch x = 1/u, u > 0."""
    us = np.linspace(1e-6, 10.0, 1_000_001)
    xs = 1.0 / us
    f = (xs - 2.0) ** 2 + (us - 2.0) ** 2
    return float(f.min())


class TestRandomUnitDirection:
    def test_one_dimensional_is_sign(self):
        rng = np.random.default_rng(0)
        draws = {float(random_unit_direction(rng, 1)[0]) for _ in range(50)}
        assert draws <= {-1.0, 1.0}
        assert len(draws) == 2

    def test_uniformity_monte_carlo(self):
        rng = np.random.default_rng(314)
        n = 100_000
        sums = np.zeros(3)
        for _ in range(n):
            v = random_unit_direction(rng, 3)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            sums += v
        # coordinate variance on the sphere is 1/3
        sigma = math.sqrt((1.0 / 3.0) / n)
        assert np.max(np.abs(sums / n)) <= 3 * sigma

    def test_determinism(self):
        a = [random_unit_direction(np.random.default_rng(42), 4) for _ in range(10)]
        b = [random_unit_direction(np.random.default_rng(42), 4) for _ in range(10)]
        for va, vb in zip(a, b):
            assert np.array_equal(va, vb)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            random_unit_direction(np.random.default_rng(0), 0)


class TestDescendCurve:
    def test_reaches_sweep_minimum(self, curve3):
        f = parse_polynomial("y", curve3.order)
        start = np.array([math.sqrt(4.0 / 5.0), 0.6])
        cfg = DescentConfig(alpha0=0.25, c_forcing=1.0, j_max=5000, seed=7)
        trace = descend(DescentProblem(curve3, f, start), cfg)
        oracle = curve_oracle_minimum()
        assert abs(trace.final_objective - oracle) <= 1e-3
        assert trace.converged
        assert check_convergence(trace, window=500)

    def test_constant_objective_never_moves(self, curve3):
        f = parse_polynomial("7", curve3.order)
        start = np.array([0.0, 1.0])
        cfg = DescentConfig(alpha0=0.25, j_max=60, seed=3)
        trace = descend(DescentProblem(curve3, f, start), cfg)
        assert all(r.event == UNSUCCESSFUL for r in trace.records)
        alphas = [r.alpha for r in trace.records]
        assert alphas == [0.25 * 0.5**j for j in range(60)]
        for r in trace.records:
            assert r.coords == tuple(start.tolist())

    def test_invalid_start(self, curve3):
        f = parse_polynomial("y", curve3.order)
        with pytest.raises(InvalidStartError):
            descend(
                DescentProblem(curve3, f, np.array([0.0, 2.0])),
                DescentConfig(alpha0=0.25, j_max=10),
            )

    def test_zero_iterations_echoes_start(self, curve3):
        f = parse_polynomial("y", curve3.order)
        start = np.array([0.0, 1.0])
        trace = descend(
            DescentProblem(curve3, f, start), DescentConfig(alpha0=0.25, j_max=0)
        )
        assert trace.records == []
        assert np.array_equal(trace.final_reduced, start)
        assert not trace.converged


class TestDescendHyperbola:
    def test_reaches_sweep_minimum(self, quartic4):
        f = parse_polynomial("x^2 + u^2 - 4*x - 4*u + 8", quartic4.order)
        start = np.array([0.5, 2.0])
        cfg = DescentConfig(alpha0=0.25, c_forcing=1.0, j_max=3000, seed=11)
        trace = descend(DescentProblem(quartic4, f, start), cfg)
        assert abs(trace.final_objective - hyperbola_oracle_minimum()) <= 1e-3

    def test_lifted_points_feasible(self, quartic4):
        from conftest import quartic4_originals

        f = parse_polynomial("x^2 + u^2 - 4*x - 4*u + 8", quartic4.order)
        cfg = DescentConfig(alpha0=0.25, j_max=200, seed=5)
        trace = descend(DescentProblem(quartic4, f, np.array([0.5, 2.0])), cfg)
        originals = quartic4_originals(quartic4.order)
        for rec in trace.records[::10]:
            amb = lift(quartic4, np.array(rec.coords))
            for g in originals:
                assert abs(g.evaluate(amb)) <= 1e-9


class TestProcedureLaws:
    def test_step_size_law_and_monotonicity(self, curve3):
        f = parse_polynomial("y", curve3.order)
        start = np.array([0.0, 1.0])
        cfg = DescentConfig(alpha0=0.25, alpha_max=0.4, j_max=400, seed=1)
        trace = descend(DescentProblem(curve3, f, start), cfg)
        ftilde = PulledBackObjective(f, curve3)
        f_prev, _ = ftilde(start)
        alpha_prev = None
        for rec in trace.records:
            if alpha_prev is not None:
                assert rec.alpha in (
                    0.5 * alpha_prev,
                    min(0.4, 2.0 * alpha_prev),
                )
            if rec.event == SUCCESS:
                assert rec.f < f_prev - trace.c_forcing * rec.alpha**2
                f_prev = rec.f
            else:
                assert rec.f == f_prev
            alpha_prev = rec.alpha

    def test_trace_points_feasible(self, curve3):
        f = parse_polynomial("y", curve3.order)
        cfg = DescentConfig(alpha0=0.5, j_max=300, seed=9)
        trace = descend(DescentProblem(curve3, f, np.array([0.0, 1.0])), cfg)
        for rec in trace.records[::7]:
            r = residuals(curve3, np.array(rec.coords))
            assert float(np.max(np.abs(r))) <= cfg.projection.residual_tol

    @pytest.mark.parametrize("j_max", [0, 11])
    def test_final_ambient_is_the_accepted_lift(self, j_max):
        # z^3 - 3z - x has three real roots near x = 0.8, so the final point
        # must stay on the sheet the accepted polls were lifted to; the
        # 11-iteration run ends on an unsuccessful poll, whose lift is not it
        order = VariableOrder(["u", "x", "y", "z"])
        polys = [
            parse_polynomial(t, order)
            for t in ("u^2 + x^2 - 1", "y - u", "z^3 - 3*z - x")
        ]
        part = whitney_partition(validate_triangular(polys, order), "auto")
        assert part.eliminated == (3,)
        f = parse_polynomial("z - y", order)
        cfg = DescentConfig(alpha0=0.25, j_max=j_max, seed=4)
        trace = descend(DescentProblem(part, f, np.array([0.6, 0.8, 0.6])), cfg)
        amb = trace.final_ambient
        assert np.array_equal(amb[list(part.retained)], trace.final_reduced)
        assert f.evaluate(amb) == trace.final_objective
        relifted = lift(part, trace.final_reduced, warm=amb)
        assert np.array_equal(relifted, amb)

    def test_determinism(self, curve3):
        f = parse_polynomial("y", curve3.order)
        cfg = DescentConfig(alpha0=0.25, j_max=250, seed=123)
        p = DescentProblem(curve3, f, np.array([0.0, 1.0]))
        t1 = descend(p, cfg)
        t2 = descend(p, cfg)
        assert t1.records == t2.records
        assert np.array_equal(t1.final_ambient, t2.final_ambient)

    def test_rebase_resets_frame_and_tangent(self, curve3, monkeypatch):
        # big alpha0 forces oracle failures; spy on the projection calls
        # keyed by iteration: the number of records emitted before the call
        calls: dict[int, list] = {}
        emitted = []
        real = descent_mod.project_to_manifold

        def spy(frame, w, cfg, start=None):
            w = np.asarray(w, dtype=float).copy()
            q0 = frame.base + frame.U @ w
            calls.setdefault(len(emitted), []).append((frame.base.copy(), w, q0, start.copy()))
            return real(frame, w, cfg, start)

        monkeypatch.setattr(descent_mod, "project_to_manifold", spy)
        f = parse_polynomial("y", curve3.order)
        cfg = DescentConfig(alpha0=2.0, j_max=40, seed=2)
        trace = descend(
            DescentProblem(curve3, f, np.array([0.0, 1.0])), cfg, emitted.append
        )
        rebases = [r for r in trace.records if r.event == REBASE]
        assert rebases, "expected at least one oracle failure at alpha0=2"
        for rec in trace.records:
            if rec.event == REBASE and rec.j + 1 < len(trace.records):
                base_next, w_next, q0_next, start_next = calls[rec.j + 1][0]
                # next iteration polls from the re-based point with w reset,
                # so the poll displacement is exactly alpha * u and the chord
                # starts at q0 = base + U w itself
                assert np.allclose(base_next, rec.coords, atol=0)
                assert start_next.tobytes() == q0_next.tobytes()
                next_alpha = trace.records[rec.j + 1].alpha
                assert np.linalg.norm(w_next) == pytest.approx(
                    next_alpha, abs=1e-15
                )

    def test_a_poll_onto_the_current_point_is_not_accepted(self):
        # on x = 0 at u = 1e6 a step of 1e-12 moves w off zero, so it is
        # polled, but the chord starts at 1e6 + 1e-12 = 1e6, the point
        # itself.  The objective drops on every evaluation, as a lift's
        # rounding could: a poll at the current point must still fail
        order = VariableOrder(["u", "x"])
        part = whitney_partition(
            validate_triangular([parse_polynomial("x", order)], order), eliminate=[]
        )
        evaluations = []

        def f(z):
            evaluations.append(z)
            return -float(len(evaluations))

        cfg = DescentConfig(alpha0=1e-12, j_max=20, seed=0)
        trace = descend(DescentProblem(part, f, np.array([1e6, 0.0])), cfg)
        assert {r.event for r in trace.records} == {UNSUCCESSFUL}
        assert {r.coords for r in trace.records} == {(1e6, 0.0)}
        assert len(evaluations) == 1  # the start only

    def test_lift_failures_are_unsuccessful_polls(self):
        # the lift has no real solution past x = 1; polls there must fail
        # quietly instead of raising
        order = VariableOrder(["u", "x", "y"])
        polys = [
            parse_polynomial("x - u", order),
            parse_polynomial("y^2 + 2*y + x", order),
        ]
        part = whitney_partition(
            validate_triangular(polys, order), eliminate=[order.index("y")]
        )
        f = parse_polynomial("y", order)
        cfg = DescentConfig(alpha0=0.5, c_forcing=1e-6, j_max=2000, seed=4)
        trace = descend(DescentProblem(part, f, np.zeros(2)), cfg)
        assert trace.final_objective < -0.8
        assert any(r.event == UNSUCCESSFUL for r in trace.records)


class TestNumericFailures:
    """Overflow and non-finite values fail a poll or reject the start; no crash."""

    @staticmethod
    def _line(constraint):
        order = VariableOrder(["u", "x"])
        sys = validate_triangular([parse_polynomial(constraint, order)], order)
        return whitney_partition(sys, "auto")

    def test_overflowing_objective_fails_the_poll(self):
        # -u^3 keeps doubling its step along x = u, re-basing where the
        # absolute tolerance cannot be met at this scale, until u^3 leaves
        # the float range 1,564 iterations in: the first failed poll
        part = self._line("x - u")
        f = parse_polynomial("-u^3", part.order)
        cfg = DescentConfig(alpha0=0.25, j_max=1600, seed=0)
        trace = descend(DescentProblem(part, f, np.zeros(2)), cfg)
        assert trace.iterations == 1600
        events = [r.event for r in trace.records]
        assert UNSUCCESSFUL not in events[:1564]
        assert events[1564] == UNSUCCESSFUL
        assert all(math.isfinite(r.f) for r in trace.records)

    def test_stuck_chord_gives_up_without_spending_its_iterations(self, monkeypatch):
        # past about 1e6 on x = u a chord update rounds back to the same two
        # floats, so the projection fails at once instead of evaluating all
        # max_iters + 1 residuals; the trace is the same either way, since
        # every later update would repeat it
        part = self._line("x - u")
        f = parse_polynomial("-u^3", part.order)
        calls = []
        real = part.compiled.residuals
        monkeypatch.setattr(part.compiled, "residuals", lambda q: calls.append(1) or real(q))
        cfg = DescentConfig(alpha0=0.25, j_max=3000, seed=0)
        trace = descend(DescentProblem(part, f, np.zeros(2)), cfg)
        events = [r.event for r in trace.records]
        counts = {e: events.count(e) for e in (SUCCESS, UNSUCCESSFUL, REBASE)}
        assert counts == {SUCCESS: 976, UNSUCCESSFUL: 1413, REBASE: 611}
        assert len(calls) <= 4000

    def test_overflow_after_the_last_acceptance_is_not_convergence(self):
        # -u^3 is unbounded below along x = u: the accepted value reaches
        # -1.797e308, then every poll overflows and the step dies down
        part = self._line("x - u")
        f = parse_polynomial("-u^3", part.order)
        cfg = DescentConfig(alpha0=0.25, j_max=2500, seed=0)
        trace = descend(DescentProblem(part, f, np.zeros(2)), cfg)
        assert trace.final_objective < -1e308
        assert check_convergence(trace, window=500)
        assert trace.converged is False

    def test_overflowing_projection_rebases(self):
        # with no oracle radius the chord iteration follows u out until
        # u^4 overflows in a residual, 257 iterations in
        part = self._line("x - u^4")
        f = parse_polynomial("-u^3", part.order)
        cfg = DescentConfig(
            alpha0=0.25,
            j_max=400,
            seed=0,
            projection=ProjectionConfig(oracle_radius=math.inf),
        )
        trace = descend(DescentProblem(part, f, np.zeros(2)), cfg)
        assert trace.iterations == 400
        assert trace.records[257].event == REBASE
        assert all(math.isfinite(r.f) for r in trace.records)

    def test_non_finite_step_rebases(self):
        # -u is unbounded below along x = 0, so the step doubles on every
        # success until w - alpha * u leaves the float range at j = 1023;
        # that poll's projection fails and the iteration re-bases.  Later
        # successes reach u = 1.797e308, where the poll starts leave the
        # float range although the steps do not: not converged
        order = VariableOrder(["u", "x"])
        sys = validate_triangular([parse_polynomial("x", order)], order)
        part = whitney_partition(sys, eliminate=[])
        f = parse_polynomial("-u", order)
        cfg = DescentConfig(alpha0=1.0, c_forcing=5e-324, j_max=3000, seed=0)
        trace = descend(DescentProblem(part, f, np.zeros(2)), cfg)
        assert trace.iterations == 3000
        assert {r.event for r in trace.records[:1023]} == {SUCCESS}
        assert trace.records[1023].event == REBASE
        assert all(math.isfinite(r.f) for r in trace.records)
        assert trace.converged is False

    def test_overflowing_lifts_fail_their_polls(self, monkeypatch):
        # y = 1e305 / x leaves the float range once x falls below about
        # 5.56e-4: the lifts of the polls there raise OverflowError, and the
        # descent stops at the last x whose lift is finite
        order = VariableOrder(["u", "x", "y"])
        polys = [
            parse_polynomial("u^2 + x^2 - 1", order),
            parse_polynomial("x*y - 1" + "0" * 305, order),
        ]
        part = whitney_partition(
            validate_triangular(polys, order), eliminate=[order.index("y")]
        )
        overflows = []

        class Spy(PulledBackObjective):
            def __call__(self, p, warm=None):
                try:
                    return super().__call__(p, warm)
                except OverflowError:
                    overflows.append(p)
                    raise

        monkeypatch.setattr(descent_mod, "PulledBackObjective", Spy)
        f = parse_polynomial("u", order)
        cfg = DescentConfig(alpha0=0.25, j_max=2000, seed=0)
        trace = descend(DescentProblem(part, f, np.array([0.0, 1.0])), cfg)
        assert overflows
        assert trace.iterations == 2000
        assert all(
            math.isfinite(r.f) and all(map(math.isfinite, r.coords)) for r in trace.records
        )
        assert np.isfinite(trace.final_ambient).all()
        assert 5e-4 < trace.final_reduced[1] < 6e-4

    def test_doubled_step_is_capped_at_the_largest_float(self):
        # from alpha0 = 1e308 the first success would double the step to
        # inf, and 0.5 * inf is inf, so every later iteration re-based.
        # Capped, the step stays finite and the descent keeps succeeding
        order = VariableOrder(["u", "x"])
        sys = validate_triangular([parse_polynomial("x", order)], order)
        part = whitney_partition(sys, eliminate=[])
        f = parse_polynomial("-u", order)
        cfg = DescentConfig(alpha0=1e308, c_forcing=5e-324, j_max=50, seed=0)
        trace = descend(DescentProblem(part, f, np.zeros(2)), cfg)
        events = [r.event for r in trace.records]
        assert (events.count(SUCCESS), events.count(REBASE)) == (13, 37)
        assert all(math.isfinite(r.alpha) for r in trace.records)
        assert trace.converged is False

    def test_infinite_objective_fails_the_poll(self, circle):
        hits = []

        def f(z):
            if z[0] > 0.5:
                hits.append(z[0])
                return -math.inf
            return -float(z[0])

        cfg = DescentConfig(alpha0=0.25, j_max=1000, seed=0)
        trace = descend(DescentProblem(circle, f, np.array([0.0, 1.0])), cfg)
        assert hits
        assert all(math.isfinite(r.f) for r in trace.records)
        assert trace.final_objective >= -0.5

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_is_rejected(self, circle, value):
        with pytest.raises(InvalidStartError):
            descend(
                DescentProblem(circle, lambda z: value, np.array([0.0, 1.0])),
                DescentConfig(alpha0=0.25, j_max=10),
            )

    def test_non_finite_start_point_is_rejected(self, circle):
        # the objective x is finite there, so only the start gate stops it
        f = parse_polynomial("x", circle.order)
        message = r"start point \[nan, 1.0\] is not finite"
        with pytest.raises(InvalidStartError, match=message):
            descend(
                DescentProblem(circle, f, np.array([math.nan, 1.0])),
                DescentConfig(alpha0=0.25, j_max=10),
            )

    def test_non_finite_unconstrained_coordinate_is_rejected(self):
        # z is in no constraint, so the start residual is finite and every
        # poll would re-base without ever moving z
        order = VariableOrder(["u", "x", "z"])
        sys = validate_triangular([parse_polynomial("u^2 + x^2 - 1", order)], order)
        part = whitney_partition(sys, eliminate=[])
        problem = DescentProblem(
            part, parse_polynomial("u", order), np.array([0.0, 1.0, math.nan])
        )
        with pytest.raises(InvalidStartError, match="is not finite"):
            descend(problem, DescentConfig(alpha0=0.25, j_max=1000))

    def test_overflowing_start_residual_is_rejected(self, circle):
        # u^2 leaves the float range at u = 1e200: the start gate rejects it
        # instead of letting the OverflowError escape
        f = parse_polynomial("x", circle.order)
        with pytest.raises(InvalidStartError, match="start residual inf"):
            descend(
                DescentProblem(circle, f, np.array([1e200, 1.0])),
                DescentConfig(alpha0=0.25, j_max=10),
            )

    def test_start_with_a_non_finite_jacobian_is_not_regular(self):
        # at u = 1e8, x = 1 the residual A*u - A*u + 0 is 0, but dg/dx is
        # 2*A*u - 3*A*u + 1 = inf - inf; the SVD used to fail on the NaN
        big = "1" + "0" * 300
        part = self._line(f"{big}*u*x^2 - {big}*u*x^3 + x - 1")
        f = parse_polynomial("u", part.order)
        with pytest.raises(NotRegularError, match="is not finite"):
            descend(
                DescentProblem(part, f, np.array([1e8, 1.0])),
                DescentConfig(alpha0=0.25, j_max=10),
            )

    def test_non_finite_start_residual_is_rejected(self):
        # finite coordinates whose residual is inf - inf: A*u*x and A*u*x^2
        # both overflow at u = 1e10, x = 1
        big = "1" + "0" * 300
        part = self._line(f"{big}*u*x - {big}*u*x^2 + x - 1")
        f = parse_polynomial("x", part.order)
        with pytest.raises(InvalidStartError, match="start residual nan"):
            descend(
                DescentProblem(part, f, np.array([1e10, 1.0])),
                DescentConfig(alpha0=0.25, j_max=10),
            )


class TestCheckConvergence:
    def _trace(self, records):
        return DescentTrace(
            records=records,
            final_reduced=np.zeros(1),
            final_ambient=np.zeros(1),
            final_objective=0.0,
            converged=False,
            c_forcing=1.0,
        )

    def test_rebasing_forever_is_divergence(self):
        records = [
            TraceRecord(j, 0.25 * 0.5**j, 1.0, REBASE, (0.0,)) for j in range(100)
        ]
        assert not check_convergence(self._trace(records), window=50)

    def test_settled_trace_converges(self):
        records = [
            TraceRecord(j, 0.25 * 0.5**j, 1.0, UNSUCCESSFUL, (0.0,))
            for j in range(40)
        ]
        assert check_convergence(self._trace(records), window=20)
        assert not check_convergence(self._trace(records[:10]), window=5)

    def test_empty_trace(self):
        assert not check_convergence(self._trace([]), window=10)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_is_rejected(self, window):
        # records[-0:] is the whole trace and a negative window skips its
        # head, so neither reads as the last few iterations
        records = [TraceRecord(0, 0.25, 1.0, REBASE, (0.0,))] + [
            TraceRecord(j, 0.25 * 0.5**j, 1.0, UNSUCCESSFUL, (0.0,)) for j in range(1, 40)
        ]
        assert check_convergence(self._trace(records), window=1)
        with pytest.raises(ValueError, match="window must be at least 1"):
            check_convergence(self._trace(records), window=window)

    @pytest.mark.parametrize("window", [2.5, 2.0, "2", None])
    def test_window_must_be_an_integer(self, window):
        # a float passes the gate and then fails as a slice index
        records = [TraceRecord(j, 0.25 * 0.5**j, 1.0, UNSUCCESSFUL, (0.0,)) for j in range(40)]
        with pytest.raises(ValueError, match="window must be an integer"):
            check_convergence(self._trace(records), window=window)
        assert check_convergence(self._trace(records), window=np.int64(2))


class TestConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            DescentConfig(alpha0=0.0)
        with pytest.raises(ValueError):
            DescentConfig(alpha0=2.0, alpha_max=1.0)

    def test_bad_forcing(self):
        with pytest.raises(ValueError):
            DescentConfig(alpha0=0.1, c_forcing=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_forcing_must_be_finite(self, value):
        # a NaN or infinite C accepts no step, and the run would report
        # convergence once the step had halved away
        with pytest.raises(ValueError, match="c_forcing must be positive and finite"):
            DescentConfig(alpha0=0.1, c_forcing=value)

    @pytest.mark.parametrize("alpha_max", [math.inf, math.nan])
    def test_alpha0_must_be_finite(self, alpha_max):
        with pytest.raises(ValueError, match="alpha0 finite"):
            DescentConfig(alpha0=math.inf, alpha_max=alpha_max)

    @pytest.mark.parametrize("field", ["j_max", "seed"])
    def test_negative_count(self, field):
        with pytest.raises(ValueError, match=field):
            DescentConfig(alpha0=0.1, **{field: -1})

    @pytest.mark.parametrize("value", [2.5, 2.0, "2", None])
    @pytest.mark.parametrize("field", ["j_max", "seed"])
    def test_count_must_be_an_integer(self, field, value):
        # range() and SeedSequence would raise a bare TypeError inside descend
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DescentConfig(alpha0=0.25, **{field: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, "2", None])
    def test_projection_iterations_must_be_an_integer(self, value):
        # load_problem's start projection would fail with a bare TypeError
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            ProjectionConfig(max_iters=value)

    def test_numpy_integers_are_counts(self, curve3):
        n = np.int64(3)
        cfg = DescentConfig(alpha0=0.25, j_max=n, seed=n, projection=ProjectionConfig(max_iters=n))
        f = parse_polynomial("y", curve3.order)
        trace = descend(DescentProblem(curve3, f, np.array([0.0, 1.0])), cfg)
        assert len(trace.records) == 3

    @pytest.mark.parametrize("start", [[0.0], [0.0, 1.0, 0.0], [[0.0, 1.0]]])
    def test_start_of_the_wrong_shape(self, curve3, start):
        f = parse_polynomial("y", curve3.order)
        with pytest.raises(ValueError, match="start point must have 2"):
            descend(DescentProblem(curve3, f, np.array(start)), DescentConfig(alpha0=0.25))

    def test_zero_dimensional_manifold(self):
        order = VariableOrder(["u", "x"])
        polys = [parse_polynomial("u", order), parse_polynomial("x", order)]
        part = whitney_partition(validate_triangular(polys, order), eliminate=[])
        problem = DescentProblem(part, parse_polynomial("u", order), np.zeros(2))
        with pytest.raises(ValueError, match="manifold dimension is zero"):
            descend(problem, DescentConfig(alpha0=0.25))

    def test_alpha_max_cap(self, curve3):
        f = parse_polynomial("y", curve3.order)
        cfg = DescentConfig(alpha0=0.25, alpha_max=0.3, j_max=50, seed=7)
        trace = descend(
            DescentProblem(curve3, f, np.array([0.0, 1.0])), cfg
        )
        assert max(r.alpha for r in trace.records) <= 0.3
