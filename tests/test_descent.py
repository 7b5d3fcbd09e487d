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
from polydescent.geometry import PulledBackObjective, lift, residuals
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
        f_prev = ftilde(start)
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
        relifted = lift(part, trace.final_reduced, warm=[amb[3]])
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
        calls = []
        real = descent_mod.project_to_manifold

        def spy(frame, w, cfg):
            calls.append((frame.base.copy(), np.asarray(w, dtype=float).copy()))
            return real(frame, w, cfg)

        monkeypatch.setattr(descent_mod, "project_to_manifold", spy)
        f = parse_polynomial("y", curve3.order)
        cfg = DescentConfig(alpha0=2.0, j_max=40, seed=2)
        trace = descend(DescentProblem(curve3, f, np.array([0.0, 1.0])), cfg)
        rebases = [r for r in trace.records if r.event == REBASE]
        assert rebases, "expected at least one oracle failure at alpha0=2"
        for rec in trace.records:
            if rec.event == REBASE and rec.j + 1 < len(trace.records):
                base_next, w_next = calls[2 * (rec.j + 1)]
                # next iteration polls from the re-based point with w reset,
                # so the poll displacement is exactly alpha * u
                assert np.allclose(base_next, rec.coords, atol=0)
                next_alpha = trace.records[rec.j + 1].alpha
                assert np.linalg.norm(w_next) == pytest.approx(
                    next_alpha, abs=1e-15
                )

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


class TestConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            DescentConfig(alpha0=0.0)
        with pytest.raises(ValueError):
            DescentConfig(alpha0=2.0, alpha_max=1.0)

    def test_bad_forcing(self):
        with pytest.raises(ValueError):
            DescentConfig(alpha0=0.1, c_forcing=-1.0)

    def test_alpha_max_cap(self, curve3):
        f = parse_polynomial("y", curve3.order)
        cfg = DescentConfig(alpha0=0.25, alpha_max=0.3, j_max=50, seed=7)
        trace = descend(
            DescentProblem(curve3, f, np.array([0.0, 1.0])), cfg
        )
        assert max(r.alpha for r in trace.records) <= 0.3
