"""``descend`` skips absorbed polls bit for bit.

An iteration whose two steps both equal the tangent offset emits its record
without projecting or lifting.  These tests hold ``descend`` to a reference
loop that projects and lifts on every iteration, and count what that saves.
"""

import math
import random
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import polydescent.descent as descent_mod
from conftest import manifold_start, random_polynomial, random_system
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
    LiftError,
    NotRegularError,
    PulledBackObjective,
    jacobian,
    lift,
    project_to_manifold,
    residuals,
    tangent_frame,
)
from polydescent.polynomials import (
    Monomial,
    Polynomial,
    VariableOrder,
    parse_polynomial,
)
from polydescent.triangular import validate_triangular, whitney_partition


def reference_descend(problem: DescentProblem, cfg: DescentConfig) -> DescentTrace:
    """The polling loop without the replay: every iteration projects and lifts.

    Each poll's projection starts from the accepted point moved along the
    tangent, ``p + U (step - w)``, and each poll is lifted from the accepted
    lift unless it projects onto ``p``.  Starts are assumed valid.  A run whose polls overflowed, went
    non-finite or started beyond the float range after its last acceptance
    does not count as converged.
    """
    part, pcfg = problem.partition, cfg.projection
    m = part.manifold_dim
    p = np.asarray(problem.start, dtype=float).copy()
    ftilde = PulledBackObjective(problem.objective, part)
    f_current, ambient = ftilde(p)
    c_forcing = cfg.c_forcing if cfg.c_forcing is not None else 1e-4 * (1.0 + abs(f_current))
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(m)
    alpha = cfg.alpha0
    frame = tangent_frame(part, p)
    overflowed = False
    records = []
    for j in range(cfg.j_max):
        alpha_j = alpha
        u = random_unit_direction(rng, m)
        steps = (w + alpha_j * u, w - alpha_j * u)
        starts = [p + frame.U @ (step - w) for step in steps]
        points = [
            project_to_manifold(frame, step, pcfg, start) for step, start in zip(steps, starts)
        ]
        alpha = 0.5 * alpha_j
        if points[0] is None or points[1] is None:
            q0s = [frame.base + frame.U @ s for s in steps]
            if not all(np.isfinite(q).all() for q in q0s + starts):
                overflowed = True
            frame = tangent_frame(part, p)
            w = np.zeros(m)
            event = REBASE
        else:
            threshold = f_current - c_forcing * alpha_j * alpha_j
            event = UNSUCCESSFUL
            for point, step in zip(points, steps):
                if np.array_equal(point, p):
                    continue
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
                    p, w, f_current = point, step, f_poll
                    ambient = lifted
                    alpha = min(cfg.alpha_max, 2.0 * alpha_j, sys.float_info.max)
                    event = SUCCESS
                    overflowed = False
                    break
        records.append(TraceRecord(j, alpha_j, f_current, event, tuple(p.tolist())))
    return DescentTrace(
        records=records,
        final_reduced=p,
        final_ambient=ambient,
        final_objective=f_current,
        converged=check_convergence(records, 500) and not overflowed,
        c_forcing=c_forcing,
    )


def _outcome(run, problem, cfg):
    try:
        return run(problem, cfg)
    except Exception as exc:  # compared below: both loops must fail alike
        return type(exc), str(exc)


def assert_same_run(problem: DescentProblem, cfg: DescentConfig) -> DescentTrace:
    got = _outcome(descend, problem, cfg)
    want = _outcome(reference_descend, problem, cfg)
    if not isinstance(want, DescentTrace) or not isinstance(got, DescentTrace):
        assert got == want
        return got
    assert got.records == want.records
    assert np.array_equal(got.final_reduced, want.final_reduced)
    assert np.array_equal(got.final_ambient, want.final_ambient)
    assert got.final_objective == want.final_objective
    assert got.converged == want.converged
    return got


def random_problem(rng: random.Random, tower: bool) -> DescentProblem:
    """A random system with a regular start whose lift succeeds.

    Towers take the benchmark's objective, the sum of squares of every
    ambient variable; other systems take a random polynomial.
    """
    while True:
        part = random_system(rng, tower)
        if tower:
            objective = Polynomial(
                part.order, {Monomial.of({v: 2}): Fraction(1) for v in range(len(part.order))}
            )
        else:
            objective = random_polynomial(rng, part.order)
        start = manifold_start(part, rng)
        if start is None or float(np.max(np.abs(residuals(part, start)))) > 1e-10:
            continue
        try:
            lift(part, start)
            tangent_frame(part, start)
        except (LiftError, NotRegularError):
            continue
        return DescentProblem(part, objective, start)


def count_projections(monkeypatch) -> list:
    """Spy on the projections ``descend`` makes; returns the steps it projects.

    The reference loop calls the projection by its own name, so it is not
    counted.
    """
    calls = []

    def spy(frame, w, cfg, start=None):
        calls.append(np.asarray(w, dtype=float).copy())
        return project_to_manifold(frame, w, cfg, start)

    monkeypatch.setattr(descent_mod, "project_to_manifold", spy)
    return calls


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.01, max_value=2.0),
)
def test_replay_matches_the_reference_loop(system_seed, tower, seed, alpha0):
    problem = random_problem(random.Random(system_seed), tower)
    cfg = DescentConfig(alpha0=alpha0, j_max=250, seed=seed)
    trace = assert_same_run(problem, cfg)
    if isinstance(trace, DescentTrace):
        assert_trace_laws(problem, cfg, trace)
        assert_pipeline_properties(problem, cfg, trace)
    else:
        assert issubclass(trace[0], (LiftError, NotRegularError, InvalidStartError, ValueError))


def assert_trace_laws(problem: DescentProblem, cfg: DescentConfig, trace: DescentTrace):
    """Sufficient decrease, the step law, and a final lift that is a fixed point."""
    part = problem.partition
    f_prev, _ = PulledBackObjective(problem.objective, part)(problem.start)
    coords = tuple(problem.start.tolist())
    alpha = cfg.alpha0
    for rec in trace.records:
        assert rec.alpha == alpha
        if rec.event == SUCCESS:
            assert rec.f < f_prev - trace.c_forcing * rec.alpha * rec.alpha
            f_prev, coords = rec.f, rec.coords
            alpha = min(cfg.alpha_max, 2.0 * rec.alpha, sys.float_info.max)
        else:
            assert (rec.f, rec.coords) == (f_prev, coords)
            alpha = 0.5 * rec.alpha
    amb = trace.final_ambient
    assert problem.objective.evaluate(amb) == trace.final_objective
    relifted = lift(part, trace.final_reduced, warm=amb)
    assert relifted.tobytes() == amb.tobytes()


def assert_pipeline_properties(problem: DescentProblem, cfg: DescentConfig, trace: DescentTrace):
    """The start's frame, records on the manifold, members at the final lift, a repeatable run.

    The frame at the start is orthonormal to 1e-12 and tangent to 1e-10
    relative to the Jacobian's largest entry.  The members hold to a
    backward error of 1e-9, relative to the sum of their terms' magnitudes:
    ambient values reach 1e5 on random systems, and past 1e51 a member's
    terms leave the float range, so each member is evaluated exactly at the
    float coordinates of the final lift.
    """
    part = problem.partition
    frame = tangent_frame(part, problem.start)
    m = frame.U.shape[1]
    assert np.max(np.abs(frame.U.T @ frame.U - np.eye(m))) <= 1e-12
    J = jacobian(part, frame.base)
    assert np.max(np.abs(J @ frame.U)) <= 1e-10 * (1 + np.max(np.abs(J)))
    for rec in trace.records:
        r = residuals(part, rec.coords)
        assert float(np.max(np.abs(r))) <= cfg.projection.residual_tol
    amb = [Fraction(v) for v in trace.final_ambient.tolist()]
    for g in part.system.polynomials:
        terms = [c * math.prod(amb[i] ** e for i, e in mono.exps) for mono, c in g.terms.items()]
        assert abs(sum(terms)) <= Fraction(1e-9) * max(1, sum(map(abs, terms)))
    assert descend(problem, cfg).records == trace.records


def test_members_at_a_lift_past_the_float_range():
    # the run ends at z2 = -2.7e51, z3 = 5.6e102, where the third member's
    # terms z2^2*z3^2 and z3^3 overflow in floats; evaluated exactly, the
    # members' backward errors are 0, 2.4e-17 and 3.5e-17
    problem = random_problem(random.Random(random.Random(605).getrandbits(32)), False)
    cfg = DescentConfig(alpha0=1.7668618094405681, j_max=250, seed=3957189629)
    trace = assert_same_run(problem, cfg)
    assert abs(trace.final_ambient[3]) > 1e102
    assert_trace_laws(problem, cfg, trace)
    assert_pipeline_properties(problem, cfg, trace)


def test_stall_right_after_a_rebase(circle, monkeypatch):
    # the last success is at j = 5 and the re-base at j = 6 resets w to 0, so
    # a step is absorbed only once alpha * u is exactly zero, at j = 1081;
    # from there on no iteration projects, and none projects the zero step
    f = parse_polynomial("-u", circle.order)
    problem = DescentProblem(circle, f, np.array([0.0, 1.0]))
    cfg = DescentConfig(alpha0=1.0, j_max=1200, seed=0)
    calls = count_projections(monkeypatch)
    trace = assert_same_run(problem, cfg)
    events = [r.event for r in trace.records]
    last_success = max(j for j, e in enumerate(events) if e == SUCCESS)
    last_rebase = max(j for j, e in enumerate(events) if e == REBASE)
    assert last_success < last_rebase
    j0 = next(r.j for r in trace.records if r.alpha == 0.0)
    assert last_rebase < j0 < cfg.j_max - 1
    assert len(calls) == 2 * j0
    zero = np.zeros(1).tobytes()
    assert all(c.tobytes() != zero for c in calls[2 * (last_rebase + 1) :])
    assert trace.converged


def test_a_failed_poll_past_a_fold_keeps_the_accepted_sheet():
    # the start lifts to the middle sheet of z^3 - 3z - x.  After the first
    # success at x ~ 0.7 the next poll crosses the fold at x = 2 and lifts to
    # the upper sheet, whose value is 1e-40 lower; that poll fails, and later
    # polls lift from the accepted lift again, so the upper sheet's value is
    # never compared at the accepted point and the run ends on the middle sheet
    order = VariableOrder(["u", "x", "z"])
    system = validate_triangular(
        [parse_polynomial("x - u", order), parse_polynomial("z^3 - 3*z - x", order)], order
    )
    part = whitney_partition(system, eliminate=[order.index("z")])
    upper = []

    def f(vals):
        u, x, z = vals
        if z > 1.5:
            upper.append(x)
            return -1e-40
        return 1.0 if x < 0.5 else 0.0

    problem = DescentProblem(part, f, np.zeros(2))
    trace = assert_same_run(problem, DescentConfig(alpha0=1.0, j_max=120, seed=0))
    assert upper and min(upper) > 2.0
    assert [r.j for r in trace.records if r.event == SUCCESS] == [0]
    assert trace.final_objective == 0.0
    assert abs(trace.final_ambient[2] + 0.2403) < 1e-4


def test_readme_curve_skips_nearly_every_projection(monkeypatch):
    order = VariableOrder(["u", "x", "y"])
    system = validate_triangular(
        [parse_polynomial("u^4 + x^2 - 1", order), parse_polynomial("u^2 + x^3 + y^5", order)],
        order,
    )
    part = whitney_partition(system, eliminate=[order.index("y")])
    problem = DescentProblem(part, parse_polynomial("y", order), np.array([0.0, 1.0]))
    calls = count_projections(monkeypatch)
    for seed in (0, 3, 7):
        calls.clear()
        cfg = DescentConfig(alpha0=0.25, j_max=5000, seed=seed)
        trace = descend(problem, cfg)
        assert len(calls) < 400  # 10,000 without the replay
        assert trace.converged
        assert trace.records == reference_descend(problem, cfg).records
