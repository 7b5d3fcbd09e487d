"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines inline.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    curve3_height,
    curve3_point,
    quartic4_originals,
    random_nonconstant_polynomial,
    random_polynomial,
)
from polydescent.descent import DescentConfig, DescentProblem, descend
from polydescent.geodesics import GeodesicState, christoffel, geodesic_integrate
from polydescent.geometry import (
    NotRegularError,
    jacobian,
    lift,
    project_to_manifold,
    residuals,
    tangent_frame,
)
from polydescent.polynomials import Polynomial, VariableOrder, parse_polynomial
from polydescent.triangular import linear_whitney, validate_triangular, whitney_partition

CURVE_PROBLEM = """\
vars: u x y
eliminate: y
constraint: u^4 + x^2 - 1
constraint: u^2 + x^3 + y^5
objective: y
start: u=0, x=1
"""


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num}] {name}: {status}{suffix}")
    return ok


def _curve_sweep_minimum() -> float:
    us = np.linspace(-1.0, 1.0, 1_000_001)
    xs = np.sqrt(np.clip(1.0 - us**4, 0.0, None))
    best = math.inf
    for xb in (xs, -xs):
        t = us**2 + xb**3
        y = -np.sign(t) * np.abs(t) ** 0.2
        best = min(best, float(y.min()))
    return best


def test_criterion_1_curve_end_to_end(curve3):
    f = parse_polynomial("y", curve3.order)
    start = np.array([0.0, 1.0])
    t0 = time.perf_counter()
    oracle = _curve_sweep_minimum()
    finals = []
    for seed in range(10):
        cfg = DescentConfig(alpha0=0.25, j_max=5000, seed=seed)
        trace = descend(DescentProblem(curve3, f, start), cfg)
        finals.append(trace.final_objective)
    elapsed = time.perf_counter() - t0
    errs = [abs(v - oracle) for v in finals]
    spread = max(finals) - min(finals)
    ok = max(errs) <= 1e-3 and spread <= 1e-3 and elapsed < 10.0
    assert _verdict(
        1,
        "curve end-to-end, 10 seeds",
        ok,
        f"max |f - oracle| = {max(errs):.2e}, seed spread {spread:.2e}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_2_hyperbola_end_to_end(quartic4):
    f = parse_polynomial("x^2 + u^2 - 4*x - 4*u + 8", quartic4.order)
    us = np.linspace(1e-6, 10.0, 1_000_001)
    oracle = float(((1.0 / us - 2.0) ** 2 + (us - 2.0) ** 2).min())

    cfg = DescentConfig(alpha0=0.25, j_max=3000, seed=2)
    trace = descend(DescentProblem(quartic4, f, np.array([0.5, 2.0])), cfg)
    err = abs(trace.final_objective - oracle)

    originals = quartic4_originals(quartic4.order)
    worst = 0.0
    for rec in trace.records:
        amb = lift(quartic4, np.array(rec.coords))
        worst = max(worst, max(abs(g.evaluate(amb)) for g in originals))
    ok = err <= 1e-3 and worst <= 1e-9
    assert _verdict(
        2,
        "hyperbola branch end-to-end",
        ok,
        f"|f - oracle| = {err:.2e}, worst lifted residual {worst:.2e}",
    )


def test_criterion_3_projection_suite(curve3):
    rng = np.random.default_rng(33)
    points = [
        curve3_point(float(u), branch)
        for branch in (+1, -1)
        for u in np.linspace(-0.9, 0.9, 10)
    ]
    t0 = time.perf_counter()
    n_ok = n_fail = 0
    for p in points:
        frame = tangent_frame(curve3, p)
        for _ in range(100):
            w = rng.uniform(-0.1, 0.1, size=1)
            q = project_to_manifold(frame, w)
            if q is None:
                continue
            q0 = frame.base + frame.U @ w
            if (
                float(np.max(np.abs(residuals(curve3, q)))) <= 1e-10
                and np.linalg.norm(q - q0) <= 0.5
            ):
                n_ok += 1
        for _ in range(100):
            w = rng.choice([-1.0, 1.0]) * (10.0 + rng.uniform(0, 5))
            if project_to_manifold(frame, [w]) is None:
                n_fail += 1
    elapsed = time.perf_counter() - t0
    ok = n_ok == 2000 and n_fail == 2000 and elapsed < 1.0
    assert _verdict(
        3,
        "projection suite",
        ok,
        f"{n_ok}/2000 small-step successes, {n_fail}/2000 large-step "
        f"failures, runtime {elapsed:.2f}s",
    )


def test_criterion_4_lift_suite(curve3):
    rng = np.random.default_rng(44)
    polys = curve3.system.polynomials
    t0 = time.perf_counter()
    worst_y = worst_res = 0.0
    for _ in range(1000):
        u = float(rng.uniform(-1, 1))
        branch = 1 if rng.random() < 0.5 else -1
        p = curve3_point(u, branch)
        amb = lift(curve3, p)
        worst_y = max(worst_y, abs(amb[2] - curve3_height(p[0], p[1])))
        worst_res = max(worst_res, max(abs(g.evaluate(amb)) for g in polys))
    elapsed = time.perf_counter() - t0
    ok = worst_y <= 1e-9 and worst_res <= 1e-9 and elapsed < 1.0
    assert _verdict(
        4,
        "lift suite, 1000 samples",
        ok,
        f"max |y - closed form| = {worst_y:.2e}, max residual "
        f"{worst_res:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_5_frame_suite(curve3, quartic4, circle):
    worst_orth = worst_tan = 0.0
    frames = []
    for u in np.linspace(-0.9, 0.9, 10):
        frames.append(tangent_frame(curve3, curve3_point(float(u))))
    for u in np.linspace(0.3, 3.0, 10):
        frames.append(tangent_frame(quartic4, np.array([float(u), 1.0 / u])))
    for t in np.linspace(0.0, 2 * math.pi, 10, endpoint=False):
        frames.append(tangent_frame(circle, np.array([math.sin(t), math.cos(t)])))
    for fr in frames:
        m = fr.U.shape[1]
        worst_orth = max(
            worst_orth, float(np.max(np.abs(fr.U.T @ fr.U - np.eye(m))))
        )
        J = jacobian(fr.partition, fr.base)
        jn = float(np.max(np.abs(J)))
        worst_tan = max(
            worst_tan, float(np.max(np.abs(J @ fr.U))) / (1e-10 * (1 + jn))
        )

    order = VariableOrder(["u", "x"])
    cross = whitney_partition(
        validate_triangular([parse_polynomial("u*x", order)], order), eliminate=[]
    )
    try:
        tangent_frame(cross, [0.0, 0.0])
        singular_ok = False
    except NotRegularError:
        singular_ok = True

    ok = worst_orth <= 1e-12 and worst_tan <= 1.0 and singular_ok
    assert _verdict(
        5,
        "tangent frame suite",
        ok,
        f"max |U'U - I| = {worst_orth:.2e}, max scaled |JU| = {worst_tan:.2e}, "
        f"singular point raises: {singular_ok}",
    )


def test_criterion_6_geodesic_suite(circle):
    state = GeodesicState(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    out = geodesic_integrate(circle, state, math.pi / 2, 1e-3)
    quarter_err = float(np.max(np.abs(out.position - np.array([1.0, 0.0]))))

    order = VariableOrder(["u", "x"])
    curve = whitney_partition(
        validate_triangular([parse_polynomial("u^4 + x^2 - 1", order)], order),
        eliminate=[],
    )
    p0 = curve3_point(0.3)
    v0 = tangent_frame(curve, p0).U[:, 0]
    run = geodesic_integrate(curve, GeodesicState(p0, v0), 1.0, 1e-3)
    drift = abs(np.linalg.norm(run.velocity) - 1.0)

    rng = np.random.default_rng(6)
    worst_sym = 0.0
    for part, point_fn in (
        (circle, lambda r: np.array([math.sin(r), math.cos(r)])),
        (curve, lambda r: curve3_point(float(np.tanh(r)))),
    ):
        for _ in range(10):
            gamma = christoffel(part, point_fn(rng.normal()))
            worst_sym = max(
                worst_sym, float(np.max(np.abs(gamma - gamma.transpose(0, 2, 1))))
            )

    ok = quarter_err <= 1e-6 and drift <= 1e-6 and worst_sym <= 1e-14
    assert _verdict(
        6,
        "geodesic suite",
        ok,
        f"quarter-turn error {quarter_err:.2e}, speed drift {drift:.2e}, "
        f"max asymmetry {worst_sym:.2e}",
    )


def test_criterion_7_calculus_suite():
    rng = random.Random(77)
    h = 1e-6
    fd_ok = True
    for _ in range(200):
        nv = rng.randint(1, 5)
        order = VariableOrder([f"z{i}" for i in range(nv)])
        p = random_polynomial(rng, order)
        z = [rng.uniform(-1, 1) for _ in range(nv)]
        for v in range(nv):
            zp, zm = list(z), list(z)
            zp[v] += h
            zm[v] -= h
            fd = (p.evaluate(zp) - p.evaluate(zm)) / (2 * h)
            exact = p.derivative(v).evaluate(z)
            if abs(fd - exact) > 1e-6 * (1 + abs(exact)):
                fd_ok = False

    recon_ok = True
    order = VariableOrder(["a", "b", "c", "d", "e"])
    for _ in range(1000):
        p = random_nonconstant_polynomial(rng, order)
        initial, d, rank, tail, head = p.decompose()
        rank_poly = Polynomial(order, {rank: Fraction(1)})
        if initial * rank_poly + tail != p or head != p - tail:
            recon_ok = False

    ok = fd_ok and recon_ok
    assert _verdict(
        7,
        "calculus suite",
        ok,
        f"finite differences: {fd_ok}, exact reconstruction: {recon_ok}",
    )


def test_criterion_8_linear_special_case():
    rng = np.random.default_rng(88)
    k, m = 4, 1
    worst_res = worst_match = 0.0
    for _ in range(100):
        A = rng.normal(size=(k, m + k))
        b = rng.normal(size=k)
        form = linear_whitney(A, b, m)
        u = rng.normal(size=m)
        x = form.solve_reduced(u)
        z = form.recover(x, u)
        worst_res = max(worst_res, float(np.linalg.norm(A @ z - b)))
        split = k - m - 1
        rhs = b - A[:, split:k] @ x - A[:, k:] @ u
        y_direct, *_ = np.linalg.lstsq(A[:, :split], rhs, rcond=None)
        worst_match = max(worst_match, float(np.linalg.norm(z[:split] - y_direct)))
    ok = worst_res <= 1e-9 and worst_match <= 1e-9
    assert _verdict(
        8,
        "linear special case, 100 systems",
        ok,
        f"max ||Az - b|| = {worst_res:.2e}, max |y - direct| = {worst_match:.2e}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    problem = tmp_path / "curve.problem"
    problem.write_text(CURVE_PROBLEM)
    traces = []
    for name in ("t1.csv", "t2.csv"):
        trace = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "polydescent.cli",
                "run",
                "--problem", str(problem),
                "--seed", "7",
                "--alpha0", "0.25",
                "--max-iter", "600",
                "--trace", str(trace),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (0, 2), proc.stderr
        traces.append(trace.read_bytes())
    ok = traces[0] == traces[1] and len(traces[0]) > 0
    assert _verdict(
        9,
        "byte-identical traces across invocations",
        ok,
        f"trace size {len(traces[0])} bytes",
    )
