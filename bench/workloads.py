"""The four benchmark workloads: seeded inputs, set-up, one solve, and its gate.

A workload is driven by the loop in ``run.py``, which sets up afresh before
every solve.  ``setup(k)`` builds the problem instance of solve k up to and
including its first compiled evaluation (this is what ``setup_s`` times);
``build(k)`` stops short of any compiled evaluation and exists so the
tracer can time the compile on its own.  ``inputs()`` yields the seeded
per-solve inputs in a fixed order, so the first ``first`` solves of a run
are identical for a given seed and the trace digest and exact counts taken
over them repeat bit for bit.  ``solve`` is the timed call; ``check`` is the
untimed correctness gate.

Every input is made here from the workload seed; the program only ever sees
the generated problem text, start points and descent seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from polydescent import cli
from polydescent.descent import DescentConfig, DescentProblem, descend
from polydescent.geodesics import GeodesicState, christoffel, geodesic_integrate
from polydescent.geometry import lift, residuals, tangent_frame
from polydescent.polynomials import VariableOrder, parse_polynomial
from polydescent.triangular import AUTO, validate_triangular, whitney_partition

# the gate's tolerances, taken from the acceptance suite
ORACLE_TOL = 1e-3  # criteria 1 and 2: |f - brute-force minimum|
LIFT_RESIDUAL_TOL = 1e-9  # criteria 2 and 4: original constraints at a lifted point
ENDPOINT_RESIDUAL_TOL = 1e-10  # the projection tolerance
SPEED_DRIFT_TOL = 1e-6  # criterion 6
CLI_RESIDUAL_TOL = 10 * 1e-10  # `polydescent run`'s own recheck at the default --proj-tol
DEAD_ALPHA = 1e-8  # the step size below which check_convergence calls a step dead

CURVE_PROBLEM = """\
vars: u x y
eliminate: y
constraint: u^4 + x^2 - 1
constraint: u^2 + x^3 + y^5
objective: y
start: u=0, x=1
"""

HYPERBOLA_VARS = ("u", "x", "y1", "y2")
HYPERBOLA_SYSTEM = ("u^2*x^2 - 1", "y1 + u", "y2 + x")
HYPERBOLA_OBJECTIVE = "x^2 + u^2 - 4*x - 4*u + 8"
# the symmetric system the triangular one came from (z1=u, z2=x, z3=y1, z4=y2)
HYPERBOLA_ORIGINALS = (
    "y2 + y1 + x + u",
    "y2*u + y2*y1 + y1*x + x*u",
    "y2*x*u + y2*y1*u + y2*y1*x + y1*x*u",
    "y2*y1*x*u - 1",
)


@dataclass
class Outcome:
    """What the gate made of one solve."""

    ok: bool
    digest: str
    counts: dict[str, int]
    detail: str = ""


def curve_oracle() -> float:
    """Brute-force minimum of y over the curve (acceptance criterion 1's sweep)."""
    us = np.linspace(-1.0, 1.0, 1_000_001)
    xs = np.sqrt(np.clip(1.0 - us**4, 0.0, None))
    best = math.inf
    for xb in (xs, -xs):
        t = us**2 + xb**3
        y = -np.sign(t) * np.abs(t) ** 0.2
        best = min(best, float(y.min()))
    return best


def hyperbola_oracle() -> float:
    """Brute-force minimum over the u > 0 branch (acceptance criterion 2's sweep)."""
    us = np.linspace(1e-6, 10.0, 1_000_001)
    return float(((1.0 / us - 2.0) ** 2 + (us - 2.0) ** 2).min())


def record_counts(records) -> dict[str, int]:
    """Exact per-solve counts from the trace: iterations, events, dead steps."""
    counts = {"iterations": 0, "SUCCESS": 0, "UNSUCCESSFUL": 0, "REBASE": 0, "dead": 0}
    for alpha, event in records:
        counts["iterations"] += 1
        counts[event] += 1
        counts["dead"] += alpha < DEAD_ALPHA
    return counts


def records_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        line = f"{r.j},{r.alpha!r},{r.f!r},{r.event},{','.join(map(repr, r.coords))}\n"
        h.update(line.encode())
    return h.hexdigest()


def max_residual(polys, point) -> float:
    return max(abs(p.evaluate(point)) for p in polys)


# -- the synthetic tower ------------------------------------------------------


@dataclass(frozen=True)
class TowerSystem:
    """A triangular system whose members are ``z^3 + z + h(lower variables)``.

    ``t^3 + t + c`` is strictly increasing in t, so every stage has exactly
    one real root and a Jacobian entry of at least 1: the manifold is a
    graph over the free variables and every point of it is regular.
    ``members[k]`` holds the terms of h for ``z_k`` as (coefficient,
    variable indices with multiplicity) pairs over the ambient order.
    """

    m: int
    names: tuple[str, ...]
    members: tuple[tuple[tuple[Fraction, tuple[int, ...]], ...], ...]

    def texts(self) -> list[str]:
        out = []
        for k, terms in enumerate(self.members):
            parts = [f"z{k}^3", f"z{k}"]
            for c, idx in terms:
                mono = "*".join(self.names[i] for i in idx)
                parts.append(f"{c}*{mono}" if mono else f"{c}")
            out.append(" + ".join(parts))
        return out

    def objective_text(self) -> str:
        return " + ".join(f"{v}^2" for v in self.names)

    def ambient_point(self, free: list[float]) -> list[float]:
        """Solve the cascade for the algebraic variables over the free values."""
        vals = list(free) + [0.0] * (len(self.names) - self.m)
        for k, terms in enumerate(self.members):
            c = 0.0
            for coeff, idx in terms:
                t = float(coeff)
                for i in idx:
                    t *= vals[i]
                c += t
            vals[self.m + k] = _cubic_root(c)
        return vals


def _cubic_root(c: float) -> float:
    """The real root of t^3 + t + c (Cardano, then Newton polish)."""
    s = math.sqrt(c * c / 4.0 + 1.0 / 27.0)
    t = math.cbrt(-c / 2.0 + s) + math.cbrt(-c / 2.0 - s)
    for _ in range(3):
        t -= (t * t * t + t + c) / (3.0 * t * t + 1.0)
    return t


def tower_system(seed: int, n: int, m: int) -> TowerSystem:
    """A seeded tower of n variables, m of them free.

    Each h has two or three terms of degree one or two with coefficients
    p/q (|p| <= 3, 2 <= q <= 5), mostly on the nearest lower variables,
    plus a nonzero constant, so values stay O(1) down the cascade.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    rng = random.Random(seed)
    names = tuple([f"u{i}" for i in range(m)] + [f"z{k}" for k in range(n - m)])
    members = []
    for k in range(n - m):
        lower = m + k
        terms = []
        for _ in range(rng.randint(2, 3)):
            idx = []
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.6:
                    idx.append(rng.randrange(max(0, lower - 4), lower))
                else:
                    idx.append(rng.randrange(m))
            coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(2, 5))
            terms.append((coeff, tuple(sorted(idx))))
        terms.append((Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((3, 5, 7))), ()))
        members.append(tuple(terms))
    return TowerSystem(m, names, tuple(members))


@dataclass
class TowerProblem:
    system: TowerSystem
    polys: list
    partition: object
    objective: object


def build_tower(system: TowerSystem) -> TowerProblem:
    order = VariableOrder(system.names)
    polys = [parse_polynomial(t, order) for t in system.texts()]
    part = whitney_partition(validate_triangular(polys, order), AUTO)
    objective = parse_polynomial(system.objective_text(), order)
    return TowerProblem(system, polys, part, objective)


def tower_start(problem: TowerProblem, free: list[float]) -> np.ndarray:
    amb = problem.system.ambient_point(free)
    return np.array([amb[i] for i in problem.partition.retained])


# -- workloads ------------------------------------------------------------------


class Workload:
    """One workload of a run.

    Solve k runs with the k-th seeded input on the instance set up last;
    a fresh ``setup(k)`` precedes every ``solves_per_setup``-th solve.  The
    first ``first`` solves are digested and counted exactly; the compile is
    probed on ``probes`` fresh instances in a traced phase.
    """

    name = ""
    first = 10
    probes = 5
    solves_per_setup = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        """Untimed, once per run: oracles and files the solves read."""

    def probe_points(self, ctx):
        """(partition, reduced point) pairs whose first evaluation compiles."""
        raise NotImplementedError

    def prepare_input(self, ctx, inp):
        """Untimed per-solve preparation of a seeded input."""
        return inp

    def iterations(self, prepared) -> int | None:
        """RK4 steps of a geodesic solve; None where on_record stamps iterations."""
        return None

    def group(self, prepared) -> str:
        """Which cluster of samples a solve belongs to (see ``Geodesic``)."""
        return "all"


class Curve(Workload):
    """The headline problem through ``polydescent run``, seeds 1000*seed + k."""

    name = "curve"
    j_max = 5000

    def prepare(self):
        self.oracle = curve_oracle()
        self.problem_path = self.workdir / "curve.problem"
        self.problem_path.write_text(CURVE_PROBLEM)
        self.trace_path = self.workdir / "curve-trace.csv"
        self.report_path = self.workdir / "curve-report.json"

    def build(self, k):
        return cli.load_problem(str(self.problem_path), project_start=False)

    def setup(self, k):
        return cli.load_problem(str(self.problem_path))

    def probe_points(self, ctx):
        return [(ctx.partition, ctx.start)]

    def inputs(self):
        k = 0
        while True:
            yield 1000 * self.seed + k
            k += 1

    def solve(self, ctx, seed, stamp):
        argv = [
            "run", "--problem", str(self.problem_path), "--seed", str(seed),
            "--alpha0", "0.25", "--max-iter", str(self.j_max),
            "--trace", str(self.trace_path), "--report", str(self.report_path),
        ]
        if stamp is None:
            return cli.main(argv)
        inner = cli.descend

        def stamped(problem, cfg, on_record=None):
            def record(rec):
                on_record(rec)
                stamp(rec)

            return inner(problem, cfg, record)

        cli.descend = stamped
        try:
            return cli.main(argv)
        finally:
            cli.descend = inner

    def check(self, ctx, seed, code) -> Outcome:
        raw = self.trace_path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        rows = [line.split(",") for line in raw.decode().splitlines()[1:]]
        counts = record_counts((float(r[1]), r[3]) for r in rows)
        report = json.loads(self.report_path.read_text())
        order = ctx.partition.order
        reduced = np.array([report["final_reduced"][order[v]] for v in ctx.partition.retained])
        relift = max_residual(ctx.constraints, lift(ctx.partition, reduced))
        err = abs(report["final_objective"] - self.oracle)
        ok = (
            code in (0, 2)
            and report["max_constraint_residual"] <= CLI_RESIDUAL_TOL
            and err <= ORACLE_TOL
            and relift <= LIFT_RESIDUAL_TOL
            and counts["iterations"] == self.j_max
        )
        detail = f"exit {code}, |f - oracle| {err:.2e}, re-lift residual {relift:.2e}"
        return Outcome(ok, digest, counts, detail)


class _LibraryDescent(Workload):
    """A ``descend`` call per solve; the trace is digested record by record."""

    def solve(self, ctx, inp, stamp):
        problem, cfg = self.descent_args(ctx, inp)
        return descend(problem, cfg, stamp)

    def check(self, ctx, inp, trace) -> Outcome:
        counts = record_counts((r.alpha, r.event) for r in trace.records)
        relift = max_residual(self.originals(ctx), lift(ctx.partition, trace.final_reduced))
        ok, detail = self.objective_ok(ctx, inp, trace)
        ok = ok and relift <= LIFT_RESIDUAL_TOL and counts["iterations"] == self.j_max
        detail += f", re-lift residual {relift:.2e}"
        return Outcome(ok, records_digest(trace.records), counts, detail)


@dataclass
class HyperbolaContext:
    partition: object
    objective: object
    originals: list
    start: np.ndarray


class Hyperbola(_LibraryDescent):
    """Library ``descend`` on the quartic fixture: linear lifts, no root finder."""

    name = "hyperbola"
    # the step dies by about iteration 500, so 1000 still ends in dead polls;
    # shorter solves give a run more of them, and their times vary threefold
    # with the start point
    j_max = 1000

    def prepare(self):
        self.oracle = hyperbola_oracle()

    def build(self, k):
        order = VariableOrder(HYPERBOLA_VARS)
        polys = [parse_polynomial(t, order) for t in HYPERBOLA_SYSTEM]
        part = whitney_partition(
            validate_triangular(polys, order),
            [order.index("y1"), order.index("y2")],
        )
        originals = polys + [parse_polynomial(t, order) for t in HYPERBOLA_ORIGINALS]
        objective = parse_polynomial(HYPERBOLA_OBJECTIVE, order)
        return HyperbolaContext(part, objective, originals, np.array([0.5, 2.0]))

    def setup(self, k):
        ctx = self.build(k)
        residuals(ctx.partition, ctx.start)
        return ctx

    def probe_points(self, ctx):
        return [(ctx.partition, ctx.start)]

    def inputs(self):
        # start points on the u > 0 branch, u x = 1, log-uniform over
        # [0.4, 2.5] and stratified: solve k draws from stratum k mod 8, so
        # every run covers the range evenly
        rng = random.Random(f"hyperbola:{self.seed}")
        lo, hi = math.log(0.4), math.log(2.5)
        k = 0
        while True:
            t = (k % 8 + rng.random()) / 8
            yield (math.exp(lo + t * (hi - lo)), rng.randrange(2**31))
            k += 1

    def descent_args(self, ctx, inp):
        u0, seed = inp
        problem = DescentProblem(ctx.partition, ctx.objective, np.array([u0, 1.0 / u0]))
        return problem, DescentConfig(alpha0=0.25, j_max=self.j_max, seed=seed)

    def originals(self, ctx):
        return ctx.originals

    def objective_ok(self, ctx, inp, trace):
        err = abs(trace.final_objective - self.oracle)
        return err <= ORACLE_TOL, f"|f - oracle| {err:.2e}"


@dataclass
class TowerContext:
    problem: TowerProblem
    start: np.ndarray
    start_f: float

    @property
    def partition(self):
        return self.problem.partition


class Tower(_LibraryDescent):
    """Library ``descend`` on a fresh seeded tower per solve: many lift stages, m >= 3.

    The shapes cycle through n = 24..30 and m = 3, 4 (solve k has shape
    ``SHAPES[k % 14]``), so every run covers the range evenly and runs on
    different seeds are comparable.
    """

    name = "tower"
    first = 5
    j_max = 300
    SHAPES = tuple((n, m) for n in range(24, 31) for m in (3, 4))

    def build(self, k):
        rng = random.Random(f"tower:{self.seed}:{k}")
        n, m = self.SHAPES[k % len(self.SHAPES)]
        system = tower_system(rng.randrange(2**31), n, m)
        problem = build_tower(system)
        free = [rng.uniform(-0.5, 0.5) for _ in range(m)]
        start_f = sum(v * v for v in system.ambient_point(free))
        return TowerContext(problem, tower_start(problem, free), start_f)

    def setup(self, k):
        ctx = self.build(k)
        residuals(ctx.partition, ctx.start)
        return ctx

    def probe_points(self, ctx):
        return [(ctx.partition, ctx.start)]

    def inputs(self):
        rng = random.Random(f"tower-seeds:{self.seed}")
        while True:
            yield rng.randrange(2**31)

    def descent_args(self, ctx, seed):
        problem = DescentProblem(ctx.partition, ctx.problem.objective, ctx.start)
        return problem, DescentConfig(alpha0=0.25, j_max=self.j_max, seed=seed)

    def originals(self, ctx):
        return ctx.problem.polys

    def objective_ok(self, ctx, seed, trace):
        # no oracle here: a descent from a random start must make progress
        ok = trace.final_objective < ctx.start_f
        return ok, f"f {ctx.start_f:.4f} -> {trace.final_objective:.6f}"


@dataclass
class GeodesicContext:
    curve: object
    tower: TowerProblem


class Geodesic(Workload):
    """``geodesic_integrate`` alternating between the curve's and a tower's manifold.

    Solve k integrates on the curve manifold when k is even and on the
    tower of the latest set-up when k is odd.  The two manifolds differ
    about fourfold in cost per RK4 step, so ``run.py`` averages each
    statistic over the two rather than pooling two separated clusters of
    samples.
    """

    name = "geodesic"
    first = 10
    # a set-up (two manifolds, Hessians compiled) costs over half a solve
    solves_per_setup = 4
    tower_shape = (28, 4)
    # (duration, step) per manifold, chosen so one solve costs about the same on each
    # and long enough that a millisecond stall of the host barely moves one
    # solve's mean step time, the sample behind the geodesic iter_us metrics
    curve_span = (0.08, 1e-3)
    tower_span = (0.04, 2e-3)

    def build(self, k):
        order = VariableOrder(["u", "x", "y"])
        polys = [parse_polynomial(t, order) for t in ("u^4 + x^2 - 1", "u^2 + x^3 + y^5")]
        curve = whitney_partition(validate_triangular(polys, order), [order.index("y")])
        seed = random.Random(f"geodesic-tower:{self.seed}:{k}").randrange(2**31)
        return GeodesicContext(curve, build_tower(tower_system(seed, *self.tower_shape)))

    def setup(self, k):
        ctx = self.build(k)
        for part, p in self.probe_points(ctx):
            residuals(part, p)
            christoffel(part, p)
        return ctx

    def probe_points(self, ctx):
        free = [0.1 * (j + 1) for j in range(ctx.tower.system.m)]
        return [
            (ctx.curve, np.array([0.0, 1.0])),
            (ctx.tower.partition, tower_start(ctx.tower, free)),
        ]

    def inputs(self):
        rng = random.Random(f"geodesic:{self.seed}")
        k = 0
        while True:
            if k % 2 == 0:
                u = rng.uniform(-0.9, 0.9)
                branch = rng.choice((-1.0, 1.0))
                yield ("curve", [u, branch * math.sqrt(1.0 - u**4)], rng.choice((-1.0, 1.0)))
            else:
                free = [rng.uniform(-0.5, 0.5) for _ in range(4)]
                yield ("tower", free, [rng.gauss(0.0, 1.0) for _ in range(4)])
            k += 1

    def prepare_input(self, ctx, inp):
        which, point, direction = inp
        if which == "curve":
            part, p = ctx.curve, np.array(point)
            v = direction * tangent_frame(part, p).U[:, 0]
            duration, step = self.curve_span
        else:
            m = ctx.tower.system.m
            part, p = ctx.tower.partition, tower_start(ctx.tower, point[:m])
            c = np.array(direction[:m])
            v = tangent_frame(part, p).U @ (c / np.linalg.norm(c))
            duration, step = self.tower_span
        return which, part, GeodesicState(p, v), duration, step

    def solve(self, ctx, prepared, stamp):
        _, part, state, duration, step = prepared
        return geodesic_integrate(part, state, duration, step)

    def iterations(self, prepared) -> int:
        duration, step = prepared[3:]
        return max(1, math.ceil(abs(duration) / step))

    def group(self, prepared) -> str:
        return prepared[0]

    def check(self, ctx, prepared, out) -> Outcome:
        part = prepared[1]
        res = float(np.max(np.abs(residuals(part, out.position))))
        drift = abs(float(np.linalg.norm(out.velocity)) - 1.0)
        ok = res <= ENDPOINT_RESIDUAL_TOL and drift <= SPEED_DRIFT_TOL
        h = hashlib.sha256()
        h.update(np.asarray(out.position, dtype=float).tobytes())
        h.update(np.asarray(out.velocity, dtype=float).tobytes())
        counts = {"solves": 1, "rk4_steps": self.iterations(prepared)}
        return Outcome(ok, h.hexdigest(), counts, f"residual {res:.2e}, speed drift {drift:.2e}")


WORKLOADS = {w.name: w for w in (Curve, Hyperbola, Tower, Geodesic)}
