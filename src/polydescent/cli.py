"""Batch front end: problem files in, traces and JSON reports out.

A problem file is line oriented with ``#`` comments::

    vars: u x y            # ascending variable order
    eliminate: y           # or 'auto', or omitted for 'auto'
    constraint: u^4 + x^2 - 1
    constraint: u^2 + x^3 + y^5
    objective: y
    start: u=0, x=1        # retained variables only

Subcommands: ``run`` (descent), ``project`` (one projection solve),
``geodesic`` (integrate from the start point), ``validate`` (triangular and
partition checks only).  Exit codes: 0 success/converged, 1 error, 2
iteration budget exhausted without convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .descent import (
    DescentConfig,
    DescentProblem,
    InvalidStartError,
    descend,
)
from .geodesics import DivergedError, GeodesicState, geodesic_integrate
from .geometry import (
    AmbiguousRootError,
    DEFAULT_PROJECTION,
    LiftError,
    NoRealRootError,
    NotRegularError,
    ProjectionConfig,
    project_to_manifold,
    residual_norm,
    tangent_frame,
)
from .polynomials import (
    InvalidExponentError,
    ParseError,
    Polynomial,
    UnknownVariableError,
    VariableOrder,
    parse_polynomial,
)
from .triangular import (
    AUTO,
    ConstantMemberError,
    DuplicateMainVariableError,
    EmptyReducedSystemError,
    NotEliminableError,
    RankDeficientError,
    WhitneyPartition,
    validate_triangular,
    whitney_partition,
)


class ProblemFileError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class StartOffManifoldError(ValueError):
    """The start point could not be projected onto the reduced manifold."""


_ERROR_CODES: list[tuple[type, str]] = [
    (UnknownVariableError, "UNKNOWN_VARIABLE"),
    (InvalidExponentError, "INVALID_EXPONENT"),
    (ParseError, "PARSE_ERROR"),
    (ConstantMemberError, "CONSTANT_MEMBER"),
    (DuplicateMainVariableError, "DUPLICATE_MVAR"),
    (NotEliminableError, "NOT_ELIMINABLE"),
    (EmptyReducedSystemError, "EMPTY_GSTAR"),
    (RankDeficientError, "RANK_DEFICIENT"),
    (NotRegularError, "NOT_REGULAR"),
    (NoRealRootError, "NO_REAL_ROOT"),
    (AmbiguousRootError, "AMBIGUOUS_ROOT"),
    (LiftError, "LIFT_ERROR"),
    (OverflowError, "OVERFLOW"),
    (InvalidStartError, "INVALID_START"),
    (StartOffManifoldError, "START_OFF_MANIFOLD"),
    (ProblemFileError, "PROBLEM_FILE"),
    (DivergedError, "DIVERGED"),
    (OSError, "IO_ERROR"),
    (ValueError, "INVALID_ARGUMENT"),
]


def _error_code(exc: BaseException) -> str:
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "ERROR"


@dataclass
class ProblemFile(DescentProblem):
    """A parsed, validated problem, plus the file's constraints as written."""

    constraints: list[Polynomial]


def load_problem(
    path: str,
    cfg: ProjectionConfig = DEFAULT_PROJECTION,
    project_start: bool = True,
) -> ProblemFile:
    """Parse and validate a problem file, reading its lines in one pass.

    A fault in the file raises :class:`ProblemFileError` with its line.  The
    start assigns each retained variable once, to a finite number, and is
    projected onto the reduced manifold (unless ``project_start`` is false):
    a start whose Jacobian is singular or not finite raises
    :class:`NotRegularError`, one outside the projection's reach
    :class:`StartOffManifoldError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.readlines()

    keys = ("vars", "eliminate", "constraint", "objective", "start")
    lines: dict[str, list[tuple[int, str]]] = {k: [] for k in keys}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemFileError("expected 'key: value'", lineno)
        key, value = map(str.strip, line.split(":", 1))
        if key not in lines:
            raise ProblemFileError(f"unknown key '{key}'", lineno)
        lines[key].append((lineno, value))

    def single(key: str, required: bool = True) -> tuple[int, str] | None:
        found = lines[key]
        if len(found) > 1:
            raise ProblemFileError(f"duplicate '{key}' line", found[1][0])
        if not found and required:
            raise ProblemFileError(f"missing '{key}' line", len(raw_lines))
        return found[0] if found else None

    ln_vars, vars_value = single("vars")
    try:
        order = VariableOrder(vars_value.split())
    except ValueError as exc:
        raise ProblemFileError(str(exc), ln_vars) from exc

    constraints: list[Polynomial] = []
    for ln, v in lines["constraint"]:
        try:
            constraints.append(parse_polynomial(v, order))
        except ParseError as exc:
            raise ProblemFileError(f"bad constraint: {exc}", ln) from exc
    if not constraints:
        raise ProblemFileError("no 'constraint' lines", len(raw_lines))

    ln_obj, obj_value = single("objective")
    try:
        objective = parse_polynomial(obj_value, order)
    except ParseError as exc:
        raise ProblemFileError(f"bad objective: {exc}", ln_obj) from exc

    elim_entry = single("eliminate", required=False)
    if elim_entry is None or elim_entry[1] == AUTO:
        eliminate: list[int] | str = AUTO
    else:
        ln_elim, elim_value = elim_entry
        eliminate = []
        for name in elim_value.split():
            if name not in order:
                raise ProblemFileError(f"unknown variable '{name}'", ln_elim)
            eliminate.append(order.index(name))

    system = validate_triangular(constraints, order)
    partition = whitney_partition(system, eliminate)

    ln_start, start_value = single("start")
    assignment: dict[str, float] = {}
    for piece in start_value.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ProblemFileError(f"bad start entry '{piece}'", ln_start)
        name, _, num = piece.partition("=")
        name = name.strip()
        if name not in order:
            raise ProblemFileError(f"unknown variable '{name}'", ln_start)
        if name in assignment:
            raise ProblemFileError(f"'{name}' assigned twice", ln_start)
        try:
            assignment[name] = float(num)
        except ValueError as exc:
            raise ProblemFileError(f"bad number in '{piece}'", ln_start) from exc
        if not math.isfinite(assignment[name]):
            raise ProblemFileError(f"number in '{piece}' is not finite", ln_start)

    retained_names = set(partition.retained_names())
    extra = sorted(set(assignment) - retained_names)
    missing = sorted(retained_names - set(assignment))
    if extra:
        raise ProblemFileError(
            f"start assigns non-retained variable(s): {', '.join(extra)}", ln_start
        )
    if missing:
        raise ProblemFileError(
            f"start is missing retained variable(s): {', '.join(missing)}", ln_start
        )
    start = np.array([assignment[order[v]] for v in partition.retained])

    if project_start:
        frame = tangent_frame(partition, start)
        projected = project_to_manifold(frame, np.zeros(frame.U.shape[1]), cfg)
        if projected is None:
            raise StartOffManifoldError(
                f"start point could not be projected onto the manifold "
                f"(residual {residual_norm(partition, start):.3e})"
            )
        start = projected

    return ProblemFile(partition, objective, start, constraints)


# -- subcommands ---------------------------------------------------------------
# ``main`` loads the problem file once and hands it to the handler, with the
# projection settings to all but ``validate``, which projects nothing


def _point_dict(part: WhitneyPartition, vars_idx, coords) -> dict[str, float]:
    return {part.order[v]: float(c) for v, c in zip(vars_idx, coords)}


def _emit(payload: dict, path: str | None):
    text = json.dumps(payload, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_run(args, problem: ProblemFile, pcfg: ProjectionConfig) -> int:
    part = problem.partition
    cfg = DescentConfig(
        alpha0=args.alpha0,
        alpha_max=args.alpha_max,
        c_forcing=args.c_forcing,
        j_max=args.max_iter,
        seed=args.seed,
        projection=pcfg,
    )

    on_record = None
    with open(args.trace, "w", encoding="utf-8") if args.trace else nullcontext() as fh:
        if fh is not None:
            header = ["j", "alpha", "f", "event", *part.retained_names()]
            fh.write(",".join(header) + "\n")

            def on_record(rec):
                row = [rec.j, rec.alpha, rec.f, rec.event, *rec.coords]
                fh.write(",".join(map(str, row)) + "\n")

        trace = descend(problem, cfg, on_record)

    # every emitted ambient point is re-checked against the file's full
    # constraint list, not just the partitioned blocks; np.max keeps a NaN
    ambient = trace.final_ambient
    max_res = float(np.max([abs(g.evaluate(ambient)) for g in problem.constraints]))
    report = {
        "final_reduced": _point_dict(part, part.retained, trace.final_reduced),
        "final_ambient": _point_dict(part, range(len(part.order)), ambient),
        "final_objective": trace.final_objective,
        "iterations": trace.iterations,
        "converged": trace.converged,
        "trace": args.trace,
        "max_constraint_residual": max_res,
        "seed": args.seed,
    }
    _emit(report, args.report)
    if not max_res <= 10 * pcfg.residual_tol:
        print(
            f"error: RESIDUAL_CHECK: lifted point violates the original "
            f"constraints (residual {max_res:.3e})",
            file=sys.stderr,
        )
        return 1
    return 0 if trace.converged else 2


def _parse_vector(text: str, expected: int, what: str) -> np.ndarray:
    try:
        vec = np.array([float(p) for p in text.split(",") if p.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"bad {what} '{text}'") from exc
    if vec.size != expected:
        raise ValueError(f"{what} needs {expected} components, got {vec.size}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{what} '{text}' is not finite")
    return vec


def _cmd_project(args, problem: ProblemFile, pcfg: ProjectionConfig) -> int:
    part = problem.partition
    frame = tangent_frame(part, problem.start)
    w = _parse_vector(args.w, frame.U.shape[1], "tangent vector")
    q0 = frame.base + frame.U @ w
    point = project_to_manifold(frame, w, pcfg)
    payload: dict = {"success": point is not None}
    if point is not None:
        payload["point"] = _point_dict(part, part.retained, point)
        payload["residual"] = residual_norm(part, point)
        payload["distance_from_tangent"] = float(np.linalg.norm(point - q0))
    _emit(payload, args.report)
    return 0


def _cmd_geodesic(args, problem: ProblemFile, pcfg: ProjectionConfig) -> int:
    part = problem.partition
    velocity = _parse_vector(args.velocity, part.reduced_dim, "velocity")
    state = GeodesicState(problem.start, velocity)
    final = geodesic_integrate(part, state, args.duration, args.step, pcfg)
    payload = {
        "position": _point_dict(part, part.retained, final.position),
        "velocity": _point_dict(part, part.retained, final.velocity),
        "time": final.time,
        "residual": residual_norm(part, final.position),
    }
    _emit(payload, args.report)
    return 0


def _cmd_validate(args, problem: ProblemFile) -> int:
    part = problem.partition
    sys_ = part.system
    names = lambda idxs: [part.order[v] for v in idxs]
    payload = {
        "vars": list(part.order),
        "free": names(sorted(sys_.free_vars)),
        "algebraic": names(sorted(sys_.algebraic_vars)),
        "eliminated": names(part.eliminated),
        "retained": names(part.retained),
        "g_star": [str(p) for p in part.g_star],
        "g_circ": [str(p) for p in part.g_circ],
        "reduced_dim": part.reduced_dim,
        "manifold_dim": part.manifold_dim,
    }
    _emit(payload, args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydescent",
        description="derivative-free descent over triangular polynomial manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the descent loop on a problem file")
    proj = sub.add_parser("project", help="one projection solve, for debugging")
    geo = sub.add_parser("geodesic", help="integrate a geodesic from the start point")
    val = sub.add_parser("validate", help="triangular and partition checks only")
    for p in (run, proj, geo, val):
        p.add_argument("--problem", required=True)

    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--alpha0", type=float, default=0.25)
    run.add_argument("--alpha-max", type=float, default=math.inf)
    run.add_argument("--c-forcing", type=float, default=None)
    run.add_argument("--max-iter", type=int, default=DescentConfig.j_max)
    proj.add_argument("--w", required=True, help="comma-separated tangent coords")
    geo.add_argument("--velocity", required=True, help="comma-separated components")
    geo.add_argument("--duration", type=float, required=True)
    geo.add_argument("--step", type=float, default=1e-3)

    d = DEFAULT_PROJECTION
    for p, fn in ((run, _cmd_run), (proj, _cmd_project), (geo, _cmd_geodesic)):
        p.add_argument("--proj-tol", type=float, default=d.residual_tol)
        p.add_argument("--proj-max-iter", type=int, default=d.max_iters)
        p.add_argument("--oracle-radius", type=float, default=d.oracle_radius)
        p.set_defaults(fn=fn)
    run.add_argument("--trace", default=None)
    for p in (run, proj, geo, val):
        p.add_argument("--report", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args, load_problem(args.problem, project_start=False))
        pcfg = ProjectionConfig(args.proj_tol, args.proj_max_iter, args.oracle_radius)
        return args.fn(args, load_problem(args.problem, pcfg), pcfg)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        print(f"error: {_error_code(exc)}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
