import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from polydescent.cli import (
    _ERROR_CODES,
    ProblemFileError,
    StartOffManifoldError,
    _error_code,
    build_parser,
    load_problem,
    main,
)
from polydescent.geometry import NoRealRootError
from polydescent.polynomials import parse_polynomial
from polydescent.triangular import ConstantMemberError

CURVE_PROBLEM = """\
# minimize the lifted coordinate over the closed quartic curve
vars: u x y
eliminate: y
constraint: u^4 + x^2 - 1
constraint: u^2 + x^3 + y^5
objective: y
start: u=0, x=1
"""

CIRCLE_PROBLEM = """\
vars: u x
constraint: u^2 + x^2 - 1
objective: x
start: u=0, x=1
"""


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "curve.problem"
    path.write_text(CURVE_PROBLEM)
    return str(path)


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.problem"
    path.write_text(CIRCLE_PROBLEM)
    return str(path)


class TestLoadProblem:
    def test_curve_problem(self, curve_file):
        pf = load_problem(curve_file)
        part = pf.partition
        assert part.g_star == (parse_polynomial("u^4 + x^2 - 1", part.order),)
        assert part.g_circ == (parse_polynomial("u^2 + x^3 + y^5", part.order),)
        assert part.retained_names() == ("u", "x")
        assert np.allclose(pf.start, [0.0, 1.0])

    def test_constant_member(self, tmp_path):
        path = tmp_path / "bad.problem"
        path.write_text("vars: x\nconstraint: 3\nobjective: x\nstart: x=0\n")
        with pytest.raises(ConstantMemberError):
            load_problem(str(path))

    def test_start_off_manifold(self, tmp_path):
        path = tmp_path / "far.problem"
        path.write_text(CURVE_PROBLEM.replace("start: u=0, x=1", "start: u=0, x=2"))
        with pytest.raises(StartOffManifoldError):
            load_problem(str(path))

    def test_start_near_manifold_is_projected(self, tmp_path):
        path = tmp_path / "near.problem"
        path.write_text(CURVE_PROBLEM.replace("start: u=0, x=1", "start: u=0, x=1.05"))
        pf = load_problem(str(path))
        assert abs(pf.start[1] - 1.0) <= 1e-9

    def test_missing_retained_start(self, tmp_path):
        path = tmp_path / "missing.problem"
        path.write_text(CURVE_PROBLEM.replace("start: u=0, x=1", "start: u=0"))
        with pytest.raises(ProblemFileError) as exc:
            load_problem(str(path))
        assert "x" in str(exc.value)

    def test_start_assigning_eliminated_variable(self, tmp_path):
        path = tmp_path / "extra.problem"
        path.write_text(
            CURVE_PROBLEM.replace("start: u=0, x=1", "start: u=0, x=1, y=0")
        )
        with pytest.raises(ProblemFileError):
            load_problem(str(path))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "odd.problem"
        path.write_text("vars: x\nbogus: 1\nconstraint: x-1\nobjective: x\nstart: x=1\n")
        with pytest.raises(ProblemFileError) as exc:
            load_problem(str(path))
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("constraint:", "constraint", 2, "expected 'key: value'"),
            ("start: u=0, x=1\n", "start: u=0, x=1\nvars: u x\n", 5, "duplicate 'vars' line"),
            ("objective: x\n", "", 3, "missing 'objective' line"),
            ("vars: u x", "vars: u u", 1, "variable order contains duplicate names"),
            ("constraint: u^2 + x^2 - 1\n", "", 3, "no 'constraint' lines"),
            (
                "objective: x",
                "objective: x +",
                3,
                "bad objective: unexpected 'end of input' (at offset 3)",
            ),
            ("vars: u x", "vars: u x\neliminate: w", 2, "unknown variable 'w'"),
            ("u=0, x=1", "u 0, x=1", 4, "bad start entry 'u 0'"),
            ("u=0, x=1", "w=0, x=1", 4, "unknown variable 'w'"),
            ("u=0, x=1", "u=zero, x=1", 4, "bad number in 'u=zero'"),
            ("u=0, x=1", "u=0, u=1, x=1", 4, "'u' assigned twice"),
            ("u=0, x=1", "u=nan, x=1", 4, "number in 'u=nan' is not finite"),
            ("u=0, x=1", "u=inf, x=1", 4, "number in 'u=inf' is not finite"),
        ],
        ids=[
            "no-colon",
            "duplicate-key",
            "missing-key",
            "bad-vars",
            "no-constraint",
            "bad-objective",
            "unknown-eliminated",
            "start-without-equals",
            "start-unknown-variable",
            "start-bad-number",
            "start-assigned-twice",
            "start-nan",
            "start-inf",
        ],
    )
    def test_fault_is_reported_at_its_line(self, tmp_path, old, new, line, message):
        path = tmp_path / "bad.problem"
        path.write_text(CIRCLE_PROBLEM.replace(old, new))
        with pytest.raises(ProblemFileError) as exc:
            load_problem(str(path))
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    def test_first_faulty_line_is_reported(self, tmp_path):
        # an unknown key on line 2 is reported before a malformed line 4
        path = tmp_path / "two.problem"
        path.write_text(CIRCLE_PROBLEM.replace("constraint:", "bogus: 1\nconstraint"))
        with pytest.raises(ProblemFileError) as exc:
            load_problem(str(path))
        assert exc.value.line == 2

    def test_empty_start_pieces_are_skipped(self, tmp_path):
        path = tmp_path / "commas.problem"
        path.write_text(CIRCLE_PROBLEM.replace("u=0, x=1", "u=0,, x=1,"))
        assert load_problem(str(path), project_start=False).start.tolist() == [0.0, 1.0]

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "syntax.problem"
        path.write_text(
            "vars: x\nconstraint: x ^^ 2\nobjective: x\nstart: x=1\n"
        )
        with pytest.raises(ProblemFileError) as exc:
            load_problem(str(path))
        assert exc.value.line == 2


class TestRun:
    def test_curve_run_report_and_trace(self, curve_file, tmp_path):
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.json"
        code = main(
            [
                "run",
                "--problem", curve_file,
                "--seed", "7",
                "--max-iter", "1500",
                "--trace", str(trace),
                "--report", str(report),
            ]
        )
        assert code == 0
        rep = json.loads(report.read_text())
        # sweep oracle for the minimum of y over the curve
        us = np.linspace(-1, 1, 1_000_001)
        xs = np.sqrt(np.clip(1 - us**4, 0, None))
        best = math.inf
        for xb in (xs, -xs):
            t = us**2 + xb**3
            best = min(best, float((-np.sign(t) * np.abs(t) ** 0.2).min()))
        assert abs(rep["final_objective"] - best) <= 1e-3
        assert rep["converged"] is True
        assert rep["iterations"] == 1500
        assert rep["max_constraint_residual"] <= 1e-9
        assert set(rep["final_ambient"]) == {"u", "x", "y"}

        lines = trace.read_text().splitlines()
        assert lines[0] == "j,alpha,f,event,u,x"
        assert len(lines) == 1500 + 1

    def test_zero_iterations_exits_2(self, curve_file, tmp_path):
        report = tmp_path / "report.json"
        code = main(
            ["run", "--problem", curve_file, "--max-iter", "0", "--report", str(report)]
        )
        assert code == 2
        rep = json.loads(report.read_text())
        assert rep["iterations"] == 0
        assert rep["final_reduced"] == {"u": 0.0, "x": 1.0}

    def test_run_determinism(self, curve_file, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for t in (t1, t2):
            code = main(
                [
                    "run",
                    "--problem", curve_file,
                    "--seed", "3",
                    "--max-iter", "400",
                    "--trace", str(t),
                ]
            )
            assert code in (0, 2)
        assert t1.read_bytes() == t2.read_bytes()

    def test_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--problem", str(tmp_path / "nope.problem")])
        assert code == 1
        assert "IO_ERROR" in capsys.readouterr().err

    @pytest.mark.parametrize("cls", _ERROR_CODES, ids=lambda c: c.__name__)
    def test_each_error_class_has_its_own_code(self, cls):
        # the most derived listed class decides, wherever the table lists it
        exc = cls.__new__(cls)  # an instance without its constructor's arguments
        assert _error_code(exc) == _ERROR_CODES[cls]

    def test_error_codes_of_subclasses_and_strangers(self):
        assert _error_code(NoRealRootError(0, "y", "none")) == "NO_REAL_ROOT"
        assert _error_code(ProblemFileError("bad", 3)) == "PROBLEM_FILE"
        assert _error_code(ValueError("bad")) == "INVALID_ARGUMENT"
        assert _error_code(UnicodeDecodeError("utf-8", b"", 0, 1, "bad")) == "INVALID_ARGUMENT"
        assert _error_code(ZeroDivisionError()) == "ERROR"

    def test_lift_overflow_error_code(self, tmp_path, capsys):
        path = tmp_path / "overflow.problem"
        path.write_text(
            "vars: u x y\neliminate: y\nconstraint: x - u\n"
            "constraint: y^3 + y - u*x\nobjective: y\nstart: u=1e200, x=1e200\n"
        )
        code = main(["run", "--problem", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: OVERFLOW: ")

    def test_overflowing_start_is_off_the_manifold(self, tmp_path, capsys):
        # u^2 overflows at the start: the projection fails and the message's
        # residual reads inf, where it used to raise while being computed
        path = tmp_path / "huge.problem"
        path.write_text(CIRCLE_PROBLEM.replace("start: u=0, x=1", "start: u=1e200, x=1"))
        assert main(["run", "--problem", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: START_OFF_MANIFOLD: start point could not be projected "
            "onto the manifold (residual inf)\n"
        )

    @pytest.mark.parametrize(
        "constraint, objective, start, message",
        [
            # dg/du = -2e309 overflows in a product
            (
                "x - 1" + "0" * 300 + "*u^2",
                "u",
                "u=1e9, x=1",
                "NOT_REGULAR: Jacobian at [1000000000.0, 1.0] is not finite",
            ),
            # dg/du = 3e400 overflows in a power
            (
                "u^3 + x^2 - 1",
                "u",
                "u=1e200, x=1",
                "NOT_REGULAR: Jacobian at [1e+200, 1.0] is not finite",
            ),
            ("x - u", "u^400", "u=10, x=10", "INVALID_START: objective at the start is inf"),
        ],
        ids=["jacobian-product", "jacobian-power", "objective-power"],
    )
    def test_start_beyond_the_float_range(
        self, tmp_path, capsys, constraint, objective, start, message
    ):
        path = tmp_path / "huge.problem"
        path.write_text(
            f"vars: u x\nconstraint: {constraint}\nobjective: {objective}\nstart: {start}\n"
        )
        assert main(["run", "--problem", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            # dg/du = -2e308 compiles to -inf: the start's Jacobian
            (
                "vars: u x\nconstraint: x - 2{zeros}*u\nobjective: u\nstart: u=0, x=0\n",
                "NOT_REGULAR: Jacobian at [0.0, 0.0] is not finite",
            ),
            (
                "vars: u x\nconstraint: u^2 + x^2 - 1\nobjective: 2{zeros}*u\n"
                "start: u=1, x=0\n",
                "INVALID_START: objective at the start is inf",
            ),
            (
                "vars: u x y\neliminate: y\nconstraint: u^2 + x^2 - 1\n"
                "constraint: y - 2{zeros}*x\nobjective: u\nstart: u=0, x=1\n",
                "OVERFLOW: lift stage 0 (y) has root inf",
            ),
        ],
        ids=["jacobian", "objective", "lift-stage"],
    )
    def test_coefficient_beyond_the_float_range(self, tmp_path, capsys, text, message):
        # a coefficient of 2e308 compiles to inf and fails where an inf
        # value would, instead of raising at set-up
        path = tmp_path / "huge.problem"
        path.write_text(text.format(zeros="0" * 308))
        assert main(["run", "--problem", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--c-forcing", "nan"], "c_forcing must be positive and finite"),
            (["--c-forcing", "inf"], "c_forcing must be positive and finite"),
            (["--alpha0", "inf"], "need 0 < alpha0 <= alpha_max with alpha0 finite"),
            (
                ["--proj-tol", "inf"],
                "all projection parameters must be positive, residual_tol finite",
            ),
        ],
    )
    def test_non_finite_options_are_rejected(self, circle_file, capsys, flags, message):
        # with --c-forcing nan no step was accepted and the run reported
        # convergence; with --proj-tol inf it ended 5.9e11 off the circle
        # with no RESIDUAL_CHECK
        assert main(["run", "--problem", circle_file, "--max-iter", "600", *flags]) == 1
        assert capsys.readouterr().err == f"error: INVALID_ARGUMENT: {message}\n"

    def test_residual_check_exit(self, tmp_path, capsys):
        # y is the float nearest the root of y^5 - 1e23*x, but at terms of
        # size 1e23 the original constraint cannot hold to 10 * tolerance
        path = tmp_path / "loose.problem"
        path.write_text(
            "vars: u x y\neliminate: y\nconstraint: u^2 + x^2 - 1\n"
            "constraint: y^5 - 100000000000000000000000*x\nobjective: u\n"
            "start: u=0, x=1\n"
        )
        report = tmp_path / "report.json"
        argv = ["run", "--problem", str(path), "--max-iter", "20", "--report", str(report)]
        assert main(argv) == 1
        residual = json.loads(report.read_text())["max_constraint_residual"]
        assert residual > 1e3
        assert capsys.readouterr().err == (
            "error: RESIDUAL_CHECK: lifted point violates the original "
            f"constraints (residual {residual:.3e})\n"
        )

    def test_residual_check_fails_on_a_nan_member(self, tmp_path, capsys):
        # the run ends at z2 = -2.74e51, z3 = 5.64e102, where the last
        # constraint evaluates to inf - inf: a NaN residual cannot pass
        path = tmp_path / "nan.problem"
        path.write_text(
            "vars: z0 z1 z2 z3\neliminate: z1 z3\nconstraint: z0 - 1/4\n"
            "constraint: -1/3*z0 + 3*z1 - 6\n"
            "constraint: -4/5*z0^4 - 3/2*z2^2*z3^2 + 7/3*z1^2*z3 + 7/3*z2^3"
            " + 2*z3^3 + 4*z1^2 - 11/10*z0 + 5/4\n"
            "objective: -5*z0^3*z1 + 14/9*z1^4 - 2/7*z3^3 + 4/7*z1 + 10/3*z2\n"
            "start: z0=0.25, z2=0.627601859836326\n"
        )
        report = tmp_path / "report.json"
        argv = [
            "run", "--problem", str(path), "--seed", "3957189629",
            "--alpha0", "1.7668618094405681", "--max-iter", "250", "--report", str(report),
        ]
        assert main(argv) == 1
        assert math.isnan(json.loads(report.read_text())["max_constraint_residual"])
        assert capsys.readouterr().err == (
            "error: RESIDUAL_CHECK: lifted point violates the original "
            "constraints (residual nan)\n"
        )

    def test_validation_error_code(self, tmp_path, capsys):
        path = tmp_path / "bad.problem"
        path.write_text("vars: x\nconstraint: 3\nobjective: x\nstart: x=0\n")
        code = main(["run", "--problem", str(path)])
        assert code == 1
        assert "CONSTANT_MEMBER" in capsys.readouterr().err


class TestProject:
    def test_small_step_succeeds(self, curve_file, capsys):
        code = main(["project", "--problem", curve_file, "--w", "0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is True
        assert payload["residual"] <= 1e-10
        assert payload["distance_from_tangent"] <= 0.5
        assert abs(abs(payload["point"]["u"]) - 0.1) <= 1e-9

    def test_large_step_fails(self, curve_file, capsys):
        code = main(["project", "--problem", curve_file, "--w", "10"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["success"] is False


    @pytest.mark.parametrize(
        "w, message",
        [
            ("a", "bad tangent vector 'a'"),
            ("0.1,0.2", "tangent vector needs 1 components, got 2"),
            ("nan", "tangent vector 'nan' is not finite"),
        ],
    )
    def test_bad_tangent_vector(self, curve_file, capsys, w, message):
        assert main(["project", "--problem", curve_file, "--w", w]) == 1
        assert capsys.readouterr().err == f"error: INVALID_ARGUMENT: {message}\n"


class TestGeodesic:
    def test_quarter_turn(self, circle_file, capsys):
        code = main(
            [
                "geodesic",
                "--problem", circle_file,
                "--velocity", "1,0",
                "--duration", str(math.pi / 2),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["position"]["u"] == pytest.approx(1.0, abs=1e-6)
        assert payload["position"]["x"] == pytest.approx(0.0, abs=1e-6)
        assert payload["residual"] <= 1e-10


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["1,0", "--duration", "inf"], "INVALID_ARGUMENT: duration must be finite, got inf"),
            (
                ["1,0", "--duration", "1", "--step", "nan"],
                "INVALID_ARGUMENT: step must be a positive finite number, got nan",
            ),
            (["nan,0", "--duration", "1"], "INVALID_ARGUMENT: velocity 'nan,0' is not finite"),
            (["1,-inf", "--duration", "1"], "INVALID_ARGUMENT: velocity '1,-inf' is not finite"),
            (
                ["1,0", "--duration", "1", "--step", "0.5", "--oracle-radius", "1e-6"],
                "DIVERGED: endpoint could not be projected back onto the manifold",
            ),
            # about 1e303 RK4 steps: the command ran until it was killed
            (
                ["1,0", "--duration", "1e300", "--step", "1e-3"],
                "INVALID_ARGUMENT: duration / step must be at most 1000000, got 1e+300 / 0.001",
            ),
        ],
    )
    def test_failures(self, circle_file, capsys, flags, message):
        assert main(["geodesic", "--problem", circle_file, "--velocity", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_step_count_past_the_float_range(self, curve_file, capsys):
        # before, the step count raised a bare OverflowError (OVERFLOW)
        flags = ["--velocity", "1,0", "--duration", "1e300", "--step", "1e-300"]
        assert main(["geodesic", "--problem", curve_file, *flags]) == 1
        assert capsys.readouterr().err == (
            "error: INVALID_ARGUMENT: "
            "duration / step must be at most 1000000, got 1e+300 / 1e-300\n"
        )


class TestValidate:
    def test_curve_summary(self, curve_file, capsys):
        code = main(["validate", "--problem", curve_file])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vars"] == ["u", "x", "y"]
        assert payload["free"] == ["u"]
        assert payload["algebraic"] == ["x", "y"]
        assert payload["eliminated"] == ["y"]
        assert payload["retained"] == ["u", "x"]
        assert payload["reduced_dim"] == 2
        assert payload["manifold_dim"] == 1
        assert payload["g_star"] == ["u^4 + x^2 - 1"]
        assert payload["g_circ"] == ["y^5 + x^3 + u^2"]

    def test_validate_skips_projection(self, tmp_path, capsys):
        # validate accepts a start far from the manifold
        path = tmp_path / "far.problem"
        path.write_text(CURVE_PROBLEM.replace("start: u=0, x=1", "start: u=0, x=2"))
        assert main(["validate", "--problem", str(path)]) == 0


    @pytest.mark.parametrize(
        "objective, message",
        [
            ("(x", "bad objective: expected ')' (at offset 2)"),
            ("9" * 5000 + "*x", "bad objective: integer literal of 5000 digits is too long"),
            ("-" * 1000 + "x", "bad objective: nested more than 200 deep (at offset 200)"),
        ],
        ids=["unbalanced", "long-literal", "deep"],
    )
    def test_malformed_objective_is_reported_at_its_line(
        self, tmp_path, capsys, objective, message
    ):
        # before, a long literal left int()'s ValueError as INVALID_ARGUMENT
        # and deep nesting a RecursionError as ERROR, neither with a line
        path = tmp_path / "malformed.problem"
        path.write_text(CIRCLE_PROBLEM.replace("objective: x", f"objective: {objective}"))
        assert main(["validate", "--problem", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: PROBLEM_FILE: line 3: {message}")

    def test_validate_compiles_nothing(self, tmp_path, capsys):
        # a coefficient past the float range is still printed exactly
        big = "2" + "0" * 308
        path = tmp_path / "huge.problem"
        path.write_text(f"vars: u x\nconstraint: x - {big}*u\nobjective: u\nstart: u=0, x=0\n")
        assert main(["validate", "--problem", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["g_star"] == [f"-{big}*u + x"]


# each subcommand's options in --help order: (flag, type, required, default)
PROJECTION_OPTIONS = [
    ("--proj-tol", float, False, 1e-10),
    ("--proj-max-iter", int, False, 50),
    ("--oracle-radius", float, False, 0.5),
]
SUBCOMMAND_OPTIONS = {
    "run": [
        ("--problem", None, True, None),
        ("--seed", int, False, 0),
        ("--alpha0", float, False, 0.25),
        ("--alpha-max", float, False, math.inf),
        ("--c-forcing", float, False, None),
        ("--max-iter", int, False, 1000),
        *PROJECTION_OPTIONS,
        ("--trace", None, False, None),
        ("--report", None, False, None),
    ],
    "project": [
        ("--problem", None, True, None),
        ("--w", None, True, None),
        *PROJECTION_OPTIONS,
        ("--report", None, False, None),
    ],
    "geodesic": [
        ("--problem", None, True, None),
        ("--velocity", None, True, None),
        ("--duration", float, True, None),
        ("--step", float, False, 1e-3),
        *PROJECTION_OPTIONS,
        ("--report", None, False, None),
    ],
    "validate": [
        ("--problem", None, True, None),
        ("--report", None, False, None),
    ],
}


class TestParser:
    """The flag table of every subcommand; the help text itself varies by Python."""

    @staticmethod
    def _subcommands():
        (action,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        return action.choices

    def test_subcommands_in_order(self):
        assert list(self._subcommands()) == list(SUBCOMMAND_OPTIONS)

    @pytest.mark.parametrize("command", list(SUBCOMMAND_OPTIONS))
    def test_options(self, command):
        actions = [a for a in self._subcommands()[command]._actions if a.dest != "help"]
        got = [(*a.option_strings, a.type, a.required, a.default) for a in actions]
        assert got == SUBCOMMAND_OPTIONS[command]


class TestSubprocessEntry:
    def test_console_invocation_deterministic(self, curve_file, tmp_path):
        out = []
        for name in ("s1.csv", "s2.csv"):
            trace = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "polydescent.cli",
                    "run",
                    "--problem", curve_file,
                    "--seed", "5",
                    "--max-iter", "200",
                    "--trace", str(trace),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode in (0, 2), proc.stderr
            out.append(trace.read_bytes())
        assert out[0] == out[1]
