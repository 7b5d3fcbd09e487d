import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_nonconstant_polynomial
from polydescent.geometry import lift
from polydescent.polynomials import Monomial, Polynomial, VariableOrder, parse_polynomial
from polydescent.triangular import (
    AUTO,
    MAX_STAGE_DEGREE,
    ConstantMemberError,
    DuplicateMainVariableError,
    EmptyReducedSystemError,
    NotEliminableError,
    RankDeficientError,
    linear_whitney,
    validate_triangular,
    whitney_partition,
)

Z4 = VariableOrder(["z1", "z2", "z3", "z4"])
UXY = VariableOrder(["u", "x", "y"])


def _z4_system():
    return [
        parse_polynomial("z1^2*z2^2 - 1", Z4),
        parse_polynomial("z3 + z1", Z4),
        parse_polynomial("z4 + z2", Z4),
    ]


class TestValidate:
    def test_classification(self):
        sys = validate_triangular(_z4_system(), Z4)
        assert sys.algebraic_vars == frozenset({1, 2, 3})
        assert sys.free_vars == frozenset({0})
        assert sys.manifold_dim == 1
        # sorted by ascending main variable
        assert [p.main_variable() for p in sys.polynomials] == [1, 2, 3]

    def test_curve_classification(self):
        polys = [
            parse_polynomial("u^2 + x^3 + y^5", UXY),
            parse_polynomial("u^4 + x^2 - 1", UXY),
        ]
        sys = validate_triangular(polys, UXY)
        assert sys.algebraic_vars == frozenset({UXY.index("x"), UXY.index("y")})
        assert sys.free_vars == frozenset({UXY.index("u")})

    def test_zero_polynomial_rejected(self):
        x = VariableOrder(["x"])
        zero = parse_polynomial("x - x", x)
        with pytest.raises(ConstantMemberError):
            validate_triangular([zero], x)

    def test_duplicate_mvar(self):
        with pytest.raises(DuplicateMainVariableError) as exc:
            validate_triangular(
                [parse_polynomial("x^2 - 1", UXY), parse_polynomial("x + u", UXY)],
                UXY,
            )
        assert exc.value.name == "x"

    def test_empty_system_rejected(self):
        # a manifold needs at least one member to cut it out
        with pytest.raises(ValueError, match="at least one member"):
            validate_triangular([], VariableOrder(["u", "x"]))

    def test_member_over_another_order(self):
        g = parse_polynomial("x - u", VariableOrder(["u", "x"]))
        with pytest.raises(ValueError, match="different variable order"):
            validate_triangular([g], UXY)


class TestPartition:
    def test_two_stage_elimination(self):
        sys = validate_triangular(_z4_system(), Z4)
        part = whitney_partition(sys, eliminate=[2, 3])
        assert part.eliminated == (2, 3)
        assert part.retained == (0, 1)
        assert part.g_star == (parse_polynomial("z1^2*z2^2 - 1", Z4),)
        assert part.g_circ == (
            parse_polynomial("z3 + z1", Z4),
            parse_polynomial("z4 + z2", Z4),
        )
        assert part.reduced_dim == 2
        assert part.manifold_dim == 1

    def test_curve_elimination(self):
        polys = [
            parse_polynomial("u^2 + x^3 + y^5", UXY),
            parse_polynomial("u^4 + x^2 - 1", UXY),
        ]
        sys = validate_triangular(polys, UXY)
        part = whitney_partition(sys, eliminate=[UXY.index("y")])
        assert part.g_star == (parse_polynomial("u^4 + x^2 - 1", UXY),)
        assert part.g_circ == (parse_polynomial("u^2 + x^3 + y^5", UXY),)

    def test_identity_partition(self):
        polys = [
            parse_polynomial("u^2 + x^3 + y^5", UXY),
            parse_polynomial("u^4 + x^2 - 1", UXY),
        ]
        sys = validate_triangular(polys, UXY)
        part = whitney_partition(sys, eliminate=[])
        assert part.g_circ == ()
        assert set(part.g_star) == set(polys)
        assert part.reduced_dim == 3

    def test_not_eliminable_when_retained_depends(self):
        # x is algebraic but the y-constraint (retained) still involves it
        polys = [
            parse_polynomial("x^2 - u", UXY),
            parse_polynomial("y + x", UXY),
        ]
        sys = validate_triangular(polys, UXY)
        with pytest.raises(NotEliminableError):
            whitney_partition(sys, eliminate=[UXY.index("x")])

    def test_free_variable_not_eliminable(self):
        sys = validate_triangular([parse_polynomial("x^2 - u", UXY)], UXY)
        with pytest.raises(NotEliminableError):
            whitney_partition(sys, eliminate=[UXY.index("u")])

    def test_empty_gstar(self):
        sys = validate_triangular([parse_polynomial("x^2 - u", UXY)], UXY)
        with pytest.raises(EmptyReducedSystemError):
            whitney_partition(sys, eliminate=[UXY.index("x")])

    def test_cascade_order_violation(self):
        # y2-stage constraint involves y1, so y1 must be solved first
        order = VariableOrder(["u", "x", "y1", "y2"])
        polys = [
            parse_polynomial("x^2 - u", order),
            parse_polynomial("y1 - u", order),
            parse_polynomial("y2 + y1 + u", order),
        ]
        sys = validate_triangular(polys, order)
        y1, y2 = order.index("y1"), order.index("y2")
        whitney_partition(sys, eliminate=[y1, y2])  # fine
        with pytest.raises(NotEliminableError):
            whitney_partition(sys, eliminate=[y2, y1])

    def test_auto_respects_whitney_bound(self):
        # m = 1, four variables: auto stops at d = 3 after one elimination
        sys = validate_triangular(_z4_system(), Z4)
        part = whitney_partition(sys, AUTO)
        assert part.eliminated == (3,)
        assert part.reduced_dim == 3

    def test_auto_at_bound_keeps_everything(self):
        polys = [
            parse_polynomial("u^2 + x^3 + y^5", UXY),
            parse_polynomial("u^4 + x^2 - 1", UXY),
        ]
        sys = validate_triangular(polys, UXY)
        part = whitney_partition(sys, AUTO)
        assert part.eliminated == ()
        assert part.reduced_dim == 3

    def test_auto_uniqueness_guard(self):
        # y enters through an even power: no guaranteed real root,
        # so auto must stop before eliminating anything
        order = VariableOrder(["u1", "u2", "x", "y"])
        polys = [
            parse_polynomial("x + u1^2", order),
            parse_polynomial("y^2 - x - u2", order),
        ]
        sys = validate_triangular(polys, order)
        part = whitney_partition(sys, AUTO)
        assert part.eliminated == ()
        # the explicit request bypasses the guard
        part = whitney_partition(sys, eliminate=[order.index("y")])
        assert part.eliminated == (order.index("y"),)

    @pytest.mark.parametrize("top, eliminated", [("z^2 - y", ()), ("z^3 + z - y", (3,))])
    def test_auto_stops_at_a_member_without_a_guaranteed_root(self, top, eliminated):
        # m = 1 over four variables, so auto may eliminate one member; the
        # even-degree top member has no guaranteed real root
        order = VariableOrder(["u", "x", "y", "z"])
        polys = [parse_polynomial(t, order) for t in ("x - u", "y - x", top)]
        part = whitney_partition(validate_triangular(polys, order), AUTO)
        assert part.eliminated == eliminated

    @pytest.mark.parametrize("degree", [199, 200, 201, 601])
    def test_a_stage_of_too_high_a_degree(self, degree):
        # a lift stage's root plan recurses twice per degree: the curve with
        # y^601 ran out of recursion at the first lift.  Asked for, such a
        # member is refused; under auto it stays retained, as an even degree does
        order = VariableOrder(["u", "x", "y", "z"])
        polys = [parse_polynomial(t, order) for t in ("x - u", "y - x", f"z^{degree} - y")]
        sys = validate_triangular(polys, order)
        assert whitney_partition(sys, AUTO).eliminated == ((3,) if degree == 199 else ())
        if degree <= MAX_STAGE_DEGREE:
            part = whitney_partition(sys, [3])
            roots = part.compiled.stage_roots(0, [-1.0, -1.0, -1.0, 0.0])
            assert roots == ([-1.0] if degree == 199 else [])
        else:
            message = f"has degree {degree} in 'z'; a lift stage is solved up to degree 200"
            with pytest.raises(NotEliminableError, match=message):
                whitney_partition(sys, [3])

    def test_conservation_and_dimensions_random(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(2, 6)
            order = VariableOrder([f"z{i}" for i in range(n)])
            k = rng.randint(1, n)
            mvars = sorted(rng.sample(range(n), k))
            polys = []
            for v in mvars:
                # force main variable v: v^d plus a tail in variables < v
                d = rng.randint(1, 3)
                poly = Polynomial(
                    order, {Monomial(((v, d),)): Fraction(rng.randint(1, 5))}
                )
                if v > 0:
                    tail = random_nonconstant_polynomial(rng, order)
                    keep = {
                        m: c
                        for m, c in tail.terms.items()
                        if all(i < v for i, _ in m.exps)
                    }
                    poly = poly + Polynomial(order, keep)
                polys.append(poly)
            sys = validate_triangular(polys, order)
            t = rng.randint(0, k)
            elim = sorted(sys.algebraic_vars, reverse=True)[:t]
            elim = sorted(elim)
            if t == k:
                with pytest.raises(EmptyReducedSystemError):
                    whitney_partition(sys, eliminate=elim)
                continue
            part = whitney_partition(sys, eliminate=elim)
            # conservation as multisets
            assert sorted(map(str, part.g_star + part.g_circ)) == sorted(
                map(str, sys.polynomials)
            )
            # dimension accounting
            assert len(part.g_star) + len(part.g_circ) == k
            assert len(part.retained) + len(part.eliminated) == n
            assert part.manifold_dim == sys.manifold_dim
            # cascade: stage j involves no later-eliminated variable
            for j, p in enumerate(part.g_circ):
                assert not (p.variables() & set(part.eliminated[j + 1 :]))
                assert p.main_variable() == part.eliminated[j]
            for p in part.g_star:
                assert not (p.variables() & set(part.eliminated))

    @pytest.mark.parametrize(
        "eliminate, error, message",
        [
            ("everything", ValueError, "unknown elimination mode 'everything'"),
            ([3], ValueError, "variable index 3 out of range"),
            ([2, 2], NotEliminableError, "variable 'y' listed twice"),
            # before, 2.0 was accepted and failed at the first lift, and 2.5
            # raised TypeError while the out-of-range message was built
            ([2.0], ValueError, r"variable index must be an integer, got 2\.0"),
            ([2.5], ValueError, r"variable index must be an integer, got 2\.5"),
            (["y"], ValueError, "variable index must be an integer, got 'y'"),
        ],
    )
    def test_bad_eliminate_argument(self, eliminate, error, message):
        polys = [parse_polynomial("x^2 - u", UXY), parse_polynomial("y - x", UXY)]
        with pytest.raises(error, match=message):
            whitney_partition(validate_triangular(polys, UXY), eliminate)

    def test_numpy_integer_indices_accepted(self):
        polys = [parse_polynomial("u^4 + x^2 - 1", UXY), parse_polynomial("u^2 + x^3 + y^5", UXY)]
        part = whitney_partition(validate_triangular(polys, UXY), [np.int64(2)])
        assert part.eliminated == (2,)
        assert lift(part, [0.0, 1.0]).tolist() == [0.0, 1.0, -1.0]

    def test_partition_is_frozen(self):
        # its compiled form is cached, which is sound only while no field changes
        polys = [parse_polynomial("u^4 + x^2 - 1", UXY), parse_polynomial("u^2 + x^3 + y^5", UXY)]
        part = whitney_partition(validate_triangular(polys, UXY), [2])
        assert part.compiled is part.compiled
        for field in dataclasses.fields(part):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(part, field.name, ())
        assert part.g_star == (polys[0],)


def _upper(last):
    # full row rank whatever its last entry
    return np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, last]])


class TestLinearWhitney:
    def test_boundary_k_not_large_enough(self):
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            linear_whitney(A, np.zeros(2), m=1)

    @pytest.mark.parametrize(
        "A, b, m, message",
        [
            (np.ones(3), np.ones(3), 0, "A must be a matrix"),
            (np.eye(3), np.ones(3), -1, "m must be at least 0, got -1"),
            (np.eye(3), np.ones(3), 1, r"A must be k x \(m \+ k\)"),
            (np.eye(3), np.ones(2), 0, "b must have one entry per row of A"),
            (_upper(np.nan), np.array([1.0, 2.0, 3.0]), 1, "A and b must be finite"),
            (_upper(np.inf), np.array([1.0, 2.0, 3.0]), 1, "A and b must be finite"),
            (np.eye(3, 4), np.array([1.0, np.nan, 3.0]), 1, "A and b must be finite"),
            # before, 1.0 was accepted and solve_reduced raised TypeError
            (np.eye(3), np.ones(3), 1.0, r"m must be an integer, got 1\.0"),
            (np.eye(3), np.ones(3), "1", "m must be an integer, got '1'"),
        ],
    )
    def test_bad_arguments(self, A, b, m, message):
        with pytest.raises(ValueError, match=message):
            linear_whitney(A, b, m)

    def test_numpy_integer_m_accepted(self):
        A = np.triu(np.ones((3, 4))) + np.eye(3, 4)
        form = linear_whitney(A, np.ones(3), np.int64(1))
        assert form.split == 1
        u = np.array([0.5])
        z = form.recover(form.solve_reduced(u), u)
        assert np.linalg.norm(A @ z - np.ones(3)) <= 1e-12

    def test_already_triangular(self):
        rng = np.random.default_rng(3)
        A = np.triu(rng.normal(size=(3, 3))) + 3 * np.eye(3)
        b = rng.normal(size=3)
        form = linear_whitney(A, b, m=0)
        x = form.solve_reduced(np.zeros(0))
        z = form.recover(x, np.zeros(0))
        assert np.linalg.norm(A @ z - b) <= 1e-10

    def test_random_full_rank(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 5))
        b = rng.normal(size=4)
        form = linear_whitney(A, b, m=1)
        u = rng.normal(size=1)
        x = form.solve_reduced(u)
        z = form.recover(x, u)
        assert np.linalg.norm(A @ z - b) <= 1e-10

    def test_rank_deficient(self):
        A = np.ones((3, 4))
        with pytest.raises(RankDeficientError):
            linear_whitney(A, np.ones(3), m=1)

    def test_matches_direct_solve(self):
        # oracle: dense least-squares for y at the matched (x, u)
        rng = np.random.default_rng(11)
        for _ in range(100):
            k, m = 4, 1
            A = rng.normal(size=(k, m + k))
            b = rng.normal(size=k)
            form = linear_whitney(A, b, m)
            u = rng.normal(size=m)
            x = form.solve_reduced(u)
            z = form.recover(x, u)
            assert np.linalg.norm(A @ z - b) <= 1e-9
            split = k - m - 1
            rhs = b - A[:, split:k] @ x - A[:, k:] @ u
            y_direct, *_ = np.linalg.lstsq(A[:, :split], rhs, rcond=None)
            assert np.linalg.norm(z[:split] - y_direct) <= 1e-9
