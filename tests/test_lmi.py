import numpy as np
import pytest

from helpers import random_psd, random_sym_with_eigs
from dissinet.lmi import (
    AffineMatrixExpr,
    BlockForm,
    LmiConstraint,
    LmiProblem,
    LmiSolution,
    MatrixVariable,
    SandwichTerm,
    SolveOptions,
    evaluate,
    solve,
    verify,
)


def scalar_problem(margin=1e-6):
    expr = BlockForm([1]).put_var(0, 0, "x").expr()
    return LmiProblem(
        variables=[MatrixVariable("x", (1, 1), "symmetric")],
        constraints=[LmiConstraint(expr, "geq")],
        margin=margin,
    )


def lyapunov_problem(a=0.5, margin=1e-6):
    A = np.array([[a]])
    decrease = (
        BlockForm([1])
        .put_var(0, 0, "P")
        .put_var(0, 0, "P", left=-A.T, right=A)
        .expr()
    )
    pos = BlockForm([1]).put_var(0, 0, "P").expr()
    return LmiProblem(
        variables=[MatrixVariable("P", (1, 1), "symmetric")],
        constraints=[LmiConstraint(pos, "geq"), LmiConstraint(decrease, "geq")],
        margin=margin,
    )


class TestExpressions:
    def test_constant_only(self):
        expr = AffineMatrixExpr(np.diag([2.0, 3.0]))
        assert np.allclose(evaluate(expr, {}), np.diag([2.0, 3.0]))

    def test_single_variable(self):
        expr = BlockForm([2]).put_var(0, 0, "P").expr()
        assert np.allclose(evaluate(expr, {"P": np.eye(2)}), np.eye(2))

    def test_missing_variable_raises(self):
        expr = BlockForm([1]).put_var(0, 0, "P").expr()
        with pytest.raises(KeyError, match="P"):
            evaluate(expr, {})

    def test_design_blocks_match_direct_arithmetic(self):
        # scalar design data: P=1, A=0.5, B=0, Z=0, G=0.1, S=0.5, C=1,
        # R=0.4, inv(Q) = -1; compare against the hand-assembled matrix
        A, B, G, C = (np.array([[v]]) for v in (0.5, 0.0, 0.1, 1.0))
        S, R, Qt = (np.array([[v]]) for v in (0.5, 0.4, -1.0))
        form = BlockForm([1, 1, 1, 1])
        form.put_var(0, 0, "P")
        form.put_var(0, 1, "P", left=A)
        form.put_var(0, 1, "Z", left=B)
        form.put_const(0, 2, G)
        form.put_var(1, 1, "P")
        form.put_var(1, 2, "P", right=C.T @ S)
        form.put_var(1, 3, "P", right=C.T)
        form.put_const(2, 2, R)
        form.put_const(3, 3, -Qt)
        out = evaluate(form.expr(), {"P": np.eye(1), "Z": np.zeros((1, 1))})
        expected = np.array(
            [
                [1.0, 0.5, 0.1, 0.0],
                [0.5, 1.0, 0.5, 1.0],
                [0.1, 0.5, 0.4, 0.0],
                [0.0, 1.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(out, expected)

    def test_transpose_term(self):
        # off-diagonal placement of Z^T lands transposed in the mirror block
        form = BlockForm([2, 1]).put_var(0, 1, "Z", transpose=True)
        Z = np.array([[1.0, 2.0]])
        out = evaluate(form.expr(), {"Z": Z})
        assert np.allclose(out[:2, 2:], Z.T)
        assert np.allclose(out[2:, :2], Z)

    def test_result_is_symmetric(self):
        rng = np.random.default_rng(0)
        form = BlockForm([2, 2])
        form.put_var(0, 1, "X", left=rng.standard_normal((2, 2)))
        form.put_const(0, 0, random_sym_with_eigs(rng, 2, -1, 1))
        out = evaluate(form.expr(), {"X": rng.standard_normal((2, 2))})
        assert np.allclose(out, out.T)


class TestProblemValidation:
    def test_undeclared_variable(self):
        expr = BlockForm([1]).put_var(0, 0, "ghost").expr()
        with pytest.raises(ValueError, match="undeclared"):
            LmiProblem(variables=[], constraints=[LmiConstraint(expr)])

    def test_symmetric_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            MatrixVariable("P", (2, 3), "symmetric")

    def test_negative_margin(self):
        with pytest.raises(ValueError, match="margin"):
            scalar_problem(margin=-1.0)


class TestSolve:
    def test_scalar_feasibility(self):
        sol = solve(scalar_problem())
        assert sol.verified
        assert sol.assignment["x"][0, 0] >= 1e-6 - 1e-9

    def test_lyapunov_has_identity_witness(self):
        sol = solve(lyapunov_problem())
        assert sol.verified
        reports = verify(lyapunov_problem(), sol.assignment)
        assert all(r.ok for r in reports)

    def test_leq_sense(self):
        expr = BlockForm([1]).put_var(0, 0, "x").expr()
        prob = LmiProblem(
            variables=[MatrixVariable("x", (1, 1), "symmetric")],
            constraints=[LmiConstraint(expr, "leq")],
            margin=0.5,
        )
        sol = solve(prob)
        assert sol.verified
        assert sol.assignment["x"][0, 0] <= -0.5 + 1e-9

    def test_determinism(self):
        opts = SolveOptions()
        a = solve(lyapunov_problem(), opts)
        b = solve(lyapunov_problem(), opts)
        assert a.status == b.status
        assert np.array_equal(a.assignment["P"], b.assignment["P"])

    def test_planted_witness_fuzz(self):
        # constraints built to be satisfied by a planted PD target must
        # come back Verified at small dimensions
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(1, 6))
            planted = random_psd(rng, n, hi=2.0) + 0.5 * np.eye(n)
            offset = random_sym_with_eigs(rng, n, -0.2, 0.2)
            # constraint P - offset >= margin: satisfied by planted + slack
            expr = BlockForm([n]).put_var(0, 0, "P").put_const(0, 0, -offset).expr()
            prob = LmiProblem(
                variables=[MatrixVariable("P", (n, n), "symmetric")],
                constraints=[LmiConstraint(expr, "geq")],
                margin=1e-6,
            )
            sol = solve(prob, SolveOptions())
            assert sol.verified
            assert all(r.ok for r in verify(prob, sol.assignment))

    def test_unknown_never_claims_infeasible(self):
        # contradictory constraints: x >= 1 and -x >= 1
        expr_pos = BlockForm([1]).put_var(0, 0, "x").put_const(0, 0, [[-1.0]]).expr()
        expr_neg = (
            BlockForm([1]).put_var(0, 0, "x", scale=-1.0).put_const(0, 0, [[-1.0]]).expr()
        )
        prob = LmiProblem(
            variables=[MatrixVariable("x", (1, 1), "symmetric")],
            constraints=[LmiConstraint(expr_pos), LmiConstraint(expr_neg)],
        )
        sol = solve(prob, SolveOptions(max_iters=100))
        assert sol.status == "Unknown"

    def test_warm_start_used(self):
        expr = BlockForm([1]).put_var(0, 0, "x").put_const(0, 0, [[-41.0]]).expr()
        prob = LmiProblem(
            variables=[MatrixVariable("x", (1, 1), "symmetric")],
            constraints=[LmiConstraint(expr)],
            margin=1e-6,
        )
        sol = solve(prob, SolveOptions(initial={"x": np.array([[42.0]])}))
        assert sol.verified
        assert sol.assignment["x"][0, 0] == pytest.approx(42.0)

    def test_newton_steps_counted_and_capped(self):
        # a start point that holds takes no step; one that misses the margin
        # takes at least one, and max_iters caps the count
        assert LmiSolution({}, 0.0, "Unknown").iterations == 0
        assert solve(scalar_problem()).iterations == 0
        sol = solve(scalar_problem(margin=5.0))
        assert sol.verified
        assert 1 <= sol.iterations <= 100
        capped = solve(scalar_problem(margin=5.0), SolveOptions(max_iters=1))
        assert capped.iterations == 1


class TestVerify:
    def test_corrupted_assignment_fails(self):
        prob = lyapunov_problem()
        sol = solve(prob)
        bad = {"P": -sol.assignment["P"]}
        assert not all(r.ok for r in verify(prob, bad))

    def test_zero_assignment_fails_strict_problem(self):
        prob = scalar_problem(margin=0.5)
        reports = verify(prob, {"x": np.zeros((1, 1))})
        assert not reports[0].ok
        assert reports[0].min_eig == pytest.approx(0.0)
        assert reports[0].required == pytest.approx(0.5)

    def test_report_names(self):
        expr = BlockForm([1]).put_var(0, 0, "x").expr()
        prob = LmiProblem(
            variables=[MatrixVariable("x", (1, 1), "symmetric")],
            constraints=[LmiConstraint(expr, "geq", name="positivity")],
        )
        reports = verify(prob, {"x": np.eye(1)})
        assert reports[0].name == "positivity"

    def test_target_margin_override(self):
        prob = scalar_problem(margin=1e-6)
        reports = verify(prob, {"x": np.array([[0.4]])}, target_margin=0.5)
        assert not reports[0].ok
        assert reports[0].required == pytest.approx(0.5)
        sol = solve(prob, SolveOptions(target_margin=0.5))
        assert sol.verified
        assert sol.assignment["x"][0, 0] >= 0.5 - 1e-9

    def test_constraint_margin_beats_target(self):
        expr = BlockForm([1]).put_var(0, 0, "x").expr()
        prob = LmiProblem(
            variables=[MatrixVariable("x", (1, 1), "symmetric")],
            constraints=[LmiConstraint(expr, "geq", margin=2.0)],
        )
        reports = verify(prob, {"x": np.array([[1.0]])}, target_margin=0.1)
        assert reports[0].required == pytest.approx(2.0)


class TestBlockFormValidation:
    def test_const_block_shape(self):
        with pytest.raises(ValueError, match="expects"):
            BlockForm([2, 1]).put_const(0, 1, np.eye(2))

    def test_block_sizes_positive(self):
        with pytest.raises(ValueError, match="positive"):
            BlockForm([2, 0])


def test_sandwich_term_transpose_application():
    term = SandwichTerm("Z", np.eye(2), np.eye(2), transpose=True, scale=2.0)
    Z = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = term.apply(Z)
    assert np.allclose(out, Z + Z.T)
