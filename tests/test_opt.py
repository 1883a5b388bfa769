"""Cone solver, QP front end and weighted pseudoinverse."""

from itertools import product

import numpy as np
import pytest

from volspline import opt
from volspline.regression import ConstraintSet


def solve_qp_oracle_eq(P, q, A, b):
    """KKT linear-system solution of an equality-constrained QP."""
    n, me = P.shape[0], A.shape[0]
    K = np.block([[P, A.T], [A, np.zeros((me, me))]])
    return np.linalg.solve(K, np.concatenate([-q, b]))[:n]


def solve_qp_oracle_box(P, q, lo, hi):
    """Active-set enumeration over the box faces."""
    n = P.shape[0]
    best = (np.inf, None)
    for act in product([0, 1, 2], repeat=n):
        fixed = {i: (lo[i] if a == 1 else hi[i]) for i, a in enumerate(act) if a}
        free = [i for i in range(n) if i not in fixed]
        x = np.zeros(n)
        for i, v in fixed.items():
            x[i] = v
        if free:
            shift = (
                P[np.ix_(free, list(fixed))] @ np.array([fixed[i] for i in fixed])
                if fixed
                else np.zeros(len(free))
            )
            x[free] = np.linalg.solve(P[np.ix_(free, free)], -q[free] - shift)
        if np.all(x >= lo - 1e-11) and np.all(x <= hi + 1e-11):
            val = 0.5 * x @ P @ x + q @ x
            if val < best[0]:
                best = (val, x.copy())
    return best


class TestSolveSOCP:
    def test_1d_cone(self):
        prog = opt.SOCProgram(np.array([1.0]), [opt.ConeBlock(np.array([[1.0]]), [0.0], [0.0], 1.0)])
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(-1.0, abs=1e-7)

    def test_2d_cone_lagrange(self):
        prog = opt.SOCProgram(
            np.array([1.0, 1.0]),
            [opt.ConeBlock(np.eye(2), np.zeros(2), np.zeros(2), np.sqrt(2.0))],
        )
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [-1.0, -1.0], atol=1e-7)

    def test_objective_scaling_invariance(self):
        blocks = [opt.ConeBlock(np.eye(2), np.zeros(2), np.zeros(2), np.sqrt(2.0))]
        x1 = opt.solve_socp(opt.SOCProgram(np.array([1.0, 1.0]), blocks)).x
        x2 = opt.solve_socp(opt.SOCProgram(np.array([7.0, 7.0]), blocks)).x
        np.testing.assert_allclose(x1, x2, atol=1e-7)

    def test_infeasible_detected(self):
        cs = ConstraintSet(1)
        cs.add_ineq([1.0], 1.0, "lower")
        cs.add_ineq([-1.0], 0.0, "upper")  # x >= 1 and x <= 0
        sol = opt.solve_qp(opt.QuadForm(np.array([[2.0]])), cs)
        assert sol.status == "infeasible"

    def test_orthant_only_lp(self):
        # min x s.t. x >= 1: orthant rows and no second-order cone
        prog = opt.SOCProgram(np.array([1.0]), [opt.ConeBlock(np.zeros((0, 1)), [], [1.0], -1.0)])
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-7)

    def test_kkt_residuals_reported(self):
        prog = opt.SOCProgram(np.array([1.0]), [opt.ConeBlock(np.array([[1.0]]), [0.0], [0.0], 1.0)])
        sol = opt.solve_socp(prog, tol=1e-8)
        assert max(sol.kkt_residuals) <= 1e-8


class TestQPRecast:
    def test_unconstrained_parabola(self):
        sol = opt.solve_qp(opt.QuadForm(np.array([[2.0]]), np.array([0.0])))
        assert sol.x[0] == pytest.approx(0.0, abs=1e-7)

    def test_active_bound(self):
        cs = ConstraintSet(1)
        cs.add_ineq([-1.0], 0.0, "bound")  # x <= 0
        sol = opt.solve_qp(opt.QuadForm(np.array([[2.0]]), np.array([-2.0])), cs)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-7)

    def test_equality_projection(self):
        cs = ConstraintSet(2)
        cs.add_eq([1.0, 1.0], 2.0, "sum")
        sol = opt.solve_qp(opt.QuadForm(2.0 * np.eye(2)), cs)
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-7)

    def test_objective_and_equality_only_solve(self):
        P = np.array([[2.0, 0.5], [0.5, 4.0]])
        q = np.array([1.0, -1.0])
        A, b = np.array([[1.0, 2.0]]), np.array([0.5])
        quad = opt.QuadForm(P, q)
        cs = ConstraintSet(2)
        cs.add_eq(A[0], b[0], "eq")
        sol = opt.solve_qp(quad, cs)
        assert sol.objective == quad.value(sol.x)
        # no cone rows: one KKT solve, no interior-point iterations
        assert sol.status == "optimal" and sol.iterations == 0
        np.testing.assert_allclose(sol.x, solve_qp_oracle_eq(P, q, A, b), atol=1e-12)

    @pytest.mark.parametrize("P", [np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])])
    def test_variable_in_no_constraint_row(self, P):
        # x1 appears in no row and the one row, x0 >= 0, is inactive
        q = np.array([-1.0, -1.0])
        cs = ConstraintSet(2)
        cs.add_ineq([1.0, 0.0], 0.0, "x0 >= 0")
        sol = opt.solve_qp(opt.QuadForm(P, q), cs)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, np.linalg.solve(P, -q), rtol=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(opt.OptError, match="not positive semidefinite"):
            opt.QuadForm(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_matches_normal_equations_unconstrained(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            P = rng.standard_normal((n, n))
            P = P @ P.T + 0.3 * np.eye(n)
            q = rng.standard_normal(n)
            sol = opt.solve_qp(opt.QuadForm(P, q))
            np.testing.assert_allclose(sol.x, np.linalg.solve(P, -q), atol=1e-6)


class TestRandomInstances:
    def test_equality_qps_against_kkt(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            me = int(rng.integers(1, n))
            A = rng.standard_normal((me, n))
            P = rng.standard_normal((n, n))
            P = P @ P.T + 0.5 * np.eye(n)
            q = rng.standard_normal(n)
            b = rng.standard_normal(me)
            cs = ConstraintSet(n)
            for row, rhs in zip(A, b):
                cs.add_eq(row, rhs, "eq")
            sol = opt.solve_qp(opt.QuadForm(P, q), cs)
            xstar = solve_qp_oracle_eq(P, q, A, b)
            assert sol.status == "optimal"
            assert max(sol.kkt_residuals) <= 1e-8
            assert abs(sol.objective - (0.5 * xstar @ P @ xstar + q @ xstar)) <= 1e-6

    def test_box_qps_against_enumeration(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            P = rng.standard_normal((n, n))
            P = P @ P.T + 0.5 * np.eye(n)
            q = rng.standard_normal(n)
            lo = -rng.uniform(0.1, 1.0, n)
            hi = rng.uniform(0.1, 1.0, n)
            val, _ = solve_qp_oracle_box(P, q, lo, hi)
            cs = ConstraintSet(n)
            for j in range(n):
                cs.add_ineq(np.eye(n)[j], lo[j], "lo")
                cs.add_ineq(-np.eye(n)[j], -hi[j], "hi")
            sol = opt.solve_qp(opt.QuadForm(P, q), cs)
            assert sol.status == "optimal"
            assert max(sol.kkt_residuals) <= 1e-8
            assert sol.objective == pytest.approx(val, abs=1e-6)


class TestPseudoinverse:
    def test_minimal_norm(self):
        x = opt.pseudoinverse_lsq([[1.0, 0.0]], [1.0], np.eye(2))
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)

    def test_weighted_tiebreak(self):
        x = opt.pseudoinverse_lsq([[1.0, 1.0]], [2.0], np.diag([1.0, 4.0]))
        np.testing.assert_allclose(x, [8.0 / 5.0, 2.0 / 5.0], atol=1e-10)

    def test_inconsistent_system(self):
        x = opt.pseudoinverse_lsq([[1.0], [1.0]], [0.0, 2.0], [[1.0]])
        assert x[0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_weight_matches_numpy_pinv(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            A = rng.standard_normal((m, n))
            if rng.random() < 0.5 and min(m, n) > 1:
                A[:, -1] = A[:, 0]  # force rank deficiency
            b = rng.standard_normal(m)
            x1 = opt.pseudoinverse_lsq(A, b, np.eye(n))
            x2 = np.linalg.pinv(A, rcond=1e-12) @ b
            np.testing.assert_allclose(x1, x2, atol=1e-10)

    def test_rejects_bad_q(self):
        with pytest.raises(opt.OptError):
            opt.pseudoinverse_lsq([[1.0, 0.0]], [1.0], np.diag([1.0, -1.0]))
