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
        prog = opt.SOCProgram(np.array([1.0]), G=[[-1.0]], h=[-1.0])
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-7)

    def test_rejects_inconsistent_orthant_block(self):
        f = np.array([1.0, 2.0])
        with pytest.raises(opt.OptError, match="orthant block"):
            opt.SOCProgram(f, G=[[1.0, 0.0], [0.0, 1.0]], h=[1.0])  # two rows, one right-hand side
        with pytest.raises(opt.OptError, match="orthant block"):
            opt.SOCProgram(f, G=[[1.0, 0.0, 0.0]], h=[1.0])  # three columns, two variables
        with pytest.raises(opt.OptError, match="orthant block"):
            opt.SOCProgram(f, h=[1.0])  # a right-hand side without rows

    def test_cone_block_is_a_second_order_cone(self):
        with pytest.raises(opt.OptError, match="no rows"):
            opt.ConeBlock(np.zeros((0, 1)), [], [1.0], -1.0)

    def test_kkt_residuals_reported(self):
        prog = opt.SOCProgram(np.array([1.0]), [opt.ConeBlock(np.array([[1.0]]), [0.0], [0.0], 1.0)])
        sol = opt.solve_socp(prog, tol=1e-8)
        assert max(sol.kkt_residuals) <= 1e-8


def equilibrate_row_by_row(G, h, A, b, f, P, ml, socs, sweeps=6):
    """``opt._equilibrate`` with one Python step per orthant row."""
    d, e, a = np.ones(G.shape[1]), np.ones(G.shape[0]), np.ones(A.shape[0])
    starts = np.cumsum([ml] + socs[:-1])
    groups = [(i, i + 1) for i in range(ml)] + [(st, st + q) for st, q in zip(starts, socs)]
    for _ in range(sweeps):
        col = np.abs(np.vstack([(d[:, None] * P) * d, (e[:, None] * G) * d, (a[:, None] * A) * d])).max(axis=0)
        d /= np.sqrt(np.where(col > 0.0, col, 1.0))
        Gs = (e[:, None] * G) * d
        for lo, hi in groups:
            r = np.abs(Gs[lo:hi]).max()
            if r > 0.0:
                e[lo:hi] /= np.sqrt(r)
        a /= np.sqrt(np.maximum(np.abs((a[:, None] * A) * d).max(axis=1, initial=0.0), 1e-12))
    fs, Ps = d * f, (d[:, None] * P) * d
    obj_scale = max(np.abs(fs).max(), np.abs(Ps).max(axis=0).mean(), 1e-12)
    return (e[:, None] * G) * d, e * h, (a[:, None] * A) * d, a * b, fs / obj_scale, Ps / obj_scale, d, e


def test_orthant_rows_scale_as_one_block():
    rng = np.random.default_rng(9)
    n, ml, socs = 5, 7, [3, 2]
    G = rng.standard_normal((ml + sum(socs), n)) * 10.0 ** rng.uniform(-4, 4, (ml + sum(socs), 1))
    G[2] = 0.0  # a zero row keeps its scale
    h, b, f = rng.standard_normal(G.shape[0]), rng.standard_normal(2), rng.standard_normal(n)
    A = rng.standard_normal((2, n))
    B = rng.standard_normal((n, n))
    P = B @ B.T
    got = opt._equilibrate(G, h, A, b, f, P, opt._Cones(ml, socs))
    for x, y in zip(got, equilibrate_row_by_row(G, h, A, b, f, P, ml, socs)):
        np.testing.assert_array_equal(x, y)


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

    def test_zero_inequality_row_changes_nothing(self):
        # an all-zero row 0 >= -1 keeps its equilibration scale of 1
        P = np.array([[2.0, 0.5], [0.5, 1.0]])
        q = np.array([-4.0, 1.0])
        rows = np.array([[-1.0, 0.0], [0.0, 1.0]])  # x0 <= 1, x1 >= 0.5
        rhs = np.array([-1.0, 0.5])
        plain = ConstraintSet(2)
        plain.add_ineq_rows(rows, rhs, "box")
        padded = ConstraintSet(2)
        padded.add_ineq_rows(np.insert(rows, 1, 0.0, axis=0), np.insert(rhs, 1, -1.0), "box")
        want = opt.solve_qp(opt.QuadForm(P, q), plain)
        sol = opt.solve_qp(opt.QuadForm(P, q), padded)
        assert want.status == sol.status == "optimal"
        np.testing.assert_allclose(want.x, [1.0, 0.5], atol=1e-8)
        np.testing.assert_allclose(sol.x, want.x, rtol=0.0, atol=1e-10)

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
