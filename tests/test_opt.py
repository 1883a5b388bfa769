"""Solver for QPs with at most one cap, QP front end and weighted pseudoinverse."""

from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog, lsq_linear

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


def assert_kkt_certificate(prog: opt.SOCProgram, x, tol: float = 1e-8) -> None:
    """x solves a program without a cap, by its KKT conditions: it is
    primal feasible, and with the rows within tol of equality as active,
    multipliers ``z >= 0`` on them and ``y`` free on the equalities, fitted
    by ``scipy.optimize.lsq_linear``, leave a stationarity residual
    ``P x + f + A^T y + G^T z`` of at most tol relative to its terms."""
    G, h, A, b = prog.G, prog.h, prog.A_eq, prog.b_eq
    row_scale = np.abs(G) @ np.abs(x) + np.abs(h) + 1.0
    slack = h - G @ x
    assert (slack >= -tol * row_scale).all()
    np.testing.assert_allclose(A @ x, b, rtol=0.0, atol=tol * (np.abs(A) @ np.abs(x) + np.abs(b) + 1.0).max(initial=0.0))
    active = slack <= tol * row_scale
    N = np.vstack([A, G[active]]).T
    g = prog.P @ x + prog.f
    terms = max(1.0, np.linalg.norm(prog.P @ x), np.linalg.norm(prog.f))
    if N.shape[1]:
        lo = np.r_[np.full(A.shape[0], -np.inf), np.zeros(int(active.sum()))]
        fit = lsq_linear(N, -g, bounds=(lo, np.inf), method="bvls", tol=1e-14)
        terms = max(terms, np.linalg.norm(N[:, : A.shape[0]] @ fit.x[: A.shape[0]]),
                    np.linalg.norm(N[:, A.shape[0]:] @ fit.x[A.shape[0]:]))
        g = g + N @ fit.x
    assert np.linalg.norm(g) <= tol * terms


class TestSolveSOCP:
    def test_1d_cone(self):
        prog = opt.SOCProgram(np.array([1.0]), cap=(np.array([[1.0]]), 1.0))
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(-1.0, abs=1e-7)

    def test_2d_cone_lagrange(self):
        prog = opt.SOCProgram(np.array([1.0, 1.0]), cap=(np.eye(2), np.sqrt(2.0)))
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [-1.0, -1.0], atol=1e-7)

    def test_objective_scaling_invariance(self):
        cap = (np.eye(2), np.sqrt(2.0))
        x1 = opt.solve_socp(opt.SOCProgram(np.array([1.0, 1.0]), cap=cap)).x
        x2 = opt.solve_socp(opt.SOCProgram(np.array([7.0, 7.0]), cap=cap)).x
        np.testing.assert_allclose(x1, x2, atol=1e-7)

    def test_infeasible_detected(self):
        cs = ConstraintSet(1)
        cs.add_ineq([1.0], 1.0, "lower")
        cs.add_ineq([-1.0], 0.0, "upper")  # x >= 1 and x <= 0
        sol = opt.solve_qp(opt.QuadForm(np.array([[2.0]])), cs)
        assert sol.status == "infeasible"

    def test_orthant_only_lp(self):
        # min x s.t. x >= 1: orthant rows and no cap
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

    @pytest.mark.parametrize("name", ["P", "f", "G", "h", "A", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_data(self, name, bad):
        # caught before any route runs, not as an IndexError in the active set
        data = {"P": np.eye(2), "f": np.ones(2), "G": -np.eye(2), "h": np.zeros(2), "A": np.ones((1, 2)), "b": [1.0]}
        data[name] = np.array(data[name], dtype=float)
        data[name].flat[0] = bad
        prog = opt.SOCProgram(data["f"], A_eq=data["A"], b_eq=data["b"], P=data["P"], G=data["G"], h=data["h"])
        with pytest.raises(opt.OptError, match=f"solver data {name} has non-finite entries"):
            opt.solve_socp(prog)

    @pytest.mark.parametrize("C, d, name", [(np.eye(2), np.inf, "d"), ([[1.0, np.nan]], 1.0, "C")], ids=["d", "C"])
    def test_rejects_non_finite_cap(self, C, d, name):
        with pytest.raises(opt.OptError, match=f"solver data {name} has non-finite entries"):
            opt.solve_socp(opt.SOCProgram(np.ones(2), cap=(C, d)))

    @pytest.mark.parametrize("C", [np.zeros((0, 1)), np.ones((1, 2))], ids=["no-rows", "two-columns"])
    def test_cap_has_rows_and_a_column_per_variable(self, C):
        with pytest.raises(opt.OptError, match=r"cap matrix C must have rows and 1 columns"):
            opt.SOCProgram([1.0], cap=(C, 1.0))

    def test_kkt_residuals_reported(self):
        prog = opt.SOCProgram(np.array([1.0]), cap=(np.array([[1.0]]), 1.0))
        sol = opt.solve_socp(prog)
        assert max(sol.kkt_residuals) <= 1e-8

    def test_singular_kkt_matrix_ends_the_iteration(self):
        # duplicate equality rows make the KKT matrix exactly singular: the
        # route stops and says so instead of stepping with inf/NaN
        prog = opt.SOCProgram(
            f=[1.0, 2.0], A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0], G=-np.eye(2), h=np.zeros(2)
        )
        sol = opt.solve_socp(prog)
        assert sol.status == "max_iter" and sol.exit == opt.SINGULAR
        assert np.all(np.isfinite(sol.x))

    def test_kkt_solver(self):
        # the route's final solve: a regular system is solved to rounding;
        # a singular or non-finite one gives no solver
        rng = np.random.default_rng(5)
        B = rng.standard_normal((4, 4))
        H, N = B @ B.T + np.eye(4), rng.standard_normal((2, 4))
        rhs = rng.standard_normal(6)
        K = np.block([[H, N.T], [N, np.zeros((2, 2))]])
        np.testing.assert_allclose(opt._kkt(H, N)(rhs), np.linalg.solve(K, rhs), rtol=1e-12, atol=1e-12)
        assert opt._kkt(2.0 * np.eye(2), np.ones((2, 2))) is None  # an exactly zero pivot
        for bad in (np.nan, np.inf):
            H_bad = H.copy()
            H_bad[1, 2] = bad
            assert opt._kkt(H_bad, N) is None


class TestCap:
    """The program's cap ``||C x|| <= d``, solved by its multiplier."""

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_rejects_a_cap_with_no_room(self, d):
        with pytest.raises(opt.OptError, match="d > 0"):
            opt.SOCProgram([1.0], cap=([[1.0]], d))

    def test_slack_cap_is_the_cap_free_solve_bit_for_bit(self):
        prog = opt.SOCProgram([1.0, -2.0], P=[[2.0, 0.5], [0.5, 1.0]], G=[[1.0, 1.0]], h=[1.0])
        free = opt.solve_socp(prog)
        capped = opt.solve_socp(opt.SOCProgram(prog.f, P=prog.P, G=prog.G, h=prog.h, cap=(np.eye(2), 10.0)))
        assert capped.x.tobytes() == free.x.tobytes() and capped.iterations == free.iterations

    def test_binding_cap_matches_its_multiplier(self):
        # min |x - (3, 4)|^2 / 2 with x0 <= 2.5 under |x| <= 1: the cap binds
        # and the row does not, so x = (3, 4) / 5
        prog = opt.SOCProgram([-3.0, -4.0], P=np.eye(2), G=[[1.0, 0.0]], h=[2.5], cap=(np.eye(2), 1.0))
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal" and max(sol.kkt_residuals) <= 1e-8
        np.testing.assert_allclose(sol.x, [0.6, 0.8], rtol=1e-9)

    def test_cap_that_cannot_hold_is_infeasible(self):
        # x0 >= 2 under |x| <= 1
        prog = opt.SOCProgram([0.0, 0.0], P=np.eye(2), G=[[-1.0, 0.0]], h=[-2.0], cap=(np.eye(2), 1.0))
        sol = opt.solve_socp(prog)
        assert sol.status == "infeasible" and sol.exit == opt.NO_BRACKET

    def test_idle_cap_leaves_a_one_variable_program_optimal(self):
        # a cap ||0 x|| <= 1 never binds: the answer is that of the five
        # orthant rows alone, where row 2 binds at x = -0.5233 / 0.286
        G = [[-0.068], [0.0253], [-0.286], [0.0022], [-0.0002]]
        h = [0.1927, 0.8063, 0.5233, 0.6145, 1.1864]
        sol = opt.solve_socp(opt.SOCProgram([2264.1], P=[[423.27]], G=G, h=h, cap=(np.zeros((1, 1)), 1.0)))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(-1.82972028, abs=1e-8)


class TestDualActiveSet:
    """The route of ``solve_socp``: on P when it is positive definite, on
    ``P + A^T A`` when that is, and in proximal rounds otherwise."""

    @staticmethod
    def route(P, G, h, f, A=None, b=None):
        """``opt._dual_active_set`` on the raw data, without equilibration."""
        P, G, h, f = (np.asarray(v, dtype=float) for v in (P, G, h, f))
        A = np.zeros((0, f.size)) if A is None else np.asarray(A, dtype=float)
        b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float)
        return opt._dual_active_set(np.linalg.cholesky(P), P, G, h, A, b, f, 1e-12, 100)

    @staticmethod
    def assert_solve_is_the_route(prog, x_want):
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, x_want, rtol=0.0, atol=1e-13)
        assert_kkt_certificate(prog, sol.x)

    def test_dependent_rows_take_dual_steps(self):
        # min |x - (3, 3, 0)|^2 / 2 under x0 <= 1, x1 <= 1, x1 <= 1 once more,
        # 0.5 x0 <= 0.3 (parallel to row 0) and 0.1 (x0 + x1) <= 0.15.  Rows 0
        # and 1 join; row 3 lies in their span, so only the multipliers move
        # until row 0 leaves; row 3 joins; row 4 lies in the span of rows 1
        # and 3, and row 1 leaves; row 4 joins.  The duplicate row 2 never
        # reads violated.
        G = [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0.5, 0, 0], [0.1, 0.1, 0]]
        h = [1, 1, 1, 0.3, 0.15]
        f = [-3.0, -3.0, 0.0]
        x, y, z, active, steps, stop = self.route(np.eye(3), G, h, f)
        assert steps == 6 and stop is None
        np.testing.assert_array_equal(active, [False, False, False, True, True])
        np.testing.assert_allclose(x, [0.6, 0.9, 0.0], rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(z, [0.0, 0.0, 0.0, 0.6, 21.0], rtol=1e-13)
        self.assert_solve_is_the_route(opt.SOCProgram(f, P=np.eye(3), G=G, h=h), x)

    def test_dropped_row_joins_again(self):
        # nine steps: rows 2, 0 and 4 join; row 1 lies in their span and row
        # 2 leaves; row 1 joins; row 3 is in the span and row 0 leaves; row 3
        # joins; row 2, violated again, is in the span and row 4 leaves; row
        # 2 joins again
        G = [[-2, -2, 0], [0, -2, 0], [1, -2, -2], [-1, 1, 0], [-1, 1, -2]]
        h = [1.1, 0.7, 1.1, -0.9, -0.9]
        f = [3.0, 6.0, 5.0]
        x, y, z, active, steps, stop = self.route(np.eye(3), G, h, f)
        assert steps == 9 and stop is None
        np.testing.assert_array_equal(active, [False, True, True, True, False])
        np.testing.assert_allclose(x, [0.55, -0.35, 0.075], rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(z, [0.0, 3.33125, 2.5375, 6.0875, 0.0], rtol=1e-13)
        self.assert_solve_is_the_route(opt.SOCProgram(f, P=np.eye(3), G=G, h=h), x)

    def test_infeasible_program_is_reported_by_the_route(self):
        # x0 + x1 = 1 with x0 >= 1 and x1 >= 0.5: the last row lies in the
        # span of the equality and the first, and no multiplier falls
        G, h, A, b = -np.eye(2), [-1.0, -0.5], [[1.0, 1.0]], [1.0]
        x, *_, stop = self.route(np.eye(2), G, h, [0.0, 0.0], A, b)
        assert stop == "infeasible" and (G @ x > np.asarray(h)).any()
        sol = opt.solve_socp(opt.SOCProgram([0.0, 0.0], A_eq=A, b_eq=b, P=np.eye(2), G=G, h=h))
        assert sol.status == "infeasible"
        # the point with the least squared violations, 0.25 on each row
        np.testing.assert_allclose(sol.x, [0.75, 0.25], atol=1e-5)

    @pytest.mark.parametrize("P", [np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([1.0, 1e-13])])
    def test_lp_and_singular_p_take_proximal_rounds(self, P, monkeypatch):
        assert opt._strict_cholesky(P) is None
        curvatures = []
        route = opt._dual_active_set
        monkeypatch.setattr(opt, "_dual_active_set", lambda *a: curvatures.append(a[1]) or route(*a))
        # min 0.5 P00 x0^2 + x1 with x1 >= 0.5 and x0 >= -1
        prog = opt.SOCProgram([0.0, 1.0], P=P, G=[[0.0, -1.0], [-1.0, 0.0]], h=[-0.5, 1.0])
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal" and sol.iterations > 0
        # the first round runs on the flat curvature plus the identity
        assert opt._strict_cholesky(curvatures[0] - np.eye(2)) is None
        assert sol.x[1] == pytest.approx(0.5, abs=1e-7)
        assert_kkt_certificate(prog, sol.x)

    def test_flat_program_with_a_bound_at_its_minimum(self):
        # min 0.5 x0^2 + x1 with x1 >= 0.5 and x0 >= 0: x0's bound holds
        # at the minimum of its parabola
        prog = opt.SOCProgram([0.0, 1.0], P=np.diag([1.0, 0.0]), G=[[0.0, -1.0], [-1.0, 0.0]], h=[-0.5, 0.0])
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [0.0, 0.5], rtol=0.0, atol=1e-12)

    def test_unbounded_lp_exhausts_its_rounds(self):
        # min x0 with x1 >= 0: every round moves x0 down by one
        sol = opt.solve_socp(opt.SOCProgram([1.0, 0.0], G=[[0.0, -1.0]], h=[0.0]))
        assert sol.status == "max_iter" and sol.exit == opt.PROX_EXHAUSTED

    def test_pivot_ratio_of_the_cholesky_test(self):
        assert opt._strict_cholesky(np.diag([1.0, 1e-11])) is not None
        assert opt._strict_cholesky(np.diag([1.0, 1e-12])) is None


def random_program(data, rng, P, m: int, eq_rows) -> opt.SOCProgram:
    """``m`` orthant rows, about a third tight at a feasible x0, some
    duplicated or in the span of two others, and ``eq_rows`` (a strategy)
    equalities through x0."""
    n = P.shape[0]
    x0 = rng.standard_normal(n)
    G = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-2.0, 2.0, (m, 1))
    h = G @ x0 + rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.7)
    if m >= 3 and data.draw(st.booleans()):
        G[-1], h[-1] = G[0], h[0]
        c = rng.uniform(0.1, 2.0, 2)
        G[-2] = c @ G[:2]
        h[-2] = c @ h[:2] + rng.uniform(0.0, 0.5) * data.draw(st.booleans())
    A = rng.standard_normal((data.draw(eq_rows), n))
    f = -P @ (x0 + 3.0 * rng.standard_normal(n))
    return opt.SOCProgram(f, A_eq=A, b_eq=A @ x0, P=P, G=G, h=h)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), n=st.integers(1, 8), m=st.integers(1, 12))
def test_active_set_route_matches_interior_point(data, n, m):
    """Random strictly convex QPs with orthant rows and equalities through a
    feasible x0: the route returns ``optimal`` in one solve, and its point
    passes the independent KKT certificate."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    B = rng.standard_normal((n, n))
    P = 10.0 ** data.draw(st.floats(-3.0, 3.0)) * (B @ B.T + data.draw(st.floats(0.05, 1.0)) * np.eye(n))
    prog = random_program(data, rng, P, m, st.integers(0, n - 1))

    sol = opt.solve_socp(prog)
    assert sol.status == "optimal" and not sol.exit
    assert_kkt_certificate(prog, sol.x)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), n=st.integers(2, 8), m=st.integers(1, 12))
@pytest.mark.parametrize("pinned", [True, False])
def test_shifted_route_for_singular_p(pinned, data, n, m):
    """Random convex QPs whose P = B B^T has rank deficiency r >= 1, with
    f in the range of P, so bounded.  When the equalities pin the null
    space of P (r or more random rows, so P + A^T A is definite), the route
    runs once on the shifted objective; with fewer rows than r the shift
    stays singular and it runs in proximal rounds.  Either way its point
    passes the independent KKT certificate."""
    if not pinned:
        n = max(n, 3)
    r = data.draw(st.integers(1, n - 1) if pinned else st.integers(2, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    B = rng.standard_normal((n, n - r))
    P = 10.0 ** data.draw(st.floats(-3.0, 3.0)) * (B @ B.T)
    prog = random_program(data, rng, P, m, st.integers(r, n - 1) if pinned else st.integers(1, r - 1))

    sol = opt.solve_socp(prog)
    assert sol.status == "optimal"
    assert_kkt_certificate(prog, sol.x)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 10), p=st.integers(0, 2))
def test_lp_matches_highs(data, n, m, p):
    """Random feasible LPs, bounded because ``-f`` is a nonnegative
    combination of the row normals and the equalities: the proximal rounds
    reach the optimal value of ``scipy.optimize.linprog(method="highs")``
    and their point passes the KKT certificate."""
    p = min(p, n - 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x0 = rng.standard_normal(n)
    G = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-1.0, 1.0, (m, 1))
    h = G @ x0 + rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.7)
    A = rng.standard_normal((p, n))
    f = -(G.T @ (rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.6)) + A.T @ rng.standard_normal(p))
    prog = opt.SOCProgram(f, A_eq=A, b_eq=A @ x0, G=G, h=h)
    ref = linprog(f, A_ub=G, b_ub=h, A_eq=A if p else None, b_eq=A @ x0 if p else None,
                  bounds=(None, None), method="highs")
    assert ref.status == 0
    sol = opt.solve_socp(prog)
    assert sol.status == "optimal", (sol.status, sol.exit)
    assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7 * max(1.0, np.abs(f) @ np.abs(x0)))
    assert_kkt_certificate(prog, sol.x)


def refactoring_dual_active_set(L, P, G, h, A, b, f, viol_tol, max_steps):
    """The reference for ``opt._dual_active_set``: the same method, but
    every step LU-factors the KKT system of the working set afresh, and
    each row's zero-step curvature comes from a general solve with L."""
    n, p, m = P.shape[0], A.shape[0], G.shape[0]
    W = []
    z = np.zeros(m)

    def factor():
        return opt._kkt(P, np.vstack([A, G[W]]))

    def split(sol):
        return sol[:n], sol[n : n + p], sol[n + p :]

    kkt = factor()
    if kkt is None:
        return None
    x, y, _ = split(kkt(np.concatenate([-f, b])))
    steps = 0
    while True:
        viol = G @ x - h
        viol[W] = 0.0
        np.maximum(viol, 0.0, out=viol)
        if np.linalg.norm(viol) <= viol_tol:
            active = np.zeros(m, dtype=bool)
            active[W] = True
            return x, y, z, active, steps
        q = int(np.argmax(viol))
        nq = G[q]
        curv0 = float(np.sum(np.linalg.solve(L, nq) ** 2))
        while True:
            steps += 1
            if steps > max_steps:
                return None
            dx, _, dzw = split(kkt(np.concatenate([-nq, np.zeros(p + len(W))])))
            curv = -float(nq @ dx)
            in_span = curv <= 1e-14 * curv0
            falling = np.flatnonzero(dzw < 0.0)
            if not falling.size:
                if in_span:
                    return None
                t_drop, j = np.inf, -1
            else:
                ratios = z[np.asarray(W)[falling]] / -dzw[falling]
                j = int(falling[np.argmin(ratios)])
                t_drop = max(float(ratios.min()), 0.0)
            if not in_span and float(nq @ x - h[q]) / curv <= t_drop:
                W.append(q)
                kkt = factor()
                if kkt is None:
                    return None
                x, y, zw = split(kkt(np.concatenate([-f, b, h[W]])))
                z[W] = np.maximum(zw, 0.0)
                break
            if not in_span:
                x = x + t_drop * dx
            z[W] += t_drop * dzw
            z[W[j]] = 0.0
            del W[j]
            kkt = factor()
            if kkt is None:
                return None


def passes_optimality_test(route_args, point, tol=1e-8):
    """``solve_socp``'s test of an active-set point, on the data the route saw."""
    _, P, G, h, A, b, f, *_ = route_args
    x, y, z, active, *_ = point
    s = np.maximum(h - G @ x, 0.0)
    s[active] = 0.0
    Px, Ay, Gz = P @ x, A.T @ y, G.T @ z
    pres = max(np.linalg.norm(G @ x + s - h) / max(1.0, np.linalg.norm(h)),
               np.linalg.norm(A @ x - b) / max(1.0, np.linalg.norm(b)))
    dres = np.linalg.norm(Px + Ay + Gz + f) / max(max(1.0, np.linalg.norm(f)), *map(np.linalg.norm, (Px, Ay, Gz)))
    return pres <= tol and dres <= tol and float(s @ z) == 0.0


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data(), n=st.integers(1, 8), m=st.integers(1, 12))
def test_kept_factors_follow_the_refactoring_route(data, n, m):
    """The route on kept factors against the route that refactors at every
    step, on the equilibrated data ``solve_socp`` hands it.  Both give up
    together.  When they take as many steps and end on the same working
    set, they took the same path, and their points are the same bytes: the
    kept factors enter the result only through that path.  Rounding may
    pick the other one of two duplicated rows at a step (``G @ x`` rounds
    them differently by position); then ``x`` is still the same bytes and
    every row active on one side only has an identical twin active on the
    other.  When the step counts differ, rounding moved a choice, and both
    points pass the optimality test at one objective."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    B = rng.standard_normal((n, n))
    P = 10.0 ** data.draw(st.floats(-3.0, 3.0)) * (B @ B.T + data.draw(st.floats(0.05, 1.0)) * np.eye(n))
    prog = random_program(data, rng, P, m, st.integers(0, min(2, n - 1)))
    G, h, A, b, f, P, _ = opt._equilibrate(prog.G, prog.h, prog.A_eq, prog.b_eq, prog.f, prog.P)
    L = opt._strict_cholesky(P)
    assume(L is not None)
    args = (L, P, G, h, A, b, f, 1e-10 * max(1.0, np.linalg.norm(h)), 4 * (G.shape[0] + A.shape[0]) + 10)

    kept, ref = opt._dual_active_set(*args), refactoring_dual_active_set(*args)
    assert (kept[5] is None) == (ref is not None)
    if ref is None:
        return
    if kept[4] == ref[4]:
        assert kept[0].tobytes() == ref[0].tobytes()
        if np.array_equal(kept[3], ref[3]):
            assert kept[1].tobytes() == ref[1].tobytes() and kept[2].tobytes() == ref[2].tobytes()
        rows = [(G[i].tobytes(), h[i]) for i in range(G.shape[0])]
        for mine, theirs in ((kept[3], ref[3]), (ref[3], kept[3])):
            for i in np.flatnonzero(mine & ~theirs):
                assert any(rows[j] == rows[i] for j in np.flatnonzero(theirs & ~mine))
    else:
        assert passes_optimality_test(args, kept) and passes_optimality_test(args, ref)
        obj_kept, obj_ref = (0.5 * x @ P @ x + f @ x for x in (kept[0], ref[0]))
        assert obj_kept == pytest.approx(obj_ref, rel=1e-12, abs=0.0)


def equilibrate_row_by_row(G, h, A, b, f, P, sweeps=6):
    """``opt._equilibrate`` with one Python step per orthant row."""
    d, e, a = np.ones(G.shape[1]), np.ones(G.shape[0]), np.ones(A.shape[0])
    for _ in range(sweeps):
        col = np.abs(np.vstack([(d[:, None] * P) * d, (e[:, None] * G) * d, (a[:, None] * A) * d])).max(axis=0)
        d /= np.sqrt(np.where(col > 0.0, col, 1.0))
        Gs = (e[:, None] * G) * d
        for i in range(G.shape[0]):
            r = np.abs(Gs[i]).max()
            if r > 0.0:
                e[i] /= np.sqrt(r)
        a /= np.sqrt(np.maximum(np.abs((a[:, None] * A) * d).max(axis=1, initial=0.0), 1e-12))
    fs, Ps = d * f, (d[:, None] * P) * d
    obj_scale = max(np.abs(fs).max(), np.abs(Ps).max(axis=0).mean(), 1e-12)
    return (e[:, None] * G) * d, e * h, (a[:, None] * A) * d, a * b, fs / obj_scale, Ps / obj_scale, d


def test_orthant_rows_scale_as_one_block():
    rng = np.random.default_rng(9)
    n, m = 5, 7
    G = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-4, 4, (m, 1))
    G[2] = 0.0  # a zero row keeps its scale
    h, b, f = rng.standard_normal(G.shape[0]), rng.standard_normal(2), rng.standard_normal(n)
    A = rng.standard_normal((2, n))
    B = rng.standard_normal((n, n))
    P = B @ B.T
    got = opt._equilibrate(G, h, A, b, f, P)
    want = equilibrate_row_by_row(G, h, A, b, f, P)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        np.testing.assert_array_equal(x, y)


def equilibrate_stacked(G, h, A, b, f, P, sweeps=6):
    """``opt._equilibrate`` by the stacked formula: each sweep scales the
    signed blocks, stacks them and takes magnitudes of the stack."""
    m, n = G.shape
    d, e, a = np.ones(n), np.ones(m), np.ones(A.shape[0])
    for _ in range(sweeps):
        Ps = (d[:, None] * P) * d[None, :]
        Gs = (e[:, None] * G) * d[None, :]
        As = (a[:, None] * A) * d[None, :]
        col = np.abs(np.vstack([Ps, Gs, As])).max(axis=0)
        d /= np.sqrt(np.where(col > 0.0, col, 1.0))
        Gs = (e[:, None] * G) * d[None, :]
        row = np.abs(Gs).max(axis=1, initial=0.0)
        e /= np.sqrt(np.where(row > 0.0, row, 1.0))
        As = (a[:, None] * A) * d[None, :]
        a /= np.sqrt(np.maximum(np.abs(As).max(axis=1, initial=0.0), 1e-12))
    Gs, As, fs, Ps = (e[:, None] * G) * d[None, :], (a[:, None] * A) * d[None, :], d * f, (d[:, None] * P) * d[None, :]
    obj_scale = max(np.abs(fs).max(), np.abs(Ps).max(axis=0).mean(), 1e-12)
    return Gs, e * h, As, a * b, fs / obj_scale, Ps / obj_scale, d


@pytest.mark.parametrize("m, p", [(6, 0), (5, 1), (0, 2)], ids=["no-equalities", "orthant-only", "no-inequalities"])
def test_equilibrate_is_the_stacked_formula_bit_for_bit(m, p):
    # signed entries over eight decades, zero rows and a zero column
    rng = np.random.default_rng(m * 100 + p)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        G = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-4, 4, (m, 1))
        A = rng.standard_normal((p, n)) * 10.0 ** rng.uniform(-4, 4, (p, 1))
        B = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, n)
        P = B @ B.T
        if m:
            G[rng.integers(m)] = 0.0
        if rng.random() < 0.5:
            col = rng.integers(n)
            G[:, col], A[:, col], P[:, col], P[col] = 0.0, 0.0, 0.0, 0.0
        h, b, f = rng.standard_normal(m), rng.standard_normal(p), rng.standard_normal(n)
        got = opt._equilibrate(G, h, A, b, f, P)
        want = equilibrate_stacked(G, h, A, b, f, P)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


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
        # no orthant rows: one KKT solve, no working-set steps
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
        plain.add_ineq(rows, rhs, "box")
        padded = ConstraintSet(2)
        padded.add_ineq(np.insert(rows, 1, 0.0, axis=0), np.insert(rhs, 1, -1.0), "box")
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
