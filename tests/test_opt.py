"""Cone solver, QP front end and weighted pseudoinverse."""

from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


@pytest.fixture
def ip_starts(monkeypatch):
    """Count the starts of the interior-point iteration: a program with
    orthant rows that the active-set route certifies makes none."""
    starts = []
    start = opt._penalized_kkt_point

    def counting(*args):
        starts.append(args)
        return start(*args)

    monkeypatch.setattr(opt, "_penalized_kkt_point", counting)
    return starts


def with_idle_cone(prog: opt.SOCProgram) -> opt.SOCProgram:
    """The program with one cone block ``||0 x|| <= 1``, which never binds
    but sends the solve through the interior-point iteration."""
    idle = opt.ConeBlock(np.zeros((1, prog.n)), [0.0], np.zeros(prog.n), 1.0)
    return opt.SOCProgram(prog.f, [idle], prog.A_eq, prog.b_eq, P=prog.P, G=prog.G, h=prog.h)


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

    def test_rejects_non_finite_cone_block(self):
        # a cone block's data is stacked below the orthant rows of G and h
        cone = opt.ConeBlock(np.eye(2), np.zeros(2), np.zeros(2), np.inf)
        with pytest.raises(opt.OptError, match="solver data h has non-finite entries"):
            opt.solve_socp(opt.SOCProgram(np.ones(2), [cone]))

    def test_cone_block_is_a_second_order_cone(self):
        with pytest.raises(opt.OptError, match="no rows"):
            opt.ConeBlock(np.zeros((0, 1)), [], [1.0], -1.0)

    def test_kkt_residuals_reported(self):
        prog = opt.SOCProgram(np.array([1.0]), [opt.ConeBlock(np.array([[1.0]]), [0.0], [0.0], 1.0)])
        sol = opt.solve_socp(prog, tol=1e-8)
        assert max(sol.kkt_residuals) <= 1e-8

    def test_singular_kkt_matrix_ends_the_iteration(self):
        # duplicate equality rows make the KKT matrix exactly singular: the
        # iteration stops at its best iterate instead of stepping with inf/NaN
        prog = opt.SOCProgram(
            f=[1.0, 2.0], A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0], G=-np.eye(2), h=np.zeros(2)
        )
        sol = opt.solve_socp(prog)
        assert sol.status == "max_iter"
        assert np.all(np.isfinite(sol.x))

    def test_kkt_solver_of_both_routes(self):
        # one factorization serves the active-set and the interior-point
        # systems: a regular system is solved to rounding; a singular or
        # non-finite one gives no solver
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


class TestDualActiveSet:
    """The exact route of ``solve_socp`` for programs without cone blocks
    whose P is positive definite."""

    @staticmethod
    def route(P, G, h, f, A=None, b=None):
        """``opt._dual_active_set`` on the raw data, without equilibration."""
        P, G, h, f = (np.asarray(v, dtype=float) for v in (P, G, h, f))
        A = np.zeros((0, f.size)) if A is None else np.asarray(A, dtype=float)
        b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float)
        return opt._dual_active_set(np.linalg.cholesky(P), P, G, h, A, b, f, 1e-12, 100)

    @staticmethod
    def assert_route_matches_interior_point(prog, ip_starts, x_want):
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal" and not ip_starts
        np.testing.assert_allclose(sol.x, x_want, rtol=0.0, atol=1e-13)
        ref = opt.solve_socp(with_idle_cone(prog))
        assert ref.status == "optimal" and ip_starts
        np.testing.assert_allclose(ref.x, x_want, rtol=0.0, atol=1e-7)

    def test_dependent_rows_take_dual_steps(self, ip_starts):
        # min |x - (3, 3, 0)|^2 / 2 under x0 <= 1, x1 <= 1, x1 <= 1 once more,
        # 0.5 x0 <= 0.3 (parallel to row 0) and 0.1 (x0 + x1) <= 0.15.  Rows 0
        # and 1 join; row 3 lies in their span, so only the multipliers move
        # until row 0 leaves; row 3 joins; row 4 lies in the span of rows 1
        # and 3, and row 1 leaves; row 4 joins.  The duplicate row 2 never
        # reads violated.
        G = [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0.5, 0, 0], [0.1, 0.1, 0]]
        h = [1, 1, 1, 0.3, 0.15]
        f = [-3.0, -3.0, 0.0]
        x, y, z, active, steps = self.route(np.eye(3), G, h, f)
        assert steps == 6
        np.testing.assert_array_equal(active, [False, False, False, True, True])
        np.testing.assert_allclose(x, [0.6, 0.9, 0.0], rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(z, [0.0, 0.0, 0.0, 0.6, 21.0], rtol=1e-13)
        self.assert_route_matches_interior_point(opt.SOCProgram(f, P=np.eye(3), G=G, h=h), ip_starts, x)

    def test_dropped_row_joins_again(self, ip_starts):
        # nine steps: rows 2, 0 and 4 join; row 1 lies in their span and row
        # 2 leaves; row 1 joins; row 3 is in the span and row 0 leaves; row 3
        # joins; row 2, violated again, is in the span and row 4 leaves; row
        # 2 joins again
        G = [[-2, -2, 0], [0, -2, 0], [1, -2, -2], [-1, 1, 0], [-1, 1, -2]]
        h = [1.1, 0.7, 1.1, -0.9, -0.9]
        f = [3.0, 6.0, 5.0]
        x, y, z, active, steps = self.route(np.eye(3), G, h, f)
        assert steps == 9
        np.testing.assert_array_equal(active, [False, True, True, True, False])
        np.testing.assert_allclose(x, [0.55, -0.35, 0.075], rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(z, [0.0, 3.33125, 2.5375, 6.0875, 0.0], rtol=1e-13)
        self.assert_route_matches_interior_point(opt.SOCProgram(f, P=np.eye(3), G=G, h=h), ip_starts, x)

    def test_infeasible_program_is_left_to_the_interior_point(self, ip_starts):
        # x0 + x1 = 1 with x0 >= 1 and x1 >= 0.5: the last row lies in the
        # span of the equality and the first, and no multiplier falls
        G, h, A, b = -np.eye(2), [-1.0, -0.5], [[1.0, 1.0]], [1.0]
        assert self.route(np.eye(2), G, h, [0.0, 0.0], A, b) is None
        sol = opt.solve_socp(opt.SOCProgram([0.0, 0.0], A_eq=A, b_eq=b, P=np.eye(2), G=G, h=h))
        assert sol.status == "infeasible" and len(ip_starts) == 1

    @pytest.mark.parametrize("P", [np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([1.0, 1e-13])])
    def test_lp_and_singular_p_take_the_interior_point(self, P, ip_starts):
        assert opt._strict_cholesky(P) is None
        # min 0.5 P00 x0^2 + x1 with x1 >= 0.5 and x0 >= -1
        prog = opt.SOCProgram([0.0, 1.0], P=P, G=[[0.0, -1.0], [-1.0, 0.0]], h=[-0.5, 1.0])
        sol = opt.solve_socp(prog)
        assert sol.status == "optimal" and sol.iterations > 0 and len(ip_starts) == 1
        assert sol.x[1] == pytest.approx(0.5, abs=1e-7)

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


def assert_matches_idle_cone(sol, prog):
    ref = opt.solve_socp(with_idle_cone(prog))
    assert ref.status == "optimal"
    assert sol.objective == pytest.approx(ref.objective, rel=1e-8, abs=1e-8)
    np.testing.assert_allclose(sol.x, ref.x, rtol=0.0, atol=1e-7)


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(1, 8), m=st.integers(1, 12))
def test_active_set_route_matches_interior_point(data, n, m, ip_starts):
    """Random strictly convex QPs with orthant rows and equalities through a
    feasible x0: the active-set route certifies the answer, and the
    interior-point iteration on the same program with an idle cone block
    agrees with it."""
    ip_starts.clear()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    B = rng.standard_normal((n, n))
    P = 10.0 ** data.draw(st.floats(-3.0, 3.0)) * (B @ B.T + data.draw(st.floats(0.05, 1.0)) * np.eye(n))
    prog = random_program(data, rng, P, m, st.integers(0, n - 1))

    sol = opt.solve_socp(prog)
    assert sol.status == "optimal" and not ip_starts
    assert_matches_idle_cone(sol, prog)
    assert ip_starts


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(2, 8), m=st.integers(1, 12))
@pytest.mark.parametrize("pinned", [True, False])
def test_shifted_route_for_singular_p(pinned, data, n, m, ip_starts):
    """Random convex QPs whose P = B B^T has rank deficiency r >= 1.  When
    the equalities pin the null space of P (r or more random rows, so
    P + A^T A is definite), the active-set route on the shifted objective
    certifies the answer, and the interior-point iteration with an idle
    cone block agrees with it.  With fewer rows than r the shift stays
    singular and the interior-point iteration starts once."""
    ip_starts.clear()
    if not pinned:
        n = max(n, 3)
    r = data.draw(st.integers(1, n - 1) if pinned else st.integers(2, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    B = rng.standard_normal((n, n - r))
    P = 10.0 ** data.draw(st.floats(-3.0, 3.0)) * (B @ B.T)
    prog = random_program(data, rng, P, m, st.integers(r, n - 1) if pinned else st.integers(1, r - 1))

    sol = opt.solve_socp(prog)
    if pinned:
        assert sol.status == "optimal" and not ip_starts
        assert_matches_idle_cone(sol, prog)
    else:
        assert len(ip_starts) == 1
def test_orthant_only_cone_algebra_is_elementwise():
    # without cone blocks the Jordan product, the arrow solve and the
    # scaling are elementwise; with a block after the orthant rows, the
    # orthant part of each is unchanged
    rng = np.random.default_rng(13)
    ml = 6
    s, z, u, v = rng.uniform(0.1, 2.0, (4, ml))
    M = rng.standard_normal((ml, 3))
    orthant = opt._Cones(ml, [])
    W = opt._Scaling(orthant, s, z)
    w = np.sqrt(s / z)
    np.testing.assert_array_equal(orthant.prod(u, v), u * v)
    np.testing.assert_array_equal(orthant.solve_arrow(u, v), v / u)
    np.testing.assert_array_equal(W.apply(v), w * v)
    np.testing.assert_array_equal(W.apply_inv(v), v / w)
    np.testing.assert_array_equal(W.apply_inv_mat(M), M / w[:, None])
    np.testing.assert_array_equal(W.lam, w * z)

    mixed = opt._Cones(ml, [3])
    cone = np.array([2.0, 0.3, -0.4])
    sm, zm, um, vm = (np.concatenate([a, cone]) for a in (s, z, u, v))
    Wm = opt._Scaling(mixed, sm, zm)
    np.testing.assert_array_equal(mixed.prod(um, vm)[:ml], orthant.prod(u, v))
    np.testing.assert_array_equal(mixed.solve_arrow(um, vm)[:ml], orthant.solve_arrow(u, v))
    np.testing.assert_array_equal(Wm.apply(vm)[:ml], W.apply(v))
    np.testing.assert_array_equal(Wm.apply_inv(vm)[:ml], W.apply_inv(v))
    Mm = np.vstack([M, rng.standard_normal((3, 3))])
    np.testing.assert_array_equal(Wm.apply_inv_mat(Mm)[:ml], W.apply_inv_mat(M))


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
    return (e[:, None] * G) * d, e * h, (a[:, None] * A) * d, a * b, fs / obj_scale, Ps / obj_scale, d


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
    want = equilibrate_row_by_row(G, h, A, b, f, P, ml, socs)
    assert len(got) == len(want)
    for x, y in zip(got, want):
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
