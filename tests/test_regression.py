"""Penalized fits, constraint builders and marginal compatibility."""

import numpy as np
import pytest
from scipy.optimize import brentq

from volspline import bspline as bs, opt, priors as pr, regression as rg


def make_cfg(n_knots=8, order=2, span=2.0, p=2):
    basis = bs.make_basis(np.linspace(-span, span, n_knots), order, truncation=1)
    return rg.RegressionConfig(basis, penalty_order=p)


class TestTikhonovFactor:
    def test_formula(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1600)
        x = x / np.std(x)  # unit sample deviation
        s = rg.Sample(x, np.zeros_like(x))
        cfg = make_cfg()
        assert rg.tikhonov_factor(s, cfg) == pytest.approx(1.0 / 1600)

    def test_scale_and_size(self):
        cfg = make_cfg(p=2)
        x = np.repeat([-2.0, 2.0], 50)  # sigma exactly 2
        s = rg.Sample(x, np.zeros_like(x))
        assert rg.tikhonov_factor(s, cfg) == pytest.approx(8.0 / 100)
        # doubling N halves the factor exactly
        s2 = rg.Sample(np.tile(x, 2), np.zeros(200))
        assert rg.tikhonov_factor(s2, cfg) == pytest.approx(4.0 / 100)

    def test_truncation_guard(self):
        basis = bs.make_basis(np.linspace(-2, 2, 8), 3, truncation=2)
        with pytest.raises(bs.SplineError):
            rg.RegressionConfig(basis, penalty_order=2)


class TestFitPenalized:
    def test_reproduces_affine_data(self):
        rng = np.random.default_rng(1)
        cfg = make_cfg()
        x = rng.uniform(-2.5, 2.5, 200)
        y = 2 * x + 1
        sp = rg.fit_penalized(rg.Sample(x, y), cfg, lam=0.0)
        assert np.abs(sp(x) - y).max() <= 1e-10

    def test_large_penalty_tends_to_ols_line(self):
        rng = np.random.default_rng(2)
        cfg = make_cfg()
        x = rng.uniform(-2.5, 2.5, 300)
        y = 2 * x + 1 + rng.standard_normal(300)
        sp = rg.fit_penalized(rg.Sample(x, y), cfg, lam=1e7)
        A = np.vstack([np.ones_like(x), x]).T
        beta = np.linalg.lstsq(A, y, rcond=None)[0]
        assert np.abs(sp(x) - (beta[0] + beta[1] * x)).max() <= 1e-4

    def test_rank_deficient_falls_back_to_smoothest(self):
        # two points, many basis functions: interpolate and stay affine
        cfg = make_cfg()
        sp = rg.fit_penalized(rg.Sample([0.0, 1.0], [1.0, 2.0]), cfg, lam=0.0)
        assert sp(0.0) == pytest.approx(1.0, abs=1e-9)
        assert sp(1.0) == pytest.approx(2.0, abs=1e-9)
        xs = np.linspace(-1, 2, 9)
        assert np.abs(sp(xs) - (1 + xs)).max() <= 1e-8

    def test_generative_model_recovery(self):
        rng = np.random.default_rng(3)
        N = 1600
        X = rng.standard_normal(N)
        Y = np.tanh(2 * X / np.std(X)) + rng.standard_normal(N) ** 2
        s = rg.Sample(X, Y)
        basis = bs.make_basis(np.linspace(-2.5 * s.sigma_x, 2.5 * s.sigma_x, 20), 2, truncation=1)
        cfg = rg.RegressionConfig(basis, penalty_order=2)
        sp = rg.fit_penalized(s, cfg)
        xs = np.linspace(-2, 2, 41)
        rmse = np.sqrt(np.mean((sp(xs) - (np.tanh(2 * xs) + 1.0)) ** 2))
        assert rmse < 0.15

    def test_objective_monotone_in_lambda(self):
        rng = np.random.default_rng(4)
        cfg = make_cfg()
        x = rng.uniform(-2.5, 2.5, 400)
        y = np.sin(2 * x) + 0.3 * rng.standard_normal(400)
        s = rg.Sample(x, y)
        R = rg.penalty_matrix(cfg)
        rss_prev, pen_prev = -np.inf, np.inf
        for lam in (1e-6, 1e-4, 1e-2, 1.0, 1e2):
            w = rg.fit_penalized(s, cfg, lam=lam).weights
            rss = np.mean((y - bs.Spline(cfg.basis, w)(x)) ** 2)
            pen = w @ R @ w
            assert rss >= rss_prev - 1e-12
            assert pen <= pen_prev + 1e-12
            rss_prev, pen_prev = rss, pen

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, 300)
        y = np.cos(x) + 0.1 * rng.standard_normal(300)
        knots = np.linspace(-2, 2, 9)
        a, b = 3.0, 1.5
        cfg1 = rg.RegressionConfig(bs.make_basis(knots, 2, truncation=1), penalty_order=2)
        cfg2 = rg.RegressionConfig(bs.make_basis(a * knots + b, 2, truncation=1), penalty_order=2)
        s1 = rg.Sample(x, y)
        s2 = rg.Sample(a * x + b, y)
        f1 = rg.fit_penalized(s1, cfg1, rg.tikhonov_factor(s1, cfg1))
        f2 = rg.fit_penalized(s2, cfg2, rg.tikhonov_factor(s2, cfg2))
        xs = np.linspace(-2, 2, 33)
        assert np.abs(f1(xs) - f2(a * xs + b)).max() <= 1e-8


class TestDesignSystem:
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_moment_table_matches_dense_design(self, order):
        # V = B^T B / N and c = B^T y / N from the sample's power sums, with
        # points on every knot, inside and in both wings
        rng = np.random.default_rng(40 + order)
        knots = np.linspace(-2.0, 2.0, 6)
        x = np.concatenate([rng.uniform(-4.0, 4.0, 300), knots, [-7.0, 9.0]])
        y = 1.0 + rng.standard_normal(x.size)
        sample = rg.Sample(x, y)
        for t in range(-1, order + 1):
            basis = bs.make_basis(knots, order, t)
            V, c = rg.design_system(sample, basis.compiled())
            B = bs.design_matrix(basis, x)
            V_ref, c_ref = B.T @ B / x.size, B.T @ y / x.size
            assert np.abs(V - V_ref).max() <= 1e-12 * np.abs(V_ref).max()
            assert np.abs(c - c_ref).max() <= 1e-12 * np.abs(c_ref).max()


    @pytest.mark.parametrize("truncation", [-1, 0, 1])
    @pytest.mark.parametrize("unit", [np.arange(20.0), np.array([0.0, 1.0, 1.5, 3.0, 3.25, 5.0])])
    def test_interval_index_equals_bisection(self, truncation, unit):
        # evenly spaced edges (an affine image of the unit grid) locate by
        # the corrected floor, others by bisection; points on every edge, one
        # ulp either side, beyond both ends, infinite and NaN
        cb = bs.make_basis(unit, 2, truncation).compiled().affine_image(4.2, 0.031)
        lo, hi, _, _ = bs.live_pieces(cb)
        edges = np.union1d(lo, hi)
        edges = edges[np.isfinite(edges)]
        x = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [edges[0] - 1.0, edges[-1] + 1.0, -np.inf, np.inf, np.nan],
        ])
        want = np.searchsorted(lo, x, side="right") - 1
        want[~((want >= 0) & (x < hi[np.maximum(want, 0)]))] = lo.size
        np.testing.assert_array_equal(rg.EmpiricalMeasure(x)._locate(lo, hi), want)
        wing = int(lo[0] == -np.inf)
        assert bs.KnotVector(lo[wing:]).equal_spacing == (unit.size == 20)


class TestConstraintSet:
    def test_block_assembly_equals_row_by_row(self):
        rng = np.random.default_rng(21)
        eq, ineq = rng.standard_normal((3, 5)), rng.standard_normal((7, 5))
        eq_rhs, ineq_rhs = rng.standard_normal(3), rng.standard_normal(7)
        rows = rg.ConstraintSet(5)
        for r, v in zip(eq, eq_rhs):
            rows.add_eq(r, v, "e")
        for r, v in zip(ineq[:4], ineq_rhs[:4]):
            rows.add_ineq(r, v, "a")
        rows.add_ineq(ineq[4], 0.0, "b")
        assert rows.ineq_rows.shape == (5, 5)  # reading in between keeps later rows
        for r in ineq[5:]:
            rows.add_ineq(r, 0.0, "b")
        blocks = rg.ConstraintSet(5)
        blocks.add_eq_rows(eq, eq_rhs, "e")
        blocks.add_ineq_rows(ineq[:4], ineq_rhs[:4], "a")
        blocks.add_ineq_rows(ineq[4:], 0.0, "b")
        for a, b in zip(rows.as_blocks()[:4], blocks.as_blocks()[:4]):
            np.testing.assert_array_equal(a, b)
        assert rows.eq_families == blocks.eq_families == ["e"] * 3
        assert rows.ineq_families == blocks.ineq_families == ["a"] * 4 + ["b"] * 3
        assert rows.n_rows == blocks.n_rows == 10
        merged = rows.merge(blocks)
        np.testing.assert_array_equal(merged.ineq_rows, np.vstack([ineq, ineq]))
        np.testing.assert_array_equal(merged.eq_rhs, np.concatenate([eq_rhs, eq_rhs]))

    def test_rejects_rows_of_the_wrong_width(self):
        with pytest.raises(ValueError):
            rg.ConstraintSet(3).add_ineq_rows(np.eye(2), 0.0, "x")


class TestShapeConstraints:
    def test_nonnegative_rows(self):
        cfg = make_cfg()
        cs = rg.shape_constraints(cfg.basis, "nonnegative")
        d = cfg.basis.dimension
        assert cs.ineq_rows.shape == (d, d)
        np.testing.assert_array_equal(cs.ineq_rows, np.eye(d))

    def test_convexity_rows_are_second_derivative_loadings(self):
        basis = bs.make_basis(np.linspace(-2, 2, 8), 2, truncation=1)
        cs = rg.shape_constraints(basis, "convex")
        dm = bs.derivative_decomposition(basis, 2)
        np.testing.assert_allclose(cs.ineq_rows, dm.matrix)

    def test_integral_row_order0(self):
        basis = bs.make_basis([0.0, 1.0], 0)
        cs = rg.shape_constraints(
            basis, {"kind": "integral_eq", "measure": rg.LebesgueMeasure(0.0, 1.0), "value": 1.0}
        )
        np.testing.assert_allclose(cs.eq_rows, [[0.0, 1.0, 0.0]])
        np.testing.assert_allclose(cs.eq_rhs, [1.0])

    def test_monotone_fit_is_monotone(self):
        rng = np.random.default_rng(6)
        cfg = make_cfg()
        x = rng.uniform(-2, 2, 300)
        y = np.tanh(x) + 0.3 * rng.standard_normal(300)
        cs = rg.shape_constraints(cfg.basis, "nondecreasing")
        sp = rg.fit_constrained(rg.Sample(x, y), cfg, constraints=cs)
        xs = np.linspace(-4, 4, 200)
        assert np.all(np.diff(sp(xs)) >= -1e-9)

    def test_value_constraint(self):
        rng = np.random.default_rng(7)
        cfg = make_cfg()
        x = rng.uniform(-2, 2, 200)
        y = x**2
        cs = rg.shape_constraints(cfg.basis, {"kind": "value_eq", "x": 0.0, "value": 1.0})
        sp = rg.fit_constrained(rg.Sample(x, y), cfg, constraints=cs)
        assert sp(0.0) == pytest.approx(1.0, abs=1e-7)

    def test_rejects_unknown_and_deep_derivatives(self):
        cfg = make_cfg()
        with pytest.raises(bs.SplineError):
            rg.shape_constraints(cfg.basis, "wiggly")
        with pytest.raises(bs.SplineError):
            rg.shape_constraints(cfg.basis, {"kind": "value_eq", "x": 0.0, "value": 0.0, "deriv": 9})


class TestCompatibility:
    def test_rows_and_shapes(self):
        basis = bs.make_basis(np.linspace(-2, 2, 8), 2, truncation=1)
        prior = pr.BachelierPrior(0.0, 1.0)
        cs = rg.compatibility_constraints(basis, prior, (1.0, 3.0, (0.0, 1.0)))
        d = basis.dimension
        assert cs.eq_rows.shape == (1, d)
        assert cs.ineq_rows.shape == (2 * d, d)  # both hull sides
        assert len(cs.socs) == 1

    def test_hull_bounds_only_finite_sides(self):
        basis = bs.make_basis(np.linspace(-2, 2, 8), 2, truncation=1)
        prior = pr.BachelierPrior(0.0, 1.0)
        cs = rg.compatibility_constraints(basis, prior, (1.0, None, (0.0, np.inf)))
        assert cs.ineq_rows.shape[0] == basis.dimension
        with pytest.raises(ValueError):
            rg.compatibility_constraints(basis, prior, (1.0, None, (1.0, 0.0)))

    def test_constant_fit_forced_to_mean(self):
        # with only the mean-compatibility row, fitting constant data c != ey
        # must return the spline integrating to ey
        rng = np.random.default_rng(8)
        basis = bs.make_basis(np.linspace(-2, 2, 8), 2, truncation=1)
        cfg = rg.RegressionConfig(basis, penalty_order=2)
        prior = pr.BachelierPrior(0.0, 1.0)
        x = rng.standard_normal(500)
        y = np.full(500, 2.0)
        ey = 1.5
        cs = rg.compatibility_constraints(basis, prior, (ey, None, None))
        sp = rg.fit_constrained(rg.Sample(x, y), cfg, constraints=cs)
        row = bs.moment_rows(basis.compiled(), prior)
        assert row @ sp.weights == pytest.approx(ey, abs=1e-8)

    def test_jensen_cone_inactive_for_constant(self):
        # E[f(X)^2] <= EY2 holds strictly when f is the constant mean
        basis = bs.make_basis(np.linspace(-2, 2, 8), 2, truncation=1)
        prior = pr.BachelierPrior(0.0, 1.0)
        ey, ey2 = 1.0, 2.0
        cs = rg.compatibility_constraints(basis, prior, (ey, ey2, None))
        A, b, c, d = cs.socs[0]
        w = np.ones(basis.dimension) * ey
        gap = (c @ w + d) - np.linalg.norm(A @ w + b)
        assert gap > 0.1  # variance slack

    def test_convex_order_cone_solution(self):
        # inactive, the cone leaves the fit alone; active, the fit is the
        # minimizer of the objective plus mu/2 |A w|^2 under the mean row,
        # with the multiplier mu found by a scalar root search
        rng = np.random.default_rng(8)
        basis = bs.make_basis(np.linspace(-2, 2, 8), 2, truncation=1)
        cfg = rg.RegressionConfig(basis, penalty_order=2)
        prior = pr.BachelierPrior(0.0, 1.0)
        x = rng.standard_normal(500)
        s = rg.Sample(x, 1.0 + 0.5 * np.tanh(x) + 0.1 * rng.standard_normal(500))
        w_free = rg.fit_constrained(s, cfg, constraints=rg.compatibility_constraints(basis, prior, (1.0, None, None))).weights
        cs = rg.compatibility_constraints(basis, prior, (1.0, 1.5, None))
        w = rg.fit_constrained(s, cfg, constraints=cs).weights
        A, _, _, d = cs.socs[0]
        assert d - np.linalg.norm(A @ w) > 0.1
        assert np.abs(w - w_free).max() <= 1e-9 * np.abs(w_free).max()

        V, c = rg.design_system(s, basis.compiled())
        P = 2.0 * (V + rg.tikhonov_factor(s, cfg) * rg.penalty_matrix(cfg))
        for ey2 in (1.1, 1.05):
            cs = rg.compatibility_constraints(basis, prior, (1.0, ey2, None))
            A, _, _, d = cs.socs[0]
            E, e = cs.eq_rows, cs.eq_rhs
            n = P.shape[0]

            def w_of(mu):
                K = np.block([[P + mu * A.T @ A, E.T], [E, np.zeros((1, 1))]])
                return np.linalg.solve(K, np.concatenate([2.0 * c, e]))[:n]

            mu = brentq(lambda mu: np.linalg.norm(A @ w_of(mu)) - d, 0.0, 1e6, xtol=1e-15, rtol=1e-15)
            assert mu > 1e-2
            w_ref = w_of(mu)
            w = rg.fit_constrained(s, cfg, constraints=cs).weights
            assert np.abs(w - w_ref).max() <= 1e-8 * np.abs(w_ref).max()

    def test_infeasible_reports_family(self):
        rng = np.random.default_rng(9)
        basis = bs.make_basis(np.linspace(-2, 2, 8), 2, truncation=1)
        cfg = rg.RegressionConfig(basis, penalty_order=2)
        cs = rg.ConstraintSet(basis.dimension)
        row = np.zeros(basis.dimension)
        row[0] = 1.0
        cs.add_ineq(row, 1.0, "floor")
        cs.add_ineq(-row, -0.5, "cap")  # w0 >= 1 and w0 <= 0.5
        x = rng.standard_normal(100)
        with pytest.raises(opt.InfeasibleError, match=r"most violated family: (floor|cap) \(\d"):
            rg.fit_constrained(rg.Sample(x, x), cfg, constraints=cs)


class TestConstrainedMatchesUnconstrained:
    def test_empty_constraints_match_normal_equations(self):
        rng = np.random.default_rng(10)
        cfg = make_cfg()
        x = rng.uniform(-2.5, 2.5, 400)
        y = np.sin(x) + 0.2 * rng.standard_normal(400)
        s = rg.Sample(x, y)
        lam = rg.tikhonov_factor(s, cfg)
        w_free = rg.fit_penalized(s, cfg, lam).weights
        w_cone = rg.fit_constrained(s, cfg, lam, rg.ConstraintSet(cfg.basis.dimension)).weights
        assert np.abs(w_free - w_cone).max() <= 1e-6 * max(1.0, np.abs(w_free).max())

    def test_nonnegative_data_constraint_inactive(self):
        # data sampled from a spline with comfortably positive loadings:
        # the unconstrained optimum already satisfies the cone
        rng = np.random.default_rng(11)
        cfg = make_cfg()
        w_true = rng.uniform(0.5, 2.0, cfg.basis.dimension)
        x = rng.uniform(-2, 2, 400)
        y = bs.Spline(cfg.basis, w_true)(x) + 1e-3 * rng.standard_normal(400)
        s = rg.Sample(x, y)
        cs = rg.shape_constraints(cfg.basis, "nonnegative")
        lam = 1e-8
        w1 = rg.fit_penalized(s, cfg, lam).weights
        w2 = rg.fit_constrained(s, cfg, lam, cs).weights
        assert w1.min() > 0.1
        assert np.abs(w1 - w2).max() <= 1e-5

    @pytest.mark.parametrize("kind, value", [("value_ge", -5.0), ("value_le", 5.0)])
    def test_inactive_bound_at_one_point(self, kind, value):
        # the bound's row has entries only for the B-splines alive at x;
        # the other weights appear in no constraint row
        rng = np.random.default_rng(7)
        cfg = make_cfg()
        x = rng.uniform(-2, 2, 200)
        s = rg.Sample(x, np.sin(x) + 0.1 * rng.standard_normal(200))
        cs = rg.shape_constraints(cfg.basis, {"kind": kind, "x": 0.3, "value": value})
        assert (cs.ineq_rows == 0.0).all(axis=0).any()
        w_free = rg.fit_penalized(s, cfg).weights
        w_bound = rg.fit_constrained(s, cfg, constraints=cs).weights
        assert np.abs(w_bound - w_free).max() <= 1e-9 * np.abs(w_free).max()


def test_stalled_fit_raises(stall_solver):
    rng = np.random.default_rng(12)
    cfg = make_cfg()
    x = rng.uniform(-2, 2, 300)
    s = rg.Sample(x, np.cos(x) + 0.1 * rng.standard_normal(300))
    cs = rg.shape_constraints(cfg.basis, "nonnegative")
    rg.fit_constrained(s, cfg, 1e-4, cs)  # optimal before the stall
    stalled = stall_solver()
    with pytest.raises(opt.OptError, match=stalled) as exc:
        rg.fit_constrained(s, cfg, 1e-4, cs)
    assert exc.type is opt.OptError
