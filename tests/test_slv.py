"""Exact volatility stepping and the particle calibration loop."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from volspline import opt, slv
from volspline.black import black_call, implied_vol


@pytest.fixture
def params():
    return slv.ScottParams(s0=100.0, a0=0.2, theta=1.0, nu=0.3, rho=-0.8, sigma_bs=0.25)


class TestClosedForms:
    def test_integer_fields_are_floats(self, params):
        # an integer s0 must not make the particle spots an integer array
        whole = slv.ScottParams(100, 0.2, 1, 0.3, -0.8, 0.25)
        assert whole == params and all(type(v) is float for v in vars(whole).values())
        grid = np.linspace(0, 0.5, 6)
        a = slv.calibrate_leverage(whole, grid, 1000, seed=5)
        b = slv.calibrate_leverage(params, grid, 1000, seed=5)
        for sa, sb in zip(a.slices, b.slices):
            np.testing.assert_array_equal(sa.cond_var.coeffs, sb.cond_var.coeffs)
        np.testing.assert_array_equal(slv.simulate_terminal(a, 512, 6), slv.simulate_terminal(b, 512, 6))

    def test_forward_variance(self, params):
        assert slv.forward_variance(params, 0.0) == pytest.approx(0.04)
        expected = 0.04 * np.exp(0.09 * (1.0 - np.exp(-2.0)))
        assert slv.forward_variance(params, 1.0) == pytest.approx(expected, rel=1e-12)
        frozen = slv.ScottParams(100.0, 0.2, 1.0, 0.0, -0.8, 0.25)
        assert slv.forward_variance(frozen, 5.0) == pytest.approx(0.04)

    def test_ou_covariance_entries(self, params):
        v11, v12 = slv._ou_cov(params, 1.0)
        assert v11 == pytest.approx((1.0 - np.exp(-2.0)) / 2.0, rel=1e-12)
        assert v12 == pytest.approx(-0.8 * (1.0 - np.exp(-1.0)), rel=1e-12)

    def test_fourth_moment_against_monte_carlo(self, params):
        rng = np.random.default_rng(0)
        t = 0.7
        var_u = params.nu**2 * (1 - np.exp(-2 * params.theta * t)) / (2 * params.theta)
        u = rng.standard_normal(2_000_000) * np.sqrt(var_u)
        a4 = (params.a0 * np.exp(u)) ** 4
        se = a4.std() / np.sqrt(a4.size)
        assert abs(slv.fourth_moment(params, t) - a4.mean()) <= 4 * se


class TestOUStep:
    def test_deterministic_when_no_volofvol(self):
        p = slv.ScottParams(100.0, 0.2, 1.3, 0.0, 0.0, 0.25)
        u = np.array([0.5, -0.2])
        normals = np.ones((2, 2))
        u_new, _ = slv.ou_step_exact(u, 0.4, p, normals)
        np.testing.assert_allclose(u_new, u * np.exp(-1.3 * 0.4), rtol=1e-14)

    def test_stationary_variance(self, params):
        rng = np.random.default_rng(1)
        u = np.zeros(200_000)
        for _ in range(60):
            u, _ = slv.ou_step_exact(u, 0.2, params, rng.standard_normal((2, u.size)))
        target = params.nu**2 / (2 * params.theta)
        assert u.var() == pytest.approx(target, rel=0.02)

    def test_increment_correlation(self, params):
        rng = np.random.default_rng(2)
        n = 500_000
        u0 = np.zeros(n)
        u1, dw = slv.ou_step_exact(u0, 0.5, params, rng.standard_normal((2, n)))
        integ = (u1 - u0 * np.exp(-params.theta * 0.5)) / params.nu
        v11, v12 = slv._ou_cov(params, 0.5)
        assert np.cov(integ, dw)[0, 1] == pytest.approx(v12, abs=3e-3)
        assert dw.var() == pytest.approx(0.5, rel=0.01)

    @pytest.mark.parametrize("rho", [-0.8, 1.0])
    def test_buffered_step_equals_the_plain_formula(self, params, rho):
        # the same operations in the same order, written into fewer arrays;
        # rho = 1 leaves no independent part in dw
        p = dataclasses.replace(params, rho=rho)
        rng = np.random.default_rng(3)
        u, normals = rng.standard_normal(1001), rng.standard_normal((2, 1001))
        u_in, normals_in = u.copy(), normals.copy()
        for dt in (0.025, 0.5):
            v11, v12 = slv._ou_cov(p, dt)
            z0, z1 = normals
            integ = np.sqrt(v11) * z0
            resid = dt - v12**2 / v11
            dw_want = v12 / np.sqrt(v11) * z0 + np.sqrt(max(resid, 0.0)) * z1
            u_want = u * np.exp(-p.theta * dt) + p.nu * integ
            u_new, dw = slv.ou_step_exact(u, dt, p, normals)
            np.testing.assert_array_equal(u_new, u_want)
            np.testing.assert_array_equal(dw, dw_want)
        np.testing.assert_array_equal(u, u_in)
        np.testing.assert_array_equal(normals, normals_in)


class TestCalibration:
    def test_shipped_calibration_solves_by_active_set(self, monkeypatch):
        # each date's program has nonnegativity rows, the forward-variance
        # equality and no cone block: the active-set route certifies all 40,
        # so the interior-point iteration never starts
        cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "slv_flat_smile.json").read_text())
        routes, starts = [], []
        for name, calls in (("_dual_active_set", routes), ("_penalized_kkt_point", starts)):
            monkeypatch.setattr(opt, name, lambda *a, f=getattr(opt, name), c=calls: c.append(1) or f(*a))
        flags = cfg["constraints"]
        slv.calibrate_leverage(
            slv.ScottParams(**cfg["params"]), np.linspace(0.0, cfg["horizon"], cfg["steps"] + 1), cfg["particles"],
            seed=5, n_knots=cfg["knots"], order=cfg["order"], truncation=cfg["truncation"],
            penalty_order=cfg["penalty_order"],
            flags=slv.ConstraintFlags(flags["forward_variance"], flags["nonnegative"], flags["quadratic_cap"]),
        )
        assert len(routes) == cfg["steps"] == 40 and not starts

    def test_degenerate_vol_recovers_ratio(self):
        p0 = slv.ScottParams(100.0, 0.2, 1.0, 0.0, 0.0, 0.25)
        surf = slv.calibrate_leverage(p0, np.linspace(0, 1, 11), 4000, seed=3)
        xs = np.linspace(70.0, 140.0, 15)
        for k in (3, 10):
            np.testing.assert_allclose(surf.leverage(k, xs), 0.25 * xs / 0.2, rtol=1e-6)

    def test_stalled_step_raises_naming_it(self, params, stall_solver):
        stalled = stall_solver()
        with pytest.raises(opt.OptError, match=r"^step 1 \(t=0\.1\): constrained regression " + stalled) as exc:
            slv.calibrate_leverage(params, np.linspace(0, 0.5, 6), 1000, seed=5)
        assert exc.type is opt.OptError

    def test_seed_determinism(self, params):
        grid = np.linspace(0, 0.5, 6)
        s1 = slv.calibrate_leverage(params, grid, 2000, seed=7)
        s2 = slv.calibrate_leverage(params, grid, 2000, seed=7)
        for a, b in zip(s1.slices, s2.slices):
            np.testing.assert_array_equal(a.cond_var.coeffs, b.cond_var.coeffs)

    def test_forward_variance_constraint_binds(self, params):
        grid = np.linspace(0, 0.5, 6)
        surf = slv.calibrate_leverage(params, grid, 4000, seed=8)
        from volspline.bspline import moment_rows
        # re-derive the constraint residual at the last step from the slice
        t = 0.5
        marginal = slv._spot_marginal_log(params, t)
        sl = surf.slices[-1]
        # integrate the compiled conditional variance against the marginal
        pp = sl.cond_var
        total = 0.0
        edges = np.concatenate([[-np.inf], pp.breakpoints, [np.inf]])
        for i in range(edges.size - 1):
            total += marginal.piece_integral(edges[i], edges[i + 1], pp.coeffs[i], pp.refs[i])
        assert total == pytest.approx(slv.forward_variance(params, t), abs=1e-8)

    def test_nonnegative_conditional_variance(self, params):
        grid = np.linspace(0, 0.5, 6)
        surf = slv.calibrate_leverage(params, grid, 3000, seed=9)
        xs = np.linspace(40.0, 250.0, 300)
        for k in range(1, len(grid)):
            assert surf.slices[k].conditional_variance(xs).min() > 0.0

    def test_martingale_preserved(self, params):
        surf = slv.calibrate_leverage(params, np.linspace(0, 1, 11), 8000, seed=10)
        res = slv.reprice_and_implied(surf, params, np.array([100.0]), 1.0, 2**16, seed=11)
        assert abs(res["mean_terminal"] - 100.0) <= 3 * res["se_terminal"]

    def test_quadratic_cap_inactive(self, params):
        grid = np.linspace(0, 0.5, 6)
        flags = slv.ConstraintFlags(forward_variance_eq=True, nonnegative=True, quadratic_cap=True)
        surf = slv.calibrate_leverage(params, grid, 4000, seed=12, flags=flags)
        # slack of the second-moment cone at the final step
        from volspline.bspline import weighted_gram, make_basis
        t = 0.5
        marginal = slv._spot_marginal_log(params, t)
        pp = surf.slices[-1].cond_var
        # conditional variance squared, integrated: reconstruct w^T M w via pieces
        total = 0.0
        edges = np.concatenate([[-np.inf], pp.breakpoints, [np.inf]])
        for i in range(edges.size - 1):
            sq = np.convolve(pp.coeffs[i], pp.coeffs[i])
            total += marginal.piece_integral(edges[i], edges[i + 1], sq, pp.refs[i])
        cap = slv.fourth_moment(params, t)
        assert total < cap * (1.0 - 1e-3)  # strictly slack, not binding

    def test_inactive_cap_leaves_calibration_unchanged(self, params):
        # the cone row does not bind, so every slice must match the
        # calibration without it to solver precision
        grid = np.linspace(0, 0.5, 6)
        capped = slv.calibrate_leverage(params, grid, 4000, seed=12, flags=slv.ConstraintFlags(True, True, True))
        free = slv.calibrate_leverage(params, grid, 4000, seed=12, flags=slv.ConstraintFlags(True, True, False))
        for a, b in zip(capped.slices[1:], free.slices[1:]):
            ca, cb = a.cond_var.coeffs, b.cond_var.coeffs
            assert np.abs(ca - cb).max() <= 1e-8 * np.abs(cb).max()

    def test_rejects_bad_grid(self, params):
        with pytest.raises(ValueError):
            slv.calibrate_leverage(params, [0.5, 1.0], 1000)
        with pytest.raises(ValueError):
            slv.calibrate_leverage(params, [0.0, 1.0], 10)


class TestConditionalVarianceDistance:
    def test_zero_on_itself_and_symmetric(self, params):
        grid = np.linspace(0, 0.5, 6)
        a = slv.calibrate_leverage(params, grid, 2000, seed=1)
        b = slv.calibrate_leverage(params, grid, 2000, seed=2)
        assert slv.conditional_variance_distance(a, a) == 0.0
        assert slv.conditional_variance_distance(a, b) > 0.0
        assert slv.conditional_variance_distance(a, b) == pytest.approx(
            slv.conditional_variance_distance(b, a), rel=1e-10
        )

    def test_matches_quadrature_on_merged_breakpoints(self, params):
        from scipy.integrate import quad

        grid = np.linspace(0, 0.5, 3)
        a = slv.calibrate_leverage(params, grid, 2000, seed=3)
        off = slv.ConstraintFlags(forward_variance_eq=False)
        b = slv.calibrate_leverage(params, grid, 2000, seed=4, flags=off, n_knots=13)
        sq = []
        for t, sa, sb in zip(grid[1:], a.slices[1:], b.slices[1:]):
            law = slv._spot_marginal_log(params, t)
            f, g = sa.cond_var, sb.cond_var
            pts = np.union1d(f.breakpoints, g.breakpoints)
            val, _ = quad(
                lambda x: (f(x) - g(x)) ** 2 * law.density(x),
                law.mean - 12 * law.sigma,
                law.mean + 12 * law.sigma,
                points=pts,
                limit=400,
            )
            sq.append(val)
        assert slv.conditional_variance_distance(a, b) == pytest.approx(np.sqrt(np.mean(sq)), rel=1e-8)

    def test_surfaces_that_agree_to_rounding_are_at_distance_zero(self, params):
        # knot spans one ulp apart: each date's integral of a square rounds to about -1e-19
        grid = np.linspace(0, 1, 41)
        a = slv.calibrate_leverage(params, grid, 4000, seed=2)
        b = slv.calibrate_leverage(params, grid, 4000, seed=2, knot_halfwidth_stds=2.5 * (1 + 2**-50))
        dist = slv.conditional_variance_distance(a, b)
        assert np.isfinite(dist) and dist < 1e-9

    def test_rejects_different_grids(self, params):
        a = slv.calibrate_leverage(params, np.linspace(0, 0.5, 6), 1000, seed=5)
        b = slv.calibrate_leverage(params, np.linspace(0, 0.5, 3), 1000, seed=5)
        with pytest.raises(ValueError):
            slv.conditional_variance_distance(a, b)


class TestRepricing:
    def test_flat_smile_small_sample(self, params):
        surf = slv.calibrate_leverage(params, np.linspace(0, 1, 21), 8000, seed=21)
        strikes = 100.0 * np.exp(np.linspace(-0.3, 0.3, 7))
        res = slv.reprice_and_implied(surf, params, strikes, 1.0, 2**16, seed=22)
        assert np.abs(res["implied_vols"] - 0.25).max() <= 0.01  # within 1 vol point

    def test_standard_errors_match_repricing_spread(self, params):
        # antithetic pairs are the independent draws: the reported errors must
        # match the spread of independent repricings of one surface
        surf = slv.calibrate_leverage(params, np.linspace(0, 0.5, 11), 2000, seed=31)
        runs = [
            slv.reprice_and_implied(surf, params, np.array([100.0]), 0.5, 2**11, seed=1000 + r)
            for r in range(200)
        ]
        spread = np.std([r["mean_terminal"] for r in runs], ddof=1)
        assert np.mean([r["se_terminal"] for r in runs]) == pytest.approx(spread, rel=0.2)
        spread_atm = np.std([r["prices"][0] for r in runs], ddof=1)
        assert np.mean([r["stderr"][0] for r in runs]) == pytest.approx(spread_atm, rel=0.2)

    def test_atm_asymptotic_inversion(self):
        # small-vol asymptotics: ATM price ~ F sigma sqrt(T/2pi)
        for sigma in (0.05, 0.1, 0.2):
            price = black_call(100.0, 100.0, sigma**2)
            approx = 100.0 * sigma * np.sqrt(1.0 / (2 * np.pi))
            assert price == pytest.approx(approx, rel=0.01)
            assert implied_vol(price, 100.0, 100.0, 1.0) == pytest.approx(sigma, abs=1e-9)

    def test_zero_vol_degenerate(self):
        assert implied_vol(0.0, 100.0, 110.0, 1.0) == 0.0
        assert implied_vol(5.0, 100.0, 95.0, 1.0) == 0.0  # at intrinsic
        assert np.isnan(implied_vol(101.0, 100.0, 95.0, 1.0))

    def test_nonpositive_strikes_are_nan_without_warnings(self):
        # a call at a strike <= 0 is worth F - K at every volatility; the
        # suite turns the warnings of a log there into errors
        vols = implied_vol(np.array([106.0, 100.5, 8.0]), 100.0, np.array([-5.0, 0.0, 100.0]), 1.0)
        assert np.isnan(vols[:2]).all() and np.isfinite(vols[2])

    def test_payoff_memory_is_bounded(self, params):
        # the payoffs are summed in blocks: repricing may add less than a
        # quarter of a strikes-by-paths matrix to the simulation's peak
        surf = slv.calibrate_leverage(params, np.linspace(0, 0.5, 6), 2000, seed=25)
        strikes = 100.0 * np.exp(np.linspace(-0.35, 0.35, 15))
        n_paths = 2**15

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        simulated = peak(lambda: slv.simulate_terminal(surf, n_paths, 26))
        repriced = peak(lambda: slv.reprice_and_implied(surf, params, strikes, 0.5, n_paths, seed=26))
        assert repriced - simulated < strikes.size * n_paths * 8 / 4

    def test_price_flags(self, params):
        # at a near-zero strike the no-arbitrage band collapses, so noise puts
        # the price on either side; it must be reported, never fatal
        surf = slv.calibrate_leverage(params, np.linspace(0, 0.5, 6), 2000, seed=23)
        res = slv.reprice_and_implied(surf, params, np.array([1e-8, 100.0]), 0.5, 4096, seed=24)
        assert res["price_flags"][0] in ("below-intrinsic", "above-forward", "ok")
        assert res["price_flags"][1] == "ok"
        assert np.isfinite(res["prices"]).all()
