"""Exact volatility stepping and the particle calibration loop."""

import dataclasses
import json
import sys
import threading
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
    """The engine advances the OU state by ``u e^{-theta dt} + innov``, with
    ``dw, innov = _increments(z0, z1, dt, p)`` (see ``_particle_step``)."""

    def test_deterministic_when_no_volofvol(self):
        p = slv.ScottParams(100.0, 0.2, 1.3, 0.0, 0.0, 0.25)
        _, innov = slv._increments(np.ones(2), np.ones(2), 0.4, p)
        np.testing.assert_array_equal(innov, 0.0)

    def test_stationary_variance(self, params):
        rng = np.random.default_rng(1)
        u = np.zeros(200_000)
        for _ in range(60):
            _, innov = slv._increments(*rng.standard_normal((2, u.size)), 0.2, params)
            u = u * np.exp(-params.theta * 0.2) + innov
        target = params.nu**2 / (2 * params.theta)
        assert u.var() == pytest.approx(target, rel=0.02)

    def test_increment_correlation(self, params):
        rng = np.random.default_rng(2)
        n = 500_000
        dw, innov = slv._increments(*rng.standard_normal((2, n)), 0.5, params)
        integ = innov / params.nu
        v11, v12 = slv._ou_cov(params, 0.5)
        assert np.cov(integ, dw)[0, 1] == pytest.approx(v12, abs=3e-3)
        assert dw.var() == pytest.approx(0.5, rel=0.01)

    @pytest.mark.parametrize("rho", [-0.8, 1.0])
    def test_buffered_increments_equal_the_plain_formula(self, params, rho):
        # the same operations in the same order, written into fewer arrays;
        # rho = 1 leaves no independent part in dw
        p = dataclasses.replace(params, rho=rho)
        rng = np.random.default_rng(3)
        normals = rng.standard_normal((2, 1001))
        normals_in = normals.copy()
        for dt in (0.025, 0.5):
            v11, v12 = slv._ou_cov(p, dt)
            z0, z1 = normals
            integ = np.sqrt(v11) * z0
            resid = dt - v12**2 / v11
            dw_want = v12 / np.sqrt(v11) * z0 + np.sqrt(max(resid, 0.0)) * z1
            dw, innov = slv._increments(z0, z1, dt, p)
            np.testing.assert_array_equal(innov, p.nu * integ)
            np.testing.assert_array_equal(dw, dw_want)
        np.testing.assert_array_equal(normals, normals_in)


def _full_array_ou_step(u, dt, p, normals):
    # the OU step of the full-array march: all paths at once, dw and the
    # innovation from each path's own normals
    v11, v12 = slv._ou_cov(p, dt)
    z0, z1 = normals
    resid = dt - v12**2 / v11
    dw = np.multiply(z0, v12 / np.sqrt(v11))
    term = np.multiply(z1, np.sqrt(max(resid, 0.0)))
    dw += term
    integ = np.multiply(z0, np.sqrt(v11), out=term)
    integ *= p.nu
    u_new = u * np.exp(-p.theta * dt)
    u_new += integ
    return u_new, dw


def _full_array_particle_step(s, u, dt, p, normals, leverage):
    step = p.a0 * np.exp(u)
    step *= leverage.leverage(s)
    u, dw = _full_array_ou_step(u, dt, p, normals)
    step *= dw
    s += step
    np.maximum(s, 1e-8 * p.s0, out=s)
    return u


def _full_array_march(surface, n_paths, seed):
    """The path march as one step of every path per date: a (2, half)
    block of normals, its negated copy for the antithetic paths."""
    p = surface.params
    half = (n_paths + 1) // 2
    s = np.full(2 * half, p.s0)
    u = np.zeros_like(s)
    z = np.empty((2, s.size))
    for k, dt in enumerate(np.diff(surface.times)):
        z[:, :half] = slv._step_rng(seed, "reprice", k).standard_normal((2, half))
        np.negative(z[:, :half], out=z[:, half:])
        u = _full_array_particle_step(s, u, dt, p, z, surface.slices[k])
    return s[:n_paths]


@pytest.fixture(scope="module")
def march_surfaces():
    p = slv.ScottParams(s0=100.0, a0=0.2, theta=1.0, nu=0.3, rho=-0.8, sigma_bs=0.25)
    grid = np.linspace(0.0, 0.5, 6)
    capped = slv.ConstraintFlags(forward_variance_eq=True, nonnegative=True, quadratic_cap=True)
    return {
        "shipped": slv.calibrate_leverage(p, grid, 2000, seed=41),
        "quadratic_cap": slv.calibrate_leverage(p, grid, 2000, seed=42, flags=capped),
    }


_B = slv._MARCH_BLOCK  # antithetic pairs per block of the march


class TestPathMarch:
    @pytest.mark.parametrize(
        "kind, n_paths",
        [("shipped", n) for n in (1, 2, 3, _B - 1, _B + 1, 2 * _B + 5, 2 * _B - 2, 2 * _B + 1, 4 * _B + 9)]
        + [("quadratic_cap", 2 * _B + 3)],
    )
    def test_block_march_is_the_full_array_march_bit_for_bit(self, march_surfaces, kind, n_paths):
        # whole blocks, a part block and pair counts on either side of a
        # block boundary (_B - 1, _B + 1 and 2 _B + 5 pairs), odd and even
        surface = march_surfaces[kind]
        got = slv.simulate_terminal(surface, n_paths, 43)
        want = _full_array_march(surface, n_paths, 43)
        assert got.shape == (n_paths,) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("flags", [slv.ConstraintFlags(), slv.ConstraintFlags(quadratic_cap=True)])
    def test_calibration_is_that_of_the_full_array_step(self, monkeypatch, params, flags):
        # calibration moves all its particles as one block: with the
        # full-array step patched in for the block kernel, every slice's
        # coefficients come out byte for byte
        grid = np.linspace(0.0, 0.5, 6)
        surface = slv.calibrate_leverage(params, grid, 3000, seed=44, flags=flags)

        def full_array_step(s, u, dt, p, z0, z1, leverage):
            u[...] = _full_array_particle_step(s, u, dt, p, np.stack([z0, z1]), leverage)

        monkeypatch.setattr(slv, "_increments", lambda z0, z1, dt, p: (z0, z1))
        monkeypatch.setattr(slv, "_particle_step", full_array_step)
        reference = slv.calibrate_leverage(params, grid, 3000, seed=44, flags=flags)
        for a, b in zip(surface.slices, reference.slices):
            assert a.cond_var.coeffs.tobytes() == b.cond_var.coeffs.tobytes()

    def test_march_memory_is_under_five_path_arrays(self, march_surfaces):
        # the spots, the OU states and the two buffers of normals are four
        # path-sized arrays; the rest of a step is block-sized
        n_paths = 2**17
        tracemalloc.start()
        try:
            slv.simulate_terminal(march_surfaces["shipped"], n_paths, 45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n_paths * 8


    def test_normals_are_each_dates_stream_and_closing_early_joins_the_helper(self):
        before = threading.active_count()
        normals = slv._date_normals(51, "reprice", 4, 1000)
        for k, z in zip(range(2), normals):
            assert z.tobytes() == slv._step_rng(51, "reprice", k).standard_normal((2, 1000)).tobytes()
        normals.close()
        assert threading.active_count() == before

    def test_an_error_drawing_normals_is_raised_by_the_march(self, monkeypatch, march_surfaces):
        step_rng = slv._step_rng

        def failing_rng(seed, stream, step):
            if step == 2:
                raise MemoryError("date 2")
            return step_rng(seed, stream, step)

        monkeypatch.setattr(slv, "_step_rng", failing_rng)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="date 2"):
            slv.simulate_terminal(march_surfaces["shipped"], 2 * _B + 5, 47)
        assert threading.active_count() == before

    def test_the_normals_helper_is_joined_when_the_march_returns(self, march_surfaces):
        before = threading.active_count()
        slv.simulate_terminal(march_surfaces["shipped"], 2 * _B + 5, 47)
        assert threading.active_count() == before

    def test_an_error_mid_march_joins_the_helper_and_propagates_unchanged(self, monkeypatch, march_surfaces):
        surface, n_paths = march_surfaces["shipped"], 2 * _B + 5
        assert sum(sl is surface.slices[3] for sl in surface.slices) == 1
        boom = RuntimeError("date 3")
        step = slv._particle_step

        def failing_step(s, u, dt, p, dw, innov, leverage, antithetic=False):
            if leverage is surface.slices[3]:
                raise boom
            step(s, u, dt, p, dw, innov, leverage, antithetic)

        monkeypatch.setattr(slv, "_particle_step", failing_step)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            slv.simulate_terminal(surface, n_paths, 48)
        assert info.value is boom
        assert threading.active_count() == before
        monkeypatch.undo()
        got = slv.simulate_terminal(surface, n_paths, 48)
        assert got.tobytes() == _full_array_march(surface, n_paths, 48).tobytes()

    @pytest.mark.parametrize("n_paths, seeds", [(4 * _B + 9, (49, 50)), (2 * _B + 5, (51, 52, 53, 54))])
    def test_concurrent_marches_share_no_state(self, march_surfaces, n_paths, seeds):
        # calls at once, more of them than cores, with frequent thread
        # switches: each gives the bytes of the same call run alone
        surface = march_surfaces["quadratic_cap"]
        alone = {seed: slv.simulate_terminal(surface, n_paths, seed).tobytes() for seed in seeds}
        together, start = {}, threading.Barrier(len(seeds))

        def march(seed):
            start.wait()
            together[seed] = slv.simulate_terminal(surface, n_paths, seed).tobytes()

        threads = [threading.Thread(target=march, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert together == alone


def _serial_normals(seed, stream, n_dates, n):
    # each date's normals drawn inline, as a calibration without the helper draws them
    for k in range(n_dates):
        yield slv._step_rng(seed, "calibrate", k).standard_normal((2, n))


def _coefficient_bytes(surface):
    return [sl.cond_var.coeffs.tobytes() for sl in surface.slices]


class TestCalibrationNormals:
    """Calibration draws each date's normals on the helper of ``_date_normals``."""

    @pytest.mark.parametrize("flags", [slv.ConstraintFlags(), slv.ConstraintFlags(quadratic_cap=True)])
    def test_calibration_is_that_of_a_serial_draw(self, monkeypatch, params, flags):
        grid = np.linspace(0.0, 0.5, 6)
        got = slv.calibrate_leverage(params, grid, 3000, seed=61, flags=flags)
        monkeypatch.setattr(slv, "_date_normals", _serial_normals)
        want = slv.calibrate_leverage(params, grid, 3000, seed=61, flags=flags)
        assert _coefficient_bytes(got) == _coefficient_bytes(want)

    def test_the_helper_is_joined_when_calibration_returns(self, params):
        before = threading.active_count()
        slv.calibrate_leverage(params, np.linspace(0.0, 0.5, 6), 1000, seed=62)
        assert threading.active_count() == before

    def test_a_stalled_step_joins_the_helper(self, params, stall_solver):
        stalled = stall_solver()
        before = threading.active_count()
        with pytest.raises(opt.OptError, match=r"^step 1 \(t=0\.1\): constrained regression " + stalled):
            slv.calibrate_leverage(params, np.linspace(0.0, 0.5, 6), 1000, seed=63)
        assert threading.active_count() == before

    def test_an_error_drawing_normals_is_raised_by_the_calibration(self, monkeypatch, params):
        step_rng = slv._step_rng

        def failing_rng(seed, stream, step):
            if (stream, step) == ("calibrate", 2):
                raise MemoryError("date 2")
            return step_rng(seed, stream, step)

        monkeypatch.setattr(slv, "_step_rng", failing_rng)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="date 2"):
            slv.calibrate_leverage(params, np.linspace(0.0, 0.5, 6), 1000, seed=64)
        assert threading.active_count() == before

    @pytest.mark.parametrize("seeds", [(65, 66), (67, 68, 69, 70)])
    def test_concurrent_calibrations_share_no_state(self, params, seeds):
        # calls at once, more of them than cores, with frequent thread
        # switches: each gives the bytes of the same call run alone
        grid, flags = np.linspace(0.0, 0.5, 6), slv.ConstraintFlags(quadratic_cap=True)
        alone = {seed: _coefficient_bytes(slv.calibrate_leverage(params, grid, 2000, seed, flags=flags)) for seed in seeds}
        together, start = {}, threading.Barrier(len(seeds))

        def calibrate(seed):
            start.wait()
            together[seed] = _coefficient_bytes(slv.calibrate_leverage(params, grid, 2000, seed, flags=flags))

        threads = [threading.Thread(target=calibrate, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert together == alone


class TestCalibration:
    def test_shipped_calibration_solves_by_active_set(self, monkeypatch):
        # each date's program has the hull's nonnegativity rows, the
        # mean-compatibility equality and no cap: the active-set route
        # certifies all 40, with no proximal round and no equality-only
        # solve (``_penalized_kkt_point``); one row joins the
        # working set on the kept factors, and the KKT system of the final
        # working set is LU-factored once per date
        cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "slv_flat_smile.json").read_text())
        routes, starts, lus, sols = [], [], [], []
        for name, calls in (("_dual_active_set", routes), ("_penalized_kkt_point", starts),
                            ("_kkt", lus), ("solve_socp", sols)):
            monkeypatch.setattr(opt, name, lambda *a, f=getattr(opt, name), c=calls, **k: c.append(f(*a, **k)) or c[-1])
        flags = cfg["constraints"]
        slv.calibrate_leverage(
            slv.ScottParams(**cfg["params"]), np.linspace(0.0, cfg["horizon"], cfg["steps"] + 1), cfg["particles"],
            seed=5, n_knots=cfg["knots"], order=cfg["order"], truncation=cfg["truncation"],
            penalty_order=cfg["penalty_order"],
            flags=slv.ConstraintFlags(flags["forward_variance"], flags["nonnegative"], flags["quadratic_cap"]),
        )
        assert len(routes) == cfg["steps"] == 40 and not starts
        assert [sol.iterations for sol in sols] == [1] * 40
        assert all(sol.status == "optimal" for sol in sols) and len(lus) == 40

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

    def test_infeasible_step_names_a_compatibility_family(self, params, monkeypatch):
        # a second moment far below E[a_t^2]^2 leaves no fit that meets both the
        # mean and the convex-order cap: the step names one of the paper's families
        monkeypatch.setattr(slv, "fourth_moment", lambda p, t: 1e-6 * slv.forward_variance(p, t) ** 2)
        family = r"most violated family: (mean-compatibility|convex-order) \("
        with pytest.raises(opt.InfeasibleError, match=r"^step 1 \(t=0\.1\): constrained regression is infeasible; " + family):
            slv.calibrate_leverage(params, np.linspace(0, 0.5, 6), 1000, seed=5, flags=slv.ConstraintFlags(quadratic_cap=True))

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
        # slack of the convex-order cap at the final step
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
        # the cap does not bind, so every slice must match the
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

    @pytest.mark.parametrize("n_paths", [-5, 0, 1, 2])
    def test_fewer_than_two_pairs_is_an_error(self, march_surfaces, params, n_paths):
        # the pair standard error needs two pairs
        surface = march_surfaces["shipped"]
        with pytest.raises(ValueError, match="at least 3 paths"):
            slv.reprice_and_implied(surface, params, np.array([100.0]), 0.5, n_paths, seed=46)
        res = slv.reprice_and_implied(surface, params, np.array([100.0]), 0.5, 3, seed=46)
        assert np.isfinite(res["stderr"]).all() and np.isfinite(res["se_terminal"])

    def test_price_flags(self, params):
        # at a near-zero strike the no-arbitrage band collapses, so noise puts
        # the price on either side; it must be reported, never fatal
        surf = slv.calibrate_leverage(params, np.linspace(0, 0.5, 6), 2000, seed=23)
        res = slv.reprice_and_implied(surf, params, np.array([1e-8, 100.0]), 0.5, 4096, seed=24)
        assert res["price_flags"][0] in ("below-intrinsic", "above-forward", "ok")
        assert res["price_flags"][1] == "ok"
        assert np.isfinite(res["prices"]).all()
