"""Acceptance gate: one test per shipped criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

import json
import os
import subprocess
import sys
import time
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from volspline import bspline as bs, opt, pde, priors as pr, regression as rg, slv, surface as sf
from volspline.black import black_call
from volspline.priors import ssvi_total_variance

REPO = Path(__file__).resolve().parents[1]


def report(name: str, ok: bool, detail: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{elapsed:.1f}s / {budget:.0f}s budget]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its runtime budget ({elapsed:.1f}s)"


def test_criterion_1_basis_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_pou = 0.0
    worst_eval = 0.0
    worst_fd = 0.0
    for _ in range(25):
        n_knots = int(rng.integers(6, 12))
        order = int(rng.integers(1, 4))
        knots = np.sort(rng.uniform(-3, 3, n_knots))
        basis = bs.make_basis(knots, order)
        g = basis.knots.knots
        # partition of unity on the classical interior
        if g[order - 1] < g[n_knots - order]:
            xs = rng.uniform(g[order - 1], g[n_knots - order] - 1e-12, 100)
            worst_pou = max(worst_pou, np.abs(bs.design_matrix(basis, xs).sum(axis=1) - 1).max())
        # three evaluation routes
        w = rng.standard_normal(basis.dimension)
        sp = bs.Spline(basis, w)
        xs = rng.uniform(g[0] - 2, g[-1] + 2, 200)
        vb = sp(xs, method="backward")
        vf = sp(xs, method="forward")
        vc = sp(xs, method="compiled")
        scale = np.abs(vf) + 1.0
        worst_eval = max(worst_eval, (np.abs(vb - vf) / scale).max(), (np.abs(vc - vf) / scale).max())
        # derivative map vs central differences
        dm = bs.derivative_decomposition(basis, 1)
        dsp = bs.Spline(dm.basis, dm.matrix @ w)
        pts = rng.uniform(g[0] + 0.05, g[-1] - 0.05, 100)
        h = 1e-5
        fd = (sp(pts + h) - sp(pts - h)) / (2 * h)
        worst_fd = max(worst_fd, np.abs(dsp(pts) - fd).max())
    # multiplicity m knocks continuity down to C^(order - m)
    drops_ok = True
    for order in (2, 3):
        for mult in range(1, order + 1):
            knots = np.sort(np.concatenate([np.linspace(0, 4, 5), np.full(mult - 1, 2.0)]))
            cb = bs.make_basis(knots, order).compiled()
            pieces = [cb.combination(e) for e in np.eye(cb.coeffs.shape[0])]
            jump = np.zeros(order + 2)
            for pp in pieces:
                for p in range(order + 2):
                    jump[p] = max(jump[p], abs(pp.one_sided(2.0, p, "left") - pp.one_sided(2.0, p, "right")))
            drops_ok &= all(jump[p] <= 1e-8 for p in range(order - mult + 1))
            drops_ok &= jump[order - mult + 1] > 1e-4
    ok = worst_pou <= 1e-12 and worst_eval <= 1e-12 and worst_fd <= 1e-6 and drops_ok
    report(
        "criterion-1 basis correctness",
        ok,
        f"partition {worst_pou:.1e}, route agreement {worst_eval:.1e}, fd {worst_fd:.1e}, continuity drops {drops_ok}",
        t0,
        5.0,
    )


def test_criterion_2_gram_exactness():
    t0 = time.perf_counter()
    basis = bs.make_basis([0.0, 1.0, 2.0, 3.0], 1, truncation=-1)
    hand_ok = abs(bs.gram_matrix(basis, 0)[0, 1] - 1.0 / 6.0) <= 1e-15
    rng = np.random.default_rng(202)
    gx, gw = np.polynomial.legendre.leggauss(4)
    worst = 0.0
    for _ in range(100):
        n_knots = int(rng.integers(6, 11))
        order = int(rng.integers(1, 4))
        p = int(rng.integers(0, order + 1))
        knots = np.sort(rng.uniform(-3, 3, n_knots))
        b = bs.make_basis(knots, order, truncation=min(p - 1, order))
        gram = bs.gram_matrix(b, p)
        dm = bs.derivative_decomposition(b, p)
        low = dm.basis
        core = np.zeros((low.dimension, low.dimension))
        cb = low.compiled()
        for i in range(knots.size - 1):
            a, c = knots[i], knots[i + 1]
            edges = np.linspace(a, c, 65)
            mids = 0.5 * (edges[:-1] + edges[1:])
            halves = 0.5 * np.diff(edges)
            xs = (mids[:, None] + halves[:, None] * gx[None, :]).ravel()
            wts = (halves[:, None] * gw[None, :]).ravel()
            vals = cb.evaluate(xs)
            core += vals.T @ (wts[:, None] * vals)
        oracle = dm.matrix.T @ core @ dm.matrix
        worst = max(worst, np.abs(gram - oracle).max() / max(1.0, np.abs(oracle).max()))
    ok = hand_ok and worst <= 1e-9
    report("criterion-2 gram exactness", ok, f"hand entry {hand_ok}, oracle gap {worst:.1e}", t0, 10.0)


def test_criterion_3_solver_suite():
    from test_opt import solve_qp_oracle_box, solve_qp_oracle_eq

    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_obj = 0.0
    worst_res = 0.0
    n_done = 0
    for _ in range(100):  # equality-constrained, dense-KKT oracle
        n = int(rng.integers(2, 7))
        me = int(rng.integers(1, n))
        A = rng.standard_normal((me, n))
        P = rng.standard_normal((n, n))
        P = P @ P.T + 0.5 * np.eye(n)
        q = rng.standard_normal(n)
        b = rng.standard_normal(me)
        cs = rg.ConstraintSet(n)
        for row, rhs in zip(A, b):
            cs.add_eq(row, rhs, "eq")
        sol = opt.solve_qp(opt.QuadForm(P, q), cs)
        xstar = solve_qp_oracle_eq(P, q, A, b)
        ref = 0.5 * xstar @ P @ xstar + q @ xstar
        assert sol.status == "optimal"
        worst_obj = max(worst_obj, abs(sol.objective - ref))
        worst_res = max(worst_res, max(sol.kkt_residuals))
        n_done += 1
    for _ in range(100):  # inequality-constrained, active-set enumeration oracle
        n = int(rng.integers(1, 5))
        P = rng.standard_normal((n, n))
        P = P @ P.T + 0.5 * np.eye(n)
        q = rng.standard_normal(n)
        lo = -rng.uniform(0.1, 1.0, n)
        hi = rng.uniform(0.1, 1.0, n)
        ref, _ = solve_qp_oracle_box(P, q, lo, hi)
        cs = rg.ConstraintSet(n)
        for j in range(n):
            cs.add_ineq(np.eye(n)[j], lo[j], "lo")
            cs.add_ineq(-np.eye(n)[j], -hi[j], "hi")
        sol = opt.solve_qp(opt.QuadForm(P, q), cs)
        assert sol.status == "optimal"
        worst_obj = max(worst_obj, abs(sol.objective - ref))
        worst_res = max(worst_res, max(sol.kkt_residuals))
        n_done += 1
    pinv = opt.pseudoinverse_lsq([[1.0, 1.0]], [2.0], np.diag([1.0, 4.0]))
    pinv_ok = np.abs(pinv - np.array([1.6, 0.4])).max() <= 1e-10
    ok = worst_obj <= 1e-6 and worst_res <= 1e-8 and pinv_ok and n_done == 200
    report(
        "criterion-3 solver suite",
        ok,
        f"{n_done} instances, objective gap {worst_obj:.1e}, KKT {worst_res:.1e}, pinv {pinv_ok}",
        t0,
        30.0,
    )


def test_criterion_4_regression_reproduction():
    t0 = time.perf_counter()
    xs_band = np.linspace(-2.0, 2.0, 81)
    truth = np.tanh(2.0 * xs_band) + 1.0
    rmse_acc: dict[tuple[int, int], list[float]] = {}
    sup_gap = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        X = rng.standard_normal(1600)
        Y = np.tanh(2.0 * X / np.std(X)) + rng.standard_normal(1600) ** 2
        sample = rg.Sample(X, Y)
        lo_q, hi_q = np.quantile(X, [0.05, 0.95])
        xs_mass = np.linspace(lo_q, hi_q, 81)
        truth_mass = np.tanh(2.0 * xs_mass) + 1.0
        fits_at_20 = {}
        for n_knots in (10, 20):
            for order in (1, 2, 3):
                knots = np.linspace(-2.5 * sample.sigma_x, 2.5 * sample.sigma_x, n_knots)
                cfg = rg.RegressionConfig(bs.make_basis(knots, order, truncation=1), penalty_order=2)
                fit = rg.fit_penalized(sample, cfg)  # lambda = sigma^3 / N
                rmse = float(np.sqrt(np.mean((fit(xs_mass) - truth_mass) ** 2)))
                rmse_acc.setdefault((order, n_knots), []).append(rmse)
                if n_knots == 20:
                    fits_at_20[order] = fit(xs_band)
        for o1, o2 in combinations(sorted(fits_at_20), 2):
            sup_gap = max(sup_gap, np.abs(fits_at_20[o1] - fits_at_20[o2]).max())
    worst_rmse = max(float(np.mean(v)) for v in rmse_acc.values())
    ok = sup_gap < 0.1 and worst_rmse < 0.15
    report(
        "criterion-4 regression reproduction",
        ok,
        f"order sup-gap at 20 knots {sup_gap:.3f} (<0.1), worst mean RMSE {worst_rmse:.3f} (<0.15)",
        t0,
        60.0,
    )


def test_criterion_5_slv_calibration():
    t0 = time.perf_counter()
    params = slv.ScottParams(s0=100.0, a0=0.2, theta=1.0, nu=0.3, rho=-0.8, sigma_bs=0.25)
    strikes = 100.0 * np.exp(np.linspace(-0.35, 0.35, 15))
    grid = np.linspace(0.0, 1.0, 41)
    both = slv.ConstraintFlags(forward_variance_eq=True, nonnegative=True)
    b_only = slv.ConstraintFlags(forward_variance_eq=False, nonnegative=True)

    # The equality is judged on what it constrains, the conditional variance
    # at each date, by its L2(Q_k) distance to a many-particle reference
    # calibrated without the equality.  Smile RMSEs of the two runs differ by
    # far less than their common repricing noise, so they cannot decide it.
    reference = slv.calibrate_leverage(params, grid, 2**18, seed=901, flags=b_only)
    seeds = [11, 23, 37, 51, 67]
    max_devs = []
    dists = {4000: [], 8000: [], 16000: []}
    for seed in seeds:
        for n in dists:
            surf_c = slv.calibrate_leverage(params, grid, n, seed=seed, flags=both)
            surf_u = slv.calibrate_leverage(params, grid, n, seed=seed, flags=b_only)
            dists[n].append(
                (
                    slv.conditional_variance_distance(surf_c, reference),
                    slv.conditional_variance_distance(surf_u, reference),
                )
            )
            if n == 16000:
                res = slv.reprice_and_implied(surf_c, params, strikes, 1.0, 2**17, seed=seed + 777)
                max_devs.append(float(np.abs(res["implied_vols"] - params.sigma_bs).max()))
    # columns: constrained, unconstrained distance, relative to a0^2
    rel = {n: np.array(d) / params.a0**2 for n, d in dists.items()}
    wins = {n: int(np.sum(r[:, 0] <= r[:, 1])) for n, r in rel.items()}
    avg_max_dev = float(np.mean(max_devs))

    # the convex-order cap must be slack at the optimum
    flags_c = slv.ConstraintFlags(forward_variance_eq=True, nonnegative=True, quadratic_cap=True)
    surf = slv.calibrate_leverage(params, np.linspace(0, 1, 11), 8000, seed=5, flags=flags_c)
    slack_ok = True
    for k, t in enumerate(surf.times[1:], start=1):
        marginal = slv._spot_marginal_log(params, float(t))
        ppoly = surf.slices[k].cond_var
        edges = np.concatenate([[-np.inf], ppoly.breakpoints, [np.inf]])
        second = sum(
            marginal.piece_integral(edges[i], edges[i + 1], np.convolve(ppoly.coeffs[i], ppoly.coeffs[i]), ppoly.refs[i])
            for i in range(edges.size - 1)
        )
        slack_ok &= second < slv.fourth_moment(params, float(t)) * (1 - 1e-6)

    ok = avg_max_dev <= 0.005 and all(w >= 4 for w in wins.values()) and slack_ok
    dist_detail = "; ".join(
        f"{n}: {100 * r[:, 0].mean():.3f}%/{100 * r[:, 1].mean():.3f}%, min margin {100 * (r[:, 1] - r[:, 0]).min():+.4f}%"
        for n, r in rel.items()
    )
    report(
        "criterion-5 slv calibration",
        ok,
        f"avg max smile dev {avg_max_dev * 100:.2f} vol pts (<=0.5), "
        f"constrained wins {wins} (>=4/5 each) on conditional-variance distance to the reference, "
        f"constrained/unconstrained mean in % of a0^2 [{dist_detail}], quadratic cap slack {slack_ok}",
        t0,
        600.0,
    )


def test_criterion_6_surface_calibration():
    t0 = time.perf_counter()
    prior = pr.LogNormalPrior(100.0, 0.04)

    # self-consistency: quotes generated from the prior recover the unit reweighting
    Ks = [80.0, 90.0, 100.0, 110.0, 125.0]
    mids = black_call(100.0, np.array(Ks), 0.04)
    ms = sf.MarketSlice(1.0, 100.0, [sf.Quote(k, m - 1e-7, m + 1e-7) for k, m in zip(Ks, mids)])
    sl = sf.calibrate_surface([ms], prior, sf.SurfaceConfig(n_knots=11)).slices[0]
    self_dev = float(np.abs(sl.weights - 1.0).max())

    # synthetic sparse skewed quotes with bid-ask and an unquoted maturity
    market_params = pr.SSVIParams(C=0.0, K=0.04, rho=-0.3, eta=0.8, gamma=0.45, forward_curve=100.0)

    def qslice(T, strikes, spread):
        qs = []
        for K in strikes:
            w = ssvi_total_variance(market_params, T, np.log(K / 100.0))
            mid = black_call(100.0, K, w)
            qs.append(sf.Quote(K, mid - spread / 2, mid + spread / 2))
        return sf.MarketSlice(T, 100.0, qs)

    market = [
        qslice(0.25, [85.0, 95.0, 100.0, 105.0, 115.0], 0.08),
        qslice(0.5, [80.0, 95.0, 100.0, 110.0, 120.0], 0.10),
        sf.MarketSlice(0.75, 100.0),
        qslice(1.0, [70.0, 90.0, 100.0, 115.0, 135.0], 0.12),
    ]
    calib = sf.calibrate_surface(market, prior, sf.SurfaceConfig(n_knots=13, time_smoothness_weight=1e-3))

    bracket_excess = 0.0
    mass_err = 0.0
    fwd_err = 0.0
    dens_min = np.inf
    parity_worst = 0.0
    for slc, msl in zip(calib.slices, market):
        if msl.quotes:
            prices = slc.call_price([q.strike for q in msl.quotes])
            bracket_excess = max(
                bracket_excess, max(max(q.bid - p, p - q.ask) for q, p in zip(msl.quotes, prices))
            )
        g = slc.basis.knots.knots
        strikes = 100.0 * np.exp(np.linspace(g[0] - 0.1, g[-1] + 0.1, 200))
        forms = sf.pricing_linear_forms(slc.basis, slc.measure, strikes)
        mass_err = max(mass_err, abs(forms["mass_row"] @ slc.weights - 1.0))
        fwd_err = max(fwd_err, abs(forms["forward_row"] @ slc.weights - msl.forward))
        xs = 100.0 * np.exp(np.linspace(g[0], g[-1], 1000))
        dens_min = min(dens_min, float(slc.density(xs).min()))
        c = forms["call_rows"] @ slc.weights
        p_ = forms["put_rows"] @ slc.weights
        parity_worst = max(parity_worst, float(np.abs(c - p_ - (100.0 - strikes)).max()))
    rel = calib.relative_strike_grid
    assert rel.size == 81
    cal_min = np.inf
    for s1, s2 in zip(calib.slices, calib.slices[1:]):
        c1 = s1.call_price(rel * s1.forward)
        c2 = s2.call_price(rel * s2.forward)
        cal_min = min(cal_min, float(np.min(c2 - c1)))

    ok = (
        self_dev <= 1e-6
        and bracket_excess <= 1e-7
        and mass_err <= 1e-8
        and fwd_err <= 1e-8 * 100.0
        and dens_min >= -1e-12
        and cal_min >= -1e-7
        and parity_worst <= 1e-10 * 100.0
    )
    report(
        "criterion-6 surface calibration",
        ok,
        f"self-recovery {self_dev:.1e}, bracket excess {bracket_excess:.1e}, mass {mass_err:.1e}, "
        f"forward {fwd_err:.1e}, min density {dens_min:.1e}, calendar slack {cal_min:.1e}, parity {parity_worst:.1e}",
        t0,
        120.0,
    )


def test_criterion_7_pde_solver():
    t0 = time.perf_counter()
    v0 = 400.0
    s0 = 100.0
    half = 7.0 * np.sqrt(v0)
    knots40 = np.linspace(s0 - half, s0 + half, 40)

    stat_basis = bs.make_basis(np.linspace(s0 - 5 * np.sqrt(v0), s0 + 5 * np.sqrt(v0), 40), 3, truncation=0)
    stat_prob = pde.PDEProblem(pde.ConstantVariance(v0), v0, s0, stat_basis, 1.0)
    stat_dev = float(np.abs(pde.evolve(stat_prob, 100).weights - 1.0).max())

    v = 0.9 * v0
    basis = bs.make_basis(knots40, 3, truncation=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prob = pde.PDEProblem(pde.ConstantVariance(v), v0, s0, basis, 1.0)
    xs = np.linspace(s0 - 3 * np.sqrt(v0), s0 + 3 * np.sqrt(v0), 101)
    z = xs - s0
    exact = np.sqrt(v0 / v) * np.exp(-0.5 * z**2 * (1 / v - 1 / v0))
    f100 = pde.evolve(prob, 100, scheme="cn").ratio(-1, xs)
    oracle_rel = float((np.abs(f100 - exact) / exact).max())

    basis79 = bs.make_basis(np.linspace(s0 - half, s0 + half, 79), 3, truncation=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prob79 = pde.PDEProblem(pde.ConstantVariance(v), v0, s0, basis79, 1.0)
    f200 = pde.evolve(prob, 200).ratio(-1, xs)
    e40 = float(np.abs(f200 - exact).max())
    e79 = float(np.abs(pde.evolve(prob79, 200).ratio(-1, xs) - exact).max())
    space_factor = e40 / e79
    f400 = pde.evolve(prob, 400).ratio(-1, xs)
    time_factor = float(np.abs(f100 - f200).max() / np.abs(f200 - f400).max())

    # the public step solve against a plain dense solve on an assembled step system
    A = pde.assemble(prob, 0.55).mass
    B = pde.assemble(prob, 0.55).stiffness
    vals, op = pde.collocation_rows(prob, 0.55)
    rng = np.random.default_rng(7)
    band = A - 0.005 * B
    border = vals - 0.005 * op
    rb = rng.standard_normal(band.shape[0])
    rbb = rng.standard_normal(2)
    x1 = pde.solve_bordered_banded(band, border, rb, rbb)
    x2 = np.linalg.solve(np.vstack([band, border]), np.concatenate([rb, rbb]))
    solve_gap = float(np.abs(x1 - x2).max() / max(1.0, np.abs(x2).max()))

    ok = (
        stat_dev <= 1e-10
        and oracle_rel <= 2e-3
        and space_factor >= 3.0
        and time_factor >= 3.0
        and solve_gap <= 1e-10
    )
    report(
        "criterion-7 pde solver",
        ok,
        f"stationarity {stat_dev:.1e}, oracle {oracle_rel:.1e}, space x{space_factor:.1f}, "
        f"time x{time_factor:.1f}, bordered-vs-dense {solve_gap:.1e}",
        t0,
        60.0,
    )


def test_criterion_8_determinism_and_performance(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "slv.json"
    cfg.write_text(
        json.dumps(
            {
                "params": {"s0": 100.0, "a0": 0.2, "theta": 1.0, "nu": 0.3, "rho": -0.8, "sigma_bs": 0.25},
                "horizon": 0.5,
                "steps": 10,
                "particles": 4000,
                "reprice": {"strikes": {"logm_start": -0.2, "logm_stop": 0.2, "count": 7}, "paths": 8192},
            }
        )
    )
    digests = []
    for threads in ("1", "3"):
        out = tmp_path / f"run{threads}"
        env = dict(os.environ, VOLSPLINE_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "volspline.cli", "slv-calibrate", "--config", str(cfg),
             "--out", str(out), "--seed", "99"],
            env=env,
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(tuple((out / f).read_bytes() for f in ("smile.csv", "leverage.csv", "manifest.json")))
    identical = digests[0] == digests[1]

    basis_cfg = tmp_path / "basis.json"
    basis_cfg.write_text(json.dumps({"knots": {"start": 0.0, "stop": 7.0, "count": 8}, "orders": [3]}))
    out = tmp_path / "basis"
    proc = subprocess.run(
        [sys.executable, "-m", "volspline.cli", "basis", "--config", str(basis_cfg),
         "--out", str(out), "--profile"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    profile = json.loads((out / "profile.json").read_text())
    speedup = profile["compiled_speedup_at_10n_per_interval"]

    ok = identical and speedup >= 3.0
    report(
        "criterion-8 determinism and performance",
        ok,
        f"byte-identical across thread counts {identical}, compiled speedup x{speedup:.0f} (>=3)",
        t0,
        120.0,
    )
