"""Linear pricing forms, slice calibration and the joint surface program."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from volspline import bspline as bs, cli, opt, priors as pr, surface as sf
from volspline.black import black_call
from volspline.priors import ssvi_total_variance


def prior_quotes(prior: pr.LogNormalPrior, T, strikes, spread=1e-6):
    w = prior.total_variance * T
    quotes = [
        sf.Quote(k, black_call(prior.forward, k, w) - spread / 2, black_call(prior.forward, k, w) + spread / 2)
        for k in strikes
    ]
    return sf.MarketSlice(T, prior.forward, quotes)


def ssvi_market(params, mats_and_strikes, spread):
    out = []
    F = params.forward(1.0)
    for T, strikes in mats_and_strikes:
        qs = []
        for K in strikes:
            w = ssvi_total_variance(params, T, np.log(K / F))
            mid = black_call(F, K, w)
            qs.append(sf.Quote(K, mid - spread / 2, mid + spread / 2))
        out.append(sf.MarketSlice(T, F, qs))
    return out


def mass_and_forward(sl: sf.RNSlice) -> tuple[float, float]:
    """The reweighted prior's mass and forward, from the slice's pricing forms."""
    forms = sf.pricing_linear_forms(sl.basis, sl.measure, sl.forward)
    return forms["mass_row"] @ sl.weights, forms["forward_row"] @ sl.weights


REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def lognormal_prior():
    return pr.LogNormalPrior(100.0, 0.04)


class TestPricingForms:
    def test_identity_reweighting_reprices_prior(self, lognormal_prior):
        measure = sf.slice_measure(lognormal_prior, 1.0)
        basis = sf.make_basis(np.linspace(-0.6, 0.6, 11), 3, truncation=0)
        strikes = np.array([70.0, 90.0, 100.0, 115.0, 140.0])
        forms = sf.pricing_linear_forms(basis, measure, strikes)
        ones = np.ones(basis.dimension)
        np.testing.assert_allclose(
            forms["call_rows"] @ ones, black_call(100.0, strikes, 0.04), atol=1e-10
        )
        assert forms["mass_row"] @ ones == pytest.approx(1.0, abs=1e-12)
        assert forms["forward_row"] @ ones == pytest.approx(100.0, rel=1e-12)

    def test_deep_itm_linearization(self, lognormal_prior):
        measure = sf.slice_measure(lognormal_prior, 1.0)
        basis = sf.make_basis(np.linspace(-0.6, 0.6, 11), 3, truncation=0)
        K = 1e-6
        forms = sf.pricing_linear_forms(basis, measure, [K])
        ones = np.ones(basis.dimension)
        call = forms["call_rows"][0] @ ones
        expected = forms["forward_row"] @ ones - K * (forms["mass_row"] @ ones)
        assert call == pytest.approx(expected, rel=1e-12)

    def test_zero_strike_equals_forward(self, lognormal_prior):
        measure = sf.slice_measure(lognormal_prior, 1.0)
        basis = sf.make_basis(np.linspace(-0.6, 0.6, 11), 3, truncation=0)
        forms = sf.pricing_linear_forms(basis, measure, [0.0])
        ones = np.ones(basis.dimension)
        assert forms["call_rows"][0] @ ones == pytest.approx(100.0, rel=1e-12)

    def test_put_call_parity_rowwise(self, lognormal_prior):
        rng = np.random.default_rng(0)
        measure = sf.slice_measure(lognormal_prior, 1.0)
        basis = sf.make_basis(np.linspace(-0.6, 0.6, 11), 3, truncation=0)
        strikes = rng.uniform(60.0, 150.0, 12)
        forms = sf.pricing_linear_forms(basis, measure, strikes)
        w = rng.uniform(0.0, 2.0, basis.dimension)
        lhs = (forms["call_rows"] - forms["put_rows"]) @ w
        rhs = forms["forward_row"] @ w - strikes * (forms["mass_row"] @ w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * 100.0)

    def test_repricing_matches_numerical_integration(self, lognormal_prior):
        rng = np.random.default_rng(1)
        measure = sf.slice_measure(lognormal_prior, 1.0)
        basis = sf.make_basis(np.linspace(-0.6, 0.6, 9), 3, truncation=0)
        w = rng.uniform(0.2, 2.0, basis.dimension)
        K = 105.0
        forms = sf.pricing_linear_forms(basis, measure, [K])
        from scipy.integrate import quad
        from volspline.bspline import Spline

        spline = Spline(basis, w)

        def integrand(x):
            return (x - K) * spline(np.log(x / 100.0), method="compiled") * lognormal_prior.density(x)

        breakpoints = [100.0 * np.exp(v) for v in basis.knots.knots if v > np.log(K / 100.0)]
        ref = quad(integrand, K, 2000.0, epsabs=1e-12, limit=400, points=breakpoints)[0]
        assert forms["call_rows"][0] @ w == pytest.approx(ref, abs=1e-8)

    def test_piece_rows_follow_the_basis(self, lognormal_prior):
        # a measure keeps the rows of the last compiled basis it priced with,
        # and builds them again for another
        measure = sf.slice_measure(lognormal_prior, 1.0)
        b1 = sf.make_basis(np.linspace(-0.6, 0.6, 11), 3, truncation=0)
        b2 = sf.make_basis(np.linspace(-0.5, 0.7, 9), 3, truncation=0)
        for basis in (b1, b2, b1):
            kept = measure.piece_rows(basis.compiled())
            fresh = sf._piece_rows(basis.compiled(), measure)
            assert all(np.array_equal(a, b) for a, b in zip(kept, fresh))
            assert measure.piece_rows(basis.compiled())[0] is kept[0]
            assert not kept[0].flags.writeable


class TestSliceMeasure:
    """``slice_measure`` at maturities other than 1: variance scales with T."""

    def test_lognormal_reprices_prior_at_maturity(self, lognormal_prior):
        T = 0.4
        measure = sf.slice_measure(lognormal_prior, T, 100.0)
        basis = sf.make_basis(np.linspace(-0.5, 0.5, 11), 3, truncation=0)
        strikes = np.array([80.0, 95.0, 100.0, 108.0, 125.0])
        forms = sf.pricing_linear_forms(basis, measure, strikes)
        ones = np.ones(basis.dimension)
        np.testing.assert_allclose(forms["call_rows"] @ ones, black_call(100.0, strikes, 0.04 * T), atol=1e-10)

    def test_bachelier_reprices_prior_at_maturity(self):
        T, F, var = 1.7, 100.0, 15.0**2
        measure = sf.slice_measure(pr.BachelierPrior(90.0, var), T, F)  # centred on the slice forward
        basis = sf.make_basis(np.linspace(60.0, 140.0, 11), 3, truncation=0)
        strikes = np.array([75.0, 100.0, 130.0])
        forms = sf.pricing_linear_forms(basis, measure, strikes)
        sd = np.sqrt(var * T)
        d = (F - strikes) / sd
        bachelier = (F - strikes) * ndtr(d) + sd * np.exp(-0.5 * d * d) / np.sqrt(2.0 * np.pi)
        np.testing.assert_allclose(forms["call_rows"] @ np.ones(basis.dimension), bachelier, atol=1e-10)

    @pytest.mark.parametrize("prior", [pr.LogNormalPrior(100.0, 0.04), pr.BachelierPrior(100.0, 400.0)])
    def test_rows_equal_those_of_the_calibration(self, prior):
        quoted = pr.LogNormalPrior(100.0, 0.04)
        mkt = [prior_quotes(quoted, T, [90.0, 100.0, 110.0], spread=0.5) for T in (0.3, 1.6)]
        calib = sf.calibrate_surface(mkt, prior, sf.SurfaceConfig(n_knots=9))
        strikes = [85.0, 100.0, 120.0]
        for sl in calib.slices:
            mine = sf.pricing_linear_forms(sl.basis, sf.slice_measure(prior, sl.maturity, sl.forward), strikes)
            theirs = sf.pricing_linear_forms(sl.basis, sl.measure, strikes)
            for key in ("call_rows", "put_rows", "mass_row", "forward_row"):
                np.testing.assert_array_equal(mine[key], theirs[key])

    def test_ssvi_forward_mismatch_rejected(self):
        params = pr.SSVIParams(C=0.0, K=0.04, rho=-0.2, eta=0.5, gamma=0.5)  # forward 1 by default
        with pytest.raises(ValueError, match="forward"):
            sf.slice_measure(params, 0.5, 100.0)


class TestSurfaceCommands:
    def _config(self, tmp_path, prior, extra=None):
        quotes = []
        for T in (0.5, 1.0):
            for q in prior_quotes(pr.LogNormalPrior(100.0, 0.04), T, [85.0, 100.0, 115.0], 0.2).quotes:
                quotes.append({"maturity": T, "strike": q.strike, "bid": q.bid, "ask": q.ask})
        cfg = {"prior": prior, "forward": 100.0, "quotes": quotes, "config": {"n_knots": 9, **(extra or {})}}
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_ssvi_forward_mismatch_is_a_config_error(self, tmp_path, capsys):
        prior = {"type": "ssvi", "C": 0.0, "K": 0.04, "rho": -0.2, "eta": 0.5, "gamma": 0.5}
        cfg = self._config(tmp_path, prior)
        code = cli.main(["surface-calibrate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "forward_curve" in capsys.readouterr().err

    def test_unknown_config_field_is_a_config_error(self, tmp_path, capsys):
        cfg = self._config(tmp_path, {"type": "lognormal", "forward": 100.0, "total_variance": 0.04})
        code = cli.main(["surface-calibrate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--set", "config.n_knot=5"])
        assert code == 2
        assert "'n_knot'" in capsys.readouterr().err

    def test_validation_uses_the_calibration_config(self, tmp_path):
        prior = {"type": "lognormal", "forward": 100.0, "total_variance": 0.04}
        cfg = self._config(tmp_path, prior, {"relative_grid_size": 41})
        assert cli.main(["surface-calibrate", "--config", str(cfg), "--out", str(tmp_path / "cal")]) == 0
        doc = json.loads((tmp_path / "cal" / "surface.json").read_text())
        assert doc["config"]["relative_grid_size"] == 41 and doc["config"]["n_knots"] == 9
        assert cli._rebuild_surface(doc).relative_strike_grid.size == 41
        del doc["config"]  # files written without a config fall back to the defaults
        assert cli._rebuild_surface(doc).relative_strike_grid.size == sf.SurfaceConfig().relative_grid_size
        val = tmp_path / "validate.json"
        val.write_text(json.dumps({"surface": str(tmp_path / "cal" / "surface.json")}))
        assert cli.main(["validate-surface", "--config", str(val), "--out", str(tmp_path / "val")]) == 0

    def test_shipped_calibration_compiles_two_bases(self, tmp_path, monkeypatch):
        # one basis for every maturity, and the lower-order basis of its
        # curvature Gram; the outputs reuse the calibration's compiled form
        calls = []
        compile_basis = bs.compile_basis

        def counting(basis):
            calls.append(basis)
            return compile_basis(basis)

        monkeypatch.setattr(bs, "compile_basis", counting)
        monkeypatch.chdir(REPO)
        config = REPO / "configs" / "surface_synthetic.json"
        assert cli.main(["surface-calibrate", "--config", str(config), "--out", str(tmp_path / "cal")]) == 0
        assert len(calls) == 2


    def test_shipped_calibration_takes_the_exact_route(self, tmp_path, monkeypatch):
        # the program has no cap and its curvature P is singular, but
        # the mass and forward equalities pin its null space: P + rho A^T A
        # passes the Cholesky test and the active-set route certifies it,
        # in its known 35 working-set steps on kept factors and one LU
        # factorization of the final working set's KKT system
        tests, routes, starts, sols, lus = [], [], [], [], []
        for name, calls in (("_strict_cholesky", tests), ("_dual_active_set", routes),
                            ("_penalized_kkt_point", starts), ("solve_socp", sols), ("_kkt", lus)):
            wrapped = getattr(opt, name)
            monkeypatch.setattr(opt, name, lambda *a, f=wrapped, c=calls, **k: c.append(f(*a, **k)) or c[-1])
        monkeypatch.chdir(REPO)
        config = REPO / "configs" / "surface_synthetic.json"
        assert cli.main(["surface-calibrate", "--config", str(config), "--out", str(tmp_path / "cal")]) == 0
        assert len(tests) == 2 and tests[0] is None and tests[1] is not None
        assert len(routes) == 1 and not starts
        (sol,) = sols
        assert sol.status == "optimal" and max(sol.kkt_residuals) <= 1e-8
        assert sol.iterations == 35 and len(lus) == 1

    @pytest.mark.parametrize("prior, steps", [
        ({"type": "ssvi", "C": 0.0, "K": 0.04, "rho": -0.2, "eta": 0.5, "gamma": 0.5, "forward_curve": 100.0}, 27),
        ({"type": "bachelier", "mean": 100.0, "variance": 400.0}, 21),
    ], ids=["ssvi", "bachelier"])
    def test_shipped_programs_keep_their_working_set_path(self, prior, steps, tmp_path, monkeypatch):
        # the shipped quotes under an SSVI and a Bachelier base model: the
        # active-set route takes its known number of working-set steps on
        # kept factors, and LU-factors the KKT system once, for the final
        # working set
        lus, sols = [], []
        for name, calls in (("_kkt", lus), ("solve_socp", sols)):
            wrapped = getattr(opt, name)
            monkeypatch.setattr(opt, name, lambda *a, f=wrapped, c=calls, **k: c.append(f(*a, **k)) or c[-1])
        monkeypatch.chdir(REPO)
        doc = json.loads((REPO / "configs" / "surface_synthetic.json").read_text(encoding="utf-8"))
        config = tmp_path / "surface.json"
        config.write_text(json.dumps(dict(doc, prior=prior)), encoding="utf-8")
        assert cli.main(["surface-calibrate", "--config", str(config), "--out", str(tmp_path / "cal")]) == 0
        (sol,) = sols
        assert sol.status == "optimal" and sol.iterations == steps
        assert len(lus) == 1


class TestSliceCalibration:
    @pytest.mark.parametrize("field, value", [
        ("relative_grid_size", 0), ("curvature_weight", -1.0), ("time_smoothness_weight", -5.0), ("lsq_weight", -1.0),
    ])
    def test_config_rejects_an_empty_grid_and_negative_weights(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least"):
            sf.SurfaceConfig(**{field: value})

    def test_prior_recovery(self, lognormal_prior):
        ms = prior_quotes(lognormal_prior, 1.0, [80.0, 90.0, 100.0, 110.0, 125.0])
        sl = sf.calibrate_surface([ms], lognormal_prior, sf.SurfaceConfig(n_knots=11)).slices[0]
        assert np.abs(sl.weights - 1.0).max() <= 1e-6
        mass, forward = mass_and_forward(sl)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert forward == pytest.approx(100.0, rel=1e-8)

    def test_lsq_mode_fits_mids(self, lognormal_prior):
        params = pr.SSVIParams(C=0.0, K=0.04, rho=-0.3, eta=0.8, gamma=0.45, forward_curve=100.0)
        (ms,) = ssvi_market(params, [(1.0, [80.0, 90.0, 100.0, 110.0, 125.0])], spread=0.0)
        cfg = sf.SurfaceConfig(n_knots=13, curvature_weight=1e-9)
        sl = sf.calibrate_surface([ms], lognormal_prior, cfg, mode="lsq").slices[0]
        prices = sl.call_price([q.strike for q in ms.quotes])
        mids = np.array([q.mid for q in ms.quotes])
        assert np.abs(prices - mids).max() <= 1e-3
        # a lighter curvature weight fits strictly better
        loose_cfg = sf.SurfaceConfig(n_knots=13, curvature_weight=1e-6)
        loose = sf.calibrate_surface([ms], lognormal_prior, loose_cfg, mode="lsq").slices[0]
        loose_fit = np.abs(loose.call_price([q.strike for q in ms.quotes]) - mids).max()
        assert np.abs(prices - mids).max() <= loose_fit + 1e-12

    def test_bracket_mode_within_bid_ask(self, lognormal_prior):
        params = pr.SSVIParams(C=0.0, K=0.04, rho=-0.3, eta=0.8, gamma=0.45, forward_curve=100.0)
        (ms,) = ssvi_market(params, [(1.0, [75.0, 90.0, 100.0, 112.0, 130.0])], spread=0.1)
        sl = sf.calibrate_surface([ms], lognormal_prior, sf.SurfaceConfig(n_knots=13)).slices[0]
        prices = sl.call_price([q.strike for q in ms.quotes])
        for q, p in zip(ms.quotes, prices):
            assert q.bid - 1e-7 <= p <= q.ask + 1e-7
        assert min(sl.weights) >= -1e-9

    def test_stalled_calibration_raises(self, lognormal_prior, stall_solver):
        ms = prior_quotes(lognormal_prior, 1.0, [80.0, 90.0, 100.0, 110.0, 125.0], spread=0.05)
        cfg = sf.SurfaceConfig(n_knots=11)
        sf.calibrate_surface([ms], lognormal_prior, cfg)  # optimal before the stall
        stalled = stall_solver()
        with pytest.raises(opt.OptError, match=stalled) as exc:
            sf.calibrate_surface([ms], lognormal_prior, cfg)
        assert exc.type is opt.OptError

    def test_infeasible_brackets_reported(self, lognormal_prior):
        # quotes violating convexity cannot be matched by any density
        qs = [sf.Quote(90.0, 12.0, 12.01), sf.Quote(100.0, 2.0, 2.01), sf.Quote(110.0, 1.5, 1.6)]
        ms = sf.MarketSlice(1.0, 100.0, qs)
        with pytest.raises(opt.InfeasibleError):
            sf.calibrate_surface([ms], lognormal_prior, sf.SurfaceConfig(n_knots=11)).slices[0]


class TestCalendar:
    def test_row_count(self, lognormal_prior):
        mats = [0.5, 1.0]
        basis = sf.make_basis(np.linspace(-0.5, 0.5, 9), 3, truncation=0)
        measures = [
            sf.GaussianCoordMeasure(pr.BachelierPrior(-0.02 * t, 0.04 * t), 100.0, "exp") for t in mats
        ]
        rel = np.exp(np.linspace(-0.4, 0.4, 21))
        cs = sf.calendar_constraints(basis, measures, [100.0, 100.0], rel)
        assert cs.ineq_rows.shape[0] == 2 * 21 + 4  # one maturity pair

    def test_identical_slices_satisfy_rows(self, lognormal_prior):
        mats = [0.5, 1.0]
        basis = sf.make_basis(np.linspace(-0.5, 0.5, 9), 3, truncation=0)
        measures = [
            sf.GaussianCoordMeasure(pr.BachelierPrior(-0.02 * t, 0.04 * t), 100.0, "exp") for t in mats
        ]
        rel = np.exp(np.linspace(-0.4, 0.4, 21))
        cs = sf.calendar_constraints(basis, measures, [100.0, 100.0], rel)
        w = np.ones(len(mats) * basis.dimension)
        viol = cs.violations(w)
        assert all(v <= 1e-10 for v in viol.values())

    def test_decreasing_variance_infeasible(self):
        # total variance shrinking with maturity has calendar arbitrage
        ln1 = pr.LogNormalPrior(100.0, 0.09)
        slices = []
        for T, wv in ((0.5, 0.06), (1.0, 0.03)):
            Ks = [85.0, 100.0, 115.0]
            qs = [sf.Quote(k, black_call(100.0, k, wv) - 1e-4, black_call(100.0, k, wv) + 1e-4) for k in Ks]
            slices.append(sf.MarketSlice(T, 100.0, qs))
        families = "|".join(("bid-ask", "calendar-fine-grid", "calendar-wing"))
        with pytest.raises(opt.InfeasibleError, match=rf"most violated family: ({families}) \(\d"):
            sf.calibrate_surface(slices, ln1, sf.SurfaceConfig(n_knots=9))


class TestJointSurface:
    def test_single_slice_matches_dedicated_path(self, lognormal_prior):
        ms = prior_quotes(lognormal_prior, 1.0, [85.0, 100.0, 115.0], spread=0.01)
        one = sf.calibrate_surface([ms], lognormal_prior, sf.SurfaceConfig(n_knots=9)).slices[0]
        joint = sf.calibrate_surface([ms], lognormal_prior, sf.SurfaceConfig(n_knots=9))
        np.testing.assert_allclose(one.weights, joint.slices[0].weights, atol=1e-8)

    def test_sparse_quotes_with_empty_maturity(self, lognormal_prior):
        params = pr.SSVIParams(C=0.0, K=0.04, rho=-0.3, eta=0.8, gamma=0.45, forward_curve=100.0)
        market = ssvi_market(
            params,
            [(0.25, [85.0, 95.0, 100.0, 105.0, 115.0]), (0.5, [80.0, 95.0, 100.0, 110.0, 120.0]),
             (1.0, [70.0, 90.0, 100.0, 115.0, 135.0])],
            spread=0.1,
        )
        market.insert(2, sf.MarketSlice(0.75, 100.0))
        calib = sf.calibrate_surface(market, lognormal_prior, sf.SurfaceConfig(n_knots=13, time_smoothness_weight=1e-3))
        for sl, msl in zip(calib.slices, market):
            mass, forward = mass_and_forward(sl)
            assert abs(mass - 1.0) <= 1e-8
            assert abs(forward - msl.forward) / msl.forward <= 1e-8
            prices = sl.call_price([q.strike for q in msl.quotes]) if msl.quotes else []
            for q, p in zip(msl.quotes, prices):
                assert q.bid - 1e-7 <= p <= q.ask + 1e-7
        report = sf.validate(calib)
        assert report.passed, str(report)

    def test_slices_share_one_basis(self, lognormal_prior):
        market = [prior_quotes(lognormal_prior, T, [85.0, 100.0, 115.0], spread=0.01) for T in (0.5, 0.75, 1.0)]
        calib = sf.calibrate_surface(market, lognormal_prior, sf.SurfaceConfig(n_knots=9))
        assert all(sl.basis is calib.slices[0].basis for sl in calib.slices)

    def test_ssvi_prior_roundtrip(self):
        market_params = pr.SSVIParams(C=0.001, K=0.042, rho=-0.5, eta=1.2, gamma=0.4, forward_curve=100.0)
        prior_params = pr.SSVIParams(C=0.0, K=0.045, rho=-0.45, eta=1.1, gamma=0.4, forward_curve=100.0)
        market = ssvi_market(
            market_params, [(0.5, [80.0, 95.0, 100.0, 110.0, 120.0]), (1.0, [70.0, 90.0, 100.0, 115.0, 135.0])],
            spread=0.08,
        )
        calib = sf.calibrate_surface(market, prior_params, sf.SurfaceConfig(n_knots=11, time_smoothness_weight=0.0))
        report = sf.validate(calib)
        assert report.passed, str(report)

    def test_bachelier_prior_price_space(self):
        prior = pr.BachelierPrior(100.0, 15.0**2)  # variance rate in price^2/yr
        Ks = [85.0, 95.0, 100.0, 105.0, 115.0]
        slices = []
        for T in (0.5, 1.0):
            law = pr.BachelierPrior(100.0, 15.0**2 * T)
            qs = []
            for K in Ks:
                mid = law.moment_table(K, np.inf, K, 1)[1]
                qs.append(sf.Quote(K, mid - 0.05, mid + 0.05))
            slices.append(sf.MarketSlice(T, 100.0, qs))
        calib = sf.calibrate_surface(slices, prior, sf.SurfaceConfig(n_knots=11))
        for sl in calib.slices:
            assert abs(mass_and_forward(sl)[0] - 1.0) <= 1e-8
            assert np.abs(sl.weights - 1.0).max() <= 1e-5  # the prior reprices itself


class TestValidation:
    def test_prior_surface_passes(self, lognormal_prior):
        mkt = [prior_quotes(lognormal_prior, T, [80.0, 90.0, 100.0, 110.0, 125.0]) for T in (0.5, 1.0)]
        calib = sf.calibrate_surface(mkt, lognormal_prior, sf.SurfaceConfig(n_knots=11))
        report = sf.validate(calib)
        assert report.passed, str(report)

    def test_each_slice_priced_once_at_relative_strikes(self, lognormal_prior, monkeypatch):
        # an interior slice is the later slice of one calendar pair and the
        # earlier of the next; one tail build at its relative strikes gives
        # its prices for both pairs and its slopes
        mkt = [prior_quotes(lognormal_prior, T, [80.0, 100.0, 125.0]) for T in (0.5, 1.0, 1.5)]
        calib = sf.calibrate_surface(mkt, lognormal_prior, sf.SurfaceConfig(n_knots=9))
        at_rel = {id(sl.measure): (sl.maturity, sl.forward * calib.relative_strike_grid) for sl in calib.slices}
        built = []
        tail_rows = sf._tail_rows

        def counting(cb, measure, strikes):
            T, rel_strikes = at_rel[id(measure)]
            if np.array_equal(strikes, rel_strikes):
                built.append(T)
            return tail_rows(cb, measure, strikes)

        monkeypatch.setattr(sf, "_tail_rows", counting)
        assert sf.validate(calib).passed
        assert built == [0.5, 1.0, 1.5]

    def test_each_slice_integrated_once(self, monkeypatch):
        # the composite grid's full node set is weighted once per slice, one
        # density evaluation for both weights (density, spot times density),
        # and the whole-line piece rows
        # are built once per basis and measure, for the calibration, its
        # grid pricing and validate together
        params = pr.SSVIParams(C=0.0, K=0.04, rho=-0.2, eta=0.5, gamma=0.5, forward_curve=100.0)
        mats = (0.25, 0.5, 0.75, 1.0)
        mkt = ssvi_market(params, [(T, [85.0, 100.0, 115.0]) for T in mats], spread=0.05)
        full_grids, pieces = [], []
        density, piece_rows = pr.ssvi_logm_density, sf._piece_rows

        def counting_density(p, t, k):
            if np.shape(k) == (pr._SSVI_CELLS, pr._SSVI_NODES):
                full_grids.append(t)
            return density(p, t, k)

        def counting_pieces(cb, measure):
            pieces.append((id(cb), id(measure)))
            return piece_rows(cb, measure)

        monkeypatch.setattr(pr, "ssvi_logm_density", counting_density)
        monkeypatch.setattr(sf, "_piece_rows", counting_pieces)
        calib = sf.calibrate_surface(mkt, params, sf.SurfaceConfig(n_knots=9))
        for sl in calib.slices:
            g = sl.basis.knots.knots
            sl.call_price(sl.measure.spot_of_coord(np.linspace(g[0], g[-1], 101)))
        assert sf.validate(calib).passed
        assert sorted(full_grids) == sorted(mats)
        cb = calib.slices[0].basis.compiled()
        assert sorted(pieces) == sorted((id(cb), id(sl.measure)) for sl in calib.slices)

    def test_tangent_chord_margin_is_the_bracket_loop(self, lognormal_prior):
        # the vectorized tangent-chord margin equals, bit for bit, the
        # scalar loop over brackets it replaced
        mkt = [prior_quotes(lognormal_prior, T, [80.0, 100.0, 125.0], spread=0.02) for T in (0.5, 0.75, 1.0)]
        calib = sf.calibrate_surface(mkt, lognormal_prior, sf.SurfaceConfig(n_knots=9))
        rel = calib.relative_strike_grid
        calls, slopes = [], []
        for sl in calib.slices:
            K = rel * sl.forward
            mass_tails, spot_tails = sf._tail_rows(sl.basis.compiled(), sl.measure, K)[2:]
            calls.append((spot_tails - K[:, None] * mass_tails) @ sl.weights)
            slopes.append(-mass_tails @ sl.weights * sl.forward)
        worst = np.inf
        for c1, c2, s in zip(calls, calls[1:], slopes[1:]):
            for i in range(rel.size - 1):
                x0, x1, s_lo, s_hi = rel[i], rel[i + 1], s[i], s[i + 1]
                if s_hi - s_lo <= 1e-14 * max(abs(s_lo), 1.0):
                    xstar = 0.5 * (x0 + x1)
                else:
                    xstar = min(max((c2[i + 1] - c2[i] + s_lo * x0 - s_hi * x1) / (s_lo - s_hi), x0), x1)
                cu = c2[i] + s_lo * (xstar - x0)
                cd = c1[i] + (c1[i + 1] - c1[i]) * (xstar - x0) / (x1 - x0)
                worst = min(worst, float(cu - cd))
        (margin,) = [m for name, _, m, _ in sf.validate(calib).checks if name == "tangent-chord calendar condition"]
        assert np.isfinite(worst) and margin == worst

    def test_violating_weights_flagged(self, lognormal_prior):
        ms = prior_quotes(lognormal_prior, 1.0, [90.0, 100.0, 110.0])
        sl = sf.calibrate_surface([ms], lognormal_prior, sf.SurfaceConfig(n_knots=9)).slices[0]
        # corrupt the weights: a negative loading breaks convexity/density
        bad = sl.weights.copy()
        bad[4] = -1.0
        broken = sf.RNSlice(sl.basis, bad, sl.maturity, sl.forward, sl.measure)
        calib = sf.SurfaceCalibration((broken,), sf.SurfaceConfig(n_knots=9))
        report = sf.validate(calib)
        assert not report.passed
        failing = {name for name, ok, _, req in report.checks if req and not ok}
        assert "density nonnegative" in failing or "call convexity in strike" in failing
