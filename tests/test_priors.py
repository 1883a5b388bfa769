"""Moment tables, densities and arbitrage checks of the base models."""

import numpy as np
import pytest
from scipy.integrate import quad

from volspline import priors as pr


class TestBachelier:
    def test_total_mass(self):
        p = pr.BachelierPrior(0.3, 2.0)
        assert p.moment_table(-np.inf, np.inf, 0.0, 0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_halfline_first_moment(self):
        p = pr.BachelierPrior(0.0, 1.0)
        assert p.moment_table(0.0, np.inf, 0.0, 1)[1] == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(0)
        p = pr.BachelierPrior(0.4, 1.3)
        for _ in range(60):
            a, b = np.sort(rng.uniform(-3, 4, 2))
            n = int(rng.integers(0, 5))
            ref = quad(lambda x: x**n * p.density(x), a, b, epsabs=1e-13)[0]
            assert p.moment_table(a, b, 0.0, n)[n] == pytest.approx(ref, abs=1e-9)

    def test_additive_over_intervals(self):
        p = pr.BachelierPrior(0.0, 1.0)
        for n in range(5):
            total = p.moment_table(-1.0, 2.0, 0.0, n)[n]
            split = p.moment_table(-1.0, 0.3, 0.0, n)[n] + p.moment_table(0.3, 2.0, 0.0, n)[n]
            assert total == pytest.approx(split, abs=1e-12)

    def test_shifted_moment(self):
        p = pr.BachelierPrior(1.0, 0.5)
        direct = quad(lambda x: (x - 0.7) ** 3 * p.density(x), -3, 4, epsabs=1e-13)[0]
        assert p.moment_table(-3, 4, 0.7, 3)[3] == pytest.approx(direct, abs=1e-10)

    def test_tilt_identity(self):
        p = pr.BachelierPrior(0.2, 0.8)
        factor, tilted = p.tilted(1.0)
        ref = quad(lambda x: np.exp(x) * x**2 * p.density(x), -8, 8, epsabs=1e-12)[0]
        val = factor * tilted.moment_table(-8, 8, 0.0, 2)[2]
        assert val == pytest.approx(ref, rel=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(pr.PriorError):
            pr.BachelierPrior(0.0, -1.0)
        with pytest.raises(pr.PriorError):
            pr.BachelierPrior(0.0, 1.0).moment_table(2.0, 1.0, 0.0, 0)


class TestLogNormal:
    """Through the Gaussian law of k = log(S / F), as surfaces integrate it:
    S^n = F^n e^(n k), the law's tilt by n."""

    def test_martingale_normalization(self):
        law = pr.LogNormalPrior(100.0, 0.09).log_law()
        assert law.moment_table(-np.inf, np.inf, 0.0, 0)[0] == pytest.approx(1.0, abs=1e-12)
        factor, tilted = law.tilted(1.0)
        assert 100.0 * factor * tilted.moment_table(-np.inf, np.inf, 0.0, 0)[0] == pytest.approx(100.0, rel=1e-12)

    def test_second_moment(self):
        factor, tilted = pr.LogNormalPrior(2.0, 0.2).log_law().tilted(2.0)
        second = 4.0 * factor * tilted.moment_table(-np.inf, np.inf, 0.0, 0)[0]
        assert second == pytest.approx(4.0 * np.exp(0.2), rel=1e-12)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(1)
        p = pr.LogNormalPrior(1.2, 0.3)
        for _ in range(60):
            a, b = np.sort(rng.uniform(0.2, 4.0, 2))
            n = int(rng.integers(0, 5))
            ref = quad(lambda x: x**n * p.density(x), a, b, epsabs=1e-13)[0]
            factor, tilted = p.log_law().tilted(float(n))
            mass = tilted.moment_table(np.log(a / p.forward), np.log(b / p.forward), 0.0, 0)[0]
            assert p.forward**n * factor * mass == pytest.approx(ref, abs=1e-9)

    def test_degenerate_point_mass(self):
        p = pr.LogNormalPrior(3.0, 0.0)
        law = p.log_law()  # an atom at k = 0, that is at S = F
        assert law.moment_table(-np.inf, np.inf, 0.0, 1).tolist() == [1.0, 0.0]
        assert law.moment_table(-np.inf, np.log(2.9 / 3.0), 0.0, 0)[0] == 0.0
        with pytest.raises(pr.PriorError):
            p.density(3.0)


class TestSSVI:
    @pytest.fixture
    def fig_params(self):
        return pr.SSVIParams(C=0.0, K=0.019, rho=-0.55, eta=2.72, gamma=0.25, forward_curve=100.0)

    def test_atm_total_variance(self, fig_params):
        # at zero log-moneyness the root collapses to 1
        assert pr.ssvi_total_variance(fig_params, 1.0, 0.0) == pytest.approx(0.019, abs=1e-15)

    def test_symmetric_when_uncorrelated(self):
        p = pr.SSVIParams(C=0.01, K=0.02, rho=0.0, eta=1.0, gamma=0.5)
        assert pr.ssvi_total_variance(p, 1.0, 0.3) == pytest.approx(
            pr.ssvi_total_variance(p, 1.0, -0.3), rel=1e-14
        )

    def test_butterfly_value_at_theta(self, fig_params):
        theta = 0.038
        val = theta * fig_params.phi(theta) * (1 + abs(fig_params.rho))
        assert val == pytest.approx(2.72 * 0.038**0.75 * 1.55, rel=1e-12)
        assert val < 4.0

    def test_validation_report(self, fig_params):
        rep = pr.validate_ssvi(fig_params, (0.05, 2.0))
        assert rep.passed
        # skew-slope identity of the power-law parameterization
        theta = 0.5
        d = (1 - fig_params.gamma) * fig_params.eta * theta ** (-fig_params.gamma)
        h = 1e-6
        fd = ((theta + h) * fig_params.phi(theta + h) - (theta - h) * fig_params.phi(theta - h)) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-6)

    def test_density_normalization_and_mean(self, fig_params):
        # in log-moneyness: mass 1 over the whole line, and the spot-weighted mass is the forward
        sl = pr.SSVISlice(fig_params, 1.0)
        assert sl.log_moment_table(-np.inf, np.inf, 0.0, 0)[0] == pytest.approx(1.0, abs=1e-6)
        assert sl.log_moment_table(-np.inf, np.inf, 0.0, 0, spot=True)[0] == pytest.approx(100.0, rel=1e-6)

    def test_density_matches_price_curvature(self, fig_params):
        from volspline.black import black_call

        sl = pr.SSVISlice(fig_params, 1.0)
        K, h = 105.0, 0.05

        def call(k):
            w = pr.ssvi_total_variance(fig_params, 1.0, np.log(k / 100.0))
            return black_call(100.0, k, w)

        fd = (call(K + h) - 2 * call(K) + call(K - h)) / h**2
        assert sl.density(K) == pytest.approx(fd, rel=1e-5)

    def test_flat_limit_degenerates_to_lognormal(self):
        p = pr.SSVIParams(C=0.0, K=0.04, rho=-0.5, eta=1e-8, gamma=0.5, forward_curve=1.0)
        sl = pr.SSVISlice(p, 1.0)
        ln = pr.LogNormalPrior(1.0, 0.04)
        xs = np.linspace(0.7, 1.4, 9)
        np.testing.assert_allclose(sl.density(xs), ln.density(xs), atol=1e-7)

    def test_parameter_validation(self):
        with pytest.raises(pr.PriorError):
            pr.SSVIParams(C=0.0, K=0.02, rho=1.5, eta=1.0, gamma=0.5)
        with pytest.raises(pr.PriorError):
            pr.SSVIParams(C=0.0, K=0.02, rho=0.0, eta=1.0, gamma=1.5)

    def test_additivity(self, fig_params):
        # the spot-weighted mass over strikes [80, 120] = [80, 97] + [97, 120], in k = log(K / F)
        sl = pr.SSVISlice(fig_params, 0.5)
        k80, k97, k120 = np.log(np.array([80.0, 97.0, 120.0]) / sl.forward)
        whole = sl.log_moment_table(k80, k120, 0.0, 0, spot=True)[0]
        parts = sum(sl.log_moment_table(a, b, 0.0, 0, spot=True)[0] for a, b in ((k80, k97), (k97, k120)))
        assert whole == pytest.approx(parts, rel=1e-9)


class TestAdaptiveQuad:
    def test_smooth_integral(self):
        val = pr.adaptive_quad(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 2.0, 1e-12)
        ref = quad(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 2.0, epsabs=1e-14)[0]
        assert val == pytest.approx(ref, abs=1e-11)

    def test_peaked_integral(self):
        val = pr.adaptive_quad(lambda x: np.exp(-200 * (x - 0.3) ** 2), 0.0, 1.0, 1e-12)
        ref = np.sqrt(np.pi / 200)
        assert val == pytest.approx(ref, rel=1e-9)


class TestJSON:
    def test_round_trip(self):
        p = pr.prior_from_json({"type": "bachelier", "mean": 1.0, "variance": 2.0})
        assert isinstance(p, pr.BachelierPrior)
        p = pr.prior_from_json({"type": "lognormal", "forward": 10.0, "total_variance": 0.1})
        assert isinstance(p, pr.LogNormalPrior)
        p = pr.prior_from_json(
            {"type": "ssvi", "C": 0.0, "K": 0.02, "rho": -0.5, "eta": 1.0, "gamma": 0.4,
             "forward_curve": [[0.5, 100.0], [1.0, 101.0]]}
        )
        assert isinstance(p, pr.SSVIParams)
        assert p.forward(0.75) == pytest.approx(100.5)
        with pytest.raises(pr.PriorError):
            pr.prior_from_json({"type": "student"})
