"""Black prices and the implied-volatility inversion: accuracy wherever the
price pins the volatility, the edge cases, and its price evaluations."""

from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from volspline import black, cli
from volspline.black import black_call, implied_vol

REPO = Path(__file__).resolve().parents[1]
TOL = 1e-10
EPS = np.finfo(float).eps


@settings(derandomize=True, deadline=None, max_examples=300)
@given(F=st.floats(1.0, 1000.0), T=st.floats(0.004, 10.0), vol=st.floats(0.01, 3.0), z=st.floats(-6.0, 6.0))
def test_implied_vol_recovers_the_volatility_of_a_black_price(F, T, vol, z):
    """Within tol of the volatility wherever vega pins it; everywhere, a
    volatility whose price brackets the quote over +-tol (to the rounding
    of a price, a few ulps of F); and each strike's result independent of
    the others in its call, edge cases among them."""
    sd = vol * np.sqrt(T)
    K = F * np.exp(z * sd)
    price = black_call(F, K, sd * sd)
    v = implied_vol(price, F, K, T)
    if not price < F:  # far in the money at a large deviation the price rounds to the forward
        assert np.isnan(v)
        return
    noise = 16.0 * EPS * F
    assert np.isfinite(v) and v >= 0.0
    assert black_call(F, K, max(v - TOL, 0.0) ** 2 * T) <= price + noise
    assert black_call(F, K, (v + TOL) ** 2 * T) >= price - noise
    d1 = np.log(F / K) / sd + 0.5 * sd
    vega = F * np.exp(-0.5 * d1 * d1) / np.sqrt(2.0 * np.pi) * np.sqrt(T)
    if vega * TOL >= 4.0 * noise:  # a price error of `noise` moves the root by at most tol / 4
        assert abs(v - vol) <= TOL
    intrinsic = max(F - K, 0.0)
    batch = implied_vol(
        np.array([intrinsic, price, F, 1.5 * F, np.nan, price, price]), F, np.array([K, K, K, K, K, 0.0, -K]), T
    )
    assert batch[0] == 0.0 and batch[1] == v
    assert np.isnan(batch[2:]).all()


def test_a_nan_price_is_nan():
    assert np.isnan(implied_vol(np.nan, 100.0, 100.0, 1.0))
    vols = implied_vol(np.array([np.nan, 8.0]), 100.0, 100.0, 1.0)
    assert np.isnan(vols[0]) and vols[1] == implied_vol(8.0, 100.0, 100.0, 1.0)


def test_no_volatility_gives_a_price_above_intrinsic_at_zero_maturity():
    assert np.isnan(implied_vol(10.0, 100.0, 100.0, 0.0))
    assert np.isnan(implied_vol(10.0, 100.0, 95.0, -1.0))
    # at or below intrinsic the answer is still 0
    assert implied_vol(5.0, 100.0, 95.0, 0.0) == 0.0
    assert implied_vol(0.0, 100.0, 110.0, 0.0) == 0.0


def test_price_evaluations_of_the_shipped_grids(tmp_path, monkeypatch):
    # the four grids.csv inversions of the shipped lognormal surface, 101
    # strikes each, evaluate prices at most 60 times together (bisection to
    # tol took 37 a call)
    counts, calls, black_price, invert = [], [], black._black_positive, cli.implied_vol

    def counting(*args):
        counts[-1] += 1
        return black_price(*args)

    def recording(price, forward, strike, maturity):
        counts.append(0)
        vols = invert(price, forward, strike, maturity)
        calls.append((price, forward, strike, maturity, vols))
        return vols

    monkeypatch.setattr(black, "_black_positive", counting)
    monkeypatch.setattr(cli, "implied_vol", recording)
    argv = ["surface-calibrate", "--config", str(REPO / "configs" / "surface_synthetic.json"), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len(counts) == 4 and sum(counts) <= 60, counts
    for price, forward, strike, maturity, vols in calls:
        assert price.shape == (101,) and np.all(vols > 0.0)
        tight = implied_vol(price, forward, strike, maturity, tol=1e-14)
        assert np.abs(vols - tight).max() <= TOL
