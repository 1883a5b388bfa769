"""Undiscounted Black-Scholes prices and robust implied-volatility inversion."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = ["black_call", "implied_vol"]


def black_call(forward, strike, total_variance):
    """E[(S - K)+] for lognormal S with the given forward and total variance."""
    F = np.asarray(forward, dtype=float)
    K = np.asarray(strike, dtype=float)
    w = np.asarray(total_variance, dtype=float)
    intrinsic = np.maximum(F - K, 0.0)
    out = np.where(w <= 0.0, intrinsic, np.nan)
    pos = w > 0.0
    if np.any(pos):
        out = np.where(pos, _black_positive(F, K, np.log(F / K), np.where(pos, w, 1.0)), out)
    return float(out) if out.ndim == 0 else out


def _black_positive(F, K, log_fk, w):
    """The Black call price for positive total variance ``w``, given ``log(F / K)``."""
    sq = np.sqrt(w)
    d1 = (log_fk + 0.5 * w) / sq
    d2 = d1 - sq
    return F * ndtr(d1) - K * ndtr(d2)


def implied_vol(price, forward, strike, maturity, tol: float = 1e-10, max_iter: int = 200):
    """Volatility solving the call-price equation, by safeguarded bisection.

    Prices at or below intrinsic return 0; prices at or above the forward
    return NaN (no-arbitrage bound violated).  Strikes at or below zero
    return NaN without taking their log: the lognormal call there is worth
    ``F - K`` at every volatility.  Accuracy is ``tol`` in volatility units.
    """
    price = np.asarray(price, dtype=float)
    scalar = price.ndim == 0
    price = np.atleast_1d(price)
    F, K, T = float(forward), np.broadcast_to(np.asarray(strike, dtype=float), price.shape), float(maturity)
    lo = np.zeros_like(price)
    hi = np.full_like(price, 5.0)
    intrinsic = np.maximum(F - K, 0.0)
    bad_low = price <= intrinsic + 0.0
    bad_high = price >= F
    positive = K > 0.0
    # once, for the steps with positive variances; NaN at strikes <= 0, whose prices never widen the bracket
    log_fk = np.where(positive, np.log(F / np.where(positive, K, F)), np.nan) if T > 0.0 else None

    def call_at(vol):
        w = vol**2 * T
        return _black_positive(F, K, log_fk, w) if T > 0.0 and np.all(w > 0.0) else black_call(F, K, w)

    # expand the bracket if needed
    for _ in range(60):
        too_small = call_at(hi) < price
        if not np.any(too_small):
            break
        hi = np.where(too_small, hi * 2.0, hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        val = call_at(mid)
        lo = np.where(val < price, mid, lo)
        hi = np.where(val < price, hi, mid)
        if np.max(hi - lo) <= tol:
            break
    out = 0.5 * (lo + hi)
    out = np.where(bad_low, 0.0, out)
    out = np.where(bad_high | ~positive, np.nan, out)
    return float(out[0]) if scalar else out
