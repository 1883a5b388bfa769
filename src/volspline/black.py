"""Undiscounted Black-Scholes prices and robust implied-volatility inversion."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = ["black_call", "implied_vol"]

_INV_ROOT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def black_call(forward, strike, total_variance):
    """E[(S - K)+] for lognormal S with the given forward and total variance."""
    F = np.asarray(forward, dtype=float)
    K = np.asarray(strike, dtype=float)
    w = np.asarray(total_variance, dtype=float)
    intrinsic = np.maximum(F - K, 0.0)
    out = np.where(w <= 0.0, intrinsic, np.nan)
    pos = w > 0.0
    if np.any(pos):
        out = np.where(pos, _black_positive(F, K, np.log(F / K), np.sqrt(np.where(pos, w, 1.0)))[0], out)
    return float(out) if out.ndim == 0 else out


def _black_positive(F, K, log_fk, s):
    """Black call prices at total standard deviations ``s = sqrt(w) > 0``,
    given ``log(F / K)``, and their ``d1``."""
    d1 = log_fk / s + 0.5 * s
    return F * ndtr(d1) - K * ndtr(d1 - s), d1


def implied_vol(price, forward, strike, maturity, tol: float = 1e-10, max_iter: int = 200):
    """Volatility solving the call-price equation, by safeguarded Newton.

    Newton's method in volatility starts at the inflection point of the
    price in volatility, ``sqrt(2 |ln(F/K)| / T)``, from which it converges
    monotonically (Manaster and Koehler 1982); at ``K = F``, where that
    point is 0, it starts from its first step, taken in closed form.  Each
    strike keeps a bracket ``[lo, hi]``, shrunk at every price evaluation:
    ``lo`` starts at 0 and ``hi`` is unknown until a price is not below the
    quote.  A Newton step that would leave the bracket, or that is more
    than half the step before last, bisects instead; while ``hi`` is
    unknown it doubles ``lo``, starting from volatility 5.  Each step aims
    ``tol / 4`` past the root it predicts, so that the bracket closes once
    the steps are below ``tol``.  A strike stops once its bracket is no
    wider than ``tol`` and returns the bracket's midpoint, so accuracy is
    ``tol`` in volatility units.  A call makes at most ``60 + max_iter``
    price evaluations.

    Prices at or below intrinsic return 0; prices at or above the forward
    return NaN (no-arbitrage bound violated), as do NaN prices and, at
    ``maturity <= 0``, prices above intrinsic, which no volatility gives.
    Strikes at or below zero return NaN without taking their log: the
    lognormal call there is worth ``F - K`` at every volatility.
    """
    price = np.asarray(price, dtype=float)
    scalar = price.ndim == 0
    price = np.atleast_1d(price)
    F, K, T = float(forward), np.broadcast_to(np.asarray(strike, dtype=float), price.shape), float(maturity)
    at_intrinsic = price <= np.maximum(F - K, 0.0)
    # at or above the forward, a NaN price, a strike <= 0, or no time left
    nan = ~(price < F) | ~(K > 0.0) | (~at_intrinsic & (T <= 0.0))
    out = np.where(nan, np.nan, 0.0)
    live = ~(at_intrinsic | nan)
    if np.any(live):
        out[live] = _newton_vol(price[live], F, K[live], T, tol, max_iter)
    return float(out[0]) if scalar else out


def _newton_vol(p, F, K, T, tol, max_iter):
    """``implied_vol`` of prices strictly between intrinsic and the forward,
    at positive strikes and maturity.

    Iterates on ``s = vol * sqrt(T)``: Newton's method is invariant under
    that scaling, and the price needs no ``T`` beyond it.
    """
    root_t = np.sqrt(T)
    tol_s = tol * root_t
    log_fk = np.log(F / K)
    s = np.sqrt(2.0 * np.abs(log_fk))
    # at K = F the price is concave in s from 0, where it is 0 with slope F / sqrt(2 pi)
    s = np.where(s > 0.0, s, p / (F * _INV_ROOT_2PI))
    lo, hi = np.zeros_like(p), np.full_like(p, np.inf)  # hi is finite once a price there is not below the quote
    last = before = np.full_like(p, np.inf)  # sizes of the last two moves
    vega_scale = F * _INV_ROOT_2PI  # dC/ds = F phi(d1)
    # a vanishing vega makes an infinite or NaN step, which no bracket holds
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(60 + max_iter):
            c, d1 = _black_positive(F, K, log_fk, s)
            f = c - p
            np.copyto(lo, s, where=f <= 0.0)
            np.copyto(hi, s, where=f >= 0.0)
            live = hi - lo > tol_s
            if not live.any():
                break
            step = f / (vega_scale * np.exp(-0.5 * (d1 * d1)))
            # each step aims tol / 4 past the root it predicts, so that the bracket closes
            nxt = s - (step + np.copysign(0.25 * tol_s, step))
            bisect = live & ~((lo < nxt) & (nxt < hi) & (np.abs(step) <= 0.5 * before))
            if bisect.any():
                # bisect, or while hi is unknown double lo from vol 5
                np.copyto(nxt, np.where(hi < np.inf, 0.5 * (lo + hi), np.maximum(2.0 * lo, 5.0 * root_t)), where=bisect)
            before, last = last, np.abs(nxt - s)
            np.copyto(s, nxt, where=live)
    return 0.5 * (lo + hi) / root_t
