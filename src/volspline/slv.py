"""Particle calibration of the leverage function in a stochastic local
volatility model with exponential-OU stochastic volatility.

The spot follows ``dS = a_t l(t, S) dW`` with ``a_t = a0 exp(U_t)`` and
``dU = -theta U dt + nu dW_sigma``, correlated with the spot noise.  The
target smile is flat lognormal, so the local volatility is ``sigma_bs x``
(normal units) and the marginal of the spot at each date is known in
closed form.  Each time step regresses the squared volatility on log-spot
with a penalized, optionally constrained B-spline and divides it into the
local volatility.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import comb

import numpy as np

from volspline import regression as rg
from volspline.black import implied_vol
from volspline.bspline import CompiledBasis, PiecewisePoly, make_basis, moment_rows, weighted_gram
from volspline.priors import BachelierPrior

__all__ = [
    "ScottParams",
    "ConstraintFlags",
    "LeverageSlice",
    "LeverageSurface",
    "ou_step_exact",
    "forward_variance",
    "fourth_moment",
    "calibrate_leverage",
    "conditional_variance_distance",
    "reprice_and_implied",
]


@dataclass(frozen=True)
class ScottParams:
    s0: float
    a0: float
    theta: float
    nu: float
    rho: float
    sigma_bs: float

    def __post_init__(self) -> None:
        # an integer s0 would make the particle spots an integer array
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        if min(self.s0, self.a0, self.theta, self.sigma_bs) <= 0.0 or self.nu < 0.0:
            raise ValueError("s0, a0, theta, sigma_bs must be positive and nu nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")


@dataclass(frozen=True)
class ConstraintFlags:
    """Which marginal-compatibility constraints enter each regression."""

    forward_variance_eq: bool = True  # integral equality pinning E[a_t^2]
    nonnegative: bool = True
    quadratic_cap: bool = False  # second-moment cone row from E[a_t^4]


def forward_variance(p: ScottParams, t: float) -> float:
    """E[a_t^2] for the exponential-OU volatility started at its mean."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if p.nu == 0.0 or t == 0.0:
        return p.a0**2
    return float(p.a0**2 * np.exp(p.nu**2 / p.theta * (1.0 - np.exp(-2.0 * p.theta * t))))


def fourth_moment(p: ScottParams, t: float) -> float:
    """E[a_t^4]; a_t^2 is lognormal so this is exp(8 Var U_t) times a0^4."""
    var_u = p.nu**2 * (1.0 - np.exp(-2.0 * p.theta * t)) / (2.0 * p.theta) if t > 0 else 0.0
    return float(p.a0**4 * np.exp(8.0 * var_u))


def _ou_cov(p: ScottParams, dt: float) -> tuple[float, float]:
    """Covariance entries of (int e^{theta(u-t')} dW_sigma, dW)."""
    v11 = (1.0 - np.exp(-2.0 * p.theta * dt)) / (2.0 * p.theta)
    v12 = p.rho * (1.0 - np.exp(-p.theta * dt)) / p.theta
    return float(v11), float(v12)


def ou_step_exact(u: np.ndarray, dt: float, p: ScottParams, normals: np.ndarray):
    """Advance the OU state exactly and return the correlated spot increment.

    ``normals`` holds two independent standard normal rows.  The pair
    (stochastic integral, Brownian increment) is Gaussian with covariance
    [[(1-e^{-2 theta dt})/(2 theta), rho (1-e^{-theta dt})/theta],
     [ ..., dt]], so the update has the exact transition law for any dt.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    v11, v12 = _ou_cov(p, dt)
    z0, z1 = normals
    # three path-sized arrays: dw, one buffer for the second term of dw and
    # then nu * integ, and u_new.  u_new, which outlives the call, is made
    # last: glibc hands free memory at the top of the heap back to the
    # system, so a buffer freed above it would be faulted in again on every
    # date (about 12x the minor page faults of a 2^17-path simulate_terminal)
    resid = dt - v12**2 / v11
    dw = np.multiply(z0, v12 / np.sqrt(v11))
    term = np.multiply(z1, np.sqrt(max(resid, 0.0)))
    dw += term
    integ = np.multiply(z0, np.sqrt(v11), out=term)
    integ *= p.nu
    u_new = u * np.exp(-p.theta * dt)
    u_new += integ
    return u_new, dw


@dataclass(frozen=True)
class LeverageSlice:
    """Calibrated conditional variance at one date, in log-spot coordinates."""

    t: float
    cond_var: PiecewisePoly
    floor: float
    sigma_bs: float

    def conditional_variance(self, spots):
        vals = self.cond_var(np.log(np.asarray(spots, dtype=float)))
        # the values are a fresh array (or a float): floor them in place
        return np.maximum(vals, self.floor, out=vals if np.ndim(vals) else None)

    def leverage(self, spots):
        spots = np.asarray(spots, dtype=float)
        cv = self.conditional_variance(spots)
        lev = self.sigma_bs * spots
        lev /= np.sqrt(cv, out=cv if np.ndim(cv) else None)
        return lev


@dataclass(frozen=True)
class LeverageSurface:
    times: np.ndarray
    slices: tuple[LeverageSlice, ...]
    params: ScottParams

    def __post_init__(self) -> None:
        if len(self.slices) != np.asarray(self.times).size:
            raise ValueError("one slice per time-grid point is required")

    def leverage(self, k: int, spots):
        return self.slices[k].leverage(spots)


def _constant_slice(t: float, value: float, sigma_bs: float) -> LeverageSlice:
    pp = PiecewisePoly(np.zeros(0), np.zeros(1), np.array([[value]]))
    return LeverageSlice(t=t, cond_var=pp, floor=1e-10 * value, sigma_bs=sigma_bs)


def _step_rng(seed: int, stream: str, step: int) -> np.random.Generator:
    # crc32 gives a process-independent stream id (str hash is randomized)
    from zlib import crc32

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(crc32(stream.encode()), step))
    return np.random.Generator(np.random.Philox(ss))


def _particle_step(s, u, dt: float, p: ScottParams, normals, leverage: LeverageSlice):
    """Move the spots ``s`` one date in place, by an Euler step with the
    slice's leverage, and floor them at ``1e-8 s0``; return the OU state
    advanced exactly."""
    # in place, one particle-sized array at a time: the caller still holds
    # the old u, and each extra array raises the repricing's peak memory
    step = p.a0 * np.exp(u)
    step *= leverage.leverage(s)
    u, dw = ou_step_exact(u, dt, p, normals)
    step *= dw
    s += step
    np.maximum(s, 1e-8 * p.s0, out=s)
    return u


def _spot_marginal_log(p: ScottParams, t: float) -> BachelierPrior:
    """Law of log S_t under the flat target smile (exact lognormal marginal)."""
    w = p.sigma_bs**2 * t
    return BachelierPrior(np.log(p.s0) - 0.5 * w, w)


def calibrate_leverage(
    p: ScottParams,
    time_grid,
    n_particles: int,
    seed: int = 0,
    n_knots: int = 20,
    order: int = 2,
    truncation: int = 1,
    penalty_order: int = 2,
    tikhonov_constant: float = 1.0,
    flags: ConstraintFlags = ConstraintFlags(),
    knot_halfwidth_stds: float = 2.5,
) -> LeverageSurface:
    """Run the forward particle calibration over the time grid.

    Knots are re-derived from the ensemble at each date: evenly spaced in
    log-spot across ``knot_halfwidth_stds`` sample standard deviations on
    both sides of the forward.  Each date moves the particles with the
    leverage of the previous date's slice, the step ``simulate_terminal``
    takes.

    Evenly spaced knots are an affine image ``g0 + h * j`` of the unit
    grid ``j = 0 .. n_knots - 1``, so one unit basis and its penalty Gram
    are built once: each date maps the compiled basis
    (``CompiledBasis.affine_image``) and scales the Gram by ``h^(1 - 2p)``.
    The sample's normal equations come from its moment table
    (``regression.design_system``).
    """
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size < 2 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("time grid must start at 0 and increase")
    if n_particles < 100:
        raise ValueError("particle count too small")

    unit = make_basis(np.arange(n_knots, dtype=float), order, truncation)
    cfg = rg.RegressionConfig(unit, penalty_order=penalty_order, tikhonov_constant=tikhonov_constant)
    unit_cb = unit.compiled()
    unit_penalty = rg.penalty_matrix(cfg)

    s = np.full(n_particles, p.s0)
    u = np.zeros(n_particles)
    slices: list[LeverageSlice] = [_constant_slice(0.0, p.a0**2, p.sigma_bs)]

    for k in range(times.size - 1):
        t0, t1 = times[k], times[k + 1]
        rng = _step_rng(seed, "calibrate", k)
        u = _particle_step(s, u, t1 - t0, p, rng.standard_normal((2, n_particles)), slices[-1])

        a_sq = p.a0**2 * np.exp(2.0 * u)
        x = np.log(s)
        std = float(np.std(x))
        # the knots np.linspace(g0, g1, n_knots), up to the rounding of the last
        center = np.log(p.s0)
        g0, g1 = center - knot_halfwidth_stds * std, center + knot_halfwidth_stds * std
        h = (g1 - g0) / (n_knots - 1) if n_knots > 1 else 1.0
        cb = unit_cb.affine_image(g0, h)
        sample = rg.Sample(x, a_sq)
        lam = rg.tikhonov_factor(sample, cfg)
        V, c = rg.design_system(sample, cb)
        R = h ** (1 - 2 * penalty_order) * unit_penalty

        cs = rg.ConstraintSet(unit.dimension)
        marginal = _spot_marginal_log(p, t1)
        if flags.forward_variance_eq:
            cs.add_eq(moment_rows(cb, marginal), forward_variance(p, t1), "forward-variance")
        if flags.nonnegative:
            cs.add_ineq_rows(np.eye(unit.dimension), 0.0, "nonnegative")
        if flags.quadratic_cap:
            rg.add_second_moment_cap(cs, cb, marginal, fourth_moment(p, t1), "second-moment-cap")

        if cs.n_rows:
            try:
                w = rg.solve_constrained(V, c, R, lam, cs)
            except rg.opt.OptError as exc:  # infeasible or unconverged: say which step
                raise type(exc)(f"step {k + 1} (t={t1:g}): {exc}") from exc
        else:
            w = rg.solve_penalized(V, c, R, lam, sample, cb)

        floor = 1e-10 * forward_variance(p, t1)
        slices.append(LeverageSlice(t=float(t1), cond_var=cb.combination(w), floor=floor, sigma_bs=p.sigma_bs))

    return LeverageSurface(times=times, slices=tuple(slices), params=p)


def _l2_distance_sq(f: PiecewisePoly, g: PiecewisePoly, law: BachelierPrior) -> float:
    """Exact integral of (f - g)^2 dQ: the difference on the merged
    breakpoints, in f's local coordinates, is one compiled function whose
    ``weighted_gram`` against the law is this integral."""
    bp = np.union1d(f.breakpoints, g.breakpoints)
    # one point inside each merged interval selects the piece of f and of g
    inside = np.concatenate([[bp[0] - 1.0], 0.5 * (bp[:-1] + bp[1:]), [bp[-1] + 1.0]]) if bp.size else np.zeros(1)
    i_f = np.searchsorted(f.breakpoints, inside, side="right")
    i_g = np.searchsorted(g.breakpoints, inside, side="right")
    refs = f.refs[i_f]
    deg = max(f.coeffs.shape[1], g.coeffs.shape[1]) - 1
    diff = np.zeros((refs.size, deg + 1))
    diff[:, : f.coeffs.shape[1]] = f.coeffs[i_f]
    # g's piece about f's reference point: x - ref_g = u + delta with u = x - ref_f,
    # so the degree-m coefficient is sum_{j >= m} C(j, m) delta^(j - m) c_j
    # (C(j, m) = 0 for j < m); g's missing degrees are zeros
    d = np.arange(g.coeffs.shape[1])
    binom = np.array([[comb(j, m) for j in d] for m in d], dtype=float)  # [m, j]
    delta = refs - g.refs[i_g]
    shift = binom * delta[:, None, None] ** np.maximum(d[None, :] - d[:, None], 0)
    diff[:, : d.size] -= np.einsum("imj,ij->im", shift, g.coeffs[i_g])
    cb = CompiledBasis(first_index=0, order=deg, breakpoints=bp, refs=refs, coeffs=diff[None])
    # an integral of a square: surfaces that agree to rounding can sum below 0
    return max(float(weighted_gram(cb, law)[0, 0]), 0.0)


def conditional_variance_distance(surface: LeverageSurface, reference: LeverageSurface) -> float:
    """Root mean over the dates t_k > 0 of the L2(Q_k) distance between two
    calibrated conditional variances, Q_k the exact law of log S at t_k.

    This is the distance the forward-variance equality acts on: the
    equality pins the Q_k-integral of the conditional variance.  The two
    surfaces must share their time grid; the integrals are exact.
    """
    if not np.array_equal(surface.times, reference.times):
        raise ValueError("surfaces must share their time grid")
    p = surface.params
    sq = [
        _l2_distance_sq(a.cond_var, b.cond_var, _spot_marginal_log(p, float(t)))
        for t, a, b in zip(surface.times[1:], surface.slices[1:], reference.slices[1:])
    ]
    return float(np.sqrt(np.mean(sq)))


def simulate_terminal(surface: LeverageSurface, n_paths: int, seed: int) -> np.ndarray:
    """Terminal spots under the calibrated dynamics, fresh random stream.

    The paths are antithetic: path ``i + half`` (``half = (n_paths + 1) //
    2``) takes the negated normals of path ``i``.
    """
    p = surface.params
    half = (n_paths + 1) // 2
    s = np.full(2 * half, p.s0)
    u = np.zeros_like(s)
    z = np.empty((2, s.size))  # the normals of each date, one buffer for all
    for k, dt in enumerate(np.diff(surface.times)):
        z[:, :half] = _step_rng(seed, "reprice", k).standard_normal((2, half))
        np.negative(z[:, :half], out=z[:, half:])
        u = _particle_step(s, u, dt, p, z, surface.slices[k])
    return s[:n_paths]


_PAIR_BLOCK = 8192  # antithetic pairs per block of repricing payoffs


def _pair_payoffs(lo: np.ndarray, hi: np.ndarray, strikes: np.ndarray) -> np.ndarray:
    """Call payoffs averaged over each antithetic pair, strikes by pairs."""
    pay = lo - strikes[:, None]
    np.maximum(pay, 0.0, out=pay)
    other = hi - strikes[:, None]
    np.maximum(other, 0.0, out=other)
    pay += other
    pay *= 0.5
    return pay


def reprice_and_implied(
    surface: LeverageSurface,
    p: ScottParams,
    strikes,
    maturity: float,
    n_paths: int,
    seed: int = 1,
) -> dict:
    """Monte Carlo call prices under the calibrated surface and their smile.

    Uses a random stream independent of the calibration stream.  Prices
    falling outside the no-arbitrage band are reported per strike and the
    implied volatility is set to 0 or NaN there rather than failing.

    The paths are antithetic: path ``i`` and path ``i + half`` share their
    normals with opposite signs, so an odd ``n_paths`` is rounded up to whole
    pairs.  Standard errors are taken over the pair averages, the
    independent draws, rather than over the correlated paths.

    The pair-averaged payoffs are summed over ``_PAIR_BLOCK`` pairs at a
    time, once for the prices and once more for the centred squares of the
    standard errors, so the memory beyond the terminal spots is a strikes
    by ``_PAIR_BLOCK`` array, not strikes by paths.
    """
    strikes = np.asarray(strikes, dtype=float)
    if abs(maturity - surface.times[-1]) > 1e-12:
        raise ValueError("repricing maturity must equal the calibration horizon")
    half = (n_paths + 1) // 2
    sT = simulate_terminal(surface, 2 * half, seed)
    lo, hi = sT[:half], sT[half:]
    pair_sT = 0.5 * (lo + hi)
    blocks = [slice(a, a + _PAIR_BLOCK) for a in range(0, half, _PAIR_BLOCK)]
    prices = sum(_pair_payoffs(lo[b], hi[b], strikes).sum(axis=1) for b in blocks) / half
    centred = 0.0
    for b in blocks:
        dev = _pair_payoffs(lo[b], hi[b], strikes)
        dev -= prices[:, None]
        dev *= dev
        centred += dev.sum(axis=1)
    stderr = np.sqrt(centred / (half - 1)) / np.sqrt(half)
    vols = implied_vol(prices, p.s0, strikes, maturity)
    intrinsic = np.maximum(p.s0 - strikes, 0.0)
    flags = np.where(prices <= intrinsic, "below-intrinsic", np.where(prices >= p.s0, "above-forward", "ok"))
    return {
        "strikes": strikes,
        "prices": prices,
        "stderr": stderr,
        "implied_vols": vols,
        "price_flags": flags,
        "mean_terminal": float(pair_sT.mean()),
        "se_terminal": float(pair_sT.std(ddof=1) / np.sqrt(half)),
    }
