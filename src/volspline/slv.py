"""Particle calibration of the leverage function in a stochastic local
volatility model with exponential-OU stochastic volatility.

The spot follows ``dS = a_t l(t, S) dW`` with ``a_t = a0 exp(U_t)`` and
``dU = -theta U dt + nu dW_sigma``, correlated with the spot noise.  The
target smile is flat lognormal, so the local volatility is ``sigma_bs x``
(normal units) and the marginal of the spot at each date is known in
closed form.  Each time step regresses the squared volatility on log-spot
with a penalized, optionally constrained B-spline and divides it into the
local volatility.

Both marches, the calibration's particles and the repricing paths, take
each date's normals from ``_date_normals``, which draws the next date's
while the caller steps the current one.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, fields
from math import comb

import numpy as np

from volspline import regression as rg
from volspline.black import implied_vol
from volspline.bspline import CompiledBasis, PiecewisePoly, make_basis, weighted_gram
from volspline.priors import BachelierPrior

__all__ = [
    "ScottParams",
    "ConstraintFlags",
    "LeverageSlice",
    "LeverageSurface",
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
    """Which compatibility constraints (``regression.compatibility_constraints``) enter each regression."""

    forward_variance_eq: bool = True  # mean-compatibility: the integral equality pinning E[a_t^2]
    nonnegative: bool = True  # hull: the weights are nonnegative
    quadratic_cap: bool = False  # convex-order: the second-moment cap from E[a_t^4]


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


def _increments(z0: np.ndarray, z1: np.ndarray, dt: float, p: ScottParams):
    """The Brownian increment ``dw`` and the OU innovation ``nu * integ`` of
    one date from the independent standard normal rows ``z0`` and ``z1``.

    The pair (stochastic integral, Brownian increment) is Gaussian with
    covariance [[(1-e^{-2 theta dt})/(2 theta), rho (1-e^{-theta dt})/theta],
    [ ..., dt]], so a step with these increments has the exact transition
    law for any dt.  Both are odd in the normals: the negated normals of an
    antithetic path give exactly ``-dw`` and ``-nu * integ``.
    """
    v11, v12 = _ou_cov(p, dt)
    resid = dt - v12**2 / v11
    # two arrays the size of the rows: dw, and one buffer for the second
    # term of dw and then the innovation
    dw = np.multiply(z0, v12 / np.sqrt(v11))
    innov = np.multiply(z1, np.sqrt(max(resid, 0.0)))
    dw += innov
    np.multiply(z0, np.sqrt(v11), out=innov)
    innov *= p.nu
    return dw, innov


@dataclass(frozen=True)
class LeverageSlice:
    """Calibrated conditional variance at one date, in log-spot coordinates."""

    t: float
    cond_var: PiecewisePoly
    floor: float
    sigma_bs: float

    def conditional_variance(self, spots, located=None):
        """The floored conditional variance at the spots; ``located``, the
        piece index and local coordinate of each log-spot in ``cond_var``'s
        pieces, spares locating them (``PiecewisePoly.at_local``)."""
        if located is None:
            vals = self.cond_var(np.log(np.asarray(spots, dtype=float)))
        else:
            vals = self.cond_var.at_local(*located)
        # the values are a fresh array (or a float): floor them in place
        return np.maximum(vals, self.floor, out=vals if np.ndim(vals) else None)

    def leverage(self, spots, located=None):
        """``sigma_bs * spots / sqrt(conditional_variance(spots, located))``."""
        spots = np.asarray(spots, dtype=float)
        cv = self.conditional_variance(spots, located)
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


def _constant_slice(t: float, value: float, sigma_bs: float) -> LeverageSlice:
    pp = PiecewisePoly(np.zeros(0), np.zeros(1), np.array([[value]]))
    return LeverageSlice(t=t, cond_var=pp, floor=1e-10 * value, sigma_bs=sigma_bs)


def _step_rng(seed: int, stream: str, step: int) -> np.random.Generator:
    # crc32 gives a process-independent stream id (str hash is randomized)
    from zlib import crc32

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(crc32(stream.encode()), step))
    return np.random.Generator(np.random.Philox(ss))


def _particle_step(
    s, u, dt: float, p: ScottParams, dw, innov, leverage: LeverageSlice, antithetic: bool = False, located=None
):
    """Move one block of particles one date in place: the spots ``s`` by an
    Euler step with the slice's leverage, floored at ``1e-8 s0``, and the
    OU states ``u`` exactly.  ``located`` is the spots' log located in the
    slice's pieces, where the caller has it (see ``calibrate_leverage``).

    ``dw`` and ``innov`` are the date's increments (``_increments``) for
    the block; an antithetic block, whose normals are their negation,
    subtracts them.  IEEE negation is exact, so ``u - innov`` and
    ``s - step * dw`` are bit for bit the step taken with the negated
    increments.
    """
    move = np.subtract if antithetic else np.add
    # the leverage before step: its temporaries are freed before step is
    # made, not above it at the top of the heap (see calibrate_leverage)
    lev = leverage.leverage(s, located)
    step = np.exp(u)
    step *= p.a0  # the volatility at the start of the date
    step *= lev
    step *= dw
    u *= np.exp(-p.theta * dt)
    move(u, innov, out=u)
    move(s, step, out=s)
    np.maximum(s, 1e-8 * p.s0, out=s)


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
    (``regression.design_system``), its constraints from
    ``regression.compatibility_constraints`` for ``E[a_t^2 | log S_t]`` with
    the exact law of log S_t, as ``flags`` selects them.

    Each date's ``(2, n_particles)`` normals come from
    ``_date_normals(seed, "calibrate", ...)``; the particle step and the
    regression stay on the calling thread.

    Each date locates its particles in its knots once.  The regression's
    sample law finds each log-spot's piece of the mapped basis and its local
    coordinate (``EmpiricalMeasure.locate_in``), and both moment tables read
    them.  The next date's step evaluates the new slice on the same pair:
    nothing moves the spots between the regression and that step, and the
    slice, ``cb.combination(w)``, shares ``cb``'s breakpoints and refs, so
    its leverage is that of ``LeverageSlice.leverage(s)`` bit for bit.  The
    first date's constant slice, and a basis with a dead piece (a
    truncation of -1), locate the spots afresh.
    """
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size < 2 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("time grid must start at 0 and increase")
    if n_particles < 100:
        raise ValueError("particle count too small")

    unit = make_basis(np.arange(n_knots, dtype=float), order, truncation)
    cfg = rg.RegressionConfig(unit, penalty_order=penalty_order)
    unit_cb = unit.compiled()
    unit_penalty = rg.penalty_matrix(cfg)

    s = np.full(n_particles, p.s0)
    u = np.zeros(n_particles)
    slices: list[LeverageSlice] = [_constant_slice(0.0, p.a0**2, p.sigma_bs)]
    located = None  # the last regression's log-spots in the last slice's pieces

    with closing(_date_normals(seed, "calibrate", times.size - 1, n_particles)) as normals:
        for k, (z0, z1) in enumerate(normals):
            t0, t1 = times[k], times[k + 1]
            # the particles move as one block (the shipped 16000 fit in L2).
            # dw and innov live until the next date's are made: freed at the top
            # of the heap, glibc would hand their memory back to the system and
            # fault it in again on every date (7600 minor page faults in a
            # shipped calibration instead of 240, with the order of _particle_step)
            dw, innov = _increments(z0, z1, t1 - t0, p)
            _particle_step(s, u, t1 - t0, p, dw, innov, slices[-1], located=located)

            sample = rg.Sample(np.log(s), p.a0**2 * np.exp(2.0 * u))
            std = sample.sigma_x
            # the knots np.linspace(g0, g1, n_knots), up to the rounding of the last
            center = np.log(p.s0)
            g0, g1 = center - knot_halfwidth_stds * std, center + knot_halfwidth_stds * std
            h = (g1 - g0) / (n_knots - 1) if n_knots > 1 else 1.0
            cb = unit_cb.affine_image(g0, h)
            lam = rg.tikhonov_factor(sample, cfg)
            V, c = rg.design_system(sample, cb)
            R = h ** (1 - 2 * penalty_order) * unit_penalty

            # Y = a_t^2 given log S_t: E[Y], E[Y^2] and the hull [0, inf) of Y, as the flags ask
            cs = rg.compatibility_constraints(cb, _spot_marginal_log(p, t1), (
                forward_variance(p, t1) if flags.forward_variance_eq else None,
                fourth_moment(p, t1) if flags.quadratic_cap else None,
                (0.0, np.inf) if flags.nonnegative else None,
            ))

            if cs.n_rows:
                try:
                    w = rg.solve_constrained(V, c, R, lam, cs)
                except rg.opt.OptError as exc:  # infeasible or unconverged: say which step
                    raise type(exc)(f"step {k + 1} (t={t1:g}): {exc}") from exc
            else:
                w = rg.solve_penalized(V, c, R, lam, sample, cb)

            floor = 1e-10 * forward_variance(p, t1)
            slices.append(LeverageSlice(t=float(t1), cond_var=cb.combination(w), floor=floor, sigma_bs=p.sigma_bs))
            located = sample.law.locate_in(cb)

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


_MARCH_BLOCK = 16384  # antithetic pairs per block of the path march: a block's arrays stay in L2
_PAIR_BLOCK = 8192  # antithetic pairs per block of repricing payoffs


def _date_normals(seed: int, stream: str, n_dates: int, n: int):
    """Yield the ``(2, n)`` normals of each date of a march in turn.

    Date ``k`` draws from its own stream, ``_step_rng(seed, stream, k)``,
    all of row 0 and then all of row 1, the stream and order of
    ``standard_normal((2, n))``.  A one-worker executor draws date ``k + 1``
    into the second of two buffers while the caller uses date ``k``'s:
    ``Generator.standard_normal`` releases the GIL, so the draws overlap the
    caller's numpy work, and each buffer holds the bits a serial loop would
    draw.  The worker calls ``_step_rng`` and the generator only, and lives
    for one march.  A buffer is valid until the next ``next()``.  An error
    in the worker is raised here unchanged; exhausting or closing the
    generator, or an error, joins the worker.
    """
    # imported here: importing slv need not load concurrent.futures (and logging)
    from concurrent.futures import ThreadPoolExecutor

    buffers = np.empty((2, 2, n))

    def draw(k: int) -> np.ndarray:
        rng, z = _step_rng(seed, stream, k), buffers[k % 2]
        rng.standard_normal(out=z[0])
        rng.standard_normal(out=z[1])
        return z

    with ThreadPoolExecutor(1, thread_name_prefix=f"volspline-{stream}-normals") as worker:
        pending = worker.submit(draw, 0) if n_dates else None
        for k in range(n_dates):
            z = pending.result()
            if k + 1 < n_dates:  # into the buffer the caller finished with at this next()
                pending = worker.submit(draw, k + 1)
            yield z


def simulate_terminal(surface: LeverageSurface, n_paths: int, seed: int) -> np.ndarray:
    """Terminal spots under the calibrated dynamics, fresh random stream.

    The paths are antithetic: path ``i + half`` (``half = (n_paths + 1) //
    2``) takes the negated normals of path ``i``.  Each date's normals for
    the ``half`` pairs come in one ``(2, half)`` buffer of
    ``_date_normals(seed, "reprice", ...)``, and the pairs march
    ``_MARCH_BLOCK`` at a time: a block's increments are computed once,
    path ``i`` adds them and path ``i + half`` subtracts them
    (``_particle_step``).  The memory is the spots, the OU states and the
    two buffers of normals, four path-sized arrays, plus a few block-sized
    ones.
    """
    p = surface.params
    half = (n_paths + 1) // 2
    s = np.full(2 * half, p.s0)
    u = np.zeros_like(s)
    dates = list(zip(np.diff(surface.times), surface.slices))
    with closing(_date_normals(seed, "reprice", len(dates), half)) as normals:
        for (dt, leverage), z in zip(dates, normals):
            for a in range(0, half, _MARCH_BLOCK):
                b = min(a + _MARCH_BLOCK, half)
                dw, innov = _increments(z[0, a:b], z[1, a:b], dt, p)
                _particle_step(s[a:b], u[a:b], dt, p, dw, innov, leverage)
                lo, hi = half + a, half + b
                _particle_step(s[lo:hi], u[lo:hi], dt, p, dw, innov, leverage, antithetic=True)
    return s[:n_paths]


def _pair_payoffs(lo: np.ndarray, hi: np.ndarray, strikes: np.ndarray) -> np.ndarray:
    """Call payoffs averaged over each antithetic pair, strikes by pairs.

    ``hi``'s payoffs are folded in strike by strike through one buffer the
    size of ``hi``, so the memory is one strikes-by-pairs array."""
    pay = lo - strikes[:, None]
    np.maximum(pay, 0.0, out=pay)
    other = np.empty_like(hi)
    for row, strike in zip(pay, strikes):
        np.subtract(hi, strike, out=other)
        row += np.maximum(other, 0.0, out=other)
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
    pairs.  ``simulate_terminal`` marches them in blocks of pairs, each
    block's increments computed once and added to one path of each pair,
    subtracted from the other; its memory is four path-sized arrays.
    Standard errors are taken over the pair averages, the independent
    draws, rather than over the correlated paths, so at least two pairs
    (``n_paths >= 3``) are needed.

    The pair-averaged payoffs are summed over ``_PAIR_BLOCK`` pairs at a
    time, once for the prices and once more for the centred squares of the
    standard errors, so the memory beyond the terminal spots is a strikes
    by ``_PAIR_BLOCK`` array, not strikes by paths.
    """
    strikes = np.asarray(strikes, dtype=float)
    if abs(maturity - surface.times[-1]) > 1e-12:
        raise ValueError("repricing maturity must equal the calibration horizon")
    if n_paths < 3:
        raise ValueError(f"repricing needs at least 3 paths, two antithetic pairs, got {n_paths!r}")
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
