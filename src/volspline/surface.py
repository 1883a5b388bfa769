"""Arbitrage-free completion of sparse option quotes.

A B-spline reweighting of a prior law is calibrated per maturity: the
risk-neutral density is ``f_w * q0`` where ``f_w`` is a spline with flat
(order-0) extrapolation, so nonnegative weights and a unit-mass row keep
the result a probability measure and the wings inherit the prior's decay.
Prices, the forward and the mass are all linear in the weights, so both
calibration objectives (least squares on mids, or minimal curvature
within bid-ask) are quadratic programs, including the joint multi-maturity
problem with calendar constraints on a fine grid of relative strikes.

Lognormal and SSVI priors parameterize the spline in log-moneyness, where
the prior measure is Gaussian (or SSVI's log-moneyness density); a
Bachelier prior works directly in price space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from volspline import opt
from volspline.bspline import BasisSpec, CompiledBasis, Spline, gram_matrix, make_basis
from volspline.priors import BachelierPrior, ConfigError, LogNormalPrior, SSVIParams, SSVISlice, ssvi_total_variance
from volspline.regression import ConstraintSet, solution_weights

__all__ = [
    "Quote",
    "MarketSlice",
    "RNSlice",
    "SurfaceConfig",
    "SurfaceCalibration",
    "SurfaceReport",
    "slice_measure",
    "pricing_linear_forms",
    "calibrate_surface",
    "calendar_constraints",
    "validate",
]


@dataclass(frozen=True)
class Quote:
    strike: float
    bid: float
    ask: float
    is_call: bool = True

    def __post_init__(self) -> None:
        if not np.all(np.isfinite([self.strike, self.bid, self.ask])):
            raise ValueError(f"strike, bid and ask must be finite, got {self.strike!r}, {self.bid!r}, {self.ask!r}")
        if self.bid < 0.0:
            raise ValueError(f"bid must be nonnegative, got {self.bid!r}")
        if self.bid > self.ask:
            raise ValueError("bid exceeds ask")

    @property
    def mid(self) -> float:
        return 0.5 * (self.bid + self.ask)


@dataclass(frozen=True)
class MarketSlice:
    maturity: float
    forward: float
    quotes: tuple[Quote, ...] = ()

    def __init__(self, maturity: float, forward: float, quotes=()):
        if maturity <= 0.0 or forward <= 0.0:
            raise ValueError("maturity and forward must be positive")
        object.__setattr__(self, "maturity", float(maturity))
        object.__setattr__(self, "forward", float(forward))
        object.__setattr__(self, "quotes", tuple(quotes))


# ---------------------------------------------------------------------------
# slice measures: the prior at one maturity, in spline coordinates
# ---------------------------------------------------------------------------

class _CoordMeasure:
    """A prior at one maturity in the spline coordinate u.

    ``spot_map='exp'`` means the underlying is ``F exp(u)`` (log-moneyness
    splines); ``'identity'`` means the coordinate is the price itself.
    Outside these classes the coordinate is read through ``coordinate``,
    ``coord_of_strike`` and ``spot_of_coord``.  Subclasses supply
    ``moment_table`` and ``spot_moment_table``: integrals of
    ``(u - ref)^d`` against the measure, and against spot times the
    measure, for arrays of intervals; and ``atm_variance``.

    ``piece_rows`` keeps the per-interval mass and spot rows of the last
    compiled basis it was asked for, so the quote, calendar, grid and
    validation rows of one slice share one build.
    """

    forward: float
    spot_map: str
    _pieces: tuple | None = None  # (compiled basis, its mass rows, its spot rows)

    def piece_rows(self, cb: CompiledBasis) -> tuple[np.ndarray, np.ndarray]:
        """``_piece_rows(cb, self)``, built on the first call with ``cb`` and
        kept on the measure until it is asked for another compiled basis."""
        if self._pieces is None or self._pieces[0] is not cb:
            mass, spot = _piece_rows(cb, self)
            mass.flags.writeable = spot.flags.writeable = False
            self._pieces = (cb, mass, spot)
        return self._pieces[1:]

    @property
    def coordinate(self) -> str:
        """The spline coordinate's name: ``'log-moneyness'`` or ``'price'``."""
        return "log-moneyness" if self.spot_map == "exp" else "price"

    def coord_of_strike(self, strikes):
        strikes = np.asarray(strikes, dtype=float)
        if self.spot_map != "exp":
            return strikes
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(strikes, 0.0) / self.forward)

    def spot_of_coord(self, u):
        u = np.asarray(u, dtype=float)
        return self.forward * np.exp(u) if self.spot_map == "exp" else u

    def density_price(self, x):
        x = np.asarray(x, dtype=float)
        if self.spot_map == "exp":
            return self.coord_density(np.log(x / self.forward)) / x
        return self.coord_density(x)


class GaussianCoordMeasure(_CoordMeasure):
    """Gaussian prior measure in the spline coordinate."""

    def __init__(self, law: BachelierPrior, forward: float, spot_map: str):
        self.law = law
        self.forward = forward
        self.spot_map = spot_map

    def moment_table(self, lo, hi, ref, deg: int) -> np.ndarray:
        return self.law.moment_table(lo, hi, ref, deg)

    def spot_moment_table(self, lo, hi, ref, deg: int) -> np.ndarray:
        if self.spot_map == "exp":
            factor, tilted = self.law.tilted(1.0)
            return self.forward * factor * tilted.moment_table(lo, hi, ref, deg)
        # u (u - ref)^d = (u - ref)^(d+1) + ref (u - ref)^d
        table = self.law.moment_table(lo, hi, ref, deg + 1)
        return table[..., 1:] + np.asarray(ref, dtype=float)[..., None] * table[..., :-1]

    def coord_density(self, u):
        return self.law.density(u)

    def atm_variance(self) -> float:
        """Total variance of log-moneyness; 0 in price space."""
        return self.law.variance if self.spot_map == "exp" else 0.0


class SSVICoordMeasure(_CoordMeasure):
    """SSVI prior at one maturity in log-moneyness (see ``priors.SSVISlice``)."""

    spot_map = "exp"

    def __init__(self, params: SSVIParams, maturity: float):
        self.params = params
        self.maturity = maturity
        self.slice = SSVISlice(params, maturity)
        self.forward = self.slice.forward

    def moment_table(self, lo, hi, ref, deg: int) -> np.ndarray:
        return self.slice.log_moment_table(lo, hi, ref, deg)

    def spot_moment_table(self, lo, hi, ref, deg: int) -> np.ndarray:
        return self.slice.log_moment_table(lo, hi, ref, deg, spot=True)

    def coord_density(self, u):
        return self.slice.logm_density(np.asarray(u, dtype=float))

    def atm_variance(self) -> float:
        """Total implied variance at the money."""
        return ssvi_total_variance(self.params, self.maturity, 0.0)


def slice_measure(prior, maturity: float, forward: float | None = None):
    """Prior marginal at a maturity, exposed in spline coordinates.

    The one mapping from a prior to a slice measure.  Both Gaussian priors
    carry a variance per unit maturity: the lognormal law of log(S/F) has
    total variance ``total_variance * maturity``, the Bachelier law of S
    has variance ``variance * maturity`` and is centred on the forward.
    ``forward`` defaults to the prior's own; an SSVI prior must agree with
    it, since its forward curve fixes the log-moneyness of every strike.
    """
    if maturity <= 0.0:
        raise ValueError("maturity must be positive")
    if isinstance(prior, SSVIParams):
        measure = SSVICoordMeasure(prior, maturity)
        if forward is not None and abs(measure.forward - forward) > 1e-12 * forward:
            raise ValueError(
                f"SSVI forward curve gives {measure.forward!r} at T={maturity!r}, "
                f"the slice forward is {forward!r}; set the prior's forward_curve"
            )
        return measure
    if isinstance(prior, LogNormalPrior):
        F = prior.forward if forward is None else forward
        return GaussianCoordMeasure(LogNormalPrior(F, prior.total_variance * maturity).log_law(), F, "exp")
    if isinstance(prior, BachelierPrior):
        F = prior.mean if forward is None else forward
        return GaussianCoordMeasure(BachelierPrior(F, prior.variance * maturity), F, "identity")
    raise TypeError(f"unsupported prior {type(prior).__name__}")


# ---------------------------------------------------------------------------
# linear pricing forms
# ---------------------------------------------------------------------------

def _piece_rows(cb: CompiledBasis, measure) -> tuple[np.ndarray, np.ndarray]:
    """Mass and spot integrals of every function on every interval, (dim, intervals) each."""
    lo, hi, deg = cb.edges[:-1], cb.edges[1:], cb.coeffs.shape[2] - 1
    mass = np.einsum("jid,id->ji", cb.coeffs, measure.moment_table(lo, hi, cb.refs, deg))
    spot = np.einsum("jid,id->ji", cb.coeffs, measure.spot_moment_table(lo, hi, cb.refs, deg))
    return mass, spot


def _tail_rows(cb: CompiledBasis, measure, strikes: np.ndarray):
    """Whole-line rows and, per strike, the rows of the integrals above it.

    Whole intervals above a strike enter through right-cumulative sums of
    the per-interval rows; the interval holding the strike adds one partial
    piece.  Returns (mass_row, spot_row, mass_tails, spot_tails), the tails
    with one row per strike.
    """
    mass, spot = measure.piece_rows(cb)
    uk = measure.coord_of_strike(strikes)
    idx = np.searchsorted(cb.breakpoints, uk, side="right")
    hi, ref, coeffs = cb.edges[idx + 1], cb.refs[idx], cb.coeffs[:, idx, :]
    deg = coeffs.shape[2] - 1

    def tails(rows, table):
        above = np.concatenate([np.cumsum(rows[:, ::-1], axis=1)[:, ::-1], np.zeros((rows.shape[0], 1))], axis=1)
        return above[:, idx + 1].T + np.einsum("jkd,kd->kj", coeffs, table)

    mass_tails = tails(mass, measure.moment_table(uk, hi, ref, deg))
    spot_tails = tails(spot, measure.spot_moment_table(uk, hi, ref, deg))
    return mass.sum(axis=1), spot.sum(axis=1), mass_tails, spot_tails


def pricing_linear_forms(basis: BasisSpec, measure, strikes) -> dict:
    """Rows r with r . w = price/forward/mass of the reweighted prior.

    Returns call rows and put rows (one per strike), the forward row and
    the mass row.  Put-call parity holds row-wise by construction:
    call - put = forward - K * mass.
    """
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    mass_row, forward_row, mass_tails, spot_tails = _tail_rows(basis.compiled(), measure, strikes)
    call_rows = spot_tails - strikes[:, None] * mass_tails
    # put row from the complementary region keeps parity exact
    put_rows = call_rows - (forward_row - strikes[:, None] * mass_row)
    return {
        "call_rows": call_rows,
        "put_rows": put_rows,
        "forward_row": forward_row,
        "mass_row": mass_row,
        "strikes": strikes,
    }


# ---------------------------------------------------------------------------
# calibrated slices and surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RNSlice:
    """Reweighting spline of one maturity plus its pricing machinery."""

    basis: BasisSpec
    weights: np.ndarray
    maturity: float
    forward: float
    measure: object

    def __post_init__(self) -> None:
        if self.basis.truncation != 0:
            raise ValueError("slice reweightings use flat (order-0) extrapolation")

    @property
    def spline(self) -> Spline:
        return Spline(self.basis, self.weights)

    def call_price(self, strikes):
        forms = pricing_linear_forms(self.basis, self.measure, strikes)
        return forms["call_rows"] @ self.weights

    def density(self, x):
        """Risk-neutral density of the spot."""
        x = np.asarray(x, dtype=float)
        return self.spline(self.measure.coord_of_strike(x)) * self.measure.density_price(x)

    def to_json(self) -> dict:
        return {
            "maturity": self.maturity,
            "forward": self.forward,
            "knots": [float(v) for v in self.basis.knots.knots],
            "order": self.basis.order,
            "weights": [float(v) for v in self.weights],
        }


@dataclass(frozen=True)
class SurfaceConfig:
    n_knots: int = 13
    order: int = 3
    curvature_weight: float = 1.0
    time_smoothness_weight: float = 1e-3
    lsq_weight: float = 1.0
    relative_grid_size: int = 81
    knot_pad_gaps: float = 1.0

    def __post_init__(self) -> None:
        if self.n_knots < self.order + 2:
            raise ValueError(
                f"n_knots must be at least order + 2 = {self.order + 2} for a nonempty truncated basis, "
                f"got {self.n_knots!r}"
            )


@dataclass(frozen=True)
class SurfaceCalibration:
    slices: tuple[RNSlice, ...]
    config: SurfaceConfig

    def __post_init__(self) -> None:
        mats = [s.maturity for s in self.slices]
        if any(b <= a for a, b in zip(mats, mats[1:])):
            raise ValueError("maturities must be strictly increasing")

    @property
    def relative_strike_grid(self) -> np.ndarray:
        """Relative strikes K / F of the calendar rows (see ``_relative_grid``)."""
        return _relative_grid(self.slices[0].basis, [s.measure for s in self.slices], self.config)


def _knot_grid(market: list[MarketSlice], measures, cfg: SurfaceConfig) -> np.ndarray:
    coords = np.concatenate(
        [np.atleast_1d(m.coord_of_strike([q.strike for q in sl.quotes])) for sl, m in zip(market, measures)]
    )
    if not coords.size:
        raise ValueError("no quotes to place knots from")
    coords = np.unique(coords)
    if coords.size == 1:
        lo, hi = coords[0] - 0.5, coords[0] + 0.5
    else:
        gaps = np.diff(coords)
        lo = coords[0] - cfg.knot_pad_gaps * gaps[0]
        hi = coords[-1] + cfg.knot_pad_gaps * gaps[-1]
    return np.linspace(lo, hi, cfg.n_knots)


def _relative_grid(basis: BasisSpec, measures, cfg: SurfaceConfig) -> np.ndarray:
    """Relative strikes K / F for the calendar fine grid.

    Log-moneyness slices span four at-the-money standard deviations of the
    widest slice; price-space slices span the knots, taken relative to the
    first slice's forward.
    """
    w_max = max([0.0] + [m.atm_variance() for m in measures])
    if w_max <= 0.0:
        g = basis.knots.knots
        return np.linspace(g[0], g[-1], cfg.relative_grid_size) / measures[0].forward
    half = 4.0 * np.sqrt(w_max)
    return np.exp(np.linspace(-half, half, cfg.relative_grid_size))


def calendar_constraints(
    basis: BasisSpec,
    measures: list,
    forwards: list[float],
    rel_grid: np.ndarray,
) -> ConstraintSet:
    """Maturity-monotonicity rows on the fine grid plus wing rows.

    Every slice is a spline on ``basis``; slice i owns the weight block
    ``i * dim : (i + 1) * dim``.  Per adjacent pair: a call row and a put
    row for each relative strike (prices at constant moneyness K / F must
    be nondecreasing in maturity), the two order-zero
    extrapolation-coefficient rows, and one price row per far wing beyond
    the knot range; 2m + 4 rows per pair in total.
    """
    dim = basis.dimension
    total = dim * len(measures)
    offs = dim * np.arange(len(measures) + 1)
    cs = ConstraintSet(total)
    m = rel_grid.size
    g = basis.knots.knots
    span = g[-1] - g[0]
    far = np.array([g[0] - 0.25 * span, g[-1] + 0.25 * span])
    # one set of forms per slice: the fine grid, then the two far strikes
    forms = [
        pricing_linear_forms(basis, meas, np.concatenate([rel_grid * F, meas.spot_of_coord(far)]))
        for meas, F in zip(measures, forwards)
    ]
    for i in range(len(measures) - 1):
        lo, hi = slice(offs[i], offs[i + 1]), slice(offs[i + 1], offs[i + 2])
        f1, f2 = forms[i], forms[i + 1]
        fine = np.zeros((2 * m, total))
        fine[0::2, lo], fine[0::2, hi] = -f1["call_rows"][:m], f2["call_rows"][:m]
        fine[1::2, lo], fine[1::2, hi] = -f1["put_rows"][:m], f2["put_rows"][:m]
        cs.add_ineq_rows(fine, 0.0, "calendar-fine-grid")
        # order-zero wing coefficients must be nondecreasing in maturity
        wing = np.zeros((2, total))
        wing[0, offs[i]], wing[0, offs[i + 1]] = -1.0, 1.0
        wing[1, offs[i + 1] - 1], wing[1, offs[i + 2] - 1] = -1.0, 1.0
        cs.add_ineq_rows(wing, 0.0, "calendar-wing")
        # far-strike price rows beyond the knot range: a put below, a call above
        farrows = np.zeros((2, total))
        farrows[0, lo], farrows[0, hi] = -f1["put_rows"][m], f2["put_rows"][m]
        farrows[1, lo], farrows[1, hi] = -f1["call_rows"][m + 1], f2["call_rows"][m + 1]
        cs.add_ineq_rows(farrows, 0.0, "calendar-wing")
    return cs


def calibrate_surface(
    market: list[MarketSlice],
    prior,
    config: SurfaceConfig = SurfaceConfig(),
    mode: str = "bracket",
    tol: float = 1e-8,
) -> SurfaceCalibration:
    """Joint quadratic-program calibration of every maturity slice.

    ``mode='lsq'`` fits mid prices in least squares under hard mass,
    forward and nonnegativity constraints; ``mode='bracket'`` minimizes
    curvature (plus the time-smoothness coupling) subject to every quote
    repricing inside its bid-ask bracket.  Maturities without quotes are
    legitimate: they are shaped by the penalties and the calendar rows.
    Only an ``optimal`` solve gives a surface; ``solution_weights`` raises
    ``opt.InfeasibleError`` or ``opt.OptError`` on any other status.  An
    unknown ``mode`` is a ``ConfigError``.
    """
    if not market:
        raise ValueError("no market slices supplied")
    if mode not in ("bracket", "lsq"):
        raise ConfigError(f"unknown calibration mode {mode!r}; expected 'bracket' or 'lsq'")
    market = sorted(market, key=lambda s: s.maturity)
    measures = [slice_measure(prior, sl.maturity, sl.forward) for sl in market]
    # one basis on one knot grid for every maturity: slice i owns the
    # weight block i * dim : (i + 1) * dim
    basis = make_basis(_knot_grid(market, measures, config), config.order, truncation=0)
    dim = basis.dimension
    total = dim * len(market)

    P = np.zeros((total, total))
    q = np.zeros(total)
    cs = ConstraintSet(total)
    R1 = gram_matrix(basis, 2)
    for i, (sl, m) in enumerate(zip(market, measures)):
        block = slice(i * dim, (i + 1) * dim)
        P[block, block] += 2.0 * config.curvature_weight * R1
        forms = pricing_linear_forms(basis, m, [qt.strike for qt in sl.quotes] or [sl.forward])
        row = np.zeros(total)
        row[block] = forms["mass_row"]
        cs.add_eq(row, 1.0, "mass")
        row = np.zeros(total)
        row[block] = forms["forward_row"]
        cs.add_eq(row, sl.forward, "forward")
        rows = np.zeros((dim, total))
        rows[:, block] = np.eye(dim)
        cs.add_ineq_rows(rows, 0.0, "nonnegative")
        if not sl.quotes:
            continue
        rows = np.zeros((len(sl.quotes), total))
        rows[:, block] = [forms["call_rows" if qt.is_call else "put_rows"][qi] for qi, qt in enumerate(sl.quotes)]
        if mode == "bracket":
            # each quote's bid row, then its ask row
            bracket = np.empty((2 * len(sl.quotes), total))
            bracket[0::2], bracket[1::2] = rows, -rows
            bounds = np.ravel([(qt.bid, -qt.ask) for qt in sl.quotes])
            cs.add_ineq_rows(bracket, bounds, "bid-ask")
        else:
            mids = np.array([qt.mid for qt in sl.quotes])
            P += 2.0 * config.lsq_weight * rows.T @ rows
            q += -2.0 * config.lsq_weight * rows.T @ mids

    # second time-difference of each loading index across the maturity grid
    if len(market) >= 3 and config.time_smoothness_weight > 0.0:
        for kmid in range(1, len(market) - 1):
            rows = np.zeros((dim, total))
            for j, c in ((kmid - 1, 1.0), (kmid, -2.0), (kmid + 1, 1.0)):
                rows[:, j * dim : (j + 1) * dim] += c * np.eye(dim)
            P += 2.0 * config.time_smoothness_weight * rows.T @ rows

    if len(market) >= 2:
        rel_grid = _relative_grid(basis, measures, config)
        cs = cs.merge(calendar_constraints(basis, measures, [sl.forward for sl in market], rel_grid))

    x = solution_weights(opt.solve_qp(opt.QuadForm(P, q), cs, tol=tol), cs, "surface calibration")

    slices = tuple(
        RNSlice(
            basis=basis,
            weights=np.asarray(x[i * dim : (i + 1) * dim]),
            maturity=sl.maturity,
            forward=sl.forward,
            measure=m,
        )
        for i, (sl, m) in enumerate(zip(market, measures))
    )
    return SurfaceCalibration(slices=slices, config=config)


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceReport:
    checks: tuple[tuple[str, bool, float, bool], ...]  # name, ok, margin, required

    @property
    def passed(self) -> bool:
        """Required checks only; informational ones are reported but not gating."""
        return all(ok for _, ok, _, req in self.checks if req)

    def __str__(self) -> str:
        return "\n".join(
            f"{'PASS' if ok else 'FAIL'}{'' if req else ' (informational)'} {name}: worst margin {m:.3e}"
            for name, ok, m, req in self.checks
        )


def validate(calib: SurfaceCalibration, n_strikes: int = 400, n_density: int = 1000, tol: float = 1e-7) -> SurfaceReport:
    """Static-arbitrage checks on dense grids.

    Reported, never enforced: monotonicity and convexity of calls in
    strike, the price limits at extreme strikes, density nonnegativity,
    calendar monotonicity at constant relative strike, and the
    tangent-versus-chord condition on each bracket of the relative grid
    (the latter may fail between grid points without invalidating the
    fine-grid calibration).
    """
    checks: list[tuple[str, bool, float, bool]] = []
    mono_worst = np.inf
    conv_worst = np.inf
    dens_worst = np.inf
    lim_worst = np.inf
    mass_worst = 0.0
    fwd_worst = 0.0
    parity_worst = 0.0
    for sl in calib.slices:
        g = sl.basis.knots.knots
        span = g[-1] - g[0]
        strikes = sl.measure.spot_of_coord(np.linspace(g[0] - 0.3 * span, g[-1] + 0.3 * span, n_strikes))
        xs = sl.measure.spot_of_coord(np.linspace(g[0], g[-1], n_density))
        forms = pricing_linear_forms(sl.basis, sl.measure, strikes)
        calls = forms["call_rows"] @ sl.weights
        puts = forms["put_rows"] @ sl.weights
        mono_worst = min(mono_worst, float(np.min(-np.diff(calls))))
        slopes = np.diff(calls) / np.diff(strikes)
        conv_worst = min(conv_worst, float(np.min(np.diff(slopes))))
        dens = sl.density(xs)
        dens_worst = min(dens_worst, float(np.min(dens)))
        mass_worst = max(mass_worst, abs(float(forms["mass_row"] @ sl.weights) - 1.0))
        fwd_worst = max(fwd_worst, abs(float(forms["forward_row"] @ sl.weights) - sl.forward) / sl.forward)
        parity_worst = max(
            parity_worst,
            float(np.max(np.abs(calls - puts - (sl.forward - strikes)))) / sl.forward,
        )
        lim_worst = min(
            lim_worst,
            float(calls[0] - (sl.forward - strikes[0])),  # deep ITM: C >= F - K
            float(calls[-1]),  # deep OTM: C >= 0 and small
        )
    checks.append(("call monotonicity in strike", mono_worst >= -tol, mono_worst, True))
    checks.append(("call convexity in strike", conv_worst >= -tol, conv_worst, True))
    checks.append(("density nonnegative", dens_worst >= -tol, dens_worst, True))
    checks.append(("price limits at extreme strikes", lim_worst >= -tol, lim_worst, True))
    checks.append(("unit mass", mass_worst <= 1e-8, mass_worst, True))
    checks.append(("forward repriced", fwd_worst <= 1e-8, fwd_worst, True))
    checks.append(("put-call parity", parity_worst <= 1e-10, parity_worst, True))

    if len(calib.slices) >= 2:
        rel = calib.relative_strike_grid
        cal_worst = np.inf
        tangent_worst = np.inf
        # one tail build per slice at its relative strikes gives its calls and
        # slopes dC/dK = -(mass above K) for both pairs the slice belongs to
        rel_calls, rel_slopes = [], []
        for sl in calib.slices:
            K = rel * sl.forward
            mass_tails, spot_tails = _tail_rows(sl.basis.compiled(), sl.measure, K)[2:]
            rel_calls.append((spot_tails - K[:, None] * mass_tails) @ sl.weights)
            rel_slopes.append(-mass_tails @ sl.weights * sl.forward)
        x0, x1 = rel[:-1], rel[1:]
        for c1, c2, slopes in zip(rel_calls, rel_calls[1:], rel_slopes[1:]):
            cal_worst = min(cal_worst, float(np.min(c2 - c1)))
            # per bracket: where the later slice's tangents at both ends meet
            # (the midpoint where the slopes agree), against the earlier
            # slice's chord there
            s_lo, s_hi = slopes[:-1], slopes[1:]
            flat = s_hi - s_lo <= 1e-14 * np.maximum(np.abs(s_lo), 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                meet = (c2[1:] - c2[:-1] + s_lo * x0 - s_hi * x1) / (s_lo - s_hi)
            xstar = np.where(flat, 0.5 * (x0 + x1), np.minimum(np.maximum(meet, x0), x1))
            cu = c2[:-1] + s_lo * (xstar - x0)
            cd = c1[:-1] + (c1[1:] - c1[:-1]) * (xstar - x0) / (x1 - x0)
            tangent_worst = min(tangent_worst, float(np.fmin.reduce(cu - cd, initial=np.inf)))  # skips NaN
        checks.append(("calendar monotonicity on fine grid", cal_worst >= -tol, cal_worst, True))
        # sufficient condition between grid points, stronger than what the
        # calibration enforces; may fail without invalidating the fit
        checks.append(("tangent-chord calendar condition", tangent_worst >= -tol, tangent_worst, False))
    return SurfaceReport(checks=tuple(checks))
