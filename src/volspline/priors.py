"""Base probability models: densities, moment tables, arbitrage checks.

Every measure exposes one vectorized method, ``moment_table(lo, hi, ref,
deg)``: for arrays of interval edges and local reference points it returns
the table of integrals of ``(x - ref)^d dQ`` over ``[lo_i, hi_i]`` for every
interval i and every degree ``d <= deg``.  The B-spline Gram, moment and
pricing rows are contractions of that table with the compiled piecewise
polynomial coefficients (``bspline.piece_integrals``); Gaussian tables are
closed form, a lognormal entering through the law of its log (``log_law``);
the SSVI slice has its table in log-moneyness only (``log_moment_table``),
integrated on one composite Gauss-Legendre grid.  An ``SSVISlice`` builds
that grid, and the moments of its whole cells for both weights (density,
spot times density) from one density evaluation, once, and keeps them for
as long as the slice object lives; every later table integrates only its
own partial cells, and a query for both tables evaluates the density once
on those.  No cache is shared between slices or kept at module level.
``PRIOR`` declares a prior's JSON config, and ``prior_from_json`` reads
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Callable

import numpy as np
from scipy.special import ndtr

from volspline.bspline import gauss_legendre_rule
from volspline.config import NUMBER, POSITIVE, Check, Field, array, at_least, either, read, tagged

__all__ = [
    "PriorError", "BachelierPrior", "LogNormalPrior", "SSVIParams", "SSVISlice", "ssvi_total_variance",
    "ssvi_density", "validate_ssvi", "adaptive_quad", "FORWARD_CURVE", "PRIOR", "prior_from_json",
]

_SQRT2PI = np.sqrt(2.0 * np.pi)


class PriorError(ValueError):
    """Invalid prior parameters or integration request."""


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT2PI


def _ndtr_diff(a, b):
    """Phi(b) - Phi(a), taken in the upper tail where both arguments are positive."""
    return np.where(a > 0.0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))


def _table_args(lo, hi, ref, deg: int):
    lo, hi, ref = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, ref)))
    if deg < 0:
        raise PriorError("moment degree must be nonnegative")
    if np.any(lo > hi):
        raise PriorError("integration bounds out of order")
    return lo, hi, ref


def _gauss_power_moments(alpha, beta, shift, nmax: int) -> np.ndarray:
    """Integrals of (z + shift)^n against the standard normal over [alpha, beta].

    Vectorized over intervals: returns shape ``alpha.shape + (nmax + 1,)``,
    from the recursion I_n = (n-1) I_{n-2} + shift I_{n-1} + boundary terms.
    """
    fa, fb = np.isfinite(alpha), np.isfinite(beta)
    pa, pb = _phi(alpha), _phi(beta)  # zero at infinite ends
    ya = np.where(fa, alpha + shift, 0.0)
    yb = np.where(fb, beta + shift, 0.0)
    out = np.empty(np.shape(alpha) + (nmax + 1,))
    out[..., 0] = _ndtr_diff(alpha, beta)
    ta, tb = pa, pb  # y^(n-1) phi at both ends
    for n in range(1, nmax + 1):
        prev2 = (n - 1) * out[..., n - 2] if n >= 2 else 0.0
        out[..., n] = prev2 + shift * out[..., n - 1] + ta - tb
        ta, tb = ta * ya, tb * yb
    return out


@dataclass(frozen=True)
class BachelierPrior:
    """Normal law in price (or any linear) units.  For ``moment_table`` only,
    ``variance`` may be a column of n variances, shape ``(n, 1)``: it returns
    n stacked tables, each equal bit for bit to its variance's own table."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if np.any(self.variance <= 0.0):
            raise PriorError("variance must be positive")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.variance))

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return _phi((x - self.mean) / self.sigma) / self.sigma

    def moment_table(self, lo, hi, ref, deg: int) -> np.ndarray:
        """Integrals of (x - ref_i)^d over [lo_i, hi_i] for d <= deg."""
        lo, hi, ref = _table_args(lo, hi, ref, deg)
        s = np.sqrt(self.variance)
        mom = _gauss_power_moments((lo - self.mean) / s, (hi - self.mean) / s, (self.mean - ref) / s, deg)
        return mom * s[..., None] ** np.arange(deg + 1)

    def piece_integral(self, a: float, b: float, coeffs, ref: float) -> float:
        """Integral over [a, b] of the polynomial sum_d coeffs[d] (x - ref)^d."""
        coeffs = np.asarray(coeffs, dtype=float)
        return float(self.moment_table(a, b, ref, coeffs.size - 1) @ coeffs)

    def tilted(self, coef: float) -> tuple[float, "BachelierPrior"]:
        """Factor and law such that e^{coef x} dQ = factor dQ'."""
        factor = float(np.exp(coef * self.mean + 0.5 * coef**2 * self.variance))
        return factor, BachelierPrior(self.mean + coef * self.variance, self.variance)


@dataclass(frozen=True)
class LogNormalPrior:
    """Driftless lognormal with the stated forward: E[S] = forward exactly."""

    forward: float
    total_variance: float

    def __post_init__(self) -> None:
        if self.forward <= 0.0:
            raise PriorError("forward must be positive")
        if self.total_variance < 0.0:
            raise PriorError("total variance must be nonnegative")

    def log_law(self) -> BachelierPrior:
        """Law of log(S / forward)."""
        w = self.total_variance
        return BachelierPrior(-0.5 * w, w if w > 0 else 1e-300)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        w = self.total_variance
        if w == 0.0:
            raise PriorError("degenerate lognormal has no density")
        z = (np.log(x / self.forward) + 0.5 * w) / np.sqrt(w)
        return _phi(z) / (x * np.sqrt(w))


# ---------------------------------------------------------------------------
# SSVI total-variance surface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SSVIParams:
    """Five-parameter global total-variance surface.

    Time dependence is linear, ``theta(t) = K t`` and ``delta(t) = C t``,
    and the skew function is the power law ``phi(theta) = eta theta^-gamma``.
    ``forward_curve`` is a flat forward or rows (maturity, forward), interpolated.
    """

    C: float
    K: float
    rho: float
    eta: float
    gamma: float
    forward_curve: object = 1.0

    def __post_init__(self) -> None:
        if self.C < 0.0 or self.K <= 0.0 or self.eta <= 0.0:
            raise PriorError("C must be >= 0 and K, eta > 0")
        if not -1.0 < self.rho < 1.0:
            raise PriorError("rho must lie in (-1, 1)")
        if not 0.0 < self.gamma < 1.0:
            raise PriorError("gamma must lie in (0, 1)")

    def theta(self, t: float) -> float:
        return self.K * t

    def delta(self, t: float) -> float:
        return self.C * t

    def phi(self, theta: float) -> float:
        return self.eta * theta ** (-self.gamma)

    def forward(self, t: float) -> float:
        if np.isscalar(self.forward_curve):
            return float(self.forward_curve)
        pts = np.asarray(self.forward_curve, dtype=float)
        return float(np.interp(t, pts[:, 0], pts[:, 1]))


def ssvi_total_variance(p: SSVIParams, t: float, k):
    """Total implied variance at maturity t and log-moneyness k."""
    if t <= 0.0:
        raise PriorError("maturity must be positive")
    k = np.asarray(k, dtype=float)
    th = p.theta(t)
    z = p.phi(th)
    root = np.sqrt((z * k + p.rho) ** 2 + (1.0 - p.rho**2))
    out = p.delta(t) + 0.5 * th * (1.0 + z * p.rho * k + root)
    return float(out) if out.ndim == 0 else out


def _ssvi_w_derivs(p: SSVIParams, t: float, k):
    k = np.asarray(k, dtype=float)
    th = p.theta(t)
    z = p.phi(th)
    root = np.sqrt((z * k + p.rho) ** 2 + (1.0 - p.rho**2))
    w = p.delta(t) + 0.5 * th * (1.0 + z * p.rho * k + root)
    w1 = 0.5 * th * (z * p.rho + z * (z * k + p.rho) / root)
    w2 = 0.5 * th * z**2 * (1.0 - p.rho**2) / root**3
    return w, w1, w2


def _ssvi_g(p: SSVIParams, t: float, k):
    w, w1, w2 = _ssvi_w_derivs(p, t, k)
    return (1.0 - k * w1 / (2.0 * w)) ** 2 - 0.25 * w1**2 * (1.0 / w + 0.25) + 0.5 * w2, w


def ssvi_logm_density(p: SSVIParams, t: float, k):
    """Risk-neutral density of log-moneyness log(S_t / F_t)."""
    g, w = _ssvi_g(p, t, k)
    sq = np.sqrt(w)
    dm = -np.asarray(k, dtype=float) / sq - 0.5 * sq
    return g / (_SQRT2PI * sq) * np.exp(-0.5 * dm**2)


def ssvi_density(p: SSVIParams, t: float, x):
    """Risk-neutral density of the spot at maturity t."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise PriorError("spot density is defined for positive arguments")
    F = p.forward(t)
    k = np.log(x / F)
    g, _ = _ssvi_g(p, t, k)
    if np.any(g < -1e-12):
        raise PriorError("negative density factor: parameters admit butterfly arbitrage")
    out = ssvi_logm_density(p, t, k) / x
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    checks: tuple[tuple[str, bool, float], ...]  # (name, ok, worst margin)

    def __str__(self) -> str:
        lines = [f"{'PASS' if ok else 'FAIL'} {name}: worst margin {m:.3e}" for name, ok, m in self.checks]
        return "\n".join(lines)


def validate_ssvi(p: SSVIParams, t_range: tuple[float, float]) -> ValidationReport:
    """Static-arbitrage report over a maturity range.

    Butterfly conditions are evaluated on a theta grid of 200 points
    covering twice the range implied by the maturities; calendar conditions
    follow from the linear time parameterization and the power-law skew.
    """
    t0, t1 = t_range
    if not (0.0 < t0 <= t1):
        raise PriorError("maturity range must be positive and ordered")
    thetas = np.linspace(p.theta(t0) * 0.5, p.theta(t1) * 2.0, 200)
    thetas = thetas[thetas > 0.0]
    phi = p.eta * thetas ** (-p.gamma)
    b1 = 4.0 - thetas * phi * (1.0 + abs(p.rho))
    b2 = 4.0 - thetas * phi**2 * (1.0 + abs(p.rho))
    dtheta_thetaphi = (1.0 - p.gamma) * p.eta * thetas ** (-p.gamma)
    with np.errstate(divide="ignore", over="ignore"):  # no upper bound as rho -> 0
        cal_hi = (1.0 + np.sqrt(1.0 - p.rho**2)) * phi / p.rho**2 - dtheta_thetaphi
    checks = [
        ("butterfly: theta*phi*(1+|rho|) < 4", bool(np.all(b1 > 0.0)), float(b1.min())),
        ("butterfly: theta*phi^2*(1+|rho|) <= 4", bool(np.all(b2 >= 0.0)), float(b2.min())),
        ("calendar: theta nondecreasing", p.K >= 0.0, float(p.K)),
        ("calendar: delta nonnegative and nondecreasing", p.C >= 0.0, float(p.C)),
        ("calendar: d(theta*phi)/dtheta >= 0", bool(np.all(dtheta_thetaphi >= 0.0)), float(dtheta_thetaphi.min())),
        ("calendar: d(theta*phi)/dtheta upper bound", bool(np.all(cal_hi >= 0.0)), float(cal_hi.min())),
    ]
    return ValidationReport(passed=all(ok for _, ok, _ in checks), checks=tuple(checks))


# composite Gauss-Legendre grid of every SSVI slice table: cells over the
# clipped log-moneyness range (SSVISlice.grid), and nodes per cell (also on
# the partial cells at interval ends)
_SSVI_CELLS = 200
_SSVI_NODES = 8


class _CompositeCells:
    """What a composite Gauss-Legendre table needs of the whole cells of one
    weight: the cell edges and centres, the node offsets from each centre,
    the node masses ``half * w_i * weight(node)`` and the cell moments about
    the centres, each degree summed once when first asked for.  Nothing here
    depends on a query's intervals.
    """

    def __init__(self, edges: np.ndarray, mid: np.ndarray, local: np.ndarray, mass: np.ndarray):
        self.edges, self.mid, self._local, self._mass = edges, mid, local, mass
        self._moments: list[np.ndarray] = []  # degree j: one value per cell

    def moments(self, deg: int) -> np.ndarray:
        """Moments of degree 0..deg of every cell about its centre, (cells, deg + 1)."""
        for j in range(len(self._moments), deg + 1):
            self._moments.append((self._mass * self._local**j).sum(axis=1))
        return np.stack(self._moments[: deg + 1], axis=1)


def _composite_cells(edges: np.ndarray, weights: Callable) -> tuple[_CompositeCells, ...]:
    """The whole cells of ``edges``, one ``_CompositeCells`` per weight of
    ``weights`` (nodes -> tuple of weights), from one call on every node."""
    xs, ws = gauss_legendre_rule(_SSVI_NODES)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    nodes = mid[:, None] + half[:, None] * xs
    local = nodes - mid[:, None]
    return tuple(_CompositeCells(edges, mid, local, half[:, None] * ws * w) for w in weights(nodes))


def _composite_table(cells: tuple[_CompositeCells, ...], weights: Callable, lo, hi, ref, deg: int) -> list[np.ndarray]:
    """Integrals of (k - ref_i)^d w(k) dk over [lo_i, hi_i], one table per
    weight w of one query: ``weights`` maps nodes to the tuple of weights,
    ``(density,)`` or ``(density, spot density)``, and ``cells`` holds the
    whole cells of each, in the same order, on one composite Gauss-Legendre
    grid; bounds are clipped to the grid.

    Whole cells enter through their moments about the cell centre,
    re-expanded about each ``ref`` (no cancellation: the expansion point
    lies inside the cell); the at most two partial cells of an interval get
    their own Gauss-Legendre rule.  The whole-cell mask, the powers of the
    centre gaps and the partial-cell nodes are built once for all weights,
    and ``weights`` is called once, on the nodes of both partial cells.
    """
    xs, ws = gauss_legendre_rule(_SSVI_NODES)
    edges, mid = cells[0].edges, cells[0].mid
    lo = np.clip(lo, edges[0], edges[-1])
    hi = np.clip(hi, lo, edges[-1])

    first = np.searchsorted(edges, lo, side="left")  # first edge >= lo
    last = np.searchsorted(edges, hi, side="right") - 1  # last edge <= hi
    cell_ids = np.arange(edges.size - 1)
    whole = (cell_ids >= first[:, None]) & (cell_ids < last[:, None])
    gap = np.where(whole, mid - ref[:, None], 0.0)  # (intervals, cells)
    # shifted[i][:, m, j] = sum over whole cells of (centre - ref)^m * weight i's cell moment j
    moments = [c.moments(deg) for c in cells]
    shifted = [np.empty(lo.shape + (deg + 1, deg + 1)) for _ in cells]
    power = whole.astype(float)
    for m in range(deg + 1):
        for table, cell_mom in zip(shifted, moments):
            table[:, m, :] = power @ cell_mom
        power = power * gap

    split = np.minimum(edges[np.minimum(first, edges.size - 1)], hi)
    rules = []  # per partial cell: node weights and the powers of the node offsets from ref
    nodes = []
    for a, b in ((lo, split), (np.maximum(edges[np.maximum(last, 0)], split), hi)):
        pm, ph = 0.5 * (a + b), 0.5 * (b - a)
        k = pm[:, None] + ph[:, None] * xs
        nodes.append(k)
        u = k - ref[:, None]
        rules.append((ph[:, None] * ws, [u**d for d in range(deg + 1)]))
    values = weights(np.concatenate(nodes))
    n = lo.size

    tables = []
    for sh, value in zip(shifted, values):
        out = np.zeros(lo.shape + (deg + 1,))
        for d in range(deg + 1):
            for j in range(d + 1):
                out[:, d] += comb(d, j) * sh[:, d - j, j]
        for side, (scaled, u_powers) in enumerate(rules):
            pw = scaled * value[side * n : (side + 1) * n]
            out += np.stack([(pw * ud).sum(axis=1) for ud in u_powers], axis=1)
        tables.append(out)
    return tables


@dataclass(frozen=True)
class SSVISlice:
    """Fixed-maturity marginal of the SSVI surface.

    Tables integrate on one composite Gauss-Legendre grid of
    ``_SSVI_CELLS`` cells in log-moneyness (see ``grid``), against two
    weights: the density, and spot times the density.  On its first table
    the slice builds that grid and the whole cells of both weights, from one
    density evaluation on every node, and keeps them for as long as it
    lives; every later table only adds its own partial cells, and a query
    for both tables (``log_moment_tables``) evaluates the density once on
    those.  Nothing is shared between slices.
    """

    params: SSVIParams
    maturity: float

    def __post_init__(self) -> None:
        if self.maturity <= 0.0:
            raise PriorError("maturity must be positive")

    @property
    def forward(self) -> float:
        return self.params.forward(self.maturity)

    def grid(self) -> np.ndarray:
        """Cell edges in log-moneyness, sinh-spaced about the money.

        The range reaches out until d- and d+ = d- + sqrt(w) both exceed 9 in
        size at each end, so that the density and the spot-weighted density
        there are below e^-40 of their scale.  SSVI wings are linear in k,
        so those tails are exponential, not Gaussian, and can be wide.
        """
        s = float(np.sqrt(ssvi_total_variance(self.params, self.maturity, 0.0)))
        cut = 10.0 * s
        for _ in range(60):
            ends = np.array([-cut, cut])
            root_w = np.sqrt(ssvi_total_variance(self.params, self.maturity, ends))
            d_minus = -ends / root_w - 0.5 * root_w
            if d_minus[0] >= 9.0 and d_minus[1] + root_w[1] <= -9.0:
                break
            cut *= 1.25
        a = np.arcsinh(cut / s)
        return s * np.sinh(np.linspace(-a, a, _SSVI_CELLS + 1))

    @cached_property
    def _cells(self) -> tuple[_CompositeCells, _CompositeCells]:
        return _composite_cells(self.grid(), self._weights)

    def density(self, x):
        return ssvi_density(self.params, self.maturity, x)

    def logm_density(self, k):
        return ssvi_logm_density(self.params, self.maturity, k)

    def _weights(self, k) -> tuple[np.ndarray, np.ndarray]:
        """The log-moneyness density and spot S = F e^k times it, at ``k``."""
        q = self.logm_density(k)
        return q, self.forward * np.exp(k) * q

    def log_moment_table(self, lo, hi, ref, deg: int) -> np.ndarray:
        """Table in log-moneyness k: integrals of (k - ref_i)^d dQ over [lo_i, hi_i]."""
        return self._tables(self._cells[:1], lambda k: (self.logm_density(k),), lo, hi, ref, deg)[0]

    def log_moment_tables(self, lo, hi, ref, deg: int) -> tuple[np.ndarray, np.ndarray]:
        """The table of ``log_moment_table``, bit for bit, and that of
        (k - ref_i)^d S dQ with S = F e^k, for the same intervals, from one
        density evaluation on their partial cells."""
        return tuple(self._tables(self._cells, self._weights, lo, hi, ref, deg))

    def _tables(self, cells, weights, lo, hi, ref, deg: int) -> list[np.ndarray]:
        lo, hi, ref = _table_args(lo, hi, ref, deg)
        tables = _composite_table(cells, weights, lo.ravel(), hi.ravel(), ref.ravel(), deg)
        return [table.reshape(lo.shape + (deg + 1,)) for table in tables]


# ---------------------------------------------------------------------------
# adaptive quadrature (embedded Gauss rules, vectorized integrand)
# ---------------------------------------------------------------------------

def adaptive_quad(f: Callable, a: float, b: float, tol: float, max_depth: int = 40) -> float:
    """Adaptive integration with an embedded 7/15-point Gauss pair.

    The integrand must accept numpy arrays.  Intervals are split until the
    difference between the two rules is below the locally allotted share
    of ``tol``.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise PriorError("adaptive quadrature needs finite bounds")
    if b <= a:
        return 0.0
    x7, w7 = gauss_legendre_rule(7)
    x15, w15 = gauss_legendre_rule(15)

    total = 0.0
    stack = [(a, b, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        f15 = f(mid + half * x15)
        i15 = half * float(w15 @ np.asarray(f15, dtype=float))
        i7 = half * float(w7 @ np.asarray(f(mid + half * x7), dtype=float))
        err = abs(i15 - i7)
        local_tol = tol * max((hi - lo) / (b - a), 1e-12)
        if err <= local_tol or depth >= max_depth:
            total += i15
        else:
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return total


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def _forward_curve_ok(curve, section) -> bool:
    rows = np.atleast_2d(curve)  # a flat forward is one row of one column
    return rows.size > 0 and bool(np.all(rows[:, -1] > 0.0) and np.all(np.diff(rows[:, 0]) > 0.0))


FORWARD_CURVE = Check(_forward_curve_ok, "be a positive forward or [maturity, forward > 0] rows of rising maturity")

# one declaration per prior type; the fields are the prior classes' own
PRIOR = tagged("type", {
    "bachelier": {"mean": Field(NUMBER), "variance": Field(NUMBER, check=POSITIVE)},
    "lognormal": {"forward": Field(NUMBER, check=POSITIVE), "total_variance": Field(NUMBER, check=at_least(0))},
    "ssvi": {
        "C": Field(NUMBER, check=at_least(0)),
        "K": Field(NUMBER, check=POSITIVE),
        "rho": Field(NUMBER, check=Check(lambda v, s: -1.0 < v < 1.0, "lie in (-1, 1)")),
        "eta": Field(NUMBER, check=POSITIVE),
        "gamma": Field(NUMBER, check=Check(lambda v, s: 0.0 < v < 1.0, "lie in (0, 1)")),
        "forward_curve": Field(either(NUMBER, array(2)), 1.0, FORWARD_CURVE),
    },
})


def prior_from_json(obj: dict):
    """The prior a JSON description declares (``PRIOR``); a description that
    does not match it is a ``PriorError`` naming the field."""
    fields = read(obj, PRIOR, "prior", PriorError)
    kind = fields.pop("type")
    return {"bachelier": BachelierPrior, "lognormal": LogNormalPrior, "ssvi": SSVIParams}[kind](**fields)
