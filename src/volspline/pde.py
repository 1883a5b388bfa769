"""Galerkin B-spline solver for the forward equation of a density ratio.

Instead of evolving the transition density itself (whose initial condition
is a Dirac mass), the solver evolves the ratio of the model density to a
constant-variance Gaussian base density.  The ratio starts at the constant
1, which the flat-extrapolation spline basis represents exactly, and obeys
a linear advection-diffusion-reaction equation whose coefficients involve
the base density's log-derivatives.

Testing against the compact-support basis functions yields a banded system
``A dw/dt = B(t) w`` that is two equations short.  Closing it directly
with the unit-mass and mean integral rows is numerically blind to the
wing coefficients while the base density has not yet spread to the knot
boundary (the rows' wing entries underflow), which leaves exponentially
growing boundary-layer modes.  The stepping therefore closes the system
with strong-form collocation of the equation at the two boundary knots,
and then projects each accepted step exactly onto the mass/mean
constraint manifold, so the integral conditions hold at every step by
construction.  The base law at time t is the surface's Bachelier slice
measure (``PDEProblem.base_measure``): the mass/mean rows are its mass and
forward rows, and ``Trajectory.slice`` is the law at a step.  Each step
system is square: the banded Galerkin rows plus the two collocation rows,
over the interior trial functions and the two flat-wing columns.
``solve_bordered_banded`` solves it as one dense system.

Nothing of a step but its right-hand side depends on the weights.
``assemble``, ``collocation_rows`` and ``constrain`` therefore take one
time or a vector of times: ``evolve`` computes the weak form, the
collocation rows and the mass/mean rows of a block of steps in one call of
each, then solves the block's steps one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from volspline.bspline import BasisSpec, CompiledBasis, Spline, gauss_legendre_rule, live_pieces, piece_integrals
from volspline.config import ConfigError
from volspline.priors import BachelierPrior
from volspline.surface import RNSlice, slice_measure

__all__ = [
    "PDEError", "VarianceCoef", "ConstantVariance", "AffineVariance", "PDEProblem", "GalerkinSystem", "Trajectory",
    "assemble", "constrain", "collocation_rows", "evolve", "local_variance_range", "solve_bordered_banded",
]


class PDEError(ValueError):
    """Invalid problem data or a numerically failed evolution."""


class VarianceCoef:
    """Local variance surface v(t, x) with the two spatial derivatives.

    ``value``, ``dx`` and ``dxx`` take a float ``t`` or a column of times
    (shape ``(n, 1)``) with a vector ``x``, and return arrays that broadcast
    to ``(n, x.size)``: row i at time ``t[i]``.  A surface that does not
    depend on t may return the shape of ``x``.
    """

    def value(self, t, x):  # pragma: no cover - interface
        raise NotImplementedError

    def dx(self, t, x):
        raise NotImplementedError

    def dxx(self, t, x):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantVariance(VarianceCoef):
    v: float

    def value(self, t, x):
        return np.full_like(np.asarray(x, dtype=float), self.v)

    def dx(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    dxx = dx


@dataclass(frozen=True)
class AffineVariance(VarianceCoef):
    """v(t, x) = intercept + slope * x; must stay positive on the knot span."""

    intercept: float
    slope: float

    def value(self, t, x):
        return self.intercept + self.slope * np.asarray(x, dtype=float)

    def dx(self, t, x):
        return np.full_like(np.asarray(x, dtype=float), self.slope)

    def dxx(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class PDEProblem:
    local_variance: VarianceCoef
    base_variance: float
    s0: float
    basis: BasisSpec
    horizon: float

    def __post_init__(self) -> None:
        if self.base_variance <= 0.0 or self.horizon <= 0.0:
            raise PDEError("base variance and horizon must be positive")
        if self.basis.truncation != 0:
            raise PDEError(
                "only flat (order-0) extrapolation is supported; higher-order "
                "extrapolation needs extra side conditions that are not implemented"
            )
        low, peak = local_variance_range(self.local_variance, self.basis, self.horizon)
        g = self.basis.knots.knots
        # the check points hold the smallest constant or affine variance on the span; other forms
        # meet the step functions' own check at every point where they are evaluated
        if isinstance(self.local_variance, (ConstantVariance, AffineVariance)) and low[0] <= 0.0:
            v, t, x = low
            raise PDEError(
                f"the local variance must be positive on the knot span [{float(g[0])!r}, {float(g[-1])!r}] "
                f"over [0, {self.horizon!r}]; it reaches {v!r} at t = {t!r}, x = {x!r}"
            )
        # the base must dominate the local variance on the knot span over [0, horizon]: where the local
        # variance exceeds it, the ratio to the base law grows like exp(z**2 (1/v0 - 1/v) / 2t) toward the
        # boundary knots, which the flat wings cannot follow
        if peak[0] > self.base_variance:
            v, t, x = peak
            raise PDEError(
                f"base_variance {self.base_variance!r} is below the local variance {v!r} at t = {t!r}, "
                f"x = {x!r}; the base must dominate the local variance on the knot span [{float(g[0])!r}, "
                f"{float(g[-1])!r}] over [0, {self.horizon!r}], so base_variance must be at least {v!r}"
            )

    def base_measure(self, t):
        """The base law N(s0, v0 t), ``slice_measure(BachelierPrior(s0, v0), t, s0)``; ``t`` may be a column."""
        return slice_measure(BachelierPrior(self.s0, self.base_variance), t, self.s0)


def local_variance_range(local_variance: VarianceCoef, basis: BasisSpec, horizon: float):
    """The smallest and the largest local variance where the steps evaluate it, each as ``(v, t, x)``: at
    the breakpoints and the Gauss-Legendre points of the knot intervals, at ``_CHECK_TIMES`` evenly spaced
    times from 0 to ``horizon``, which is exact for the constant and affine variances."""
    g = basis.compiled().breakpoints
    xs = np.concatenate([g, _interval_rule(g)[0]])
    ts = np.linspace(0.0, horizon, _CHECK_TIMES)
    v = np.broadcast_to(np.asarray(local_variance.value(ts[:, None], xs), dtype=float), (ts.size, xs.size))

    def at(flat: int) -> tuple[float, float, float]:
        i, j = np.unravel_index(flat, v.shape)
        return float(v[i, j]), float(ts[i]), float(xs[j])

    return at(np.argmin(v)), at(np.argmax(v))


@dataclass(frozen=True)
class GalerkinSystem:
    """Mass and stiffness blocks tested against the interior basis functions.

    ``mass_full`` is the square (trial x trial) Gram, symmetric positive
    definite and banded; ``mass`` and ``stiffness`` keep only the rows of
    the compact-support test functions (two fewer than the trial count).
    Assembled for a vector of times, ``stiffness`` stacks one per time.
    """

    mass: np.ndarray
    stiffness: np.ndarray
    mass_full: np.ndarray


GL_POINTS = 10  # Gauss-Legendre points per knot interval in the weak form
_CHECK_TIMES = 17  # times on [0, horizon] at which PDEProblem checks the local variance
_BLOCK_STEPS = 10  # steps whose operators evolve holds at once
_BLOWUP = 1e6  # largest |weight| evolve accepts
_RANNACHER = 2  # fully implicit steps that start a cn march
_SINGULAR = 1.0 / np.finfo(float).eps  # condition number past which a step system counts as singular


class _StepTables(NamedTuple):
    """Time-invariant basis data that every step of ``evolve`` reuses."""

    xs: np.ndarray  # Gauss-Legendre points on the knot intervals, interval by interval
    ws: np.ndarray  # their weights
    products: np.ndarray  # (intervals, 3 * GL_POINTS, (order + 1)**2) local products, see _basis_tables
    scatter: np.ndarray  # flat index of each local entry in a dense (dimension x dimension) matrix
    dimension: int
    pts: np.ndarray  # the two boundary knots
    B0: np.ndarray  # basis values at pts, (2, dimension)
    B1: np.ndarray  # first derivatives there
    B2: np.ndarray  # second derivatives there
    pieces: tuple  # live_pieces of the compiled basis


def _interval_rule(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of the ``GL_POINTS`` Gauss-Legendre rule on each
    nonempty interval between the breakpoints ``g``, interval by interval."""
    xs_n, ws_n = gauss_legendre_rule(GL_POINTS)
    a, b = g[:-1], g[1:]
    live = b > a
    mid, half = 0.5 * (a + b)[live, None], 0.5 * (b - a)[live, None]
    return (mid + half * xs_n).reshape(-1), (half * ws_n).reshape(-1)


def _basis_tables(cb: CompiledBasis) -> _StepTables:
    """Gauss-Legendre points and weights on the knot intervals with the
    local basis products there, the basis and its first two derivatives at
    the boundary knots, and the live polynomial pieces.

    On a knot interval only the ``order + 1`` functions of its piece's
    window (``CompiledBasis.window``) are nonzero, and ``CompiledBasis.active``
    gives their values.  For each interval ``products`` holds, at each of
    its Gauss points, the outer products ``b_a b_b``, ``b_a b_b'`` and
    ``b_a' b_b'`` of those functions, stacked along the point axis in that
    order; ``scatter`` places local entry ``(a, b)`` at its global
    (test, trial) position.  A function the truncation drops has zero
    values and borrows column 0, so its products add nothing.
    """
    g = cb.breakpoints
    live = np.nonzero(g[1:] > g[:-1])[0]
    xs, ws = _interval_rule(g)
    pts = np.array([g[0], g[-1]])
    d1 = cb.derivative()
    dim, size = cb.coeffs.shape[0], cb.order + 1
    V, D = (b.active(xs)[1].reshape(live.size, GL_POINTS, size) for b in (cb, d1))
    products = np.concatenate(
        [V[..., :, None] * V[..., None, :], V[..., :, None] * D[..., None, :], D[..., :, None] * D[..., None, :]], axis=1
    ).reshape(live.size, 3 * GL_POINTS, size * size)
    # interval [g[i], g[i+1]) is piece i + 1; a dropped function's spare index, dim, wraps to 0
    cols = cb.window[0][live + 1] % dim
    scatter = (cols[:, :, None] * dim + cols[:, None, :]).reshape(-1)
    for arr in (xs, ws, products, scatter):
        arr.setflags(write=False)
    return _StepTables(
        xs=xs,
        ws=ws,
        products=products,
        scatter=scatter,
        dimension=dim,
        pts=pts,
        B0=cb.evaluate(pts),
        B1=d1.evaluate(pts),
        B2=d1.derivative().evaluate(pts),
        pieces=live_pieces(cb),
    )


def _step_times(t) -> np.ndarray:
    """The times of a step function's call as a nonempty 1-D float array,
    every one positive: the base density is degenerate at t = 0."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1 or not ts.size:
        raise PDEError(f"times must be a float or a nonempty 1-D array, got shape {ts.shape}")
    if not np.all(ts > 0.0):
        raise PDEError("coefficients are defined for t > 0")
    return ts


def _base_relative(problem: PDEProblem, ts: np.ndarray, x: np.ndarray):
    """Coefficients at points x and times ts, relative to the Gaussian base.

    Returns the local variance ``v``, its slope ``vx``, the base density's
    log-derivative ``g1 = dlog(phi0)/dx`` and the reaction coefficient
    ``e``, which collects the second-derivative terms through
    ``g2 = phi0''/phi0``; each broadcasts to ``(ts.size, x.size)``, row i
    at time ``ts[i]``.  ``ts`` comes from ``_step_times``; the variance
    must be positive at every point.
    """
    t = ts[:, None]
    v = np.asarray(problem.local_variance.value(t, x), dtype=float)
    if np.any(v <= 0.0):
        raise PDEError("local variance must be positive on the domain")
    vx = np.asarray(problem.local_variance.dx(t, x), dtype=float)
    vxx = np.asarray(problem.local_variance.dxx(t, x), dtype=float)
    v0 = problem.base_variance
    z = x - problem.s0
    g1 = -z / (v0 * t)
    g2 = (z**2 - v0 * t) / (v0 * t) ** 2
    e = 0.5 * (vxx + 2.0 * vx * g1 + (v - v0) * g2)
    return v, vx, g1, e


def assemble(problem: PDEProblem, t, tables=None) -> GalerkinSystem:
    """Weak-form matrices at time t, a float or a 1-D array of times.

    Rows correspond to the compact-support test functions; columns to the
    full trial basis including the two constant wings.  The advection
    coefficient is ``v dlog(phi0)/dx + v_x / 2`` and the reaction term
    collects the base-relative second-derivative terms; both involve only
    polynomial ratios for the Gaussian base.  ``tables`` are the
    time-invariant basis tables of ``_basis_tables``; without them they are
    built from the basis.

    The integrals are the Gauss-Legendre rule of ``GL_POINTS`` points per
    knot interval, formed one interval at a time.  For every time and
    interval one ``(2, 3 GL_POINTS)`` matrix of factors, the quadrature
    weights times the coefficients, contracts the local products of the
    ``order + 1`` live functions into one mass block and one stiffness block
    (diffusion, advection and reaction together), in one stacked matmul for
    all of them, and one ``bincount`` sums the blocks into the dense
    matrices.  Each contraction is one time's own small product, so every
    time's matrices are those of a call at that time alone, bit for bit: a
    product of all the times' rows at once may round differently with the
    row count.
    """
    ts = _step_times(t)
    tables = _basis_tables(problem.basis.compiled()) if tables is None else tables
    xs, ws, products, dim = tables.xs, tables.ws, tables.products, tables.dimension
    v, vx, g1, e = _base_relative(problem, ts, xs)
    c = 0.5 * vx + v * g1
    # per time, row, interval and Gauss point, the factors of b_a b_b, b_a b_b' and b_a' b_b'
    factors = np.zeros((ts.size, 2, 3, ws.size))
    factors[:, 0, 0] = ws
    factors[:, 1, 0] = ws * e  # reaction
    factors[:, 1, 1] = ws * c  # advection: [a, b] = int c b_b' b_a
    factors[:, 1, 2] = -0.5 * ws * v  # diffusion
    n_int = products.shape[0]
    factors = factors.reshape(ts.size, 2, 3, n_int, GL_POINTS).transpose(0, 3, 1, 2, 4)
    blocks = factors.reshape(ts.size, n_int, 2, 3 * GL_POINTS) @ products  # (times, intervals, 2, (order + 1)**2)
    # the mass from the first time, then each time's stiffness
    blocks = np.concatenate([blocks[:1, :, 0], blocks[:, :, 1]])
    index = (np.arange(1 + ts.size)[:, None] * (dim * dim) + tables.scatter).reshape(-1)
    flat = np.bincount(index, blocks.reshape(-1), minlength=(1 + ts.size) * dim * dim)
    full = flat.reshape(1 + ts.size, dim, dim)
    stiffness = full[1:, 1:-1, :]
    return GalerkinSystem(
        mass=full[0, 1:-1, :], stiffness=stiffness[0] if np.ndim(t) == 0 else stiffness, mass_full=full[0]
    )


def constrain(problem: PDEProblem, t, tables=None) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mass and mean integral rows at time t, a float or a 1-D array of
    times; for a vector each row stacks one row per time.

    The rows are the mass and forward rows of the base slice measure
    (``PDEProblem.base_measure``) over the live pieces, from one stacked
    Gaussian table of degree order + 1 for all the times.  The pieces come
    from ``tables`` (see ``assemble``) when given, else from the basis.
    """
    ts = _step_times(t)
    lo, hi, refs, coeffs = live_pieces(problem.basis.compiled()) if tables is None else tables.pieces
    mass_table, spot_table = problem.base_measure(ts[:, None]).moment_tables(lo, hi, refs, coeffs.shape[2] - 1)
    mass, mean = piece_integrals(coeffs, mass_table, total=True), piece_integrals(coeffs, spot_table, total=True)
    return (mass[0], mean[0]) if np.ndim(t) == 0 else (mass, mean)


def collocation_rows(problem: PDEProblem, t, tables=None) -> tuple[np.ndarray, np.ndarray]:
    """Value rows and strong-form operator rows at the two boundary knots
    at time t, a float or a 1-D array of times; for a vector the operator
    rows stack one ``(2, dimension)`` block per time.

    These close the banded test system: the equation itself is imposed
    pointwise where the integral conditions cannot yet see the wings.  The
    basis and its derivatives at the knots come from ``tables`` (see
    ``assemble``) when given, else from the basis.
    """
    tables = _basis_tables(problem.basis.compiled()) if tables is None else tables
    v, vx, g1, e = _base_relative(problem, _step_times(t), tables.pts)
    c_strong = vx + v * g1  # strong-form advection (no integration by parts)
    op = 0.5 * v[..., None] * tables.B2 + c_strong[..., None] * tables.B1 + e[..., None] * tables.B0
    return tables.B0, op[0] if np.ndim(t) == 0 else op


def solve_bordered_banded(
    band: np.ndarray,
    border: np.ndarray,
    rhs_band: np.ndarray,
    rhs_border: np.ndarray,
) -> np.ndarray:
    """Solve ``[band; border] x = [rhs_band; rhs_border]`` for banded rows
    plus two dense border rows.

    In a step of ``evolve`` the ``band`` rows are the Galerkin rows of the
    compact-support test functions and the ``border`` rows the boundary
    collocation rows; together they make one square system, which is
    stacked and solved densely (LAPACK ``gesv`` through
    ``np.linalg.solve``, pivoting over all the rows).  A stack that is not
    square raises ``PDEError``, and so does a singular one: one whose LU
    meets a zero pivot, or whose condition number is past
    ``1 / machine epsilon``, where a pivot is zero but for rounding.  The
    condition test solves the fixed probe ``p = cos(0, 1, ..., d - 1)``
    along with the right-hand side, and ``max |lhs| max |lhs^-1 p|`` bounds
    the condition number from below.  The inputs are not checked for
    finiteness: a non-finite entry gives a non-finite answer, or the
    singular-system ``PDEError`` when LAPACK's arithmetic on it signals.
    """
    band, border = np.asarray(band, dtype=float), np.asarray(border, dtype=float)
    r, d = band.shape if band.ndim == 2 else (-1, -1)
    if border.shape != (2, d) or r + 2 != d:
        raise PDEError("bordered system is not square")
    lhs = np.vstack([band, border])
    rhs = np.empty((d, 2))
    rhs[:r, 0], rhs[r:, 0], rhs[:, 1] = rhs_band, rhs_border, np.cos(np.arange(d))
    try:
        x = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise PDEError("bordered system is singular") from exc
    if np.abs(lhs).max() * np.abs(x[:, 1]).max() > _SINGULAR:
        raise PDEError("bordered system is singular")
    return x[:, 0]


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    weights: np.ndarray  # (n_times, dim)
    problem: PDEProblem
    # (n_times - 1,): per step, ||R w - [1, s0]|| of the mass/mean rows R
    # before the projection, how far the collocation closure drifted
    projection: np.ndarray
    # (n_times - 1,): per step, max |w| of the accepted weights, which the
    # blow-up guard holds at or below 1e6
    max_abs_weight: np.ndarray

    def ratio(self, k: int, xs):
        return Spline(self.problem.basis, self.weights[k])(np.asarray(xs, dtype=float))

    def ratios(self, xs) -> np.ndarray:
        """``ratio(k, xs)`` of every time k, one row each; the points are
        located once for all the times."""
        return self.problem.basis.compiled().spline_rows(self.weights, xs)

    def slice(self, k: int) -> RNSlice:
        """The law at ``times[k]``: the surface slice of weights k on the base
        measure, with the surface's ``density`` and ``call_price``."""
        t = float(self.times[k])
        if t <= 0.0:
            raise PDEError("the law at t = 0 is the initial Dirac mass")
        return RNSlice(self.problem.basis, self.weights[k], t, self.problem.s0, self.problem.base_measure(t))


class _StepOperators(NamedTuple):
    """What a block of steps needs that does not depend on the weights:
    entry s of each field belongs to the block's step s."""

    lhs_band: np.ndarray  # (n, r, d): A - theta dt B, the implicit part
    lhs_border: np.ndarray  # (n, 2, d): the collocation rows' implicit part
    rhs_band: np.ndarray  # (n, r, d): A + (1 - theta) dt B, applied to the weights
    rhs_border: np.ndarray  # (n, 2, d): the collocation rows' explicit part
    rows: np.ndarray  # (n, 2, d): the mass and mean rows at each step's end
    gram: np.ndarray  # (n, 2, 2): rows @ rows.T


def _step_operators(problem: PDEProblem, tables: _StepTables, times: np.ndarray, theta: np.ndarray) -> _StepOperators:
    """The operators of the steps ``times[m] -> times[m + 1]``, step m with
    implicitness ``theta[m]``, every coefficient at the step's midpoint and
    the mass/mean rows at its end."""
    t0, t1 = times[:-1], times[1:]
    dt = t1 - t0
    tm = 0.5 * (t0 + t1)
    system = assemble(problem, tm, tables)
    A, B = system.mass, system.stiffness
    vals, op = collocation_rows(problem, tm, tables)
    implicit = (theta * dt)[:, None, None]
    explicit = ((1.0 - theta) * dt)[:, None, None]
    rows = np.stack(constrain(problem, t1, tables), axis=1)
    return _StepOperators(
        A - implicit * B, vals - implicit * op, A + explicit * B, vals + explicit * op, rows, rows @ rows.transpose(0, 2, 1)
    )


def evolve(
    problem: PDEProblem,
    steps: int,
    scheme: str = "cn",
) -> Trajectory:
    """March the constrained system from the constant initial ratio.

    Schemes: ``explicit``, ``implicit`` or ``cn`` (trapezoidal).  Under
    ``cn`` the first two steps (``_RANNACHER``) run fully implicit, which
    damps the stiff startup layer (Rannacher 1984).
    The matrices are evaluated at each step's midpoint, which keeps the
    trapezoidal scheme second order and avoids the coefficient singularity
    at t = 0.  Mass and mean are re-imposed exactly after every step, and
    the size of each correction is recorded in ``Trajectory.projection``;
    ``Trajectory.max_abs_weight`` records the largest weight of each step,
    which must stay below ``1e6``.

    The time-invariant basis tables are built once.  The steps are taken in
    blocks of 10: one call each of ``assemble``, ``collocation_rows`` and
    ``constrain`` with the block's times gives the block's step matrices,
    and each step is one call of ``solve_bordered_banded``.  ``evolve`` is
    thus the composition of the four public step functions: each step's
    weights are those of their single-time calls, bit for bit.  An unknown
    ``scheme`` or fewer than one step is a ``ConfigError``.
    """
    theta = {"explicit": 0.0, "implicit": 1.0, "cn": 0.5}.get(scheme)
    if theta is None:
        raise ConfigError(f"unknown scheme {scheme!r}; expected 'explicit', 'implicit' or 'cn'")
    if not steps >= 1:
        raise ConfigError(f"steps must be at least 1, got {steps!r}")
    basis = problem.basis
    dim = basis.dimension
    times = np.linspace(0.0, problem.horizon, steps + 1)
    thetas = np.full(steps, theta)
    if scheme == "cn":
        thetas[:_RANNACHER] = 1.0

    # startup check: the truncated basis must reproduce the constant 1
    g = basis.knots.knots
    probe = np.linspace(g[0] - (g[-1] - g[0]), g[-1] + (g[-1] - g[0]), 101)
    ones = basis.compiled().evaluate(probe) @ np.ones(dim)
    if np.abs(ones - 1.0).max() > 1e-10:
        raise PDEError("basis does not represent the constant initial ratio exactly")

    tables = _basis_tables(basis.compiled())
    target = np.array([1.0, problem.s0])
    W = np.empty((times.size, dim))
    projection = np.empty(steps)
    max_abs = np.empty(steps)
    W[0] = 1.0
    w = W[0].copy()
    for start in range(0, steps, _BLOCK_STEPS):
        stop = min(start + _BLOCK_STEPS, steps)
        ops = _step_operators(problem, tables, times[start : stop + 1], thetas[start:stop])
        for s, m in enumerate(range(start, stop)):
            rhs_band, rhs_border = ops.rhs_band[s] @ w, ops.rhs_border[s] @ w
            w_new = solve_bordered_banded(ops.lhs_band[s], ops.lhs_border[s], rhs_band, rhs_border)
            # exact mass/mean projection: the integral conditions hold at every
            # accepted step by construction
            R = ops.rows[s]
            resid = R @ w_new - target
            projection[m] = math.sqrt(resid.dot(resid))
            w_new = w_new - R.T @ np.linalg.solve(ops.gram[s], resid)
            max_abs[m] = peak = np.abs(w_new).max()
            if not peak <= _BLOWUP:  # also NaN
                msg = f"weights blew up at step {m + 1} (t={times[m + 1]:g}, max |w| = {peak:.3g})"
                if thetas[m] == 0.0:
                    msg += "; the explicit scheme violates its stability bound"
                raise PDEError(msg)
            w = w_new
            W[m + 1] = w
    return Trajectory(times=times, weights=W, problem=problem, projection=projection, max_abs_weight=max_abs)
