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
construction.  Each step system is banded in the interior trial functions
plus two flat-wing columns and two collocation rows; one banded LU of the
interior block and a 2 x 2 Schur complement for the wings solve it.

Nothing of a step but its right-hand side depends on the weights.
``assemble``, ``collocation_rows`` and ``constrain`` therefore take one
time or a vector of times: ``evolve`` computes the weak form, the
collocation rows and the mass/mean rows of a block of steps in one call of
each, and factors each step system before the block is marched.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from volspline.bspline import BasisSpec, CompiledBasis, gauss_legendre_rule, live_pieces
from volspline.priors import BachelierPrior, ConfigError, normal_moment_table

__all__ = [
    "PDEError",
    "VarianceCoef",
    "ConstantVariance",
    "AffineVariance",
    "PDEProblem",
    "GalerkinSystem",
    "Trajectory",
    "assemble",
    "constrain",
    "collocation_rows",
    "evolve",
    "solve_bordered_banded",
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
    """v(t, x) = intercept + slope * x; must stay positive on the domain."""

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
        v00 = float(np.asarray(self.local_variance.value(0.0, np.array([self.s0]))).reshape(-1)[0])
        if abs(v00 - self.base_variance) > 1e-10 * self.base_variance:
            warnings.warn(
                "local variance at (0, s0) differs from the base variance; the "
                "ratio develops a stiff early transient",
                stacklevel=2,
            )

    def base_density(self, t: float) -> BachelierPrior:
        return BachelierPrior(self.s0, self.base_variance * t)


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
_BLOCK_STEPS = 10  # steps whose operators evolve holds at once
_BLOWUP = 1e6  # largest |weight| evolve accepts


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


def _basis_tables(cb: CompiledBasis) -> _StepTables:
    """Gauss-Legendre points and weights on the knot intervals with the
    local basis products there, the basis and its first two derivatives at
    the boundary knots, and the live polynomial pieces.

    On a knot interval only the ``order + 1`` functions that start at its
    piece index are nonzero.  For each interval ``products`` holds, at each
    of its Gauss points, the outer products ``b_a b_b``, ``b_a b_b'`` and
    ``b_a' b_b'`` of those functions, stacked along the point axis in that
    order; ``scatter`` places local entry ``(a, b)`` at its global
    (test, trial) position.  A function the truncation drops has zero
    values and borrows column 0, so its products add nothing.
    """
    g = cb.breakpoints
    xs_n, ws_n = gauss_legendre_rule(GL_POINTS)
    a, b = g[:-1], g[1:]
    live = np.nonzero(b > a)[0]
    mid, half = 0.5 * (a + b)[live, None], 0.5 * (b - a)[live, None]
    xs = (mid + half * xs_n).reshape(-1)
    ws = (half * ws_n).reshape(-1)
    pts = np.array([g[0], g[-1]])
    d1 = cb.derivative()
    dim, size = cb.coeffs.shape[0], cb.order + 1
    # interval [g[i], g[i+1]) is piece i + 1, whose first live function has full index i + 1
    cols = live[:, None] + 1 - cb.first_index + np.arange(size)
    kept = (cols >= 0) & (cols < dim)
    cols = np.where(kept, cols, 0)

    def local(values):  # (intervals, points, order + 1) values of the live functions
        values = values.reshape(live.size, GL_POINTS, dim)
        return np.take_along_axis(values, cols[:, None, :], axis=2) * kept[:, None, :]

    V, D = local(cb.evaluate(xs)), local(d1.evaluate(xs))
    products = np.concatenate(
        [V[..., :, None] * V[..., None, :], V[..., :, None] * D[..., None, :], D[..., :, None] * D[..., None, :]], axis=1
    ).reshape(live.size, 3 * GL_POINTS, size * size)
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


def _base_relative(problem: PDEProblem, ts: np.ndarray, x: np.ndarray):
    """Coefficients at points x and times ts, relative to the Gaussian base.

    Returns the local variance ``v``, its slope ``vx``, the base density's
    log-derivative ``g1 = dlog(phi0)/dx`` and the reaction coefficient
    ``e``, which collects the second-derivative terms through
    ``g2 = phi0''/phi0``; each broadcasts to ``(ts.size, x.size)``, row i
    at time ``ts[i]``.  ``ts`` must be a nonempty vector, every time
    positive and the variance positive at every point.
    """
    if ts.ndim != 1 or not ts.size:
        raise PDEError(f"times must be a float or a nonempty 1-D array, got shape {ts.shape}")
    if not np.all(ts > 0.0):
        raise PDEError("coefficients are defined for t > 0")
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
    ts = np.atleast_1d(np.asarray(t, dtype=float))
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
    """Unit-mass and mean integral rows against the base density at time t,
    a float or a 1-D array of times; for a vector each row stacks one row
    per time.

    One Gaussian moment table of degree order + 1 over all the base
    variances serves both rows: the mean row integrates
    x b_j = ((x - ref) + ref) b_j piece by piece.  The pieces come from
    ``tables`` (see ``assemble``) when given, else from the basis.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    lo, hi, refs, coeffs = live_pieces(problem.basis.compiled()) if tables is None else tables.pieces
    table = normal_moment_table(problem.s0, problem.base_variance * ts[:, None], lo, hi, refs, coeffs.shape[2])
    mass = np.einsum("jid,sid->sj", coeffs, table[..., :-1])
    mean = np.einsum("jid,sid->sj", coeffs, table[..., 1:] + refs[:, None] * table[..., :-1])
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
    v, vx, g1, e = _base_relative(problem, np.atleast_1d(np.asarray(t, dtype=float)), tables.pts)
    c_strong = vx + v * g1  # strong-form advection (no integration by parts)
    op = 0.5 * v[..., None] * tables.B2 + c_strong[..., None] * tables.B1 + e[..., None] * tables.B0
    return tables.B0, op[0] if np.ndim(t) == 0 else op


@functools.lru_cache(maxsize=16)  # evolve asks for the same layout once per block of steps
def _band_layout(r: int, bandwidth: int):
    """The outside-band mask of an ``r x r`` block, the (row, column)
    indices of its in-band entries and their rows in LAPACK gbtrf band
    storage ``ab[2 bw + i - j, j]`` (the top ``bw`` rows take the LU
    fill-in), built once per size and bandwidth and read-only."""
    outside = np.abs(np.subtract.outer(np.arange(r), np.arange(r))) > bandwidth
    i, j = np.nonzero(~outside)
    layout = (outside, i, j, 2 * bandwidth + i - j)
    for arr in layout:
        arr.setflags(write=False)
    return layout


class _BorderedLU(NamedTuple):
    """A stack of factored bordered systems (see ``solve_bordered_banded``);
    entry s of each field belongs to system s."""

    bandwidth: int
    lu: list  # the gbtrf band factors of each interior block (empty without an interior)
    piv: list  # their pivots
    inner: np.ndarray  # (n, 2, r): the border rows on the interior columns
    wings: np.ndarray  # (n, r, 2): each interior block solved against its two wing columns
    schur: np.ndarray  # (n, 2, 2): the Schur complement of the wing unknowns


def _factor_bordered(band: np.ndarray, border: np.ndarray, bandwidth: int) -> _BorderedLU:
    """Factor the systems ``[band[s]; border[s]]`` of a stack: the banded
    LU of each interior block (LAPACK ``dgbtrf``), its solves against the
    two wing columns (``dgbtrs``) and the 2 x 2 Schur complement.  A zero
    pivot raises ``PDEError``, and so does an interior entry outside the
    bandwidth or a stack of the wrong shape."""
    from scipy.linalg.lapack import dgbtrf, dgbtrs  # here, so that importing pde does not load scipy.linalg

    n, r, d = band.shape
    if border.shape != (n, 2, d) or r + 2 != d:
        raise PDEError("bordered system is not square")
    outside, i, j, ab_rows = _band_layout(r, bandwidth)
    if np.any(band[:, :, 1:-1][:, outside]):
        raise PDEError("interior block is wider than the bandwidth")
    lus, pivs = [], []
    # wings[s].T, Fortran-ordered, holds system s's two wing columns and then
    # their interior solves
    wings = np.empty((n, 2, r))
    wings[:, 0], wings[:, 1] = band[:, :, 0], band[:, :, -1]
    if r:  # gbtrf rejects an empty system; without an interior only the wings remain
        # ab[s].T is the Fortran-ordered band storage of system s, which gbtrf overwrites
        ab = np.zeros((n, r, 3 * bandwidth + 1))
        ab[:, j, ab_rows] = band[:, i, j + 1]
        for s in range(n):
            lu, piv, info = dgbtrf(ab[s].T, bandwidth, bandwidth, overwrite_ab=True)
            if info != 0:
                raise PDEError("bordered system is singular")
            y, _ = dgbtrs(lu, bandwidth, bandwidth, wings[s].T, piv, overwrite_b=True)
            wings[s] = y.T
            lus.append(lu)
            pivs.append(piv)
    wings = wings.transpose(0, 2, 1)
    inner = border[:, :, 1:-1]
    schur = border[:, :, [0, -1]] - inner @ wings
    return _BorderedLU(bandwidth, lus, pivs, inner, wings, schur)


def _solve_factored(f: _BorderedLU, s: int, rhs_band: np.ndarray, rhs_border: np.ndarray) -> np.ndarray:
    """Solve system s of a factored stack for one right-hand side: the
    interior block by ``dgbtrs``, the wings by the Schur complement, then
    the interior by back-substitution."""
    y = rhs_band
    if f.lu:
        from scipy.linalg.lapack import dgbtrs

        y, _ = dgbtrs(f.lu[s], f.bandwidth, f.bandwidth, rhs_band[:, None], f.piv[s])
        y = y[:, 0]
    try:
        wings = np.linalg.solve(f.schur[s], rhs_border - f.inner[s] @ y)
    except np.linalg.LinAlgError as exc:
        raise PDEError("bordered system is singular") from exc
    return np.concatenate([wings[:1], y - f.wings[s] @ wings, wings[1:]])


def solve_bordered_banded(
    band: np.ndarray,
    border: np.ndarray,
    rhs_band: np.ndarray,
    rhs_border: np.ndarray,
    bandwidth: int,
) -> np.ndarray:
    """Solve ``[band; border] x = [rhs_band; rhs_border]`` for banded rows
    plus two dense border rows.

    The unknowns split into the interior block ``x[1:-1]`` and the two wing
    columns.  The square interior block ``band[:, 1:-1]``, with ``bandwidth``
    sub- and super-diagonals, takes one banded LU (LAPACK ``dgbtrf``, called
    directly), which solves the two wing columns and ``rhs_band``
    (``dgbtrs``).  The border rows then reduce to a 2 x 2 Schur complement
    for the wing weights, and the interior follows by back-substitution.
    The interior block must be nonsingular, since the LU pivots only inside
    it and never across the border rows; in ``evolve`` it is the symmetric
    positive definite interior mass block minus ``theta dt`` times the
    stiffness.  A zero pivot in either solve raises ``PDEError``, and so
    does an interior entry outside the bandwidth.  The inputs are not
    checked for finiteness: a non-finite entry gives a non-finite answer.
    ``evolve`` factors its step systems ahead and solves each once.
    """
    return _solve_factored(_factor_bordered(band[None], border[None], bandwidth), 0, rhs_band, rhs_border)


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
        from volspline.bspline import Spline

        return Spline(self.problem.basis, self.weights[k])(np.asarray(xs, dtype=float))

    def ratios(self, xs) -> np.ndarray:
        """``ratio(k, xs)`` of every time k, one row each; the points are
        located once for all the times."""
        return self.problem.basis.compiled().spline_rows(self.weights, xs)

    def density(self, k: int, xs):
        t = float(self.times[k])
        if t <= 0.0:
            raise PDEError("density at t = 0 is the initial Dirac mass")
        return self.ratio(k, xs) * self.problem.base_density(t).density(xs)


class _StepOperators(NamedTuple):
    """What a block of steps needs that does not depend on the weights."""

    rhs_band: np.ndarray  # (n, r, d): A + (1 - theta) dt B, applied to the weights
    rhs_border: np.ndarray  # (n, 2, d): the collocation rows' explicit part
    lhs: _BorderedLU  # the factored implicit part
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
    lhs = _factor_bordered(A - implicit * B, vals - implicit * op, problem.basis.order)
    rows = np.stack(constrain(problem, t1, tables), axis=1)
    return _StepOperators(A + explicit * B, vals + explicit * op, lhs, rows, rows @ rows.transpose(0, 2, 1))


def evolve(
    problem: PDEProblem,
    steps: int,
    scheme: str = "cn",
    rannacher: int = 2,
) -> Trajectory:
    """March the constrained system from the constant initial ratio.

    Schemes: ``explicit``, ``implicit`` or ``cn`` (trapezoidal); the first
    ``rannacher`` steps run fully implicit to damp the stiff startup layer.
    The matrices are evaluated at each step's midpoint, which keeps the
    trapezoidal scheme second order and avoids the coefficient singularity
    at t = 0.  Mass and mean are re-imposed exactly after every step, and
    the size of each correction is recorded in ``Trajectory.projection``;
    ``Trajectory.max_abs_weight`` records the largest weight of each step,
    which must stay below ``1e6``.

    The time-invariant basis tables are built once.  The steps are taken in
    blocks of 10: one call each of ``assemble``, ``collocation_rows`` and
    ``constrain`` with the block's times gives its operators, and its step
    systems are factored before it is marched, so a block that cannot be
    formed fails before its first step.  Each step's weights are those of
    composing the single-time calls of those functions with
    ``solve_bordered_banded``, bit for bit.  An unknown ``scheme`` or fewer
    than one step is a ``ConfigError``.
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
        thetas[: max(rannacher, 0)] = 1.0

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
            w_new = _solve_factored(ops.lhs, s, ops.rhs_band[s] @ w, ops.rhs_border[s] @ w)
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
