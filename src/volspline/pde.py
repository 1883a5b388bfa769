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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from volspline.bspline import BasisSpec, CompiledBasis, gauss_legendre_rule, live_pieces
from volspline.priors import BachelierPrior

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
    """Local variance surface v(t, x) with the two spatial derivatives."""

    def value(self, t: float, x):  # pragma: no cover - interface
        raise NotImplementedError

    def dx(self, t: float, x):
        raise NotImplementedError

    def dxx(self, t: float, x):
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
    """

    mass: np.ndarray
    stiffness: np.ndarray
    mass_full: np.ndarray
    bandwidth: int


GL_POINTS = 10  # Gauss-Legendre points per knot interval in the weak form


class _StepTables(NamedTuple):
    """Time-invariant basis data that every step of ``evolve`` reuses."""

    xs: np.ndarray  # Gauss-Legendre points on the knot intervals, interval by interval
    ws: np.ndarray  # their weights
    products: np.ndarray  # (intervals, 3 * GL_POINTS, (order + 1)**2) local products, see _basis_tables
    scatter: np.ndarray  # flat index of each local mass, then stiffness, entry in two stacked dense matrices
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
    order; ``scatter`` places local entry ``(a, b)`` at the global
    (test, trial) position of the mass and then of the stiffness, stacked.
    A function the truncation drops has zero values and borrows column 0,
    so its products add nothing.
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
    scatter = np.concatenate([scatter, scatter + dim * dim])
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


def _base_relative(problem: PDEProblem, t: float, x: np.ndarray):
    """Coefficients at points x and time t, relative to the Gaussian base.

    Returns the local variance ``v``, its slope ``vx``, the base density's
    log-derivative ``g1 = dlog(phi0)/dx`` and the reaction coefficient
    ``e``, which collects the second-derivative terms through
    ``g2 = phi0''/phi0``.  The variance must be positive at every point.
    """
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


def assemble(problem: PDEProblem, t: float, tables=None) -> GalerkinSystem:
    """Weak-form matrices at time t.

    Rows correspond to the compact-support test functions; columns to the
    full trial basis including the two constant wings.  The advection
    coefficient is ``v dlog(phi0)/dx + v_x / 2`` and the reaction term
    collects the base-relative second-derivative terms; both involve only
    polynomial ratios for the Gaussian base.  ``tables`` are the
    time-invariant basis tables of ``_basis_tables``; ``evolve`` builds them
    once for all its steps, and without them they are built from the basis.

    The integrals are formed one knot interval at a time: the quadrature
    weights times the coefficients at the Gauss points contract the local
    products of the ``order + 1`` live functions into one
    ``(order + 1) x (order + 1)`` mass block and one stiffness block
    (diffusion, advection and reaction together) per interval, and the
    blocks are summed into the dense matrices.  This is the Gauss-Legendre
    rule of ``GL_POINTS`` points per interval applied to the full basis,
    without the products of functions that vanish there.
    """
    if t <= 0.0:
        raise PDEError("coefficients are defined for t > 0")
    if tables is None:
        tables = _basis_tables(problem.basis.compiled())
    xs, ws, products, dim = tables.xs, tables.ws, tables.products, tables.dimension
    v, vx, g1, e = _base_relative(problem, t, xs)
    c = 0.5 * vx + v * g1
    # per interval and Gauss point, the factors of b_a b_b, b_a b_b' and b_a' b_b'
    factors = np.zeros((2, 3, ws.size))
    factors[0, 0] = ws
    factors[1] = ws * e, ws * c, -0.5 * ws * v  # reaction, advection [a, b] = int c b_b' b_a, diffusion
    n_int = products.shape[0]
    factors = factors.reshape(2, 3, n_int, GL_POINTS).transpose(2, 0, 1, 3).reshape(n_int, 2, 3 * GL_POINTS)
    blocks = factors @ products  # (intervals, 2, (order + 1)**2): mass and stiffness blocks
    flat = np.bincount(tables.scatter, blocks.transpose(1, 0, 2).reshape(-1), minlength=2 * dim * dim)
    mass_full, stiff_full = flat.reshape(2, dim, dim)
    return GalerkinSystem(
        mass=mass_full[1:-1, :],
        stiffness=stiff_full[1:-1, :],
        mass_full=mass_full,
        bandwidth=problem.basis.order,
    )


def constrain(problem: PDEProblem, t: float, tables=None) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mass and mean integral rows against the base density at time t.

    One moment table of degree order + 1 serves both rows: the mean row
    integrates x b_j = ((x - ref) + ref) b_j piece by piece.  The pieces
    come from ``tables`` (see ``assemble``) when given, else from the basis.
    """
    lo, hi, refs, coeffs = tables.pieces if tables is not None else live_pieces(problem.basis.compiled())
    table = problem.base_density(t).moment_table(lo, hi, refs, coeffs.shape[2])
    mass_row = np.einsum("jid,id->j", coeffs, table[:, :-1])
    mean_row = np.einsum("jid,id->j", coeffs, table[:, 1:] + refs[:, None] * table[:, :-1])
    return mass_row, mean_row


_BAND_LAYOUTS: dict = {}  # (size, bandwidth) -> _band_layout, kept for the few sizes in use


def _band_layout(r: int, bandwidth: int):
    """The outside-band mask of an ``r x r`` block, the (row, column)
    indices of its in-band entries and their rows in LAPACK gbsv band
    storage ``ab[2 bw + i - j, j]`` (the top ``bw`` rows take the LU
    fill-in), built once per size and bandwidth and read-only."""
    key = (r, bandwidth)
    layout = _BAND_LAYOUTS.get(key)
    if layout is None:
        outside = np.abs(np.subtract.outer(np.arange(r), np.arange(r))) > bandwidth
        i, j = np.nonzero(~outside)
        layout = (outside, i, j, 2 * bandwidth + i - j)
        for arr in layout:
            arr.setflags(write=False)
        if len(_BAND_LAYOUTS) >= 16:
            _BAND_LAYOUTS.clear()
        _BAND_LAYOUTS[key] = layout
    return layout


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
    sub- and super-diagonals, takes one banded LU (LAPACK ``dgbsv``, called
    directly) for three right-hand sides: ``rhs_band`` and the two wing
    columns.  The border rows then reduce to a 2 x 2 Schur complement for
    the wing weights, and the interior follows by back-substitution.  The
    interior block must be nonsingular, since the LU pivots only inside it
    and never across the border rows; in ``evolve`` it is the symmetric
    positive definite interior mass block minus ``theta dt`` times the
    stiffness.  A zero pivot in either solve raises ``PDEError``, and so
    does an interior entry outside the bandwidth.  The inputs are not
    checked for finiteness: a non-finite entry gives a non-finite answer.
    """
    from scipy.linalg.lapack import dgbsv  # here, so that importing pde does not load scipy.linalg

    r, d = band.shape
    if border.shape != (2, d) or r + 2 != d:
        raise PDEError("bordered system is not square")
    interior = band[:, 1:-1]
    outside, i, j, ab_rows = _band_layout(r, bandwidth)
    if np.any(interior[outside]):
        raise PDEError("interior block is wider than the bandwidth")
    y = np.column_stack([rhs_band, band[:, 0], band[:, -1]])
    if r:  # gbsv rejects an empty system; without an interior only the wings remain
        ab = np.zeros((3 * bandwidth + 1, r))
        ab[ab_rows, j] = interior[i, j]
        _, _, y, info = dgbsv(bandwidth, bandwidth, ab, y, overwrite_ab=True, overwrite_b=True)
        if info != 0:
            raise PDEError("bordered system is singular")
    inner = border[:, 1:-1]
    schur = border[:, [0, -1]] - inner @ y[:, 1:]
    try:
        wings = np.linalg.solve(schur, rhs_border - inner @ y[:, 0])
    except np.linalg.LinAlgError as exc:
        raise PDEError("bordered system is singular") from exc
    return np.concatenate([wings[:1], y[:, 0] - y[:, 1:] @ wings, wings[1:]])


def collocation_rows(problem: PDEProblem, t: float, tables=None) -> tuple[np.ndarray, np.ndarray]:
    """Value rows and strong-form operator rows at the two boundary knots.

    These close the banded test system: the equation itself is imposed
    pointwise where the integral conditions cannot yet see the wings.  The
    basis and its derivatives at the knots come from ``tables`` (see
    ``assemble``) when given, else from the basis.
    """
    if tables is None:
        tables = _basis_tables(problem.basis.compiled())
    pts, B0, B1, B2 = tables.pts, tables.B0, tables.B1, tables.B2
    v, vx, g1, e = _base_relative(problem, t, pts)
    c_strong = vx + v * g1  # strong-form advection (no integration by parts)
    L = 0.5 * v[:, None] * B2 + c_strong[:, None] * B1 + e[:, None] * B0
    return B0, L


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    weights: np.ndarray  # (n_times, dim)
    problem: PDEProblem
    # (n_times - 1,): per step, ||R w - [1, s0]|| of the mass/mean rows R
    # before the projection, how far the collocation closure drifted
    projection: np.ndarray

    def ratio(self, k: int, xs):
        from volspline.bspline import Spline

        return Spline(self.problem.basis, self.weights[k])(np.asarray(xs, dtype=float))

    def density(self, k: int, xs):
        t = float(self.times[k])
        if t <= 0.0:
            raise PDEError("density at t = 0 is the initial Dirac mass")
        return self.ratio(k, xs) * self.problem.base_density(t).density(xs)


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
    the size of each correction is recorded in ``Trajectory.projection``.
    The time-invariant basis tables are built once and shared by every
    step's ``assemble``, ``collocation_rows`` and ``constrain``.
    """
    theta = {"explicit": 0.0, "implicit": 1.0, "cn": 0.5}.get(scheme)
    if theta is None:
        raise PDEError(f"unknown scheme {scheme!r}")
    basis = problem.basis
    dim = basis.dimension
    times = np.linspace(0.0, problem.horizon, steps + 1)

    # startup check: the truncated basis must reproduce the constant 1
    g = basis.knots.knots
    probe = np.linspace(g[0] - (g[-1] - g[0]), g[-1] + (g[-1] - g[0]), 101)
    ones = basis.compiled().evaluate(probe) @ np.ones(dim)
    if np.abs(ones - 1.0).max() > 1e-10:
        raise PDEError("basis does not represent the constant initial ratio exactly")

    tables = _basis_tables(basis.compiled())
    sys0 = assemble(problem, 0.5 * (times[0] + times[1]), tables=tables)
    A = sys0.mass
    W = np.empty((times.size, dim))
    projection = np.empty(steps)
    W[0] = 1.0
    w = W[0].copy()
    for m in range(times.size - 1):
        th = 1.0 if m < rannacher and scheme == "cn" else theta
        t0, t1 = times[m], times[m + 1]
        dt = t1 - t0
        tm = 0.5 * (t0 + t1)
        B = assemble(problem, tm, tables=tables).stiffness
        vals_rows, op_rows = collocation_rows(problem, tm, tables=tables)
        lhs_band = A - th * dt * B
        rhs_band = (A + (1.0 - th) * dt * B) @ w
        lhs_bc = vals_rows - th * dt * op_rows
        rhs_bc = (vals_rows + (1.0 - th) * dt * op_rows) @ w
        w_new = solve_bordered_banded(lhs_band, lhs_bc, rhs_band, rhs_bc, sys0.bandwidth)
        # exact mass/mean projection: the integral conditions hold at every
        # accepted step by construction
        mass_row, mean_row = constrain(problem, t1, tables=tables)
        R = np.vstack([mass_row, mean_row])
        resid = R @ w_new - np.array([1.0, problem.s0])
        projection[m] = np.linalg.norm(resid)
        w_new = w_new - R.T @ np.linalg.solve(R @ R.T, resid)
        if not np.all(np.isfinite(w_new)) or np.abs(w_new).max() > 1e6:
            msg = f"weights blew up at step {m + 1} (t={t1:g})"
            if th == 0.0:
                msg += "; the explicit scheme violates its stability bound"
            raise PDEError(msg)
        w = w_new
        W[m + 1] = w
    return Trajectory(times=times, weights=W, problem=problem, projection=projection)
