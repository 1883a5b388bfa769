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
from dataclasses import dataclass, field

import numpy as np

from volspline.bspline import BasisSpec, CompiledBasis, gauss_legendre_rule, live_pieces, make_basis
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
    "default_basis",
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


def default_basis(s0: float, base_variance: float, horizon: float, n_knots: int = 40, order: int = 3) -> BasisSpec:
    """Knots spanning 5 standard deviations of the base law on each side."""
    half = 5.0 * np.sqrt(base_variance * horizon)
    return make_basis(np.linspace(s0 - half, s0 + half, n_knots), order, truncation=0)


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


def _basis_tables(cb: CompiledBasis):
    """Gauss-Legendre points and weights on the knot intervals, with the
    basis values and derivatives there."""
    g = cb.basis.knots.knots
    xs_n, ws_n = gauss_legendre_rule(GL_POINTS)
    a, b = g[:-1], g[1:]
    live = b > a
    mid, half = 0.5 * (a + b)[live, None], 0.5 * (b - a)[live, None]
    xs = (mid + half * xs_n).reshape(-1)
    ws = (half * ws_n).reshape(-1)
    return xs, ws, cb.evaluate(xs), cb.derivative().evaluate(xs)


def assemble(problem: PDEProblem, t: float, tables=None) -> GalerkinSystem:
    """Weak-form matrices at time t.

    Rows correspond to the compact-support test functions; columns to the
    full trial basis including the two constant wings.  The advection
    coefficient is ``v dlog(phi0)/dx + v_x / 2`` and the reaction term
    collects the base-relative second-derivative terms; both involve only
    polynomial ratios for the Gaussian base.  ``tables`` are the quadrature
    tables of ``_basis_tables``, when the caller has them (``evolve``
    computes them once for all its steps).
    """
    if t <= 0.0:
        raise PDEError("coefficients are defined for t > 0")
    basis = problem.basis
    xs, ws, vals, dvals = tables if tables is not None else _basis_tables(basis.compiled())
    v = np.asarray(problem.local_variance.value(t, xs), dtype=float)
    if np.any(v <= 0.0):
        raise PDEError("local variance must be positive on the domain")
    vx = np.asarray(problem.local_variance.dx(t, xs), dtype=float)
    vxx = np.asarray(problem.local_variance.dxx(t, xs), dtype=float)
    v0 = problem.base_variance
    z = xs - problem.s0
    g1 = -z / (v0 * t)  # dlog(phi0)/dx
    g2 = (z**2 - v0 * t) / (v0 * t) ** 2  # phi0''/phi0
    c = 0.5 * vx + v * g1
    e = 0.5 * (vxx + 2.0 * vx * g1 + (v - v0) * g2)

    mass_full = vals.T @ (ws[:, None] * vals)
    diff = -0.5 * dvals.T @ ((ws * v)[:, None] * dvals)
    adv = vals.T @ ((ws * c)[:, None] * dvals)  # [i, j] = int c b_j' b_i
    react = vals.T @ ((ws * e)[:, None] * vals)
    stiff_full = diff + adv + react
    return GalerkinSystem(
        mass=mass_full[1:-1, :],
        stiffness=stiff_full[1:-1, :],
        mass_full=mass_full,
        bandwidth=basis.order,
    )


def constrain(problem: PDEProblem, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mass and mean integral rows against the base density at time t.

    One moment table of degree order + 1 serves both rows: the mean row
    integrates x b_j = ((x - ref) + ref) b_j piece by piece.
    """
    lo, hi, refs, coeffs = live_pieces(problem.basis.compiled())
    table = problem.base_density(t).moment_table(lo, hi, refs, coeffs.shape[2])
    mass_row = np.einsum("jid,id->j", coeffs, table[:, :-1])
    mean_row = np.einsum("jid,id->j", coeffs, table[:, 1:] + refs[:, None] * table[:, :-1])
    return mass_row, mean_row


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
    sub- and super-diagonals, takes one banded LU (LAPACK ``gbsv``) for
    three right-hand sides: ``rhs_band`` and the two wing columns.  The
    border rows then reduce to a 2 x 2 Schur complement for the wing
    weights, and the interior follows by back-substitution.  The interior
    block must be nonsingular, since the LU pivots only inside it and never
    across the border rows; in ``evolve`` it is the symmetric positive
    definite interior mass block minus ``theta dt`` times the stiffness.
    """
    from scipy.linalg import solve_banded  # here, so that importing pde does not load scipy.linalg

    r, d = band.shape
    if border.shape != (2, d) or r + 2 != d:
        raise PDEError("bordered system is not square")
    interior = band[:, 1:-1]
    inside = np.abs(np.subtract.outer(np.arange(r), np.arange(r))) <= bandwidth
    if np.any(interior[~inside]):
        raise PDEError("interior block is wider than the bandwidth")
    if r == 1 and interior[0, 0] == 0.0:  # solve_banded divides a 1 x 1 block without a check
        raise PDEError("bordered system is singular")
    i, j = np.nonzero(inside)
    ab = np.zeros((2 * bandwidth + 1, r))  # LAPACK band storage: ab[bandwidth + i - j, j]
    ab[bandwidth + i - j, j] = interior[i, j]
    try:
        y = solve_banded((bandwidth, bandwidth), ab, np.column_stack([rhs_band, band[:, 0], band[:, -1]]))
        inner = border[:, 1:-1]
        schur = border[:, [0, -1]] - inner @ y[:, 1:]
        wings = np.linalg.solve(schur, rhs_border - inner @ y[:, 0])
    except np.linalg.LinAlgError as exc:
        raise PDEError("bordered system is singular") from exc
    return np.concatenate([wings[:1], y[:, 0] - y[:, 1:] @ wings, wings[1:]])


def collocation_rows(problem: PDEProblem, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Value rows and strong-form operator rows at the two boundary knots.

    These close the banded test system: the equation itself is imposed
    pointwise where the integral conditions cannot yet see the wings.
    """
    basis = problem.basis
    g = basis.knots.knots
    pts = np.array([g[0], g[-1]])
    cb = basis.compiled()
    d1 = cb.derivative()
    B0 = cb.evaluate(pts)
    B1 = d1.evaluate(pts)
    B2 = d1.derivative().evaluate(pts)
    v = np.asarray(problem.local_variance.value(t, pts), dtype=float)
    vx = np.asarray(problem.local_variance.dx(t, pts), dtype=float)
    vxx = np.asarray(problem.local_variance.dxx(t, pts), dtype=float)
    v0 = problem.base_variance
    z = pts - problem.s0
    g1 = -z / (v0 * t)
    g2 = (z**2 - v0 * t) / (v0 * t) ** 2
    c_strong = vx + v * g1  # strong-form advection (no integration by parts)
    e = 0.5 * (vxx + 2.0 * vx * g1 + (v - v0) * g2)
    L = 0.5 * v[:, None] * B2 + c_strong[:, None] * B1 + e[:, None] * B0
    return B0, L


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    weights: np.ndarray  # (n_times, dim)
    problem: PDEProblem

    def ratio(self, k: int, xs):
        from volspline.bspline import Spline

        return Spline(self.problem.basis, self.weights[k])(np.asarray(xs, dtype=float), method="compiled")

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
    at t = 0.  Mass and mean are re-imposed exactly after every step.
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
    W[0] = 1.0
    w = W[0].copy()
    for m in range(times.size - 1):
        th = 1.0 if m < rannacher and scheme == "cn" else theta
        t0, t1 = times[m], times[m + 1]
        dt = t1 - t0
        tm = 0.5 * (t0 + t1)
        B = assemble(problem, tm, tables=tables).stiffness
        vals_rows, op_rows = collocation_rows(problem, tm)
        lhs_band = A - th * dt * B
        rhs_band = (A + (1.0 - th) * dt * B) @ w
        lhs_bc = vals_rows - th * dt * op_rows
        rhs_bc = (vals_rows + (1.0 - th) * dt * op_rows) @ w
        w_new = solve_bordered_banded(lhs_band, lhs_bc, rhs_band, rhs_bc, sys0.bandwidth)
        # exact mass/mean projection: the integral conditions hold at every
        # accepted step by construction
        mass_row, mean_row = constrain(problem, t1)
        R = np.vstack([mass_row, mean_row])
        resid = R @ w_new - np.array([1.0, problem.s0])
        w_new = w_new - R.T @ np.linalg.solve(R @ R.T, resid)
        if not np.all(np.isfinite(w_new)) or np.abs(w_new).max() > 1e6:
            msg = f"weights blew up at step {m + 1} (t={t1:g})"
            if th == 0.0:
                msg += "; the explicit scheme violates its stability bound"
            raise PDEError(msg)
        w = w_new
        W[m + 1] = w
    return Trajectory(times=times, weights=W, problem=problem)
