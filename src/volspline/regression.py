"""Tikhonov-penalized spline regression with shape and moment constraints.

The estimator minimizes mean squared error plus ``lambda`` times the
integrated squared p-th derivative.  The penalty factor scales like
``K sigma_X^(2p-1) / N`` so the fit is invariant under affine maps of the
abscissa (with the knots mapped along) and relaxes as the sample grows.

The scatter plot enters the normal equations as a measure, like the
marginal laws do: the sample is the empirical law ``(1/N) sum_n delta_{x_n}``,
whose moment table over the basis pieces holds per-interval power sums.
Its Gram is ``B^T B / N`` and its moment rows weighted by ``y`` are
``B^T y / N``, without the dense design matrix ``B``.  Linear shape
constraints and marginal-compatibility constraints turn the normal
equations into a cone program handled by :mod:`volspline.opt`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from volspline import opt
from volspline.bspline import (
    BasisSpec,
    CompiledBasis,
    KnotVector,
    LebesgueMeasure,
    Spline,
    SplineError,
    derivative_decomposition,
    design_matrix,
    gram_matrix,
    locate,
    moment_rows,
    weighted_gram,
)
from volspline.priors import ConfigError, config_value, require

__all__ = [
    "Sample",
    "EmpiricalMeasure",
    "RegressionConfig",
    "ConstraintSet",
    "solution_weights",
    "LebesgueMeasure",
    "tikhonov_factor",
    "design_system",
    "penalty_matrix",
    "solve_penalized",
    "solve_constrained",
    "fit_penalized",
    "fit_constrained",
    "shape_constraints",
    "compatibility_constraints",
    "add_second_moment_cap",
]


@dataclass(frozen=True)
class Sample:
    """Bivariate observations with cached size and abscissa scale."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.size != y.size or x.size < 1:
            raise ValueError("sample needs matching nonempty x and y")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def sigma_x(self) -> float:
        return float(np.std(self.x))


class EmpiricalMeasure:
    """The law ``(1/N) sum_n w_n delta_{x_n}`` of N points (``w_n = 1`` when
    no weights are given), with the ``moment_table`` of the other measures.

    A table over intervals ``[lo_i, hi_i)`` holds the power sums
    ``(1/N) sum_{x_n in [lo_i, hi_i)} w_n (x_n - ref_i)^d``: one interval
    index per point and one ``np.bincount`` per degree.  The intervals are
    sorted and disjoint, as ``live_pieces`` gives them.  The index is found
    once per set of intervals and shared with the measures ``weighted``
    derives, so a Gram and moment rows over the same pieces locate the
    points once.
    """

    def __init__(self, points, weights=None):
        self.points = np.asarray(points, dtype=float).reshape(-1)
        self.weights = None if weights is None else np.asarray(weights, dtype=float).reshape(-1)
        if self.weights is not None and self.weights.size != self.points.size:
            raise ValueError("one weight per point is required")
        self._located: dict = {}

    def weighted(self, weights) -> "EmpiricalMeasure":
        """The same points with new weights, sharing the located indices."""
        out = EmpiricalMeasure(self.points, weights)
        out._located = self._located
        return out

    def _locate(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Interval of each point; ``lo.size`` for a point outside them all."""
        key = (lo.tobytes(), hi.tobytes())
        idx = self._located.get(key)
        if idx is None:
            # searchsorted(lo, points, "right") - 1; past a leading -inf the
            # edges are knots, which locate in O(1) when evenly spaced
            wing = int(lo.size > 0 and lo[0] == -np.inf)
            idx = locate(KnotVector(lo[wing:]), self.points) + wing
            inside = (idx >= 0) & (self.points < hi[np.maximum(idx, 0)])
            idx[~inside] = lo.size
            self._located[key] = idx
        return idx

    def moment_table(self, lo, hi, ref, deg: int) -> np.ndarray:
        lo, hi, ref = (np.asarray(v, dtype=float).reshape(-1) for v in (lo, hi, ref))
        idx = self._locate(lo, hi)
        u = self.points - np.append(ref, 0.0)[idx]
        term = np.ones_like(u) if self.weights is None else self.weights.copy()
        table = np.empty((lo.size, deg + 1))
        for d in range(deg + 1):
            # the last bin collects the points outside every interval
            table[:, d] = np.bincount(idx, weights=term, minlength=lo.size + 1)[:-1]
            if d < deg:
                term *= u
        return table / self.points.size


@dataclass(frozen=True)
class RegressionConfig:
    basis: BasisSpec
    penalty_order: int = 2
    tikhonov_constant: float = 1.0

    def __post_init__(self) -> None:
        if self.penalty_order < 1:
            raise ValueError("penalty order must be at least 1")
        if self.tikhonov_constant <= 0.0:
            raise ValueError("Tikhonov constant must be positive")
        if self.basis.truncation >= self.penalty_order:
            raise SplineError(
                "penalty diverges: basis truncation must be below the penalty order"
            )


def tikhonov_factor(sample: Sample, cfg: RegressionConfig) -> float:
    """Penalty weight ``K sigma_X^(2p-1) / N``."""
    p = cfg.penalty_order
    return cfg.tikhonov_constant * sample.sigma_x ** (2 * p - 1) / sample.n


class ConstraintSet:
    """Linear equalities/inequalities plus second-order cone blocks.

    Inequality rows mean ``row . w >= rhs``.  ``families`` labels each row
    or block for infeasibility diagnostics.  Rows are collected in blocks
    and stacked once, when ``eq_rows``/``ineq_rows`` are read.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._eq: list[tuple[np.ndarray, np.ndarray]] = []
        self._ineq: list[tuple[np.ndarray, np.ndarray]] = []
        self.socs: list = []  # (A, b, c, d)
        self.eq_families: list[str] = []
        self.ineq_families: list[str] = []
        self.soc_families: list[str] = []

    def _block(self, rows, rhs) -> tuple[np.ndarray, np.ndarray]:
        rows = np.array(rows, dtype=float, ndmin=2)
        if rows.shape[1] != self.dim:
            raise ValueError(f"constraint rows have {rows.shape[1]} columns, expected {self.dim}")
        return rows, np.broadcast_to(np.asarray(rhs, dtype=float), rows.shape[:1]).copy()

    def _stacked(self, parts: list) -> tuple[np.ndarray, np.ndarray]:
        if len(parts) != 1:
            rows = np.vstack([r for r, _ in parts]) if parts else np.zeros((0, self.dim))
            rhs = np.concatenate([v for _, v in parts]) if parts else np.zeros(0)
            parts[:] = [(rows, rhs)]
        return parts[0]

    def add_eq_rows(self, rows, rhs, family: str) -> None:
        """Equalities ``rows @ w == rhs`` (rhs a scalar or one value per row)."""
        block = self._block(rows, rhs)
        self._eq.append(block)
        self.eq_families.extend([family] * block[0].shape[0])

    def add_ineq_rows(self, rows, rhs, family: str) -> None:
        """Inequalities ``rows @ w >= rhs`` (rhs a scalar or one value per row)."""
        block = self._block(rows, rhs)
        self._ineq.append(block)
        self.ineq_families.extend([family] * block[0].shape[0])

    def add_eq(self, row, rhs: float, family: str) -> None:
        self.add_eq_rows(row, rhs, family)

    def add_ineq(self, row, rhs: float, family: str) -> None:
        self.add_ineq_rows(row, rhs, family)

    @property
    def eq_rows(self) -> np.ndarray:
        return self._stacked(self._eq)[0]

    @property
    def eq_rhs(self) -> np.ndarray:
        return self._stacked(self._eq)[1]

    @property
    def ineq_rows(self) -> np.ndarray:
        return self._stacked(self._ineq)[0]

    @property
    def ineq_rhs(self) -> np.ndarray:
        return self._stacked(self._ineq)[1]

    def add_soc(self, A, b, c, d, family: str) -> None:
        self.socs.append(
            (
                np.atleast_2d(np.asarray(A, dtype=float)),
                np.asarray(b, dtype=float).reshape(-1),
                np.asarray(c, dtype=float).reshape(-1),
                float(d),
            )
        )
        self.soc_families.append(family)

    def merge(self, other: "ConstraintSet") -> "ConstraintSet":
        if other.dim != self.dim:
            raise ValueError("constraint sets have different dimensions")
        out = ConstraintSet(self.dim)
        out._eq = [self._stacked(self._eq), other._stacked(other._eq)]
        out._ineq = [self._stacked(self._ineq), other._stacked(other._ineq)]
        out.socs = list(self.socs) + list(other.socs)
        out.eq_families = self.eq_families + other.eq_families
        out.ineq_families = self.ineq_families + other.ineq_families
        out.soc_families = self.soc_families + other.soc_families
        return out

    @property
    def n_rows(self) -> int:
        return len(self.eq_families) + len(self.ineq_families) + len(self.socs)

    def as_blocks(self):
        return self.eq_rows, self.eq_rhs, self.ineq_rows, self.ineq_rhs, self.socs

    def violations(self, w: np.ndarray) -> dict[str, float]:
        """Worst violation per family at a candidate point."""
        out: dict[str, float] = {}
        for row, rhs, fam in zip(self.eq_rows, self.eq_rhs, self.eq_families):
            out[fam] = max(out.get(fam, 0.0), abs(float(row @ w - rhs)))
        for row, rhs, fam in zip(self.ineq_rows, self.ineq_rhs, self.ineq_families):
            out[fam] = max(out.get(fam, 0.0), max(0.0, float(rhs - row @ w)))
        for (A, b, c, d), fam in zip(self.socs, self.soc_families):
            gap = float(np.linalg.norm(A @ w + b) - (c @ w + d))
            out[fam] = max(out.get(fam, 0.0), max(0.0, gap))
        return out


def solution_weights(sol: opt.Solution, constraints: ConstraintSet | None, what: str) -> np.ndarray:
    """The weights of a cone solve of ``what``, or the error that says why
    there are none.  Every front end of the solver decides through here.

    - ``optimal``: the point ``sol.x``;
    - ``infeasible``: ``opt.InfeasibleError`` naming the constraint family
      most violated at the solver's last iterate;
    - any other status: ``opt.OptError`` naming the status, the iteration
      count and the KKT residuals.
    """
    if sol.status == "optimal":
        return sol.x
    if sol.status == "infeasible":
        viols = constraints.violations(sol.x) if constraints is not None else {}
        detail = ""
        if viols:
            fam = max(viols, key=viols.get)
            detail = f"; most violated family: {fam} ({viols[fam]:.3e})"
        raise opt.InfeasibleError(f"{what} is infeasible{detail}")
    pres, dres, gap = sol.kkt_residuals
    raise opt.OptError(
        f"{what} did not converge: {sol.status} after {sol.iterations} iterations "
        f"(primal residual {pres:.3e}, dual residual {dres:.3e}, gap {gap:.3e})"
    )


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def design_system(sample: Sample, cb: CompiledBasis) -> tuple[np.ndarray, np.ndarray]:
    """Normal-equation blocks ``V = B^T B / N`` and ``c = B^T y / N``.

    The scatter plot enters as the sample's empirical measure: ``V`` is its
    ``weighted_gram`` and ``c`` its ``moment_rows`` weighted by ``y``, both
    read from the per-interval power sums of one interval index.  The dense
    design ``B`` is not formed.
    """
    law = EmpiricalMeasure(sample.x)
    V = weighted_gram(cb, law)
    c = moment_rows(cb, law.weighted(sample.y))
    return V, c


def penalty_matrix(cfg: RegressionConfig) -> np.ndarray:
    return gram_matrix(cfg.basis, cfg.penalty_order)


def solve_penalized(V, c, R, lam: float, sample: Sample, cb: CompiledBasis) -> np.ndarray:
    """Weights solving the penalized normal equations ``(V + lam R) w = c``.

    A rank-deficient system falls back to the smoothness-weighted
    pseudoinverse of the design ``B`` of ``cb`` at the sample: best data
    fit first, minimal penalty among the fits.
    """
    lhs = V + lam * R
    ok = False
    try:
        # the system is symmetric PSD; a successful Cholesky marks it
        # numerically positive definite
        from scipy.linalg import cho_factor, cho_solve

        fac = cho_factor(lhs)
        w = cho_solve(fac, c)
        w += cho_solve(fac, c - lhs @ w)
        ok = np.all(np.isfinite(w))
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        eps = 1e-12 * max(np.trace(R) / max(R.shape[0], 1), 1.0)
        Q = R + eps * np.eye(R.shape[0])
        B = cb.evaluate(sample.x)
        w = opt.pseudoinverse_lsq(B / np.sqrt(sample.n), sample.y / np.sqrt(sample.n), Q)
    return w


def solve_constrained(V, c, R, lam: float, constraints: ConstraintSet | None, tol: float = 1e-8) -> np.ndarray:
    """Weights minimizing ``w^T (V + lam R) w - 2 c^T w`` under the constraints.

    Only an ``optimal`` solve gives weights; ``solution_weights`` raises
    ``opt.InfeasibleError`` or ``opt.OptError`` on any other status.
    """
    quad = opt.QuadForm(2.0 * (V + lam * R), -2.0 * c)
    return solution_weights(opt.solve_qp(quad, constraints, tol=tol), constraints, "constrained regression")


def fit_penalized(sample: Sample, cfg: RegressionConfig, lam: float | None = None) -> Spline:
    """Solve the penalized normal equations (see ``solve_penalized``)."""
    if lam is None:
        lam = tikhonov_factor(sample, cfg)
    cb = cfg.basis.compiled()
    V, c = design_system(sample, cb)
    return Spline(cfg.basis, solve_penalized(V, c, penalty_matrix(cfg), lam, sample, cb))


def fit_constrained(
    sample: Sample,
    cfg: RegressionConfig,
    lam: float | None = None,
    constraints: ConstraintSet | None = None,
    tol: float = 1e-8,
) -> Spline:
    """Penalized least squares under a constraint set, via the cone solver;
    a solve that does not end ``optimal`` raises (see ``solution_weights``)."""
    if lam is None:
        lam = tikhonov_factor(sample, cfg)
    V, c = design_system(sample, cfg.basis.compiled())
    return Spline(cfg.basis, solve_constrained(V, c, penalty_matrix(cfg), lam, constraints, tol))


# ---------------------------------------------------------------------------
# constraint builders
# ---------------------------------------------------------------------------

def _derivative_sign_rows(basis: BasisSpec, p: int, sign: float, cs: ConstraintSet, family: str) -> None:
    cs.add_ineq_rows(sign * derivative_decomposition(basis, p).matrix, 0.0, family)


def _limit_row(basis: BasisSpec, p: int, side: str) -> np.ndarray:
    """Row whose dot with the weights is the limit of the p-th derivative."""
    t_eff = basis.truncation - p
    dim = basis.dimension
    if t_eff > 0:
        raise SplineError(
            "limit does not exist: truncation leaves growing wings at that derivative order"
        )
    if p == 0:
        mat = np.eye(dim)
        low = basis
    else:
        dm = derivative_decomposition(basis, p)
        if dm.basis is None:
            raise SplineError("limits of the atomic derivative are not defined")
        mat, low = dm.matrix, dm.basis
    if t_eff < 0:
        return np.zeros(dim)  # wings vanish at that order
    pick = 0 if side == "-inf" else mat.shape[0] - 1
    return mat[pick] if p > 0 else np.eye(dim)[pick]


def shape_constraints(basis: BasisSpec, specs) -> ConstraintSet:
    """Constraint rows for the listed shape requirements.

    Accepted entries: the strings ``nonnegative``, ``nondecreasing``,
    ``nonincreasing``, ``convex``, ``concave``, or dicts
    ``{"kind": "value_eq|value_ge|value_le", "x": x0, "value": v, "deriv": p}``,
    ``{"kind": "limit_eq|limit_ge|limit_le", "side": "-inf"|"+inf", ...}`` and
    ``{"kind": "integral_eq|integral_ge|integral_le", "measure": m, "value": v}``.
    Sign constraints use the sufficient condition of nonnegative loadings
    on the (nonnegative) basis of the corresponding derivative order.  A
    missing or malformed field is a ``ConfigError`` naming it; a kind the
    basis cannot carry, or an unknown one, is a ``SplineError``.
    """
    if isinstance(specs, (str, dict)):
        specs = [specs]
    cs = ConstraintSet(basis.dimension)
    n = basis.order
    for spec in specs:
        kind = spec if isinstance(spec, str) else config_value(spec, "kind", "shape constraint", str)
        where = f"shape constraint {kind!r}"
        if kind == "nonnegative":
            cs.add_ineq_rows(np.eye(basis.dimension), 0.0, "nonnegative")
        elif kind in ("nondecreasing", "nonincreasing"):
            if n + 1 < 1:
                raise SplineError("monotonicity needs order >= 0")
            _derivative_sign_rows(basis, 1, 1.0 if kind == "nondecreasing" else -1.0, cs, kind)
        elif kind in ("convex", "concave"):
            if 2 > n + 1:
                raise SplineError("convexity constraints need order >= 1")
            _derivative_sign_rows(basis, 2, 1.0 if kind == "convex" else -1.0, cs, kind)
        elif kind.startswith("value_"):
            p = config_value(spec, "deriv", where, int, 0)
            if p > n + 1:
                raise SplineError("derivative order beyond the atomic level")
            x0 = config_value(spec, "x", where)
            if p == 0:
                row = design_matrix(basis, [x0])[0]
            else:
                dm = derivative_decomposition(basis, p)
                if dm.basis is None:
                    raise SplineError("pointwise values of the atomic derivative are not defined")
                row = (design_matrix(dm.basis, [x0]) @ dm.matrix)[0]
            _add_relation(cs, row, config_value(spec, "value", where), kind, f"value[{x0}]")
        elif kind.startswith("limit_"):
            p = config_value(spec, "deriv", where, int, 0)
            if p > n:
                raise SplineError("wing limits beyond the spline order are not defined")
            side = require(spec, "side", where)
            if side not in ("-inf", "+inf"):
                raise ConfigError(f"{where} field 'side' must be '-inf' or '+inf', got {side!r}")
            row = _limit_row(basis, p, side)
            _add_relation(cs, row, config_value(spec, "value", where), kind, f"limit[{side}]")
        elif kind.startswith("integral_"):
            measure = require(spec, "measure", where)
            if not hasattr(measure, "moment_table"):
                # a JSON config holds numbers, strings and lists, never a measure
                raise ConfigError(f"{where} field 'measure' must be a measure object, got {measure!r}")
            row = moment_rows(basis.compiled(), measure)
            _add_relation(cs, row, config_value(spec, "value", where), kind, "integral")
        else:
            raise SplineError(f"unknown shape constraint {kind!r}")
    return cs


def _add_relation(cs: ConstraintSet, row, value: float, kind: str, family: str) -> None:
    if kind.endswith("_eq"):
        cs.add_eq(row, value, family)
    elif kind.endswith("_ge"):
        cs.add_ineq(row, value, family)
    elif kind.endswith("_le"):
        cs.add_ineq(-np.asarray(row, dtype=float), -value, family)
    else:
        raise SplineError(f"unknown relation in {kind!r}")


def compatibility_constraints(
    basis: BasisSpec,
    marginal_x,
    y_moments: tuple[float, float, tuple[float, float] | None],
) -> ConstraintSet:
    """Marginal-law constraints for a conditional-expectation estimate.

    ``y_moments = (ey, ey2, hull)``: the mean pins an integral equality
    against the abscissa marginal; the hull bounds the coefficients (a
    sufficient box condition); the second moment caps the weighted
    quadratic form of the fit, a second-order cone row.
    """
    ey, ey2, hull = y_moments
    cs = ConstraintSet(basis.dimension)
    cb = basis.compiled()
    mrow = moment_rows(cb, marginal_x)
    cs.add_eq(mrow, ey, "mean-compatibility")
    if hull is not None:
        lo, hi = hull
        if lo > hi:
            raise ValueError("hull lower bound exceeds upper bound")
        eye = np.eye(basis.dimension)
        if np.isfinite(lo):
            cs.add_ineq_rows(eye, lo, "hull")
        if np.isfinite(hi):
            cs.add_ineq_rows(-eye, -hi, "hull")
    if ey2 is not None:
        if ey2 < 0.0:
            raise ValueError("second moment must be nonnegative")
        add_second_moment_cap(cs, cb, marginal_x, ey2, "convex-order")
    return cs


def add_second_moment_cap(cs: ConstraintSet, cb: CompiledBasis, measure, bound: float, family: str) -> None:
    """Cone row capping the second moment of the fit against ``measure``.

    With the Gram ``M = L L^T`` of ``cb`` against the measure (Cholesky,
    with a jitter of ``1e-14 max(trace M, 1)``), ``|L^T w| <= sqrt(bound)``
    says ``w^T M w``, the integral of the squared fit, is at most ``bound``.
    """
    M = weighted_gram(cb, measure)
    L = np.linalg.cholesky(M + 1e-14 * max(np.trace(M), 1.0) * np.eye(M.shape[0]))
    cs.add_soc(L.T, np.zeros(cs.dim), np.zeros(cs.dim), np.sqrt(bound), family)
