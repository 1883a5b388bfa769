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
constraints and the compatibility constraints of a conditional expectation
with its marginals turn the normal equations into a quadratic program
under linear rows and at most one cap, solved by :mod:`volspline.opt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from volspline import opt
from volspline.bspline import (
    BasisSpec, CompiledBasis, KnotVector, LebesgueMeasure, Spline, SplineError, derivative_decomposition, design_matrix,
    gram_matrix, locate, moment_rows, weighted_gram,
)
from volspline.config import INTEGER, NUMBER, Field, Kind, at_least, either, enum, read, tagged

__all__ = [
    "Sample", "EmpiricalMeasure", "RegressionConfig", "ConstraintSet", "solution_weights", "LebesgueMeasure",
    "tikhonov_factor", "design_system", "penalty_matrix", "solve_penalized", "solve_constrained", "fit_penalized",
    "fit_constrained", "SHAPE_CONSTRAINT", "shape_constraints", "compatibility_constraints",
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

    @cached_property
    def sigma_x(self) -> float:
        return float(np.std(self.x))

    @cached_property
    def law(self) -> "EmpiricalMeasure":
        """The empirical law of ``x``, which keeps where its points lie in
        each basis it is integrated over (``EmpiricalMeasure.locate_in``)."""
        return EmpiricalMeasure(self.x)


class EmpiricalMeasure:
    """The law ``(1/N) sum_n w_n delta_{x_n}`` of N points (``w_n = 1`` when
    no weights are given), with the ``moment_table`` of the other measures.

    A table over intervals ``[lo_i, hi_i)`` holds the power sums
    ``(1/N) sum_{x_n in [lo_i, hi_i)} w_n (x_n - ref_i)^d``: one interval
    index and one local coordinate ``x_n - ref_i`` per point, and one
    ``np.bincount`` per degree.  The intervals are sorted and disjoint, as
    ``live_pieces`` gives them.  The index and the coordinates are found
    once per set of intervals and shared with the measures ``weighted``
    derives, so a Gram and moment rows over the same pieces locate the
    points once.

    The located sample.  Where every piece of a compiled basis is live (the
    wings unbounded, no piece dead), the live pieces are the basis's own
    pieces: ``locate_in(cb)`` finds each point's piece by ``cb.local``, the
    breakpoints' ``KnotVector`` and its O(1) locate, and registers that
    index and those coordinates as the tables' over ``cb.live``.  They are
    ``_locate``'s index and coordinates bit for bit, and no finite point
    lies outside every piece.  A spline on ``cb`` (``cb.combination``)
    shares its breakpoints and refs, so the same pair evaluates it at these
    points (``PiecewisePoly.at_local``).  Other bases, and points that are
    NaN or ``+inf``, which ``_locate`` leaves outside, locate by
    ``_locate`` against the live edges.
    """

    def __init__(self, points, weights=None):
        self.points = np.asarray(points, dtype=float).reshape(-1)
        self.weights = None if weights is None else np.asarray(weights, dtype=float).reshape(-1)
        if self.weights is not None and self.weights.size != self.points.size:
            raise ValueError("one weight per point is required")
        self._located: dict = {}

    def weighted(self, weights) -> "EmpiricalMeasure":
        """The same points with new weights, sharing the located points."""
        out = EmpiricalMeasure(self.points, weights)
        out._located = self._located
        return out

    def _locate(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Interval of each point; ``lo.size`` for a point outside them all."""
        # searchsorted(lo, points, "right") - 1; past a leading -inf the
        # edges are knots, which locate in O(1) when evenly spaced
        wing = int(lo.size > 0 and lo[0] == -np.inf)
        idx = locate(KnotVector(lo[wing:]), self.points) + wing
        inside = (idx >= 0) & (self.points < hi[np.maximum(idx, 0)])
        idx[~inside] = lo.size
        return idx

    def _local(self, lo: np.ndarray, hi: np.ndarray, ref: np.ndarray, cb: CompiledBasis | None = None):
        """The interval of each point (``_locate``) and its coordinate
        ``x - ref`` (``x`` itself outside), found once per set of intervals;
        by ``cb.local`` where these are all the pieces of ``cb``."""
        key = (lo.tobytes(), hi.tobytes(), ref.tobytes())
        got = self._located.get(key)
        if got is None:
            if cb is None:
                idx = self._locate(lo, hi)
                got = idx, self.points - np.append(ref, 0.0)[idx]
            else:
                got = cb.local(self.points)
            self._located[key] = got
        return got

    def locate_in(self, cb: CompiledBasis) -> tuple[np.ndarray, np.ndarray] | None:
        """The piece of ``cb`` each point lies in and its local coordinate
        (``cb.local``), where every piece of ``cb`` is live and every point
        below ``+inf``; then they are also the moment tables' over
        ``cb.live``.  None otherwise.  Found once per basis."""
        lo, hi, ref, _ = cb.live
        if lo.size < cb.refs.size or not np.all(self.points < np.inf):
            return None
        return self._local(lo, hi, ref, cb)

    def moment_table(self, lo, hi, ref, deg: int) -> np.ndarray:
        lo, hi, ref = (np.asarray(v, dtype=float).reshape(-1) for v in (lo, hi, ref))
        idx, u = self._local(lo, hi, ref)
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
            raise ValueError(f"penalty_order must be at least 1, got {self.penalty_order!r}")
        if self.tikhonov_constant <= 0.0:
            raise ValueError(f"tikhonov_constant must be positive, got {self.tikhonov_constant!r}")
        if self.basis.truncation >= self.penalty_order:
            raise SplineError(
                "penalty diverges: basis truncation must be below the penalty order"
            )


def tikhonov_factor(sample: Sample, cfg: RegressionConfig) -> float:
    """Penalty weight ``K sigma_X^(2p-1) / N``."""
    p = cfg.penalty_order
    return cfg.tikhonov_constant * sample.sigma_x ** (2 * p - 1) / sample.n


class ConstraintSet:
    """Linear equalities and inequalities, and at most one second-moment cap.

    Inequality rows mean ``row . w >= rhs`` and the cap ``(C, d)`` means
    ``||C w|| <= d``.  ``eq_families``, ``ineq_families`` and ``cap_family``
    name them in infeasibility diagnostics.  Rows are collected in blocks
    and stacked once, when ``eq_rows``/``ineq_rows`` are read.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._eq: list[tuple[np.ndarray, np.ndarray]] = []
        self._ineq: list[tuple[np.ndarray, np.ndarray]] = []
        self.cap: tuple[np.ndarray, float] | None = None
        self.eq_families: list[str] = []
        self.ineq_families: list[str] = []
        self.cap_family: str | None = None

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

    def add_eq(self, rows, rhs, family: str) -> None:
        """Equalities ``rows @ w == rhs``: one row or a block of rows, rhs a
        scalar or one value per row."""
        block = self._block(rows, rhs)
        self._eq.append(block)
        self.eq_families.extend([family] * block[0].shape[0])

    def add_ineq(self, rows, rhs, family: str) -> None:
        """Inequalities ``rows @ w >= rhs``: one row or a block of rows, rhs
        a scalar or one value per row."""
        block = self._block(rows, rhs)
        self._ineq.append(block)
        self.ineq_families.extend([family] * block[0].shape[0])

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

    def add_cap(self, C, d: float, family: str) -> None:
        """The cap ``||C w|| <= d``; a set holds one at most."""
        if self.cap is not None:
            raise ValueError(f"constraint set already holds a cap, of family {self.cap_family!r}; it takes one")
        self.cap = (np.atleast_2d(np.asarray(C, dtype=float)), float(d))
        self.cap_family = family

    def merge(self, other: "ConstraintSet") -> "ConstraintSet":
        if other.dim != self.dim:
            raise ValueError("constraint sets have different dimensions")
        out = ConstraintSet(self.dim)
        out._eq = [self._stacked(self._eq), other._stacked(other._eq)]
        out._ineq = [self._stacked(self._ineq), other._stacked(other._ineq)]
        out.eq_families = self.eq_families + other.eq_families
        out.ineq_families = self.ineq_families + other.ineq_families
        for part in (self, other):
            if part.cap is not None:
                out.add_cap(*part.cap, part.cap_family)
        return out

    @property
    def n_rows(self) -> int:
        return len(self.eq_families) + len(self.ineq_families) + (self.cap is not None)

    def as_blocks(self):
        return self.eq_rows, self.eq_rhs, self.ineq_rows, self.ineq_rhs, self.cap

    def violations(self, w: np.ndarray) -> dict[str, float]:
        """Worst violation per family at a candidate point."""
        out: dict[str, float] = {}
        for row, rhs, fam in zip(self.eq_rows, self.eq_rhs, self.eq_families):
            out[fam] = max(out.get(fam, 0.0), abs(float(row @ w - rhs)))
        for row, rhs, fam in zip(self.ineq_rows, self.ineq_rhs, self.ineq_families):
            out[fam] = max(out.get(fam, 0.0), max(0.0, float(rhs - row @ w)))
        if self.cap is not None:
            C, d = self.cap
            out[self.cap_family] = max(out.get(self.cap_family, 0.0), max(0.0, float(np.linalg.norm(C @ w) - d)))
        return out


def solution_weights(sol: opt.Solution, constraints: ConstraintSet | None, what: str) -> np.ndarray:
    """The weights of a solve of ``what``, or the error that says why
    there are none.  Every front end of the solver decides through here.

    - ``optimal``: the point ``sol.x``;
    - ``infeasible``: ``opt.InfeasibleError`` naming the constraint family
      most violated at the solver's point, the one of least violation;
    - any other status: ``opt.OptError`` naming the status, the iteration
      count, the KKT residuals and why the solver stopped (``sol.exit``).
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
        f"(primal residual {pres:.3e}, dual residual {dres:.3e}, gap {gap:.3e})" + (f"; {sol.exit}" if sol.exit else "")
    )


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def design_system(sample: Sample, cb: CompiledBasis) -> tuple[np.ndarray, np.ndarray]:
    """Normal-equation blocks ``V = B^T B / N`` and ``c = B^T y / N``.

    The scatter plot enters as the sample's empirical measure
    (``Sample.law``): ``V`` is its ``weighted_gram`` and ``c`` its
    ``moment_rows`` weighted by ``y``, both read from the per-interval power
    sums of one interval index, located in ``cb`` once
    (``EmpiricalMeasure.locate_in``).  The dense design ``B`` is not formed.
    """
    law = sample.law
    law.locate_in(cb)
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


def solve_constrained(V, c, R, lam: float, constraints: ConstraintSet | None) -> np.ndarray:
    """Weights minimizing ``w^T (V + lam R) w - 2 c^T w`` under the constraints.

    Only an ``optimal`` solve gives weights; ``solution_weights`` raises
    ``opt.InfeasibleError`` or ``opt.OptError`` on any other status.
    """
    quad = opt.QuadForm(2.0 * (V + lam * R), -2.0 * c)
    return solution_weights(opt.solve_qp(quad, constraints), constraints, "constrained regression")


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
) -> Spline:
    """Penalized least squares under a constraint set, via ``opt.solve_qp``;
    a solve that does not end ``optimal`` raises (see ``solution_weights``)."""
    if lam is None:
        lam = tikhonov_factor(sample, cfg)
    V, c = design_system(sample, cfg.basis.compiled())
    return Spline(cfg.basis, solve_constrained(V, c, penalty_matrix(cfg), lam, constraints))


# ---------------------------------------------------------------------------
# constraint builders
# ---------------------------------------------------------------------------

def _derivative_sign_rows(basis: BasisSpec, p: int, sign: float, cs: ConstraintSet, family: str) -> None:
    cs.add_ineq(sign * derivative_decomposition(basis, p).matrix, 0.0, family)


def _limit_row(basis: BasisSpec, p: int, side: str) -> np.ndarray:
    """Row whose dot with the weights is the limit of the p-th derivative."""
    t_eff = basis.truncation - p
    dim = basis.dimension
    if t_eff > 0:
        raise SplineError(
            "limit does not exist: truncation leaves growing wings at that derivative order"
        )
    mat = np.eye(dim)
    if p > 0:
        dm = derivative_decomposition(basis, p)
        if dm.basis is None:
            raise SplineError("limits of the atomic derivative are not defined")
        mat = dm.matrix
    if t_eff < 0:
        return np.zeros(dim)  # wings vanish at that order
    return mat[0 if side == "-inf" else -1]


_RELATIONS = ("eq", "ge", "le")
_DERIV = Field(INTEGER, 0, at_least(0))

# one entry of a shape-constraint list: a sign constraint's name, or an
# object tagged by its kind
SHAPE_CONSTRAINT = either(
    enum("nonnegative", "nondecreasing", "nonincreasing", "convex", "concave"),
    tagged("kind", {
        **{f"value_{r}": {"x": Field(NUMBER), "value": Field(NUMBER), "deriv": _DERIV} for r in _RELATIONS},
        **{f"limit_{r}": {"side": Field(enum("-inf", "+inf")), "value": Field(NUMBER), "deriv": _DERIV}
           for r in _RELATIONS},
        **{f"integral_{r}": {"measure": Field(Kind("a measure object", lambda v: hasattr(v, "moment_table"))),
                             "value": Field(NUMBER)} for r in _RELATIONS},
    }),
)


def shape_constraints(basis: BasisSpec, specs) -> ConstraintSet:
    """Constraint rows for the listed shape requirements.

    Accepted entries (``SHAPE_CONSTRAINT``): the strings ``nonnegative``,
    ``nondecreasing``, ``nonincreasing``, ``convex``, ``concave``, or dicts
    ``{"kind": "value_eq|value_ge|value_le", "x": x0, "value": v, "deriv": p}``,
    ``{"kind": "limit_eq|limit_ge|limit_le", "side": "-inf"|"+inf", ...}`` and
    ``{"kind": "integral_eq|integral_ge|integral_le", "measure": m, "value": v}``.
    Sign constraints use the sufficient condition of nonnegative loadings
    on the (nonnegative) basis of the corresponding derivative order.  An
    entry that does not match its declaration, or that the basis cannot
    carry, is a ``SplineError``; the former names the field.
    """
    if isinstance(specs, (str, dict)):
        specs = [specs]
    cs = ConstraintSet(basis.dimension)
    for i, spec in enumerate(specs):
        spec = read(spec, SHAPE_CONSTRAINT, f"constraints[{i}]", SplineError)
        kind = spec if isinstance(spec, str) else spec["kind"]
        # derivative_decomposition rejects a derivative order the basis cannot carry
        if kind == "nonnegative":
            cs.add_ineq(np.eye(basis.dimension), 0.0, "nonnegative")
        elif kind in ("nondecreasing", "nonincreasing"):
            _derivative_sign_rows(basis, 1, 1.0 if kind == "nondecreasing" else -1.0, cs, kind)
        elif kind in ("convex", "concave"):
            _derivative_sign_rows(basis, 2, 1.0 if kind == "convex" else -1.0, cs, kind)
        elif kind.startswith("value_"):
            p, x0 = spec["deriv"], spec["x"]
            if p == 0:
                row = design_matrix(basis, [x0])[0]
            else:
                dm = derivative_decomposition(basis, p)
                if dm.basis is None:
                    raise SplineError("pointwise values of the atomic derivative are not defined")
                row = (design_matrix(dm.basis, [x0]) @ dm.matrix)[0]
            _add_relation(cs, row, spec["value"], kind, f"value[{x0}]")
        elif kind.startswith("limit_"):
            row = _limit_row(basis, spec["deriv"], spec["side"])
            _add_relation(cs, row, spec["value"], kind, f"limit[{spec['side']}]")
        else:
            _add_relation(cs, moment_rows(basis.compiled(), spec["measure"]), spec["value"], kind, "integral")
    return cs


def _add_relation(cs: ConstraintSet, row, value: float, kind: str, family: str) -> None:
    if kind.endswith("_eq"):
        cs.add_eq(row, value, family)
    elif kind.endswith("_ge"):
        cs.add_ineq(row, value, family)
    else:  # _le
        cs.add_ineq(-np.asarray(row, dtype=float), -value, family)


def compatibility_constraints(
    cb: CompiledBasis,
    marginal_x,
    y_moments: tuple[float | None, float | None, tuple[float, float] | None],
) -> ConstraintSet:
    """The compatibility constraints of an estimate ``sum_j w_j b_j(x)`` of
    ``E[Y | X = x]`` over the compiled basis ``cb``, with the law
    ``marginal_x`` of X and ``y_moments = (ey, ey2, hull)`` of Y, each
    ``None`` to leave its family out.  In this order:

    - ``mean-compatibility``: the fit integrates to ``ey = E[Y]`` against X;
    - ``hull``: each weight lies in ``hull = (lo, hi)``, on its finite
      sides, which bounds the fit where the basis is a partition of unity;
    - ``convex-order``: ``w^T M w``, the integral of the squared fit with
      ``M`` the Gram of ``cb`` against X, is at most ``ey2 = E[Y^2]``: the
      cap ``||L^T w|| <= sqrt(ey2)``, ``M = L L^T`` by Cholesky with a
      jitter of ``1e-14 max(trace M, 1)``.
    """
    ey, ey2, hull = y_moments
    dim = cb.coeffs.shape[0]
    cs = ConstraintSet(dim)
    if ey is not None:
        cs.add_eq(moment_rows(cb, marginal_x), ey, "mean-compatibility")
    if hull is not None:
        lo, hi = hull
        if lo > hi:
            raise ValueError("hull lower bound exceeds upper bound")
        eye = np.eye(dim)
        if np.isfinite(lo):
            cs.add_ineq(eye, lo, "hull")
        if np.isfinite(hi):
            cs.add_ineq(-eye, -hi, "hull")
    if ey2 is not None:
        if ey2 < 0.0:
            raise ValueError("second moment must be nonnegative")
        M = weighted_gram(cb, marginal_x)
        L = np.linalg.cholesky(M + 1e-14 * max(np.trace(M), 1.0) * np.eye(dim))
        cs.add_cap(L.T, np.sqrt(ey2), "convex-order")
    return cs
