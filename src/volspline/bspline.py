"""Univariate B-spline bases extended with functions of unbounded support.

A basis built on ``k`` sorted knots and an order ``n`` has ``k + n + 1``
functions: the classical compact-support B-splines in the middle plus, on
each side, wing functions whose extrapolation is polynomial of degree
1, 2, ..., n as one moves away from the knot range.  Capping the wing
degree at ``t`` (the truncation order) simply drops the offending basis
functions; ``t = -1`` recovers compact-support B-splines and ``t = n``
keeps the full basis.

Three evaluation routes are provided and agree to machine precision:

* per-point forward recursion over the active window of ``n + 1`` functions,
* backward (de Boor style) collapse of the weight vector for full splines,
* a compiled piecewise-polynomial representation evaluated by Horner's
  rule, the fast path when many points are queried per interval.

Polynomials are stored in local coordinates ``x - ref`` per interval so
that compiled evaluation stays well conditioned for knots far from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SplineError",
    "KnotVector",
    "BasisSpec",
    "PiecewisePoly",
    "CompiledBasis",
    "Spline",
    "DiracComb",
    "DerivativeMap",
    "LebesgueMeasure",
    "make_basis",
    "locate",
    "eval_basis",
    "eval_basis_many",
    "design_matrix",
    "compile_basis",
    "eval_spline",
    "derivative_decomposition",
    "gram_matrix",
    "weighted_gram",
    "moment_rows",
    "live_pieces",
    "gauss_legendre_rule",
]


class SplineError(ValueError):
    """Invalid knot/order/truncation combination or evaluation request."""


def _as_sorted_knots(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    arr = np.atleast_1d(arr)
    if arr.ndim != 1:
        raise SplineError("knots must be a one-dimensional sequence")
    if arr.size and not np.all(np.isfinite(arr)):
        raise SplineError("knots must be finite")
    if np.any(np.diff(arr) < 0.0):
        raise SplineError("knots must be sorted in nondecreasing order")
    return arr


def _detect_equal_spacing(knots: np.ndarray) -> bool:
    if knots.size < 3:
        return knots.size == 2
    d = np.diff(knots)
    h = d[0]
    if h <= 0.0:
        return False
    return bool(np.all(np.abs(d - h) <= 1e-12 * max(abs(knots[0]), abs(knots[-1]), h)))


@dataclass(frozen=True)
class KnotVector:
    """Sorted knots, possibly with repeats.  Immutable after construction.

    ``equal_spacing`` enables the O(1) integer-part locate; the flag is an
    optimization only and locate results are identical to bisection.
    """

    knots: np.ndarray
    equal_spacing: bool = field(default=False)

    def __init__(self, knots: Iterable[float], equal_spacing: bool | None = None):
        arr = _as_sorted_knots(knots)
        arr.setflags(write=False)
        object.__setattr__(self, "knots", arr)
        if equal_spacing is None:
            equal_spacing = _detect_equal_spacing(arr)
        object.__setattr__(self, "equal_spacing", bool(equal_spacing))

    def __hash__(self) -> int:
        return hash((self.knots.tobytes(), self.equal_spacing))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KnotVector)
            and self.knots.shape == other.knots.shape
            and bool(np.all(self.knots == other.knots))
        )

    @property
    def k(self) -> int:
        return int(self.knots.size)

    def multiplicity(self) -> int:
        """Largest repeat count among the knots."""
        if self.k == 0:
            return 0
        _, counts = np.unique(self.knots, return_counts=True)
        return int(counts.max())

    def locate(self, x):
        """Interval index i with knots[i] <= x < knots[i+1].

        Conventions: index -1 for the interval below all knots and k-1 for
        the interval at and above the last knot (empty intervals from
        repeated knots are skipped, consistent with bisection).
        """
        return locate(self, x)


def locate(knots: KnotVector, x):
    g = knots.knots
    k = g.size
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if k == 0:
        idx = np.full(xs.shape, -1, dtype=np.intp)
        return int(idx[0]) if scalar else idx

    if knots.equal_spacing and k >= 2:
        h = (g[-1] - g[0]) / (k - 1)
        raw = np.floor((xs - g[0]) / h).astype(np.intp)
        idx = np.clip(raw, -1, k - 1)
        # one corrective comparison on each side keeps the fast path
        # bit-identical to bisection near representability boundaries
        hi = np.clip(idx + 1, 0, k - 1)
        bump = (idx < k - 1) & (xs >= g[hi])
        idx = np.where(bump, idx + 1, idx)
        lo = np.clip(idx, 0, k - 1)
        drop = (idx >= 0) & (xs < g[lo])
        idx = np.where(drop, idx - 1, idx)
    else:
        idx = np.searchsorted(g, xs, side="right").astype(np.intp) - 1
    return int(idx[0]) if scalar else idx


@dataclass(frozen=True)
class BasisSpec:
    """Knots + order + wing scaling constants + truncation order.

    The untruncated basis has ``k + n + 1`` functions.  Truncation at
    ``t < n`` removes the ``n - t`` lowest-index and ``n - t`` highest-index
    functions (those of wing degree above ``t``), leaving dimension
    ``k + 2t - n + 1``.
    """

    knots: KnotVector
    order: int
    c0: float
    c1: float
    truncation: int

    def __post_init__(self) -> None:
        n, k, t = self.order, self.knots.k, self.truncation
        if n < 0:
            raise SplineError("order must be nonnegative")
        if self.c0 <= 0.0 or self.c1 <= 0.0:
            raise SplineError("wing scaling constants must be positive")
        if not (-1 <= t <= n):
            raise SplineError(f"truncation must lie in [-1, order], got {t}")
        if n > k and t != n:
            raise SplineError("orders above the knot count support only the full (untruncated) basis")
        if self.knots.multiplicity() > n + 1:
            raise SplineError("knot multiplicity may not exceed order + 1")
        if self.dimension < 1:
            raise SplineError(
                f"truncation {t} leaves no basis functions for k={k}, order={n}"
            )

    def __hash__(self) -> int:
        return hash((self.knots, self.order, self.c0, self.c1, self.truncation))

    @property
    def k(self) -> int:
        return self.knots.k

    @property
    def full_dimension(self) -> int:
        return self.k + self.order + 1

    @property
    def first_index(self) -> int:
        """Full-basis index of the first kept function."""
        return self.order - self.truncation if self.order <= self.k else 0

    @property
    def last_index(self) -> int:
        """Full-basis index of the last kept function (inclusive)."""
        return self.k + self.truncation if self.order <= self.k else self.k + self.order

    @property
    def dimension(self) -> int:
        return self.last_index - self.first_index + 1

    def compiled(self) -> "CompiledBasis":
        cached = getattr(self, "_compiled", None)
        if cached is None:
            cached = compile_basis(self)
            object.__setattr__(self, "_compiled", cached)
        return cached


def make_basis(knots, order: int, truncation: int | None = None) -> BasisSpec:
    """Build a basis spec with wing constants scaled to the knot range.

    The constants are set to the mean knot spacing ``(g[k-1] - g[0])/(k-1)``
    when the range is nonempty and 1 otherwise, so that affinely mapping
    the knots maps the basis functions the same way.
    """
    kv = knots if isinstance(knots, KnotVector) else KnotVector(knots)
    if truncation is None:
        truncation = order
    if kv.k >= 2 and kv.knots[-1] > kv.knots[0]:
        c = float(kv.knots[-1] - kv.knots[0]) / (kv.k - 1)
    else:
        c = 1.0
    return BasisSpec(knots=kv, order=int(order), c0=c, c1=c, truncation=int(truncation))


# ---------------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------------

def _coef_pair(g: np.ndarray, k: int, m: int, c0: float, c1: float, j: int, x: float):
    """Recursion multipliers carrying order m-1 function j into order m.

    Returns (down, up): ``down`` multiplies the contribution to function j,
    ``up`` the contribution to function j + 1.  Zero denominators from
    repeated knots follow the convention up -> 1, down -> 0.
    """
    lo = min(m, k)
    hi = max(m, k)
    if j < lo:
        return (g[j] - x) / c0, 1.0
    if j < hi:
        den = g[j] - g[j - m]
        if den > 0.0:
            return (g[j] - x) / den, (x - g[j - m]) / den
        return 0.0, 1.0
    return 1.0, (x - g[j - m]) / c1


def _eval_all(spec: BasisSpec, x: float) -> np.ndarray:
    """All ``k + n + 1`` untruncated basis values at a point (slow path).

    Direct transcription of the order recursion; used as the reference
    implementation, and as the evaluation route for orders above the knot
    count where the middle block is a polynomial basis.
    """
    g = spec.knots.knots
    k, n = spec.k, spec.order
    c0, c1 = spec.c0, spec.c1
    if k == 0:
        # pure polynomial basis on the whole line
        vals = np.empty(n + 1)
        u = x  # no knots: reference point 0, unit scale
        for d in range(n + 1):
            vals[d] = u**d
        return vals

    i = locate(spec.knots, x)
    vals = np.zeros(k + 1)
    vals[i + 1] = 1.0
    top = min(n, k)
    for m in range(1, top + 1):
        new = np.zeros(k + m + 1)
        for j in range(k + m):
            v = vals[j] if j < vals.size else 0.0
            if v == 0.0:
                continue
            down, up = _coef_pair(g, k, m, c0, c1, j, x)
            new[j] += down * v
            new[j + 1] += up * v
        vals = new
    if n <= k:
        return vals
    # orders above the knot count: wings recurse, middle block is the
    # shifted-and-scaled monomial family spanning polynomials of degree n - k
    mid = 0.5 * (g[0] + g[-1])
    for m in range(k + 1, n + 1):
        new = np.zeros(k + m + 1)
        new[0] = (g[0] - x) / c0 * vals[0]
        for j in range(1, k):
            new[j] = vals[j - 1] + (g[j] - x) / c0 * vals[j]
        for d in range(m - k + 1):
            new[k + d] = ((x - mid) / c0) ** d
        for j in range(m + 1, k + m):
            new[j] = (x - g[j - m - 1]) / c1 * vals[j - 1] + vals[j]
        new[k + m] = (x - g[k - 1]) / c1 * vals[k + m - 1]
        vals = new
    return vals


def _forward_window(spec: BasisSpec, xs: np.ndarray):
    """Vectorized forward recursion over active windows (order <= k).

    Returns (i, vals) where ``i`` is the locate index per point and
    ``vals[p, s]`` is the value of untruncated function ``i[p] + 1 + s``.
    """
    g = spec.knots.knots
    k, n = spec.k, spec.order
    c0, c1 = spec.c0, spec.c1
    i = locate(spec.knots, xs)
    npts = xs.size
    vals = np.zeros((npts, n + 1))
    vals[:, 0] = 1.0
    gpad = np.concatenate([g, [0.0]])  # index guard; guarded entries are masked off
    for m in range(1, n + 1):
        new = np.zeros((npts, n + 1))
        for s in range(m):  # source slot s holds function j = i + 1 + s of order m-1
            j = i + 1 + s
            v = vals[:, s]
            lo, hi = min(m, k), max(m, k)
            left = j < lo
            mid = (~left) & (j < hi)
            right = j >= hi
            down = np.zeros(npts)
            up = np.zeros(npts)
            if left.any():
                down[left] = (g[np.minimum(j[left], k - 1)] - xs[left]) / c0
                up[left] = 1.0
            if mid.any():
                jm = j[mid]
                den = g[jm] - g[jm - m]
                dm = np.zeros(jm.size)
                um = np.ones(jm.size)
                ok = den > 0.0
                dm[ok] = (g[jm[ok]] - xs[mid][ok]) / den[ok]
                um[ok] = (xs[mid][ok] - g[jm[ok] - m]) / den[ok]
                down[mid] = dm
                up[mid] = um
            if right.any():
                down[right] = 1.0
                up[right] = (xs[right] - gpad[np.maximum(j[right] - m, 0)]) / c1
            new[:, s] += down * v
            new[:, s + 1] += up * v
        vals = new
    return i, vals


def eval_basis_many(basis: BasisSpec, xs) -> tuple[np.ndarray, np.ndarray]:
    """Active untruncated basis values at many points.

    Returns ``(first, vals)``: ``first[p] = locate(x_p) + 1`` is the full
    index of the first active function and ``vals`` has one column per
    active slot (n + 1 columns).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise SplineError("evaluation points must be finite")
    n, k = basis.order, basis.k
    if n <= k and k > 0:
        i, vals = _forward_window(basis, xs)
        return i + 1, vals
    first = locate(basis.knots, xs) + 1
    vals = np.zeros((xs.size, n + 1))
    for p, x in enumerate(xs):
        allv = _eval_all(basis, float(x))
        f = first[p]
        stop = min(f + n + 1, allv.size)
        vals[p, : stop - f] = allv[f:stop]
    return first, vals


def eval_basis(basis: BasisSpec, x: float) -> tuple[int, np.ndarray]:
    """Values of the possibly-nonzero truncated basis functions at ``x``.

    Returns ``(first_active, values)`` in truncated indexing: the returned
    values belong to kept functions ``first_active, first_active + 1, ...``
    and there are at most ``order + 1`` of them (fewer where the active
    window sticks out past a truncated wing).
    """
    first, vals = eval_basis_many(basis, [float(x)])
    f = int(first[0])
    row = vals[0]
    lo, hi = basis.first_index, basis.last_index
    start = max(f, lo)
    stop = min(f + basis.order, hi)
    if stop < start:
        return 0, np.zeros(0)
    return start - lo, row[start - f : stop - f + 1].copy()


def design_matrix(basis: BasisSpec, xs) -> np.ndarray:
    """Dense matrix of kept basis values, one row per point."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    first, vals = eval_basis_many(basis, xs)
    out = np.zeros((xs.size, basis.dimension))
    lo, hi = basis.first_index, basis.last_index
    for s in range(vals.shape[1]):
        j = first + s
        keep = (j >= lo) & (j <= hi)
        if keep.any():
            out[np.nonzero(keep)[0], j[keep] - lo] = vals[keep, s]
    return out


# ---------------------------------------------------------------------------
# compiled piecewise-polynomial representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewisePoly:
    """Polynomial per interval, in local coordinates ``x - refs[i]``.

    ``breakpoints`` holds the m knots; there are m + 1 intervals including
    the two unbounded ones.  Interval membership is half-open on the right,
    matching the basis conventions.  Coefficients are stored lowest degree
    first.
    """

    breakpoints: np.ndarray
    refs: np.ndarray
    coeffs: np.ndarray  # (m + 1, degree + 1)

    def __init__(self, breakpoints, refs, coeffs):
        bp = np.asarray(breakpoints, dtype=float).reshape(-1)
        rf = np.asarray(refs, dtype=float).reshape(-1)
        cf = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if rf.size != bp.size + 1 or cf.shape[0] != bp.size + 1:
            raise SplineError("piecewise polynomial needs one ref and one coefficient row per interval")
        for a in (bp, rf, cf):
            a.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "refs", rf)
        object.__setattr__(self, "coeffs", cf)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def _interval(self, xs: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.breakpoints, xs, side="right")

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        idx = self._interval(xs)
        u = xs - self.refs[idx]
        c = self.coeffs[idx]
        acc = c[:, -1].copy()
        for d in range(self.coeffs.shape[1] - 2, -1, -1):
            acc = acc * u + c[:, d]
        return float(acc[0]) if scalar else acc

    def derivative(self) -> "PiecewisePoly":
        c = self.coeffs
        if c.shape[1] == 1:
            dc = np.zeros((c.shape[0], 1))
        else:
            dc = c[:, 1:] * np.arange(1, c.shape[1])
        return PiecewisePoly(self.breakpoints, self.refs, dc)

    def one_sided(self, x: float, p: int, side: str) -> float:
        """p-th derivative at ``x`` using the piece on the given side."""
        idx = int(np.searchsorted(self.breakpoints, x, side="right" if side == "right" else "left"))
        c = self.coeffs[idx].copy()
        for _ in range(p):
            c = c[1:] * np.arange(1, c.size) if c.size > 1 else np.zeros(1)
        u = x - self.refs[idx]
        acc = 0.0
        for d in range(c.size - 1, -1, -1):
            acc = acc * u + c[d]
        return float(acc)

    def to_json(self) -> dict:
        return {
            "breakpoints": [float(repr_float(v)) for v in self.breakpoints],
            "refs": [float(repr_float(v)) for v in self.refs],
            "coeffs": [[float(repr_float(v)) for v in row] for row in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PiecewisePoly":
        return cls(obj["breakpoints"], obj["refs"], obj["coeffs"])


def repr_float(v: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(v))


def _poly_shift_mul(c: np.ndarray, a: float, b: float) -> np.ndarray:
    """Multiply a local polynomial by the affine factor ``a + b*u``."""
    out = np.zeros(c.size + 1)
    out[: c.size] += a * c
    out[1:] += b * c
    return out


def _binomial_shift(d: int, delta: float, scale: float) -> np.ndarray:
    """Local coefficients of ((u + delta) * scale)^d."""
    coeff = np.zeros(d + 1)
    for j in range(d + 1):
        coeff[j] = _comb(d, j) * delta ** (d - j)
    return coeff * scale**d


def _comb(n: int, r: int) -> float:
    from math import comb

    return float(comb(n, r))


@dataclass(frozen=True)
class CompiledBasis:
    """Piecewise-polynomial form of every kept basis function.

    ``coeffs[j, i, d]`` is the degree-d local coefficient of kept function
    j on interval i.  Shares breakpoints/refs across functions so products
    and integrals can work interval by interval.
    """

    basis: BasisSpec
    breakpoints: np.ndarray
    refs: np.ndarray
    coeffs: np.ndarray  # (dim, n_intervals, order + 1)

    @property
    def edges(self) -> np.ndarray:
        """Interval edges ``-inf, breakpoints..., +inf``; interval i is [edges[i], edges[i+1])."""
        return np.concatenate([[-np.inf], self.breakpoints, [np.inf]])

    @property
    def pieces(self) -> list[PiecewisePoly]:
        return [PiecewisePoly(self.breakpoints, self.refs, self.coeffs[j]) for j in range(self.coeffs.shape[0])]

    def evaluate(self, xs) -> np.ndarray:
        """Dense (points, dimension) matrix via Horner on local coordinates."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        idx = np.searchsorted(self.breakpoints, xs, side="right")
        u = xs - self.refs[idx]
        n = self.basis.order
        out = np.zeros((xs.size, self.coeffs.shape[0]))
        lo = self.basis.first_index
        first = idx  # searchsorted-right on the knots is locate + 1: first active index
        for s in range(n + 1):
            j_full = first + s
            keep = (j_full >= lo) & (j_full <= self.basis.last_index)
            if not keep.any():
                continue
            rows = np.nonzero(keep)[0]
            cols = j_full[keep] - lo
            c = self.coeffs[cols, idx[keep], :]
            acc = c[:, -1].copy()
            for d in range(c.shape[1] - 2, -1, -1):
                acc = acc * u[keep] + c[:, d]
            out[rows, cols] = acc
        return out

    def derivative(self) -> "CompiledBasis":
        """The first derivatives of the kept functions, on the same pieces."""
        c = self.coeffs
        if c.shape[2] == 1:
            dc = np.zeros_like(c)
        else:
            dc = c[:, :, 1:] * np.arange(1, c.shape[2])
        return CompiledBasis(basis=self.basis, breakpoints=self.breakpoints, refs=self.refs, coeffs=dc)

    def spline_values(self, weights: np.ndarray, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        idx = np.searchsorted(self.breakpoints, xs, side="right")
        u = xs - self.refs[idx]
        # collapse weighted coefficients per interval, then Horner
        wc = np.tensordot(np.asarray(weights, dtype=float), self.coeffs, axes=(0, 0))  # (intervals, order+1)
        c = wc[idx]
        acc = c[:, -1].copy()
        for d in range(c.shape[1] - 2, -1, -1):
            acc = acc * u + c[:, d]
        return acc


def compile_basis(basis: BasisSpec) -> CompiledBasis:
    """Polynomial-algebra version of the order recursion, interval by interval."""
    g = basis.knots.knots
    k, n = basis.k, basis.order
    c0, c1 = basis.c0, basis.c1
    n_int = k + 1 if k > 0 else 1
    refs = np.empty(n_int)
    if k > 0:
        refs[0] = g[0]
        refs[1:] = g
    else:
        refs[0] = 0.0

    full = np.zeros((basis.full_dimension, n_int, n + 1))
    for ii in range(n_int):
        ref = refs[ii]
        if k == 0:
            for d in range(n + 1):
                full[d, 0, : d + 1] = _binomial_shift(d, 0.0, 1.0)[: d + 1]
            continue
        # order 0 on this interval: the single indicator ii
        cur = {ii: np.array([1.0])}
        top = min(n, k)
        for m in range(1, top + 1):
            new: dict[int, np.ndarray] = {}
            for j, cj in cur.items():
                down_a, down_b, up_a, up_b = _affine_coefs(g, k, m, c0, c1, j, ref)
                if down_a != 0.0 or down_b != 0.0:
                    _acc(new, j, _poly_shift_mul(cj, down_a, down_b))
                if up_a != 0.0 or up_b != 0.0:
                    _acc(new, j + 1, _poly_shift_mul(cj, up_a, up_b))
            cur = new
        if n > k:
            mid = 0.5 * (g[0] + g[-1])
            for m in range(k + 1, n + 1):
                new = {}
                new[0] = _poly_shift_mul(cur.get(0, np.zeros(1)), (g[0] - ref) / c0, -1.0 / c0)
                for j in range(1, k):
                    t1 = cur.get(j - 1, np.zeros(1)).copy()
                    t2 = _poly_shift_mul(cur.get(j, np.zeros(1)), (g[j] - ref) / c0, -1.0 / c0)
                    new[j] = _sum_poly(t1, t2)
                for d in range(m - k + 1):
                    new[k + d] = _binomial_shift(d, ref - mid, 1.0 / c0)
                for j in range(m + 1, k + m):
                    t1 = _poly_shift_mul(cur.get(j - 1, np.zeros(1)), (ref - g[j - m - 1]) / c1, 1.0 / c1)
                    t2 = cur.get(j, np.zeros(1)).copy()
                    new[j] = _sum_poly(t1, t2)
                new[k + m] = _poly_shift_mul(cur.get(k + m - 1, np.zeros(1)), (ref - g[k - 1]) / c1, 1.0 / c1)
                cur = {j: c for j, c in new.items() if np.any(c != 0.0)}
        for j, cj in cur.items():
            full[j, ii, : cj.size] = cj

    lo, hi = basis.first_index, basis.last_index
    kept = full[lo : hi + 1]
    bp = g.copy()
    bp.setflags(write=False)
    refs.setflags(write=False)
    kept.setflags(write=False)
    return CompiledBasis(basis=basis, breakpoints=bp, refs=refs, coeffs=kept)


def _acc(d: dict, j: int, c: np.ndarray) -> None:
    if j in d:
        d[j] = _sum_poly(d[j], c)
    else:
        d[j] = c


def _sum_poly(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[: b.size] += b
    return out


def _affine_coefs(g, k, m, c0, c1, j, ref):
    """Local-coordinate affine multipliers (down, up) for source j at order m."""
    lo, hi = min(m, k), max(m, k)
    if j < lo:
        return (g[j] - ref) / c0, -1.0 / c0, 1.0, 0.0
    if j < hi:
        den = g[j] - g[j - m]
        if den > 0.0:
            return (g[j] - ref) / den, -1.0 / den, (ref - g[j - m]) / den, 1.0 / den
        return 0.0, 0.0, 1.0, 0.0
    return 1.0, 0.0, (ref - g[j - m]) / c1, 1.0 / c1


# ---------------------------------------------------------------------------
# splines and backward evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spline:
    """Weighted combination of the kept basis functions."""

    basis: BasisSpec
    weights: np.ndarray

    def __init__(self, basis: BasisSpec, weights):
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.size != basis.dimension:
            raise SplineError(
                f"weight vector has length {w.size}, basis dimension is {basis.dimension}"
            )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "weights", w)

    def __call__(self, x, method: str = "auto"):
        return eval_spline(self, x, method=method)

    def compiled(self) -> PiecewisePoly:
        cb = self.basis.compiled()
        wc = np.tensordot(self.weights, cb.coeffs, axes=(0, 0))
        return PiecewisePoly(cb.breakpoints, cb.refs, wc)

    def derivative_spline(self, p: int = 1) -> "Spline":
        dm = derivative_decomposition(self.basis, p)
        if dm.basis is None:
            raise SplineError("derivative order reaches the Dirac comb; not a function spline")
        return Spline(dm.basis, dm.matrix @ self.weights)


def _full_weights(basis: BasisSpec, weights: np.ndarray) -> np.ndarray:
    w = np.zeros(basis.full_dimension)
    w[basis.first_index : basis.last_index + 1] = weights
    return w


def _backward_point(basis: BasisSpec, wfull: np.ndarray, x: float) -> float:
    g = basis.knots.knots
    k, n = basis.k, basis.order
    i = locate(basis.knots, x)
    # active loadings at order n: indices i+1 .. i+n+1
    a = np.array([wfull[j] if 0 <= j < wfull.size else 0.0 for j in range(i + 1, i + n + 2)])
    for m in range(n, 0, -1):
        # collapse loadings on order m onto order m-1; active target ids i+1 .. i+m
        new = np.empty(m)
        for s in range(m):
            j = i + 1 + s
            down, up = _coef_pair(g, k, m, basis.c0, basis.c1, j, x)
            new[s] = down * a[s] + up * a[s + 1]
        a = new
    return float(a[0])


def eval_spline(spline: Spline, x, method: str = "auto"):
    """Evaluate the spline by the requested route.

    ``backward`` collapses the weights through the order recursion per
    point; ``compiled`` evaluates the piecewise-polynomial form by Horner;
    ``forward`` sums weights against per-point basis values.  ``auto``
    compiles once the number of queries exceeds roughly ``order`` per
    interval, the break-even of the pre-processing cost.
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    pts = np.atleast_1d(xs)
    basis = spline.basis
    if method == "auto":
        budget = max(1, basis.order) * (basis.k + 1)
        method = "compiled" if pts.size > budget or getattr(basis, "_compiled", None) is not None else "backward"
    if method == "compiled":
        out = basis.compiled().spline_values(spline.weights, pts)
    elif method == "forward":
        first, vals = eval_basis_many(basis, pts)
        wfull = _full_weights(basis, spline.weights)
        out = np.zeros(pts.size)
        for s in range(vals.shape[1]):
            j = first + s
            ok = (j >= 0) & (j < wfull.size)
            out[ok] += wfull[j[ok]] * vals[ok, s]
    elif method == "backward":
        if basis.order > basis.k:
            return eval_spline(spline, x, method="forward")
        wfull = _full_weights(basis, spline.weights)
        out = np.array([_backward_point(basis, wfull, float(p)) for p in pts])
    else:
        raise SplineError(f"unknown evaluation method {method!r}")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiracComb:
    """Formal derivative target below order 0: one atom per knot."""

    knots: KnotVector


@dataclass(frozen=True)
class DerivativeMap:
    """Linear map from weights on a basis to weights on a lower-order one."""

    matrix: np.ndarray
    basis: BasisSpec | None  # None when the target is the Dirac comb
    comb: DiracComb | None = None


def _derivative_step_full(basis: BasisSpec) -> np.ndarray:
    """One-step derivative matrix, full indexing: order n -> order n-1."""
    g = basis.knots.knots
    k, n = basis.k, basis.order
    c0, c1 = basis.c0, basis.c1
    if n < 1:
        raise SplineError("derivative step requires order >= 1")
    rows = k + n  # functions of order n-1
    cols = k + n + 1
    d = np.zeros((rows, cols))
    if n <= k:
        for j in range(cols):
            if j < min(n, k):
                d[j, j] += -n / c0
            elif j == n and k > n:
                d[n, j] += -n / (g[n] - g[0])
            elif n < j < k:
                den1 = g[j - 1] - g[j - n - 1]
                den2 = g[j] - g[j - n]
                if den1 > 0.0:
                    d[j - 1, j] += n / den1
                if den2 > 0.0:
                    d[j, j] += -n / den2
            elif j == k and k > n:
                den = g[k - 1] - g[k - n - 1]
                if den > 0.0:
                    d[k - 1, j] += n / den
            elif j == n == k:
                pass  # the order-n function with n = k is the constant 1
            elif j > max(n, k):
                d[j - 1, j] += n / c1
        return d
    # order above the knot count: wings scale by the constants, the
    # monomial block differentiates within itself
    for j in range(cols):
        if j < k:
            d[j, j] += -n / c0
        elif j <= n:
            deg = j - k
            if deg > 0:
                if n - 1 > k:
                    d[k + deg - 1, j] += deg / c0
                else:
                    # target order equals k: the constant function there is b_{k,k}
                    if deg == 1:
                        d[k, j] += 1.0 / c0
                    else:
                        raise SplineError("monomial block derivative needs order <= knots + 1")
        else:
            d[j - 1, j] += n / c1
    return d


def _comb_step_full(basis: BasisSpec) -> np.ndarray:
    """Difference rule carrying order-0 indicators onto knot atoms."""
    k = basis.k
    if basis.order != 0:
        raise SplineError("comb step applies to an order-0 basis")
    d = np.zeros((k, k + 1))
    d[0, 0] = -1.0
    for j in range(1, k):
        d[j - 1, j] = 1.0
        d[j, j] = -1.0
    d[k - 1, k] = 1.0
    return d


def _lower_spec(basis: BasisSpec) -> BasisSpec:
    t = max(basis.truncation - 1, -1)
    return BasisSpec(
        knots=basis.knots,
        order=basis.order - 1,
        c0=basis.c0,
        c1=basis.c1,
        truncation=min(t, basis.order - 1) if basis.order - 1 <= basis.k else basis.order - 1,
    )


def derivative_decomposition(basis: BasisSpec, p: int) -> DerivativeMap:
    """Matrix sending order-n weights to order-(n - p) weights.

    ``p = order + 1`` lands on the Dirac comb (one atom per knot); the
    returned map then has one row per knot.
    """
    n = basis.order
    if not 0 <= p <= n + 1:
        raise SplineError(f"derivative order p={p} outside [0, order + 1]")
    cur = basis
    mat = np.eye(basis.dimension)
    for _ in range(min(p, n)):
        dfull = _derivative_step_full(cur)
        low = _lower_spec(cur)
        rows = slice(low.first_index, low.last_index + 1)
        cols = slice(cur.first_index, cur.last_index + 1)
        mat = dfull[rows, cols] @ mat
        cur = low
    if p <= n:
        return DerivativeMap(matrix=mat, basis=cur)
    if basis.k == 0:
        raise SplineError("Dirac comb needs at least one knot")
    dfull = _comb_step_full(cur)
    cols = slice(cur.first_index, cur.last_index + 1)
    mat = dfull[:, cols] @ mat
    return DerivativeMap(matrix=mat, basis=None, comb=DiracComb(cur.knots))


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    got = _GL_CACHE.get(npts)
    if got is None:
        got = np.polynomial.legendre.leggauss(npts)
        _GL_CACHE[npts] = got
    return got


def _comb_gram(knots: KnotVector) -> np.ndarray:
    """Diagonal trapezoid-convention Gram of the knot atoms."""
    g = knots.knots
    k = g.size
    if k < 2:
        raise SplineError("comb inner products need at least two knots")
    dg = np.diff(g)
    if np.any(dg <= 0.0):
        raise SplineError("comb inner products require distinct knots")
    diag = np.empty(k)
    diag[0] = 0.5 / dg[0]
    diag[-1] = 0.5 / dg[-1]
    for j in range(1, k - 1):
        diag[j] = 0.5 * (1.0 / dg[j - 1] + 1.0 / dg[j])
    return np.diag(diag)


class LebesgueMeasure:
    """Plain dx on an interval (or the whole line)."""

    def __init__(self, lower: float = -np.inf, upper: float = np.inf):
        self.lower = lower
        self.upper = upper

    def moment_table(self, lo, hi, ref, deg: int) -> np.ndarray:
        """Integrals of (x - ref_i)^d dx over [lo_i, hi_i] clipped to the support."""
        lo = np.maximum(np.asarray(lo, dtype=float), self.lower)
        hi = np.minimum(np.asarray(hi, dtype=float), self.upper)
        ref = np.asarray(ref, dtype=float)
        live = hi > lo
        if not np.all(np.isfinite(lo[live]) & np.isfinite(hi[live])):
            raise ValueError("Lebesgue moment table requires finite clipped bounds")
        p = np.arange(1, deg + 2)
        ua = np.where(live, lo - ref, 0.0)[..., None]
        ub = np.where(live, hi - ref, 0.0)[..., None]
        return (ub**p - ua**p) / p


def gram_matrix(basis: BasisSpec, p: int = 0, weight=None) -> np.ndarray:
    """Matrix of inner products of p-th derivatives of the kept functions.

    Against Lebesgue measure (``weight=None``) the integral runs over the
    whole line, so the truncation order must satisfy ``t < p`` or the wing
    functions would make it diverge.  ``p = order + 1`` uses the trapezoid
    convention for the knot atoms.  A ``weight`` object with a
    ``moment_table(lo, hi, ref, deg)`` method (a prior distribution; see
    ``weighted_gram``) integrates products against that measure instead.
    """
    n = basis.order
    if not 0 <= p <= n + 1:
        raise SplineError(f"penalty order p={p} outside [0, order + 1]")
    if p == n + 1:
        if weight is not None:
            raise SplineError("comb inner products support only the trapezoid convention")
        dm = derivative_decomposition(basis, p)
        core = _comb_gram(basis.knots)
        return dm.matrix.T @ core @ dm.matrix
    dm = derivative_decomposition(basis, p)
    low = dm.basis
    assert low is not None
    if weight is None:
        if basis.truncation >= p:
            raise SplineError(
                "square-integrability over the line needs truncation < penalty order"
            )
        weight = LebesgueMeasure()
    core = weighted_gram(low.compiled(), weight)
    return dm.matrix.T @ core @ dm.matrix


def live_pieces(cb: CompiledBasis):
    """Edges, refs and coefficients of the nonempty intervals some function lives on."""
    lo, hi = cb.edges[:-1], cb.edges[1:]
    live = (hi > lo) & np.any(cb.coeffs != 0.0, axis=(0, 2))
    return lo[live], hi[live], cb.refs[live], cb.coeffs[:, live, :]


def weighted_gram(cb: CompiledBasis, weight) -> np.ndarray:
    """Inner products of compiled functions against a measure.

    ``weight`` must expose ``moment_table(lo, hi, ref, deg)``, the integrals
    of ``(x - ref)^d`` over each ``[lo, hi)`` for every ``d <= deg``; the
    Gram is that table of degree ``2 * order``, read as one Hankel matrix
    per interval, contracted with the coefficients of both factors.
    """
    lo, hi, refs, coeffs = live_pieces(cb)
    deg = coeffs.shape[2] - 1
    table = weight.moment_table(lo, hi, refs, 2 * deg)
    hankel = table[:, np.add.outer(np.arange(deg + 1), np.arange(deg + 1))]
    gram = np.einsum("jia,iab,lib->jl", coeffs, hankel, coeffs, optimize=True)
    return 0.5 * (gram + gram.T)


def moment_rows(cb: CompiledBasis, weight) -> np.ndarray:
    """Vector of integrals of each compiled function against a measure
    (``weight.moment_table`` as in ``weighted_gram``)."""
    lo, hi, refs, coeffs = live_pieces(cb)
    table = weight.moment_table(lo, hi, refs, coeffs.shape[2] - 1)
    return np.einsum("jid,id->j", coeffs, table)
