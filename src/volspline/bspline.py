"""Univariate B-spline bases extended with functions of unbounded support.

A basis built on ``k`` sorted knots and an order ``n`` has ``k + n + 1``
functions: the classical compact-support B-splines in the middle plus, on
each side, wing functions whose extrapolation is polynomial of degree
1, 2, ..., n as one moves away from the knot range.  Capping the wing
degree at ``t`` (the truncation order) simply drops the offending basis
functions; ``t = -1`` recovers compact-support B-splines and ``t = n``
keeps the full basis.

Three evaluation routes are provided and agree to machine precision:

* the forward order recursion, one point at a time (``design_matrix``),
* the backward (de Boor style) collapse of the weight vector, one point at
  a time,
* the compiled piecewise-polynomial form evaluated by Horner's rule.

The two recursions are the per-point reference routes; the compiled form
is the route every engine evaluates by.  It has one Horner kernel,
``_horner``, run on one spline or on the active window of a basis: the
``order + 1`` functions that live on a knot interval (``CompiledBasis``).

Polynomials are stored in local coordinates ``x - ref`` per interval so
that compiled evaluation stays well conditioned for knots far from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable

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
    "design_matrix",
    "compile_basis",
    "eval_spline",
    "derivative_decomposition",
    "gram_matrix",
    "weighted_gram",
    "moment_rows",
    "piece_integrals",
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


def _floor_step(knots: np.ndarray) -> float | None:
    """The step ``h`` of the corrected-floor locate, or None where it is not exact.

    The floor of ``(x - g0) / h`` is monotone in ``x``, so it lands within
    one of the bisection index for every float ``x`` once it does so at
    every knot: knot ``j`` must give ``j - 1`` or ``j``.  The spacing must
    also be equal to 1e-12 of the knots' scale.
    """
    k = knots.size
    if k < 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        h = (knots[-1] - knots[0]) / (k - 1)
        if not (np.isfinite(h) and h > 0.0):
            return None
        d = np.diff(knots)
        if not np.all(np.abs(d - d[0]) <= 1e-12 * max(abs(knots[0]), abs(knots[-1]), d[0])):
            return None
        lag = np.arange(k) - np.floor((knots - knots[0]) / h)
    return float(h) if bool(np.all((lag == 0.0) | (lag == 1.0))) else None


@dataclass(frozen=True)
class KnotVector:
    """Sorted knots, possibly with repeats.  Immutable after construction.

    ``equal_spacing`` marks knots that locate in O(1): the floor of
    ``(x - knots[0]) / h``, then one comparison with a knot on each side.
    Construction sets it where the floor is off by at most one at every
    knot, which makes locate identical to bisection for every float,
    infinities and NaN included.  Other knots locate by bisection.
    """

    knots: np.ndarray
    equal_spacing: bool = field(init=False)

    def __init__(self, knots: Iterable[float]):
        arr = _as_sorted_knots(knots)
        arr.setflags(write=False)
        object.__setattr__(self, "knots", arr)
        h = _floor_step(arr)
        object.__setattr__(self, "equal_spacing", h is not None)
        object.__setattr__(self, "_step", h)
        if h is not None:
            # for the piece index i in [0, k]: the knot above piece i and the
            # one below it, NaN (which no comparison passes) past either end
            above, below = np.concatenate((arr, [np.nan])), np.concatenate(([np.nan], arr))
            for a in (above, below):
                a.setflags(write=False)
            object.__setattr__(self, "_above", above)
            object.__setattr__(self, "_below", below)

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
    """``searchsorted(knots, x, "right") - 1``: -1 below the knots, k - 1 at
    and above the last knot and for NaN."""
    xs = np.asarray(x, dtype=float)
    idx = _piece_index(knots, np.atleast_1d(xs))
    idx -= 1
    return int(idx[0]) if xs.ndim == 0 else idx


def _piece_index(knots: KnotVector, xs: np.ndarray) -> np.ndarray:
    """``searchsorted(knots, xs, "right")``, the piece index of a piecewise
    polynomial on these breakpoints, as a new intp array."""
    if not knots.equal_spacing:
        return np.searchsorted(knots.knots, xs, side="right")
    above, below = knots._above, knots._below
    k = above.size - 1
    with np.errstate(over="ignore"):
        t = xs - above[0]
        t /= knots._step
    np.floor(t, out=t)
    # the floor plus one, clipped in float: -inf goes to 0, +inf and NaN
    # (fmin drops it) to k
    t += 1.0
    np.maximum(t, 0.0, out=t)
    np.fmin(t, float(k), out=t)
    idx = t.astype(np.intp)
    # the floor is off by at most one (KnotVector checks it at every knot):
    # one comparison with the knot on each side makes it exact.  t and mask
    # are reused as buffers (take buffers its out= in the default "raise"
    # mode, not in "clip")
    mask = np.empty(xs.shape, dtype=bool)
    above.take(idx, out=t, mode="clip")
    idx += np.greater_equal(xs, t, out=mask)
    below.take(idx, out=t, mode="clip")
    idx -= np.less(xs, t, out=mask)
    return idx


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

def _affine_coefs(g, k, m, c0, c1, j, ref):
    """Recursion multipliers carrying order m-1 function j into order m.

    Each multiplier is affine in the point x, ``a + b * (x - ref)``; returns
    ``(down_a, down_b, up_a, up_b)``: ``down`` multiplies the contribution
    to function j, ``up`` the contribution to function j + 1.  At
    ``ref = x`` the ``a`` terms are the multipliers at x.  Zero denominators
    from repeated knots follow the convention up -> 1, down -> 0.
    """
    lo, hi = min(m, k), max(m, k)
    if j < lo:
        return (g[j] - ref) / c0, -1.0 / c0, 1.0, 0.0
    if j < hi:
        den = g[j] - g[j - m]
        if den > 0.0:
            return (g[j] - ref) / den, -1.0 / den, (ref - g[j - m]) / den, 1.0 / den
        return 0.0, 0.0, 1.0, 0.0
    return 1.0, 0.0, (ref - g[j - m]) / c1, 1.0 / c1


def _eval_all(spec: BasisSpec, x: float) -> np.ndarray:
    """All ``k + n + 1`` untruncated basis values at a point.

    Direct transcription of the order recursion, the forward reference
    route; for orders above the knot count the middle block is a
    polynomial basis.
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
            down, _, up, _ = _affine_coefs(g, k, m, c0, c1, j, x)
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


def design_matrix(basis: BasisSpec, xs) -> np.ndarray:
    """Dense matrix of kept basis values, one row per point, by the forward
    recursion at each point."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise SplineError("evaluation points must be finite")
    full = np.array([_eval_all(basis, x) for x in xs.tolist()]).reshape(xs.size, basis.full_dimension)
    return full[:, basis.first_index : basis.last_index + 1]


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

    Evaluation at many points costs O(1) per point: the breakpoints are
    held as a ``KnotVector``, so evenly spaced ones (every slice of a
    calibration is) are located by the corrected floor rather than by
    bisection, and Horner's rule gathers each degree's coefficients from a
    contiguous column.  Its values are those of bisection, row gathers and
    ``acc = acc * u + c[:, d]``, bit for bit.  ``breakpoints`` may be given
    as a ``KnotVector`` to reuse its spacing check.
    """

    breakpoints: np.ndarray
    refs: np.ndarray
    coeffs: np.ndarray  # (m + 1, degree + 1)

    def __init__(self, breakpoints, refs, coeffs):
        kv = breakpoints if isinstance(breakpoints, KnotVector) else KnotVector(np.reshape(breakpoints, -1))
        rf = np.asarray(refs, dtype=float).reshape(-1)
        cf = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if rf.size != kv.k + 1 or cf.shape[0] != kv.k + 1:
            raise SplineError("piecewise polynomial needs one ref and one coefficient row per interval")
        columns = np.ascontiguousarray(cf.T)  # (degree + 1, m + 1): one row per degree
        for a in (rf, cf, columns):
            a.setflags(write=False)
        object.__setattr__(self, "breakpoints", kv.knots)
        object.__setattr__(self, "refs", rf)
        object.__setattr__(self, "coeffs", cf)
        object.__setattr__(self, "_knots", kv)
        object.__setattr__(self, "_columns", columns)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        idx = _piece_index(self._knots, xs)
        acc = _horner(self._columns, idx, _local_coordinates(self.refs, idx, xs))
        return float(acc[0]) if scalar else acc

    def derivative(self) -> "PiecewisePoly":
        return PiecewisePoly(self._knots, self.refs, _derivative_coeffs(self.coeffs))

    def one_sided(self, x: float, p: int, side: str) -> float:
        """p-th derivative at ``x`` using the piece on the given side."""
        idx = np.searchsorted(self.breakpoints, [x], side="right" if side == "right" else "left")
        pp = self
        for _ in range(p):
            pp = pp.derivative()
        return float(_horner(pp._columns, idx, _local_coordinates(pp.refs, idx, x))[0])


def _derivative_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Local coefficients of the derivatives, the degree along the last axis;
    a constant's derivative keeps one zero coefficient."""
    if coeffs.shape[-1] == 1:
        return np.zeros_like(coeffs)
    return coeffs[..., 1:] * np.arange(1, coeffs.shape[-1])


def _local_coordinates(refs: np.ndarray, idx: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``xs - refs[idx]``, each point relative to its piece's reference."""
    u = refs.take(idx)
    np.subtract(xs, u, out=u)
    return u


def _horner(columns: np.ndarray, idx: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Values at local coordinates ``u`` in pieces ``idx`` by Horner's rule,
    gathering the degree-d coefficients ``columns[d]`` along axis 0: one per
    piece for a spline, a row per piece for a window (with ``u`` a column)."""
    acc = columns[-1].take(idx, axis=0)
    column = np.empty_like(acc)
    for d in range(columns.shape[0] - 2, -1, -1):
        acc *= u
        acc += columns[d].take(idx, axis=0, out=column, mode="clip")  # clip: out= unbuffered
    return acc


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
        coeff[j] = comb(d, j) * delta ** (d - j)
    return coeff * scale**d


@dataclass(frozen=True)
class CompiledBasis:
    """Piecewise-polynomial form of every kept basis function.

    ``coeffs[j, i, d]`` is the degree-d local coefficient of kept function
    j on interval i.  Shares breakpoints/refs across functions so products
    and integrals can work interval by interval.  Besides the pieces it
    holds only the full-basis index of the first kept function and the
    basis order, not the ``BasisSpec``: the spec caches its compiled form,
    and a reference back would make a cycle that only the garbage collector
    frees.  Piece i (``_piece_index``) carries only the ``order + 1``
    functions of full index ``i .. i + order``, its active window:
    ``active`` evaluates it and ``evaluate`` scatters it into a dense matrix.
    """

    first_index: int
    order: int  # of the basis; a derivative keeps it and loses a coefficient degree
    breakpoints: np.ndarray
    refs: np.ndarray
    coeffs: np.ndarray  # (dim, n_intervals, degree + 1)

    @cached_property
    def knot_vector(self) -> KnotVector:
        """The breakpoints with their spacing check, for locating points."""
        return KnotVector(self.breakpoints)

    @cached_property
    def window(self) -> tuple[np.ndarray, np.ndarray]:
        """``kept[i, s]``, the kept index of full function ``i + s`` (the
        dimension for a dropped one), and ``columns[d, i, s]``, its degree-d
        coefficient on piece i (zero for a dropped one), for ``_horner``."""
        dim, pieces = self.coeffs.shape[0], np.arange(self.refs.size)[:, None]
        kept = pieces + np.arange(self.order + 1) - self.first_index
        kept[(kept < 0) | (kept >= dim)] = dim
        padded = np.concatenate([self.coeffs, np.zeros((1,) + self.coeffs.shape[1:])])
        columns = np.ascontiguousarray(padded[kept, pieces].transpose(2, 0, 1))
        for a in (kept, columns):
            a.setflags(write=False)
        return kept, columns

    @property
    def edges(self) -> np.ndarray:
        """Interval edges ``-inf, breakpoints..., +inf``; interval i is [edges[i], edges[i+1])."""
        return np.concatenate([[-np.inf], self.breakpoints, [np.inf]])

    def active(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """The piece index of each point and the ``(points, order + 1)``
        values of its window's functions, in the slots of ``window``."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        idx = _piece_index(self.knot_vector, xs)
        return idx, _horner(self.window[1], idx, _local_coordinates(self.refs, idx, xs)[:, None])

    def evaluate(self, xs) -> np.ndarray:
        """Dense (points, dimension) matrix of ``active``'s values; a dropped
        function's go to a spare last column, so they overwrite no kept one."""
        idx, values = self.active(xs)
        dim = self.coeffs.shape[0]
        out = np.zeros((idx.size, dim + 1))
        np.put_along_axis(out, self.window[0][idx], values, axis=1)
        return out[:, :dim].copy()

    def derivative(self) -> "CompiledBasis":
        """The first derivatives of the kept functions, on the same pieces."""
        return replace(self, coeffs=_derivative_coeffs(self.coeffs))

    def affine_image(self, g0: float, h: float) -> "CompiledBasis":
        """The basis of the knots ``g0 + h * breakpoints``, without a compile.

        ``make_basis`` scales its wing constants with the knot spacing, so
        the functions of the mapped knots are these functions composed with
        ``x -> (x - g0) / h``: breakpoints and refs move by that map, and a
        degree-d local coefficient is divided by ``h**d``.
        """
        if not h > 0.0:
            raise SplineError("an affine image of a basis needs a positive scale")
        bp, refs = g0 + h * self.breakpoints, g0 + h * self.refs
        coeffs = self.coeffs / h ** np.arange(self.coeffs.shape[2])
        for a in (bp, refs, coeffs):
            a.setflags(write=False)
        return replace(self, breakpoints=bp, refs=refs, coeffs=coeffs)

    def combination(self, weights) -> PiecewisePoly:
        """The spline with these weights on the kept functions, as one piecewise polynomial."""
        wc = np.tensordot(np.asarray(weights, dtype=float), self.coeffs, axes=(0, 0))
        return PiecewisePoly(self.knot_vector, self.refs, wc)

    def spline_rows(self, weights, xs) -> np.ndarray:
        """``combination(w)(xs)`` for each row w of ``weights``, one row of
        values each, bit for bit; the points are located once for all rows."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        idx = _piece_index(self.knot_vector, xs)
        u = _local_coordinates(self.refs, idx, xs)
        out = np.empty((len(weights), xs.size))
        for row, w in zip(out, np.asarray(weights, dtype=float)):
            row[:] = _horner(np.ascontiguousarray(np.tensordot(w, self.coeffs, axes=(0, 0)).T), idx, u)
        return out


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
    return CompiledBasis(first_index=lo, order=n, breakpoints=bp, refs=refs, coeffs=kept)


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

    def __call__(self, x, method: str = "compiled"):
        return eval_spline(self, x, method=method)

    def compiled(self) -> PiecewisePoly:
        return self.basis.compiled().combination(self.weights)


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
            down, _, up, _ = _affine_coefs(g, k, m, basis.c0, basis.c1, j, x)
            new[s] = down * a[s] + up * a[s + 1]
        a = new
    return float(a[0])


def eval_spline(spline: Spline, x, method: str = "compiled"):
    """Evaluate the spline by the requested route.

    ``compiled``, the engine route, evaluates the piecewise-polynomial form
    of the basis (compiled once per ``BasisSpec``) by Horner.  The per-point
    reference routes: ``backward`` collapses the weights through the order
    recursion, ``forward`` sums weights against the recursion's basis
    values.
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    pts = np.atleast_1d(xs)
    basis = spline.basis
    if method == "compiled":
        out = basis.compiled().combination(spline.weights)(pts)
    elif method == "forward":
        out = design_matrix(basis, pts) @ spline.weights
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


def gram_matrix(basis: BasisSpec, p: int = 0) -> np.ndarray:
    """Matrix of Lebesgue inner products of p-th derivatives of the kept
    functions (``weighted_gram`` integrates against a measure).

    The integral runs over the whole line, so the truncation order must
    satisfy ``t < p`` or the wing functions would make it diverge.
    ``p = order + 1`` uses the trapezoid convention for the knot atoms.
    """
    n = basis.order
    if not 0 <= p <= n + 1:
        raise SplineError(f"penalty order p={p} outside [0, order + 1]")
    dm = derivative_decomposition(basis, p)
    if p == n + 1:
        core = _comb_gram(basis.knots)
    elif basis.truncation >= p:
        raise SplineError("square-integrability over the line needs truncation < penalty order")
    else:
        core = weighted_gram(dm.basis.compiled(), LebesgueMeasure())
    return dm.matrix.T @ core @ dm.matrix


def live_pieces(cb: CompiledBasis):
    """Edges, refs and coefficients of the nonempty intervals some function lives on."""
    lo, hi = cb.edges[:-1], cb.edges[1:]
    live = (hi > lo) & np.any(cb.coeffs != 0.0, axis=(0, 2))
    return lo[live], hi[live], cb.refs[live], cb.coeffs[:, live, :]


def piece_integrals(coeffs: np.ndarray, table: np.ndarray, total: bool = False) -> np.ndarray:
    """Integrals ``(..., dim, pieces)`` of the functions of ``coeffs`` (as in
    ``CompiledBasis.coeffs``) over each piece against a moment table, or a
    stack of them, ``table[..., piece, d]``; with ``total``, summed over the
    pieces, ``(..., dim)``."""
    return np.einsum("jid,...id->...j" if total else "jid,...id->...ji", coeffs, table)


_GRAM = "jia,iab,lib->jl"


@lru_cache(maxsize=64)
def _gram_path(coeffs_shape: tuple, hankel_shape: tuple) -> tuple:
    """The contraction path ``optimize=True`` finds for ``_GRAM`` on operands
    of these shapes: it depends on the shapes alone, so each is searched once.
    A tuple, so that no caller can change the cached path."""
    coeffs, hankel = np.empty(coeffs_shape), np.empty(hankel_shape)
    return tuple(np.einsum_path(_GRAM, coeffs, hankel, coeffs, optimize=True)[0])


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
    gram = np.einsum(_GRAM, coeffs, hankel, coeffs, optimize=_gram_path(coeffs.shape, hankel.shape))
    return 0.5 * (gram + gram.T)


def moment_rows(cb: CompiledBasis, weight) -> np.ndarray:
    """Vector of integrals of each compiled function against a measure
    (``weight.moment_table`` as in ``weighted_gram``)."""
    lo, hi, refs, coeffs = live_pieces(cb)
    return piece_integrals(coeffs, weight.moment_table(lo, hi, refs, coeffs.shape[2] - 1), total=True)
