"""Exact solver for the quadratic programs of this package, and its front ends.

The solver minimizes ``0.5 x^T P x + f^T x`` over orthant rows, equalities
and at most one second-moment cap ``||C x|| <= d`` (``SOCProgram.cap``, the
convex-order constraint of a regression and the only cone of the package),
sized for the programs the engines build (a few hundred variables, a few
thousand rows).  It has one method, the dual active-set method of
Goldfarb & Idnani (1983) on kept factors (``_dual_active_set``), and one
optimality check.  The method runs on a positive definite curvature:

- P itself, or else ``P + A^T A`` over the equalities ``A x = b``;
- for a flat program (an LP, or a P that not even the equalities make
  definite), ``P + sigma I`` in proximal-point rounds (Rockafellar 1976);
- with a cap, ``P + mu C^T C`` of the cap's matrix, the multiplier mu
  found by a safeguarded scalar root search (More & Sorensen 1983).

``solve_socp`` reports a status, and why a route stopped short, and
accepts nothing: the front ends raise on every status but ``optimal``.

An equality-constrained hierarchy is available through a
quadratic-form-weighted pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OptError",
    "InfeasibleError",
    "SOCProgram",
    "QuadForm",
    "Solution",
    "solve_socp",
    "solve_qp",
    "pseudoinverse_lsq",
]


class OptError(ValueError):
    """Malformed program or numerical failure inside the solver."""


class InfeasibleError(OptError):
    """Raised by front ends when the solver certifies infeasibility."""


@dataclass(frozen=True)
class SOCProgram:
    """minimize ``0.5 x^T P x + f^T x`` subject to

    - the equalities ``A_eq x = b_eq``;
    - the orthant rows ``G x <= h``, one matrix block;
    - with ``cap = (C, d)``, the second-moment cap ``||C x|| <= d``: C has
      at least one row and a column per variable, and ``d > 0``.

    P is symmetric PSD and zero when omitted; an omitted block has no rows.
    """

    f: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    P: np.ndarray
    G: np.ndarray
    h: np.ndarray
    cap: tuple[np.ndarray, float] | None

    def __init__(self, f, A_eq=None, b_eq=None, P=None, G=None, h=None, cap=None):
        f = np.asarray(f, dtype=float).reshape(-1)
        n = f.size
        A_eq, b_eq = self._rows(A_eq, b_eq, n, "equality")
        G, h = self._rows(G, h, n, "orthant")
        P = np.zeros((n, n)) if P is None else np.asarray(P, dtype=float)
        if P.shape != (n, n):
            raise OptError("P must be square and match the objective length")
        if cap is not None:
            C, d = np.atleast_2d(np.asarray(cap[0], dtype=float)), float(cap[1])
            if C.shape[0] == 0 or C.shape[1] != n:
                raise OptError(f"cap matrix C must have rows and {n} columns, got shape {C.shape}")
            if d <= 0.0:
                raise OptError(f"cap ||C x|| <= d has d = {d!r}; a cap needs d > 0")
            cap = (C, d)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "A_eq", A_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "cap", cap)

    @staticmethod
    def _rows(M, v, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
        """A row block ``M`` with ``n`` columns and its right-hand side ``v``."""
        M = np.atleast_2d(np.asarray(M, dtype=float)) if M is not None and np.size(M) else np.zeros((0, n))
        v = np.asarray(v, dtype=float).reshape(-1) if v is not None else np.zeros(0)
        if M.shape[0] != v.size or (M.shape[0] and M.shape[1] != n):
            raise OptError(f"{what} block shapes are inconsistent")
        return M, v

    @property
    def n(self) -> int:
        return self.f.size

    def objective(self, x) -> float:
        return float(0.5 * x @ self.P @ x + self.f @ x)


@dataclass(frozen=True)
class QuadForm:
    """Objective ``x -> 0.5 x^T P x + q^T x`` with P symmetric PSD."""

    P: np.ndarray
    q: np.ndarray

    def __init__(self, P, q=None):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        if P.shape[0] != P.shape[1]:
            raise OptError("P must be square")
        sym_err = np.abs(P - P.T).max() if P.size else 0.0
        scale = max(1.0, np.abs(P).max() if P.size else 0.0)
        if sym_err > 1e-12 * scale:
            raise OptError("P must be symmetric")
        P = 0.5 * (P + P.T)
        w = np.linalg.eigvalsh(P) if P.size else np.zeros(1)
        if w.min() < -1e-8 * max(1.0, abs(w.max())):
            raise OptError("quadratic form is not positive semidefinite")
        if q is None:
            q = np.zeros(P.shape[0])
        q = np.asarray(q, dtype=float).reshape(-1)
        if q.size != P.shape[0]:
            raise OptError("q length does not match P")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "q", q)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.P @ x + self.q @ x)


@dataclass(frozen=True)
class Solution:
    x: np.ndarray
    status: str  # optimal | infeasible | max_iter
    kkt_residuals: tuple[float, float, float]  # primal, dual, gap
    iterations: int  # working-set steps, over every solve of the route
    objective: float
    exit: str = ""  # why the route stopped short of an answer; "" when it did not


# why a route stopped short of an answer (``Solution.exit``)
OUT_OF_STEPS = "out of working-set steps"
SINGULAR = "singular KKT system"
NO_BRACKET = "cap search did not bracket"
CAP_UNCONVERGED = "cap search did not converge"
PROX_EXHAUSTED = "proximal rounds exhausted"

_CAP_ROUNDS = 60  # solves of the cap's multiplier search, doublings and secant steps, at most
_PROX_ROUNDS = 200  # proximal-point rounds of a flat program, at most
_TOL = 1e-8  # the optimality test of every solve: residuals and gap at or below it


def _equilibrate(G, h, A, b, f, P):
    """Ruiz-style scaling in six sweeps: each row of G and of A has its own
    scalar, and a zero row of G keeps its scale.

    Columns are scaled by their largest entry in ``[d P d; G; A]``, as in
    OSQP; a column with no entry at all keeps its scale.  Returns the scaled
    ``G, h, A, b, f, P`` and the column scales ``d``.

    The sweeps read only magnitudes, and rounding is symmetric, so
    ``|(s P) t| = (s |P|) t`` for positive scales: ``|P|``, ``|G|`` and
    ``|A|`` are taken once, and a column's largest entry is the largest of
    its three blocks' maxima.  Rounding is also monotone, so for a positive
    column scale ``max_i fl(x_i d) = fl(max_i x_i * d)``: each block's
    column maxima are taken before the column scale is applied, and each
    sweep scales one copy of ``|G|`` and of ``|A|`` in place.  Those are
    kept transposed, one row per column of G, so that both reductions run
    along contiguous memory; ``max`` is exact, so the order changes no bit.
    """
    m, n = G.shape
    d = np.ones(n)
    e = np.ones(m)
    a = np.ones(A.shape[0])
    absP, absGT, absAT = np.abs(P), np.abs(G.T, order="C"), np.abs(A.T, order="C")
    for _ in range(6):
        GsT, AsT = absGT * e, absAT * a  # column-scaled once d is updated
        col = (d[:, None] * absP).max(axis=0) * d
        np.maximum(col, GsT.max(axis=1, initial=0.0) * d, out=col)
        np.maximum(col, AsT.max(axis=1, initial=0.0) * d, out=col)
        d /= np.sqrt(np.where(col > 0.0, col, 1.0))
        GsT *= d[:, None]
        row = GsT.max(axis=0, initial=0.0)
        e /= np.sqrt(np.where(row > 0.0, row, 1.0))
        AsT *= d[:, None]
        a /= np.sqrt(np.maximum(AsT.max(axis=0, initial=0.0), 1e-12))
    Gs = (e[:, None] * G) * d[None, :]
    As = (a[:, None] * A) * d[None, :]
    fs = d * f
    Ps = (d[:, None] * P) * d[None, :]
    # OSQP's cost scaling: the larger of |f| and the mean column size of P
    obj_scale = max(np.abs(fs).max(), np.abs(Ps).max(axis=0).mean(), 1e-12)
    return Gs, e * h, As, a * b, fs / obj_scale, Ps / obj_scale, d


def _penalized_kkt_point(P, G, h, A, b, f):
    """x minimizing ``0.5 x^T P x + f^T x + 0.5 |G x - h|^2`` subject to
    ``A x = b``, and the multiplier y of the equalities."""
    n, p = P.shape[0], A.shape[0]
    K = np.block([[P + G.T @ G, A.T], [A, np.zeros((p, p))]])
    xy, *_ = np.linalg.lstsq(K, np.concatenate([G.T @ h - f, b]), rcond=None)
    return xy[:n], xy[n:]


def _kkt(H, N):
    """Solver of the KKT system ``[[H, N^T], [N, 0]] v = rhs``: an LU
    factorization (``dgetrf``), then ``dgetrs`` plus one refinement step
    per right-hand side.  None when a pivot is exactly zero or the factors
    are not finite, as they are whenever the matrix is not: each entry
    ends in the factors through subtractions and divisions, which keep a
    NaN or an infinity non-finite."""
    from scipy.linalg.lapack import dgetrf, dgetrs  # here, so that importing opt does not load scipy.linalg

    n, k = H.shape[0], N.shape[0]
    K = np.zeros((n + k, n + k))
    K[:n, :n] = H
    K[:n, n:] = N.T
    K[n:, :n] = N
    lu, piv, info = dgetrf(K)
    if info != 0 or not np.isfinite(lu).all():
        return None

    def solve(rhs):
        sol = dgetrs(lu, piv, rhs)[0]
        sol += dgetrs(lu, piv, rhs - K @ sol)[0]  # one refinement step
        return sol

    return solve


def _strict_cholesky(P) -> np.ndarray | None:
    """Lower Cholesky factor of P, or None unless every eigenvalue of P is
    above 1e-12 of the largest (rounding can leave a singular P large pivots)."""
    if not P.size:
        return None
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return None
    eig = np.linalg.eigvalsh(P)
    return L if eig[0] > 1e-12 * eig[-1] else None


class _WorkingSetFactors:
    """The KKT system of the equalities and a working set W, kept factored
    across the steps of ``_dual_active_set``.

    With ``P = L L^T`` and ``N`` the normals of the equalities and then of
    W in order, it keeps ``M = L^{-1} N^T``, the lower Cholesky factor
    ``R`` of ``M^T M = N P^{-1} N^T`` and ``M^T g`` with ``g = L^{-1} f``.
    A row joins by one new column of M and one new row of R; a row that
    leaves refactors only the block of R after it.  Solving with these
    factors costs triangular solves and matrix-vector products, and no
    factorization of the KKT matrix.
    """

    def __init__(self, L, A, f):
        from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs  # as in _kkt

        self._potrf, self._potrs, self._trtrs = dpotrf, dpotrs, dtrtrs
        self.L = np.asfortranarray(L)
        self.g = self.lower(f)
        self.M = self.lower(A.T)
        self.R = self.cholesky(self.M.T @ self.M)
        self.Mg = self.M.T @ self.g

    def lower(self, rhs, trans: int = 0):
        """``L^{-1} rhs``, or ``L^{-T} rhs`` with ``trans=1``."""
        return self._trtrs(self.L, rhs, lower=1, trans=trans)[0]

    def cholesky(self, S):
        """Lower Cholesky factor of S (Fortran order), or None."""
        c, info = self._potrf(S, lower=1, clean=1)
        return c if info == 0 else None

    def solve(self, rhs):
        """``(M^T M)^{-1} rhs``."""
        return self._potrs(self.R, rhs, lower=1)[0] if rhs.size else rhs

    def point(self, c):
        """The KKT point of the equalities and W for the objective and the
        right-hand sides c of the rows of N: ``x``, and ``-r`` as the
        multipliers of those rows."""
        r = self.solve(self.Mg + c)
        return self.lower(self.M @ r - self.g, trans=1), r

    def direction(self, v):
        """For ``v = L^{-1} n_q``: ``w = v - M s``, the part of v outside
        the span of M, and ``s = (M^T M)^{-1} M^T v``.  The KKT direction
        of W for ``-n_q`` is ``dx = -L^{-T} w`` with multipliers ``-s``, and
        its curvature ``dx^T P dx`` is ``|w|^2``."""
        s = self.solve(self.M.T @ v)
        return v - self.M @ s, s

    def join(self, v, s, curv: float) -> None:
        """Append the row of ``v = L^{-1} n_q``.  The new row of R is
        ``R^{-1} M^T v = R^T s``, and its pivot ``sqrt(|v|^2 - |R^T s|^2)``
        is ``sqrt(curv)``, the step's own curvature."""
        k = self.R.shape[0]
        R = np.zeros((k + 1, k + 1), order="F")
        R[:k, :k] = self.R
        R[k, :k] = self.R.T @ s
        R[k, k] = np.sqrt(curv)
        self.R = R
        self.M = np.column_stack([self.M, v])
        self.Mg = np.append(self.Mg, v @ self.g)

    def drop(self, i: int) -> bool:
        """Remove the row at position i of N.  The rows of R after it lose
        column i; their block ``T`` is refactored as ``chol(T T^T)``.
        False when that block is not numerically positive definite."""
        T = self.R[i + 1 :, i:]
        keep = np.r_[0:i, i + 1 : self.R.shape[0]]
        R = np.asfortranarray(self.R[np.ix_(keep, keep)])
        tail = self.cholesky(T @ T.T)
        if tail is None:
            return False
        R[i:, i:] = tail
        self.R = R
        self.M = self.M[:, keep]
        self.Mg = self.Mg[keep]
        return True


def _dual_active_set(L, P, G, h, A, b, f, viol_tol: float, max_steps: int):
    """Dual active-set solve of ``min 0.5 x^T P x + f^T x`` subject to
    ``G x <= h`` and ``A x = b``, with P positive definite (``P = L L^T``).

    The method of Goldfarb & Idnani (1983, Math. Programming 27), dense:
    from the equality-constrained minimum, the most violated row ``q`` joins
    the working set ``W`` by raising its multiplier ``t`` from 0.  The
    point and the multipliers of ``W`` move along the KKT direction of
    ``W`` until row q holds with equality (a full step: q joins W), or
    until a multiplier of W falls to 0 first (a partial step: that row
    leaves W and t keeps rising).  A normal ``n_q`` in the span of the
    equality normals and those of W gives no primal direction; then only
    the multipliers move, and with none falling the program is infeasible.

    The KKT system of W stays factored across the steps
    (``_WorkingSetFactors``): a step's direction, and the point and
    multipliers re-solved after a full step, cost triangular solves and
    matrix-vector products.  Once no row outside W is violated, the point
    and multipliers are solved from W's KKT system itself (``_kkt``: one LU
    factorization and one refinement) and the rows are checked again, so
    the result depends on the kept factors only through W and its order.

    Returns ``(x, y, z, active, steps, stop)``: the point, the multipliers
    (``z`` is 0 off W), ``active`` marking W, the full and partial steps
    taken, and ``stop``.  That is None once the norm of ``max(G x - h, 0)``
    over the rows outside W is at most ``viol_tol``; ``"infeasible"`` when
    row q lies in the span and no multiplier falls, with ``x`` the point
    where q is violated; ``SINGULAR`` on a singular KKT system; and
    ``OUT_OF_STEPS`` after ``max_steps`` steps.
    """
    n, p, m = P.shape[0], A.shape[0], G.shape[0]
    W: list[int] = []
    x, y, z = np.zeros(n), np.zeros(p), np.zeros(m)
    steps = 0

    def stop(why):
        active = np.zeros(m, dtype=bool)
        active[W] = True
        return x, y, z, active, steps, why

    fac = _WorkingSetFactors(L, A, f)
    if fac.R is None:
        return stop(SINGULAR)
    x, r = fac.point(b)
    y = -r[:p]
    exact = False  # whether x, y and z were solved from W's KKT system
    while True:
        viol = G @ x - h
        viol[W] = 0.0
        np.maximum(viol, 0.0, out=viol)
        if np.linalg.norm(viol) <= viol_tol:
            if exact:
                return stop(None)
            kkt = _kkt(P, np.vstack([A, G[W]]))
            if kkt is None:
                return stop(SINGULAR)
            sol = kkt(np.concatenate([-f, b, h[W]]))
            x, y = sol[:n], sol[n : n + p]
            z[W] = np.maximum(sol[n + p :], 0.0)
            exact = True
            continue
        exact = False
        q = int(np.argmax(viol))
        nq = G[q]
        v = fac.lower(nq)
        curv0 = float(v @ v)  # curvature along n_q with no row active: the scale of a zero step
        while True:
            steps += 1
            if steps > max_steps:
                return stop(OUT_OF_STEPS)
            w, s = fac.direction(v)
            dzw = -s[p:]
            curv = float(w @ w)  # dx^T P dx
            in_span = curv <= 1e-14 * curv0
            falling = np.flatnonzero(dzw < 0.0)
            if not falling.size:
                if in_span:
                    return stop("infeasible")  # no multiplier falls: the rows cannot all hold
                t_drop, j = np.inf, -1
            else:
                ratios = z[np.asarray(W)[falling]] / -dzw[falling]
                j = int(falling[np.argmin(ratios)])
                t_drop = max(float(ratios.min()), 0.0)
            if not in_span and float(nq @ x - h[q]) / curv <= t_drop:
                # full step: q joins W, and the point of W is solved afresh
                W.append(q)
                fac.join(v, s, curv)
                x, r = fac.point(np.concatenate([b, h[W]]))
                y = -r[:p]
                z[W] = np.maximum(-r[p:], 0.0)
                break
            # partial step: the multiplier of row W[j] reaches 0 and it leaves
            if not in_span:
                x = x - t_drop * fac.lower(w, trans=1)
            z[W] += t_drop * dzw
            z[W[j]] = 0.0
            del W[j]
            if not fac.drop(p + j):
                return stop(SINGULAR)


def _least_violation(x, G, h, A, b, viol_tol: float, max_steps: int):
    """For rows ``G x <= h`` that cannot all hold: the point of ``A x = b``
    whose violations have the least sum of squares, ``x`` of the minimum of
    ``0.5 |t|^2 + 0.5e-6 |x|^2`` subject to ``G x - t <= h`` and ``A x = b``,
    so that the family it violates most is the one to blame.  The route's
    own point ``x`` when that solve fails."""
    m, n = G.shape
    Pe = np.diag(np.r_[np.full(n, 1e-6), np.ones(m)])
    Ge, Ae = np.hstack([G, -np.eye(m)]), np.hstack([A, np.zeros((A.shape[0], m))])
    out = _dual_active_set(np.sqrt(Pe), Pe, Ge, h, Ae, b, np.zeros(n + m), viol_tol, max_steps)
    return x if out[5] else out[0][:n]


def solve_socp(prog: SOCProgram) -> Solution:
    """Solve ``min 0.5 x^T P x + f^T x`` over the orthant rows, the
    equalities and at most one second-moment cap ``||C x|| <= d``.

    Returns a Solution whose status is ``optimal``, ``infeasible`` or
    ``max_iter``, and whose ``exit`` says why a route stopped short.
    ``optimal`` means, on the internally equilibrated problem, with one
    tolerance for every engine, ``_TOL = 1e-8``:

    - primal residuals at or below ``_TOL``;
    - the dual residual at or below ``_TOL``, relative to the largest of 1,
      ``|f|``, ``|P x|``, ``|A^T y|`` and ``|G^T z|``;
    - the gap at or below ``_TOL``.  It is exactly 0 for a point of the
      active-set route (``s = max(h - G x, 0)`` is 0 on the working set,
      off which ``z`` is 0); with a cap that binds it is the cap's relative
      slack ``1 - ||C x|| / d``.

    Routes, chosen by the program's structure:

    - no orthant rows: one KKT solve (``_penalized_kkt_point``),
      ``iterations`` 0; a dual residual it cannot remove means the
      objective is unbounded, reported ``infeasible``;
    - an equilibrated P with every eigenvalue above 1e-12 of the largest
      (``_strict_cholesky``): the dual active-set method
      (``_dual_active_set``), one LU factorization per solve unless a row
      reads violated again at the final working set's KKT point;
    - a P that fails the test but ``P + rho A^T A`` (``rho = 1``) passes:
      the same method on that matrix and ``f - rho A^T b``, equal to the
      objective on ``A x = b`` (the augmented Lagrangian at its exact
      penalty).  The equality multipliers map back by ``y + rho (A x - b)``;
    - a flat program, where neither passes (an LP, or a singular P whose
      null space the equalities do not pin): proximal-point rounds
      (Rockafellar 1976).  Round k minimizes the objective plus
      ``0.5 sigma_k |x - x_k|^2`` under the rows, the same method on
      ``P + sigma_k I`` and ``f - sigma_k x_k``, from ``x_0 = 0``, with
      ``sigma_k = max(10^-k, 1e-6)``: a shrinking weight lengthens the
      steps.  After each round the KKT system of P on the round's working
      set is solved as well, OSQP's polishing (Stellato et al. 2020).
      The answer is the first polished point that passes the test on P
      and f, or round point that passes it at ``_TOL / 100``.  On an LP
      the rounds end after finitely many (Ferris 1991); after
      ``_PROX_ROUNDS`` the status is ``max_iter``.

    ``iterations`` counts working-set steps (rows added and dropped) over
    every solve.  The route returns ``infeasible`` itself when a violated
    row lies in the span of the working set and no multiplier falls.  Its
    ``x`` is then the point of the equalities whose violations of the
    rows have the least sum of squares (``_least_violation``), where the
    family a front end names as most violated is the one to blame.  Out
    of steps (``4 (m + p) + 10``) or on a singular KKT system the route
    stops with ``max_iter``.

    A cap is solved by its multiplier mu, as the cap-free program with
    ``P + mu C^T C``.  The solve at mu = 0 comes first, and it is the
    answer, bit for bit, when it is optimal and meets the cap.  Otherwise
    mu doubles until the cap holds, and then a safeguarded secant on
    ``1 / ||C x_mu|| - 1 / d``, nearly linear in mu (More & Sorensen
    1983), finds the mu where the cap binds to a relative slack of
    ``_TOL / 100``; ``_CAP_ROUNDS`` solves in all.  A cap that never holds
    is ``infeasible``.

    Non-finite data (in ``P``, ``f``, ``G``, ``h``, ``A``, ``b``, or the
    cap's ``C`` and ``d``) is an ``OptError`` naming the array, raised
    before any route runs.

    A status other than ``optimal`` is a report, not an answer: its ``x``
    is the route's last point, for diagnostics only.  The front ends
    raise on it (``regression.solution_weights``).
    """
    arrays = {"P": prog.P, "f": prog.f, "G": prog.G, "h": prog.h, "A": prog.A_eq, "b": prog.b_eq}
    if prog.cap is not None:
        arrays.update(C=prog.cap[0], d=prog.cap[1])
    for name, data in arrays.items():
        if not np.isfinite(data).all():
            raise OptError(f"solver data {name} has non-finite entries")
    G, h, A, b, f, P, d_scale = _equilibrate(prog.G, prog.h, prog.A_eq, prog.b_eq, prog.f, prog.P)
    n, p, m = prog.n, A.shape[0], G.shape[0]
    bnorm = max(1.0, np.linalg.norm(b))
    hnorm = max(1.0, np.linalg.norm(h))
    fnorm = max(1.0, np.linalg.norm(f))
    # the rows outside the working set may add at most _TOL / 100 to pres
    viol_tol, max_steps = 1e-2 * _TOL * hnorm, 4 * (m + p) + 10

    def residuals(Pq, x, y, z, active):
        """Primal and dual residuals and gap of a point on the curvature Pq."""
        s = np.maximum(h - G @ x, 0.0)
        s[active] = 0.0
        Px, Ay, Gz = Pq @ x, A.T @ y, G.T @ z
        pres = max(np.linalg.norm(G @ x + s - h) / hnorm, np.linalg.norm(A @ x - b) / bnorm)
        # relative to the largest term: the terms cancel, their rounding errors do not
        dres = np.linalg.norm(Px + Ay + Gz + f) / max(fnorm, *map(np.linalg.norm, (Px, Ay, Gz)))
        return pres, dres, 0.0

    def verdict(Pq, route, steps):
        """``(x, status, residuals, steps, exit)`` of an active-set point."""
        x, y, z, active, _, why = route
        if why == "infeasible":
            return _least_violation(x, G, h, A, b, viol_tol, max_steps), why, (np.inf,) * 3, steps, ""
        res = residuals(Pq, x, y, z, active)
        return x, "optimal" if not why and max(res) <= _TOL else "max_iter", res, steps, why or ""

    def proximal(Pq):
        """Proximal-point rounds on the flat curvature Pq."""
        x, steps = np.zeros(n), 0
        for k in range(_PROX_ROUNDS):
            if k <= 6:  # the weight shrinks from 1 to 1e-6, which lengthens the steps
                sigma = 0.1**k
                Pp = Pq + sigma * np.eye(n)
                L = _strict_cholesky(Pp)
                if L is None:
                    raise OptError("P is not positive semidefinite")
            route = _dual_active_set(L, Pp, G, h, A, b, f - sigma * x, viol_tol, max_steps)
            steps += route[4]
            out = verdict(Pq, route, steps)
            # the round's own point is off by sigma (x_k - x): take it well within _TOL
            if out[1] == "infeasible" or out[4] or max(out[2]) <= 1e-2 * _TOL:
                return out
            x, active = out[0], route[3]
            # polish, as OSQP does: a KKT point of Pq itself on the round's working
            # set, by least squares, since that system is singular along flat directions
            xp, yp = _penalized_kkt_point(Pq, G[:0], h[:0], np.vstack([A, G[active]]), np.r_[b, h[active]], f)
            z = np.zeros(m)
            z[active] = np.maximum(yp[p:], 0.0)
            polished = verdict(Pq, (xp, yp[:p], z, active, 0, None), steps)
            if polished[1] == "optimal":
                return polished
        return out if out[1] == "optimal" else (x, "max_iter", out[2], steps, PROX_EXHAUSTED)

    def solve(Pq):
        """``(x, status, residuals, steps, exit)`` of the program on the
        curvature Pq, in equilibrated units."""
        if not m:
            # equalities only: the optimality conditions are one linear system
            x, y = _penalized_kkt_point(Pq, G, h, A, b, f)
            res = residuals(Pq, x, y, np.zeros(0), np.zeros(0, dtype=bool))
            # an unbounded objective leaves a dual residual no x can remove
            return x, "optimal" if max(res) <= _TOL else "infeasible", res, 0, ""
        Pr, fr, rho = Pq, f, 0.0  # the objective the active-set route minimizes
        L = _strict_cholesky(Pq)
        if L is None and p:
            rho = 1.0  # the equilibrated rows of A and columns of P are of order one
            Pr, fr = Pq + rho * A.T @ A, f - rho * A.T @ b
            L = _strict_cholesky(Pr)
        if L is None:
            return proximal(Pq)
        x, y, z, active, steps, why = _dual_active_set(L, Pr, G, h, A, b, fr, viol_tol, max_steps)
        y = y + rho * (A @ x - b)  # the multipliers of the original objective
        return verdict(Pq, (x, y, z, active, steps, why), steps)

    def capped(Ac, dc):
        """The solve under the cap ``||Ac x|| <= dc``, by its multiplier."""
        scale = np.abs(Ac).max() or 1.0  # then mu = 1 weighs the cap as the equilibrated P
        Ac, dc = Ac / scale, dc / scale
        AtA = Ac.T @ Ac
        steps = 0

        def at(mu):
            nonlocal steps
            out = solve(P + mu * AtA) if mu else solve(P)
            steps += out[3]
            r = float(np.linalg.norm(Ac @ out[0]))
            return out[:3] + (steps,) + out[4:], r, (1.0 / r if r > 0.0 else np.inf) - 1.0 / dc

        out, r, phi = at(0.0)
        if out[1] == "optimal" and r <= dc:
            return out
        lo, hi, seen = 0.0, None, [(0.0, phi)] if out[1] == "optimal" else []
        for _ in range(_CAP_ROUNDS):
            if hi is None:
                mu = max(2.0 * lo, 1.0)  # double mu until the cap holds
            elif dc - hi[2] <= 1e-2 * _TOL * dc:
                break
            else:  # phi increases with mu: the secant through its last two values, kept in (lo, hi)
                mu = np.nan
                if len(seen) >= 2 and seen[-1][1] != seen[-2][1]:
                    (m0, f0), (m1, f1) = seen[-2:]
                    mu = m1 - f1 * (m1 - m0) / (f1 - f0)
                if not lo < mu < hi[0]:  # also a NaN
                    mu = 0.5 * (lo + hi[0])
            out, r, phi = at(mu)
            if out[1] != "optimal":
                return out
            if np.isfinite(phi):
                seen.append((mu, phi))
            if r <= dc:
                hi = (mu, out, r)
            else:
                lo = mu
        if hi is None:
            return out[0], "infeasible", (np.inf,) * 3, steps, NO_BRACKET
        _, out, r = hi
        res = out[2][:2] + ((dc - r) / dc,)  # the cap's complementarity: it binds
        ok = max(res) <= _TOL
        return out[0], "optimal" if ok else "max_iter", res, steps, "" if ok else CAP_UNCONVERGED

    x, status, res, steps, why = solve(P) if prog.cap is None else capped(prog.cap[0] * d_scale, prog.cap[1])
    x = d_scale * x
    return Solution(x, status, res, steps, prog.objective(x), why)


# ---------------------------------------------------------------------------
# quadratic programs and weighted pseudoinverse
# ---------------------------------------------------------------------------

def solve_qp(quad: QuadForm, constraints=None) -> Solution:
    """Minimize the quadratic form under a ``ConstraintSet`` (or none).

    The inequality rows ``rows @ x >= rhs`` become the orthant block
    ``G = -rows``, ``h = -rhs``, and the set's cap the program's ``cap``.
    """
    if constraints is None:
        return solve_socp(SOCProgram(quad.q, P=quad.P))
    A_eq, b_eq, ineq_rows, ineq_rhs, cap = constraints.as_blocks()
    return solve_socp(SOCProgram(quad.q, A_eq, b_eq, quad.P, -ineq_rows, -ineq_rhs, cap))


def pseudoinverse_lsq(A, b, Q) -> np.ndarray:
    """Least-squares solution minimizing ``x^T Q x`` among all minimizers.

    With Q = G^T G the solution is ``G^{-1} (A G^{-1})^+ b``: the data is
    fit as well as possible and the Q-seminorm breaks ties.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.shape[0] != Q.shape[1] or Q.shape[0] != A.shape[1]:
        raise OptError("Q must be square and match the column count of A")
    if np.abs(Q - Q.T).max() > 1e-10 * max(1.0, np.abs(Q).max()):
        raise OptError("Q must be symmetric")
    try:
        L = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError as exc:
        raise OptError("Q must be positive definite") from exc
    # A G^{-1} with G = L^T
    AGinv = np.linalg.solve(L, A.T).T
    core = np.linalg.pinv(AGinv, rcond=1e-12) @ b
    return np.linalg.solve(L.T, core)
