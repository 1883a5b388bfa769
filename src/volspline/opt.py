"""Embedded cone solver for quadratic objectives, and its front ends.

The solver minimizes ``0.5 x^T P x + f^T x`` over orthant rows,
second-order cones and equalities, sized for the problems this package
produces (a few hundred variables, a few thousand constraint rows).  It
has two routes and one optimality check:

- a dense primal-dual interior-point method with Nesterov-Todd scaling and
  a Mehrotra predictor-corrector step; the PSD matrix P enters the Newton
  system directly, as in CVXOPT's ``coneqp``;
- for a program without cone blocks whose P, or else ``P + A^T A``, is
  positive definite, the exact dual active-set method of Goldfarb & Idnani,
  tried first.  Its point is returned only if it passes the interior-point
  method's KKT test; otherwise the interior-point iteration runs.

Both routes solve their KKT systems through one LU factorization
(``_kkt``).  ``solve_socp`` reports a status and accepts nothing: what a
status means for a fit is the front end's decision, and the front ends
raise on every status but ``optimal``.

An equality-constrained hierarchy is available through a
quadratic-form-weighted pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OptError",
    "InfeasibleError",
    "ConeBlock",
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
class ConeBlock:
    """One second-order cone ``||A x + b|| <= c^T x + d``; ``A`` has at
    least one row.  Linear inequalities are the orthant rows ``G x <= h``
    of ``SOCProgram``."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float

    def __init__(self, A, b, c, d):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).reshape(-1)
        c = np.asarray(c, dtype=float).reshape(-1)
        if A.shape[0] == 0:
            raise OptError("cone block A has no rows")
        if A.shape[0] != b.size:
            raise OptError("cone block A and b row counts differ")
        if A.shape[1] != c.size:
            raise OptError("cone block A column count differs from c")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", float(d))


@dataclass(frozen=True)
class SOCProgram:
    """minimize ``0.5 x^T P x + f^T x`` subject to

    - the orthant rows ``G x <= h``, one matrix block;
    - one second-order cone per ``ConeBlock`` in ``cones``;
    - the equalities ``A_eq x = b_eq``.

    P is symmetric PSD and zero when omitted; an omitted block has no rows.
    """

    f: np.ndarray
    cones: tuple[ConeBlock, ...]
    A_eq: np.ndarray
    b_eq: np.ndarray
    P: np.ndarray
    G: np.ndarray
    h: np.ndarray

    def __init__(self, f, cones=(), A_eq=None, b_eq=None, P=None, G=None, h=None):
        f = np.asarray(f, dtype=float).reshape(-1)
        n = f.size
        cones = tuple(cones)
        for blk in cones:
            if blk.c.size != n:
                raise OptError("cone block dimension does not match objective length")
        A_eq, b_eq = self._rows(A_eq, b_eq, n, "equality")
        G, h = self._rows(G, h, n, "orthant")
        P = np.zeros((n, n)) if P is None else np.asarray(P, dtype=float)
        if P.shape != (n, n):
            raise OptError("P must be square and match the objective length")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "cones", cones)
        object.__setattr__(self, "A_eq", A_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)

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
    iterations: int
    objective: float


# ---------------------------------------------------------------------------
# cone algebra on the concatenated slack vector
# ---------------------------------------------------------------------------

class _Cones:
    """Orthant of size ml followed by SOC blocks of the given sizes."""

    def __init__(self, ml: int, socs: list[int]):
        self.ml = ml
        self.socs = socs
        self.m = ml + sum(socs)
        self.degree = ml + len(socs)
        self.starts = [ml + sum(socs[:k]) for k in range(len(socs))]

    def blocks(self, v: np.ndarray):
        for st, q in zip(self.starts, self.socs):
            yield v[st : st + q]

    def e(self) -> np.ndarray:
        out = np.zeros(self.m)
        out[: self.ml] = 1.0
        out[self.starts] = 1.0
        return out

    def min_margin(self, v: np.ndarray) -> float:
        vals = []
        if self.ml:
            vals.append(v[: self.ml].min())
        for blk in self.blocks(v):
            vals.append(blk[0] - np.linalg.norm(blk[1:]))
        return min(vals) if vals else np.inf

    def shift_into(self, v: np.ndarray) -> np.ndarray:
        a = -self.min_margin(v)
        if a < 0.0:
            a = 0.0
        return v + (1.0 + a) * self.e()

    def prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jordan product u o v."""
        out = np.empty(self.m)
        out[: self.ml] = u[: self.ml] * v[: self.ml]
        for st, q in zip(self.starts, self.socs):
            ub, vb = u[st : st + q], v[st : st + q]
            out[st] = ub @ vb
            out[st + 1 : st + q] = ub[0] * vb[1:] + vb[0] * ub[1:]
        return out

    def solve_arrow(self, lam: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Solve lam o u = d for u."""
        out = np.empty(self.m)
        out[: self.ml] = d[: self.ml] / lam[: self.ml]
        for st, q in zip(self.starts, self.socs):
            lb, db = lam[st : st + q], d[st : st + q]
            delta = lb[0] ** 2 - lb[1:] @ lb[1:]
            v0 = (lb[0] * db[0] - lb[1:] @ db[1:]) / delta
            out[st] = v0
            out[st + 1 : st + q] = (db[1:] - v0 * lb[1:]) / lb[0]
        return out

    def step_to_boundary(self, v: np.ndarray, dv: np.ndarray) -> float:
        alpha = np.inf
        if self.ml:
            neg = dv[: self.ml] < 0.0
            if neg.any():
                alpha = min(alpha, float(np.min(-v[: self.ml][neg] / dv[: self.ml][neg])))
        for st, q in zip(self.starts, self.socs):
            vb, db = v[st : st + q], dv[st : st + q]
            a = db[0] ** 2 - db[1:] @ db[1:]
            b = 2.0 * (vb[0] * db[0] - vb[1:] @ db[1:])
            c = vb[0] ** 2 - vb[1:] @ vb[1:]
            roots = []
            if abs(a) > 1e-300:
                disc = b * b - 4.0 * a * c
                if disc >= 0.0:
                    sq = np.sqrt(disc)
                    # numerically stable pairing avoids cancellation
                    qq = -0.5 * (b + np.copysign(sq, b)) if b != 0.0 else 0.5 * sq
                    roots.append(qq / a)
                    if qq != 0.0:
                        roots.append(c / qq)
            elif abs(b) > 1e-300:
                roots.append(-c / b)
            if db[0] < 0.0:
                roots.append(-vb[0] / db[0])
            pos = [r for r in roots if r > 0.0]
            if pos:
                # first positive crossing of the cone boundary
                alpha = min(alpha, min(pos))
        return alpha


class _Scaling:
    """Nesterov-Todd scaling W with lambda = W z = W^{-1} s."""

    def __init__(self, cones: _Cones, s: np.ndarray, z: np.ndarray):
        self.cones = cones
        ml = cones.ml
        self.w_lin = np.sqrt(s[:ml] / z[:ml]) if ml else np.zeros(0)
        self.soc = []
        # ok is False once rounding has put s, z or lambda on a cone boundary
        self.ok = False
        for st, q in zip(cones.starts, cones.socs):
            sb, zb = s[st : st + q], z[st : st + q]
            # floor protects against iterates rounding onto the boundary
            rs = np.sqrt(max(sb[0] ** 2 - sb[1:] @ sb[1:], 1e-28 * max(sb[0] ** 2, 1e-300)))
            rz = np.sqrt(max(zb[0] ** 2 - zb[1:] @ zb[1:], 1e-28 * max(zb[0] ** 2, 1e-300)))
            sbar, zbar = sb / rs, zb / rz
            gamma2 = 0.5 * (1.0 + sbar @ zbar)
            if not gamma2 > 0.0:
                return
            gamma = np.sqrt(gamma2)
            wbar = np.empty(q)
            wbar[0] = (sbar[0] + zbar[0]) / (2.0 * gamma)
            wbar[1:] = (sbar[1:] - zbar[1:]) / (2.0 * gamma)
            eta = np.sqrt(rs / rz)
            self.soc.append((eta, wbar))
        self.lam = self.apply(z)
        self.ok = cones.min_margin(self.lam) > 0.0

    @staticmethod
    def _wbar_apply(wbar: np.ndarray, v: np.ndarray) -> np.ndarray:
        t = wbar[1:] @ v[1:]
        out = np.empty_like(v)
        out[0] = wbar[0] * v[0] + t
        out[1:] = v[1:] + (v[0] + t / (1.0 + wbar[0])) * wbar[1:]
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        """W v."""
        c = self.cones
        out = np.empty(c.m)
        out[: c.ml] = self.w_lin * v[: c.ml]
        for (eta, wbar), st, q in zip(self.soc, c.starts, c.socs):
            out[st : st + q] = eta * self._wbar_apply(wbar, v[st : st + q])
        return out

    def apply_inv(self, v: np.ndarray) -> np.ndarray:
        """W^{-1} v."""
        c = self.cones
        out = np.empty(c.m)
        out[: c.ml] = v[: c.ml] / self.w_lin
        for (eta, wbar), st, q in zip(self.soc, c.starts, c.socs):
            flipped = wbar.copy()
            flipped[1:] = -flipped[1:]
            out[st : st + q] = self._wbar_apply(flipped, v[st : st + q]) / eta
        return out

    def apply_inv_mat(self, M: np.ndarray) -> np.ndarray:
        """W^{-1} M for a dense matrix with cone-ordered rows."""
        c = self.cones
        out = np.empty_like(M)
        out[: c.ml] = M[: c.ml] / self.w_lin[:, None] if c.ml else M[: c.ml]
        for (eta, wbar), st, q in zip(self.soc, c.starts, c.socs):
            blk = M[st : st + q]
            v1 = wbar[1:]
            t = v1 @ blk[1:]
            top = wbar[0] * blk[0] - t
            rest = blk[1:] - np.outer(v1, blk[0] - t / (1.0 + wbar[0]))
            out[st] = top / eta
            out[st + 1 : st + q] = rest / eta
        return out


def _standard_form(prog: SOCProgram):
    """``G x + s = h`` with s in the orthant rows, then in each cone block."""
    G = np.vstack([prog.G] + [np.vstack([-blk.c, -blk.A]) for blk in prog.cones])
    h = np.concatenate([prog.h] + [np.concatenate([[blk.d], blk.b]) for blk in prog.cones])
    return G, h, _Cones(prog.G.shape[0], [blk.A.shape[0] + 1 for blk in prog.cones])


def _equilibrate(G, h, A, b, f, P, cones: _Cones, sweeps: int = 6):
    """Ruiz-style scaling: each orthant row has its own scalar, and the rows
    of a second-order cone block share one; a zero row keeps its scale.

    Columns are scaled by their largest entry in ``[d P d; G; A]``, as in
    OSQP; a column with no entry at all keeps its scale.  Returns the scaled
    ``G, h, A, b, f, P`` and the column scales ``d``.
    """
    m, n = G.shape
    d = np.ones(n)
    e = np.ones(m)
    a = np.ones(A.shape[0])
    for _ in range(sweeps):
        Ps = (d[:, None] * P) * d[None, :]
        Gs = (e[:, None] * G) * d[None, :]
        As = (a[:, None] * A) * d[None, :]
        col = np.abs(np.vstack([Ps, Gs, As])).max(axis=0)
        d /= np.sqrt(np.where(col > 0.0, col, 1.0))
        Gs = (e[:, None] * G) * d[None, :]
        row = np.abs(Gs[: cones.ml]).max(axis=1, initial=0.0)
        e[: cones.ml] /= np.sqrt(np.where(row > 0.0, row, 1.0))
        for st, q in zip(cones.starts, cones.socs):
            r = np.abs(Gs[st : st + q]).max()
            if r > 0.0:
                e[st : st + q] /= np.sqrt(r)
        As = (a[:, None] * A) * d[None, :]
        a /= np.sqrt(np.maximum(np.abs(As).max(axis=1, initial=0.0), 1e-12))
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
    Each step solves the KKT system of W afresh; after a full step the
    point and multipliers are re-solved from that system, so rounding does
    not accumulate.

    Returns ``(x, y, z, active, steps)`` once the norm of ``max(G x - h, 0)``
    over the rows outside W is at most ``viol_tol`` (``z`` is 0 off W,
    ``active`` marks W, ``steps`` counts the full and partial steps), or
    None when the program looks infeasible, a KKT system is singular or
    ``max_steps`` steps do not end the solve.
    """
    n, p, m = P.shape[0], A.shape[0], G.shape[0]
    W: list[int] = []
    z = np.zeros(m)

    def factor():  # the KKT system of the equalities and W
        return _kkt(P, np.vstack([A, G[W]]))

    def split(sol):  # the point (or direction), y and the multipliers of W
        return sol[:n], sol[n : n + p], sol[n + p :]

    kkt = factor()
    if kkt is None:
        return None
    x, y, _ = split(kkt(np.concatenate([-f, b])))
    steps = 0
    while True:
        viol = G @ x - h
        viol[W] = 0.0
        np.maximum(viol, 0.0, out=viol)
        if np.linalg.norm(viol) <= viol_tol:
            active = np.zeros(m, dtype=bool)
            active[W] = True
            return x, y, z, active, steps
        q = int(np.argmax(viol))
        nq = G[q]
        # curvature along n_q with no row active: the scale of a zero step
        curv0 = float(np.sum(np.linalg.solve(L, nq) ** 2))
        while True:
            steps += 1
            if steps > max_steps:
                return None
            dx, _, dzw = split(kkt(np.concatenate([-nq, np.zeros(p + len(W))])))
            curv = -float(nq @ dx)  # dx^T P dx
            in_span = curv <= 1e-14 * curv0
            falling = np.flatnonzero(dzw < 0.0)
            if not falling.size:
                if in_span:
                    return None  # no multiplier falls: the rows cannot all hold
                t_drop, j = np.inf, -1
            else:
                ratios = z[np.asarray(W)[falling]] / -dzw[falling]
                j = int(falling[np.argmin(ratios)])
                t_drop = max(float(ratios.min()), 0.0)
            if not in_span and float(nq @ x - h[q]) / curv <= t_drop:
                # full step: q joins W, and the point of W is solved afresh
                W.append(q)
                kkt = factor()
                if kkt is None:
                    return None
                x, y, zw = split(kkt(np.concatenate([-f, b, h[W]])))
                z[W] = np.maximum(zw, 0.0)
                break
            # partial step: the multiplier of row W[j] reaches 0 and it leaves
            if not in_span:
                x = x + t_drop * dx
            z[W] += t_drop * dzw
            z[W[j]] = 0.0
            del W[j]
            kkt = factor()
            if kkt is None:
                return None


def solve_socp(prog: SOCProgram, tol: float = 1e-8, max_iter: int = 100) -> Solution:
    """Solve ``min 0.5 x^T P x + f^T x`` over the orthant rows, the
    second-order cone blocks and the equalities.

    Returns a Solution whose status is ``optimal``, ``infeasible`` (a
    certificate was found or the iterates diverged) or ``max_iter``.
    ``optimal`` means, on the internally equilibrated problem, whichever
    route found the point:

    - primal residuals at or below ``tol``;
    - the dual residual at or below ``tol``, relative to the largest of 1,
      ``|f|``, ``|P x|``, ``|A^T y|`` and ``|G^T z|``;
    - the duality gap, relative to ``max(1, |objective|)``, at or below
      ``tol**2`` for a quadratic objective and at or below ``tol`` for a
      linear one.

    The gap of a quadratic objective bounds the error in x along a
    direction of small curvature only through its square root: a gap of
    ``tol`` would leave errors of about ``sqrt(tol)`` there.  An active
    second-order cone can stop the iteration short of ``tol**2``: its
    ``s o z`` cancels to the rounding of ``s0 z0``, and rounding then puts
    the scaled point on the cone's boundary.  For a program with such a
    block the best iterate is therefore ``optimal`` at a gap of ``tol``
    once the iteration ends.

    Routes, chosen by the program's structure:

    - neither orthant nor cone rows: one KKT solve, ``iterations`` 0;
    - no cone block and an equilibrated P with every eigenvalue above
      1e-12 of the largest (``_strict_cholesky``): the dual active-set
      method (``_dual_active_set``), whose point has the multipliers of its
      working set as ``z`` and ``s = max(h - G x, 0)``, 0 on the working
      set, so the gap is 0.  It is returned as ``optimal`` when it passes
      the test above, with ``iterations`` counting working-set steps (rows
      added and dropped);
    - no cone block, at least one equality, and a P that fails the test but
      ``P + rho A^T A`` (``rho = 1``) passes: the same method on that matrix
      and ``f - rho A^T b``, equal to the objective on ``A x = b`` (the
      augmented Lagrangian at its exact penalty).  The equality multipliers
      map back by ``y + rho (A x - b)``; the test on the original P and f
      and ``iterations`` are as above;
    - otherwise, and whenever the active-set route finds the program
      infeasible, meets a singular KKT system, runs out of steps or fails
      the test: the interior-point iteration, with ``iterations`` counting
      its Newton iterations.  ``infeasible`` and ``max_iter`` come only
      from it.

    Non-finite data (in ``P``, ``f``, ``A``, ``b``, or in ``G`` and ``h``
    with the cone blocks stacked below the orthant rows) is an
    ``OptError`` naming the array, raised before any route runs.

    A status other than ``optimal`` is a report, not an answer: its ``x``
    is the last or best iterate, for diagnostics only.  The front ends
    raise on it (``regression.solution_weights``).
    """
    n = prog.n
    G, h, cones = _standard_form(prog)
    A, b, f, P = prog.A_eq, prog.b_eq, prog.f, prog.P
    for name, data in (("P", P), ("f", f), ("G", G), ("h", h), ("A", A), ("b", b)):
        if not np.isfinite(data).all():
            raise OptError(f"solver data {name} has non-finite entries")
    p = A.shape[0]
    m = cones.m

    if m == 0:
        # equalities only: the optimality conditions are one linear system
        x, y = _penalized_kkt_point(P, G, h, A, b, f)
        pres = np.linalg.norm(A @ x - b) / max(1.0, np.linalg.norm(b))
        Px, Ay = P @ x, A.T @ y
        dres = np.linalg.norm(Px + Ay + f) / max(1.0, *map(np.linalg.norm, (f, Px, Ay)))
        # an unbounded objective leaves a dual residual no x can remove
        status = "optimal" if max(pres, dres) <= tol else "infeasible"
        return Solution(x, status, (pres, dres, 0.0), 0, prog.objective(x))

    G, h, A, b, f, P, d_scale = _equilibrate(G, h, A, b, f, P, cones)
    gap_tol = tol**2 if P.any() else tol

    def finish(x_s, status, res, iters):
        x_o = d_scale * x_s
        return Solution(x_o, status, res, iters, prog.objective(x_o))

    bnorm = max(1.0, np.linalg.norm(b))
    hnorm = max(1.0, np.linalg.norm(h))
    fnorm = max(1.0, np.linalg.norm(f))

    def residuals(x, y, z, s):
        Px, Ay, Gz = P @ x, A.T @ y, G.T @ z
        rx = Px + Ay + Gz + f
        ry = A @ x - b
        rz = G @ x + s - h
        gap = float(s @ z)
        pres = max(np.linalg.norm(rz) / hnorm, np.linalg.norm(ry) / bnorm)
        # relative to the largest term: the terms cancel, their rounding errors do not
        dres = np.linalg.norm(rx) / max(fnorm, *map(np.linalg.norm, (Px, Ay, Gz)))
        relgap = gap / max(1.0, abs(float(0.5 * x @ Px + f @ x)))
        return rx, ry, rz, gap, (pres, dres, relgap), Px

    def converged(pres, dres, relgap, gap_tol=gap_tol):
        return pres <= tol and dres <= tol and relgap <= gap_tol

    Pr, fr, rho = P, f, 0.0  # the objective the active-set route minimizes
    L = None if cones.socs else _strict_cholesky(P)
    if L is None and not cones.socs and p:
        rho = 1.0  # the equilibrated rows of A and columns of P are of order one
        Pr, fr = P + rho * A.T @ A, f - rho * A.T @ b
        L = _strict_cholesky(Pr)
    if L is not None:
        # the rows outside the working set may add at most tol / 100 to pres
        point = _dual_active_set(L, Pr, G, h, A, b, fr, 1e-2 * tol * hnorm, 4 * (m + p) + 10)
        if point is not None:
            x, y, z, active, steps = point
            y = y + rho * (A @ x - b)  # the multipliers of the original objective
            s = np.maximum(h - G @ x, 0.0)
            s[active] = 0.0  # so s @ z, the gap, is exactly 0
            res = residuals(x, y, z, s)[4]
            if converged(*res):
                return finish(x, "optimal", res, steps)

    # starting point as in CVXOPT's coneqp: s = h - G x and z = -s shifted
    # into the cone interior.  A start whose x ignored P left some random
    # quadratic programs with a cone cycling at a gap of 0.1 to 0.3.
    x, y = _penalized_kkt_point(P, G, h, A, b, f)
    s = cones.shift_into(h - G @ x)
    z = cones.shift_into(G @ x - h)

    status = "max_iter"
    iters = 0
    best = None
    infeas_hits = 0
    for it in range(1, max_iter + 1):
        iters = it
        rx, ry, rz, gap, res, Px = residuals(x, y, z, s)
        pres, dres, relgap = res
        mu = gap / cones.degree
        merit = max(pres, dres, relgap)
        if np.isfinite(merit) and (best is None or merit < best[0]):
            best = (merit, x.copy(), res)
        if converged(*res):
            status = "optimal"
            break
        if best is not None and np.isfinite(merit) and merit > 1e4 * best[0] and best[0] < 1e-6:
            break  # numerically stalled well past the best iterate

        # primal infeasibility certificate: A^T y + G^T z ~ 0, h^T z + b^T y < 0,
        # judged on the normalized ray and only without a near-feasible iterate
        near_feasible = best is not None and best[0] <= 1e3 * tol
        ray_scale = float(np.linalg.norm(z)) + float(np.linalg.norm(y))
        cert = float(h @ z) + float(b @ y)
        if cert < 0.0 and ray_scale > 0.0 and not near_feasible:
            lhs = np.linalg.norm(A.T @ y + G.T @ z)
            if lhs <= 1e-7 * (-cert) and -cert > 1e-6 * ray_scale * max(1.0, hnorm + bnorm):
                infeas_hits += 1
                if infeas_hits >= 5:
                    status = "infeasible"
                    break
        dobj = -0.5 * float(x @ Px) - float(h @ z) - float(b @ y)
        if (abs(dobj) > 1.0 / tol and not near_feasible) or not np.isfinite(mu):
            status = "infeasible"
            break
        if not np.isfinite(merit):
            break

        W = _Scaling(cones, s, z)
        if not W.ok:
            break
        lam = W.lam
        Gs = W.apply_inv_mat(G)
        H = P + Gs.T @ Gs
        reg = 1e-13 * max(1.0, np.trace(H) / max(n, 1))
        kkt = _kkt(H + reg * np.eye(n), A)
        if kkt is None:  # the step would be inf/NaN
            break

        def newton_raw(bx, by, bz, blam):
            u = cones.solve_arrow(lam, blam)
            rhs3 = bz - W.apply(u)
            r1 = bx + Gs.T @ W.apply_inv(rhs3)
            sol = kkt(np.concatenate([r1, by]))
            dx, dy = sol[:n], sol[n:]
            dz = W.apply_inv(W.apply_inv(G @ dx - rhs3))
            ds = bz - G @ dx  # enforce the cone-row equation exactly
            return dx, dy, dz, ds

        def newton(ds_rhs):
            bx, by, bz, blam = -rx, -ry, -rz, ds_rhs
            dx, dy, dz, ds = newton_raw(bx, by, bz, blam)
            for _ in range(2):  # full-system refinement keeps residuals near
                # machine precision as the scaling degenerates
                e1 = bx - (P @ dx + A.T @ dy + G.T @ dz)
                e2 = by - A @ dx
                e3 = bz - (G @ dx + ds)
                e4 = blam - cones.prod(lam, W.apply(dz) + W.apply_inv(ds))
                cx, cy, cz, cs = newton_raw(e1, e2, e3, e4)
                dx, dy, dz, ds = dx + cx, dy + cy, dz + cz, ds + cs
            dz_sc = W.apply(dz)
            ds_sc = W.apply_inv(ds)
            return dx, dy, dz, ds, dz_sc, ds_sc

        # predictor; step lengths are measured in scaled space where the
        # boundary quadratic is well conditioned
        lam2 = cones.prod(lam, lam)
        dxa, dya, dza, dsa, dza_sc, dsa_sc = newton(-lam2)
        ap = cones.step_to_boundary(lam, dsa_sc)
        ad = cones.step_to_boundary(lam, dza_sc)
        alpha_aff = min(1.0, ap, ad)
        mu_aff = float((s + alpha_aff * dsa) @ (z + alpha_aff * dza)) / cones.degree
        sigma = max(0.0, min(1.0, (mu_aff / mu))) ** 3

        # corrector
        corr = cones.prod(dsa_sc, dza_sc)
        ds_rhs = -lam2 - corr + sigma * mu * cones.e()
        dx, dy, dz, ds, dz_sc, ds_sc = newton(ds_rhs)
        ap = cones.step_to_boundary(lam, ds_sc)
        ad = cones.step_to_boundary(lam, dz_sc)
        alpha = min(1.0, 0.99 * min(ap, ad))
        if not np.isfinite(alpha) or alpha <= 1e-14:
            break

        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz
        y = y + alpha * dy

    if status == "infeasible":
        return finish(x, "infeasible", (np.inf, np.inf, np.inf), iters)
    if status == "optimal":
        return finish(x, "optimal", residuals(x, y, z, s)[4], iters)
    if best is not None:
        _, xb, res = best
        ok = converged(*res) or (cones.socs and converged(*res, gap_tol=tol))
        return finish(xb, "optimal" if ok else "max_iter", res, iters)
    return finish(x, "max_iter", (np.inf,) * 3, iters)


# ---------------------------------------------------------------------------
# quadratic programs and weighted pseudoinverse
# ---------------------------------------------------------------------------

def solve_qp(quad: QuadForm, constraints=None, tol: float = 1e-8, max_iter: int = 100) -> Solution:
    """Minimize the quadratic form under a ``ConstraintSet`` (or none).

    The inequality rows ``rows @ x >= rhs`` become the orthant block
    ``G = -rows``, ``h = -rhs``; each second-order cone of the set becomes
    one ``ConeBlock``.
    """
    if constraints is None:
        return solve_socp(SOCProgram(quad.q, P=quad.P), tol=tol, max_iter=max_iter)
    A_eq, b_eq, ineq_rows, ineq_rhs, socs = constraints.as_blocks()
    cones = [ConeBlock(*soc) for soc in socs]
    prog = SOCProgram(quad.q, cones, A_eq, b_eq, P=quad.P, G=-ineq_rows, h=-ineq_rhs)
    return solve_socp(prog, tol=tol, max_iter=max_iter)


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
