"""Output checks made apart from volspline's moment code.

Every integral here is taken by ``scipy.integrate.quad`` of the calibrated
density: the reweighting spline (rebuilt from the written output and
evaluated by the recursive B-spline route) times a base density written out
in this file, split at the knots.  Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from volspline import bspline, priors

MASS_TOL = 1e-8  # |mass - 1| and |forward - F| / F
QUOTE_TOL = 1e-7  # distance outside the bid-ask bracket
SHAPE_TOL = 1e-7  # grids.csv: monotonicity and convexity in strike
PDE_RATIO_TOL = 2e-3  # relative, against the closed-form ratio at the horizon
FWD_VAR_TOL = 1e-9  # relative, forward-variance equality at each date
SMILE_OP_TOL = 0.01  # largest |implied vol - target| of one repricing
SMILE_RUN_TOL = 0.005  # mean over a run of that largest deviation

_QUAD = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": 200}


def _integral(f, a: float, b: float) -> float:
    return quad(f, a, b, **_QUAD)[0]


def _gauss_pdf(mean: float, var: float):
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    return lambda x: norm * math.exp(-0.5 * (x - mean) ** 2 / var)


class _PiecewiseDensity:
    """Spline times base density, one polynomial per knot interval.

    Each interval's polynomial interpolates the spline at ``order + 1``
    interior points, where the spline is exactly that polynomial; outside
    the knots the reweighting is flat.
    """

    def __init__(self, knots, order: int, weights, base):
        basis = bspline.make_basis(np.asarray(knots, dtype=float), order, truncation=0)
        spline = bspline.Spline(basis, np.asarray(weights, dtype=float))
        self.knots = np.asarray(knots, dtype=float)
        self.base = base
        self.polys = []
        for a, b in zip(self.knots[:-1], self.knots[1:]):
            xs = a + (b - a) * (0.5 - 0.5 * np.cos(np.pi * (np.arange(order + 1) + 0.5) / (order + 1)))
            ys = spline(xs, method="backward")
            self.polys.append(np.polynomial.Polynomial.fit(xs, ys, order))
        span = self.knots[-1] - self.knots[0]
        self.left = float(spline(np.array([self.knots[0] - span]), method="backward")[0])
        self.right = float(spline(np.array([self.knots[-1] + span]), method="backward")[0])

    def integrate(self, g, lo: float = -np.inf) -> float:
        """Integral of g(x) * density(x) over [lo, inf)."""
        total = 0.0
        edges = [(-np.inf, self.knots[0], lambda x: self.left)]
        edges += [(a, b, p) for a, b, p in zip(self.knots[:-1], self.knots[1:], self.polys)]
        edges += [(self.knots[-1], np.inf, lambda x: self.right)]
        for a, b, poly in edges:
            a = max(a, lo)
            if b > a:
                total += _integral(lambda x, p=poly: self._integrand(p, g, x), a, b)
        return total

    def _integrand(self, poly, g, x: float) -> float:
        q = self.base(x)
        # far in the tails the base density underflows first; g may overflow
        return 0.0 if q == 0.0 else poly(x) * q * g(x)


def _slice_density(doc: dict, sl: dict) -> tuple[_PiecewiseDensity, object, object]:
    """Density in the spline coordinate, the spot map, and the strike map."""
    prior = doc["prior"]
    T, F = float(sl["maturity"]), float(sl["forward"])
    kind = prior["type"]
    if kind == "lognormal":
        w = float(prior["total_variance"]) * T
        base = _gauss_pdf(-0.5 * w, w)
    elif kind == "ssvi":
        params = priors.prior_from_json(prior)
        base = lambda u: float(priors.ssvi_logm_density(params, T, u))  # noqa: E731
    elif kind == "bachelier":
        base = _gauss_pdf(F, float(prior["variance"]) * T)
    else:
        raise ValueError(f"unknown prior {kind!r}")
    dens = _PiecewiseDensity(sl["knots"], int(sl["order"]), sl["weights"], base)
    if kind == "bachelier":
        return dens, (lambda x: x), (lambda k: k)
    return dens, (lambda u: F * math.exp(u)), (lambda k: math.log(k / F))


def _read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_surface(out: Path, quotes: dict) -> list[str]:
    """Mass, forward and quotes of surface.json; shape of grids.csv."""
    problems = []
    doc = json.loads((out / "surface.json").read_text(encoding="utf-8"))
    for sl in doc["slices"]:
        T, F = float(sl["maturity"]), float(sl["forward"])
        dens, spot, coord = _slice_density(doc, sl)
        mass = dens.integrate(lambda u: 1.0)
        fwd = dens.integrate(spot)
        if abs(mass - 1.0) > MASS_TOL:
            problems.append(f"T={T}: mass {mass!r}")
        if abs(fwd - F) / F > MASS_TOL:
            problems.append(f"T={T}: forward {fwd!r} against {F!r}")
        for strike, bid, ask, is_call in quotes.get(T, ()):
            call = dens.integrate(lambda u: spot(u) - strike, lo=coord(strike))
            price = call if is_call else call - (fwd - strike * mass)
            if not bid - QUOTE_TOL <= price <= ask + QUOTE_TOL:
                problems.append(f"T={T} K={strike}: price {price!r} outside [{bid!r}, {ask!r}]")
    by_maturity: dict[float, list] = {}
    for row in _read_csv(out / "grids.csv"):
        by_maturity.setdefault(float(row["maturity"]), []).append(
            (float(row["strike"]), float(row["call"]), float(row["density"]))
        )
    for T, rows in by_maturity.items():
        k, c, d = (np.array(col) for col in zip(*rows))
        if d.min() < 0.0:
            problems.append(f"T={T}: grids.csv density {d.min()!r} < 0")
        if np.diff(c).max() > SHAPE_TOL:
            problems.append(f"T={T}: grids.csv calls increase by {np.diff(c).max()!r}")
        slopes = np.diff(c) / np.diff(k)
        if np.diff(slopes).min() < -SHAPE_TOL:
            problems.append(f"T={T}: grids.csv calls not convex ({np.diff(slopes).min()!r})")
    return problems


def check_report(out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if report["passed"]:
        return []
    return ["validate-surface report: " + ", ".join(c["name"] for c in report["checks"] if c["required"] and not c["ok"])]


def check_pde(out: Path, trajectory, cfg: dict) -> list[str]:
    """Closed-form ratio at the horizon; mass and mean by quadrature."""
    problems = []
    s0, v0 = float(cfg["s0"]), float(cfg["base_variance"])
    v = float(cfg["local_variance"]["value"])
    horizon = float(cfg["horizon"])
    rows = _read_csv(out / "trajectory.csv")
    t_end = max(float(r["t"]) for r in rows)
    if abs(t_end - horizon) > 1e-12:
        problems.append(f"trajectory ends at t={t_end!r}, not {horizon!r}")
    worst = 0.0
    for r in rows:
        if float(r["t"]) != t_end:
            continue
        z = float(r["x"]) - s0
        if abs(z) > 3.0 * math.sqrt(v0 * horizon):
            continue
        exact = math.sqrt(v0 / v) * math.exp(-0.5 * z * z / horizon * (1.0 / v - 1.0 / v0))
        worst = max(worst, abs(float(r["ratio"]) - exact) / exact)
    if worst > PDE_RATIO_TOL:
        problems.append(f"ratio at t={t_end!r} off the closed form by {worst:.3e}")
    # the ratio spline at the horizon, against the base law N(s0, v0 t)
    knots = trajectory.problem.basis.knots.knots
    base = _gauss_pdf(s0, v0 * float(trajectory.times[-1]))
    ratio = lambda x: float(trajectory.ratio(-1, np.array([x]))[0])  # noqa: E731
    edges = np.concatenate([[-np.inf], knots, [np.inf]])
    mass = sum(_integral(lambda x: ratio(x) * base(x), a, b) for a, b in zip(edges[:-1], edges[1:]))
    mean = sum(_integral(lambda x: x * ratio(x) * base(x), a, b) for a, b in zip(edges[:-1], edges[1:]))
    if abs(mass - 1.0) > MASS_TOL:
        problems.append(f"mass at the horizon {mass!r}")
    if abs(mean - s0) / s0 > MASS_TOL:
        problems.append(f"mean at the horizon {mean!r} against {s0!r}")
    return problems


def check_leverage(surface, p: dict) -> list[str]:
    """Forward-variance equality at every date against the exact marginal."""
    problems = []
    s0, a0, theta, nu, sig = (float(p[k]) for k in ("s0", "a0", "theta", "nu", "sigma_bs"))
    for t, sl in zip(surface.times[1:], surface.slices[1:]):
        t = float(t)
        w = sig * sig * t
        law = _gauss_pdf(math.log(s0) - 0.5 * w, w)
        cv = sl.cond_var
        edges = np.concatenate([[-np.inf], cv.breakpoints, [np.inf]])
        total = 0.0
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            if b <= a:
                continue
            local = np.polynomial.Polynomial(cv.coeffs[i])
            ref = float(cv.refs[i])
            total += _integral(lambda x: local(x - ref) * law(x), a, b)
        target = a0 * a0 * math.exp(nu * nu / theta * (1.0 - math.exp(-2.0 * theta * t)))
        if abs(total - target) / target > FWD_VAR_TOL:
            problems.append(f"t={t:g}: integral of the conditional variance {total!r} against {target!r}")
    return problems


def check_reprice(res: dict, p: dict) -> tuple[list[str], float]:
    """Terminal mean within 4 standard errors; smile near the flat target.

    Returns the problems and the largest smile deviation, which the run
    averages for its own bound.
    """
    problems = []
    s0, sig = float(p["s0"]), float(p["sigma_bs"])
    if abs(res["mean_terminal"] - s0) > 4.0 * res["se_terminal"]:
        problems.append(f"terminal mean {res['mean_terminal']!r} more than 4 s.e. from {s0!r}")
    bad = [str(f) for f in res["price_flags"] if f != "ok"]
    if bad:
        problems.append(f"price flags {bad}")
    dev = float(np.max(np.abs(np.asarray(res["implied_vols"]) - sig)))
    if not dev <= SMILE_OP_TOL:
        problems.append(f"smile deviates {dev:.4f} from the flat {sig}")
    return problems, dev
