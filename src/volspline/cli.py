"""Command-line front door: run each engine from a JSON config.

Each command declares its config once (``COMMANDS``), and the whole config,
``--set`` entries included, is read against that declaration before any
work begins: a missing, mistyped, out-of-range or unknown field is a config
error that names the field (see ``volspline.config``).  Every command
writes plot-ready CSV/JSON artifacts plus a manifest with
the config hash and per-file checksums.  Outputs are deterministic for a
fixed seed; numbers are serialized as shortest round-trip decimals, CSV
uses '.' decimals, ',' delimiters, UTF-8 and LF line endings.

Exit codes: 0 success, 2 config error, 3 infeasibility (or failed
arbitrage validation), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from volspline import __version__, bspline as bs, opt, pde, priors as pr, slv, surface as sf
from volspline import regression as rg
from volspline.black import implied_vol
from volspline.config import (
    BOOLEAN, INTEGER, NUMBER, POSITIVE, STRING, Check, ConfigError, Field, Kind, array, at_least, either, enum, list_of,
    obj, read, tagged,
)

__all__ = ["main"]


def _fmt(v) -> str:
    """Shortest round-tripping text of a number; ``repr`` of a float writes
    ``nan``, ``inf``, ``-inf`` and ``-0.0`` as they are."""
    return repr(float(v))


def _fmt_rows(*columns):
    """Rows of the ``_fmt`` text of equally long columns of numbers."""
    return zip(*(map(repr, np.asarray(c, dtype=float).tolist()) for c in columns))


def _grid_rows(times, grid, values):
    """Rows ``t, x, values(k)[i]`` for each time ``times[k]`` and grid point
    ``grid[i]``, produced one time at a time; each t and x is formatted once."""
    xcells = [_fmt(x) for x in grid]
    for k, t in enumerate(times):
        tcell = _fmt(t)
        for xcell, f in zip(xcells, values(k).tolist()):
            yield tcell, xcell, repr(f)


def _write_csv(path: Path, header: list[str], rows) -> str:
    """Write rows of text cells; numbers come formatted by ``_fmt``.
    Returns the SHA-256 of the bytes written."""
    lines = [",".join(header)]
    lines.extend(map(",".join, rows))
    lines.append("")
    return _write_text(path, "\n".join(lines))


def _write_json(path: Path, obj) -> str:
    """Write ``obj`` as indented JSON; returns the SHA-256 of the bytes written."""
    return _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_text(path: Path, text: str) -> str:
    """Write ``text`` as UTF-8 and return the SHA-256 of those bytes.
    The text layer writes it: writing one encoded copy with
    ``Path.write_bytes`` instead read 0.8 MB more peak RSS on the ``pde``
    benchmark (ten pairs, 2-core Linux, CPython 3.11)."""
    path.write_text(text, encoding="utf-8", newline="\n")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_json(path: Path, what: str):
    """The text of a JSON file and its value; a missing file is a ``FileNotFoundError``."""
    text = path.read_text(encoding="utf-8")
    try:
        return text, json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


class Runner:
    def __init__(self, args, declaration):
        self.args = args
        self.out = Path(args.out)
        self.seed = args.seed
        self.profile = args.profile
        self.timings: dict[str, float] = {}
        self.checksums: dict[str, str] = {}  # of each file written, taken as it is written
        text, self.raw = _read_json(Path(args.config), "config")  # raw: as written, with the --set entries
        self.config_sha = hashlib.sha256(text.encode()).hexdigest()
        for item in args.set or []:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, val = item.split("=", 1)
            try:
                parsed = json.loads(val)
            except json.JSONDecodeError:
                parsed = val
            node = self.raw
            parts = key.split(".")
            for i, part in enumerate(parts):
                if not isinstance(node, dict):
                    raise ConfigError(f"--set {key}: {'.'.join(parts[:i]) or 'the config'} is not an object")
                if i == len(parts) - 1:
                    node[part] = parsed
                else:
                    node = node.setdefault(part, {})
        self.config = read(self.raw, declaration)  # the whole config, before any work begins

    @contextlib.contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - t0

    def emit_csv(self, name: str, header, rows) -> None:
        self.checksums[name] = _write_csv(self._target(name), header, rows)

    def emit_json(self, name: str, obj) -> None:
        self.checksums[name] = _write_json(self._target(name), obj)

    def _target(self, name: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        if path.exists() and not self.args.force:
            raise ConfigError(f"refusing to overwrite {path}; pass --force")
        return path

    def finish(self, command: str) -> None:
        if self.profile:
            self.emit_json("profile.json", {k: round(v, 6) for k, v in sorted(self.timings.items())})
        manifest = {"command": command, "config_sha256": self.config_sha, "seed": self.seed, "version": __version__}
        _write_json(self._target("manifest.json"), {**manifest, "files": self.checksums})


def _linspace(grid) -> np.ndarray:
    return np.linspace(grid["start"], grid["stop"], grid["count"])


def _grid_decl(count: int) -> Kind:
    """A grid of ``count`` points unless it gives its own count."""
    return obj({"start": Field(NUMBER), "stop": Field(NUMBER), "count": Field(INTEGER, count, at_least(0))})


# ---------------------------------------------------------------------------
# commands, each after the declaration of its config
# ---------------------------------------------------------------------------

BASIS = obj({
    "knots": Field(either(array(), _grid_decl(8)), {"start": 0.0, "stop": 7.0, "count": 8}, Check(
        lambda v, s: np.unique(_knots(v), return_counts=True)[1].max(initial=0) <= min(s["orders"], default=np.inf) + 1,
        "repeat no knot more than lowest order + 1 times (orders {orders})",
    )),
    "orders": Field(list_of(INTEGER), [0, 1, 2, 3], Check(lambda v, s: v and min(v) >= 0, "be nonempty and >= 0")),
    "grid": Field(_grid_decl(1000), None),  # absent: the command's own grid
    "truncation": Field(INTEGER, None, Check(lambda v, s: -1 <= v <= min(s["orders"]), "lie in [-1, lowest order]")),
})


def _knots(knots) -> np.ndarray:
    """The knots of a list or of a grid."""
    return knots if isinstance(knots, np.ndarray) else _linspace(knots)


def cmd_basis(r: Runner) -> None:
    cfg = r.config
    knots = _knots(cfg["knots"])
    grid = _linspace(cfg["grid"] or {"start": knots[0] - 1.0, "stop": knots[-1] + 1.0, "count": 1000})
    for order in cfg["orders"]:
        with r.stage(f"basis-order-{order}"):
            basis = bs.make_basis(knots, order, cfg["truncation"])
            values = basis.compiled().evaluate(grid)
            header = ["x"] + [f"b{j}" for j in range(basis.dimension)]
            r.emit_csv(f"basis_order{order}.csv", header, _fmt_rows(grid, *values.T))
    if r.profile:
        _profile_evaluation(r, knots, max(cfg["orders"]))
    r.finish("basis")


def _profile_evaluation(r: Runner, knots, order: int) -> None:
    """Compiled-versus-recursive evaluation timing at 10n points per interval."""
    basis = bs.make_basis(knots, order)
    rng = np.random.default_rng(0)
    n_pts = 10 * max(order, 1) * (basis.k + 1)
    xs = rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, n_pts)
    w = rng.standard_normal(basis.dimension)
    spline = bs.Spline(basis, w)
    t0 = time.perf_counter()
    spline(xs, method="backward")
    t_rec = time.perf_counter() - t0
    t0 = time.perf_counter()
    cb = bs.compile_basis(basis)  # include the pre-processing cost
    cb.combination(w)(xs)
    t_cmp = time.perf_counter() - t0
    r.timings["eval_recursive_per_point"] = t_rec
    r.timings["eval_compiled_total"] = t_cmp
    r.timings["compiled_speedup_at_10n_per_interval"] = t_rec / max(t_cmp, 1e-12)


def _load_sample(spec: str) -> rg.Sample:
    if spec.startswith("builtin:"):
        from importlib.resources import files

        if spec != "builtin:tanh-1600":
            raise ConfigError(f"unknown builtin sample {spec!r}")
        text = files("volspline").joinpath("data", "tanh_sample_1600.csv").read_text()
    else:
        text = Path(spec).read_text(encoding="utf-8")
    xs, ys = [], []
    for i, line in enumerate(text.strip().splitlines(), start=1):
        parts = line.split(",")
        try:
            if len(parts) != 2:
                raise ValueError(f"expected two columns, got {len(parts)}")
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            if i == 1:
                continue  # a header: line 1 is data when it reads as two numbers
            raise ConfigError(f"sample CSV line {i}: {exc}") from exc
        xs.append(x)
        ys.append(y)
    if not xs:
        raise ConfigError(f"config field 'sample' must hold at least one x,y row, got none in {spec!r}")
    return rg.Sample(xs, ys)


# the spline of a regression and of the SLV leverage fit
_FIT = {
    "order": Field(INTEGER, 2, at_least(0)),
    "truncation": Field(INTEGER, 1, Check(lambda v, s: -1 <= v <= s["order"], "lie in [-1, order] (order is {order})")),
    "knots": Field(INTEGER, 20, Check(
        lambda v, s: v >= max(2, s["order"], s["order"] - 2 * s["truncation"]),
        "be at least 2, order and order - 2 truncation (order {order}, truncation {truncation})",
    )),
    "penalty_order": Field(INTEGER, 2, Check(
        lambda v, s: v >= max(1, s["truncation"] + 1), "be at least 1 and above truncation {truncation}"
    )),
}

REGRESS = obj({
    "sample": Field(STRING, "builtin:tanh-1600"),
    **_FIT,
    "knot_halfwidth_stds": Field(NUMBER, 2.5, POSITIVE),
    "tikhonov_constant": Field(NUMBER, 1.0, POSITIVE),
    "center_knots": Field(BOOLEAN, True),
    "constraints": Field(either(list_of(rg.SHAPE_CONSTRAINT), rg.SHAPE_CONSTRAINT), []),
    "grid": Field(_grid_decl(1000), None),  # absent: the command's own grid
})


def cmd_regress(r: Runner) -> None:
    cfg = r.config
    sample = _load_sample(cfg["sample"])
    with r.stage("fit"):
        halfwidth = cfg["knot_halfwidth_stds"]
        knots = np.linspace(-halfwidth * sample.sigma_x, halfwidth * sample.sigma_x, cfg["knots"])
        if cfg["center_knots"]:
            knots = knots + float(np.mean(sample.x))
        if np.any(np.diff(knots) <= 0.0):
            if sample.sigma_x > 0.0:  # the sample spreads: the half-width put the knots together
                raise ConfigError(f"config field 'knot_halfwidth_stds' must be wide enough for distinct knots, "
                                  f"got {halfwidth!r} for a sample standard deviation of {sample.sigma_x!r}")
            raise ConfigError(f"config field 'sample' must spread its x values over distinct knots, "
                              f"got standard deviation {sample.sigma_x!r} in {cfg['sample']!r}")
        basis = bs.make_basis(knots, cfg["order"], cfg["truncation"])
        reg_cfg = rg.RegressionConfig(basis, cfg["penalty_order"], cfg["tikhonov_constant"])
        lam = rg.tikhonov_factor(sample, reg_cfg)
        if cfg["constraints"]:
            try:
                cs = rg.shape_constraints(basis, cfg["constraints"])
            except bs.SplineError as exc:  # a constraint this basis cannot carry
                raise ConfigError(f"constraints: {exc}") from exc
            fit = rg.fit_constrained(sample, reg_cfg, lam, cs)
        else:
            fit = rg.fit_penalized(sample, reg_cfg, lam)
    grid = _linspace(cfg["grid"] or {"start": knots[0], "stop": knots[-1], "count": 400})
    r.emit_csv("fit.csv", ["x", "fitted"], _fmt_rows(grid, fit(grid)))
    fitted = {"knots": [float(v) for v in knots], "weights": [float(v) for v in fit.weights], "tikhonov_factor": lam}
    r.emit_json("fit.json", {**fitted, **{k: cfg[k] for k in ("order", "truncation", "penalty_order")}})
    r.finish("regress")


SLV_CALIBRATE = obj({
    "params": Field(obj({  # slv.ScottParams
        **{k: Field(NUMBER, check=POSITIVE) for k in ("s0", "a0", "theta", "sigma_bs")},
        "nu": Field(NUMBER, check=at_least(0)),
        "rho": Field(NUMBER, check=Check(lambda v, s: -1.0 <= v <= 1.0, "lie in [-1, 1]")),
    })),
    "horizon": Field(NUMBER, 1.0, POSITIVE),
    "steps": Field(INTEGER, 40, at_least(1)),
    "particles": Field(INTEGER, 16000, at_least(100)),
    **_FIT,
    "constraints": Field(obj({  # slv.ConstraintFlags
        "forward_variance": Field(BOOLEAN, True),
        "nonnegative": Field(BOOLEAN, True),
        "quadratic_cap": Field(BOOLEAN, False),
    }), {}),
    "reprice": Field(obj({
        "paths": Field(INTEGER, 131072, Check(lambda v, s: v >= 3, "be at least 3, two antithetic pairs")),
        "strikes": Field(
            either(array(), obj({"logm_start": Field(NUMBER), "logm_stop": Field(NUMBER), "count": Field(INTEGER)})),
            {"logm_start": -0.35, "logm_stop": 0.35, "count": 15},
            Check(lambda v, s: (v["count"] if isinstance(v, dict) else v.size) >= 1, "be one or more strikes"),
        ),
    }), {}),
    "leverage_grid": Field(INTEGER, 61, at_least(1)),
})


def cmd_slv_calibrate(r: Runner) -> None:
    cfg = r.config
    if r.seed is None:
        raise ConfigError("slv-calibrate requires --seed")
    params = slv.ScottParams(**cfg["params"])
    horizon, paths, strikes = cfg["horizon"], cfg["reprice"]["paths"], cfg["reprice"]["strikes"]
    if isinstance(strikes, dict):
        strikes = params.s0 * np.exp(np.linspace(strikes["logm_start"], strikes["logm_stop"], strikes["count"]))
    flags = cfg["constraints"]
    flags = slv.ConstraintFlags(flags["forward_variance"], flags["nonnegative"], flags["quadratic_cap"])
    with r.stage("calibrate"):
        times = np.linspace(0.0, horizon, cfg["steps"] + 1)
        fit = {k: cfg[k] for k in ("order", "truncation", "penalty_order")}
        surf = slv.calibrate_leverage(
            params, times, cfg["particles"], seed=r.seed, n_knots=cfg["knots"], flags=flags, **fit
        )
    with r.stage("reprice"):
        res = slv.reprice_and_implied(surf, params, strikes, horizon, paths, seed=r.seed + 1)
    cells = _fmt_rows(res["strikes"], res["prices"], res["stderr"], res["implied_vols"])
    rows = ((*row, str(flag)) for row, flag in zip(cells, res["price_flags"]))
    r.emit_csv("smile.csv", ["strike", "price", "stderr", "implied_vol", "flag"], rows)
    lev_grid = params.s0 * np.exp(np.linspace(-0.6, 0.6, cfg["leverage_grid"]))
    rows = _grid_rows(surf.times, lev_grid, lambda k: surf.leverage(k, lev_grid))
    r.emit_csv("leverage.csv", ["t", "spot", "leverage"], rows)
    r.finish("slv-calibrate")


def _csv_quotes(path: Path):
    """``(where, fields)`` of each maturity,strike,type,bid,ask row of a CSV file, named by its line."""
    for i, line in enumerate(path.read_text(encoding="utf-8").strip().splitlines(), start=1):
        if i == 1 and line.lower().replace(" ", "").startswith("maturity"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 5:
            raise ConfigError(f"quotes CSV line {i}: expected 5 columns, got {len(parts)}")
        try:
            T, K, bid, ask = float(parts[0]), float(parts[1]), float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise ConfigError(f"quotes CSV line {i}: {exc}") from exc
        if parts[2].lower() not in ("call", "put"):
            raise ConfigError(f"quotes CSV line {i}: type must be call or put, got {parts[2]!r}")
        if not T > 0.0:
            raise ConfigError(f"quotes CSV line {i}: maturity must be positive, got {T!r}")
        yield f"quotes CSV line {i}", {"maturity": T, "strike": K, "type": parts[2].lower(), "bid": bid, "ask": ask}


def _quotes(spec) -> dict[float, list[tuple[str, sf.Quote]]]:
    """Quotes by maturity, each with the place that named it, for later errors: the
    config's quote objects, or the rows of the CSV file it names."""
    named = _csv_quotes(Path(spec)) if isinstance(spec, str) else ((f"quote {j}", q) for j, q in enumerate(spec))
    groups: dict[float, list[tuple[str, sf.Quote]]] = {}
    for where, q in named:
        try:
            quote = sf.Quote(q["strike"], q["bid"], q["ask"], is_call=q["type"] == "call")
        except ValueError as exc:  # a non-finite or negative value, or bid above ask
            raise ConfigError(f"{where}: {exc}") from exc
        groups.setdefault(q["maturity"], []).append((where, quote))
    return groups


_SURFACE_CHECKS = {
    "n_knots": Check(lambda v, s: v >= s["order"] + 2, "be at least order + 2 (order is {order})"),
    **{name: at_least(low) for name, low in sf.SurfaceConfig.LOWS.items()},
}
_SURFACE_CONFIG = obj({  # surface.SurfaceConfig
    f.name: Field(INTEGER if isinstance(f.default, int) else NUMBER, f.default, _SURFACE_CHECKS.get(f.name))
    for f in dataclasses.fields(sf.SurfaceConfig)
})

SURFACE_CALIBRATE = obj({
    "prior": Field(pr.PRIOR),
    "forward": Field(NUMBER, None, POSITIVE),
    "forwards": Field(array(2), None, pr.FORWARD_CURVE),
    "quotes": Field(either(STRING, list_of(obj({
        "maturity": Field(NUMBER, check=POSITIVE),
        **{k: Field(NUMBER) for k in ("strike", "bid", "ask")},
        "type": Field(enum("call", "put"), "call"),
    }))), []),
    "maturities": Field(array(), [], POSITIVE),
    "mode": Field(enum("bracket", "lsq"), "bracket"),
    "config": Field(_SURFACE_CONFIG, {}),
    "grid_size": Field(INTEGER, 101, at_least(0)),
})


def cmd_surface_calibrate(r: Runner) -> None:
    cfg = r.config
    prior = pr.prior_from_json(cfg["prior"])
    groups = _quotes(cfg["quotes"])
    maturities = sorted(set(groups) | {float(t) for t in cfg["maturities"]})
    if not maturities:
        raise ConfigError("no maturities given")
    if cfg["forward"] is None and cfg["forwards"] is None:
        raise ConfigError("config requires 'forward' or a 'forwards' curve")
    market = []
    for T in maturities:
        F = cfg["forward"] if cfg["forward"] is not None else float(np.interp(T, *cfg["forwards"].T))
        quoted = groups.get(T, [])
        market.append(sf.MarketSlice(T, F, tuple(q for _, q in quoted)))
        coordinate = sf.slice_measure(prior, T, F).coordinate  # an SSVI forward mismatch is a ConfigError
        for where, q in quoted:
            if coordinate == "log-moneyness" and q.strike <= 0.0:
                raise ConfigError(f"{where}: strike {q.strike!r} has no log-moneyness; it must be positive")
    if isinstance(prior, pr.SSVIParams):  # a base model that admits arbitrage is a poor base
        report = pr.validate_ssvi(prior, (maturities[0], maturities[-1]))
        if not report.passed:
            failed = ", ".join(repr(name) for name, ok, _ in report.checks if not ok)
            raise ConfigError(f"SSVI prior fails {failed} over maturities [{maturities[0]!r}, {maturities[-1]!r}]")
    config = sf.SurfaceConfig(**cfg["config"])
    with r.stage("calibrate"):
        calib = sf.calibrate_surface(market, prior, config, mode=cfg["mode"])
    doc = {"prior": r.raw["prior"], "config": dataclasses.asdict(config), "slices": [s.to_json() for s in calib.slices]}
    r.emit_json("surface.json", {**doc, "coordinate": calib.slices[0].measure.coordinate})
    rows = []
    for sl in calib.slices:
        g = sl.basis.knots.knots
        strikes = sl.measure.spot_of_coord(np.linspace(g[0], g[-1], cfg["grid_size"]))
        calls = sl.call_price(strikes)
        vols = implied_vol(calls, sl.forward, strikes, sl.maturity)
        dens = sl.density(strikes)
        maturity = _fmt(sl.maturity)
        rows.extend((maturity, *cells) for cells in _fmt_rows(strikes, calls, vols * vols * sl.maturity, dens))
    r.emit_csv("grids.csv", ["maturity", "strike", "call", "implied_total_variance", "density"], rows)
    r.finish("surface-calibrate")


# the surface.json that surface-calibrate writes
SURFACE_FILE = obj({
    "prior": Field(pr.PRIOR),
    "coordinate": Field(enum("log-moneyness", "price"), None),
    "config": Field(_SURFACE_CONFIG, {}),
    "slices": Field(list_of(obj({
        "maturity": Field(NUMBER, check=POSITIVE),
        "forward": Field(NUMBER, check=POSITIVE),
        "knots": Field(array()),
        "order": Field(INTEGER, check=at_least(0)),
        "weights": Field(array()),
    }))),
})


def _rebuild_surface(doc) -> sf.SurfaceCalibration:
    """The calibration a surface.json describes (files without a config use the defaults)."""
    doc = read(doc, SURFACE_FILE, "surface")
    prior = pr.prior_from_json(doc["prior"])
    slices = []
    for s in doc["slices"]:
        basis = bs.make_basis(s["knots"], s["order"], truncation=0)
        if slices and slices[-1].basis == basis:  # one basis, compiled once, for a shared knot grid
            basis = slices[-1].basis
        T, F = s["maturity"], s["forward"]
        slices.append(sf.RNSlice(basis, s["weights"], T, F, sf.slice_measure(prior, T, F)))
    return sf.SurfaceCalibration(tuple(slices), sf.SurfaceConfig(**doc["config"]))


VALIDATE_SURFACE = obj({
    "surface": Field(STRING),
    "grids": Field(obj({
        "n_strikes": Field(INTEGER, 400, at_least(3)),  # convexity needs three strikes
        "n_density": Field(INTEGER, 1000, at_least(1)),
    }), {}),
})


def cmd_validate_surface(r: Runner) -> None:
    cfg = r.config
    calib = _rebuild_surface(_read_json(Path(cfg["surface"]), f"surface file {cfg['surface']}")[1])
    with r.stage("validate"):
        report = sf.validate(calib, **cfg["grids"])
    checks = [dict(zip(("name", "ok", "worst_margin", "required"), check)) for check in report.checks]
    r.emit_json("report.json", {"passed": report.passed, "checks": checks})
    r.finish("validate-surface")
    print(report)
    if not report.passed:
        raise opt.InfeasibleError("surface fails required static-arbitrage checks")


PDE_EVOLVE = obj({
    "s0": Field(NUMBER),
    "base_variance": Field(NUMBER, check=POSITIVE),
    "local_variance": Field(tagged("type", {  # absent: the constant base_variance
        "constant": {"value": Field(NUMBER, check=POSITIVE)},
        "affine": {"intercept": Field(NUMBER), "slope": Field(NUMBER)},
    }), None),
    "horizon": Field(NUMBER, 1.0, POSITIVE),
    "steps": Field(INTEGER, 100, at_least(1)),
    "order": Field(INTEGER, 3, at_least(1)),
    "knots": Field(INTEGER, 40, Check(lambda v, s: v >= s["order"] + 1, "be at least order + 1 (order is {order})")),
    "scheme": Field(enum("explicit", "implicit", "cn"), "cn"),
    "half_width_stds": Field(NUMBER, 5.0, POSITIVE),
    "grid_size": Field(INTEGER, 101, at_least(0)),
})


def _span_basis(cfg, v0: float) -> bs.BasisSpec:
    """The basis on ``half_width_stds`` base standard deviations at the horizon around s0."""
    half = cfg["half_width_stds"] * np.sqrt(v0 * cfg["horizon"])
    return bs.make_basis(np.linspace(cfg["s0"] - half, cfg["s0"] + half, cfg["knots"]), cfg["order"], truncation=0)


def _dominating_base(cfg, coef, peak: float) -> float:
    """The smallest base above ``peak`` at least the local variance on its
    own knot span, which widens as the base rises: the fixed point of
    v -> the peak local variance on v's span, reached from below in at most
    50 steps.  For the constant and affine forms the peak grows like
    sqrt(v), and a few steps reach it."""
    for _ in range(50):
        v, peak = peak, pde.local_variance_range(coef, _span_basis(cfg, peak), cfg["horizon"])[1][0]
        if peak <= v:
            return v
    return peak


def cmd_pde_evolve(r: Runner) -> None:
    cfg = r.config
    v0, lv = cfg["base_variance"], cfg["local_variance"] or {"type": "constant", "value": cfg["base_variance"]}
    constant = lv["type"] == "constant"
    coef = pde.ConstantVariance(lv["value"]) if constant else pde.AffineVariance(lv["intercept"], lv["slope"])
    basis = _span_basis(cfg, v0)
    g = basis.knots.knots
    low, peak = pde.local_variance_range(coef, basis, cfg["horizon"])
    if low[0] <= 0.0:  # an affine variance that turns nonpositive on the span the base sets
        v, t, x = low
        raise ConfigError(
            f"config field 'local_variance' must be positive on the knot span [{float(g[0])!r}, "
            f"{float(g[-1])!r}] over [0, {cfg['horizon']!r}], got {v!r} at t = {t!r}, x = {x!r}"
        )
    if peak[0] > v0:
        v, t, x = peak
        raise ConfigError(
            f"config field 'base_variance' must be at least {_dominating_base(cfg, coef, v)!r}, the smallest "
            f"base that dominates the local variance on its own knot span, got {v0!r}: the local variance "
            f"reaches {v!r} at t = {t!r}, x = {x!r} on the span [{float(g[0])!r}, {float(g[-1])!r}]"
        )
    problem = pde.PDEProblem(coef, v0, cfg["s0"], basis, cfg["horizon"])
    with r.stage("evolve"):
        traj = pde.evolve(problem, cfg["steps"], scheme=cfg["scheme"])
    grid = np.linspace(basis.knots.knots[0], basis.knots.knots[-1], cfg["grid_size"])
    with r.stage("write"):  # the trajectory rows, the CSV and its checksum for the manifest
        ratios = traj.ratios(grid)
        r.emit_csv("trajectory.csv", ["t", "x", "ratio"], _grid_rows(traj.times, grid, ratios.__getitem__))
    r.finish("pde-evolve")


COMMANDS = {  # each command and the declaration of its config
    "basis": (cmd_basis, BASIS),
    "regress": (cmd_regress, REGRESS),
    "slv-calibrate": (cmd_slv_calibrate, SLV_CALIBRATE),
    "surface-calibrate": (cmd_surface_calibrate, SURFACE_CALIBRATE),
    "pde-evolve": (cmd_pde_evolve, PDE_EVOLVE),
    "validate-surface": (cmd_validate_surface, VALIDATE_SURFACE),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="volspline", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="64-bit seed for stochastic commands")
    parser.add_argument("--force", action="store_true", help="overwrite existing outputs")
    parser.add_argument("--profile", action="store_true", help="emit per-stage wall-clock timings")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config entry")
    args = parser.parse_args(argv)

    try:
        command, declaration = COMMANDS[args.command]
        command(Runner(args, declaration))
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except opt.InfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 3
    except (opt.OptError, pde.PDEError, bs.SplineError, pr.PriorError, ValueError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
