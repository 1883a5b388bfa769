"""Command-line front door: run each engine from a JSON config.

Every command writes plot-ready CSV/JSON artifacts plus a manifest with
the config hash and per-file checksums.  Outputs are deterministic for a
fixed seed; numbers are serialized as shortest round-trip decimals, CSV
uses '.' decimals, ',' delimiters, UTF-8 and LF line endings.

Exit codes: 0 success, 2 config error, 3 infeasibility (or failed
arbitrage validation), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from volspline import __version__, bspline as bs, opt, pde, priors as pr, slv, surface as sf
from volspline import regression as rg
from volspline.black import implied_vol
from volspline.priors import ConfigError, config_value, float_array, require

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


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows of text cells; numbers come formatted by ``_fmt``."""
    lines = [",".join(header)]
    lines.extend(map(",".join, rows))
    lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8", newline="\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    def __init__(self, args):
        self.args = args
        self.out = Path(args.out)
        self.seed = args.seed
        self.profile = args.profile
        self.timings: dict[str, float] = {}
        self.checksums: dict[str, str] = {}  # of each file written, taken as it is written
        raw = Path(args.config).read_text(encoding="utf-8")
        try:
            self.config = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        self.config_sha = hashlib.sha256(raw.encode()).hexdigest()
        for item in args.set or []:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, val = item.split("=", 1)
            try:
                parsed = json.loads(val)
            except json.JSONDecodeError:
                parsed = val
            node = self.config
            parts = key.split(".")
            for i, part in enumerate(parts):
                if not isinstance(node, dict):
                    raise ConfigError(f"--set {key}: {'.'.join(parts[:i]) or 'the config'} is not an object")
                if i == len(parts) - 1:
                    node[part] = parsed
                else:
                    node = node.setdefault(part, {})

    def stage(self, name: str):
        runner = self

        class _Stage:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                runner.timings[name] = runner.timings.get(name, 0.0) + time.perf_counter() - self.t0

        return _Stage()

    def emit_csv(self, name: str, header, rows) -> Path:
        path = self._target(name)
        _write_csv(path, header, rows)
        self.checksums[name] = _sha256(path)
        return path

    def emit_json(self, name: str, obj) -> Path:
        path = self._target(name)
        _write_json(path, obj)
        self.checksums[name] = _sha256(path)
        return path

    def _target(self, name: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        if path.exists() and not self.args.force:
            raise ConfigError(f"refusing to overwrite {path}; pass --force")
        return path

    def finish(self, command: str) -> None:
        if self.profile:
            self.emit_json("profile.json", {k: round(v, 6) for k, v in sorted(self.timings.items())})
        manifest = {
            "command": command,
            "config_sha256": self.config_sha,
            "seed": self.seed,
            "version": __version__,
            "files": self.checksums,
        }
        path = self._target("manifest.json")
        _write_json(path, manifest)


def _grid(cfg, default_count=1000, where="grid"):
    return np.linspace(
        config_value(cfg, "start", where),
        config_value(cfg, "stop", where),
        config_value(cfg, "count", where, int, default_count),
    )


def _knots_from_config(cfg) -> np.ndarray:
    spec = cfg.get("knots", {"start": 0.0, "stop": 7.0, "count": 8})
    if isinstance(spec, list):
        return config_value(cfg, "knots", kind=float_array)
    return _grid(spec, default_count=8, where="knots")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_basis(r: Runner) -> None:
    cfg = r.config
    knots = _knots_from_config(cfg)
    orders = config_value(cfg, "orders", kind=lambda v: [int(o) for o in v], default=[0, 1, 2, 3])
    grid = _grid(cfg.get("grid", {"start": knots[0] - 1.0, "stop": knots[-1] + 1.0, "count": 1000}))
    truncation = config_value(cfg, "truncation", kind=int, default=None)
    for order in orders:
        with r.stage(f"basis-order-{order}"):
            basis = bs.make_basis(knots, order, truncation)
            values = basis.compiled().evaluate(grid)
            header = ["x"] + [f"b{j}" for j in range(basis.dimension)]
            r.emit_csv(f"basis_order{order}.csv", header, _fmt_rows(grid, *values.T))
    if r.profile:
        _profile_evaluation(r, knots, max(orders))
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
    cb.spline_values(w, xs)
    t_cmp = time.perf_counter() - t0
    r.timings["eval_recursive_per_point"] = t_rec
    r.timings["eval_compiled_total"] = t_cmp
    r.timings["compiled_speedup_at_10n_per_interval"] = t_rec / max(t_cmp, 1e-12)


def _load_sample(spec) -> rg.Sample:
    if isinstance(spec, str) and spec.startswith("builtin:"):
        from importlib.resources import files

        name = {"builtin:tanh-1600": "tanh_sample_1600.csv"}.get(spec)
        if name is None:
            raise ConfigError(f"unknown builtin sample {spec!r}")
        text = files("volspline").joinpath("data").joinpath(name).read_text()
    else:
        path = Path(spec)
        if not path.exists():
            raise ConfigError(f"sample file {spec!r} does not exist")
        text = path.read_text(encoding="utf-8")
    xs, ys = [], []
    for i, line in enumerate(text.strip().splitlines(), start=1):
        if i == 1 and any(c.isalpha() for c in line):
            continue  # optional header
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"sample CSV line {i}: expected two columns, got {len(parts)}")
        try:
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"sample CSV line {i}: {exc}") from exc
    return rg.Sample(xs, ys)


def cmd_regress(r: Runner) -> None:
    cfg = r.config
    sample = _load_sample(cfg.get("sample", "builtin:tanh-1600"))
    order = config_value(cfg, "order", kind=int, default=2)
    n_knots = config_value(cfg, "knots", kind=int, default=20)
    truncation = config_value(cfg, "truncation", kind=int, default=1)
    halfwidth = config_value(cfg, "knot_halfwidth_stds", default=2.5)
    penalty_order = config_value(cfg, "penalty_order", kind=int, default=2)
    tikhonov_constant = config_value(cfg, "tikhonov_constant", default=1.0)
    with r.stage("fit"):
        knots = np.linspace(-halfwidth * sample.sigma_x, halfwidth * sample.sigma_x, n_knots)
        knots = knots + float(np.mean(sample.x)) if cfg.get("center_knots", True) else knots
        try:  # an order, truncation or penalty out of range
            basis = bs.make_basis(knots, order, truncation)
            reg_cfg = rg.RegressionConfig(basis, penalty_order=penalty_order, tikhonov_constant=tikhonov_constant)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        lam = rg.tikhonov_factor(sample, reg_cfg)
        specs = cfg.get("constraints", [])
        if specs:
            try:
                cs = rg.shape_constraints(basis, specs)
            except bs.SplineError as exc:  # a kind this basis cannot carry, or none known
                raise ConfigError(f"constraints: {exc}") from exc
            fit = rg.fit_constrained(sample, reg_cfg, lam, cs)
        else:
            fit = rg.fit_penalized(sample, reg_cfg, lam)
    grid = _grid(cfg.get("grid", {"start": knots[0], "stop": knots[-1], "count": 400}))
    r.emit_csv("fit.csv", ["x", "fitted"], _fmt_rows(grid, fit(grid)))
    r.emit_json(
        "fit.json",
        {
            "knots": [float(v) for v in knots],
            "order": order,
            "truncation": truncation,
            "penalty_order": reg_cfg.penalty_order,
            "tikhonov_factor": lam,
            "weights": [float(v) for v in fit.weights],
        },
    )
    r.finish("regress")


def cmd_slv_calibrate(r: Runner) -> None:
    cfg = r.config
    if r.seed is None:
        raise ConfigError("slv-calibrate requires --seed")
    pcfg = require(cfg, "params")
    params = slv.ScottParams(
        **{k: config_value(pcfg, k, "params") for k in ("s0", "a0", "theta", "nu", "rho", "sigma_bs")}
    )
    horizon = config_value(cfg, "horizon", default=1.0)
    steps = config_value(cfg, "steps", kind=int, default=40)
    flags_cfg = cfg.get("constraints", {})
    flags = slv.ConstraintFlags(
        forward_variance_eq=bool(flags_cfg.get("forward_variance", True)),
        nonnegative=bool(flags_cfg.get("nonnegative", True)),
        quadratic_cap=bool(flags_cfg.get("quadratic_cap", False)),
    )
    with r.stage("calibrate"):
        surf = slv.calibrate_leverage(
            params,
            np.linspace(0.0, horizon, steps + 1),
            config_value(cfg, "particles", kind=int, default=16000),
            seed=r.seed,
            n_knots=config_value(cfg, "knots", kind=int, default=20),
            order=config_value(cfg, "order", kind=int, default=2),
            truncation=config_value(cfg, "truncation", kind=int, default=1),
            penalty_order=config_value(cfg, "penalty_order", kind=int, default=2),
            flags=flags,
        )
    rep = cfg.get("reprice", {})
    strikes_cfg = rep.get("strikes", {"logm_start": -0.35, "logm_stop": 0.35, "count": 15})
    if isinstance(strikes_cfg, list):
        strikes = config_value(rep, "strikes", "reprice", float_array)
    else:
        logm = np.linspace(
            *(config_value(strikes_cfg, k, "reprice.strikes") for k in ("logm_start", "logm_stop")),
            config_value(strikes_cfg, "count", "reprice.strikes", int),
        )
        strikes = params.s0 * np.exp(logm)
    with r.stage("reprice"):
        res = slv.reprice_and_implied(
            surf, params, strikes, horizon, config_value(rep, "paths", "reprice", int, 131072), seed=r.seed + 1
        )
    r.emit_csv(
        "smile.csv",
        ["strike", "price", "stderr", "implied_vol", "flag"],
        (
            (*cells, str(flag))
            for cells, flag in zip(
                _fmt_rows(res["strikes"], res["prices"], res["stderr"], res["implied_vols"]), res["price_flags"]
            )
        ),
    )
    lev_grid = params.s0 * np.exp(np.linspace(-0.6, 0.6, config_value(cfg, "leverage_grid", kind=int, default=61)))
    rows = _grid_rows(surf.times, lev_grid, lambda k: surf.leverage(k, lev_grid))
    r.emit_csv("leverage.csv", ["t", "spot", "leverage"], rows)
    r.finish("slv-calibrate")


def _read_quotes_csv(path: Path):
    """maturity,strike,type,bid,ask rows grouped into per-maturity slices,
    each quote with the CSV line it came from (see ``_quote``)."""
    if not path.exists():
        raise ConfigError(f"quotes file {path} does not exist")
    groups: dict[float, list[tuple[str, sf.Quote]]] = {}
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
        kind = parts[2].lower()
        if kind not in ("call", "put"):
            raise ConfigError(f"quotes CSV line {i}: type must be call or put, got {parts[2]!r}")
        groups.setdefault(T, []).append(_quote(K, bid, ask, kind == "call", f"quotes CSV line {i}"))
    return groups


def _quote(strike: float, bid: float, ask: float, is_call: bool, where: str) -> tuple[str, sf.Quote]:
    """``(where, quote)``: a quote and the place that named it, for later errors."""
    try:
        return where, sf.Quote(strike, bid, ask, is_call=is_call)
    except ValueError as exc:  # a non-finite or negative value, or bid above ask
        raise ConfigError(f"{where}: {exc}") from exc


def _forward_at(cfg, T: float) -> float:
    if cfg.get("forward") is not None:
        return config_value(cfg, "forward")
    if cfg.get("forwards") is None:
        raise ConfigError("config requires 'forward' or a 'forwards' curve")
    pts = config_value(cfg, "forwards", kind=float_array)
    return float(np.interp(T, pts[:, 0], pts[:, 1]))


def _surface_config(sc: dict) -> sf.SurfaceConfig:
    """SurfaceConfig from a JSON object; absent fields keep their defaults."""
    defaults = sf.SurfaceConfig()
    unknown = sorted(set(sc) - {f.name for f in dataclasses.fields(sf.SurfaceConfig)})
    if unknown:
        raise ConfigError(f"unknown config field {unknown[0]!r}")
    values = {k: config_value(sc, k, "config", type(getattr(defaults, k))) for k in sc}
    try:
        return sf.SurfaceConfig(**values)
    except ValueError as exc:  # a field out of range
        raise ConfigError(str(exc)) from exc


def cmd_surface_calibrate(r: Runner) -> None:
    cfg = r.config
    prior = pr.prior_from_json(require(cfg, "prior"))
    if isinstance(cfg.get("quotes"), str):
        groups = _read_quotes_csv(Path(cfg["quotes"]))
    else:
        groups = {}
        for j, q in enumerate(cfg.get("quotes", [])):
            strike, bid, ask = (config_value(q, k, "quote") for k in ("strike", "bid", "ask"))
            groups.setdefault(config_value(q, "maturity", "quote"), []).append(
                _quote(strike, bid, ask, q.get("type", "call") == "call", f"quote {j}")
            )
    maturities = sorted(set(groups) | config_value(cfg, "maturities", kind=lambda v: {float(t) for t in v}, default=set()))
    if not maturities:
        raise ConfigError("no maturities given")
    market = []
    for T in maturities:
        F = _forward_at(cfg, T)
        quoted = groups.get(T, [])
        # a nonpositive maturity or forward, or a prior that cannot serve the
        # slice (an SSVI forward mismatch), is a config error
        try:
            market.append(sf.MarketSlice(T, F, tuple(q for _, q in quoted)))
            coordinate = sf.slice_measure(prior, T, F).coordinate
        except ValueError as exc:
            raise ConfigError(f"maturity {T!r}: {exc}") from exc
        for where, q in quoted:
            if coordinate == "log-moneyness" and q.strike <= 0.0:
                raise ConfigError(f"{where}: strike {q.strike!r} has no log-moneyness; it must be positive")
    if isinstance(prior, pr.SSVIParams):  # a base model that admits arbitrage is a poor base
        report = pr.validate_ssvi(prior, (maturities[0], maturities[-1]))
        if not report.passed:
            failed = ", ".join(repr(name) for name, ok, _ in report.checks if not ok)
            raise ConfigError(f"SSVI prior fails {failed} over maturities [{maturities[0]!r}, {maturities[-1]!r}]")
    config = _surface_config(cfg.get("config", {}))
    with r.stage("calibrate"):
        calib = sf.calibrate_surface(market, prior, config, mode=cfg.get("mode", "bracket"))
    r.emit_json(
        "surface.json",
        {
            "prior": cfg["prior"],
            "coordinate": calib.slices[0].measure.coordinate,
            "config": dataclasses.asdict(config),
            "slices": [sl.to_json() for sl in calib.slices],
        },
    )
    rows = []
    grid_size = config_value(cfg, "grid_size", kind=int, default=101)
    for sl in calib.slices:
        g = sl.basis.knots.knots
        strikes = sl.measure.spot_of_coord(np.linspace(g[0], g[-1], grid_size))
        calls = sl.call_price(strikes)
        vols = implied_vol(calls, sl.forward, strikes, sl.maturity)
        dens = sl.density(strikes)
        maturity = _fmt(sl.maturity)
        rows.extend((maturity, *cells) for cells in _fmt_rows(strikes, calls, vols * vols * sl.maturity, dens))
    r.emit_csv("grids.csv", ["maturity", "strike", "call", "implied_total_variance", "density"], rows)
    r.finish("surface-calibrate")


def _rebuild_surface(doc) -> sf.SurfaceCalibration:
    """The calibration a surface.json describes (files without a config use the defaults)."""
    prior = pr.prior_from_json(require(doc, "prior", "surface"))
    slices = []
    for s in require(doc, "slices", "surface"):
        T, F = (config_value(s, k, "slice") for k in ("maturity", "forward"))
        knots = config_value(s, "knots", "slice", float_array)
        basis = bs.make_basis(knots, config_value(s, "order", "slice", int), truncation=0)
        if slices and slices[-1].basis == basis:  # one basis, compiled once, for a shared knot grid
            basis = slices[-1].basis
        weights = config_value(s, "weights", "slice", float_array)
        slices.append(sf.RNSlice(basis, weights, T, F, sf.slice_measure(prior, T, F)))
    return sf.SurfaceCalibration(tuple(slices), _surface_config(doc.get("config", {})))


def cmd_validate_surface(r: Runner) -> None:
    cfg = r.config
    path = Path(require(cfg, "surface"))
    if not path.exists():
        raise ConfigError(f"surface file {path} does not exist")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"surface file {path} is not valid JSON: {exc}") from exc
    calib = _rebuild_surface(doc)
    grids = cfg.get("grids", {})
    with r.stage("validate"):
        report = sf.validate(
            calib,
            n_strikes=config_value(grids, "n_strikes", "grids", int, 400),
            n_density=config_value(grids, "n_density", "grids", int, 1000),
        )
    r.emit_json(
        "report.json",
        {
            "passed": report.passed,
            "checks": [
                {"name": name, "ok": ok, "worst_margin": margin, "required": req}
                for name, ok, margin, req in report.checks
            ],
        },
    )
    r.finish("validate-surface")
    print(report)
    if not report.passed:
        raise opt.InfeasibleError("surface fails required static-arbitrage checks")


def cmd_pde_evolve(r: Runner) -> None:
    cfg = r.config
    s0 = config_value(cfg, "s0")
    v0 = config_value(cfg, "base_variance")
    horizon = config_value(cfg, "horizon", default=1.0)
    half_width = config_value(cfg, "half_width_stds", default=5.0)
    order = config_value(cfg, "order", kind=int, default=3)
    n_knots = config_value(cfg, "knots", kind=int, default=40)
    grid_size = config_value(cfg, "grid_size", kind=int, default=101)
    for key, value, ok, need in (
        ("base_variance", v0, v0 > 0.0, "positive"),
        ("horizon", horizon, horizon > 0.0, "positive"),
        ("half_width_stds", half_width, half_width > 0.0, "positive"),
        ("order", order, order >= 1, "at least 1"),
        ("knots", n_knots, n_knots >= order + 1, f"at least order + 1 = {order + 1}"),
        ("grid_size", grid_size, grid_size >= 0, "nonnegative"),
    ):
        if not ok:
            raise ConfigError(f"config field {key!r} must be {need}, got {value!r}")
    vcfg = cfg.get("local_variance", {"type": "constant", "value": v0})
    kind = require(vcfg, "type", "local_variance")
    if kind == "constant":
        coef = pde.ConstantVariance(config_value(vcfg, "value", "local_variance"))
    elif kind == "affine":
        coef = pde.AffineVariance(*(config_value(vcfg, k, "local_variance") for k in ("intercept", "slope")))
    else:
        raise ConfigError(f"unknown local variance form {kind!r}")
    half = half_width * np.sqrt(v0 * horizon)
    basis = bs.make_basis(np.linspace(s0 - half, s0 + half, n_knots), order, truncation=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        problem = pde.PDEProblem(coef, v0, s0, basis, horizon)
    with r.stage("evolve"):
        traj = pde.evolve(problem, config_value(cfg, "steps", kind=int, default=100), scheme=cfg.get("scheme", "cn"))
    grid = np.linspace(basis.knots.knots[0], basis.knots.knots[-1], grid_size)
    with r.stage("write"):  # the trajectory rows, the CSV and its checksum for the manifest
        ratios = traj.ratios(grid)
        r.emit_csv("trajectory.csv", ["t", "x", "ratio"], _grid_rows(traj.times, grid, ratios.__getitem__))
    r.finish("pde-evolve")


COMMANDS = {
    "basis": cmd_basis,
    "regress": cmd_regress,
    "slv-calibrate": cmd_slv_calibrate,
    "surface-calibrate": cmd_surface_calibrate,
    "pde-evolve": cmd_pde_evolve,
    "validate-surface": cmd_validate_surface,
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
        runner = Runner(args)
        COMMANDS[args.command](runner)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
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
