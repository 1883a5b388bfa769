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
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from volspline import __version__, bspline as bs, opt, pde, priors as pr, slv, surface as sf
from volspline import regression as rg
from volspline.black import implied_vol

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _fmt(v) -> str:
    v = float(v)
    if np.isnan(v):
        return "nan"
    return repr(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


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
        self.files: list[Path] = []
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
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = parsed

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
        self.files.append(path)
        return path

    def emit_json(self, name: str, obj) -> Path:
        path = self._target(name)
        _write_json(path, obj)
        self.files.append(path)
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
            "files": {p.name: _sha256(p) for p in self.files},
        }
        path = self._target("manifest.json")
        _write_json(path, manifest)


def _grid(cfg, default_count=1000):
    return np.linspace(float(cfg["start"]), float(cfg["stop"]), int(cfg.get("count", default_count)))


def _knots_from_config(cfg) -> np.ndarray:
    if isinstance(cfg, list):
        return np.asarray(cfg, dtype=float)
    return _grid(cfg, default_count=8)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_basis(r: Runner) -> None:
    cfg = r.config
    knots = _knots_from_config(cfg.get("knots", {"start": 0.0, "stop": 7.0, "count": 8}))
    orders = cfg.get("orders", [0, 1, 2, 3])
    grid = _grid(cfg.get("grid", {"start": knots[0] - 1.0, "stop": knots[-1] + 1.0, "count": 1000}))
    for order in orders:
        with r.stage(f"basis-order-{order}"):
            basis = bs.make_basis(knots, int(order), cfg.get("truncation"))
            values = basis.compiled().evaluate(grid)
            header = ["x"] + [f"b{j}" for j in range(basis.dimension)]
            rows = ([g, *vals] for g, vals in zip(grid, values))
            r.emit_csv(f"basis_order{order}.csv", header, rows)
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
    order = int(cfg.get("order", 2))
    n_knots = int(cfg.get("knots", 20))
    truncation = int(cfg.get("truncation", 1))
    halfwidth = float(cfg.get("knot_halfwidth_stds", 2.5))
    with r.stage("fit"):
        knots = np.linspace(-halfwidth * sample.sigma_x, halfwidth * sample.sigma_x, n_knots)
        knots = knots + float(np.mean(sample.x)) if cfg.get("center_knots", True) else knots
        basis = bs.make_basis(knots, order, truncation)
        reg_cfg = rg.RegressionConfig(
            basis,
            penalty_order=int(cfg.get("penalty_order", 2)),
            tikhonov_constant=float(cfg.get("tikhonov_constant", 1.0)),
        )
        lam = rg.tikhonov_factor(sample, reg_cfg)
        specs = cfg.get("constraints", [])
        if specs:
            cs = rg.shape_constraints(basis, specs)
            fit = rg.fit_constrained(sample, reg_cfg, lam, cs)
        else:
            fit = rg.fit_penalized(sample, reg_cfg, lam)
    grid = _grid(cfg.get("grid", {"start": knots[0], "stop": knots[-1], "count": 400}))
    r.emit_csv("fit.csv", ["x", "fitted"], ((g, v) for g, v in zip(grid, fit(grid, method="compiled"))))
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
    pcfg = cfg.get("params")
    if pcfg is None:
        raise ConfigError("config requires a 'params' block")
    params = slv.ScottParams(
        s0=float(pcfg["s0"]),
        a0=float(pcfg["a0"]),
        theta=float(pcfg["theta"]),
        nu=float(pcfg["nu"]),
        rho=float(pcfg["rho"]),
        sigma_bs=float(pcfg["sigma_bs"]),
    )
    horizon = float(cfg.get("horizon", 1.0))
    steps = int(cfg.get("steps", 40))
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
            int(cfg.get("particles", 16000)),
            seed=r.seed,
            n_knots=int(cfg.get("knots", 20)),
            order=int(cfg.get("order", 2)),
            truncation=int(cfg.get("truncation", 1)),
            penalty_order=int(cfg.get("penalty_order", 2)),
            flags=flags,
        )
    rep = cfg.get("reprice", {})
    strikes_cfg = rep.get("strikes", {"logm_start": -0.35, "logm_stop": 0.35, "count": 15})
    if isinstance(strikes_cfg, list):
        strikes = np.asarray(strikes_cfg, dtype=float)
    else:
        logm = np.linspace(
            float(strikes_cfg["logm_start"]), float(strikes_cfg["logm_stop"]), int(strikes_cfg["count"])
        )
        strikes = params.s0 * np.exp(logm)
    with r.stage("reprice"):
        res = slv.reprice_and_implied(
            surf, params, strikes, horizon, int(rep.get("paths", 131072)), seed=r.seed + 1
        )
    r.emit_csv(
        "smile.csv",
        ["strike", "price", "stderr", "implied_vol", "flag"],
        (
            (k, p, se, iv, str(flag))
            for k, p, se, iv, flag in zip(
                res["strikes"], res["prices"], res["stderr"], res["implied_vols"], res["price_flags"]
            )
        ),
    )
    lev_grid = params.s0 * np.exp(np.linspace(-0.6, 0.6, int(cfg.get("leverage_grid", 61))))
    rows = []
    for k, t in enumerate(surf.times):
        lv = surf.leverage(k, lev_grid)
        rows.extend((t, x, v) for x, v in zip(lev_grid, lv))
    r.emit_csv("leverage.csv", ["t", "spot", "leverage"], rows)
    r.finish("slv-calibrate")


def _read_quotes_csv(path: Path):
    """maturity,strike,type,bid,ask rows grouped into per-maturity slices."""
    if not path.exists():
        raise ConfigError(f"quotes file {path} does not exist")
    groups: dict[float, list[sf.Quote]] = {}
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
        groups.setdefault(T, []).append(sf.Quote(K, bid, ask, is_call=kind == "call"))
    return groups


def _forward_at(cfg, T: float) -> float:
    fwd = cfg.get("forward")
    if fwd is not None:
        return float(fwd)
    curve = cfg.get("forwards")
    if curve is None:
        raise ConfigError("config requires 'forward' or a 'forwards' curve")
    pts = np.asarray(curve, dtype=float)
    return float(np.interp(T, pts[:, 0], pts[:, 1]))


def _surface_config(sc: dict) -> sf.SurfaceConfig:
    """SurfaceConfig from a JSON object; absent fields keep their defaults."""
    defaults = sf.SurfaceConfig()
    names = [f.name for f in dataclasses.fields(sf.SurfaceConfig) if f.name in sc]
    return sf.SurfaceConfig(**{k: type(getattr(defaults, k))(sc[k]) for k in names})


def cmd_surface_calibrate(r: Runner) -> None:
    cfg = r.config
    prior = pr.prior_from_json(cfg["prior"])
    if isinstance(cfg.get("quotes"), str):
        groups = _read_quotes_csv(Path(cfg["quotes"]))
    else:
        groups = {}
        for q in cfg.get("quotes", []):
            groups.setdefault(float(q["maturity"]), []).append(
                sf.Quote(float(q["strike"]), float(q["bid"]), float(q["ask"]),
                         is_call=q.get("type", "call") == "call")
            )
    maturities = sorted(set(groups) | {float(t) for t in cfg.get("maturities", [])})
    if not maturities:
        raise ConfigError("no maturities given")
    market = [sf.MarketSlice(T, _forward_at(cfg, T), tuple(groups.get(T, ()))) for T in maturities]
    for sl in market:  # a prior that cannot serve a slice (an SSVI forward mismatch) is a config error
        try:
            sf.slice_measure(prior, sl.maturity, sl.forward)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    config = _surface_config(cfg.get("config", {}))
    with r.stage("calibrate"):
        calib = sf.calibrate_surface(market, prior, config, mode=cfg.get("mode", "bracket"))
    r.emit_json(
        "surface.json",
        {
            "prior": cfg["prior"],
            "coordinate": "log-moneyness" if calib.slices[0].measure.spot_map == "exp" else "price",
            "config": dataclasses.asdict(config),
            "slices": [sl.to_json() for sl in calib.slices],
        },
    )
    rows = []
    for sl in calib.slices:
        g = sl.basis.knots.knots
        if sl.measure.spot_map == "exp":
            strikes = sl.forward * np.exp(np.linspace(g[0], g[-1], int(cfg.get("grid_size", 101))))
        else:
            strikes = np.linspace(g[0], g[-1], int(cfg.get("grid_size", 101)))
        calls = sl.call_price(strikes)
        vols = implied_vol(calls, sl.forward, strikes, sl.maturity)
        dens = sl.density(strikes)
        rows.extend(
            (sl.maturity, k, c, v * v * sl.maturity, d)
            for k, c, v, d in zip(strikes, calls, vols, dens)
        )
    r.emit_csv("grids.csv", ["maturity", "strike", "call", "implied_total_variance", "density"], rows)
    r.finish("surface-calibrate")


def _rebuild_surface(doc) -> sf.SurfaceCalibration:
    """The calibration a surface.json describes (files without a config use the defaults)."""
    prior = pr.prior_from_json(doc["prior"])
    slices = []
    for s in doc["slices"]:
        T, F = float(s["maturity"]), float(s["forward"])
        basis = bs.make_basis(np.asarray(s["knots"], dtype=float), int(s["order"]), truncation=0)
        slices.append(sf.RNSlice(basis, np.asarray(s["weights"], dtype=float), T, F, sf.slice_measure(prior, T, F)))
    config = _surface_config(doc.get("config", {}))
    rel = sf._relative_grid(slices[0].basis, [sl.measure for sl in slices], config)
    return sf.SurfaceCalibration(tuple(slices), rel, config)


def cmd_validate_surface(r: Runner) -> None:
    cfg = r.config
    path = Path(cfg["surface"])
    if not path.exists():
        raise ConfigError(f"surface file {path} does not exist")
    doc = json.loads(path.read_text(encoding="utf-8"))
    calib = _rebuild_surface(doc)
    grids = cfg.get("grids", {})
    with r.stage("validate"):
        report = sf.validate(
            calib,
            n_strikes=int(grids.get("n_strikes", 400)),
            n_density=int(grids.get("n_density", 1000)),
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
    s0 = float(cfg["s0"])
    v0 = float(cfg["base_variance"])
    horizon = float(cfg.get("horizon", 1.0))
    vcfg = cfg.get("local_variance", {"type": "constant", "value": v0})
    if vcfg["type"] == "constant":
        coef = pde.ConstantVariance(float(vcfg["value"]))
    elif vcfg["type"] == "affine":
        coef = pde.AffineVariance(float(vcfg["intercept"]), float(vcfg["slope"]))
    else:
        raise ConfigError(f"unknown local variance form {vcfg['type']!r}")
    half = float(cfg.get("half_width_stds", 5.0)) * np.sqrt(v0 * horizon)
    basis = bs.make_basis(
        np.linspace(s0 - half, s0 + half, int(cfg.get("knots", 40))),
        int(cfg.get("order", 3)),
        truncation=0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        problem = pde.PDEProblem(coef, v0, s0, basis, horizon)
    with r.stage("evolve"):
        traj = pde.evolve(problem, int(cfg.get("steps", 100)), scheme=cfg.get("scheme", "cn"))
    grid = np.linspace(basis.knots.knots[0], basis.knots.knots[-1], int(cfg.get("grid_size", 101)))
    rows = []
    for k, t in enumerate(traj.times):
        vals = traj.ratio(k, grid)
        rows.extend((t, x, f) for x, f in zip(grid, vals))
    r.emit_csv("trajectory.csv", ["t", "x", "ratio"], rows)
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
