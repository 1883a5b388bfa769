"""CSV number formatting and bytes, config errors, public names and the import
footprint of the command-line modules."""

import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import volspline
from volspline import cli

REPO = Path(__file__).resolve().parents[1]


def test_fmt_special_values():
    cases = {np.nan: "nan", np.inf: "inf", -np.inf: "-inf", -0.0: "-0.0", 0.1: "0.1"}
    for v, text in cases.items():
        assert cli._fmt(np.float64(v)) == text


def test_trajectory_csv_round_trips(tmp_path, monkeypatch):
    written = {}
    write = cli._write_csv

    def capture(path, header, rows):
        written[path.name] = rows = list(rows)
        write(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", capture)
    out = tmp_path / "evolve"
    assert cli.main(["pde-evolve", "--config", str(REPO / "configs" / "pde_ratio.json"), "--out", str(out)]) == 0
    rows = written["trajectory.csv"]
    lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x,ratio" and len(lines) == len(rows) + 1
    cells = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    assert np.array_equal(cells.view(np.uint64), np.array(rows, dtype=float).view(np.uint64))


def test_csv_bytes_are_the_cells_rendered_by_fmt(tmp_path, monkeypatch):
    # the writers format repeated cells once and the rest with repr of Python
    # floats; the bytes must be those of _fmt applied to every cell
    from volspline.black import implied_vol

    kept = {}
    evolve, calibrate = cli.pde.evolve, cli.sf.calibrate_surface
    monkeypatch.setattr(cli.pde, "evolve", lambda *a, **k: kept.setdefault("traj", evolve(*a, **k)))
    monkeypatch.setattr(cli.sf, "calibrate_surface", lambda *a, **k: kept.setdefault("calib", calibrate(*a, **k)))

    def expected(header, rows):
        return "".join(",".join(cells) + "\n" for cells in [header, *([cli._fmt(c) for c in row] for row in rows)])

    out = tmp_path / "evolve"
    assert cli.main(["pde-evolve", "--config", str(REPO / "configs" / "pde_ratio.json"), "--out", str(out)]) == 0
    traj = kept["traj"]
    g = traj.problem.basis.knots.knots
    grid = np.linspace(g[0], g[-1], 101)
    rows = [(t, x, f) for k, t in enumerate(traj.times) for x, f in zip(grid, traj.ratio(k, grid))]
    assert (out / "trajectory.csv").read_bytes() == expected(["t", "x", "ratio"], rows).encode()

    out = tmp_path / "surface"
    assert cli.main(["surface-calibrate", "--config", str(REPO / "configs" / "surface_synthetic.json"), "--out", str(out)]) == 0
    rows = []
    for sl in kept["calib"].slices:
        g = sl.basis.knots.knots
        strikes = sl.measure.spot_of_coord(np.linspace(g[0], g[-1], 101))
        calls = sl.call_price(strikes)
        vols = implied_vol(calls, sl.forward, strikes, sl.maturity)
        rows.extend(
            (sl.maturity, k, c, v * v * sl.maturity, d) for k, c, v, d in zip(strikes, calls, vols, sl.density(strikes))
        )
    header = ["maturity", "strike", "call", "implied_total_variance", "density"]
    assert (out / "grids.csv").read_bytes() == expected(header, rows).encode()


def test_pde_evolve_profile_splits_evolve_and_write(tmp_path):
    out = tmp_path / "evolve"
    argv = ["pde-evolve", "--config", str(REPO / "configs" / "pde_ratio.json"), "--out", str(out), "--profile"]
    assert cli.main(argv) == 0
    profile = json.loads((out / "profile.json").read_text(encoding="utf-8"))
    assert set(profile) == {"evolve", "write"} and all(v > 0.0 for v in profile.values())
    # checksums are taken as each file is written, the profile's after the stages
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["files"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("trajectory.csv", "profile.json")
    }


def test_imports_leave_scipy_linalg_unloaded():
    # the LAPACK calls import scipy.linalg inside the functions that use it,
    # which keeps it out of every command's start-up
    src = str(Path(volspline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, volspline.cli, volspline.pde, volspline.opt; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "command, config, missing",
    [
        ("validate-surface", {}, "surface"),
        ("surface-calibrate", {"prior": {"type": "lognormal", "forward": 100.0}, "forward": 100.0,
                               "maturities": [1.0]}, "total_variance"),
        ("pde-evolve", {"base_variance": 400.0}, "s0"),
        ("slv-calibrate", {"params": {"s0": 100.0, "theta": 1.0, "nu": 0.3, "rho": -0.8, "sigma_bs": 0.25}}, "a0"),
    ],
)
def test_missing_config_field_exits_2(tmp_path, capsys, command, config, missing):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and repr(missing) in err


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("surface-calibrate", {"prior": {"type": "lognormal", "forward": "abc", "total_variance": 0.04},
                               "forward": 100.0, "maturities": [1.0]}, "forward"),
        ("surface-calibrate", {"prior": {"type": "lognormal", "forward": 100.0, "total_variance": 0.04},
                               "forward": 100.0, "maturities": ["soon"]}, "maturities"),
        ("pde-evolve", {"s0": 100.0, "base_variance": 400.0, "steps": None}, "steps"),
        ("slv-calibrate", {"params": {"s0": 100.0, "a0": [0.2], "theta": 1.0, "nu": 0.3, "rho": -0.8,
                                      "sigma_bs": 0.25}}, "a0"),
    ],
)
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, command, config, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and repr(field) in err


@pytest.mark.parametrize("key, scalar", [("prior.type.x", "prior.type"), ("forward.x.y", "forward")])
def test_set_through_a_non_object_exits_2(tmp_path, capsys, key, scalar):
    config = REPO / "configs" / "surface_synthetic.json"
    argv = ["surface-calibrate", "--config", str(config), "--out", str(tmp_path / "out"), "--set", f"{key}=1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and f"--set {key}: {scalar} is not an object" in err


def test_every_traced_name_resolves():
    # the benchmark's tracer finds each layer by name in the owning module's
    # or class's __dict__; a renamed layer would crash only its traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for mod_name, path, _, _ in tracing.TRACED:
        owner = importlib.import_module(mod_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = vars(owner)[part]
        assert attr in vars(owner), f"{mod_name}.{path}"


def test_every_public_name_resolves():
    names = [f"volspline.{m.name}" for m in pkgutil.iter_modules(volspline.__path__)]
    modules = [volspline] + [importlib.import_module(name) for name in names]
    assert "volspline.priors" in names
    for mod in modules:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}: {missing}"


def _surface_argv(tmp_path, config, quotes_csv=None):
    if quotes_csv is not None:
        (tmp_path / "quotes.csv").write_text(quotes_csv)
        config = dict(config, quotes=str(tmp_path / "quotes.csv"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return ["surface-calibrate", "--config", str(path), "--out", str(tmp_path / "out")]


LOGNORMAL = {"type": "lognormal", "forward": 100.0, "total_variance": 0.04}


def test_quote_with_bid_above_ask_exits_2(tmp_path, capsys):
    csv = "maturity,strike,type,bid,ask\n1.0,100.0,call,8.0,7.9\n"
    assert cli.main(_surface_argv(tmp_path, {"prior": LOGNORMAL, "forward": 100.0}, csv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "line 2" in err and "bid exceeds ask" in err


@pytest.mark.parametrize(
    "row, named",
    [
        ("1.0,100.0,call,nan,8.0", "must be finite"),  # reached the active set as an IndexError
        ("1.0,100.0,call,7.9,nan", "must be finite"),
        ("1.0,inf,call,7.9,8.0", "must be finite"),
        ("1.0,130.0,call,-0.1,0.2", "bid must be nonnegative"),
        ("1.0,-5.0,call,104.9,105.1", "strike -5.0 has no log-moneyness"),  # was exit 4, "knots must be finite"
        ("1.0,0.0,call,99.9,100.1", "strike 0.0 has no log-moneyness"),
    ],
)
def test_bad_quote_exits_2_naming_its_line(tmp_path, capsys, row, named):
    csv = f"maturity,strike,type,bid,ask\n1.0,90.0,call,11.9,12.1\n{row}\n1.0,110.0,call,3.0,3.2\n"
    assert cli.main(_surface_argv(tmp_path, {"prior": LOGNORMAL, "forward": 100.0}, csv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: quotes CSV line 3: ") and named in err


def test_bad_config_quote_exits_2_naming_it(tmp_path, capsys):
    quotes = [{"maturity": 1.0, "strike": 100.0, "bid": 7.9, "ask": 8.0},
              {"maturity": 1.0, "strike": -1.0, "bid": 100.9, "ask": 101.1}]
    assert cli.main(_surface_argv(tmp_path, {"prior": LOGNORMAL, "forward": 100.0, "quotes": quotes})) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: quote 1: ") and "no log-moneyness" in err


def test_nonpositive_strike_is_a_price_coordinate_quote(tmp_path):
    # in price space a strike at or below zero is a quote like any other:
    # the deep in-the-money call is worth F - K under the Bachelier prior.
    # (grids.csv's Black implied variance at the grid's negative strikes is
    # NaN.)
    prior = {"type": "bachelier", "mean": 100.0, "variance": 400.0}
    csv = "maturity,strike,type,bid,ask\n1.0,-5.0,call,104.9,105.1\n1.0,100.0,call,7.9,8.1\n"
    assert cli.main(_surface_argv(tmp_path, {"prior": prior, "forward": 100.0}, csv)) == 0


def test_calibrations_in_one_process_write_the_bytes_of_each_alone(tmp_path, monkeypatch):
    # slice data is kept on each calibration's own measures: calibrating
    # under SSVI, then the lognormal prior, then SSVI again in one process
    # writes what each writes alone in a fresh process
    monkeypatch.chdir(REPO)  # the shipped surface config names its quotes file relative to the root
    ssvi = {"type": "ssvi", "C": 0.0, "K": 0.04, "rho": -0.2, "eta": 0.5, "gamma": 0.5, "forward_curve": 100.0}
    base = json.loads((REPO / "configs" / "surface_synthetic.json").read_text(encoding="utf-8"))
    configs = {}
    for name, prior in (("lognormal", base["prior"]), ("ssvi", ssvi)):
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps(dict(base, prior=prior)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    for name, config in configs.items():
        argv = ["surface-calibrate", "--config", str(config), "--out", str(tmp_path / f"alone_{name}")]
        subprocess.run([sys.executable, "-m", "volspline.cli", *argv], env=env, cwd=REPO, check=True, capture_output=True)
    for run, name in enumerate(("ssvi", "lognormal", "ssvi")):
        out = tmp_path / f"run{run}"
        assert cli.main(["surface-calibrate", "--config", str(configs[name]), "--out", str(out)]) == 0
        for file in ("surface.json", "grids.csv"):
            assert (out / file).read_bytes() == (tmp_path / f"alone_{name}" / file).read_bytes(), (run, file)


def test_nonpositive_maturity_exits_2(tmp_path, capsys):
    config = {"prior": LOGNORMAL, "forward": 100.0, "maturities": [0.0, 1.0]}
    assert cli.main(_surface_argv(tmp_path, config)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "maturity 0.0" in err


def test_surface_file_that_is_not_json_exits_2(tmp_path, capsys):
    (tmp_path / "surface.json").write_text("{not json")
    path = tmp_path / "validate.json"
    path.write_text(json.dumps({"surface": str(tmp_path / "surface.json")}))
    assert cli.main(["validate-surface", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "not valid JSON" in err


def test_ssvi_prior_with_butterfly_arbitrage_exits_2(tmp_path, capsys):
    # theta phi^2 (1 + |rho|) = eta^2 (1 + |rho|) > 4 for gamma = 1/2
    prior = {"type": "ssvi", "C": 0.0, "K": 0.04, "rho": -0.2, "eta": 3.0, "gamma": 0.5, "forward_curve": 100.0}
    csv = "maturity,strike,type,bid,ask\n1.0,100.0,call,7.9,8.0\n"
    config = {"prior": prior, "forward": 100.0, "maturities": [0.25]}
    assert cli.main(_surface_argv(tmp_path, config, csv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "'butterfly: theta*phi^2*(1+|rho|) <= 4'" in err
    assert "[0.25, 1.0]" in err


@pytest.mark.parametrize(
    "command, config, setting, named",
    [
        ("regress", "regress_demo.json", 'constraints=[{"kind": "value_ge", "x": 0}]', "'value'"),
        ("regress", "regress_demo.json", 'constraints=[{"kind": "integral_eq", "value": 1}]', "'measure'"),
        ("regress", "regress_demo.json", 'constraints=[{"kind": "integral_eq", "measure": {"type": "lebesgue"}, '
                                         '"value": 1}]', "'measure' must be a measure object"),
        ("regress", "regress_demo.json", 'constraints=["convexx"]', "'convexx'"),
        ("surface-calibrate", "surface_synthetic.json", "mode=lsqq", "'lsqq'"),
        ("pde-evolve", "pde_ratio.json", "scheme=crank", "'crank'"),
    ],
)
def test_unknown_or_incomplete_option_exits_2(tmp_path, capsys, monkeypatch, command, config, setting, named):
    monkeypatch.chdir(REPO)  # the shipped surface config names its quotes file relative to the root
    argv = [command, "--config", str(REPO / "configs" / config), "--out", str(tmp_path / "out"), "--set", setting]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and named in err


@pytest.mark.parametrize(
    "command, config, setting, named",
    [
        ("pde-evolve", "pde_ratio.json", "steps=0", "steps"),
        ("pde-evolve", "pde_ratio.json", "steps=-3", "steps"),
        ("pde-evolve", "pde_ratio.json", "horizon=0", "'horizon'"),
        ("pde-evolve", "pde_ratio.json", "base_variance=-1", "'base_variance'"),
        ("pde-evolve", "pde_ratio.json", "knots=3", "'knots'"),
        ("pde-evolve", "pde_ratio.json", "order=0", "'order'"),
        ("pde-evolve", "pde_ratio.json", "half_width_stds=0", "'half_width_stds'"),
        ("pde-evolve", "pde_ratio.json", "grid_size=-1", "'grid_size'"),
        ("surface-calibrate", "surface_synthetic.json", "config.n_knots=3", "n_knots"),
        ("regress", "regress_demo.json", "penalty_order=0", "penalty_order"),
        ("regress", "regress_demo.json", "truncation=5", "truncation"),
    ],
)
def test_config_value_out_of_range_exits_2(tmp_path, capsys, monkeypatch, command, config, setting, named):
    monkeypatch.chdir(REPO)  # the shipped surface config names its quotes file relative to the root
    argv = [command, "--config", str(REPO / "configs" / config), "--out", str(tmp_path / "out"), "--set", setting]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and named in err
