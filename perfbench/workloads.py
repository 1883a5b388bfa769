"""The benchmark's workloads: what one round runs, and how each output is checked.

Each operation is one call into a public entry point of volspline
(``volspline.cli.main``, ``slv.calibrate_leverage``,
``slv.reprice_and_implied``).  ``stage`` names the metric its time feeds;
an operation with no stage is attempted and checked but feeds no time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from volspline import cli, pde, slv

SURFACE_CONFIG = "configs/surface_synthetic.json"
QUOTES = "configs/quotes_synthetic.csv"
PDE_CONFIG = "configs/pde_ratio.json"
SLV_CONFIG = "configs/slv_flat_smile.json"

# base models for the same quotes; see README.md
SSVI_PRIOR = {"type": "ssvi", "C": 0.0, "K": 0.04, "rho": -0.2, "eta": 0.5, "gamma": 0.5, "forward_curve": 100.0}
BACHELIER_PRIOR = {"type": "bachelier", "mean": 100.0, "variance": 400.0}


@dataclass
class Op:
    label: str
    stage: str | None
    run: Callable[..., object]
    check: Callable[[object], list[str]]
    cli: "CliCall | None" = None  # the command the operation runs, if any


class CliCall:
    """One ``volspline`` command into a fresh output directory.

    The command's own printing is kept off the benchmark's standard output.
    """

    def __init__(self, command: str, config: Path | str, out: Path):
        self.argv = [command, "--config", str(config), "--out", str(out)]
        self.out = out
        self.stderr = ""

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def __call__(self, tracer=None) -> int:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(self.argv)
            else:
                code = tracer.span("cli", cli.main, self.argv)
        self.stderr = err.getvalue().strip()
        return code

    def written(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir()) if self.out.exists() else 0

    def failed(self, code) -> list[str]:
        last = self.stderr.splitlines()[-1] if self.stderr else ""
        return [] if code == 0 else [f"{self.argv[0]} exited {code}: {last}"]


def _read_quotes() -> dict:
    quotes: dict[float, list] = {}
    with open(QUOTES, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            quotes.setdefault(float(row["maturity"]), []).append(
                (float(row["strike"]), float(row["bid"]), float(row["ask"]), row["type"] == "call")
            )
    return quotes


class Surface:
    """Shipped lognormal calibration, its validation, then SSVI and Bachelier
    calibrations of the same quotes."""

    stages = ("calibrate_s", "validate_s", "calibrate_ssvi_s")

    def __init__(self, work: Path, seed: int):
        self.quotes = _read_quotes()
        base = json.loads(Path(SURFACE_CONFIG).read_text(encoding="utf-8"))
        configs = {}
        for name, prior in (("ssvi", SSVI_PRIOR), ("bachelier", BACHELIER_PRIOR)):
            configs[name] = work / f"surface_{name}.json"
            configs[name].write_text(json.dumps(dict(base, prior=prior)), encoding="utf-8")
        configs["validate"] = work / "validate.json"
        configs["validate"].write_text(json.dumps({"surface": str(work / "lognormal" / "surface.json")}))
        self.calls = [
            CliCall("surface-calibrate", SURFACE_CONFIG, work / "lognormal"),
            CliCall("validate-surface", configs["validate"], work / "validate"),
            CliCall("surface-calibrate", configs["ssvi"], work / "ssvi"),
            CliCall("surface-calibrate", configs["bachelier"], work / "bachelier"),
        ]

    def ops(self, r: int) -> list[Op]:
        for call in self.calls:
            call.clear()
        ln, val, ssvi, bach = self.calls
        return [
            Op("surface-calibrate lognormal", "calibrate_s", ln, self._check_calibration(ln), ln),
            Op("validate-surface", "validate_s", val,
               lambda code: val.failed(code) or checks.check_report(val.out), val),
            Op("surface-calibrate ssvi", "calibrate_ssvi_s", ssvi, self._check_calibration(ssvi), ssvi),
            # fails today (calendar rows mis-scaled in price space): no stage
            Op("surface-calibrate bachelier", None, bach, self._check_calibration(bach), bach),
        ]

    def _check_calibration(self, call: CliCall):
        return lambda code: call.failed(code) or checks.check_surface(call.out, self.quotes)

    def run_checks(self) -> list[str]:
        return []


class Pde:
    """One ``pde-evolve`` of the shipped config."""

    stages = ("evolve_s",)

    def __init__(self, work: Path, seed: int):
        self.cfg = json.loads(Path(PDE_CONFIG).read_text(encoding="utf-8"))
        self.call = CliCall("pde-evolve", PDE_CONFIG, work / "evolve")
        self.trajectory = None

    def ops(self, r: int) -> list[Op]:
        self.call.clear()
        return [Op("pde-evolve", "evolve_s", self._run, self._check, self.call)]

    def _run(self, tracer=None):
        # keep the trajectory the command computed, for the mass/mean check;
        # installed per call so that a tracer's own wrapper sits inside it
        self.trajectory = None
        inner = pde.evolve

        def capture(*args, **kwargs):
            self.trajectory = inner(*args, **kwargs)
            return self.trajectory

        pde.evolve = capture
        try:
            return self.call(tracer)
        finally:
            pde.evolve = inner

    def _check(self, code) -> list[str]:
        return self.call.failed(code) or checks.check_pde(self.call.out, self.trajectory, self.cfg)

    def run_checks(self) -> list[str]:
        return []


class Slv:
    """Leverage calibration, then Monte Carlo repricing, on a fresh seed per round."""

    stages = ("calibrate_s", "reprice_s")

    def __init__(self, work: Path, seed: int):
        cfg = json.loads(Path(SLV_CONFIG).read_text(encoding="utf-8"))
        self.raw = cfg["params"]
        self.params = slv.ScottParams(**{k: float(v) for k, v in self.raw.items()})
        self.horizon = float(cfg["horizon"])
        self.times = np.linspace(0.0, self.horizon, int(cfg["steps"]) + 1)
        self.particles = int(cfg["particles"])
        self.fit = {k: int(cfg[k]) for k in ("knots", "order", "truncation", "penalty_order")}
        flags = cfg["constraints"]
        self.flags = slv.ConstraintFlags(
            forward_variance_eq=bool(flags["forward_variance"]),
            nonnegative=bool(flags["nonnegative"]),
            quadratic_cap=bool(flags["quadratic_cap"]),
        )
        strikes = cfg["reprice"]["strikes"]
        logm = np.linspace(strikes["logm_start"], strikes["logm_stop"], int(strikes["count"]))
        self.strikes = self.params.s0 * np.exp(logm)
        self.paths = int(cfg["reprice"]["paths"])
        self.seed = seed
        self.surface = None
        self.deviations: list[float] = []

    def round_seed(self, r: int) -> int:
        return int(np.random.SeedSequence([self.seed, r]).generate_state(1, np.uint32)[0])

    def ops(self, r: int) -> list[Op]:
        seed = self.round_seed(r)
        return [
            Op("calibrate_leverage", "calibrate_s", lambda tracer=None: self._calibrate(seed), self._check_calibration),
            Op("reprice_and_implied", "reprice_s", lambda tracer=None: self._reprice(seed + 1), self._check_reprice),
        ]

    def _calibrate(self, seed: int):
        self.surface = None  # a failed calibration leaves nothing to reprice
        self.surface = slv.calibrate_leverage(
            self.params, self.times, self.particles, seed=seed,
            n_knots=self.fit["knots"], order=self.fit["order"], truncation=self.fit["truncation"],
            penalty_order=self.fit["penalty_order"], flags=self.flags,
        )
        return self.surface

    def _reprice(self, seed: int):
        if self.surface is None:
            raise RuntimeError("no calibrated surface to reprice")
        return slv.reprice_and_implied(self.surface, self.params, self.strikes, self.horizon, self.paths, seed=seed)

    def _check_calibration(self, surface) -> list[str]:
        return checks.check_leverage(surface, self.raw)

    def _check_reprice(self, res) -> list[str]:
        problems, dev = checks.check_reprice(res, self.raw)
        self.deviations.append(dev)
        return problems

    def run_checks(self) -> list[str]:
        if not self.deviations:
            return []
        mean = float(np.mean(self.deviations))
        if mean > checks.SMILE_RUN_TOL:
            return [f"mean largest smile deviation {mean:.4f} above {checks.SMILE_RUN_TOL}"]
        return []


WORKLOADS = {"surface": Surface, "pde": Pde, "slv": Slv}
