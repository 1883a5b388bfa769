#!/usr/bin/env python3
"""Whether two checkouts of volspline write the same bytes.

    python3 tools/same_outputs.py --base ../parent --head .

Runs the commands of ``runs`` in each checkout, the base's first: the
shipped configs, three regressions (plain, ``nonnegative`` with a
``value_eq``, and a ``value_eq`` alone, the equality-only solver route),
the PDE evolve, the surface under lognormal, SSVI and Bachelier base
models, the validation of the lognormal surface, and the SLV calibration,
shipped and with ``quadratic_cap``, at ``--seed 1``.  Each command runs in
its own process with the checkout as working directory, its ``src`` on
``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``.  The configs are written
once, and both sides write to the same output paths in turn, so a manifest
that hashes a config naming a path hashes the same text.  Each file is
then reported as ``same``, ``different`` or on one side only, and the
exit status is 1 if any file or any command's exit code differs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SSVI_PRIOR = {"type": "ssvi", "C": 0.0, "K": 0.04, "rho": -0.2, "eta": 0.5, "gamma": 0.5, "forward_curve": 100.0}
BACHELIER_PRIOR = {"type": "bachelier", "mean": 100.0, "variance": 400.0}
VALUE_EQ = {"kind": "value_eq", "x": 0.0, "value": 0.0}


def runs(shipped: Path, out: Path) -> list[tuple[str, str, dict, list[str]]]:
    """``(name, command, config, extra arguments)`` of each run, from the
    shipped configs in ``shipped``; outputs go to ``out / name``."""

    def config(name: str, **changes) -> dict:
        return {**json.loads((shipped / name).read_text(encoding="utf-8")), **changes}

    slv = config("slv_flat_smile.json")
    capped = {**slv["constraints"], "quadratic_cap": True}
    nonnegative_value_eq = config("regress_demo.json", constraints=["nonnegative", VALUE_EQ])
    return [
        ("basis", "basis", config("basis_fig.json"), []),
        ("regress", "regress", config("regress_demo.json"), []),
        ("regress-nonnegative-value-eq", "regress", nonnegative_value_eq, []),
        ("regress-value-eq", "regress", config("regress_demo.json", constraints=[VALUE_EQ]), []),
        ("pde-evolve", "pde-evolve", config("pde_ratio.json"), []),
        ("surface-lognormal", "surface-calibrate", config("surface_synthetic.json"), []),
        ("surface-ssvi", "surface-calibrate", config("surface_synthetic.json", prior=SSVI_PRIOR), []),
        ("surface-bachelier", "surface-calibrate", config("surface_synthetic.json", prior=BACHELIER_PRIOR), []),
        ("validate-surface", "validate-surface", {"surface": str(out / "surface-lognormal" / "surface.json")}, []),
        ("slv", "slv-calibrate", slv, ["--seed", "1"]),
        ("slv-quadratic-cap", "slv-calibrate", {**slv, "constraints": capped}, ["--seed", "1"]),
    ]


def run_all(checkout: Path, plan, configs: Path, out: Path) -> dict[str, int]:
    """Each run of ``plan`` in ``checkout``; its exit code by name."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1"}
    main = "import sys; from volspline.cli import main; sys.exit(main(sys.argv[1:]))"
    codes = {}
    for name, command, _, extra in plan:
        argv = [command, "--config", str(configs / f"{name}.json"), "--out", str(out / name), *extra]
        proc = subprocess.run([sys.executable, "-c", main, *argv], cwd=checkout, env=env,
                              capture_output=True, text=True)
        codes[name] = proc.returncode
        if proc.returncode:
            print(f"{checkout} {name}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}", file=sys.stderr)
    return codes


def compare(base: Path, head: Path) -> dict[str, str]:
    """Each file under either directory, by its relative path: ``same``,
    ``different``, ``only in base`` or ``only in head``."""
    files = {side: {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}
             for side, root in (("base", base), ("head", head))}
    report = {}
    for name in sorted(files["base"].keys() | files["head"].keys()):
        if name not in files["head"]:
            report[name] = "only in base"
        elif name not in files["base"]:
            report[name] = "only in head"
        else:
            same = files["base"][name].read_bytes() == files["head"][name].read_bytes()
            report[name] = "same" if same else "different"
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="checkout of the parent")
    ap.add_argument("--head", required=True, type=Path, help="checkout of the change")
    args = ap.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="same-outputs-"))
    try:
        configs, out = work / "configs", work / "out"
        plan = runs(args.head.resolve() / "configs", out)
        configs.mkdir()
        for name, _, config, _ in plan:
            (configs / f"{name}.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        codes = {}
        for side in ("base", "head"):
            codes[side] = run_all(getattr(args, side).resolve(), plan, configs, out)
            out.rename(work / side)
        report = compare(work / "base", work / "head")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, verdict in report.items():
        print(f"{verdict:12s} {name}")
    exits = [f"{name}: base {codes['base'][name]}, head {codes['head'][name]}"
             for name in codes["base"] if codes["base"][name] != codes["head"][name]]
    for line in exits:
        print(f"exit codes differ: {line}")
    same = sum(v == "same" for v in report.values())
    print(f"{same} of {len(report)} files the same over {len(plan)} runs")
    return 0 if same == len(report) and not exits else 1


if __name__ == "__main__":
    sys.exit(main())
