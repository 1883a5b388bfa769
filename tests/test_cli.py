"""CSV number formatting and the import footprint of the command-line modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_imports_leave_scipy_linalg_unloaded():
    # the LAPACK calls import scipy.linalg inside the functions that use it,
    # which keeps it out of every command's start-up
    src = str(Path(volspline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, volspline.cli, volspline.pde, volspline.opt; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
