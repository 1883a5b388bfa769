"""The file comparison of ``tools/same_outputs.py`` on synthetic output directories."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def _write(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_each_file_is_same_different_or_on_one_side(tmp_path):
    common = {"regress/fit.csv": b"x,fitted\n0.0,1.0\n", "slv/manifest.json": b"{}\n"}
    base = _write(tmp_path / "base", {**common, "basis/basis_order0.csv": b"x\n-0.0\n", "pde/old.csv": b""})
    head = _write(tmp_path / "head", {**common, "basis/basis_order0.csv": b"x\n0.0\n", "pde/new.csv": b""})
    assert same_outputs.compare(base, head) == {
        "basis/basis_order0.csv": "different",
        "pde/new.csv": "only in head",
        "pde/old.csv": "only in base",
        "regress/fit.csv": "same",
        "slv/manifest.json": "same",
    }


def test_the_plan_covers_every_command_and_writes_one_directory_per_run(tmp_path):
    shipped = Path(__file__).resolve().parents[1] / "configs"
    plan = same_outputs.runs(shipped, tmp_path / "out")
    assert len({name for name, *_ in plan}) == len(plan) == 11
    assert {command for _, command, *_ in plan} == {
        "basis", "regress", "pde-evolve", "surface-calibrate", "validate-surface", "slv-calibrate",
    }
    validate = next(config for name, _, config, _ in plan if name == "validate-surface")
    assert validate["surface"] == str(tmp_path / "out" / "surface-lognormal" / "surface.json")
