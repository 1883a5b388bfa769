#!/usr/bin/env python3
"""The property tests of a checkout of volspline over a range of seeds.

    python3 tools/seed_sweep.py --checkout . --seeds 1-20

Tier-1 runs each ``hypothesis`` property on one pinned example set
(``derandomize=True``).  This tool copies the checkout's ``src``,
``tests``, ``configs`` and ``perfbench`` and its ``pyproject.toml`` to a
scratch directory (under ``TMPDIR``), turns ``derandomize=True`` into
``derandomize=False`` in the property modules of ``MODULES``, and runs
those modules once per seed with ``--hypothesis-seed``, each run with a
fresh example database (the copy's ``.hypothesis`` directory is removed
before it).  Each run has the copy as
working directory, its ``src`` on ``PYTHONPATH`` and
``OPENBLAS_NUM_THREADS=1``.  It prints one line per seed, the counts of
pytest's summary and each failing test, then the seeds that failed; the
exit status is 1 if any seed failed.  The scratch directory is removed at
the end.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

MODULES = ("tests/test_black.py", "tests/test_config.py", "tests/test_opt.py", "tests/test_properties.py")
COPIED = ("src", "tests", "configs", "perfbench", "pyproject.toml")  # test_config reads perfbench's priors
PINNED = re.compile(r"derandomize\s*=\s*True")
_COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|deselected|xfailed|xpassed)\b")
_FAILED = re.compile(r"^(FAILED|ERROR) (\S+)")


class SeedReport(NamedTuple):
    """The outcome of one seed's run: pytest's summary counts by word
    (``passed``, ``failed``, ``error``, ...) and the failing test ids."""

    counts: dict[str, int]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return self.counts.get("passed", 0) > 0 and not (self.failures or self.counts.get("failed")
                                                         or self.counts.get("error"))


def parse_report(output: str) -> SeedReport:
    """The counts of the last summary line of pytest's ``-rfE`` output and
    the ids of its ``FAILED``/``ERROR`` lines, in order, each once."""
    report = SeedReport({}, [])
    summary = [line for line in output.splitlines() if " in " in line and _COUNT.search(line)]
    if summary:
        for n, word in _COUNT.findall(summary[-1]):
            report.counts[word.rstrip("s") if word.startswith("error") else word] = int(n)
    for line in output.splitlines():
        m = _FAILED.match(line)
        if m and m.group(2) not in report.failures:
            report.failures.append(m.group(2))
    return report


def parse_seeds(text: str) -> list[int]:
    """``"3"``, ``"1-20"`` or ``"1,4,6"`` (ranges allowed between commas) as a list."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def unpin(text: str) -> tuple[str, int]:
    """The module text with every ``derandomize=True`` made ``False``, and how many there were."""
    return PINNED.subn("derandomize=False", text)


def prepare(checkout: Path, work: Path) -> Path:
    """A copy of the checkout's test inputs under ``work``, its property modules unpinned."""
    copy = work / "checkout"
    copy.mkdir(parents=True)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".work", "traces")
    for name in COPIED:
        src = checkout / name
        if src.is_dir():
            shutil.copytree(src, copy / name, ignore=ignore)
        elif src.exists():
            shutil.copy2(src, copy / name)
    for module in MODULES:
        path = copy / module
        text, n = unpin(path.read_text(encoding="utf-8"))
        if not n:
            raise SystemExit(f"{module}: no derandomize=True to unpin")
        path.write_text(text, encoding="utf-8")
    return copy


def run_seed(copy: Path, seed: int) -> tuple[SeedReport, str]:
    """One run of the property modules at ``seed`` with a fresh example database."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "OPENBLAS_NUM_THREADS": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", f"--hypothesis-seed={seed}", *MODULES]
    proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    return parse_report(proc.stdout), proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", required=True, type=Path, help="checkout whose property tests are swept")
    ap.add_argument("--seeds", default="1-20", help="seeds, as 1-20 or 1,4,6 (default 1-20)")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    work = Path(tempfile.mkdtemp(prefix="seed-sweep-"))
    failed = []
    try:
        copy = prepare(args.checkout.resolve(), work)
        for seed in seeds:
            report, output = run_seed(copy, seed)
            counts = ", ".join(f"{n} {word}" for word, n in report.counts.items()) or "no summary"
            print(f"seed {seed}: {counts}", flush=True)
            for test in report.failures:
                print(f"    {test}", flush=True)
            if not report.ok:
                failed.append(seed)
                if not report.counts:
                    print(output.strip()[-2000:], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(seeds) - len(failed)} of {len(seeds)} seeds pass" + (f"; failing: {failed}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
