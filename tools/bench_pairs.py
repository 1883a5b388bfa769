#!/usr/bin/env python3
"""Alternating benchmark pairs between two checkouts of volspline.

    python3 tools/bench_pairs.py --workload surface --base ../parent --head .

Ten pairs, as ROADMAP's "How a perf PR reports" fixes them: pair i runs
``perfbench/run.py --workload W --seed 201 + i --seconds 14 --trace 0`` once
in each checkout, the base first on even i and the head
first on odd i, one benchmark process at a time.  The base is typically a
``git archive`` copy or a ``git worktree`` of the parent commit.  Each run's
JSON line is kept; a run that prints none, or reads ``correct: false`` or a
nonzero ``failed``, is reported as such.

The header line names the BLAS, OpenMP and volspline thread caps the runs
inherit (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``VOLSPLINE_THREADS``;
``unset`` when absent): the active-set working-set path can depend on the
BLAS thread count, so a report says which count it measured.

For every end-to-end metric named in the head's ``BENCHMARK.json`` it prints
each side's median and quartiles, the gap between the medians, and the
number of pairs each side won (lower or higher is better as the metric
says; ties count for neither).  A gain holds when the head wins at least
nine tenths of the pairs and its median is better by more than the distance
between the base's quartiles; a metric regresses when the head's median is
worse than the base's by more than the metric's bound.  A metric whose
base interquartile range exceeds its bound times the base median is
``unresolved``, unless every head run beats every base run: its runs
spread too widely to tell a change within the bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
FIRST_SEED = 201
SECONDS = 14.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "VOLSPLINE_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("surface", "pde", "slv"))
    ap.add_argument("--base", required=True, type=Path, help="checkout measured as the parent")
    ap.add_argument("--head", required=True, type=Path, help="checkout measured as the change")
    return ap.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process in ``checkout``; its last JSON line, or an error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else {"error": proc.stderr.strip()[-400:]}
    except json.JSONDecodeError:
        return {"error": f"no JSON line: {lines[-1][:200]}"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (``statistics.quantiles``, inclusive)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> list[dict]:
    """Per end-to-end metric: both sides' quartiles, the pair count won and the verdicts."""
    rows = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                 for b, h in zip(runs["base"], runs["head"])
                 if name in b.get("metrics", {}) and name in h.get("metrics", {})]
        if len(pairs) < 2:
            rows.append({"metric": name, "pairs": len(pairs)})
            continue
        base, head = [p[0] for p in pairs], [p[1] for p in pairs]
        bq, hq = quartiles(base), quartiles(head)
        sign = 1.0 if lower else -1.0  # positive gain: the head is better
        gain = sign * (bq[1] - hq[1])
        head_wins = sum(sign * (b - h) > 0 for b, h in pairs)
        base_wins = sum(sign * (h - b) > 0 for b, h in pairs)
        head_beats_all = min(sign * b for b in base) > max(sign * h for h in head)
        rows.append({
            "metric": name, "unit": spec["unit"], "pairs": len(pairs),
            "base": bq, "head": hq, "change_pct": 100.0 * (hq[1] - bq[1]) / bq[1] if bq[1] else math.nan,
            "head_wins": head_wins, "base_wins": base_wins,
            "gain_holds": head_wins >= math.ceil(0.9 * len(pairs)) and gain > bq[2] - bq[0],
            "regressed": -gain > spec["bound"] * abs(bq[1]),
            "unresolved": bq[2] - bq[0] > spec["bound"] * abs(bq[1]) and not head_beats_all,
        })
    return rows


def _fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    args = _parse(argv)
    bench = json.loads((args.head / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            out = run_once(sides[side], args.workload, seed, SECONDS)
            runs[side].append(out)
            status = out.get("error") or f"correct={out['correct']} failed={out['failed']}/{out['attempted']}"
            print(f"pair {i + 1} seed {seed} {side}: {status}", file=sys.stderr, flush=True)

    bad = [f"{side} pair {i + 1}" for side, outs in runs.items() for i, out in enumerate(outs)
           if "error" in out or not out["correct"] or out["failed"]]
    rows = summarize(bench["end_to_end"], runs)
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in THREAD_VARS)
    print(f"workload {args.workload}: {PAIRS} pairs, seeds {FIRST_SEED}-{FIRST_SEED + PAIRS - 1}, "
          f"{SECONDS:g} s per run, {threads}; median [quartiles]")
    print(f"{'metric':14s} {'base':32s} {'head':32s} {'change':>8s} {'head won':>9s} {'base won':>9s}  verdict")
    for row in rows:
        if "base" not in row:
            print(f"{row['metric']:14s} fewer than two pairs report it")
            continue
        verdict = ("gain holds" if row["gain_holds"] else "regressed beyond bound" if row["regressed"]
                   else "unresolved" if row["unresolved"] else "-")
        print(f"{row['metric']:14s} {_fmt(row['base']):32s} {_fmt(row['head']):32s} {row['change_pct']:+7.1f}% "
              f"{row['head_wins']:>9d} {row['base_wins']:>9d}  {verdict}")
    if bad:
        print("runs with errors, incorrect outputs or failed operations: " + ", ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
