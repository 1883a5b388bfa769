#!/usr/bin/env python3
"""Whether two threads of numpy work overlap on this host.

    PYTHONPATH=src python3 tools/overlap_probe.py

``slv.simulate_terminal`` draws date k+1's normals on a helper thread while
the calling thread marches date k, and ``slv.calibrate_leverage`` does the
same with its regression.  How much that saves depends on the host's
scheduler, not on the program.  This probe prints the median of ``--reps``
timings of:

- ``exp``: one thread computing ``np.exp`` of an ``--n``-element array
  ``--loops`` times; ``exp x2 free``: two threads doing that at once,
  unpinned; ``exp x2 pinned``: the same with each thread pinning only
  itself to its own CPU (``os.sched_setaffinity(0, ...)`` from the thread,
  which sets that thread's mask alone);
- ``draws``: the normals of the shipped SLV repricing alone, each date's
  ``(2, paths / 2)`` draw from its own stream, serially; ``march``: the
  march alone, on normals drawn beforehand; ``simulate_terminal``: both,
  with the helper thread.

Two threads overlap where ``exp x2`` is near ``exp``, and the helper's
draws are hidden where ``simulate_terminal`` is near the larger of
``draws`` and ``march`` rather than their sum.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def exp_work(n: int, loops: int):
    """``loops`` calls of ``np.exp`` into one buffer of ``n`` elements."""
    x, out = np.linspace(0.0, 1.0, n), np.empty(n)

    def work():
        for _ in range(loops):
            np.exp(x, out=out)

    return work


def in_threads(works, cpus=None):
    """Run each callable on its own thread and join them; with ``cpus``,
    thread i first pins itself to CPU ``cpus[i]``."""
    def body(i):
        if cpus is not None:
            os.sched_setaffinity(0, {cpus[i]})
        works[i]()

    threads = [threading.Thread(target=body, args=(i,)) for i in range(len(works))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def exp_probe(n: int, loops: int, reps: int) -> dict[str, float]:
    """One thread of ``np.exp`` work, two free and two each pinned to its own CPU."""
    out = {"exp": _median_time(exp_work(n, loops), reps)}
    pair = [exp_work(n, loops), exp_work(n, loops)]
    out["exp x2 free"] = _median_time(lambda: in_threads(pair), reps)
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        out["exp x2 pinned"] = _median_time(lambda: in_threads(pair, cpus[:2]), reps)
    return out


@contextmanager
def _normals_from(slv, drawn):
    """``slv._date_normals`` replaced by the arrays ``drawn``, one per date, drawn beforehand."""
    original = slv._date_normals
    slv._date_normals = lambda seed, stream, n_dates, n: (z for z in drawn[:n_dates])  # closable, as the march needs
    try:
        yield
    finally:
        slv._date_normals = original


def march_probe(reps: int, particles: int | None = None, paths: int | None = None) -> dict[str, float]:
    """The shipped SLV repricing's draws alone, march alone, and both."""
    from volspline import slv

    cfg = json.loads((REPO / "configs" / "slv_flat_smile.json").read_text(encoding="utf-8"))
    p = slv.ScottParams(**{k: float(v) for k, v in cfg["params"].items()})
    times = np.linspace(0.0, float(cfg["horizon"]), int(cfg["steps"]) + 1)
    fit = {k: int(cfg[k]) for k in ("knots", "order", "truncation", "penalty_order")}
    surface = slv.calibrate_leverage(p, times, particles or int(cfg["particles"]), seed=1, n_knots=fit["knots"],
                                     order=fit["order"], truncation=fit["truncation"],
                                     penalty_order=fit["penalty_order"])
    n_paths = paths or int(cfg["reprice"]["paths"])
    half, n_dates = (n_paths + 1) // 2, times.size - 1

    def draws():
        for k in range(n_dates):
            slv._step_rng(2, "reprice", k).standard_normal((2, half))

    drawn = [slv._step_rng(2, "reprice", k).standard_normal((2, half)) for k in range(n_dates)]

    def march():
        with _normals_from(slv, drawn):
            slv.simulate_terminal(surface, n_paths, 2)

    return {
        "draws": _median_time(draws, reps),
        "march": _median_time(march, reps),
        "simulate_terminal": _median_time(lambda: slv.simulate_terminal(surface, n_paths, 2), reps),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=100_000, help="elements of each np.exp array")
    ap.add_argument("--loops", type=int, default=200, help="np.exp calls per thread")
    ap.add_argument("--reps", type=int, default=7, help="timings per median")
    args = ap.parse_args(argv)
    print(f"cpus allowed: {sorted(os.sched_getaffinity(0))}")
    results = {**exp_probe(args.n, args.loops, args.reps), **march_probe(args.reps)}
    for name, seconds in results.items():
        print(f"{name:18s} {seconds:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
