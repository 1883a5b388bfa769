#!/usr/bin/env python3
"""Benchmark of volspline's engines, run from the root of a checkout.

    python3 perfbench/run.py --workload surface|pde|slv --seed N --seconds S --trace 0|1

One process per workload runs whole rounds of its operations, one at a
time, with single-threaded BLAS, until ``--seconds`` have passed.  Every
output is checked (see checks.py).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  A table of every stage's median goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ["VOLSPLINE_THREADS"] = "1"  # before numpy is first imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
TRACES = HERE / "traces"
SETUP_SAMPLES = 5
PROBE_INTERVAL_S = 0.1
PROBE_NOMINAL_S = 0.0017  # the probe kernel's time on the nominal host


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("surface", "pde", "slv"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate the inputs, then exit (one set-up sample)")
    return ap.parse_args(argv)


def _prepare(args, work: Path):
    """Imports and input generation: everything before the first timed call."""
    missing = [p for p in ("src/volspline/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        raise SystemExit(f"perfbench: not a volspline checkout (missing {', '.join(missing)})")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: PLC0415 - imports volspline, after the thread cap is set

    work.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[args.workload](work, args.seed)


class HostClock:
    """Wall times rescaled to a nominal host speed.

    The shared host's speed drifts by tens of percent within seconds and
    minutes, more than any bound could absorb.  While a timed call runs, an
    interval timer interrupts it every ``PROBE_INTERVAL_S`` to time a fixed
    probe kernel (an interpreter loop, scalar numpy calls and a small matrix
    product, the mix the engines run).  The call's wall time, less the time
    spent in probes, is multiplied by the probe's nominal time over its
    mean time during the call.
    """

    def __init__(self):
        import numpy as np  # noqa: PLC0415 - after the thread cap is set

        self.np = np
        self.matrix = np.random.default_rng(0).standard_normal((60, 60))
        self.samples: list[float] = []
        self.wall: dict[str, list[float]] = {}

    def _kernel(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        x = 0.0
        for i in range(10000):
            x += (i * 0.5) % 3.0
        for i in range(100):
            x += float(np.exp(-0.5 * (i * 1e-3) ** 2)) * np.isfinite(x)
        for _ in range(8):
            self.matrix @ self.matrix
        return time.perf_counter() - t0

    def _probe(self, signum, frame) -> None:
        self.samples.append(self._kernel())

    def time(self, name: str, fn, *args, in_process: bool = True):
        """Run ``fn``; return its result and its rescaled time.

        ``in_process=False`` marks a call that waits on a child process: the
        probes then run beside the work rather than inside it.
        """
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        probes, self.samples = self.samples, []
        own = wall - sum(probes) if in_process else wall  # probe time is not the call's
        self.wall.setdefault(name, []).append(own)
        # the call's time integrates the host's slowness, which the probes
        # sample evenly: their mean is its average.  A call shorter than the
        # interval is rescaled by a probe right after it.
        probe = statistics.fmean(probes) if probes else self._kernel()
        return out, own * PROBE_NOMINAL_S / probe


def _setup_samples(args, clock: HostClock) -> list[float]:
    """Rescaled times of fresh processes that each set up the workload and exit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc, scaled = clock.time(
            "setup_s", lambda: subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                              stderr=subprocess.PIPE, timeout=120, check=False),
            in_process=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {proc.stderr.decode(errors='replace')[-500:]}")
        samples.append(scaled)
    return samples


class Runner:
    """Runs rounds of a workload and keeps each stage's times.

    With a clock, times are rescaled to the nominal host; without one (the
    traced run) they are plain wall times.
    """

    def __init__(self, workload, clock: HostClock | None):
        self.workload = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stage_times: dict[str, list[float]] = {s: [] for s in workload.stages}
        self.round_times: list[float] = []

    def _call(self, op, tracer):
        """Run the operation; return its result and its time."""
        if self.clock is not None and op.stage is not None:
            return self.clock.time(op.stage, op.run, tracer)
        t0 = time.perf_counter()
        result = op.run(tracer)
        return result, time.perf_counter() - t0

    def round(self, r: int, tracer=None) -> float:
        """Run one round; return the summed time of its staged operations."""
        total = 0.0
        for op in self.workload.ops(r):
            self.attempted += 1
            try:
                result, elapsed = self._call(op, tracer)
            except Exception as exc:  # an engine failure is a failed operation
                problems = [f"{type(exc).__name__}: {exc}"]
            else:
                if op.stage is not None:
                    total += elapsed
                if tracer is not None and op.cli is not None:
                    tracer.add_count("cli.bytes_written", op.cli.written())
                try:
                    problems = op.check(result)
                except Exception as exc:  # output the check cannot read
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.problems.append(f"round {r} {op.label}: {'; '.join(problems)}")
            elif op.stage is not None:
                self.stage_times[op.stage].append(elapsed)
        return total


def _median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    args = _parse(argv)
    work = WORK / f"{args.workload}-{os.getpid()}"
    tracer = None
    try:
        workload = _prepare(args, work)
        if args.setup_only:
            return 0
        if args.trace:
            from tracing import Tracer  # noqa: PLC0415

            runner = Runner(workload, None)
            deadline = time.perf_counter() + args.seconds
            # the same round untraced, then traced: their difference is the
            # overhead.  A first untraced pass takes the process's one-off
            # costs (lazy imports, first BLAS calls) off both.
            runner.round(0)
            untraced = runner.round(0)
            tracer = Tracer()
            tracer.install()
            try:
                tracer.start_round()
                traced = runner.round(0, tracer)
                r = 1
                while time.perf_counter() < deadline:
                    tracer.start_round()
                    runner.round(r, tracer)
                    r += 1
            finally:
                tracer.uninstall()
        else:
            clock = HostClock()
            setup = _setup_samples(args, clock)
            runner = Runner(workload, clock)
            deadline = time.perf_counter() + args.seconds
            r = 0
            while True:
                runner.round_times.append(runner.round(r))
                r += 1
                if time.perf_counter() >= deadline:
                    break
        run_problems = workload.run_checks()
        runner.problems += run_problems
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in runner.problems:
        print(f"perfbench: {line}", file=sys.stderr)
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        TRACES.mkdir(exist_ok=True)
        tracer.write(TRACES / f"{args.workload}-seed{args.seed}.json")
    else:
        for stage, times in runner.stage_times.items():
            print(f"perfbench: {args.workload} {stage}: median {_median(times)} s rescaled, "
                  f"{_median(clock.wall.get(stage, []))} s wall, over {len(times)}", file=sys.stderr)
        print(f"perfbench: setup_s wall median {_median(clock.wall['setup_s'])} s", file=sys.stderr)
        metrics = {
            "setup_s": {"value": _median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "solve_s": {"value": _median(runner.stage_times[workload.stages[0]]), "unit": "s"},
            "round_s": {"value": _median(runner.round_times), "unit": "s"},
        }
    # a run-level check that fails makes the run incorrect; a failed
    # operation is counted in "failed" instead
    print(json.dumps({"correct": not run_problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
