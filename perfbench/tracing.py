"""Per-layer tracing of volspline, installed from outside the package.

Each traced function is replaced, in every loaded ``volspline`` module that
holds it, by a wrapper that times the call.  Spans (name, start, end,
parent) are kept in memory and written out when the run ends.  A layer's
self time is its duration minus the time its traced children cover.  Hot
leaf calls are counted and timed but keep no span record.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from statistics import median

# (module, attribute path, metric prefix, leaf).  The prefix is the layer's
# name in the per-layer metrics; leaf calls are counted rather than spanned.
TRACED = (
    ("volspline.priors", "BachelierPrior.piece_integral", "priors.BachelierPrior.piece_integral", True),
    ("volspline.priors", "adaptive_quad", "priors.adaptive_quad", True),
    ("volspline.surface", "pricing_linear_forms", "surface.pricing_linear_forms", False),
    ("volspline.surface", "calendar_constraints", "surface.calendar_constraints", False),
    ("volspline.surface", "calibrate_surface", "surface.calibrate_surface", False),
    ("volspline.surface", "validate", "surface.validate", False),
    ("volspline.bspline", "moment_rows", "bspline.moment_rows", False),
    ("volspline.bspline", "compile_basis", "bspline.compile_basis", False),
    ("volspline.bspline", "CompiledBasis.evaluate", "bspline.CompiledBasis.evaluate", False),
    ("volspline.bspline", "gram_matrix", "bspline.gram_matrix", False),
    ("volspline.opt", "solve_socp", "opt.solve_socp", False),
    ("volspline.regression", "design_system", "regression.design_system", False),
    ("volspline.regression", "fit_constrained", "regression.fit_constrained", False),
    ("volspline.pde", "constrain", "pde.constrain", False),
    ("volspline.pde", "assemble", "pde.assemble", False),
    ("volspline.pde", "collocation_rows", "pde.collocation_rows", False),
    ("volspline.pde", "solve_bordered_banded", "pde.solve_bordered_banded", False),
    ("volspline.pde", "evolve", "pde.evolve", False),
    ("volspline.slv", "calibrate_leverage", "slv.calibrate_leverage", False),
    ("volspline.slv", "simulate_terminal", "slv.simulate_terminal", False),
    ("volspline.slv", "reprice_and_implied", "slv.reprice_and_implied", False),
    ("volspline.black", "implied_vol", "black.implied_vol", False),
)

# the span the benchmark opens around each call of volspline.cli.main
CLI = "cli"

# per-layer counts, in the order they are printed; every layer also has .self_s
COUNTS = (
    "priors.BachelierPrior.piece_integral.calls",
    "priors.adaptive_quad.calls",
    "surface.pricing_linear_forms.calls",
    "bspline.moment_rows.calls",
    "bspline.compile_basis.calls",
    "opt.solve_socp.calls",
    "opt.iterations",
    "cli.bytes_written",
)
SELF_TIMES = tuple(prefix for _, _, prefix, _ in TRACED) + (CLI,)


def _resolve(owner, path: str):
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Wraps the traced functions and aggregates their calls per round."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self._stack: list[list] = []  # [child seconds, span index]
        self.rounds: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every traced name in every volspline module that holds it."""
        modules = [m for n, m in sys.modules.items() if n == "volspline" or n.startswith("volspline.")]
        for mod_name, path, prefix, leaf in TRACED:
            owner, attr = _resolve(sys.modules[mod_name], path)
            original = owner.__dict__[attr]
            hook = self._count_iterations if prefix == "opt.solve_socp" else None
            wrapped = self._wrap(prefix, original, leaf, hook)
            if "." in path:  # a method: patch the class that defines it
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- recording ----------------------------------------------------------

    def start_round(self) -> None:
        self.rounds.append({"calls": defaultdict(int), "self_s": defaultdict(float),
                            "total_s": defaultdict(float), "counts": defaultdict(float)})

    def add_count(self, name: str, value: float) -> None:
        self.rounds[-1]["counts"][name] += value

    def _count_iterations(self, solution) -> None:
        self.add_count("opt.iterations", solution.iterations)

    def _wrap(self, name: str, fn, leaf: bool, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if not leaf:
                parent = tracer._stack[-1][1] if tracer._stack else -1
                frame[1] = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent, len(tracer.rounds) - 1])
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                duration = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                agg = tracer.rounds[-1]
                agg["calls"][name] += 1
                agg["self_s"][name] += duration - frame[0]
                agg["total_s"][name] += duration
                if not leaf:
                    tracer.spans[frame[1]][1:3] = [t0, t1]
            if hook is not None:
                hook(out)
            return out

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span opened by the benchmark itself."""
        return self._wrap(name, fn, False)(*args, **kwargs)

    # -- reporting ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: counts from the first traced round, times as
        medians of the per-round totals over every traced round."""
        first = self.rounds[0]
        out = {}
        for name in COUNTS:
            if name.endswith(".calls"):
                value = first["calls"].get(name[: -len(".calls")], 0)
            else:
                value = first["counts"].get(name, 0)
            out[name] = {"value": int(value), "unit": "B" if name.endswith("bytes_written") else "count"}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = {"value": median(r["self_s"].get(name, 0.0) for r in self.rounds), "unit": "s"}
        per_iter = [
            r["total_s"]["opt.solve_socp"] / r["counts"]["opt.iterations"]
            for r in self.rounds if r["counts"].get("opt.iterations")
        ]
        out["opt.s_per_iteration"] = {"value": median(per_iter) if per_iter else 0.0, "unit": "s/iteration"}
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "round": r}
            for n, s, e, p, r in self.spans
        ]
        rounds = [
            {key: dict(agg[key]) for key in ("calls", "self_s", "total_s", "counts")}
            for agg in self.rounds
        ]
        path.write_text(json.dumps({"spans": spans, "rounds": rounds}) + "\n", encoding="utf-8")
