"""The timing cases of ``tools/overlap_probe.py``, at sizes that run in a fraction of a second."""

import importlib.util
import os
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "overlap_probe", Path(__file__).resolve().parents[1] / "tools" / "overlap_probe.py"
)
overlap_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(overlap_probe)


def test_threads_pin_only_themselves():
    before = os.sched_getaffinity(0)
    cpu = min(before)
    seen = []
    overlap_probe.in_threads([lambda: seen.append(os.sched_getaffinity(0))] * 2, [cpu, cpu])
    assert seen == [{cpu}, {cpu}]
    assert os.sched_getaffinity(0) == before


def test_every_case_is_timed():
    exp = overlap_probe.exp_probe(1000, 2, 1)
    assert {"exp", "exp x2 free"} <= exp.keys() and all(t > 0.0 for t in exp.values())
    march = overlap_probe.march_probe(1, particles=2000, paths=2000)
    assert set(march) == {"draws", "march", "simulate_terminal"} and all(t > 0.0 for t in march.values())
