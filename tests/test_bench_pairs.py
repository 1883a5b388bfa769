"""The verdicts of ``tools/bench_pairs.py`` on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# base quartiles 0.8 and 1.3: an interquartile range of 0.5, past the bound 0.2 times the median 1.0
WIDE = [1.0, 1.6, 0.5, 1.3, 0.8] * 2


@pytest.mark.parametrize(
    "better, base, head, unresolved, gain",
    [
        ("lower", [1.0, 1.01, 0.99, 1.02, 0.98] * 2, [1.0, 1.02, 0.99, 1.01, 0.98] * 2, False, False),
        ("lower", WIDE, WIDE, True, False),
        ("lower", WIDE, [0.9, 1.7, 0.6, 1.2, 0.8] * 2, True, False),
        # every head run beats every base run: the spread cannot hide the change
        ("lower", WIDE, [0.1, 0.2, 0.3, 0.15, 0.25] * 2, False, True),
        ("higher", WIDE, [2.0, 2.1, 2.2, 2.3, 2.4] * 2, False, True),
    ],
)
def test_a_base_spread_beyond_the_bound_is_unresolved(better, base, head, unresolved, gain):
    metric = {"name": "solve_s", "unit": "s", "better": better, "bound": 0.2}
    runs = {side: [{"metrics": {"solve_s": {"value": v}}} for v in values]
            for side, values in (("base", base), ("head", head))}
    (row,) = bench_pairs.summarize([metric], runs)
    assert (row["unresolved"], row["gain_holds"], row["regressed"]) == (unresolved, gain, False)
