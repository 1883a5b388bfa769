"""The report parsing and module unpinning of ``tools/seed_sweep.py`` on synthetic inputs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "seed_sweep", Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"
)
seed_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seed_sweep)

FAILING = """\
..F.....F..                                                              [100%]
=================================== FAILURES ===================================
____________________________ test_gaussian_table _____________________________
E   AssertionError: 2.9e-17 > 4.0e-21
=========================== short test summary info ============================
FAILED tests/test_properties.py::test_gaussian_table_matches_quad - ExceptionGroup: Hypothesis found 2 distinct failures.
FAILED tests/test_properties.py::test_lebesgue_table_matches_quad - hypothesis.errors.FailedHealthCheck
ERROR tests/test_config.py::test_every_declared_field - FileNotFoundError
2 failed, 121 passed, 1 error in 84.17s (0:01:24)
"""


def test_a_failing_run_gives_its_counts_and_each_failing_test():
    report = seed_sweep.parse_report(FAILING)
    assert report.counts == {"failed": 2, "passed": 121, "error": 1}
    assert report.failures == [
        "tests/test_properties.py::test_gaussian_table_matches_quad",
        "tests/test_properties.py::test_lebesgue_table_matches_quad",
        "tests/test_config.py::test_every_declared_field",
    ]
    assert not report.ok


def test_a_clean_run_passes_and_a_run_without_a_summary_does_not():
    clean = seed_sweep.parse_report("........\n124 passed, 3 warnings in 80.02s (0:01:20)\n")
    assert clean.counts == {"passed": 124} and clean.failures == [] and clean.ok
    crashed = seed_sweep.parse_report("ImportError while loading conftest '/x/tests/conftest.py'.\n")
    assert crashed.counts == {} and not crashed.ok


def test_seed_ranges_and_unpinning():
    assert seed_sweep.parse_seeds("3") == [3]
    assert seed_sweep.parse_seeds("1-4,9,11-12") == [1, 2, 3, 4, 9, 11, 12]
    with pytest.raises(ValueError):
        seed_sweep.parse_seeds("4-1")
    text, n = seed_sweep.unpin("@settings(derandomize=True, deadline=None)\nS = settings(derandomize = True)\n")
    assert n == 2 and "True" not in text and text.count("derandomize=False") == 2


def test_every_property_module_is_pinned_in_the_checkout():
    root = Path(__file__).resolve().parents[1]
    for module in seed_sweep.MODULES:
        assert seed_sweep.unpin((root / module).read_text(encoding="utf-8"))[1] > 0, module
