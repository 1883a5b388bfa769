"""Fixtures shared by several test modules."""

import dataclasses

import pytest

from volspline import opt


@pytest.fixture
def stall_solver(monkeypatch):
    """Call it to make every later cone solve report ``max_iter`` with
    residuals of 1e-9 while keeping the solver's point."""
    solve = opt.solve_socp

    def stalled(prog, **kwargs):
        return dataclasses.replace(solve(prog, **kwargs), status="max_iter", kkt_residuals=(1e-9, 1e-9, 1e-9))

    return lambda: monkeypatch.setattr(opt, "solve_socp", stalled)
