"""Fixtures shared by several test modules."""

import dataclasses

import pytest

from volspline import opt


@pytest.fixture
def stall_solver(monkeypatch):
    """Call it to make every later solve report ``max_iter`` with
    residuals of 1e-9 while keeping the solver's point; it returns the
    pattern of the error a front end raises on such a solve."""
    solve = opt.solve_socp

    def stalled(prog, **kwargs):
        return dataclasses.replace(solve(prog, **kwargs), status="max_iter", kkt_residuals=(1e-9, 1e-9, 1e-9))

    def install():
        monkeypatch.setattr(opt, "solve_socp", stalled)
        return r"did not converge: max_iter after \d+ iterations \(primal residual 1\.000e-09, dual residual 1\.000e-09, gap 1\.000e-09\)"

    return install
