"""Infinite-support B-splines, a constrained quadratic-program solver, and volatility engines."""

import os as _os

# honor the worker cap before any numerical library spins up its pools.
# VOLSPLINE_THREADS caps the BLAS and OpenMP thread pools only.  It does not
# govern the helper thread with which slv.calibrate_leverage and
# slv.simulate_terminal each draw the next date's normals while the
# particles or paths march (slv._date_normals); each such thread lives for
# one call, and no output depends on the cap or on the helper.
_cap = _os.environ.get("VOLSPLINE_THREADS")
if _cap:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _cap)

from volspline.bspline import (
    BasisSpec,
    CompiledBasis,
    KnotVector,
    PiecewisePoly,
    Spline,
    SplineError,
    compile_basis,
    derivative_decomposition,
    design_matrix,
    eval_spline,
    gram_matrix,
    make_basis,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "CompiledBasis",
    "KnotVector",
    "PiecewisePoly",
    "Spline",
    "SplineError",
    "compile_basis",
    "derivative_decomposition",
    "design_matrix",
    "eval_spline",
    "gram_matrix",
    "make_basis",
    "__version__",
]
