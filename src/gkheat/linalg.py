"""Dense direct solve, the brute-force oracle for the scheme's fast path.

Production steps solve the scheme's tridiagonal systems with a LAPACK
factor made once per run (see the scheme module); dense_solve is the
independent check those solves are tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularMatrix


def dense_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for a square 2-D array a (LAPACK, partial pivoting)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"dense_solve requires a square matrix, got {a.shape}")
    if b.size != a.shape[0]:
        raise DimensionMismatch(f"rhs has size {b.size}, matrix order {a.shape[0]}")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("solution contains non-finite entries")
    return x
