"""Sparse linear solves for the assembled systems.

Every system is factorized by sparse LU (SuperLU through
``scipy.sparse.linalg.splu``). The true residual is recomputed after
each solve, so a returned solution is one whose residual was checked.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

__all__ = ["LinearSolveReport", "SingularMatrixError", "solve"]

# Largest accepted ||A x - b||_2 / ||b||_2; a solve that leaves more
# raises SingularMatrixError and the nonlinear step fails.
MAX_REL_RESIDUAL = 1e-6


class SingularMatrixError(RuntimeError):
    """Matrix is singular (or numerically so) for the requested solve."""


@dataclass
class LinearSolveReport:
    """Outcome of one successful linear solve.

    rel_residual is the true ||A x - b||_2 / ||b||_2 recomputed after
    the solve (0 when b = 0 and x = 0). method is "splu", or "trivial"
    for b = 0. A direct solve takes no iterations and a failed one
    raises, so iterations is 0 and breakdown is False.
    """

    iterations: int
    rel_residual: float
    breakdown: bool
    method: str


def _check_matrix(A, b):
    if not sps.issparse(A):
        A = sps.csr_matrix(np.asarray(A, dtype=float))
    A = A.tocsr()
    n, m2 = A.shape
    if n != m2:
        raise ValueError(f"matrix must be square, got {n}x{m2}")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} != ({n},)")
    empty_rows = np.diff(A.indptr) == 0
    if empty_rows.any():
        raise SingularMatrixError(
            f"matrix row {int(np.nonzero(empty_rows)[0][0])} is empty")
    return A, b


def solve(A, b):
    """Solve A x = b by sparse LU and check the true residual.

    Parameters
    ----------
    A : scipy sparse matrix (or array-like convertible to one)
    b : vector

    Returns
    -------
    x, LinearSolveReport

    Raises
    ------
    SingularMatrixError
        For structurally or numerically singular systems: an empty row,
        a failed factorization, or a relative residual that is not
        finite or not below MAX_REL_RESIDUAL.
    """
    A, b = _check_matrix(A, b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(A.shape[0]), LinearSolveReport(0, 0.0, False,
                                                       "trivial")
    try:
        x = spla.splu(A.tocsc()).solve(b)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from None
    res = float(np.linalg.norm(A @ x - b) / bnorm)
    if not res < MAX_REL_RESIDUAL:
        raise SingularMatrixError(
            f"sparse LU left relative residual {res:.3e}")
    return x, LinearSolveReport(0, res, False, "splu")
