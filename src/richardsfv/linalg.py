"""Sparse linear solves for the assembled systems.

Every system is factorized by sparse LU (SuperLU through
``scipy.sparse.linalg.splu``). The fill-reducing column ordering is not
recomputed per factorization: an Ordering holds one symmetric
permutation P for a sparsity pattern, found once by minimum degree on
the pattern of A^T + A, and solve factors P A P^T in its natural order.
A Discretization keeps one Ordering for the fixed pattern of all its
matrices; a solve given no Ordering builds one from A's own pattern.
Every solve takes one path: A is checked (square, no empty row) and
brought to canonical float CSR form, then compared with the Ordering's
pattern and permuted to P A P^T (see Ordering). A matrix a
Discretization assembles comes from its Ordering's matrix, already in
that form and on the Ordering's index arrays, so both steps leave it as
it is and compare nothing.
SuperLU factors without relaxed supernodes and with panels of one
column (RELAX, PANEL_SIZE): performance parameters only, which leave
the factors' nonzeros unchanged and store no padding zeros. The true
residual is recomputed after each solve, so a returned solution is one
whose residual was checked.
"""

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

__all__ = ["LinearSolveReport", "Ordering", "SingularMatrixError", "solve"]

# Largest accepted ||A x - b||_2 / ||b||_2; a solve that leaves more
# raises SingularMatrixError and the nonlinear step fails.
MAX_REL_RESIDUAL = 1e-6

# SuperLU's supernode relaxation and panel width. With its defaults it
# pads relaxed supernodes with explicit zeros: 202k stored entries for
# 159k nonzeros on a 1922-cell MPFA-O Jacobian. With these values the
# factors' nonzeros are the same, and one LU plus solve of the matrices
# the dam runs factor (min of 7, median over matrices; 2-core x86-64,
# scipy 1.17) took 0.88 -> 0.51 ms on 512 triangular cells (TPFA),
# 11.9 -> 8.6 ms on 1922 (MPFA-O), 21.6 -> 15.9 ms on 5476 (MPFA-O)
# and 157 -> 101 ms on 40 000 (TPFA). Ordering's incomplete
# factorization uses them too: the same perm_c on every dam pattern,
# 20% sooner (1.56 -> 1.26 ms on 1922 MPFA-O, 14.8 -> 11.8 ms on
# 40 000 TPFA).
RELAX = 1
PANEL_SIZE = 1

# SuperLU keeps a diagonal pivot down to this share of its column's largest
# entry, as the order P assumes (1.0: 12% more fill on MPFA-O dam 1900).
DIAG_PIVOT_THRESH = 0.01


class SingularMatrixError(RuntimeError):
    """Matrix is singular (or numerically so) for the requested solve."""


@dataclass
class LinearSolveReport:
    """Outcome of one successful linear solve.

    rel_residual is the true ||A x - b||_2 / ||b||_2 recomputed after
    the solve (0 when b = 0 and x = 0). method is "splu", or "trivial"
    for b = 0. A direct solve takes no iterations and a failed one
    raises, so iterations is 0 and breakdown is False. lu_nnz is the
    fill of the factors, SuperLU's count of their stored entries (0 for
    b = 0). Without relaxed supernodes these are the nonzeros of L and
    U, plus any explicit zeros that off-diagonal pivots leave in them.
    """

    iterations: int
    rel_residual: float
    breakdown: bool
    method: str
    lu_nnz: int = 0


class Ordering:
    """A fill-reducing symmetric permutation for one CSR sparsity
    pattern (indptr, indices: sorted, no duplicates).

    p is SuperLU's MMD_AT_PLUS_A column order, argsort(perm_c), of a
    stand-in matrix: the pattern plus the diagonal, with diagonally
    dominant values, so values of the matrices solved later play no
    part. perm_c is fixed before SuperLU factors, so an incomplete
    factorization that keeps almost nothing yields the same order as a
    full one at about a third of the cost. gather lays the data of any
    matrix of the pattern out as the CSC data of P A P^T, whose
    structure is csc_indices and csc_indptr.

    An Ordering keeps its own copy of the pattern in both layouts,
    read-only: CSR (indptr, indices) and the CSC structure of P A P^T.
    matrix and permuted hand out new matrices on them; nothing of an
    Ordering changes after it is built.
    """

    def __init__(self, indptr, indices):
        n = len(indptr) - 1
        self.shape = (n, n)
        nnz = len(indices)
        # entry numbers, from 1 so that no entry is an explicit zero
        A = self._csr = sps.csr_matrix(
            (np.arange(1, nnz + 1), np.array(indices), np.array(indptr)),
            shape=self.shape)
        if not A.has_canonical_format:
            raise ValueError(
                "an ordering needs a pattern with sorted indices and no "
                "duplicates")
        self.indptr, self.indices = A.indptr, A.indices
        standin = self.matrix(np.full(nnz, -1.0)) + \
            sps.diags(np.diff(self.indptr) + 1.0)
        self.p = np.argsort(spla.spilu(
            standin.tocsc(), drop_tol=1.0, fill_factor=1,
            permc_spec="MMD_AT_PLUS_A", relax=RELAX,
            panel_size=PANEL_SIZE).perm_c)
        del standin
        # entry numbers laid out as P A P^T in CSC are the gather map;
        # marked canonical here once, so that splu checks no copy again
        PAPt = self._csc = A[self.p].tocsc()[:, self.p]
        PAPt.sum_duplicates()
        PAPt.data -= 1
        # the two templates, which matrix and permuted copy, carry gather
        # as their data: nothing reads the entry numbers again
        self.gather = A.data = PAPt.data
        self.csc_indices, self.csc_indptr = PAPt.indices, PAPt.indptr
        for shared in (self.indptr, self.indices, PAPt.indices, PAPt.indptr):
            shared.flags.writeable = False

    def matches(self, A):
        """True when A is a CSR matrix with exactly this pattern."""
        return sps.issparse(A) and A.format == "csr" and \
            A.shape == self.shape and \
            _same(A.indptr, self.indptr) and _same(A.indices, self.indices)

    def matrix(self, data):
        """A new float CSR matrix of this pattern with entries data, on
        the Ordering's indptr and indices: a shallow copy, which scipy
        does not validate again."""
        A = copy.copy(self._csr)
        A.data = np.asarray(data, dtype=float)
        return A

    def permuted(self, A):
        """A new P A P^T in CSC form, for A a float CSR matrix of this
        pattern, on the Ordering's csc_indices and csc_indptr."""
        PAPt = copy.copy(self._csc)
        # every gather index is in range; mode="clip" skips the check
        PAPt.data = A.data.take(self.gather, mode="clip")
        return PAPt


def _same(a, b):
    return a is b or np.array_equal(a, b)


def _check_matrix(A, b):
    """A as a canonical float CSR matrix and b as a float vector, once
    A is known to be square without empty rows and b to fit it. A float
    CSR matrix in canonical format is returned as it is."""
    if not sps.issparse(A):
        A = sps.csr_matrix(np.asarray(A, dtype=float))
    A = A.tocsr()
    n, m2 = A.shape
    if n != m2:
        raise ValueError(f"matrix must be square, got {n}x{m2}")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} != ({n},)")
    empty = np.flatnonzero(np.diff(A.indptr) == 0)
    if len(empty):
        raise SingularMatrixError(f"matrix row {empty[0]} is empty")
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A.astype(float, copy=False), b


def solve(A, b, order=None):
    """Solve A x = b by sparse LU and check the true residual.

    Parameters
    ----------
    A : real scipy sparse matrix (or array-like convertible to one)
    b : vector
    order : Ordering of A's sparsity pattern, or None to build one from
        A (the same permutation either way). A is brought to canonical
        float CSR form; a matrix already in it is used as it is.

    Returns
    -------
    x, LinearSolveReport

    Raises
    ------
    ValueError
        When order was built for another pattern.
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
    if order is None:
        order = Ordering(A.indptr, A.indices)
    elif not order.matches(A):
        raise ValueError(
            f"ordering was built for a {order.shape[0]}x{order.shape[1]} "
            f"pattern with {len(order.indices)} entries, not for this "
            f"{A.shape[0]}x{A.shape[1]} matrix with {A.nnz}")
    try:
        lu = spla.splu(order.permuted(A), permc_spec="NATURAL",
                       diag_pivot_thresh=DIAG_PIVOT_THRESH,
                       relax=RELAX, panel_size=PANEL_SIZE)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from None
    x = np.empty_like(b)
    x[order.p] = lu.solve(b[order.p])
    res = float(np.linalg.norm(A @ x - b) / bnorm)
    if not res < MAX_REL_RESIDUAL:
        raise SingularMatrixError(
            f"sparse LU left relative residual {res:.3e}")
    return x, LinearSolveReport(0, res, False, "splu", lu.nnz)
