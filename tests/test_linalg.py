"""Linear solver contract: accuracy, failure modes, determinism."""

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from richardsfv import linalg
from richardsfv.benchmarks import build_dam
from richardsfv.continuation import ContinuationConfig, run_continuation
from richardsfv.discretization import Discretization
from richardsfv.linalg import (DIAG_PIVOT_THRESH, Ordering,
                               SingularMatrixError, _check_matrix, solve)
from richardsfv.solvers import SolverConfig


def lap1d(n):
    """1D Laplacian with Dirichlet ends (SPD tridiagonal)."""
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return sps.diags([off, main, off], [-1, 0, 1]).tocsr()


def test_identity():
    b = np.array([3.0, -1.0, 2.5])
    x, rep = solve(sps.identity(3, format="csr"), b)
    np.testing.assert_allclose(x, b, rtol=1e-14)
    assert rep.iterations == 0
    assert not rep.breakdown


def test_tridiagonal_matches_dense_oracle():
    A = lap1d(10)
    b = np.ones(10)
    expect = np.linalg.solve(A.toarray(), b)  # dense factorization oracle
    x, rep = solve(A, b)
    np.testing.assert_allclose(x, expect, atol=1e-10)
    assert rep.rel_residual <= 1e-10
    # a dense array is brought to CSR form and solved the same way
    assert np.array_equal(solve(A.toarray(), b)[0], x)


def test_zero_row_is_singular():
    A = sps.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    A.eliminate_zeros()
    with pytest.raises(SingularMatrixError):
        solve(A, np.ones(2))


def test_numerically_singular_dense():
    A = sps.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        solve(A, np.array([1.0, 1.0]))


def test_zero_rhs():
    x, rep = solve(lap1d(5), np.zeros(5))
    assert (x == 0).all()
    assert rep.rel_residual == 0.0


def test_large_system_matches_spsolve():
    # 2500 unknowns, larger than any system the benchmarks solve; the
    # one sparse LU path serves every size
    n = 2500
    A = lap1d(n)
    b = np.sin(np.arange(n) * 0.01)
    expect = sps.linalg.spsolve(A.tocsc(), b)
    x, rep = solve(A, b)
    assert rep.method == "splu"
    assert rep.iterations == 0
    assert not rep.breakdown
    assert rep.rel_residual <= 1e-11
    np.testing.assert_allclose(x, expect, atol=1e-6 * np.abs(expect).max())


def _neumann_lap1d(n):
    # zero row sums: the constant vector spans the null space
    A = lap1d(n).tolil()
    A[0, 0] = A[n - 1, n - 1] = 1.0
    return A.tocsr()


def _proportional_rows(n):
    A = lap1d(n).tolil()
    A[n // 2] = 0.1 * A[n // 2 - 1]
    return A.tocsr()


def _proportional_rows_shifted(n):
    # singular only to roundoff: the factorization completes, and the
    # residual gate refuses the solution
    A = _proportional_rows(n).tolil()
    A[n // 2, n // 2] += 1e-14
    return A.tocsr()


@pytest.mark.parametrize("make, message", [
    (_neumann_lap1d, "sparse LU failed"),
    (_proportional_rows, "sparse LU failed: Factor is exactly singular"),
    (_proportional_rows_shifted, "relative residual"),
])
def test_numerically_singular_large(make, message):
    n = 2500
    A = make(n)
    assert (np.diff(A.indptr) > 0).all()  # no empty row to catch early
    with pytest.raises(SingularMatrixError, match=message):
        solve(A, np.sin(np.arange(n) * 0.01) + 0.5)


class _OffsetLU:
    """Stands in for a SuperLU factor: returns the exact solution of a
    diagonal system moved so that the relative residual is rel."""

    def __init__(self, A, rel):
        self.d = A.diagonal()
        self.rel = rel
        self.nnz = len(self.d)

    def solve(self, b):
        x = b / self.d
        e = np.zeros_like(b)
        e[0] = self.rel * np.linalg.norm(b) / self.d[0]
        return x + e


def test_reported_success_is_true_residual(monkeypatch):
    # the recomputed residual alone decides: accepted iff finite and
    # below 1e-6, and the report carries that recomputed value
    n = 50
    A = sps.diags(np.linspace(1.0, 3.0, n)).tocsr()
    b = np.random.default_rng(0).standard_normal(n)
    order = Ordering(A.indptr, A.indices)  # before splu is replaced
    for rel, accepted in ((1e-7, True), (9.9e-7, True), (1.01e-6, False),
                          (1e-3, False), (np.inf, False), (np.nan, False)):
        monkeypatch.setattr(spla, "splu",
                            lambda M, rel=rel, **kw: _OffsetLU(M, rel))
        if not accepted:
            with pytest.raises(SingularMatrixError,
                               match="relative residual"):
                solve(A, b, order)
            continue
        x, rep = solve(A, b, order)
        true = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
        assert rep.rel_residual == true
        assert rep.rel_residual == pytest.approx(rel, rel=1e-6)


def test_determinism():
    n = 2500
    A = lap1d(n)
    b = np.cos(np.arange(n) * 0.02)
    x1, _ = solve(A, b)
    x2, _ = solve(A, b)
    assert np.array_equal(x1, x2)


def test_shape_mismatch():
    with pytest.raises(ValueError):
        solve(lap1d(3), np.ones(4))
    with pytest.raises(ValueError):
        solve(sps.csr_matrix(np.ones((2, 3))), np.ones(2))


def _random_pattern_values(A, seed):
    """A copy of A (diagonally dominant) with fresh values."""
    M = A.copy()
    rng = np.random.default_rng(seed)
    M.data = rng.uniform(-1.0, 1.0, M.nnz)
    M.setdiag(3.0 + np.abs(M).sum(axis=1).A1)
    return M


def _grid_matrix(seed):
    # 2D five-point pattern over a 12 x 12 grid, rows shuffled
    n1 = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(12, 12))
    A = sps.kronsum(n1, n1).tocsr()
    p = np.random.default_rng(seed).permutation(A.shape[0])
    return _random_pattern_values(A[p][:, p].tocsr(), seed)


def test_ordering_depends_only_on_pattern():
    A = _grid_matrix(1)
    B = _random_pattern_values(A, 2)
    assert not np.array_equal(A.data, B.data)
    pa, pb = (Ordering(M.indptr, M.indices).p for M in (A, B))
    assert np.array_equal(pa, pb)
    assert np.array_equal(np.sort(pa), np.arange(A.shape[0]))


def test_ordering_is_the_full_factorization_order():
    # the incomplete factorization behind Ordering fixes the column
    # order a complete LU of the same stand-in would use
    A = _grid_matrix(7)
    standin = sps.csr_matrix((-np.ones(A.nnz), A.indices, A.indptr)) + \
        sps.diags(np.diff(A.indptr) + 1.0)
    lu = spla.splu(standin.tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert np.array_equal(Ordering(A.indptr, A.indices).p,
                          np.argsort(lu.perm_c))


@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
@pytest.mark.parametrize("mesh", ["400", "1900"])
def test_ordering_is_the_default_spilu_order_on_dam_patterns(mesh, scheme):
    # Ordering's spilu runs with RELAX and PANEL_SIZE, which are
    # performance parameters only: the order is the one scipy's
    # defaults give
    o = Discretization(build_dam("vgm", mesh), scheme).order
    standin = sps.csr_matrix((-np.ones(len(o.indices)), o.indices,
                              o.indptr), shape=o.shape) + \
        sps.diags(np.diff(o.indptr) + 1.0)
    ilu = spla.spilu(standin.tocsc(), drop_tol=1.0, fill_factor=1,
                     permc_spec="MMD_AT_PLUS_A")
    assert np.array_equal(o.p, np.argsort(ilu.perm_c))


def test_solve_with_ordering_equals_solve_without():
    A = _grid_matrix(3)
    b = np.random.default_rng(4).standard_normal(A.shape[0])
    x1, rep1 = solve(A, b)
    x2, rep2 = solve(A, b, Ordering(A.indptr, A.indices))
    assert np.array_equal(x1, x2)
    assert rep1 == rep2
    expect = spla.spsolve(A.tocsc(), b)
    assert np.abs(x1 - expect).max() <= 1e-12 * np.abs(expect).max()


def test_ordering_for_another_pattern_is_refused():
    A = _grid_matrix(5)
    b = np.ones(A.shape[0])
    other = lap1d(A.shape[0])  # same shape, fewer entries
    with pytest.raises(ValueError, match=f"with {A.nnz}$"):
        solve(A, b, Ordering(other.indptr, other.indices))
    small = lap1d(10)
    with pytest.raises(ValueError, match="a 10x10 pattern"):
        solve(A, b, Ordering(small.indptr, small.indices))
    # same shape and entry count, other places
    moved = sps.csr_matrix((A.data, (A.indices + 1) % A.shape[0], A.indptr))
    moved.sort_indices()
    with pytest.raises(ValueError, match="ordering was built"):
        solve(A, b, Ordering(moved.indptr, moved.indices))


def test_duplicate_entries_are_summed():
    A = _grid_matrix(8)
    b = np.ones(A.shape[0])
    # each row lists its entries at half value, then again reversed
    coo = A.tocoo()
    row = np.r_[coo.row, coo.row[::-1]]
    by_row = np.argsort(row, kind="stable")
    dup = sps.csr_matrix(
        (np.r_[coo.data, coo.data[::-1]][by_row] / 2,
         np.r_[coo.col, coo.col[::-1]][by_row], 2 * A.indptr),
        shape=A.shape)
    assert not dup.has_canonical_format
    x, _ = solve(A, b)
    xd, _ = solve(dup, b)
    np.testing.assert_allclose(xd, x, rtol=1e-12)


def test_lu_nnz_is_the_factor_fill():
    A = _grid_matrix(6)
    b = np.ones(A.shape[0])
    order = Ordering(A.indptr, A.indices)
    _, rep = solve(A, b, order)
    PAPt = A[order.p][:, order.p].tocsc()
    lu = spla.splu(PAPt, permc_spec="NATURAL")
    assert rep.lu_nnz == lu.L.nnz + lu.U.nnz
    assert rep.lu_nnz > A.nnz  # the five-point pattern fills in
    _, rep0 = solve(A, np.zeros(A.shape[0]))
    assert rep0.lu_nnz == 0


@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
def test_lu_nnz_is_the_fill_of_a_dam_jacobian(scheme):
    # SuperLU's default relaxed supernodes store explicit zeros, which
    # its own count includes; without them it is the fill of L and U
    disc = Discretization(build_dam("vgm", "triangular:16x16"), scheme)
    h = np.linspace(2.0, 10.0, disc.n_cells)
    J, F = disc.assemble_jacobian(h, 0.7, "power", with_residual=True)
    _, rep = solve(J, -F, disc.order)
    o = disc.order
    lu = spla.splu(sps.csc_matrix((J.data[o.gather], o.csc_indices,
                                   o.csc_indptr), shape=J.shape),
                   permc_spec="NATURAL", diag_pivot_thresh=DIAG_PIVOT_THRESH)
    assert rep.lu_nnz == lu.L.nnz + lu.U.nnz
    assert lu.nnz > rep.lu_nnz  # the default options pad


def test_a_dam_run_factors_one_fill(monkeypatch):
    # on diagonal pivots every factorization of the one pattern stores
    # the same entries; at SuperLU's default threshold all nine LUs of
    # this run pivot off the diagonal and store seven different counts
    disc = Discretization(build_dam("vgm", "1900"), "mpfa-o")
    fills = []

    def spy(A, b, order=None):
        x, rep = solve(A, b, order)
        fills.append(rep.lu_nnz)
        return x, rep

    monkeypatch.setattr(linalg, "solve", spy)
    _, rep = run_continuation(disc, SolverConfig(method="newton"),
                              ContinuationConfig(kind="power"))
    assert rep.success and len(fills) == rep.total_iterations == 9
    assert len(set(fills)) == 1


@pytest.mark.parametrize("scheme", ["tpfa", "mpfa-o"])
def test_assembled_matrices_pass_the_checks_as_they_are(scheme):
    # every solve checks its matrix; on the matrices a Discretization
    # assembles the checks copy nothing and the pattern comparison is
    # an identity test, so the one path stays cheap
    disc = Discretization(build_dam("vgm", "triangular:8x8"), scheme)
    h = np.linspace(2.0, 10.0, disc.n_cells)
    b = np.ones(disc.n_cells)
    order = disc.order
    for M in (disc.assemble(h, 0.7, "power").A,
              disc.assemble_jacobian(h, 0.7, "power")):
        checked, _ = _check_matrix(M, b)
        assert checked is M
        assert M.indptr is order.indptr and M.indices is order.indices
        assert order.matches(M)


# -- solves through an Ordering's own P A P^T --------------------------

def test_empty_row_through_an_ordering():
    A = sps.csr_matrix(np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                                 [0.0, 1.0, 3.0]]))
    A.eliminate_zeros()
    order = Ordering(A.indptr, A.indices)
    for o in (None, order):
        with pytest.raises(SingularMatrixError,
                           match=r"^matrix row 1 is empty$"):
            solve(A, np.ones(3), o)


def test_csc_arrays_of_the_pattern_are_another_pattern():
    # A^T in CSC has exactly the CSR arrays of A; it must be read as the
    # matrix it is, whose pattern is not A's
    A = _grid_matrix(9)
    A = sps.csr_matrix(sps.triu(A, format="csr") + sps.eye(A.shape[0]))
    order = Ordering(A.indptr, A.indices)
    At = A.T.tocsc()
    assert np.array_equal(At.indptr, A.indptr)
    assert np.array_equal(At.indices, A.indices)
    with pytest.raises(ValueError, match="ordering was built"):
        solve(At, np.ones(A.shape[0]), order)


def test_non_canonical_matrix_solves_through_an_ordering():
    A = _grid_matrix(10)
    b = np.cos(np.arange(A.shape[0]))
    order = Ordering(A.indptr, A.indices)
    x, _ = solve(A, b, order)
    # every row's entries reversed: unsorted indices, the same matrix
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    by_row = np.lexsort((-A.indices, rows))
    unsorted = sps.csr_matrix((A.data[by_row], A.indices[by_row],
                               A.indptr), shape=A.shape)
    assert not unsorted.has_canonical_format
    xu, _ = solve(unsorted, b, order)
    assert np.array_equal(xu, x)


def test_integer_matrix_solves_through_an_ordering():
    A = lap1d(6)
    Ai = sps.csr_matrix((A.data.astype(np.int64), A.indices, A.indptr),
                        shape=A.shape)
    order = Ordering(A.indptr, A.indices)
    b = np.arange(1.0, 7.0)
    assert np.array_equal(solve(Ai, b, order)[0], solve(A, b, order)[0])


def test_solves_on_one_ordering_leak_nothing():
    A1 = _grid_matrix(11)
    A2 = _random_pattern_values(A1, 12)
    data1, data2 = A1.data.copy(), A2.data.copy()
    b = np.sin(np.arange(A1.shape[0]) + 1.0)
    order = Ordering(A1.indptr, A1.indices)
    own = [solve(A, b)[0] for A in (A1, A2)]  # each its own Ordering
    for A, expect in ((A1, own[0]), (A2, own[1]), (A1, own[0])):
        x, rep = solve(A, b, order)
        assert np.array_equal(x, expect)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert np.array_equal(A1.data, data1) and np.array_equal(A2.data, data2)
    assert not np.array_equal(own[0], own[1])


def test_an_ordering_hands_out_new_matrices_and_keeps_no_buffer():
    A1 = _grid_matrix(13)
    A2 = _random_pattern_values(A1, 14)
    order = Ordering(A1.indptr, A1.indices)
    P1 = order.permuted(A1)
    data1 = P1.data.copy()
    P2 = order.permuted(A2)
    assert P2 is not P1 and np.array_equal(P1.data, data1)
    assert P1.indices is P2.indices is order.csc_indices
    assert P1.indptr is P2.indptr is order.csc_indptr
    d = np.arange(1.0, A1.nnz + 1)
    M = order.matrix(d)
    assert M.indptr is order.indptr and M.indices is order.indices
    assert np.array_equal(M.data, d) and order.matches(M)
    assert _check_matrix(M, np.ones(A1.shape[0]))[0] is M
    assert not (order.indptr.flags.writeable or
                order.csc_indices.flags.writeable)


def test_ordering_refuses_a_non_canonical_pattern():
    indptr = np.array([0, 2, 3])
    with pytest.raises(ValueError, match="sorted indices and no duplicates"):
        Ordering(indptr, np.array([1, 0, 1]))
    with pytest.raises(ValueError, match="sorted indices and no duplicates"):
        Ordering(indptr, np.array([0, 0, 1]))
