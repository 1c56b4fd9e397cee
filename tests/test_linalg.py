"""Linear solver contract: accuracy, failure modes, determinism."""

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from richardsfv.linalg import SingularMatrixError, solve


def lap1d(n):
    """1D Laplacian with Dirichlet ends (SPD tridiagonal)."""
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return sps.diags([off, main, off], [-1, 0, 1]).tocsr()


def test_identity():
    b = np.array([3.0, -1.0, 2.5])
    x, rep = solve(sps.identity(3, format="csr"), b)
    np.testing.assert_allclose(x, b, rtol=1e-14)
    assert rep.iterations <= 1
    assert not rep.breakdown


def test_tridiagonal_matches_dense_oracle():
    A = lap1d(10)
    b = np.ones(10)
    expect = np.linalg.solve(A.toarray(), b)  # dense factorization oracle
    x, rep = solve(A, b)
    np.testing.assert_allclose(x, expect, atol=1e-10)
    assert rep.rel_residual <= 1e-10


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


def test_krylov_path_against_direct_oracle():
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


@pytest.mark.parametrize("make, message", [
    (_neumann_lap1d, "sparse LU failed"),
    (_proportional_rows, "relative residual"),
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
    for rel, accepted in ((1e-7, True), (9.9e-7, True), (1.01e-6, False),
                          (1e-3, False), (np.inf, False), (np.nan, False)):
        monkeypatch.setattr(spla, "splu",
                            lambda M, rel=rel: _OffsetLU(M, rel))
        if not accepted:
            with pytest.raises(SingularMatrixError,
                               match="relative residual"):
                solve(A, b)
            continue
        x, rep = solve(A, b)
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
