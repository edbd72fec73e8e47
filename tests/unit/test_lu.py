"""Unit tests for the LU kernels: Crout, SuperLU backend, inverses, solve."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import DecompositionError, InvalidParameterError, SparseMatrixError
from repro.graph import column_normalized_adjacency, rwr_system_matrix
from repro.lu import (
    crout_lu,
    fill_in_report,
    lu_solve_dense,
    nnz_of_factors,
    superlu_lu,
    triangular_inverses,
)
from repro.sparse import CSCMatrix, CSRMatrix
from repro.sparse.triangular import sparse_lower_inverse, sparse_upper_inverse


def assert_bitwise_equal(got, ref):
    """Same structure and the same float64 bits, entry by entry."""
    assert got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data.view(np.int64), ref.data.view(np.int64))


@pytest.fixture
def system_matrix(er_graph):
    a = column_normalized_adjacency(er_graph)
    return rwr_system_matrix(a, 0.95)


class TestCrout:
    def test_factors_reproduce_w(self, system_matrix):
        ell, u = crout_lu(system_matrix)
        assert np.allclose((ell @ u).toarray(), system_matrix.toarray())

    def test_l_unit_lower(self, system_matrix):
        ell, _ = crout_lu(system_matrix)
        dense = ell.toarray()
        assert np.allclose(np.diag(dense), 1.0)
        assert np.allclose(np.triu(dense, k=1), 0.0)

    def test_u_upper_nonzero_diag(self, system_matrix):
        _, u = crout_lu(system_matrix)
        dense = u.toarray()
        assert np.allclose(np.tril(dense, k=-1), 0.0)
        assert np.all(np.abs(np.diag(dense)) > 0)

    def test_matches_dense_lu(self):
        rng = np.random.default_rng(0)
        n = 12
        dense = np.eye(n) + 0.05 * rng.random((n, n))
        ell, u = crout_lu(sp.csc_matrix(dense))
        assert np.allclose((ell @ u).toarray(), dense)

    def test_zero_pivot_detected(self):
        singular = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(DecompositionError):
            crout_lu(singular)

    def test_non_square_rejected(self):
        with pytest.raises(SparseMatrixError):
            crout_lu(sp.csr_matrix((2, 3)))

    def test_negative_drop_tolerance_rejected(self, system_matrix):
        with pytest.raises(SparseMatrixError):
            crout_lu(system_matrix, drop_tolerance=-1.0)

    def test_drop_tolerance_sparsifies(self, system_matrix):
        exact_l, exact_u = crout_lu(system_matrix)
        loose_l, loose_u = crout_lu(system_matrix, drop_tolerance=1e-3)
        assert loose_l.nnz + loose_u.nnz <= exact_l.nnz + exact_u.nnz

    def test_identity_matrix(self):
        ell, u = crout_lu(sp.identity(5, format="csc"))
        assert np.allclose(ell.toarray(), np.eye(5))
        assert np.allclose(u.toarray(), np.eye(5))


class TestSuperLUBackend:
    def test_agrees_with_crout(self, system_matrix):
        l1, u1 = crout_lu(system_matrix)
        l2, u2 = superlu_lu(system_matrix)
        assert np.allclose(l1.toarray(), l2.toarray())
        assert np.allclose(u1.toarray(), u2.toarray())

    def test_factors_reproduce_w(self, system_matrix):
        ell, u = superlu_lu(system_matrix)
        assert np.allclose((ell @ u).toarray(), system_matrix.toarray())

    def test_singular_rejected(self):
        singular = sp.csc_matrix((3, 3))
        with pytest.raises(DecompositionError):
            superlu_lu(singular)

    def test_non_square_rejected(self):
        with pytest.raises(SparseMatrixError):
            superlu_lu(sp.csr_matrix((2, 3)))


class TestTriangularInverses:
    def test_inverse_product_is_w_inverse(self, system_matrix):
        ell, u = crout_lu(system_matrix)
        l_inv, u_inv = triangular_inverses(ell, u)
        w_inv = np.linalg.inv(system_matrix.toarray())
        assert np.allclose(u_inv.to_dense() @ l_inv.to_dense(), w_inv, atol=1e-8)

    def test_bitwise_equal_to_reach_reference(self, system_matrix):
        ell, u = crout_lu(system_matrix)
        l_inv, u_inv = triangular_inverses(ell, u)
        l_ref = sparse_lower_inverse(CSCMatrix.from_scipy(ell), unit_diagonal=True)
        u_ref = sparse_upper_inverse(CSCMatrix.from_scipy(u))
        assert_bitwise_equal(l_inv, l_ref)
        # U^-1 is returned row-wise; compare the same matrix in CSC.
        assert_bitwise_equal(CSCMatrix.from_scipy(u_inv.to_scipy()), u_ref)

    def test_formats(self, system_matrix):
        ell, u = crout_lu(system_matrix)
        l_inv, u_inv = triangular_inverses(ell, u)
        assert isinstance(l_inv, CSCMatrix)
        assert isinstance(u_inv, CSRMatrix)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            triangular_inverses(
                sp.identity(3, format="csc"), sp.identity(4, format="csc")
            )

    def test_empty_factors(self):
        empty = sp.csc_matrix((0, 0))
        l_inv, u_inv = triangular_inverses(empty, empty)
        assert l_inv.shape == u_inv.shape == (0, 0)
        assert l_inv.nnz == u_inv.nnz == 0


def _bad_factors(n: int, defect: str):
    """Bidiagonal unit ``L`` and upper ``U`` of size ``n`` with one defect:
    ``"none"``, a stored zero or a missing ``U`` diagonal entry, or an
    entry on the wrong side of the diagonal in ``L`` or ``U``."""
    rows = np.arange(1, n)
    mid = n // 2
    l_entries = [
        (np.arange(n), np.arange(n), np.ones(n)),
        (rows, rows - 1, -0.5 * np.ones(n - 1)),
    ]
    u_diag = 2.0 * np.ones(n)
    u_entries = [(rows - 1, rows, -0.5 * np.ones(n - 1))]
    if defect == "u_zero_diagonal":
        u_diag[mid] = 0.0  # still stored, as an explicit zero
    if defect != "u_missing_diagonal":
        u_entries.append((np.arange(n), np.arange(n), u_diag))
    else:
        keep = np.arange(n) != mid
        u_entries.append((np.arange(n)[keep], np.arange(n)[keep], u_diag[keep]))
    if defect == "l_above_diagonal":
        l_entries.append((np.array([0]), np.array([n - 1]), np.array([0.25])))
    if defect == "u_below_diagonal":
        u_entries.append((np.array([n - 1]), np.array([0]), np.array([0.25])))

    def build(entries):
        r, c, v = (np.concatenate(part) for part in zip(*entries))
        return sp.csc_matrix((v, (r, c)), shape=(n, n))

    return build(l_entries), build(u_entries)


class TestFactorErrors:
    """The same bad factor raises the same typed error at every size."""

    @pytest.mark.parametrize("n", [5, 500])
    @pytest.mark.parametrize("defect", ["u_zero_diagonal", "u_missing_diagonal"])
    def test_bad_diagonal_is_decomposition_error(self, n, defect):
        ell, u = _bad_factors(n, defect)
        with pytest.raises(DecompositionError, match="diagonal at column"):
            triangular_inverses(ell, u)

    @pytest.mark.parametrize("n", [5, 500])
    @pytest.mark.parametrize(
        "defect,message",
        [
            ("l_above_diagonal", "L is not lower triangular"),
            ("u_below_diagonal", "U is not upper triangular"),
        ],
    )
    def test_wrong_side_entry_is_sparse_matrix_error(self, n, defect, message):
        ell, u = _bad_factors(n, defect)
        with pytest.raises(SparseMatrixError, match=message):
            triangular_inverses(ell, u)

    @pytest.mark.parametrize("n", [5, 500])
    def test_well_formed_factors_invert(self, n):
        ell, u = _bad_factors(n, "none")
        l_inv, u_inv = triangular_inverses(ell, u)
        eye = np.eye(n)
        assert np.allclose(ell.toarray() @ l_inv.to_dense(), eye)
        assert np.allclose(u.toarray() @ u_inv.to_dense(), eye)


class TestDirectSolveTolerance:
    """The index built from the level-set inverses answers the linear system."""

    def test_scale_free_2000_matches_direct_solve(self):
        from repro.core import KDash
        from repro.graph import scale_free_digraph
        from repro.rwr.linear_solve import direct_solve_rwr

        graph = scale_free_digraph(2000, 8000, seed=5)
        index = KDash(graph, c=0.95).build()
        adjacency = column_normalized_adjacency(graph)
        for q in (0, 7, 1999):
            exact = direct_solve_rwr(adjacency, q, 0.95)
            assert np.max(np.abs(index.proximity_column(q) - exact)) < 1e-10


class TestSolve:
    def test_lu_solve_matches_direct(self, system_matrix, rng):
        ell, u = crout_lu(system_matrix)
        b = rng.random(system_matrix.shape[0])
        x = lu_solve_dense(ell, u, b)
        assert np.allclose(system_matrix @ x, b)


class TestFillIn:
    def test_nnz_counts(self, system_matrix):
        ell, u = crout_lu(system_matrix)
        nnz_l, nnz_u = nnz_of_factors(ell, u)
        assert nnz_l == (ell.toarray() != 0).sum()
        assert nnz_u == (u.toarray() != 0).sum()

    def test_report_ratios(self, system_matrix, er_graph):
        ell, u = crout_lu(system_matrix)
        l_inv, u_inv = triangular_inverses(ell, u)
        report = fill_in_report(er_graph.n_edges, ell, u, l_inv, u_inv)
        assert report.n_edges == er_graph.n_edges
        assert report.nnz_inverses == l_inv.nnz + u_inv.nnz
        assert report.inverse_ratio == pytest.approx(
            (l_inv.nnz + u_inv.nnz) / er_graph.n_edges
        )
        assert report.factor_fill_ratio > 0

    def test_zero_edges(self):
        eye = sp.identity(3, format="csc")
        ell, u = crout_lu(eye)
        l_inv, u_inv = triangular_inverses(ell, u)
        report = fill_in_report(0, ell, u, l_inv, u_inv)
        assert report.inverse_ratio == 0.0
        assert report.factor_fill_ratio == 0.0
