"""Property-based tests for the LU pipeline on RWR system matrices."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.graph import column_normalized_adjacency, erdos_renyi_graph, rwr_system_matrix
from repro.lu import crout_lu, superlu_lu, triangular_inverses
from repro.lu.inverse import _level_sets, _LevelStore, lower_inverse_by_levels
from repro.ordering import RandomReordering
from repro.sparse import CSCMatrix
from repro.sparse.triangular import sparse_lower_inverse


@st.composite
def rwr_systems(draw):
    """A random (W, graph) pair in the class the paper factorises."""
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(3, 30))
    p = draw(st.floats(0.05, 0.4))
    c = draw(st.sampled_from([0.3, 0.5, 0.9, 0.95, 0.99]))
    graph = erdos_renyi_graph(n, p, seed=seed)
    a = column_normalized_adjacency(graph)
    return rwr_system_matrix(a, c), graph


class TestFactorisationProperties:
    @given(rwr_systems())
    def test_lu_reconstructs_w(self, system):
        w, _ = system
        ell, u = crout_lu(w)
        assert np.allclose((ell @ u).toarray(), w.toarray(), atol=1e-10)

    @given(rwr_systems())
    def test_backends_identical(self, system):
        w, _ = system
        l1, u1 = crout_lu(w)
        l2, u2 = superlu_lu(w)
        assert np.allclose(l1.toarray(), l2.toarray(), atol=1e-10)
        assert np.allclose(u1.toarray(), u2.toarray(), atol=1e-10)

    @given(rwr_systems())
    def test_triangular_structure(self, system):
        w, _ = system
        ell, u = crout_lu(w)
        assert np.allclose(np.triu(ell.toarray(), k=1), 0.0)
        assert np.allclose(np.tril(u.toarray(), k=-1), 0.0)
        assert np.allclose(np.diag(ell.toarray()), 1.0)

    @given(rwr_systems())
    def test_pivots_positive(self, system):
        # Strict column diagonal dominance forces positive pivots.
        w, _ = system
        _, u = crout_lu(w)
        assert np.all(np.diag(u.toarray()) > 0)


class TestInverseProperties:
    @given(rwr_systems())
    def test_inverse_product_solves_rwr(self, system):
        w, _ = system
        ell, u = crout_lu(w)
        l_inv, u_inv = triangular_inverses(ell, u)
        w_inv = u_inv.to_dense() @ l_inv.to_dense()
        assert np.allclose(w_inv @ w.toarray(), np.eye(w.shape[0]), atol=1e-8)

    @given(rwr_systems())
    def test_permutation_invariance_of_solution(self, system):
        # Reordering must never change the *solution*, only the fill.
        w, graph = system
        n = graph.n_nodes
        a = column_normalized_adjacency(graph)
        perm = RandomReordering(seed=1).compute(graph)
        permuted_a = perm.permute_matrix(a)
        # Recover c from W's diagonal structure: W = I - (1-c)A; on a
        # zero-diagonal A the diagonal of W is exactly 1.
        one_minus_c = None
        coo = a.tocoo()
        mask = coo.row != coo.col
        if mask.any():
            i = int(np.argmax(mask))
            one_minus_c = w.toarray()[coo.row[i], coo.col[i]] / -coo.data[i]
        if one_minus_c is None or one_minus_c <= 0:
            return  # edgeless draw: nothing to compare
        c = 1.0 - one_minus_c
        w_perm = rwr_system_matrix(permuted_a, c)
        x = np.linalg.solve(w.toarray(), np.eye(n)[0])
        x_perm = np.linalg.solve(w_perm.toarray(), np.eye(n)[int(perm.position[0])])
        assert np.allclose(x, perm.unpermute_vector(x_perm), atol=1e-9)


@st.composite
def lower_triangular(draw):
    """A sparse lower-triangular matrix with small-integer entries.

    Small integers make exact cancellation common, so the inverse has
    structural nonzeros that evaluate to exactly 0.0 and must be dropped
    the same way by both inverse routines.  ``scaled`` multiplies the
    entries by inexact factors so rounding order matters too.
    """
    n = draw(st.integers(1, 25))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.0, 0.6))
    scaled = draw(st.booleans())
    rng = np.random.default_rng(seed)
    values = rng.integers(-3, 4, size=(n, n)).astype(np.float64)
    if scaled:
        values *= rng.choice([0.1, 0.7, 1.0 / 3.0, 1.5], size=(n, n))
    mask = np.tril(rng.random((n, n)) < density, k=-1)
    diagonal = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=n)
    dense = np.where(mask, values, 0.0) + np.diag(diagonal)
    # Build from the pattern, so zero draws stay as stored structure.
    rows, cols = np.nonzero(mask | np.eye(n, dtype=bool))
    return sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=(n, n))


def chain(n: int, unit: bool) -> sp.csr_matrix:
    """Bidiagonal lower matrix: row r depends on r - 1, so levels = n."""
    sub = sp.diags([-1.5 * np.ones(n - 1)], [-1], shape=(n, n))
    return sp.csr_matrix(sub + sp.identity(n) * (1.0 if unit else 3.0))


def assert_bitwise_equal(got: CSCMatrix, ref: CSCMatrix) -> None:
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data.view(np.int64), ref.data.view(np.int64))


class TestLevelSetInverse:
    """The level-set inverse reproduces the reach-based reference bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(lower_triangular(), st.booleans())
    def test_bitwise_equal_to_reference(self, m, unit_diagonal):
        ref = sparse_lower_inverse(CSCMatrix.from_scipy(m), unit_diagonal=unit_diagonal)
        got = lower_inverse_by_levels(m, unit_diagonal=unit_diagonal)
        assert_bitwise_equal(got, ref)

    @pytest.mark.parametrize("unit_diagonal", [True, False])
    @pytest.mark.parametrize(
        "m",
        [
            sp.csr_matrix(np.array([[4.0]])),
            sp.csr_matrix(np.diag([2.0, -1.0, 3.0, 0.5])),
            chain(30, unit=True),
            chain(30, unit=False),
        ],
        ids=["n1", "diagonal", "unit_chain", "chain"],
    )
    def test_edge_shapes(self, m, unit_diagonal):
        ref = sparse_lower_inverse(CSCMatrix.from_scipy(m), unit_diagonal=unit_diagonal)
        assert_bitwise_equal(lower_inverse_by_levels(m, unit_diagonal), ref)

    def test_chain_has_one_level_per_row(self):
        m = chain(30, unit=True)
        strict = sp.csr_matrix(sp.tril(m, k=-1))
        _, level_ptr = _level_sets(strict.indptr.astype(np.int64), strict.indices.astype(np.int64))
        assert level_ptr.size - 1 == 30

    def test_int64_store_is_bitwise_equal(self, monkeypatch):
        # The 465-entry inverse outgrows a 50-entry int32 limit, so the
        # store switches its indices to int64 part-way through.
        monkeypatch.setattr(_LevelStore, "int32_limit", 50)
        m = chain(30, unit=False)
        ref = sparse_lower_inverse(CSCMatrix.from_scipy(m), unit_diagonal=False)
        got = lower_inverse_by_levels(m, unit_diagonal=False)
        assert got.nnz == 465
        assert_bitwise_equal(got, ref)
