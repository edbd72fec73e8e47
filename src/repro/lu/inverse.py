"""Sparse triangular inverses ``L^-1`` and ``U^-1`` (Equations 4–5).

The K-dash index stores ``L^-1`` in CSC (query time slices *column* ``q``)
and ``U^-1`` in CSR (each proximity evaluation dots *row* ``u`` against a
dense workspace).  Both come from one routine,
:func:`lower_inverse_by_levels`, which builds the rows of ``X = M^-1``
for a lower-triangular ``M`` one *level set* at a time:

    X[r, :] = (e_r - sum_{k<r} M[r, k] * X[k, :]) / M[r, r]

Row ``r`` depends on the rows ``k`` with ``M[r, k]`` stored; its level is
one more than the deepest of those, so every row of a level depends only
on earlier levels, and the whole level is one scipy sparse product that
reads exactly its dependency rows.  Work is proportional to the products
the output needs, as in the paper, but runs in C instead of a per-column
Python loop.  ``L^-1`` inverts ``M = L`` with a unit diagonal (the stored
diagonal is ignored); ``U^-1 = ((U^T)^-1)^T``, and the CSC arrays of
``U`` already are the CSR arrays of ``U^T``.

The result is bitwise equal to the reach-based reference
:func:`repro.sparse.triangular.sparse_lower_inverse`: every entry sums
the same products in the same ascending-``k`` order, because scipy's
SpGEMM accumulates in the left operand's stored order.  Three rules keep
it so — each left-operand row stores its dependencies in ascending
``k``, rows are *divided* by the diagonal (never multiplied by its
reciprocal), and exact zeros are dropped after each level, as the
reference skips them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from ..exceptions import DecompositionError, InvalidParameterError, SparseMatrixError
from ..sparse import CSCMatrix, CSRMatrix


def triangular_inverses(
    ell: sp.csc_matrix, u: sp.csc_matrix
) -> Tuple[CSCMatrix, CSRMatrix]:
    """Invert the LU factors, keeping the inverses sparse.

    Parameters
    ----------
    ell:
        Unit lower triangular CSC factor ``L`` (diagonal stored or not;
        a stored diagonal is ignored).
    u:
        Upper triangular CSC factor ``U`` with nonzero diagonal.

    Returns
    -------
    (l_inv, u_inv):
        ``L^-1`` as :class:`~repro.sparse.csc.CSCMatrix` and ``U^-1`` as
        :class:`~repro.sparse.csr.CSRMatrix`, exact zeros dropped.

    Raises
    ------
    SparseMatrixError
        A factor has an entry on the wrong side of its diagonal.
    DecompositionError
        ``U`` has a zero or missing diagonal entry.
    """
    n = ell.shape[0]
    if ell.shape != (n, n) or u.shape != (n, n):
        raise InvalidParameterError(
            f"factor shapes disagree: L {ell.shape}, U {u.shape}"
        )
    try:
        l_inv = lower_inverse_by_levels(sp.csr_matrix(ell), unit_diagonal=True)
    except SparseMatrixError as exc:
        raise SparseMatrixError(f"L is not lower triangular: {exc}") from exc
    u = sp.csc_matrix(u)
    u_t = sp.csr_matrix((u.data, u.indices, u.indptr), shape=(n, n))
    try:
        x = lower_inverse_by_levels(u_t, unit_diagonal=False)
    except SparseMatrixError as exc:
        raise SparseMatrixError(f"U is not upper triangular: {exc}") from exc
    # The CSC arrays of (U^T)^-1 are the CSR arrays of U^-1.
    return l_inv, CSRMatrix((n, n), x.indptr, x.indices, x.data)


def lower_inverse_by_levels(m: sp.csr_matrix, unit_diagonal: bool = True) -> CSCMatrix:
    """Invert a sparse lower-triangular matrix by level sets.

    Parameters
    ----------
    m:
        Lower-triangular matrix (any scipy sparse format; CSR avoids a
        conversion).  Explicitly stored zeros are kept as structure.
    unit_diagonal:
        ``True`` takes the diagonal to be all ones and ignores stored
        diagonal entries (Doolittle ``L``).  ``False`` divides by the
        stored diagonal, which must be present and nonzero.

    Returns
    -------
    CSCMatrix
        ``M^-1`` with sorted row indices per column and exact zeros
        dropped — bitwise equal to
        :func:`repro.sparse.triangular.sparse_lower_inverse`.
    """
    m = sp.csr_matrix(m, dtype=np.float64)
    n = m.shape[0]
    if m.shape != (n, n):
        raise SparseMatrixError(f"matrix must be square, got shape {m.shape}")
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    cols = m.indices.astype(np.int64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr))
    above = cols > row_of
    if above.any():
        at = int(np.flatnonzero(above)[0])
        raise SparseMatrixError(
            f"entry ({row_of[at]}, {cols[at]}) lies above the diagonal"
        )
    on_diag = cols == row_of
    if unit_diagonal:
        diag = None
    else:
        diag = np.zeros(n, dtype=np.float64)
        has_diag = np.zeros(n, dtype=bool)
        diag[row_of[on_diag]] = m.data[on_diag]
        has_diag[row_of[on_diag]] = True
        if not has_diag.all():
            raise DecompositionError(
                f"missing diagonal at column {int(np.flatnonzero(~has_diag)[0])}"
            )
        if (diag == 0.0).any():
            raise DecompositionError(
                f"zero diagonal at column {int(np.flatnonzero(diag == 0.0)[0])}"
            )

    # The strictly lower part: row r's dependencies, ascending.
    strict = ~on_diag
    dep_cols = cols[strict]
    dep_vals = m.data[strict]
    dep_count = np.bincount(row_of[strict], minlength=n)
    dep_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(dep_count, out=dep_ptr[1:])

    order, level_ptr = _level_sets(dep_ptr, dep_cols)
    # X is kept in level order: store row i is row order[i], and column
    # labels are store rows too.  Every column of X[k, :] is k or one of
    # its ancestors, which finish at earlier levels, so the rows stored
    # before a level span only the columns [0, rows stored).
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n, dtype=np.int64)
    # Each level's left operand is one contiguous slice of the
    # dependencies laid out in level order; every row keeps its entries in
    # ascending k, the order the product accumulates them in.
    lev_count = dep_count[order]
    lev_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lev_count, out=lev_ptr[1:])
    take = _ranges(dep_ptr[order], lev_count, lev_ptr)
    store = _LevelStore(n)
    lev_cols = pos[dep_cols[take]].astype(store.index_dtype)
    lev_vals = dep_vals[take]

    for level in range(len(level_ptr) - 1):
        lo, hi = int(level_ptr[level]), int(level_ptr[level + 1])
        rows = order[lo:hi]
        inv_diag = 1.0 if diag is None else 1.0 / diag[rows]
        a_lo, a_hi = int(lev_ptr[lo]), int(lev_ptr[hi])
        if a_lo == a_hi:  # level 0: X[r, :] = e_r / M[r, r]
            store.append(np.arange(rows.size + 1, dtype=np.int64), inv_diag)
            continue
        left = sp.csr_matrix(
            (
                lev_vals[a_lo:a_hi],
                lev_cols[a_lo:a_hi],
                (lev_ptr[lo : hi + 1] - a_lo).astype(store.index_dtype),
            ),
            shape=(rows.size, lo),
        )
        # The product reads only the store rows that ``left`` references.
        prod = left @ store.rows_before(lo)
        p_count = np.diff(prod.indptr)
        vals = -prod.data
        if diag is not None:
            vals = vals / np.repeat(diag[rows], p_count)
        out_cols = prod.indices
        keep = vals != 0.0  # e.g. a division that underflowed
        if not keep.all():
            entry_row = np.repeat(np.arange(rows.size), p_count)
            p_count = np.bincount(entry_row[keep], minlength=rows.size)
            vals = vals[keep]
            out_cols = out_cols[keep]
        # Each row's diagonal goes after its off-diagonal entries.
        row_ptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(p_count + 1, out=row_ptr[1:])
        store.append(row_ptr, inv_diag, out_cols, vals)
    x_csc = store.in_row_order(order, pos).tocsc()
    return CSCMatrix((n, n), x_csc.indptr, x_csc.indices, x_csc.data)


def _level_sets(dep_ptr: np.ndarray, dep_cols: np.ndarray):
    """Group rows by level: 0 without dependencies, else 1 + the deepest one.

    Returns ``(order, level_ptr)``: rows sorted by level (ascending row id
    within a level) and the CSR-style boundaries of each level in
    ``order``.
    """
    n = dep_ptr.size - 1
    level = np.zeros(n, dtype=np.int64)
    ptr = dep_ptr.tolist()
    for r in range(n):
        lo, hi = ptr[r], ptr[r + 1]
        if lo < hi:
            level[r] = level[dep_cols[lo:hi]].max() + 1
    order = np.argsort(level, kind="stable")
    n_levels = int(level.max()) + 1 if n else 0
    level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(np.bincount(level, minlength=n_levels), out=level_ptr[1:])
    return order, level_ptr


def _ranges(starts: np.ndarray, counts: np.ndarray, out_ptr: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` for each pair; ``out_ptr`` is the
    exclusive prefix sum of ``counts`` (length ``counts.size + 1``)."""
    total = int(out_ptr[-1])
    return np.arange(total, dtype=np.int64) + np.repeat(starts - out_ptr[:-1], counts)


class _LevelStore:
    """Append-only CSR of the finished rows of ``X``, in level order.

    Indices are int32 while the offsets fit, so scipy's sparse product
    uses the buffers as they are instead of converting them on every
    level; a store that outgrows ``int32_limit`` entries moves to int64.
    """

    int32_limit = np.iinfo(np.int32).max

    def __init__(self, n: int) -> None:
        self.n = n
        self.index_dtype = np.int32
        self.indptr = np.zeros(n + 1, dtype=self.index_dtype)
        self.cols = np.empty(max(16, 4 * n), dtype=self.index_dtype)
        self.vals = np.empty(self.cols.size, dtype=np.float64)
        self.n_rows = 0

    def append(self, row_ptr, diag_vals, cols=None, vals=None) -> None:
        """Store the next ``row_ptr.size - 1`` rows: the off-diagonal
        ``cols``/``vals`` of each first, then its diagonal entry."""
        size = int(self.indptr[self.n_rows])
        end = size + int(row_ptr[-1])
        if end > self.cols.size:
            cap = max(2 * self.cols.size, end)
            if self.index_dtype == np.int32 and cap > self.int32_limit:
                self.index_dtype = np.int64
                self.indptr = self.indptr.astype(np.int64)
            self.cols = _grow(self.cols[:size], cap, self.index_dtype)
            self.vals = _grow(self.vals[:size], cap, np.float64)
        out_cols = self.cols[size:end]
        out_vals = self.vals[size:end]
        last = row_ptr[1:] - 1
        if cols is not None:
            off = np.ones(end - size, dtype=bool)
            off[last] = False
            out_cols[off] = cols
            out_vals[off] = vals
        n_new = row_ptr.size - 1
        out_cols[last] = np.arange(self.n_rows, self.n_rows + n_new)
        out_vals[last] = diag_vals
        self.indptr[self.n_rows + 1 : self.n_rows + n_new + 1] = size + row_ptr[1:]
        self.n_rows += n_new

    def rows_before(self, stop: int) -> sp.csr_matrix:
        """The first ``stop`` store rows as a square CSR view."""
        size = int(self.indptr[stop])
        return sp.csr_matrix(
            (self.vals[:size], self.cols[:size], self.indptr[: stop + 1]),
            shape=(stop, stop),
        )

    def in_row_order(self, order: np.ndarray, pos: np.ndarray) -> sp.csr_matrix:
        """All of ``X`` in original labels (columns unsorted in a row)."""
        starts = self.indptr[pos].astype(np.int64)
        counts = self.indptr[pos + 1] - starts
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        take = _ranges(starts, counts, ptr)
        return sp.csr_matrix(
            (self.vals[take], order[self.cols[take]], ptr), shape=(self.n, self.n)
        )


def _grow(arr: np.ndarray, cap: int, dtype) -> np.ndarray:
    out = np.empty(cap, dtype=dtype)
    out[: arr.size] = arr
    return out
