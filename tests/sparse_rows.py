"""Dense rows or per-row column lists as CsrRows, for tests that build
model inputs or ranking inputs by hand."""

import numpy as np

from mdap.numerics import CsrRows


def csr(dense: np.ndarray) -> CsrRows:
    """The non-zero entries of a dense (B, N) array, row by row."""
    rows, cols = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=dense.shape[0]))))
    return CsrRows(indptr, cols, dense[rows, cols], dense.shape[1])


def csr_lists(lists, n_cols: int) -> CsrRows:
    """Per-row column lists as a CsrRows holding 1.0 at each listed column."""
    indptr = np.concatenate(([0], np.cumsum([len(cols) for cols in lists], dtype=np.int64)))
    indices = np.concatenate([np.zeros(0, dtype=np.int64)]
                             + [np.asarray(cols, dtype=np.int64) for cols in lists])
    return CsrRows(indptr, indices, np.ones(len(indices)), n_cols)
