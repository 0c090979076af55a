"""Dense 0/1 rows or per-row column lists as CsrRows, CsrRows back as
dense rows, and a dense model input as InputRows and back, for tests that
build or check model inputs or ranking inputs by hand."""

import numpy as np

from mdap.numerics import CsrRows, InputRows


def csr(dense: np.ndarray) -> CsrRows:
    """The pattern of a dense (B, N) array of zeros and ones, row by row.

    Any other value raises ValueError: a CsrRows holds no values, so a
    real-valued array would be binarized without a word."""
    if not np.isin(dense, (0.0, 1.0)).all():
        raise ValueError("csr() takes 0/1 rows only")
    rows, cols = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=dense.shape[0]))))
    return CsrRows(indptr, cols, dense.shape[1])


def csr_lists(lists, n_cols: int) -> CsrRows:
    """Per-row column lists as a CsrRows holding 1.0 at each listed column."""
    indptr = np.concatenate(([0], np.cumsum([len(cols) for cols in lists], dtype=np.int64)))
    indices = np.concatenate([np.zeros(0, dtype=np.int64)]
                             + [np.asarray(cols, dtype=np.int64) for cols in lists])
    return CsrRows(indptr, indices, n_cols)


def dense(rows: CsrRows, values: np.ndarray | None = None) -> np.ndarray:
    """Dense (n_rows, n_cols) array holding `values` (default 1.0) at the
    stored entries of `rows`, zero elsewhere."""
    out = np.zeros((rows.n_rows, rows.n_cols))
    np.put(out, rows.flat_index(), 1.0 if values is None else values)
    return out


def dense_input(x: np.ndarray) -> InputRows:
    """A dense (B, N) model input as InputRows on the dense path: x's
    nonzero entries are its entries, and x itself the GEMM operand."""
    rows, cols = np.nonzero(x)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=x.shape[0]))))
    return InputRows(indptr, cols, x[rows, cols], x.shape[1], x)


def dense_x(x: InputRows) -> np.ndarray:
    """x as a dense (n_rows, n_cols) array: the GEMM operand itself on the
    dense path, a fresh array on the per-row path."""
    if x.array is not None:
        return x.array
    return dense(CsrRows(x.indptr, x.indices, x.n_cols), x.values)
