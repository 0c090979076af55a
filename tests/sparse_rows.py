"""Dense rows as a CsrRows batch, for tests that build model inputs by hand."""

import numpy as np

from mdap.numerics import CsrRows


def csr(dense: np.ndarray) -> CsrRows:
    """The non-zero entries of a dense (B, N) array, row by row."""
    rows, cols = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=dense.shape[0]))))
    return CsrRows(indptr, cols, dense[rows, cols], dense.shape[1])
