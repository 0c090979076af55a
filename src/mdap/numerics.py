"""Elementary numeric operations: deterministic RNG, matrix kernels,
sparse row batches, stochastic layers and the Adam update.

Everything works on float64 numpy arrays in C (row major) order. The
stochastic pieces draw from an explicit Rng so that a run is fully
reproducible from its seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError

# Uniform draws are clamped into this closed interval so that log() and
# log(-log()) stay finite no matter what the generator returns.
UNIFORM_EPS = 1e-12

# Elements adam_step updates per pass: 256 KiB of float64 per array, so a
# chunk of param, grad, m, v and two temporaries fits in a 2 MiB cache.
ADAM_CHUNK = 32768


class Rng:
    """Seeded random stream with deterministic derived sub-streams.

    Wraps PCG64. Sub-streams created with derive() depend only on the
    root seed and the key path, never on how many draws the parent has
    consumed, so components can be reordered without changing each
    other's randomness.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        if seed < 0:
            raise ParameterError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def derive(self, *key: int) -> "Rng":
        """Independent stream addressed by seed + key path."""
        return Rng(self.seed, self.key + key)

    def uniform(self, rows: int, cols: int) -> np.ndarray:
        """(rows, cols) uniforms strictly inside (0, 1), filled row major."""
        u = self._gen.random((rows, cols))
        return np.clip(u, UNIFORM_EPS, 1.0 - UNIFORM_EPS)

    def uniform_entries(self, rows: int, cols: int, entries: np.ndarray) -> np.ndarray:
        """uniform(rows, cols) read at the flat row-major positions `entries`.

        The whole block is drawn, so the stream advances exactly as it
        does for uniform(rows, cols); only the entries read are clamped.
        """
        u = self._gen.random((rows, cols)).reshape(-1)[entries]
        return np.clip(u, UNIFORM_EPS, 1.0 - UNIFORM_EPS)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


@dataclass(frozen=True)
class CsrRows:
    """The pattern of a batch of 0/1 rows in compressed sparse row form.

    Row r holds 1.0 at the columns indices[indptr[r]:indptr[r + 1]],
    strictly ascending within [0, n_cols); every other entry of the dense
    (n_rows, n_cols) array is zero.
    """

    indptr: np.ndarray
    indices: np.ndarray
    n_cols: int

    def __post_init__(self):
        if (self.indptr.ndim != 1 or len(self.indptr) < 1 or self.indptr[0] != 0
                or np.any(np.diff(self.indptr) < 0)):
            raise ShapeError("indptr must be a 1-d non-decreasing array starting at 0")
        if len(self.indices) != self.indptr[-1]:
            raise ShapeError(
                f"indptr ends at {self.indptr[-1]} but there are {len(self.indices)} indices")
        if len(self.indices) and not 0 <= self.indices.min() <= self.indices.max() < self.n_cols:
            raise ShapeError(f"column indices must lie in [0, {self.n_cols})")

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def flat_index(self) -> np.ndarray:
        """Row-major position of each stored entry in the dense array."""
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        return rows * self.n_cols + self.indices

    def take(self, rows: np.ndarray) -> "CsrRows":
        """The listed rows, in the order given, as a new CsrRows."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(counts)))
        pos = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        return CsrRows(indptr, self.indices[pos], self.n_cols)


def row_l2_normalize(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm. All-zero rows pass through unchanged."""
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return m / safe


def row_l2_normalize_grad(original: np.ndarray, normalized: np.ndarray,
                          grad_out: np.ndarray) -> np.ndarray:
    """Backprop through row_l2_normalize.

    original is the input rows, normalized the forward output, grad_out
    the gradient wrt the output. Zero rows get zero gradient. Computes
    (grad_out - inner * normalized) / norm in one work array.
    """
    norms = np.linalg.norm(original, axis=1, keepdims=True)
    positive = norms > 0.0
    grad = grad_out * normalized
    inner = np.sum(grad, axis=1, keepdims=True)
    np.multiply(inner, normalized, out=grad)
    np.subtract(grad_out, grad, out=grad)
    grad /= np.where(positive, norms, 1.0)
    grad[~positive[:, 0]] = 0.0
    return grad


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    """-log(-log(u)) applied elementwise."""
    return -np.log(-np.log(u))


def sample_gumbel(rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Standard Gumbel(0, 1) noise matrix drawn in row-major order."""
    return gumbel_from_uniform(rng.uniform(rows, cols))


def softmax_rows(logits: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Row-wise softmax of logits / tau with max subtraction for stability."""
    if tau <= 0.0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    shifted = (logits - logits.max(axis=1, keepdims=True)) / tau
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_grad(s: np.ndarray, grad_s: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Backprop through softmax_rows: gradient wrt the raw logits."""
    inner = np.sum(grad_s * s, axis=1, keepdims=True)
    return s * (grad_s - inner) / tau


def sample_dropout_mask(rng: Rng, rows: int, cols: int, keep_prob: float,
                        entries: np.ndarray) -> np.ndarray:
    """0/1 dropout mask over the flat row-major positions `entries` of a
    (rows, cols) matrix.

    One uniform is drawn per matrix entry, in row-major order, and an
    entry is kept (1.0) when its draw is < keep_prob: the mask is the
    dense mask read at `entries`, and the stream advances by rows * cols
    draws. The caller applies it as values * mask * (1 / keep_prob).
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ParameterError(f"keep_prob must be in (0, 1], got {keep_prob}")
    return (rng.uniform_entries(rows, cols, entries) < keep_prob).astype(np.float64)


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam update, made in place on param, m and v.

    Returns (param, m, v), the arrays passed in. t is the 1-based step
    count including this step. Each operation is the one the textbook
    formula performs, in its order, so the result is bit for bit that of
    the out-of-place expression. The arrays are updated ADAM_CHUNK
    elements at a time (whole leading-axis rows), so that the dozen
    elementwise passes run over a chunk that stays in cache.
    """
    if t < 1:
        raise ParameterError(f"step index must be >= 1, got {t}")
    if not (param.shape == grad.shape == m.shape == v.shape):
        raise ShapeError(
            f"adam_step shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"m {m.shape}, v {v.shape}")
    m_scale, v_scale = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    arrays = np.atleast_1d(param, grad, m, v)  # views, so a 0-d param updates too
    n = len(arrays[0])
    rows = max(1, ADAM_CHUNK * n // max(param.size, 1))
    term = np.empty_like(arrays[0][:rows])
    denom = np.empty_like(term)
    for start in range(0, n, rows):
        p, g, mc, vc = (a[start:start + rows] for a in arrays)
        tc, dc = term[:len(p)], denom[:len(p)]
        # m = beta1 * m + (1 - beta1) * grad
        np.multiply(g, 1.0 - beta1, out=tc)
        mc *= beta1
        mc += tc
        # v = beta2 * v + (1 - beta2) * grad * grad
        np.multiply(g, 1.0 - beta2, out=tc)
        tc *= g
        vc *= beta2
        vc += tc
        # param -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(vc, v_scale, out=dc)
        np.sqrt(dc, out=dc)
        dc += eps
        np.divide(mc, m_scale, out=tc)
        tc *= lr
        tc /= dc
        p -= tc
    return param, m, v
