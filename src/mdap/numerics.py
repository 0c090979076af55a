"""Elementary numeric operations: deterministic RNG, matrix kernels,
stochastic layers and the Adam update.

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

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def row_l2_normalize(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm. All-zero rows pass through unchanged."""
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return m / safe


def row_l2_normalize_grad(original: np.ndarray, normalized: np.ndarray,
                          grad_out: np.ndarray) -> np.ndarray:
    """Backprop through row_l2_normalize.

    original is the input rows, normalized the forward output, grad_out
    the gradient wrt the output. Zero rows get zero gradient.
    """
    norms = np.linalg.norm(original, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    inner = np.sum(grad_out * normalized, axis=1, keepdims=True)
    grad = (grad_out - inner * normalized) / safe
    return np.where(norms > 0.0, grad, 0.0)


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


@dataclass
class DropoutMask:
    """Inverted-dropout mask: 0/1 pattern plus the 1/keep_prob scale."""

    keep_prob: float
    mask: np.ndarray
    scale: float

    def apply(self, m: np.ndarray) -> np.ndarray:
        return m * self.mask * self.scale


def sample_dropout_mask(rng: Rng, rows: int, cols: int, keep_prob: float) -> DropoutMask:
    if not 0.0 < keep_prob <= 1.0:
        raise ParameterError(f"keep_prob must be in (0, 1], got {keep_prob}")
    mask = (rng.uniform(rows, cols) < keep_prob).astype(np.float64)
    return DropoutMask(keep_prob=keep_prob, mask=mask, scale=1.0 / keep_prob)


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam update. Returns (param, m, v) as new arrays.

    t is the 1-based step count including this step.
    """
    if t < 1:
        raise ParameterError(f"step index must be >= 1, got {t}")
    if not (param.shape == grad.shape == m.shape == v.shape):
        raise ShapeError(
            f"adam_step shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"m {m.shape}, v {v.shape}")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v
