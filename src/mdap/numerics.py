"""Elementary numeric operations: deterministic RNG, matrix kernels,
sparse row batches, stochastic layers and the Adam update.

Everything works on float64 numpy arrays in C (row major) order. The
stochastic pieces draw from an explicit Rng so that a run is fully
reproducible from its seed.

Rng and CsrRows check what their constructors (and CsrRows.take) are
given; the other helpers here assume checked inputs.

The hot paths take their large arrays from buffer(). Inside a
reuse_buffers() scope a name keeps its memory from one block or step to
the next, so the working set is faulted in once per scope instead of
once per call; outside a scope buffer() is np.empty.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError

# Uniform draws are clamped into this closed interval so that log() and
# log(-log()) stay finite no matter what the generator returns.
UNIFORM_EPS = 1e-12

# Elements adam_step updates per pass: 256 KiB of float64 per array, so a
# chunk of param, grad, m, v and two temporaries fits in a 2 MiB cache.
ADAM_CHUNK = 32768

# Adam's decay rates and denominator guard, at the values of Kingma & Ba.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


# numpy's PCG64 (O'Neill 2014) steps its 128-bit state s to s * PCG_MULT +
# inc mod 2**128 a draw and outputs the XSL-RR hash of the new state, and
# Generator.random makes one double of each output, (output >> 11) * 2**-53.
# So the state n draws on is an affine map of s (Brown 1994), composed from
# a table per JUMP_BITS-bit digit of n. test_numerics checks it against numpy.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
JUMP_BITS = 11

# A jumped uniform costs about JUMP_COST dense ones, plus 2**JUMP_BITS a block
# for its lowest digit's states. Measured with numpy 2.4.6 on a 2-CPU x86-64
# host: ~3.1 ns a cell drawn densely; 50-65 ns an entry jumped in 256 x 8000
# blocks, ~38 in 256 x 2000. They cross at 6-9 % density in those blocks.
JUMP_COST = 15


def _affine(maps, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * s + c mod 2**128 for maps (a_hi, c_hi, a_lo, c_lo) and s = (hi, lo),
    as uint64 halves. Array products wrap: only a_lo * lo needs its high half."""
    a_hi, c_hi, a_lo, c_lo = maps
    m32, s32 = np.uint64(2**32 - 1), np.uint64(32)
    a1, a0, b1, b0 = a_lo >> s32, a_lo & m32, lo >> s32, lo & m32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> s32) + (p01 & m32) + (p10 & m32)
    hi = a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32) + a_hi * lo + a_lo * hi
    lo = a_lo * lo + c_lo
    return hi + c_hi + (lo < c_lo), lo  # with the carry out of the low half


# The buffer() name of a short-lived work array (the dropout uniforms, the
# squared residuals in the loss, tanh's derivative in backward): each is
# dead before the next one is drawn, so all of them share one array.
SCRATCH = "scratch"

# The innermost open reuse_buffers() scope: name -> flat array. A context
# variable, so each thread (and each asyncio task) sees its own scopes.
_SCOPE: ContextVar[dict | None] = ContextVar("mdap_buffer_scope", default=None)


@contextmanager
def reuse_buffers():
    """Scope in which buffer() hands out the same memory for the same name.

    Every array drawn inside the scope is released when it exits, on
    success or on an exception, unless a caller still holds it. A nested
    scope starts an empty pool of its own, so code inside it cannot
    overwrite an array the enclosing scope handed out; the enclosing
    scope's arrays stay alive and are reused again once the inner scope
    exits.
    """
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def buffer(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An uninitialized C-order array of the given shape, for the caller to
    overwrite in full.

    Outside a reuse_buffers() scope it is np.empty(shape, dtype). Inside
    one, it is a view of the scope's array for `name`, which grows to the
    largest size requested so far: a smaller request, such as a short
    tail block, gets the leading elements of the same memory. Whatever
    the previous holder of `name` wrote is still there, so two arrays
    that must coexist need two names.
    """
    pool = _SCOPE.get()
    if pool is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    flat = pool.get(name)
    if flat is None or flat.dtype != dtype or flat.size < size:
        flat = pool[name] = np.empty(size, dtype)
    return flat[:size].reshape(shape)


class Rng:
    """Seeded random stream with deterministic derived sub-streams.

    Wraps PCG64. Sub-streams created with derive() depend only on the
    root seed and the key path, never on how many draws the parent has
    consumed, so components can be reordered without changing each
    other's randomness.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = check_int("seed", seed, low=0)
        self.key = tuple(check_int("key", k, 0) for k in key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self._jumps = []  # _jump_tables(), built as first needed

    def derive(self, *key: int) -> "Rng":
        """Independent stream addressed by seed + key path."""
        return Rng(self.seed, self.key + key)

    def uniform(self, rows: int, cols: int) -> np.ndarray:
        """(rows, cols) uniforms strictly inside (0, 1), filled row major."""
        u = self._gen.random((rows, cols))
        return np.clip(u, UNIFORM_EPS, 1.0 - UNIFORM_EPS)

    def uniform_entries(self, rows: int, cols: int, entries: np.ndarray) -> np.ndarray:
        """uniform(rows, cols) read at the flat row-major positions `entries`.

        The stream advances exactly as for uniform(rows, cols); only the
        entries read are clamped. A block sparse enough (see JUMP_COST) is
        not drawn: the same bits are computed from the state each draw read
        steps to, and the state is set to where the block would leave it.
        """
        size = int(rows) * int(cols)
        if (len(entries) + 2**JUMP_BITS) * JUMP_COST >= size:
            u = self._gen.random(out=buffer(SCRATCH, (size,)))[entries]
            return np.clip(u, UNIFORM_EPS, 1.0 - UNIFORM_EPS)
        state = self._gen.bit_generator.state
        # draw p steps the state p + 1 times, and the block size times
        steps = np.append(np.asarray(entries, np.int64) + 1, size)
        # the states 0 .. 2**JUMP_BITS - 1 draws on, read at each low digit
        tables, low = self._jump_tables(-(-size.bit_length() // JUMP_BITS)), 2**JUMP_BITS - 1
        hi, lo = _affine(tables[0], *map(np.uint64, divmod(state["state"]["state"], 2**64)))
        hi, lo = hi.take(steps & low), lo.take(steps & low)
        for level, table in enumerate(tables[1:], 1):
            hi, lo = _affine(table.take(steps >> JUMP_BITS * level & low, axis=1), hi, lo)
        # set, not advance()d, so that a uint32 permutation() left buffered stays
        state["state"]["state"] = int(hi[-1]) << 64 | int(lo[-1])
        self._gen.bit_generator.state = state
        x, rot = hi[:-1] ^ lo[:-1], hi[:-1] >> np.uint64(58)  # XSL-RR
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        return np.clip((x >> np.uint64(11)) * 2.0**-53, UNIFORM_EPS, 1.0 - UNIFORM_EPS)

    def _jump_tables(self, levels: int) -> list[np.ndarray]:
        """Column d < 2**JUMP_BITS of table l: the uint64 halves a_hi, c_hi, a_lo,
        c_lo of the map s -> a * s + c mod 2**128 of d * 2**(JUMP_BITS * l) steps."""
        if len(self._jumps) < levels:
            self._jumps, (a, c) = [], (PCG_MULT, self._gen.bit_generator.state["state"]["inc"])
            for _ in range(levels):
                # rows a and c of map 0, the identity; maps m..2m-1 are maps
                # 0..m-1, then the map (A, C) of m steps: (A a, A c + C)
                hi, lo = np.zeros((2, 1), np.uint64), np.array([[1], [0]], np.uint64)
                for _ in range(JUMP_BITS):
                    (a_hi, a_lo), (c_hi, c_lo) = divmod(a, 2**64), divmod(c, 2**64)
                    more = _affine((np.uint64(a_hi), np.array([[0], [c_hi]], np.uint64),
                                    np.uint64(a_lo), np.array([[0], [c_lo]], np.uint64)), hi, lo)
                    hi, lo = np.hstack([hi, more[0]]), np.hstack([lo, more[1]])
                    a, c = a * a % 2**128, (a * c + c) % 2**128
                self._jumps.append(np.vstack([hi, lo]))
        return self._jumps[:levels]

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def check_int(name: str, value, low: int = 1) -> int:
    """value as a Python int, if it is a Python or numpy integer (bool is
    not) of at least low; ParameterError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_real(name: str, value):
    """value itself, if it is a Python or numpy real number (bool is not);
    ParameterError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    return value


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
        object.__setattr__(self, "n_cols", check_int("n_cols", self.n_cols, 0))
        for name in ("indptr", "indices"):
            arr = getattr(self, name)
            if not isinstance(arr, np.ndarray) or arr.ndim != 1 or arr.dtype.kind not in "iu":
                raise ShapeError(f"{name} must be a 1-d integer array")
            # int64 is kept as is; a uint64 would make flat_index's positions float
            object.__setattr__(self, name, arr.astype(np.int64, copy=False))
        if len(self.indptr) < 1 or self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ShapeError("indptr must be a 1-d non-decreasing array starting at 0")
        if len(self.indices) != self.indptr[-1]:
            raise ShapeError(
                f"indptr ends at {self.indptr[-1]} but there are {len(self.indices)} indices")
        if len(self.indices) and not 0 <= self.indices.min() <= self.indices.max() < self.n_cols:
            raise ShapeError(f"column indices must lie in [0, {self.n_cols})")
        # a repeated column would change its row's count, which forward divides by
        if np.any(np.diff(self.flat_index()) <= 0):
            raise ShapeError("each row's columns must ascend strictly")

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def flat_index(self) -> np.ndarray:
        """Row-major position of each stored entry in the dense array."""
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        return rows * self.n_cols + self.indices

    def take(self, rows: np.ndarray) -> "CsrRows":
        """The listed rows, in the order given, as a new CsrRows. Row
        indices that are not integers, or that lie outside [0, n_rows),
        raise ParameterError."""
        rows = np.asarray(rows)
        if rows.size and rows.dtype.kind not in "iu":
            raise ParameterError(f"row indices must be integers, got dtype {rows.dtype}")
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise ParameterError(f"row indices must lie in [0, {self.n_rows}), got "
                                 f"{rows.min()}..{rows.max()}")
        rows = rows.astype(np.int64, copy=False)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(counts)))
        pos = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        return CsrRows(indptr, self.indices[pos], self.n_cols)


# The cost of the per-row input products, in units of the dense path's
# cost per row, column and output column: ROW_COST per row, ENTRY_COST per
# kept entry and output column. Measured with OpenBLAS 0.3.31 at 2 threads
# on a 2-CPU x86-64 host, over a training step's three products (forward's
# two, backward's one) for 256 rows: the dense path (fill x, three GEMMs)
# took 0.05-0.1 ns per row, column and output column at widths 96 and 320
# over 2000-8000 columns; row by row, a row took ~13 us (forward ~5,
# backward ~8) and an entry ~3.3 ns per output column (forward ~0.6,
# backward ~2.7). Forward alone, as in evaluation, favours the per-row
# path more than this.
ROW_COST = 200_000
ENTRY_COST = 50


def per_row_products(rows: int, cols: int, kept: int, width: int) -> bool:
    """Whether a batch of `rows` rows over `cols` columns with `kept` stored
    entries is cheaper to multiply row by row than as a dense (rows, cols)
    array, for products `width` columns wide in all (the model's hidden
    plus embedding width).

    The dense path costs rows * cols * width whatever the density; the
    per-row products cost kept * width * ENTRY_COST plus ROW_COST per
    row. So a batch of under ~2 % density over thousands of columns goes
    row by row, and a narrow, small or denser one stays dense.
    """
    return kept * width * ENTRY_COST + rows * ROW_COST < rows * cols * width


@dataclass(frozen=True)
class InputRows:
    """A batch's model input x: real values at the stored entries of each
    row, with the products the first layer needs.

    indptr, indices and values hold x's entries in CSR form, each row's
    columns unique. array is the dense (n_rows, n_cols) x when the batch
    is multiplied by BLAS GEMMs; the entries are then all of the batch's,
    dropped ones as 0.0. array is None when per_row_products chose to
    multiply the batch row by row; the entries are then only the kept
    (nonzero) ones. The two paths round differently: each is
    deterministic at a fixed BLAS thread count, and they agree to
    float64 rounding.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    n_cols: int
    array: np.ndarray | None = None

    @classmethod
    def build(cls, batch: CsrRows, entries: np.ndarray, values: np.ndarray,
              width: int) -> "InputRows":
        """x with `values` at the stored entries of `batch` (whose flat
        positions are `entries`), for products `width` columns wide in
        all. A dense x is written into buffer("x")."""
        if not per_row_products(batch.n_rows, batch.n_cols, np.count_nonzero(values), width):
            array = buffer("x", (batch.n_rows, batch.n_cols))
            array.fill(0.0)
            np.put(array, entries, values)
            return cls(batch.indptr, batch.indices, values, batch.n_cols, array)
        kept = values != 0.0  # entries dropout removed are not multiplied
        indptr = np.concatenate(([0], np.cumsum(kept)))[batch.indptr]
        return cls(indptr, batch.indices[kept], values[kept], batch.n_cols)

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def matmul(self, w: np.ndarray, name: str) -> np.ndarray:
        """x @ w, written into buffer(name)."""
        out = buffer(name, (self.n_rows, w.shape[1]))
        if self.array is not None:
            return np.matmul(self.array, w, out=out)
        # take and dot cost ~2.5 us less a row than fancy indexing and
        # matmul; a row with no entries is a zero-length dot, written as 0
        bounds = self.indptr.tolist()
        for row, start, stop in zip(out, bounds[:-1], bounds[1:]):
            np.dot(self.values[start:stop], w.take(self.indices[start:stop], axis=0), out=row)
        return out

    def t_matmul(self, d: np.ndarray, name: str) -> np.ndarray:
        """x^T @ d, written into buffer(name)."""
        out = buffer(name, (self.n_cols, d.shape[1]))
        if self.array is not None:
            return np.matmul(self.array.T, d, out=out)
        out.fill(0.0)
        bounds = self.indptr.tolist()
        for row, start, stop in zip(d, bounds[:-1], bounds[1:]):
            # a row's columns are unique, so the fancy += adds each entry once
            out[self.indices[start:stop]] += self.values[start:stop, None] * row
        return out


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

    The mask is the dense one read at `entries`: one uniform per matrix
    entry, in row-major order, keeps the entry (1.0) when it is < keep_prob,
    and the stream advances by rows * cols draws. But a sparse call
    computes only the uniforms at `entries` (see Rng.uniform_entries).
    The caller applies the mask as values * mask * (1 / keep_prob).
    """
    return (rng.uniform_entries(rows, cols, entries) < keep_prob).astype(np.float64)


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float = 1e-3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam update, made in place on param, m and v.

    Returns (param, m, v), the arrays passed in. t is the 1-based step
    count including this step; beta1, beta2 and eps are ADAM_BETA1,
    ADAM_BETA2 and ADAM_EPS. Each operation is the one the textbook
    formula performs, in its order, so the result is bit for bit that of
    the out-of-place expression. The arrays are updated ADAM_CHUNK
    elements at a time (whole leading-axis rows), so that the dozen
    elementwise passes run over a chunk that stays in cache.
    """
    m_scale, v_scale = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    arrays = np.atleast_1d(param, grad, m, v)  # views, so a 0-d param updates too
    n = len(arrays[0])
    rows = max(1, ADAM_CHUNK * n // max(param.size, 1))
    term = np.empty_like(arrays[0][:rows])
    denom = np.empty_like(term)
    for start in range(0, n, rows):
        p, g, mc, vc = (a[start:start + rows] for a in arrays)
        tc, dc = term[:len(p)], denom[:len(p)]
        # m = beta1 * m + (1 - beta1) * grad
        np.multiply(g, 1.0 - ADAM_BETA1, out=tc)
        mc *= ADAM_BETA1
        mc += tc
        # v = beta2 * v + (1 - beta2) * grad * grad
        np.multiply(g, 1.0 - ADAM_BETA2, out=tc)
        tc *= g
        vc *= ADAM_BETA2
        vc += tc
        # param -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(vc, v_scale, out=dc)
        np.sqrt(dc, out=dc)
        dc += ADAM_EPS
        np.divide(mc, m_scale, out=tc)
        tc *= lr
        tc /= dc
        p -= tc
    return param, m, v
