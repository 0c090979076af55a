import math
import tracemalloc

import numpy as np
import pytest

from mdap.errors import ParameterError, ShapeError
from mdap.numerics import (JUMP_BITS, CsrRows, Rng, adam_step, gumbel_from_uniform,
                           row_l2_normalize, row_l2_normalize_grad, sample_dropout_mask,
                           sample_gumbel, softmax_rows, softmax_rows_grad)
from sparse_rows import csr, dense

EULER_MASCHERONI = 0.5772156649015329


def test_csr_take_equals_dense_rows():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_rows, n_cols = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        full = (rng.random((n_rows, n_cols)) < 0.4).astype(float)
        full[rng.integers(n_rows)] = 0.0  # at least one row with no entries
        batch = csr(full)
        repeated = rng.integers(0, n_rows, size=int(rng.integers(1, 20)))  # unsorted
        for rows in ([], repeated, [n_rows - 1, 0, n_rows - 1]):
            taken = batch.take(rows)
            assert np.array_equal(dense(taken), full[rows])
            assert taken.indptr.dtype == np.int64 and taken.indices.dtype == np.int64


@pytest.mark.parametrize("rows, message", [
    ([5], r"\[0, 5\)"),
    ([0, -1], r"\[0, 5\)"),
    ([1.5], "integers"),
    (np.array([1.0, 2.0]), "integers"),
], ids=["row-n_rows", "negative-row", "fractional-row", "integral-float-rows"])
def test_csr_take_rejects_bad_rows(rows, message):
    # Each used to fail with a stray IndexError or ValueError, or (a float
    # row) to be truncated to another row without a word.
    batch = CsrRows(np.array([0, 1, 1, 2, 2, 3]), np.array([0, 1, 2]), 4)
    with pytest.raises(ParameterError, match=message):
        batch.take(rows)


@pytest.mark.parametrize("indptr, indices, message", [
    ([0, 1, 1], [5], r"\[0, 5\)"),
    ([0, 1, 1], [-1], r"\[0, 5\)"),
    ([0, 2, 1], [0], "non-decreasing"),
    (np.array([0.0, 1.0]), [0], "indptr must be a 1-d integer array"),
    ([0, 1], np.array([0.0]), "indices must be a 1-d integer array"),
    (np.array([[0, 1]]), [0], "indptr must be a 1-d integer array"),
    ([0, 2], np.array([[0, 1]]), "indices must be a 1-d integer array"),
    ([0, 2], [0, 0], "ascend strictly"),
    ([0, 2, 4], [1, 3, 2, 2], "ascend strictly"),
    ([0, 2], [3, 1], "ascend strictly"),
], ids=["column-past-end", "negative-column", "decreasing-indptr", "float-indptr",
        "float-indices", "2d-indptr", "2d-indices", "repeated-column",
        "repeated-column-in-second-row", "descending-columns"])
def test_csr_rows_reject_bad_pattern(indptr, indices, message):
    # Each would put an entry in the wrong row or column of forward's input,
    # count a column twice, or fail later with a stray numpy error.
    def as_array(v):
        return v if isinstance(v, np.ndarray) else np.array(v, dtype=np.int64)
    with pytest.raises(ShapeError, match=message):
        CsrRows(as_array(indptr), as_array(indices), 5)


@pytest.mark.parametrize("n_cols, message", [
    (5.0, "n_cols must be an integer, got 5.0"),
    (True, "n_cols must be an integer, got True"),
    ("3", "n_cols must be an integer, got '3'"),
    (-1, "n_cols must be >= 0, got -1"),
], ids=["float", "bool", "string", "negative"])
def test_csr_rows_reject_bad_n_cols(n_cols, message):
    # a float n_cols made flat_index's positions float64, and
    # score_matrix_metrics then failed with a stray TypeError
    with pytest.raises(ParameterError, match=message):
        CsrRows(np.array([0, 1]), np.array([2]), n_cols)


def test_csr_rows_keep_a_numpy_n_cols_as_int():
    rows = CsrRows(np.array([0, 1]), np.array([2]), np.int64(5))
    assert type(rows.n_cols) is int and rows.n_cols == 5
    assert rows.flat_index().dtype == np.int64


def test_csr_rows_take_unsigned_arrays_as_int64():
    # uint64 + int64 is float64 in numpy: flat_index would give float positions
    rows = CsrRows(np.array([0, 2, 3], dtype=np.uint64), np.array([1, 3, 0], dtype=np.uint32), 5)
    assert rows.indptr.dtype == rows.indices.dtype == np.int64
    assert rows.flat_index().tolist() == [1, 3, 5]


def test_rng_same_seed_same_draws():
    a = Rng(9).uniform(5, 3)
    b = Rng(9).uniform(5, 3)
    assert np.array_equal(a, b)


def test_rng_derive_streams_differ():
    base = Rng(4)
    assert np.array_equal(base.derive(1).uniform(4, 4), Rng(4).derive(1).uniform(4, 4))
    assert not np.array_equal(base.derive(1).uniform(4, 4), base.derive(2).uniform(4, 4))


@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.bool_(True), "1", None, -1],
                         ids=["float", "integral-float", "bool", "numpy-bool", "str", "none",
                              "negative"])
def test_rng_rejects_bad_seed(seed):
    with pytest.raises(ParameterError, match="seed"):
        Rng(seed)


def test_rng_takes_numpy_integer_seed_as_int():
    rng = Rng(np.uint8(3))
    assert type(rng.seed) is int
    assert np.array_equal(rng.uniform(2, 2), Rng(3).uniform(2, 2))
    assert Rng(0).seed == 0


def test_rng_uniform_open_interval():
    u = Rng(0).uniform(1000, 50)
    assert u.min() >= 1e-12
    assert u.max() <= 1.0 - 1e-12


def test_rng_permutation():
    p = Rng(11).permutation(10)
    assert sorted(p.tolist()) == list(range(10))
    assert np.array_equal(p, Rng(11).permutation(10))


def test_matmul_identity():
    b = Rng(1).uniform(2, 5)
    assert np.allclose(np.matmul(np.eye(2), b), b)


def test_matmul_hand_sum():
    out = np.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    assert np.array_equal(out, np.array([[3.0], [7.0]]))


@pytest.mark.parametrize("shape_a,shape_b", [((5, 7), (7, 3)), ((32, 32), (32, 32)), ((1, 9), (9, 1))])
def test_matmul_triple_loop_oracle(shape_a, shape_b):
    rng = np.random.default_rng(42)
    a = rng.standard_normal(shape_a)
    b = rng.standard_normal(shape_b)
    expect = np.zeros((shape_a[0], shape_b[1]))
    for i in range(shape_a[0]):
        for j in range(shape_b[1]):
            acc = 0.0
            for p in range(shape_a[1]):
                acc += a[i, p] * b[p, j]
            expect[i, j] = acc
    assert np.max(np.abs(np.matmul(a, b) - expect)) < 1e-10
    # written into out, also a column slice of a wider array, it is the same
    # product bit for bit, which decode and backward rely on
    wide = np.full((shape_a[0], shape_b[1] + 2), np.nan)
    for out in (np.empty_like(expect), wide[:, 1:-1]):
        assert np.matmul(a, b, out=out) is out
        assert np.array_equal(out, np.matmul(a, b))
    assert np.isnan(wide[:, [0, -1]]).all()


def test_normalize_hand_rows():
    m = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
    out = row_l2_normalize(m)
    assert np.allclose(out[0], [0.6, 0.8], atol=1e-12)
    assert np.array_equal(out[1], [0.0, 0.0])
    assert np.allclose(out[2], [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_normalize_idempotent():
    m = Rng(2).uniform(6, 4) - 0.5
    m[3] = 0.0
    once = row_l2_normalize(m)
    assert np.max(np.abs(row_l2_normalize(once) - once)) < 1e-12


def test_normalize_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 5))
    w = rng.standard_normal((4, 5))
    norm = row_l2_normalize(m)
    grad = row_l2_normalize_grad(m, norm, w)
    h = 1e-6
    for i in range(4):
        for j in range(5):
            bumped = m.copy()
            bumped[i, j] += h
            up = float(np.sum(row_l2_normalize(bumped) * w))
            bumped[i, j] -= 2 * h
            down = float(np.sum(row_l2_normalize(bumped) * w))
            fd = (up - down) / (2 * h)
            assert abs(grad[i, j] - fd) < 1e-6


def test_normalize_grad_zero_row_is_zero():
    m = np.zeros((2, 3))
    m[0] = [1.0, 2.0, 2.0]
    grad = row_l2_normalize_grad(m, row_l2_normalize(m), np.ones((2, 3)))
    assert np.array_equal(grad[1], np.zeros(3))


def test_normalize_grad_equals_out_of_place_formula():
    # Zero rows, a NaN row and widths past one pairwise block; the
    # gradient may be a strided view, as backward() passes it.
    gen = np.random.default_rng(5)
    for n, width in ((7, 3), (40, 32), (9, 150)):
        m = gen.standard_normal((n, width))
        m[1] = 0.0
        m[3, 0] = np.nan
        norm = row_l2_normalize(m)
        w = gen.standard_normal((n, width + 4))[:, 2:-2]
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        inner = np.sum(w * norm, axis=1, keepdims=True)
        expect = np.where(norms > 0.0, (w - inner * norm) / np.where(norms > 0.0, norms, 1.0),
                          0.0)
        assert row_l2_normalize_grad(m, norm, w).tobytes() == expect.tobytes()


def test_gumbel_fixed_points():
    assert abs(gumbel_from_uniform(np.array([math.exp(-1.0)]))[0]) < 1e-12
    # -log(log 2)
    assert abs(gumbel_from_uniform(np.array([0.5]))[0] - 0.36651292058166435) < 1e-12


def test_gumbel_sample_mean_near_euler_mascheroni():
    g = sample_gumbel(Rng(123), 100000, 1)
    assert abs(float(g.mean()) - EULER_MASCHERONI) < 0.02


def test_gumbel_bit_reproducible():
    assert np.array_equal(sample_gumbel(Rng(5), 20, 3), sample_gumbel(Rng(5), 20, 3))


def test_softmax_symmetry():
    for tau in (0.1, 1.0, 7.0):
        assert np.allclose(softmax_rows(np.array([[0.0, 0.0]]), tau), [[0.5, 0.5]], atol=1e-12)


def test_softmax_closed_forms():
    row = np.array([[1.0, 0.0]])
    assert np.allclose(softmax_rows(row, 1.0), [[0.73105858, 0.26894142]], atol=1e-8)
    assert np.allclose(softmax_rows(row, 0.5), [[0.88079708, 0.11920292]], atol=1e-8)


def test_softmax_extreme_logits_stay_normalized():
    logits = np.array([[700.0, -700.0, 0.0], [-700.0, -700.0, -700.0], [700.0, 700.0, 699.0]])
    out = softmax_rows(logits, 1.0)
    assert np.all(np.isfinite(out))
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9


def test_softmax_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))
    tau = 0.7
    s = softmax_rows(logits, tau)
    grad = softmax_rows_grad(s, w, tau)
    h = 1e-6
    for i in range(3):
        for j in range(4):
            bumped = logits.copy()
            bumped[i, j] += h
            up = float(np.sum(softmax_rows(bumped, tau) * w))
            bumped[i, j] -= 2 * h
            down = float(np.sum(softmax_rows(bumped, tau) * w))
            assert abs(grad[i, j] - (up - down) / (2 * h)) < 1e-6


def test_dropout_identity_cases():
    m = Rng(8).uniform(5, 5).reshape(-1)
    mask = sample_dropout_mask(Rng(0), 5, 5, 1.0, np.arange(25))
    assert mask.all()
    assert np.array_equal(m * mask, m)


def test_dropout_preserves_expectation():
    m = np.ones(1000 * 100)
    out = m * sample_dropout_mask(Rng(21), 1000, 100, 0.5, np.arange(m.size)) * (1.0 / 0.5)
    assert set(np.unique(out)).issubset({0.0, 2.0})
    assert abs(float(out.mean()) - 1.0) < 0.01


def test_dropout_mask_apply_matches_scale():
    mask = sample_dropout_mask(Rng(4), 50, 40, 0.25, np.arange(2000))
    assert mask.dtype == np.float64 and set(np.unique(mask)).issubset({0.0, 1.0})
    applied = np.full(2000, 3.0) * mask * (1.0 / 0.25)
    assert set(np.unique(applied)).issubset({0.0, 12.0})
    kept = float(mask.mean())
    assert 0.15 < kept < 0.35


def test_dropout_mask_is_the_dense_mask_read_at_the_entries():
    # One uniform per matrix entry, row major: the mask over a few entries
    # is the dense mask at those positions, and the stream moves on by the
    # whole matrix either way.
    entries = np.array([0, 3, 17, 18, 40, 62])
    rng, dense_rng = Rng(3), Rng(3)
    mask = sample_dropout_mask(rng, 7, 9, 0.4, entries)
    dense = (dense_rng.uniform(7, 9) < 0.4).astype(np.float64)
    assert np.array_equal(mask, dense.reshape(-1)[entries])
    assert np.array_equal(rng.uniform(2, 3), dense_rng.uniform(2, 3))


def test_uniform_entries_reads_the_uniform_block():
    entries = np.array([5, 0, 11, 11])
    assert np.array_equal(Rng(6).uniform_entries(3, 4, entries),
                          Rng(6).uniform(3, 4).reshape(-1)[entries])


def spread_entries(seed, size, count, *fixed):
    """`count` distinct random positions in [0, size) and the `fixed` ones,
    ascending, as int64."""
    drawn = np.random.default_rng(seed).choice(size, count, replace=False)
    return np.unique(np.concatenate([drawn, np.array(fixed, dtype=np.int64)]))


def assert_entries_match_dense(rng, twin, rows, cols, entries):
    """rng.uniform_entries against twin's dense draw read at the entries,
    bit for bit; then both streams must go on alike, through a uniform()
    and a permutation() (which reads a buffered uint32 first, if any)."""
    got = rng.uniform_entries(rows, cols, entries)
    assert got.tobytes() == twin.uniform(rows, cols).reshape(-1)[entries].tobytes()
    assert rng.uniform(2, 3).tobytes() == twin.uniform(2, 3).tobytes()
    assert np.array_equal(rng.permutation(9), twin.permutation(9))


B_2_22 = 2**(2 * JUMP_BITS)
JUMP_CASES = {
    # the benchmark's eval-sparse batch shape at 0.5 % density, with its
    # first and last positions
    "256x8000@0.5%": (256, 8000, spread_entries(1, 256 * 8000, 10240, 0, 256 * 8000 - 1)),
    "256x8000-empty": (256, 8000, np.zeros(0, dtype=np.int64)),
    # one, two and three digits: the block's own step count crosses a level
    "2^22-1": (1, B_2_22 - 1, np.array([0, 2047, 2048, 2049, B_2_22 - 2])),
    "2^22": (2048, 2048, np.array([0, 2**JUMP_BITS - 1, B_2_22 - 1])),
    "2^22+1": (1, B_2_22 + 1, np.array([0, 4095, 4096, B_2_22 - 1, B_2_22])),
    "4.8M-cells-three-digits": (8000, 600, spread_entries(2, 8000 * 600, 3000, 2**22 - 1, 2**22)),
    # the benchmark's train-dense batch shape (7.8 % dense) and denser
    # blocks, with their first and last positions
    "256x2000@7.8%": (256, 2000, spread_entries(3, 256 * 2000, 39936, 0, 256 * 2000 - 1)),
    "256x2000@10.5%": (256, 2000, spread_entries(3, 256 * 2000, 53760, 0, 256 * 2000 - 1)),
    "256x8000@10%": (256, 8000, spread_entries(3, 256 * 8000, 204800, 0, 256 * 8000 - 1)),
    # small blocks, where the 2**11 states of the lowest digit's table
    # outnumber the entries: a sparse one and a test fixture's batch
    "64x300": (64, 300, spread_entries(3, 64 * 300, 9, 0, 64 * 300 - 1)),
    "200x70@25%": (200, 70, spread_entries(3, 200 * 70, 3500, 0, 200 * 70 - 1)),
    "0x8000": (0, 8000, np.zeros(0, dtype=np.int64)),
}


@pytest.mark.parametrize("case", list(JUMP_CASES))
def test_jumped_uniforms_equal_the_dense_draw(case):
    rows, cols, entries = JUMP_CASES[case]
    assert_entries_match_dense(Rng(5), Rng(5), rows, cols, entries)


@pytest.mark.parametrize("cols", [1, 2, 12, 2047, 2048, 2049, 5000])
def test_every_block_size_jumps_to_the_dense_draw(cols):
    # one digit up to 2**11 - 1 cells, two from 2**11
    entries = np.unique(np.array([0, cols // 2, cols - 1]))
    assert_entries_match_dense(Rng(2), Rng(2), 1, cols, entries)
    assert_entries_match_dense(Rng(2), Rng(2), 1, cols, entries[:0])


def test_consecutive_jumps_reuse_the_tables():
    rng, twin = Rng(8), Rng(8)
    shapes = [(256, 8000, 4000), (256, 8000, 9000), (300, 8000, 100), (256, 8000, 10)]
    for i, (rows, cols, count) in enumerate(shapes):
        entries = spread_entries(i, rows * cols, count, 0)
        if i == 1:
            tables = list(rng._jumps)
        assert_entries_match_dense(rng, twin, rows, cols, entries)
    # and a one-digit block in between reads the first table, builds none,
    # and leaves the stream in step too
    assert_entries_match_dense(rng, twin, 1, 512, spread_entries(9, 512, 400))
    assert_entries_match_dense(rng, twin, 256, 8000, spread_entries(4, 256 * 8000, 5000))
    assert len(rng._jumps) == len(tables) and all(a is b for a, b in zip(rng._jumps, tables))


def test_jump_keeps_a_buffered_uint32():
    # permutation(6) draws five bounded uint32s, which leaves half of a
    # 64-bit draw buffered; the jump sets the 128-bit state and keeps it
    rng, twin = Rng(6), Rng(6)
    for r in (rng, twin):
        r.permutation(6)
    assert rng._gen.bit_generator.state["has_uint32"] == 1
    entries = spread_entries(0, 256 * 8000, 9000, 0, 256 * 8000 - 1)
    assert_entries_match_dense(rng, twin, 256, 8000, entries)


def test_jump_allocates_no_block():
    # 10k uniforms of a 256 x 8000 block: the dense draw would allocate
    # 16 MB for the block; the jump's working arrays are per entry
    entries = spread_entries(3, 256 * 8000, 10240)
    rng = Rng(1)
    rng.uniform_entries(256, 8000, entries)  # builds the tables
    tracemalloc.start()
    try:
        rng.uniform_entries(256, 8000, entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_adam_zero_grad_is_identity():
    param = Rng(6).uniform(3, 3)
    m = np.zeros_like(param)
    v = np.zeros_like(param)
    before = param.copy()  # adam_step updates param in place
    new_param, _, _ = adam_step(param, np.zeros_like(param), m, v, t=1)
    assert np.array_equal(new_param, before)


def test_adam_first_step_magnitude():
    param = np.array([[0.0]])
    new_param, m, v = adam_step(param, np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)), t=1)
    # bias-corrected m_hat = v_hat = 1, so the step is lr / (1 + eps)
    assert abs(new_param[0, 0] + 1e-3 / (1.0 + 1e-8)) < 1e-15
    assert abs(new_param[0, 0] + 9.99999e-4) < 1e-8


def test_adam_two_steps_match_scalar_oracle():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    g = 0.3
    p_ref, m_ref, v_ref = 0.7, 0.0, 0.0
    for t in (1, 2):
        m_ref = b1 * m_ref + (1 - b1) * g
        v_ref = b2 * v_ref + (1 - b2) * g * g
        m_hat = m_ref / (1 - b1 ** t)
        v_hat = v_ref / (1 - b2 ** t)
        p_ref -= lr * m_hat / (math.sqrt(v_hat) + eps)

    param = np.array([[0.7]])
    m = np.zeros((1, 1))
    v = np.zeros((1, 1))
    for t in (1, 2):
        param, m, v = adam_step(param, np.array([[g]]), m, v, t=t, lr=lr)
    assert abs(param[0, 0] - p_ref) < 1e-12
    assert abs(m[0, 0] - m_ref) < 1e-12
    assert abs(v[0, 0] - v_ref) < 1e-12


def adam_out_of_place(param, grad, m, v, t, lr):
    """The textbook update as new arrays: the oracle of the in-place step."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 5), (2, 4, 3), (3000, 23), (23, 3000)])
@pytest.mark.parametrize("seed", range(3))
def test_adam_in_place_equals_out_of_place_formula(shape, seed):
    # (3000, 23) and (23, 3000) span several ADAM_CHUNK passes, the last
    # one partial.
    gen = np.random.default_rng([seed, len(shape)])
    hyper = {"lr": float(gen.choice([1e-3, 1e-2, 0.3]))}
    param = gen.standard_normal(shape)
    m, v = np.zeros(shape), np.zeros(shape)
    ref = (param.copy(), m.copy(), v.copy())
    for t in range(1, int(gen.integers(1, 12)) + 1):
        grad = gen.standard_normal(shape) * 10.0 ** gen.integers(-6, 3)
        out = adam_step(param, grad, m, v, t, **hyper)
        ref = adam_out_of_place(ref[0], grad, ref[1], ref[2], t, **hyper)
        assert out[0] is param and out[1] is m and out[2] is v
        for got, expect in zip(out, ref):
            assert np.array_equal(got, expect), t


def test_adam_updates_a_strided_view_in_place():
    base = Rng(2).uniform(40, 30)
    param = base.T[::2]  # neither C nor F contiguous
    grad = Rng(3).uniform(15, 40)
    expect, _, _ = adam_out_of_place(param.copy(), grad, 0.0, 0.0, 1, 1e-3)
    adam_step(param, grad, np.zeros((15, 40)), np.zeros((15, 40)), 1)
    assert np.array_equal(base.T[::2], expect)
