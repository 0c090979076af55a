import json
import math
import re
import struct
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mdap import cli, numerics
from mdap.data import InteractionDataset, sparse_batch
from mdap.errors import CheckpointError, ParameterError, ShapeError
from mdap.evaluation import evaluate
from mdap.model import (ABLATIONS, CHECKPOINT_MAGIC, ForwardTrace, ModelConfig,
                        PARAM_FIELDS, combine_views, decode, embedding_norms, encode_rows,
                        forward, gate_weights, glorot_uniform, gumbel_softmax_assign,
                        init_params, load_checkpoint, save_checkpoint)
from mdap.numerics import (CsrRows, Rng, per_row_products, row_l2_normalize,
                           sample_dropout_mask, sample_gumbel, softmax_rows, softmax_rows_grad)
from mdap.training import TrainConfig, backward, train
from sparse_rows import csr, csr_lists, dense, dense_input, dense_x

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def binary_rows(seed, b, n=11):
    """(b, n) rows of zeros and ones, each entry 1 with probability 1/2."""
    return (Rng(seed).uniform(b, n) < 0.5).astype(float)


def toy_params(k=3, embed=8, hidden=16, n_s=6, n_t=5, seed=0, ablation="full"):
    config = ModelConfig(k=k, embed_dim=embed, hidden=hidden, tau=0.2,
                         keep_prob=0.5, lam=0.5, ablation=ablation)
    return config, init_params(config, n_s, n_t, Rng(seed))


def test_config_validation():
    with pytest.raises(ParameterError):
        ModelConfig(k=0)
    for tau in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="tau"):
            ModelConfig(tau=tau)
    for lam in (-0.1, math.inf, math.nan):
        with pytest.raises(ParameterError, match="lam"):
            ModelConfig(lam=lam)
    with pytest.raises(ParameterError):
        ModelConfig(keep_prob=0.0)
    with pytest.raises(ParameterError):
        ModelConfig(ablation="bogus")
    assert ModelConfig(k=9, ablation="single_view").k == 1


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(4.0), True, np.bool_(True), "4", None],
                         ids=["float", "integral-float", "numpy-float", "bool", "numpy-bool",
                              "str", "none"])
@pytest.mark.parametrize("name", ["k", "embed_dim", "hidden"])
def test_config_rejects_non_integer_sizes(name, value):
    with pytest.raises(ParameterError, match=name):
        ModelConfig(**{name: value})
    with pytest.raises(ParameterError, match=name):
        ModelConfig(**{name: value}, ablation="single_view")


def test_config_takes_numpy_integer_sizes_as_int():
    config = ModelConfig(k=np.int64(3), embed_dim=np.int32(8), hidden=np.uint16(16))
    assert config == ModelConfig(k=3, embed_dim=8, hidden=16)
    assert all(type(v) is int for v in (config.k, config.embed_dim, config.hidden))


@pytest.mark.parametrize("value", [True, np.bool_(False), "0.2", None, 1j],
                         ids=["bool", "numpy-bool", "str", "none", "complex"])
@pytest.mark.parametrize("name", ["tau", "keep_prob", "lam"])
def test_config_rejects_non_real_fields(name, value):
    with pytest.raises(ParameterError, match=f"{name} must be a real number"):
        ModelConfig(**{name: value})


def test_config_keeps_real_fields_as_given():
    config = ModelConfig(tau=np.float64(0.5), keep_prob=1, lam=np.int64(0))
    assert type(config.tau) is np.float64 and config.tau == 0.5
    assert type(config.keep_prob) is int and type(config.lam) is np.int64


def test_glorot_bound_and_zero_init():
    w = glorot_uniform(Rng(3), 40, 60)
    limit = math.sqrt(6.0 / (40 + 60))
    assert float(np.abs(w).max()) <= limit
    assert abs(float(w.mean())) < 0.02
    config, params = toy_params()
    assert not params.enc_b1.any() and not params.enc_b2.any()
    assert not params.dec_b1.any() and not params.dec_b2.any()
    assert not params.gate.any()


def test_init_params_shapes():
    config, params = toy_params(k=3, embed=8, hidden=16, n_s=6, n_t=5)
    n = 6 + 5
    assert params.item_emb.shape == (n, 8)
    assert params.core_emb.shape == (3, 8)
    assert params.enc_w1.shape == (n, 16)
    assert params.enc_w2.shape == (16, 8)
    assert params.dec_w1.shape == (8, 16)
    assert params.dec_w2.shape == (16, n)
    assert params.gate.shape == (2, 3)


def test_init_params_refuses_a_shape_no_array_can_hold_before_drawing():
    # item_emb, drawn first, fits: only core_emb's (2**70, 64) does not
    rng = Rng(0)
    with pytest.raises(ParameterError, match=f"core_emb .* too large for an array: k={2**70}, "):
        init_params(ModelConfig(k=2**70), 6, 5, rng)
    assert rng.uniform(1, 3).tobytes() == Rng(0).uniform(1, 3).tobytes()


def test_forward_zero_row_logits_are_zero():
    config, params = toy_params()
    x = binary_rows(4, 3)
    x[1] = 0.0
    for training in (False, True):
        trace = forward(params, config, csr(x), Rng(5) if training else None)
        logits = trace.proj @ trace.core_norm.T
        assert np.array_equal(logits[1], np.zeros(3))


def test_assign_eval_closed_form():
    assign = gumbel_softmax_assign(np.array([[1.0, 0.0]]), tau=0.2)
    # softmax([5, 0])
    assert np.allclose(assign, [[0.99330715, 0.00669285]], atol=1e-7)


def test_assign_training_matches_gumbel_argmax_probability():
    logits = np.tile(np.array([[1.0, 0.0]]), (10000, 1))
    assign = gumbel_softmax_assign(logits, tau=0.2, rng=Rng(0))
    # the noise is one Gumbel draw per logit, added before the softmax
    replay = softmax_rows(logits + sample_gumbel(Rng(0), *logits.shape), 0.2)
    assert assign.tobytes() == replay.tobytes()
    freq = float((np.argmax(assign, axis=1) == 0).mean())
    assert abs(freq - math.e / (1 + math.e)) < 0.02


def test_assign_no_gumbel_is_plain_softmax():
    # without an Rng no noise is added; forward passes none under no_gumbel
    # (test_forward_no_gumbel_draws_the_dropout_mask_alone)
    logits = np.array([[0.3, -0.2, 0.1]])
    assign = gumbel_softmax_assign(logits, tau=0.5)
    assert np.allclose(assign, softmax_rows(logits, 0.5))


def test_forward_no_gumbel_draws_the_dropout_mask_alone():
    # A training pass under no_gumbel draws its dropout mask and no noise:
    # the stream moves by the mask alone and the assignment is the plain
    # tempered softmax of the logits.
    config = ModelConfig(k=3, embed_dim=8, hidden=16, ablation="no_gumbel")
    params = init_params(config, 6, 5, Rng(0))
    x = binary_rows(1, 4)
    batch = csr(x)
    rng = Rng(2)
    trace = forward(params, config, batch, rng)
    assert trace.training
    replay = Rng(2)
    mask = sample_dropout_mask(replay, 4, 11, config.keep_prob, batch.flat_index())
    assert np.array_equal(rng.uniform(1, 3), replay.uniform(1, 3))
    masked = row_l2_normalize(x) * dense(batch, mask) * (1.0 / config.keep_prob)
    assert dense_x(trace.x).tobytes() == masked.tobytes()
    logits = trace.proj @ np.ascontiguousarray(trace.core_norm.T)
    assert trace.assign.tobytes() == softmax_rows(logits, config.tau).tobytes()


def test_encode_decode_formulas():
    # tanh hidden layer, linear output layer on both sides; view i's
    # encoder input is x scaled by assignment column i
    config, params = toy_params()
    x = Rng(7).uniform(4, 11)
    assign = softmax_rows(Rng(8).uniform(4, 3), 1.0)
    hidden, emb = encode_rows(params, x @ params.enc_w1, assign)
    assert hidden.shape == (3, 4, 16) and emb.shape == (3, 4, 8)
    for i in range(3):
        view = x * assign[:, i:i + 1]
        assert np.allclose(hidden[i], np.tanh(view @ params.enc_w1 + params.enc_b1))
        assert np.allclose(emb[i], hidden[i] @ params.enc_w2 + params.enc_b2)
    z = emb[0]
    for domain, cols in (("s", slice(0, 6)), ("t", slice(6, 11))):
        dh, scores = decode(params, z, domain)
        assert np.allclose(dh, np.tanh(z @ params.dec_w1 + params.dec_b1))
        assert scores.shape == (4, cols.stop - cols.start)
        assert np.allclose(scores, (dh @ params.dec_w2 + params.dec_b2)[:, cols])


def test_gate_weights_hand_value():
    config, params = toy_params(k=2)
    params.gate[0] = [math.log(2.0), 0.0]
    assert np.allclose(gate_weights(params)[0], [2 / 3, 1 / 3], atol=1e-12)
    assert np.allclose(gate_weights(params)[1], [0.5, 0.5])


def test_gate_weights_no_gate_is_uniform():
    config, params = toy_params(k=4)
    params.gate[:] = Rng(2).uniform(2, 4)
    assert np.array_equal(gate_weights(params, "no_gate")[0], np.full(4, 0.25))


def test_gate_table_equals_one_row_softmax_per_domain():
    # The (2, k) table in one softmax_rows call, and its gradient in one
    # softmax_rows_grad call, give each row's bits of a one-row call.
    gen = np.random.default_rng(12)
    for k in range(1, 9):
        _, params = toy_params(k=k)
        for trial in range(20):
            params.gate[:] = gen.standard_normal((2, k)) * 10.0 ** gen.integers(-3, 3)
            gates = gate_weights(params)
            d_gates = gen.standard_normal((2, k))
            grad = softmax_rows_grad(gates, d_gates)
            for row in range(2):
                one = softmax_rows(params.gate[row:row + 1], 1.0)[0]
                assert gates[row].tobytes() == one.tobytes(), (k, trial, row)
                one_grad = softmax_rows_grad(one[None, :], d_gates[row][None, :])[0]
                assert grad[row].tobytes() == one_grad.tobytes(), (k, trial, row)
            uniform = gate_weights(params, "no_gate")
            assert uniform.shape == (2, k)
            for row in range(2):
                assert uniform[row].tobytes() == np.full(k, 1.0 / k).tobytes()
        params.gate[:] = 0.0
        assert gate_weights(params, "no_gate").tobytes() == np.full((2, k), 1.0 / k).tobytes()


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_trace_trains_exactly_when_forward_gets_an_rng(ablation):
    # The benchmark labels a forward call by its trace's training field
    # and counts decoded columns from recon_s and recon_t.
    names = {f.name for f in fields(ForwardTrace)}
    assert {"training", "recon_s", "recon_t", "gates"} <= names
    config, params = toy_params(ablation=ablation)
    batch = csr(binary_rows(3, 4))
    assert forward(params, config, batch).training is False
    assert forward(params, config, batch, Rng(1)).training is True
    trace = forward(params, config, batch, norms=embedding_norms(params))
    assert trace.training is False
    assert trace.recon_s.shape == (4, 6) and trace.recon_t.shape == (4, 5)


def test_combine_views_weighted_sum():
    embs = [np.full((2, 3), 1.0), np.full((2, 3), 2.0)]
    z = combine_views(embs, np.array([0.25, 0.75]))
    assert np.allclose(z, np.full((2, 3), 1.75))


def test_forward_eval_is_deterministic():
    config, params = toy_params()
    x = binary_rows(4, 5)
    a = forward(params, config, csr(x))
    b = forward(params, config, csr(x))
    assert np.array_equal(a.recon_s, b.recon_s)
    assert np.array_equal(a.recon_t, b.recon_t)


def test_forward_training_reproducible_by_seed():
    # Gradient checks replay a training pass by running forward again on
    # a stream derived from the same seed: every random draw and every
    # result must repeat bit for bit.
    x = binary_rows(4, 5)
    for ablation in ABLATIONS:
        config, params = toy_params(ablation=ablation)
        rng_a, rng_b = Rng(9).derive(2), Rng(9).derive(2)
        a = forward(params, config, csr(x), rng_a)
        b = forward(params, config, csr(x), rng_b)
        c = forward(params, config, csr(x), Rng(10).derive(2))
        assert dense_x(a.x).tobytes() == dense_x(b.x).tobytes(), ablation
        for name in ("assign", "recon_s", "recon_t"):
            got, expect = getattr(a, name), getattr(b, name)
            assert got.tobytes() == expect.tobytes(), (ablation, name)
        # both passes drew the same number of values
        assert np.array_equal(rng_a.uniform(1, 3), rng_b.uniform(1, 3)), ablation
        assert not np.array_equal(a.recon_s, c.recon_s), ablation


def test_forward_shared_corruption_feeds_both_paths():
    config, params = toy_params()
    x = binary_rows(4, 5)
    batch = csr(x)
    trace = forward(params, config, batch, Rng(9))
    # replay forward's draws in its order: the dropout mask, then the noise
    rng = Rng(9)
    mask = sample_dropout_mask(rng, 5, 11, config.keep_prob, batch.flat_index())
    noise = sample_gumbel(rng, 5, config.k)
    masked = row_l2_normalize(x) * dense(batch, mask) * (1.0 / config.keep_prob)
    assert dense_x(trace.x).tobytes() == masked.tobytes()
    # the dropped input the views decompose is the one the logits saw
    assert trace.proj.tobytes() == (dense_x(trace.x) @ trace.item_norm).tobytes()
    logits = trace.proj @ trace.core_norm.T
    assert trace.assign.tobytes() == softmax_rows(logits + noise, config.tau).tobytes()
    views = [dense_x(trace.x) * trace.assign[:, i:i + 1] for i in range(config.k)]
    assert np.max(np.abs(sum(views) - dense_x(trace.x))) < 1e-9


def test_forward_drops_entries_at_keep_prob_near_one():
    # At keep_prob 0.9995 a batch of ~20k entries loses about ten: the
    # replayed mask says which, and forward's input has lost exactly those.
    config = ModelConfig(k=2, embed_dim=3, hidden=4, keep_prob=0.9995)
    params = init_params(config, 250, 150, Rng(0))
    x = binary_rows(5, 100, 400)
    batch = csr(x)
    mask = sample_dropout_mask(Rng(3), 100, 400, config.keep_prob, batch.flat_index())
    assert 0 < np.count_nonzero(mask == 0.0) < 40
    trace = forward(params, config, batch, Rng(3))
    dropped = row_l2_normalize(x) * dense(batch, mask) * (1.0 / config.keep_prob)
    assert dense_x(trace.x).tobytes() == dropped.tobytes()
    assert not np.array_equal(dense_x(trace.x) != 0.0, x != 0.0)


def test_forward_without_dropout_keeps_input():
    config, params = toy_params()
    x = binary_rows(4, 5)
    no_drop = ModelConfig(k=3, embed_dim=8, hidden=16, keep_prob=1.0)
    for cfg, training in ((config, False), (no_drop, True)):
        rng = Rng(9)
        trace = forward(params, cfg, csr(x), rng if training else None)
        assert np.array_equal(dense_x(trace.x), row_l2_normalize(x))
        # no dropout mask drawn: only a training pass's Gumbel noise was
        replay = Rng(9)
        if training:
            sample_gumbel(replay, 5, cfg.k)
        assert np.array_equal(rng.uniform(1, 3), replay.uniform(1, 3))


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_forward_matches_per_view_reference(ablation, training):
    # The factored encoder and per-domain decoder against the paper's
    # per-view model: encode each view input diag(a_i)·x, mix, decode all
    # items, then slice each domain.
    for k in range(1, 6):
        config, params = toy_params(k=k, seed=k, ablation=ablation)
        params.gate[:] = Rng(k).uniform(2, params.gate.shape[1])
        x = binary_rows(20 + k, 6)
        x[3] = 0.0
        trace = forward(params, config, csr(x), Rng(40 + k) if training else None)
        worst = 0.0
        embs = []
        for i in range(trace.assign.shape[1]):
            view = dense_x(trace.x) * trace.assign[:, i:i + 1]
            hidden = np.tanh(view @ params.enc_w1 + params.enc_b1)
            embs.append(hidden @ params.enc_w2 + params.enc_b2)
            worst = max(worst, np.abs(trace.enc_hidden[i] - hidden).max(),
                        np.abs(trace.view_embs[i] - embs[i]).max())
        for gate, recon, cols in ((trace.gates[0], trace.recon_s, slice(0, 6)),
                                  (trace.gates[1], trace.recon_t, slice(6, 11))):
            z = sum(w * e for w, e in zip(gate, embs))
            dec_hidden = np.tanh(z @ params.dec_w1 + params.dec_b1)
            scores = dec_hidden @ params.dec_w2 + params.dec_b2
            worst = max(worst, np.abs(recon - scores[:, cols]).max())
        assert worst <= 1e-12, (k, worst)


def dense_reference_forward(params, config, raw, rng, training):
    """The dense forward the sparse input stage replaced: row_l2_normalize,
    a dropout mask drawn as one (B, N) block of uniforms and applied as
    x_norm * mask * scale, then the model on the dense x. Returns the trace."""
    b = raw.shape[0]
    x = row_l2_normalize(raw)
    if training and config.keep_prob < 1.0:
        mask = (rng.uniform(b, raw.shape[1]) < config.keep_prob).astype(np.float64)
        x = x * mask * (1.0 / config.keep_prob)
    item_norm = row_l2_normalize(params.item_emb)
    core_norm = row_l2_normalize(params.core_emb)
    proj = x @ item_norm
    if config.ablation == "single_view":
        assign = np.ones((b, 1))
    else:
        noisy = training and config.ablation != "no_gumbel"
        assign = gumbel_softmax_assign(proj @ core_norm.T, config.tau, rng if noisy else None)
    enc_proj = x @ params.enc_w1
    enc_hidden, view_embs = encode_rows(params, enc_proj, assign)
    gates = gate_weights(params, config.ablation)
    z_s, z_t = combine_views(view_embs, gates[0]), combine_views(view_embs, gates[1])
    dec_hidden_s, recon_s = decode(params, z_s, "s")
    dec_hidden_t, recon_t = decode(params, z_t, "t")
    return ForwardTrace(
        training=training, batch=csr(raw), x=dense_input(x), item_norm=item_norm,
        core_norm=core_norm, proj=proj,
        assign=assign, enc_proj=enc_proj, enc_hidden=enc_hidden, view_embs=view_embs,
        gates=gates, z_s=z_s, z_t=z_t, dec_hidden_s=dec_hidden_s,
        dec_hidden_t=dec_hidden_t, recon_s=recon_s, recon_t=recon_t)


def random_raw_rows(gen, b, n):
    """0/1 rows of mixed density, one all-zero and one with a single entry."""
    density = gen.choice([0.02, 0.2, 0.6], size=(b, 1))
    raw = (gen.random((b, n)) < density).astype(float)
    raw[0] = 0.0
    raw[1] = 0.0
    raw[1, gen.integers(n)] = 1.0
    return raw


@pytest.mark.parametrize("keep_prob", [1.0, 0.5, 0.2])
@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_sparse_input_stage_equals_dense_reference(ablation, training, keep_prob):
    # The batch enters sparse and only its entries are normalized and
    # masked; x (so the normalized rows and the kept entries), the
    # reconstructions and the gradients must still equal the dense
    # pipeline's exactly. Widths above 128 give the reference's pairwise
    # row sums more than one block.
    gen = np.random.default_rng([ABLATIONS.index(ablation), training, int(keep_prob * 10)])
    for trial in range(6):
        n_s, n_t = int(gen.integers(3, 120)), int(gen.integers(3, 120))
        config = ModelConfig(k=int(gen.integers(1, 5)), embed_dim=5, hidden=7,
                             keep_prob=keep_prob, ablation=ablation)
        params = init_params(config, n_s, n_t, Rng(trial))
        params.gate[:] = Rng(trial + 50).uniform(2, config.k)
        raw = random_raw_rows(gen, int(gen.integers(2, 12)), n_s + n_t)
        trace = forward(params, config, csr(raw), Rng(trial) if training else None)
        ref = dense_reference_forward(params, config, raw, Rng(trial), training)
        assert np.array_equal(dense_x(trace.x), dense_x(ref.x))
        assert np.array_equal(trace.recon_s, ref.recon_s)
        assert np.array_equal(trace.recon_t, ref.recon_t)
        if training:
            grads = backward(trace, params, config)[2]
            expect = backward(ref, params, config)[2]
            for name in PARAM_FIELDS:
                assert np.array_equal(grads[name], expect[name]), (trial, name)


# Per-row input products. A batch of short rows over thousands of columns
# is multiplied row by row instead of through a dense x; the dense path
# and its bits stay as they were for every other batch.

# Reconstructions and gradients on the per-row path against the dense
# reference, in units of float64 epsilon times each array's largest
# magnitude. Only the first layer's sums change order, and each has at most
# 6 nonzero terms, so it rounds differently by a few eps; the layers after
# it are the same operations on both paths. Measured over 12 seeds, every
# ablation and both modes, at 1 and 2 BLAS threads: at most 13 eps, so 2**6
# bounds it. The item_emb and core_emb gradients pass through the tempered
# softmax Jacobian s * (g - <g, s>) / tau, a difference of near-equal terms
# (under no_gate's uniform mixing the views' g nearly agree), which scales
# the same few-eps difference in g up against a small result: at most
# 4.6e3 eps seen, so 2**14 bounds those two.
PER_ROW_TOLERANCE = 2.0 ** 6 * np.finfo(float).eps
ASSIGNMENT_TOLERANCE = 2.0 ** 14 * np.finfo(float).eps


def per_row_case(seed, keep_prob=0.5, ablation="full", b=16):
    """(config, params, batch): b rows of 1-6 entries over 6000 columns and
    a model 40 columns wide (embed 8 + hidden 32), which the rule sends to
    the per-row path."""
    gen = np.random.default_rng(seed)
    n_s, n_t = 3500, 2500
    lists = [np.sort(gen.choice(n_s + n_t, int(gen.integers(1, 7)), replace=False))
             for _ in range(b)]
    config = ModelConfig(k=3, embed_dim=8, hidden=32, keep_prob=keep_prob, ablation=ablation)
    params = init_params(config, n_s, n_t, Rng(seed))
    params.gate[:] = Rng(seed + 50).uniform(2, config.k)
    return config, params, csr_lists(lists, n_s + n_t)


def record_path_choices(monkeypatch) -> list[bool]:
    """The list that every later per_row_products decision is appended to."""
    choices = []
    rule = numerics.per_row_products
    monkeypatch.setattr(numerics, "per_row_products",
                        lambda *args: choices.append(rule(*args)) or choices[-1])
    return choices


def assert_close(got, expect, tolerance, name):
    scale = np.abs(expect).max()
    assert np.abs(got - expect).max() <= tolerance * scale, name


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_per_row_path_matches_dense_reference(ablation, training):
    config, params, batch = per_row_case(ABLATIONS.index(ablation), ablation=ablation)
    trace = forward(params, config, batch, Rng(7) if training else None)
    ref = dense_reference_forward(params, config, dense(batch), Rng(7), training)
    assert trace.x.array is None  # the per-row path was taken
    # the kept entries are exactly the dense reference's
    assert np.array_equal(dense_x(trace.x), dense_x(ref.x))
    kept = dense_x(ref.x) != 0.0
    assert np.array_equal(trace.x.values, dense_x(ref.x)[kept])
    for name in ("proj", "enc_proj", "recon_s", "recon_t"):
        assert_close(getattr(trace, name), getattr(ref, name), PER_ROW_TOLERANCE, name)
    if training:
        grads = backward(trace, params, config)[2]
        expect = backward(ref, params, config)[2]
        for name in PARAM_FIELDS:
            tolerance = (ASSIGNMENT_TOLERANCE if name in ("item_emb", "core_emb")
                         else PER_ROW_TOLERANCE)
            assert_close(grads[name], expect[name], tolerance, name)


def test_per_row_path_gradients_match_finite_differences():
    # Criterion 1 on the per-row path: every small array in full, and for
    # the (N, width) arrays the rows of two kept columns, one column no row
    # holds, and a sample of dec_w2 and dec_b2.
    config, params, batch = per_row_case(3, ablation="full")
    trace = forward(params, config, batch, Rng(4))
    assert trace.x.array is None
    grads = backward(trace, params, config)[2]
    gen = np.random.default_rng(0)
    kept = np.unique(trace.x.indices)
    unused = np.setdiff1d(np.arange(params.n_items_total), batch.indices)[0]
    probes = {
        "item_emb": [(c, j) for c in (kept[0], kept[-1], unused) for j in range(8)],
        "enc_w1": [(c, j) for c in (kept[0], kept[-1], unused) for j in range(0, 32, 3)],
        "dec_w2": [(int(gen.integers(32)), int(gen.integers(6000))) for _ in range(12)],
        "dec_b2": [(int(gen.integers(6000)),) for _ in range(6)],
        "dec_w1": [(int(gen.integers(8)), int(gen.integers(32))) for _ in range(12)],
        "enc_w2": [(int(gen.integers(32)), int(gen.integers(8))) for _ in range(12)],
    }
    h = 1e-5
    worst = 0.0
    for field in PARAM_FIELDS:
        arr = getattr(params, field)
        for idx in probes.get(field, list(np.ndindex(arr.shape))):
            keep = arr[idx]
            losses = []
            for value in (keep + h, keep - h):
                arr[idx] = value
                # the same derived stream draws the same mask and noise again
                replay = forward(params, config, batch, Rng(4))
                losses.append(backward(replay, params, config)[0])
            arr[idx] = keep
            numeric = (losses[0] - losses[1]) / (2 * h)
            analytic = grads[field][idx]
            worst = max(worst, abs(numeric - analytic) / max(abs(numeric) + abs(analytic), 1e-8))
    assert worst < 1e-4


def test_per_row_path_row_with_every_entry_dropped():
    config, params, batch = per_row_case(5, keep_prob=0.2)
    trace = forward(params, config, batch, Rng(8))
    x = trace.x
    assert x.array is None
    empty = np.flatnonzero(np.diff(x.indptr) == 0)
    assert len(empty) and np.all(np.diff(batch.indptr)[empty] > 0)  # stored, all dropped
    assert np.all(trace.proj[empty] == 0.0) and np.all(trace.enc_proj[empty] == 0.0)
    # such a row adds nothing to x^T D: D's values there change no bit
    d = Rng(9).uniform(batch.n_rows, 5)
    plain = x.t_matmul(d)
    d[empty] = 1e300
    assert np.array_equal(x.t_matmul(d), plain)


def sparse_rows_with_empty(batch):
    """batch with an empty row put in front of its rows."""
    return CsrRows(np.concatenate(([0], batch.indptr)), batch.indices, batch.n_cols)


def test_per_row_path_writes_every_row_of_its_buffers(monkeypatch):
    # np.empty hands back whatever its memory held before: make every float
    # array it returns NaN-filled, so that a row left unwritten shows, the
    # empty one in front included.
    config, params, batch = per_row_case(6, keep_prob=0.2)
    rows = sparse_rows_with_empty(batch)
    trace = forward(params, config, rows, Rng(3))
    expect = backward(trace, params, config)[2]
    real_empty = np.empty

    def nan_empty(*args, **kwargs):
        arr = real_empty(*args, **kwargs)
        if arr.dtype.kind == "f":
            arr.fill(np.nan)
        return arr

    monkeypatch.setattr(np, "empty", nan_empty)
    again = forward(params, config, rows, Rng(3))
    assert again.x.array is None
    assert np.array_equal(again.proj, trace.proj)
    assert np.array_equal(again.enc_proj, trace.enc_proj)
    grads = backward(again, params, config)[2]
    for name in PARAM_FIELDS:
        assert np.array_equal(grads[name], expect[name]), name


def test_per_row_path_training_is_deterministic(monkeypatch):
    # 48 users with 2-6 training items over 6000 items in all
    gen = np.random.default_rng(6)
    pairs = {}
    for domain, n_items in (("s", 3500), ("t", 2500)):
        owned = [gen.choice(n_items, int(gen.integers(4, 9)), replace=False) for _ in range(48)]
        for split, part in (("train", slice(2, None)), ("valid", slice(0, 1)),
                            ("test", slice(1, 2))):
            pairs[(domain, split)] = np.array([(u, i) for u, items in enumerate(owned)
                                               for i in items[part]])
    dataset = InteractionDataset([f"u{u:02d}" for u in range(48)],
                                 [f"s{i:04d}" for i in range(3500)],
                                 [f"t{i:04d}" for i in range(2500)], pairs)
    config = TrainConfig(model=ModelConfig(k=3, embed_dim=8, hidden=32), epochs_max=2,
                         patience=2, batch_users=16, seed=5)
    choices = record_path_choices(monkeypatch)

    def run():
        params, log = train(dataset, config)
        report = evaluate(params, config.model, dataset, "test", k=5).to_dict()
        return params, log.to_jsonl(), report

    first, second = run(), run()
    assert choices and all(choices)  # every training and evaluation batch went row by row
    assert first[1] == second[1] and first[2] == second[2]
    for name in PARAM_FIELDS:
        assert getattr(first[0], name).tobytes() == getattr(second[0], name).tobytes(), name


def test_per_row_rule_keeps_small_batches_dense(fixture_dataset):
    # Fewer kept entries only favour the per-row path, so a shape that stays
    # dense with none kept stays dense with any. The exact-equality test's
    # shapes: n <= 240 columns, b <= 12 rows, embed 5 + hidden 7.
    for n in range(6, 241):
        for b in range(1, 13):
            assert not per_row_products(b, n, 0, 5 + 7), (b, n)
    # fixture7 with the default model, every user in one batch
    batch = sparse_batch(fixture_dataset, np.arange(fixture_dataset.n_users))
    width = ModelConfig().embed_dim + ModelConfig().hidden
    assert not per_row_products(batch.n_rows, batch.n_cols, 0, width)
    # the per-row batch of the tests above
    _, _, batch = per_row_case(0)
    assert per_row_products(batch.n_rows, batch.n_cols, len(batch.indices), 40)


@pytest.mark.parametrize("workload, per_row", [("train-dense", False), ("eval-sparse", True)])
def test_per_row_rule_on_benchmark_batches(workload, per_row, tmp_path, monkeypatch):
    # The benchmark's two workloads sit on either side of the rule: every
    # training step and evaluation block of one epoch takes one path.
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from inputs import write_inputs
        from run import WORKLOADS
    finally:
        sys.path.remove(str(BENCH_DIR))
    spec = WORKLOADS[workload]
    paths = write_inputs(spec["data"], 1, workload, str(tmp_path))["paths"]
    assert cli.main(["prepare", "--domain-s", paths["s"], "--domain-t", paths["t"],
                     "--out", str(tmp_path), "--seed", "1"]) == 0
    dataset = cli.load_prepared(str(tmp_path))
    options = spec["options"]
    model = ModelConfig(k=options["k"], embed_dim=options["embed_dim"],
                        hidden=options["hidden"])
    config = TrainConfig(model=model, epochs_max=1, patience=1,
                         batch_users=options["batch_users"], seed=1)
    choices = record_path_choices(monkeypatch)
    params, _ = train(dataset, config)
    n_steps = len(choices)
    evaluate(params, model, dataset, "test")
    assert n_steps and len(choices) > n_steps
    assert set(choices) == {per_row}


def test_forward_rejects_wrong_width():
    config, params = toy_params()
    with pytest.raises(ShapeError):
        forward(params, config, csr(np.ones((2, 10))))


@pytest.mark.parametrize("columns", [[1, 1], [2, 1]], ids=["repeated", "descending"])
def test_forward_rejects_columns_that_do_not_ascend(columns):
    # A row is normalized by its entry count, which a repeated column
    # would inflate; only strictly ascending columns rule that out. Such
    # rows never reach forward: building the batch raises.
    with pytest.raises(ShapeError, match="ascend strictly"):
        CsrRows(np.array([0, 2]), np.array(columns, dtype=np.int64), 11)


def forward_peak_bytes(k):
    """Peak traced bytes of one training forward, B = 64 and N = 2000."""
    config = ModelConfig(k=k, embed_dim=32, hidden=64)
    params = init_params(config, 1200, 800, Rng(0))
    batch = csr((Rng(1).uniform(64, 2000) < 0.05).astype(float))
    tracemalloc.start()
    try:
        forward(params, config, batch, Rng(2))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_memory_does_not_scale_with_views_times_items():
    # No per-view (B, N) input copy: going from 1 to 8 views may add only
    # per-view (B, hidden) state, well under one (B, N) array.
    one_array = 64 * 2000 * 8
    growth = forward_peak_bytes(8) - forward_peak_bytes(1)
    assert growth < one_array, growth / one_array


def test_forward_k1_matches_single_view():
    # single_view is k = 1 on the one forward/backward path, so both give
    # the same bits, although only k = 1 draws Gumbel noise: noise cannot
    # move a one-view assignment. Hidden widths up to 300 reach the BLAS
    # kernels where a lone x^T d_enc rounds unlike x^T [d_enc | d_proj].
    gen = np.random.default_rng(15)
    for trial in range(200):
        n_s, n_t = int(gen.integers(3, 200)), int(gen.integers(3, 200))
        base = ModelConfig(k=1, embed_dim=int(gen.integers(1, 65)),
                           hidden=int(gen.integers(1, 301)), tau=0.2, keep_prob=0.5, lam=0.5)
        sv = replace(base, ablation="single_view")
        params = init_params(base, n_s, n_t, Rng(trial))
        batch = csr(random_raw_rows(gen, int(gen.integers(2, 64)), n_s + n_t))
        for training in (False, True):
            a = forward(params, base, batch, Rng(trial) if training else None)
            b = forward(params, sv, batch, Rng(trial) if training else None)
            assert np.array_equal(a.recon_s, b.recon_s), (trial, training)
            assert np.array_equal(a.recon_t, b.recon_t), (trial, training)
        grads_a = backward(a, params, base)[2]
        grads_b = backward(b, params, sv)[2]
        for name in PARAM_FIELDS:
            assert np.array_equal(grads_a[name], grads_b[name]), (trial, name)


@pytest.mark.parametrize("b", [2, 40, 300])
def test_forward_with_passed_norms_and_output_rows_matches_plain_forward(b):
    # Evaluation passes the embeddings it normalized once per call and
    # the rows of its score matrices; every field of the trace must keep
    # its bits, and decode must write the scores into exactly those rows.
    config, params = toy_params(k=4, embed=16, hidden=48, n_s=300, n_t=200, seed=3)
    batch = csr(binary_rows(5, b, 500))
    plain = forward(params, config, batch)
    scores = {"s": np.full((b + 7, 300), np.nan), "t": np.full((b + 7, 200), np.nan)}
    rows = slice(3, 3 + b)
    trace = forward(params, config, batch, norms=embedding_norms(params),
                    out={d: m[rows] for d, m in scores.items()})
    assert np.array_equal(dense_x(trace.x), dense_x(plain.x))
    assert trace.batch is plain.batch is batch
    for f in fields(ForwardTrace):
        if f.name not in ("x", "batch"):
            assert np.array_equal(getattr(trace, f.name), getattr(plain, f.name)), f.name
    for d in ("s", "t"):
        assert getattr(trace, "recon_" + d).ctypes.data == scores[d][rows].ctypes.data
        assert np.isnan(np.delete(scores[d], np.arange(3, 3 + b), axis=0)).all()


def test_forward_padded_user_gets_uniform_assignment():
    config, params = toy_params(k=3)
    x = binary_rows(4, 5)
    x[2] = 0.0
    trace = forward(params, config, csr(x))
    assert np.allclose(trace.assign[2], np.full(3, 1 / 3), atol=1e-12)


@pytest.mark.parametrize("training", [False, True])
def test_forward_trace_holds_the_batch_it_was_given(training):
    config, params = toy_params()
    batch = csr(binary_rows(1, 4))
    assert forward(params, config, batch, Rng(2) if training else None).batch is batch


def test_forward_trace_shapes():
    config, params = toy_params(k=3, embed=8, hidden=16, n_s=6, n_t=5)
    x = binary_rows(1, 4)
    trace = forward(params, config, csr(x), Rng(2))
    assert dense_x(trace.x).shape == (4, 11)
    assert trace.proj.shape == (4, 8)
    assert trace.assign.shape == (4, 3)
    assert len(trace.view_embs) == 3 and trace.view_embs[0].shape == (4, 8)
    assert trace.gates.shape == (2, 3)
    assert trace.z_s.shape == (4, 8) and trace.z_t.shape == (4, 8)
    assert trace.recon_s.shape == (4, 6)
    assert trace.recon_t.shape == (4, 5)


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_forward_and_backward_on_a_batch_without_rows(ablation):
    # zero users: empty reconstructions, a loss of the gate penalty alone,
    # and a stream that moves on by zero draws
    config, params = toy_params(ablation=ablation)
    batch = CsrRows(np.zeros(1, np.int64), np.zeros(0, np.int64), 11)
    trace = forward(params, config, batch)
    assert trace.recon_s.shape == (0, 6) and trace.recon_t.shape == (0, 5)
    rng = Rng(3)
    total, parts, grads = backward(forward(params, config, batch, rng), params, config)
    assert total == parts["orth"] and parts["rec_s"] == parts["rec_t"] == 0.0
    assert all(np.isfinite(grad).all() for grad in grads.values())
    assert rng.uniform(2, 3).tobytes() == Rng(3).uniform(2, 3).tobytes()


def test_forward_single_view_assigns_ones_without_noise_or_logit_gradients():
    # One view: the softmax of one logit is exactly 1, no Gumbel noise is
    # drawn, and the softmax Jacobian s * (g - g) / tau is exactly 0.
    config = ModelConfig(k=4, embed_dim=8, hidden=16, tau=0.2, keep_prob=0.5,
                         lam=0.5, ablation="single_view")
    params = init_params(config, 6, 5, Rng(0))
    params.gate[:] = Rng(1).uniform(2, 1)
    batch = csr(binary_rows(1, 4))
    rng = Rng(2)
    trace = forward(params, config, batch, rng)
    assert np.array_equal(trace.assign, np.ones((4, 1)))
    # the stream moved by the dropout mask alone
    replay = Rng(2)
    sample_dropout_mask(replay, 4, 11, config.keep_prob, batch.flat_index())
    assert np.array_equal(rng.uniform(1, 3), replay.uniform(1, 3))
    grads = backward(trace, params, config)[2]
    for name in ("item_emb", "core_emb", "gate"):
        assert not grads[name].any(), name


def test_variant_config():
    # a variant's config is the base with its ablation replaced
    base = ModelConfig(k=8)
    assert replace(base, ablation="no_gumbel").ablation == "no_gumbel"
    assert replace(base, ablation="single_view").k == 1
    assert replace(base, ablation="full") == base


def test_checkpoint_round_trip(tmp_path):
    config, params = toy_params(k=3, embed=8, hidden=16, n_s=6, n_t=5, seed=42)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params, config, extra={"note": "toy", "epoch": 3})
    loaded, loaded_config, extra = load_checkpoint(path)
    assert loaded_config == config
    assert extra == {"note": "toy", "epoch": 3}
    assert loaded.n_items_s == 6 and loaded.n_items_t == 5
    for field in PARAM_FIELDS:
        assert np.array_equal(getattr(loaded, field), getattr(params, field)), field


@pytest.mark.parametrize("name, value", [
    ("tau", np.float32(0.1)), ("lam", np.int64(1)), ("keep_prob", np.float32(0.5)),
], ids=["tau-float32", "lam-int64", "keep_prob-float32"])
def test_checkpoint_round_trips_numpy_real_config(tmp_path, name, value):
    # ModelConfig accepts numpy reals; the header holds the Python number each equals
    config, params = toy_params(seed=7)
    config = replace(config, **{name: value})
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params, config)
    loaded, loaded_config, _ = load_checkpoint(path)
    assert loaded_config == config
    assert getattr(loaded_config, name) == value.item()
    for field in PARAM_FIELDS:
        assert getattr(loaded, field).tobytes() == getattr(params, field).tobytes(), field


def test_checkpoint_extra_takes_numpy_scalars_and_rejects_what_json_cannot_write(tmp_path):
    config, params = toy_params()
    path = tmp_path / "model.ckpt"
    extra = {"best_epoch": np.int64(3), "score": np.float32(0.25), "ok": np.bool_(True)}
    save_checkpoint(str(path), params, config, extra=extra)
    loaded = load_checkpoint(str(path))[2]
    assert loaded == {"best_epoch": 3, "score": 0.25, "ok": True}
    assert [type(loaded[key]) for key in ("best_epoch", "score", "ok")] == [int, float, bool]
    other = tmp_path / "other.ckpt"
    with pytest.raises(ParameterError, match=re.escape("cannot hold {1, 2}")):
        save_checkpoint(str(other), params, config, extra={"epochs": {1, 2}})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_rejects_corruption(tmp_path):
    config, params = toy_params()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params, config)
    with open(path, "rb") as fh:
        blob = fh.read()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(bad_magic))

    # Truncation: every length through the header and 8 bytes into the
    # first array, each array boundary and its neighbours, and a stride
    # over the array bytes.
    (length,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC) + 4)
    edge = len(CHECKPOINT_MAGIC) + 12 + length
    cuts = set(range(edge + 9)) | set(range(edge, len(blob), 61)) | {len(blob) - 16}
    for _, arr in params.arrays():
        cuts.update((edge - 1, edge, edge + 1))
        edge += arr.nbytes
    cuts.update((edge - 1, edge))
    assert edge == len(blob)
    truncated = tmp_path / "short.ckpt"
    for cut in sorted(cuts - {len(blob)}):
        truncated.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(truncated))

    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(padded))


def rewrite_header(path, edit):
    """Rewrite a checkpoint's JSON header through edit(header)."""
    blob = path.read_bytes()
    off = len(CHECKPOINT_MAGIC) + 4
    (length,) = struct.unpack_from("<Q", blob, off)
    header = json.loads(blob[off + 8:off + 8 + length])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:off] + struct.pack("<Q", len(new)) + new
                     + blob[off + 8 + length:])


@pytest.mark.parametrize("edit", [
    pytest.param(lambda h: h.pop("config"), id="no_config"),
    pytest.param(lambda h: h.pop("shapes"), id="no_shapes"),
    pytest.param(lambda h: h.pop("n_items_s"), id="no_n_items_s"),
    pytest.param(lambda h: h.pop("n_items_t"), id="no_n_items_t"),
    pytest.param(lambda h: h["shapes"].pop("enc_w1"), id="no_shape_entry"),
    pytest.param(lambda h: h["config"].update(bogus=1), id="unknown_config_key"),
    pytest.param(lambda h: h["config"].update(ablation="bogus"), id="bad_config_value"),
    pytest.param(lambda h: h["shapes"].update(enc_b1=16), id="shape_not_list"),
    pytest.param(lambda h: h["shapes"].update(enc_b1="16"), id="shape_string"),
    pytest.param(lambda h: h["shapes"].update(enc_b1=[-16]), id="negative_dim"),
    pytest.param(lambda h: h.update(n_items_s="six"), id="n_items_not_int"),
])
def test_checkpoint_rejects_bad_header(tmp_path, edit):
    config, params = toy_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), params, config)
    rewrite_header(path, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", ["3", 3.0, 3.9, True, 0],
                         ids=["str", "integral-float", "float", "true", "zero"])
@pytest.mark.parametrize("key", ["n_items_s", "n_items_t"])
def test_checkpoint_rejects_item_count_that_is_not_a_positive_int(tmp_path, key, value):
    # each domain has 3 items, so int() of "3", 3.0 or 3.9 would load
    config, params = toy_params(n_s=3, n_t=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), params, config)
    rewrite_header(path, lambda h: h.update({key: value}))
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("edit, field", [
    pytest.param(lambda h: h["config"].update(k=2), "core_emb", id="k"),
    pytest.param(lambda h: h["config"].update(hidden=15), "enc_w1", id="hidden"),
    pytest.param(lambda h: h["config"].update(embed_dim=7), "item_emb", id="embed_dim"),
    pytest.param(lambda h: h.update(n_items_t=4), "item_emb", id="n_items_t"),
])
def test_checkpoint_rejects_header_that_disagrees_with_shapes(tmp_path, edit, field):
    config, params = toy_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), params, config)
    rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match=f"field {field} has shape"):
        load_checkpoint(str(path))


def test_checkpoint_bit_flips_in_header_raise_checkpoint_error(tmp_path):
    # Every single-bit flip in the header either still loads or fails
    # with CheckpointError, never with a stray KeyError/TypeError.
    config, params = toy_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), params, config, extra={"epoch": 3})
    blob = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 12
    (length,) = struct.unpack_from("<Q", blob, start - 8)
    rejected = 0
    for pos in range(start, start + length):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << bit
            path.write_bytes(flipped)
            try:
                load_checkpoint(str(path))
            except CheckpointError:
                rejected += 1
    assert rejected > 0


def test_params_copy_is_deep():
    config, params = toy_params()
    clone = params.copy()
    clone.item_emb[0, 0] += 1.0
    assert params.item_emb[0, 0] != clone.item_emb[0, 0]
