import json
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mdap.errors import CheckpointError, ParameterError, ShapeError
from mdap.model import (ABLATIONS, CHECKPOINT_MAGIC, ForwardTrace, ModelConfig,
                        PARAM_FIELDS, combine_views, decode, encode_rows, forward,
                        gate_weights, glorot_uniform, gumbel_softmax_assign,
                        init_params, load_checkpoint, save_checkpoint)
from mdap.numerics import (CsrRows, Rng, row_l2_normalize, sample_dropout_mask,
                           sample_gumbel, softmax_rows)
from mdap.training import backward, residuals
from sparse_rows import csr, dense


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


def test_forward_zero_row_logits_are_zero():
    config, params = toy_params()
    x = binary_rows(4, 3)
    x[1] = 0.0
    for training in (False, True):
        trace = forward(params, config, csr(x), Rng(5), training=training)
        logits = trace.proj @ trace.core_norm.T
        assert np.array_equal(logits[1], np.zeros(3))


def test_assign_eval_closed_form():
    assign = gumbel_softmax_assign(np.array([[1.0, 0.0]]), tau=0.2)
    # softmax([5, 0])
    assert np.allclose(assign, [[0.99330715, 0.00669285]], atol=1e-7)


def test_assign_training_matches_gumbel_argmax_probability():
    logits = np.tile(np.array([[1.0, 0.0]]), (10000, 1))
    assign = gumbel_softmax_assign(logits, tau=0.2, rng=Rng(0), training=True)
    # the noise is one Gumbel draw per logit, added before the softmax
    replay = softmax_rows(logits + sample_gumbel(Rng(0), *logits.shape), 0.2)
    assert assign.tobytes() == replay.tobytes()
    freq = float((np.argmax(assign, axis=1) == 0).mean())
    assert abs(freq - math.e / (1 + math.e)) < 0.02


def test_assign_no_gumbel_is_plain_softmax():
    logits = np.array([[0.3, -0.2, 0.1]])
    rng = Rng(1)
    assign = gumbel_softmax_assign(logits, tau=0.5, rng=rng, training=True,
                                   ablation="no_gumbel")
    assert np.array_equal(rng.uniform(1, 3), Rng(1).uniform(1, 3))  # no noise drawn
    assert np.allclose(assign, softmax_rows(logits, 0.5))


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
    assert np.allclose(gate_weights(params, "s"), [2 / 3, 1 / 3], atol=1e-12)
    assert np.allclose(gate_weights(params, "t"), [0.5, 0.5])


def test_gate_weights_no_gate_is_uniform():
    config, params = toy_params(k=4)
    params.gate[:] = Rng(2).uniform(2, 4)
    assert np.array_equal(gate_weights(params, "s", "no_gate"), np.full(4, 0.25))


def test_combine_views_weighted_sum():
    embs = [np.full((2, 3), 1.0), np.full((2, 3), 2.0)]
    z = combine_views(embs, np.array([0.25, 0.75]))
    assert np.allclose(z, np.full((2, 3), 1.75))


def test_forward_eval_is_deterministic():
    config, params = toy_params()
    x = binary_rows(4, 5)
    rng = Rng(9)
    a = forward(params, config, csr(x), rng)
    b = forward(params, config, csr(x))
    assert np.array_equal(a.recon_s, b.recon_s)
    assert np.array_equal(a.recon_t, b.recon_t)
    # no dropout mask and no Gumbel noise: the stream is left untouched
    assert np.array_equal(rng.uniform(1, 3), Rng(9).uniform(1, 3))


def test_forward_training_reproducible_by_seed():
    # Gradient checks replay a training pass by running forward again on
    # a stream derived from the same seed: every random draw and every
    # result must repeat bit for bit.
    x = binary_rows(4, 5)
    for ablation in ABLATIONS:
        config, params = toy_params(ablation=ablation)
        rng_a, rng_b = Rng(9).derive(2), Rng(9).derive(2)
        a = forward(params, config, csr(x), rng_a, training=True)
        b = forward(params, config, csr(x), rng_b, training=True)
        c = forward(params, config, csr(x), Rng(10).derive(2), training=True)
        for name in ("x", "assign", "recon_s", "recon_t"):
            got, expect = getattr(a, name), getattr(b, name)
            assert got.tobytes() == expect.tobytes(), (ablation, name)
        # both passes drew the same number of values
        assert np.array_equal(rng_a.uniform(1, 3), rng_b.uniform(1, 3)), ablation
        assert not np.array_equal(a.recon_s, c.recon_s), ablation


def test_forward_shared_corruption_feeds_both_paths():
    config, params = toy_params()
    x = binary_rows(4, 5)
    batch = csr(x)
    trace = forward(params, config, batch, Rng(9), training=True)
    # replay forward's draws in its order: the dropout mask, then the noise
    rng = Rng(9)
    mask = sample_dropout_mask(rng, 5, 11, config.keep_prob, batch.flat_index())
    noise = sample_gumbel(rng, 5, config.k)
    masked = row_l2_normalize(x) * dense(batch, mask) * (1.0 / config.keep_prob)
    assert trace.x.tobytes() == masked.tobytes()
    # the dropped input the views decompose is the one the logits saw
    assert trace.proj.tobytes() == (trace.x @ trace.item_norm).tobytes()
    logits = trace.proj @ trace.core_norm.T
    assert trace.assign.tobytes() == softmax_rows(logits + noise, config.tau).tobytes()
    views = [trace.x * trace.assign[:, i:i + 1] for i in range(config.k)]
    assert np.max(np.abs(sum(views) - trace.x)) < 1e-9


def test_forward_without_dropout_keeps_input():
    config, params = toy_params()
    x = binary_rows(4, 5)
    no_drop = ModelConfig(k=3, embed_dim=8, hidden=16, keep_prob=1.0)
    for cfg, training in ((config, False), (no_drop, True)):
        rng = Rng(9)
        trace = forward(params, cfg, csr(x), rng, training=training)
        assert np.array_equal(trace.x, row_l2_normalize(x))
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
        trace = forward(params, config, csr(x), Rng(40 + k), training=training)
        worst = 0.0
        embs = []
        for i in range(trace.assign.shape[1]):
            view = trace.x * trace.assign[:, i:i + 1]
            hidden = np.tanh(view @ params.enc_w1 + params.enc_b1)
            embs.append(hidden @ params.enc_w2 + params.enc_b2)
            worst = max(worst, np.abs(trace.enc_hidden[i] - hidden).max(),
                        np.abs(trace.view_embs[i] - embs[i]).max())
        for gate, recon, cols in ((trace.gate_s, trace.recon_s, slice(0, 6)),
                                  (trace.gate_t, trace.recon_t, slice(6, 11))):
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
    item_norm = core_norm = proj = None
    if config.ablation == "single_view":
        assign = np.ones((b, 1))
    else:
        item_norm = row_l2_normalize(params.item_emb)
        core_norm = row_l2_normalize(params.core_emb)
        proj = x @ item_norm
        assign = gumbel_softmax_assign(proj @ core_norm.T, config.tau, rng, training,
                                       config.ablation)
    enc_proj = x @ params.enc_w1
    enc_hidden, view_embs = encode_rows(params, enc_proj, assign)
    gate_s = gate_weights(params, "s", config.ablation)
    gate_t = gate_weights(params, "t", config.ablation)
    z_s, z_t = combine_views(view_embs, gate_s), combine_views(view_embs, gate_t)
    dec_hidden_s, recon_s = decode(params, z_s, "s")
    dec_hidden_t, recon_t = decode(params, z_t, "t")
    return ForwardTrace(
        training=training, x=x, item_norm=item_norm, core_norm=core_norm, proj=proj,
        assign=assign, enc_proj=enc_proj, enc_hidden=enc_hidden, view_embs=view_embs,
        gate_s=gate_s, gate_t=gate_t, z_s=z_s, z_t=z_t, dec_hidden_s=dec_hidden_s,
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
        trace = forward(params, config, csr(raw), Rng(trial), training=training)
        ref = dense_reference_forward(params, config, raw, Rng(trial), training)
        assert np.array_equal(trace.x, ref.x)
        assert np.array_equal(trace.recon_s, ref.recon_s)
        assert np.array_equal(trace.recon_t, ref.recon_t)
        if training:
            targets = csr(raw)
            grads = backward(trace, residuals(trace, targets), params, config)
            expect = backward(ref, residuals(ref, targets), params, config)
            for name in PARAM_FIELDS:
                assert np.array_equal(grads[name], expect[name]), (trial, name)


def test_forward_rejects_wrong_width():
    config, params = toy_params()
    with pytest.raises(ShapeError):
        forward(params, config, csr(np.ones((2, 10))))


@pytest.mark.parametrize("columns", [[1, 1], [2, 1]], ids=["repeated", "descending"])
def test_forward_rejects_columns_that_do_not_ascend(columns):
    # A row is normalized by its entry count, which a repeated column
    # would inflate; only strictly ascending columns rule that out.
    config, params = toy_params()
    batch = CsrRows(np.array([0, 2]), np.array(columns, dtype=np.int64), 11)
    with pytest.raises(ShapeError, match="ascend strictly"):
        forward(params, config, batch)


def forward_peak_bytes(k):
    """Peak traced bytes of one training forward, B = 64 and N = 2000."""
    config = ModelConfig(k=k, embed_dim=32, hidden=64)
    params = init_params(config, 1200, 800, Rng(0))
    batch = csr((Rng(1).uniform(64, 2000) < 0.05).astype(float))
    tracemalloc.start()
    try:
        forward(params, config, batch, Rng(2), training=True)
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
    base = ModelConfig(k=1, embed_dim=8, hidden=16, tau=0.2, keep_prob=0.5, lam=0.5)
    params = init_params(base, 6, 5, Rng(0))
    sv = replace(base, ablation="single_view")
    x = binary_rows(4, 5)
    a = forward(params, base, csr(x))
    b = forward(params, sv, csr(x))
    assert np.max(np.abs(a.recon_s - b.recon_s)) < 1e-9
    assert np.max(np.abs(a.recon_t - b.recon_t)) < 1e-9


def test_forward_padded_user_gets_uniform_assignment():
    config, params = toy_params(k=3)
    x = binary_rows(4, 5)
    x[2] = 0.0
    trace = forward(params, config, csr(x))
    assert np.allclose(trace.assign[2], np.full(3, 1 / 3), atol=1e-12)


def test_forward_trace_shapes():
    config, params = toy_params(k=3, embed=8, hidden=16, n_s=6, n_t=5)
    x = binary_rows(1, 4)
    trace = forward(params, config, csr(x), Rng(2), training=True)
    assert trace.x.shape == (4, 11)
    assert trace.proj.shape == (4, 8)
    assert trace.assign.shape == (4, 3)
    assert len(trace.view_embs) == 3 and trace.view_embs[0].shape == (4, 8)
    assert trace.gate_s.shape == (3,) and trace.gate_t.shape == (3,)
    assert trace.z_s.shape == (4, 8) and trace.z_t.shape == (4, 8)
    assert trace.recon_s.shape == (4, 6)
    assert trace.recon_t.shape == (4, 5)


def test_forward_single_view_skips_logit_path():
    config = ModelConfig(k=4, embed_dim=8, hidden=16, tau=0.2, keep_prob=0.5,
                         lam=0.5, ablation="single_view")
    params = init_params(config, 6, 5, Rng(0))
    trace = forward(params, config, csr(binary_rows(1, 4)), Rng(2), training=True)
    assert trace.item_norm is None and trace.core_norm is None and trace.proj is None
    assert np.array_equal(trace.assign, np.ones((4, 1)))


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
