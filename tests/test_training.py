import json
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mdap import training
from mdap.data import InteractionDataset
from mdap.errors import ShapeError, TrainingDivergedError
from mdap.model import ABLATIONS, ModelConfig, PARAM_FIELDS, forward, init_params
from mdap.numerics import Rng, row_l2_normalize_grad, softmax_rows_grad
from mdap.training import (ABLATION_VARIANTS, LOG_KEYS, AdamOptimizer,
                           TrainConfig, backward, loss, residuals, run_ablation,
                           train)
from sparse_rows import csr


def stub_trace(recon_s, recon_t, gate_s, gate_t):
    """The four trace fields that residuals and loss read."""
    return SimpleNamespace(recon_s=recon_s, recon_t=recon_t, gate_s=gate_s, gate_t=gate_t)


def toy_setup(ablation="full", tau=0.5, keep_prob=0.5, lam=0.5, seed=0):
    config = ModelConfig(k=2, embed_dim=3, hidden=4, tau=tau,
                         keep_prob=keep_prob, lam=lam, ablation=ablation)
    rng = Rng(seed)
    params = init_params(config, 4, 3, rng.derive(0))
    x = (rng.derive(1).uniform(5, 7) < 0.5).astype(float)
    x[2, 0] = 1.0  # no all-zero row by accident except the padded one
    x[4] = 0.0
    return config, params, x


def test_loss_worked_example():
    recon_s = np.zeros((2, 3))
    recon_s[0, 0] = 0.5  # target is zero: squared error 0.25
    recon_t = np.zeros((2, 2))
    recon_t[1, 1] = -0.5
    trace = stub_trace(recon_s, recon_t, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    total, parts = loss(trace, residuals(trace, csr(np.zeros((2, 5)))), lam=0.5)
    assert abs(parts["rec_s"] - 0.25) < 1e-12
    assert abs(parts["rec_t"] - 0.25) < 1e-12
    assert abs(parts["orth"] - 0.25) < 1e-12  # 0.5 * (w_s . w_t) = 0.5 * 0.5
    assert abs(total - 0.75) < 1e-12


def test_loss_breakdown_sums_to_total():
    config, params, x = toy_setup()
    trace = forward(params, config, csr(x), Rng(3), training=True)
    total, parts = loss(trace, residuals(trace, csr(x)), config.lam)
    assert abs(total - (parts["rec_s"] + parts["rec_t"] + parts["orth"])) < 1e-10
    assert 0.0 <= parts["orth"] <= config.lam


def test_perfect_reconstruction_gives_zero_gradients():
    config, params, x = toy_setup(lam=0.0)
    trace = forward(params, config, csr(x), Rng(3), training=True)
    zero = (np.zeros_like(trace.recon_s), np.zeros_like(trace.recon_t))
    grads = backward(trace, zero, params, config)
    for field in PARAM_FIELDS:
        assert not np.any(grads[field]), field


def test_gate_gradient_orthogonality_coupling():
    config, params, x = toy_setup(lam=0.7)
    config_lam = ModelConfig(k=2, embed_dim=3, hidden=4, tau=0.5,
                             keep_prob=0.5, lam=0.7)
    params.gate[0] = [0.3, -0.1]
    params.gate[1] = [-0.2, 0.4]
    trace = forward(params, config_lam, csr(x), Rng(3), training=True)
    # a zero residual (targets equal to the reconstruction) leaves only
    # the lambda term
    zero = (np.zeros_like(trace.recon_s), np.zeros_like(trace.recon_t))
    grads = backward(trace, zero, params, config_lam)
    w_s, w_t = trace.gate_s, trace.gate_t
    expect_s = softmax_rows_grad(w_s[None, :], 0.7 * w_t[None, :])[0]
    expect_t = softmax_rows_grad(w_t[None, :], 0.7 * w_s[None, :])[0]
    assert np.max(np.abs(grads["gate"][0] - expect_s)) < 1e-10
    assert np.max(np.abs(grads["gate"][1] - expect_t)) < 1e-10


def fd_max_rel_error(config, seed=0, h=1e-5):
    rng = Rng(seed)
    params = init_params(config, 4, 3, rng.derive(0))
    x = (rng.derive(1).uniform(5, 7) < 0.5).astype(float)
    x[2, 0] = 1.0
    x[4] = 0.0
    batch = csr(x)
    trace = forward(params, config, batch, rng.derive(2), training=True)
    grads = backward(trace, residuals(trace, batch), params, config)

    def loss_with(p):
        # the same derived stream draws the same mask and noise again
        replay = forward(p, config, batch, rng.derive(2), training=True)
        return loss(replay, residuals(replay, batch), config.lam)[0]

    worst = 0.0
    for field in PARAM_FIELDS:
        arr = getattr(params, field)
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + h
            up = loss_with(params)
            arr[idx] = keep - h
            down = loss_with(params)
            arr[idx] = keep
            numeric = (up - down) / (2 * h)
            analytic = grads[field][idx]
            denom = max(abs(numeric) + abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst


@pytest.mark.parametrize("ablation", [name for _, name in ABLATION_VARIANTS])
def test_gradients_match_finite_differences(ablation):
    config = ModelConfig(k=2, embed_dim=3, hidden=4, tau=0.5, keep_prob=0.5,
                         lam=0.5, ablation=ablation)
    assert fd_max_rel_error(config) < 1e-4


def oracle_loss(trace, targets_s, targets_t, lam):
    """The loss from dense targets: sum((targets - recon) ** 2) per domain."""
    def squared_error(targets, recon):
        residual = targets - recon
        return float(np.sum(np.square(residual, out=residual)))
    rec_s = squared_error(targets_s, trace.recon_s)
    rec_t = squared_error(targets_t, trace.recon_t)
    orth = float(lam * np.dot(trace.gate_s, trace.gate_t))
    return rec_s + rec_t + orth, {"rec_s": rec_s, "rec_t": rec_t, "orth": orth}


def oracle_backward(trace, targets_s, targets_t, params, config):
    """backward() from dense targets, with d_recon = 2 * (recon - targets),
    zero-filled gradients and separate x^T products."""
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays()}
    d_z, gate_recon_grad = {}, {}
    for domain, targets, recon, dec_hidden, z in (
            ("s", targets_s, trace.recon_s, trace.dec_hidden_s, trace.z_s),
            ("t", targets_t, trace.recon_t, trace.dec_hidden_t, trace.z_t)):
        cols = params.domain_slice(domain)
        d_recon = recon - targets
        d_recon *= 2.0
        grads["dec_w2"][:, cols] += dec_hidden.T @ d_recon
        grads["dec_b2"][cols] += d_recon.sum(axis=0)
        d_hidden = d_recon @ params.dec_w2[:, cols].T
        d_pre = d_hidden * (1.0 - dec_hidden ** 2)
        grads["dec_w1"] += z.T @ d_pre
        grads["dec_b1"] += d_pre.sum(axis=0)
        d_z[domain] = d_pre @ params.dec_w1.T
        gate_recon_grad[domain] = np.einsum("kbl,bl->k", trace.view_embs, d_z[domain])
    if config.ablation != "no_gate":
        d_gate_s = gate_recon_grad["s"] + config.lam * trace.gate_t
        d_gate_t = gate_recon_grad["t"] + config.lam * trace.gate_s
        grads["gate"][0] = softmax_rows_grad(trace.gate_s[None, :], d_gate_s[None, :])[0]
        grads["gate"][1] = softmax_rows_grad(trace.gate_t[None, :], d_gate_t[None, :])[0]
    k, b, h = trace.enc_hidden.shape
    hidden = trace.enc_hidden.reshape(k * b, h)
    d_emb = (trace.gate_s[:, None, None] * d_z["s"]
             + trace.gate_t[:, None, None] * d_z["t"]).reshape(k * b, -1)
    grads["enc_w2"] = hidden.T @ d_emb
    grads["enc_b2"] = d_emb.sum(axis=0)
    d_pre = d_emb @ params.enc_w2.T
    d_pre *= 1.0 - hidden ** 2
    d_pre = d_pre.reshape(k, b, h)
    grads["enc_w1"] = trace.x.T @ np.einsum("bk,kbh->bh", trace.assign, d_pre)
    grads["enc_b1"] = d_pre.sum(axis=(0, 1))
    if config.ablation != "single_view":
        d_assign = np.einsum("kbh,bh->bk", d_pre, trace.enc_proj)
        d_logits = softmax_rows_grad(trace.assign, d_assign, config.tau)
        d_proj = d_logits @ trace.core_norm
        grads["core_emb"] = row_l2_normalize_grad(params.core_emb, trace.core_norm,
                                                  d_logits.T @ trace.proj)
        grads["item_emb"] = row_l2_normalize_grad(params.item_emb, trace.item_norm,
                                                  trace.x.T @ d_proj)
    return grads


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_residual_loss_and_backward_equal_dense_target_oracles(ablation):
    # 0/1 targets with empty rows, -0.0 planted in the reconstructions,
    # widths past numpy's 128-element pairwise block.
    gen = np.random.default_rng(ABLATIONS.index(ablation))
    for trial in range(8):
        n_s, n_t = int(gen.integers(2, 200)), int(gen.integers(2, 200))
        b = int(gen.integers(2, 14))
        config = ModelConfig(k=int(gen.integers(1, 5)), embed_dim=5, hidden=7,
                             keep_prob=0.5, lam=0.3, ablation=ablation)
        params = init_params(config, n_s, n_t, Rng(trial))
        params.gate[:] = Rng(trial + 50).uniform(2, config.k)
        raw = (gen.random((b, n_s + n_t)) < 0.2).astype(float)
        raw[0] = 0.0
        trace = forward(params, config, csr(raw), Rng(trial), training=True)
        trace.recon_s[gen.random(trace.recon_s.shape) < 0.1] = -0.0
        trace.recon_t[gen.random(trace.recon_t.shape) < 0.1] = -0.0
        targets_s, targets_t = raw[:, :n_s], raw[:, n_s:]

        r_s, r_t = residuals(trace, csr(raw))
        assert r_s.tobytes() == (trace.recon_s - targets_s).tobytes()
        assert r_t.tobytes() == (trace.recon_t - targets_t).tobytes()
        assert loss(trace, (r_s, r_t), config.lam) == oracle_loss(
            trace, targets_s, targets_t, config.lam)
        grads = backward(trace, (r_s, r_t), params, config)
        expect = oracle_backward(trace, targets_s, targets_t, params, config)
        assert list(grads) == list(PARAM_FIELDS)
        for name in PARAM_FIELDS:
            assert grads[name].shape == expect[name].shape, (trial, name)
            assert np.array_equal(grads[name], expect[name]), (trial, name)


def test_residuals_reject_mismatched_targets():
    config, params, x = toy_setup()
    trace = forward(params, config, csr(x), Rng(3), training=True)
    with pytest.raises(ShapeError):
        residuals(trace, csr(x[:, :-1]))
    with pytest.raises(ShapeError):
        residuals(trace, csr(x[:-1]))
    with pytest.raises(ShapeError):
        loss(trace, (trace.recon_s, trace.recon_t[:, :-1]), config.lam)


def test_train_step_forms_each_residual_once_from_the_batch(small_dataset, monkeypatch):
    # Every step forms one residual pair against the batch it just built
    # and hands that pair to loss and backward.
    batches, formed, used = [], [], []
    real_batch, real_residuals, real_loss, real_backward = (
        training.sparse_batch, training.residuals, training.loss, training.backward)

    def spy_batch(dataset, users):
        batches.append(real_batch(dataset, users))
        return batches[-1]

    def spy_residuals(trace, targets):
        assert targets is batches[-1]
        formed.append(real_residuals(trace, targets))
        return formed[-1]

    def spy_loss(trace, r, lam):
        used.append(("loss", r))
        return real_loss(trace, r, lam)

    def spy_backward(trace, r, params, config):
        used.append(("backward", r))
        return real_backward(trace, r, params, config)

    monkeypatch.setattr(training, "sparse_batch", spy_batch)
    monkeypatch.setattr(training, "residuals", spy_residuals)
    monkeypatch.setattr(training, "loss", spy_loss)
    monkeypatch.setattr(training, "backward", spy_backward)
    config = small_train_config(epochs=2, patience=2)
    train(small_dataset, config, eval_fn=metric_schedule([0.5]))
    steps = 2 * -(-small_dataset.n_users // config.batch_users)
    assert len(batches) == len(formed) == steps
    assert [kind for kind, _ in used] == ["loss", "backward"] * steps
    assert all(r is formed[i // 2] for i, (_, r) in enumerate(used))


def test_train_frees_the_last_step_before_validation(small_dataset, monkeypatch):
    # Validation runs with none of the last step's trace, residuals or
    # gradients alive, so they do not add to its peak memory.
    refs, validated = [], []
    real_forward, real_residuals, real_backward = (
        training.forward, training.residuals, training.backward)

    def spy_forward(*args, **kwargs):
        trace = real_forward(*args, **kwargs)
        refs.append(weakref.ref(trace))
        return trace

    def spy_residuals(trace, targets):
        r = real_residuals(trace, targets)
        refs.extend(weakref.ref(a) for a in r)
        return r

    def spy_backward(trace, r, params, config):
        grads = real_backward(trace, r, params, config)
        refs.extend(weakref.ref(g) for g in grads.values())
        return grads

    def eval_fn(params, epoch):
        alive = [ref() for ref in refs if ref() is not None]
        assert refs and not alive, f"{len(alive)} of {len(refs)} still alive"
        validated.append(epoch)
        return metric_schedule([0.5])(params, epoch)

    monkeypatch.setattr(training, "forward", spy_forward)
    monkeypatch.setattr(training, "residuals", spy_residuals)
    monkeypatch.setattr(training, "backward", spy_backward)
    train(small_dataset, small_train_config(epochs=2, patience=2), eval_fn=eval_fn)
    assert validated == [1, 2]


def test_train_runs_an_epoch_without_users():
    # An epoch with no steps still validates and logs
    empty = InteractionDataset([], ["s0", "s1"], ["t0"], {})
    params, log = train(empty, small_train_config(epochs=1, patience=1))
    assert [rec["epoch"] for rec in log.records] == [1] and log.best_epoch == 1
    assert log.records[0]["loss_total"] == 0.0


def test_adam_optimizer_moves_every_field():
    config, params, x = toy_setup()
    trace = forward(params, config, csr(x), Rng(3), training=True)
    grads = backward(trace, residuals(trace, csr(x)), params, config)
    before = {f: getattr(params, f).copy() for f in PARAM_FIELDS}
    opt = AdamOptimizer(params, lr=1e-2)
    opt.step(params, grads)
    moved = [f for f in PARAM_FIELDS if not np.array_equal(before[f], getattr(params, f))]
    assert "item_emb" in moved and "dec_w2" in moved and "gate" in moved


def metric_schedule(values):
    def eval_fn(params, epoch):
        v = values[min(epoch, len(values)) - 1]
        return {"recall_s": v, "recall_t": v, "ndcg_s": v, "ndcg_t": v}
    return eval_fn


def small_train_config(epochs, patience, seed=0):
    model = ModelConfig(k=2, embed_dim=8, hidden=16, tau=0.2, keep_prob=0.5, lam=0.5)
    return TrainConfig(model=model, epochs_max=epochs, patience=patience,
                       batch_users=64, lr=1e-3, eval_k=20, seed=seed)


def test_early_stopping_counts_epochs(small_dataset):
    config = small_train_config(epochs=50, patience=1)
    params, log = train(small_dataset, config, eval_fn=metric_schedule([0.5]))
    assert len(log.records) == 2  # epoch 1 improves, epoch 2 stalls, stop
    assert log.best_epoch == 1


def test_best_epoch_snapshot_is_returned(small_dataset):
    schedule = [0.5, 0.9, 0.1, 0.1]
    long_cfg = small_train_config(epochs=4, patience=10)
    params_long, log_long = train(small_dataset, long_cfg,
                                  eval_fn=metric_schedule(schedule))
    assert log_long.best_epoch == 2
    assert len(log_long.records) == 4
    short_cfg = small_train_config(epochs=2, patience=10)
    params_short, _ = train(small_dataset, short_cfg,
                            eval_fn=metric_schedule(schedule))
    for field in PARAM_FIELDS:
        assert np.array_equal(getattr(params_long, field),
                              getattr(params_short, field)), field


def test_best_epoch_snapshot_is_untouched_by_later_steps(small_dataset):
    # Adam updates the live params in place; the returned best-epoch
    # snapshot must not share their arrays.
    snapshots = {}

    def eval_fn(params, epoch):
        snapshots[epoch] = params.copy()
        v = 0.9 if epoch == 1 else 0.1
        return {"recall_s": v, "recall_t": v, "ndcg_s": v, "ndcg_t": v}

    params, log = train(small_dataset, small_train_config(epochs=3, patience=10),
                        eval_fn=eval_fn)
    assert log.best_epoch == 1 and len(log.records) == 3
    for field in PARAM_FIELDS:
        assert np.array_equal(getattr(params, field), getattr(snapshots[1], field)), field
    assert not np.array_equal(params.dec_w2, snapshots[3].dec_w2)


def test_training_is_deterministic(small_dataset):
    config = small_train_config(epochs=3, patience=3, seed=11)
    params_a, log_a = train(small_dataset, config)
    params_b, log_b = train(small_dataset, config)
    assert log_a.to_jsonl() == log_b.to_jsonl()
    for field in PARAM_FIELDS:
        assert np.array_equal(getattr(params_a, field), getattr(params_b, field))


def test_train_log_key_order(small_dataset):
    config = small_train_config(epochs=2, patience=2)
    _, log = train(small_dataset, config)
    lines = log.to_jsonl().strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        assert list(json.loads(line)) == list(LOG_KEYS)


def test_train_log_write_round_trip(small_dataset, tmp_path):
    config = small_train_config(epochs=2, patience=2)
    _, log = train(small_dataset, config)
    path = tmp_path / "log.jsonl"
    log.write(str(path))
    assert path.read_text() == log.to_jsonl()


def test_divergence_raises_with_epoch(small_dataset):
    config = small_train_config(epochs=3, patience=3)
    config = TrainConfig(model=config.model, epochs_max=3, patience=3,
                         batch_users=64, lr=1e308, eval_k=20, seed=0)
    with pytest.raises(TrainingDivergedError) as err:
        train(small_dataset, config, eval_fn=metric_schedule([0.5]))
    assert 1 <= err.value.epoch <= 3
    assert str(err.value.epoch) in str(err.value)


def test_non_finite_gradient_raises_before_the_step(small_dataset, monkeypatch):
    real_backward = training.backward
    steps = []

    def inf_backward(*args, **kwargs):
        grads = real_backward(*args, **kwargs)
        grads["dec_b1"][0] = np.inf
        return grads

    monkeypatch.setattr(training, "backward", inf_backward)
    monkeypatch.setattr(AdamOptimizer, "step", lambda self, *args: steps.append(1))
    config = small_train_config(epochs=3, patience=3)
    with pytest.raises(TrainingDivergedError, match="non-finite gradient of dec_b1") as err:
        train(small_dataset, config, eval_fn=metric_schedule([0.5]))
    assert err.value.epoch == 1
    assert steps == []


def test_run_ablation_covers_all_variants(small_dataset):
    config = small_train_config(epochs=2, patience=2, seed=5)
    report, artifacts = run_ablation(small_dataset, config)
    assert [row["variant"] for row in report.rows] == \
        [name for name, _ in ABLATION_VARIANTS]
    assert [row["ablation"] for row in report.rows] == \
        [ab for _, ab in ABLATION_VARIANTS]
    assert set(artifacts) == {name for name, _ in ABLATION_VARIANTS}
    for row in report.rows:
        for key in ("recall_s", "ndcg_s", "recall_t", "ndcg_t"):
            assert 0.0 <= row[key] <= 1.0
    table = report.format_table()
    for name, _ in ABLATION_VARIANTS:
        assert name in table
    payload = report.to_dict()
    assert payload["seed"] == 5 and len(payload["rows"]) == 4


def test_run_ablation_no_gate_logs_uniform_gates(small_dataset):
    config = small_train_config(epochs=2, patience=2)
    _, artifacts = run_ablation(small_dataset, config)
    # no_gate mixes views uniformly and never moves the gate table
    params, log = artifacts["MDAP-DG"]
    assert params.gate.shape == (2, config.model.k)
    assert not params.gate.any()
    assert len(log.records) == 2


def test_single_view_variant_trains_with_one_view(small_dataset):
    base = small_train_config(epochs=2, patience=2)
    sv = TrainConfig(model=replace(base.model, ablation="single_view"),
                     epochs_max=2, patience=2, batch_users=64, lr=1e-3,
                     eval_k=20, seed=0)
    params, log = train(small_dataset, sv, eval_fn=metric_schedule([0.5, 0.6]))
    assert params.gate.shape == (2, 1)
    assert len(log.records) == 2
