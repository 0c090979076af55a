import json
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mdap import training
from mdap.data import InteractionDataset, sparse_batch
from mdap.errors import ParameterError, ShapeError, TrainingDivergedError
from mdap.evaluation import evaluate
from mdap.model import (ABLATION_VARIANTS, ABLATIONS, ModelConfig, PARAM_FIELDS, forward,
                        init_params)
from mdap.numerics import Rng, row_l2_normalize_grad, softmax_rows_grad
from mdap.training import LOG_KEYS, AdamOptimizer, TrainConfig, backward, train
from sparse_rows import csr, dense_x


TRAIN_INT_FIELDS = ("epochs_max", "patience", "batch_users", "eval_k", "seed")


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(4.0), True, np.bool_(False), "4", None],
                         ids=["float", "integral-float", "numpy-float", "bool", "numpy-bool",
                              "str", "none"])
@pytest.mark.parametrize("name", TRAIN_INT_FIELDS)
def test_train_config_rejects_non_integer_fields(name, value):
    with pytest.raises(ParameterError, match=name):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name", TRAIN_INT_FIELDS)
def test_train_config_range_of_integer_fields(name):
    low = 0 if name == "seed" else 1
    with pytest.raises(ParameterError, match=name):
        TrainConfig(**{name: low - 1})
    config = TrainConfig(**{name: np.int64(low)})
    assert type(getattr(config, name)) is int and getattr(config, name) == low


@pytest.mark.parametrize("value", [True, np.bool_(False), "1e-3", None, 1j],
                         ids=["bool", "numpy-bool", "str", "none", "complex"])
def test_train_config_rejects_non_real_lr(value):
    with pytest.raises(ParameterError, match="lr must be a real number"):
        TrainConfig(lr=value)


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
    # two empty rows over 3 + 2 items, with reconstructions and gates planted
    config = ModelConfig(k=2, embed_dim=3, hidden=4, lam=0.5)
    params = init_params(config, 3, 2, Rng(0))
    trace = forward(params, config, csr(np.zeros((2, 5))), Rng(1))
    trace.recon_s[:] = 0.0
    trace.recon_s[0, 0] = 0.5  # target is zero: squared error 0.25
    trace.recon_t[:] = 0.0
    trace.recon_t[1, 1] = -0.5
    trace.gates = np.full((2, 2), 0.5)
    total, parts, _ = backward(trace, params, config)
    assert abs(parts["rec_s"] - 0.25) < 1e-12
    assert abs(parts["rec_t"] - 0.25) < 1e-12
    assert abs(parts["orth"] - 0.25) < 1e-12  # 0.5 * (w_s . w_t) = 0.5 * 0.5
    assert abs(total - 0.75) < 1e-12


def test_loss_breakdown_sums_to_total():
    config, params, x = toy_setup()
    trace = forward(params, config, csr(x), Rng(3))
    total, parts, _ = backward(trace, params, config)
    assert abs(total - (parts["rec_s"] + parts["rec_t"] + parts["orth"])) < 1e-10
    assert 0.0 <= parts["orth"] <= config.lam


def plant_perfect_reconstruction(trace, x):
    """Overwrite the trace's reconstructions with the batch x it scores
    them against, so that both residuals are exactly zero."""
    n_s = trace.recon_s.shape[1]
    trace.recon_s[:] = x[:, :n_s]
    trace.recon_t[:] = x[:, n_s:]


def test_perfect_reconstruction_gives_zero_gradients():
    config, params, x = toy_setup(lam=0.0)
    trace = forward(params, config, csr(x), Rng(3))
    plant_perfect_reconstruction(trace, x)
    total, _, grads = backward(trace, params, config)
    assert total == 0.0
    for field in PARAM_FIELDS:
        assert not np.any(grads[field]), field


def test_gate_gradient_orthogonality_coupling():
    config, params, x = toy_setup(lam=0.7)
    config_lam = ModelConfig(k=2, embed_dim=3, hidden=4, tau=0.5,
                             keep_prob=0.5, lam=0.7)
    params.gate[0] = [0.3, -0.1]
    params.gate[1] = [-0.2, 0.4]
    trace = forward(params, config_lam, csr(x), Rng(3))
    # a zero residual (targets equal to the reconstruction) leaves only
    # the lambda term
    plant_perfect_reconstruction(trace, x)
    grads = backward(trace, params, config_lam)[2]
    w_s, w_t = trace.gates
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
    trace = forward(params, config, batch, rng.derive(2))
    grads = backward(trace, params, config)[2]

    def loss_with(p):
        # the same derived stream draws the same mask and noise again
        replay = forward(p, config, batch, rng.derive(2))
        return backward(replay, p, config)[0]

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
    orth = float(lam * np.dot(trace.gates[0], trace.gates[1]))
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
        d_gate_s = gate_recon_grad["s"] + config.lam * trace.gates[1]
        d_gate_t = gate_recon_grad["t"] + config.lam * trace.gates[0]
        grads["gate"][0] = softmax_rows_grad(trace.gates[0][None, :], d_gate_s[None, :])[0]
        grads["gate"][1] = softmax_rows_grad(trace.gates[1][None, :], d_gate_t[None, :])[0]
    k, b, h = trace.enc_hidden.shape
    hidden = trace.enc_hidden.reshape(k * b, h)
    d_emb = (trace.gates[0][:, None, None] * d_z["s"]
             + trace.gates[1][:, None, None] * d_z["t"]).reshape(k * b, -1)
    grads["enc_w2"] = hidden.T @ d_emb
    grads["enc_b2"] = d_emb.sum(axis=0)
    d_pre = d_emb @ params.enc_w2.T
    d_pre *= 1.0 - hidden ** 2
    d_pre = d_pre.reshape(k, b, h)
    grads["enc_w1"] = dense_x(trace.x).T @ np.einsum("bk,kbh->bh", trace.assign, d_pre)
    grads["enc_b1"] = d_pre.sum(axis=(0, 1))
    if config.ablation != "single_view":
        d_assign = np.einsum("kbh,bh->bk", d_pre, trace.enc_proj)
        d_logits = softmax_rows_grad(trace.assign, d_assign, config.tau)
        d_proj = d_logits @ trace.core_norm
        grads["core_emb"] = row_l2_normalize_grad(params.core_emb, trace.core_norm,
                                                  d_logits.T @ trace.proj)
        grads["item_emb"] = row_l2_normalize_grad(params.item_emb, trace.item_norm,
                                                  dense_x(trace.x).T @ d_proj)
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
        trace = forward(params, config, csr(raw), Rng(trial))
        trace.recon_s[gen.random(trace.recon_s.shape) < 0.1] = -0.0
        trace.recon_t[gen.random(trace.recon_t.shape) < 0.1] = -0.0
        targets_s, targets_t = raw[:, :n_s], raw[:, n_s:]
        # backward spends the trace, so the oracles read a copy taken before it
        before = replace(trace, recon_s=trace.recon_s.copy(), recon_t=trace.recon_t.copy())

        total, parts, grads = backward(trace, params, config)
        # the residuals backward formed in the trace's own reconstructions
        assert trace.recon_s.tobytes() == (before.recon_s - targets_s).tobytes()
        assert trace.recon_t.tobytes() == (before.recon_t - targets_t).tobytes()
        assert (total, parts) == oracle_loss(before, targets_s, targets_t, config.lam)
        expect = oracle_backward(before, targets_s, targets_t, params, config)
        assert list(grads) == list(PARAM_FIELDS)
        for name in PARAM_FIELDS:
            assert grads[name].shape == expect[name].shape, (trial, name)
            assert np.array_equal(grads[name], expect[name]), (trial, name)


def test_backward_spends_its_trace():
    # backward leaves each residual recon - batch in the trace's
    # reconstructions; a second call, which would score those residuals
    # as reconstructions, is refused and changes nothing. A call refused
    # for its params spends nothing.
    config, params, x = toy_setup()
    trace = forward(params, config, csr(x), Rng(3))
    recon_s, recon_t = trace.recon_s.copy(), trace.recon_t.copy()
    with pytest.raises(ShapeError):
        backward(trace, init_params(config, 5, 3, Rng(0)), config)
    assert not trace.spent
    first = backward(trace, params, config)
    assert trace.spent
    assert trace.recon_s.tobytes() == (recon_s - x[:, :4]).tobytes()
    assert trace.recon_t.tobytes() == (recon_t - x[:, 4:]).tobytes()
    residuals = trace.recon_s.copy(), trace.recon_t.copy()
    with pytest.raises(ParameterError, match="already passed to backward"):
        backward(trace, params, config)
    assert trace.recon_s.tobytes() == residuals[0].tobytes()
    assert trace.recon_t.tobytes() == residuals[1].tobytes()
    # a fresh pass on the same stream gives the first call's loss again
    again = backward(forward(params, config, csr(x), Rng(3)), params, config)
    assert again[:2] == first[:2]


def test_train_step_forms_each_residual_once_from_the_batch(small_dataset, monkeypatch):
    # Every step runs forward on the batch it just built, then backward
    # once on that trace, which scores the reconstructions against the
    # trace's batch: the same object, not a copy.
    batches, calls = [], []
    real_batch, real_forward, real_backward = (
        training.sparse_batch, training.forward, training.backward)

    def spy_batch(dataset, users):
        batches.append(real_batch(dataset, users))
        return batches[-1]

    def spy_forward(*args, **kwargs):
        calls.append(("forward", real_forward(*args, **kwargs)))
        return calls[-1][1]

    def spy_backward(trace, params, config):
        calls.append(("backward", trace))
        return real_backward(trace, params, config)

    monkeypatch.setattr(training, "sparse_batch", spy_batch)
    monkeypatch.setattr(training, "forward", spy_forward)
    monkeypatch.setattr(training, "backward", spy_backward)
    script_validation(monkeypatch, [0.5])
    config = small_train_config(epochs=2, patience=2)
    train(small_dataset, config)
    steps = 2 * -(-small_dataset.n_users // config.batch_users)
    assert len(batches) == steps
    assert [kind for kind, _ in calls] == ["forward", "backward"] * steps
    for i, batch in enumerate(batches):
        assert calls[2 * i][1] is calls[2 * i + 1][1] and calls[2 * i][1].batch is batch


def test_train_frees_the_last_step_before_validation(small_dataset, monkeypatch):
    # Validation runs with none of the last step's trace, batch or
    # gradients alive, so they do not add to its peak memory.
    refs, validated = [], []
    real_forward, real_backward = training.forward, training.backward

    def spy_forward(*args, **kwargs):
        trace = real_forward(*args, **kwargs)
        refs.extend((weakref.ref(trace), weakref.ref(trace.batch)))
        return trace

    def spy_backward(trace, params, config):
        result = real_backward(trace, params, config)
        refs.extend(weakref.ref(g) for g in result[2].values())
        return result

    def on_call(params, epoch):
        alive = [ref() for ref in refs if ref() is not None]
        assert refs and not alive, f"{len(alive)} of {len(refs)} still alive"
        validated.append(epoch)

    monkeypatch.setattr(training, "forward", spy_forward)
    monkeypatch.setattr(training, "backward", spy_backward)
    script_validation(monkeypatch, [0.5], on_call)
    train(small_dataset, small_train_config(epochs=2, patience=2))
    assert validated == [1, 2]


def test_train_runs_an_epoch_without_users():
    # An epoch with no steps still validates and logs
    empty = InteractionDataset([], ["s0", "s1"], ["t0"], {})
    params, log = train(empty, small_train_config(epochs=1, patience=1))
    assert [rec["epoch"] for rec in log.records] == [1] and log.best_epoch == 1
    assert log.records[0]["loss_total"] == 0.0


def test_adam_optimizer_moves_every_field():
    config, params, x = toy_setup()
    trace = forward(params, config, csr(x), Rng(3))
    grads = backward(trace, params, config)[2]
    before = {f: getattr(params, f).copy() for f in PARAM_FIELDS}
    opt = AdamOptimizer(params, lr=1e-2)
    opt.step(params, grads)
    moved = [f for f in PARAM_FIELDS if not np.array_equal(before[f], getattr(params, f))]
    assert "item_emb" in moved and "dec_w2" in moved and "gate" in moved


def script_validation(monkeypatch, values, on_call=None):
    """Replace train's validation with a fake whose recall and NDCG in both
    domains are values[epoch - 1], the last value repeating; on_call(params,
    epoch), if given, runs first."""
    epochs = []

    def fake_evaluate(params, config, dataset, split, k):
        epochs.append(len(epochs) + 1)
        if on_call is not None:
            on_call(params, epochs[-1])
        v = values[min(epochs[-1], len(values)) - 1]
        return SimpleNamespace(domains={d: {"recall": v, "ndcg": v} for d in ("s", "t")})

    monkeypatch.setattr(training, "evaluate", fake_evaluate)


def small_train_config(epochs, patience, seed=0):
    model = ModelConfig(k=2, embed_dim=8, hidden=16, tau=0.2, keep_prob=0.5, lam=0.5)
    return TrainConfig(model=model, epochs_max=epochs, patience=patience,
                       batch_users=64, lr=1e-3, eval_k=20, seed=seed)


def test_early_stopping_counts_epochs(small_dataset, monkeypatch):
    script_validation(monkeypatch, [0.5])
    config = small_train_config(epochs=50, patience=1)
    params, log = train(small_dataset, config)
    assert len(log.records) == 2  # epoch 1 improves, epoch 2 stalls, stop
    assert log.best_epoch == 1


def test_best_epoch_snapshot_is_returned(small_dataset, monkeypatch):
    schedule = [0.5, 0.9, 0.1, 0.1]
    long_cfg = small_train_config(epochs=4, patience=10)
    script_validation(monkeypatch, schedule)
    params_long, log_long = train(small_dataset, long_cfg)
    assert log_long.best_epoch == 2
    assert len(log_long.records) == 4
    short_cfg = small_train_config(epochs=2, patience=10)
    script_validation(monkeypatch, schedule)
    params_short, _ = train(small_dataset, short_cfg)
    for field in PARAM_FIELDS:
        assert np.array_equal(getattr(params_long, field),
                              getattr(params_short, field)), field


def test_best_epoch_snapshot_is_untouched_by_later_steps(small_dataset, monkeypatch):
    # Adam updates the live params in place; the returned best-epoch
    # snapshot must not share their arrays.
    snapshots = {}

    def on_call(params, epoch):
        snapshots[epoch] = params.copy()

    script_validation(monkeypatch, [0.9, 0.1], on_call)
    params, log = train(small_dataset, small_train_config(epochs=3, patience=10))
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


def test_train_log_records_validation_of_the_valid_split(small_dataset):
    # one epoch: the returned params are the ones that epoch validated
    config = replace(small_train_config(epochs=1, patience=1), eval_k=5)
    params, log = train(small_dataset, config)
    domains = evaluate(params, config.model, small_dataset, "valid", k=5).domains
    (record,) = log.records
    for d in ("s", "t"):
        assert record[f"val_recall20_{d}"] == domains[d]["recall"]
        assert record[f"val_ndcg20_{d}"] == domains[d]["ndcg"]
    assert record["loss_total"] == (record["loss_rec_s"] + record["loss_rec_t"]
                                    + record["loss_orth"])


def test_train_log_write_round_trip(small_dataset, tmp_path):
    config = small_train_config(epochs=2, patience=2)
    _, log = train(small_dataset, config)
    path = tmp_path / "log.jsonl"
    log.write(str(path))
    assert path.read_text() == log.to_jsonl()


def test_divergence_raises_with_epoch(small_dataset, monkeypatch):
    config = small_train_config(epochs=3, patience=3)
    config = TrainConfig(model=config.model, epochs_max=3, patience=3,
                         batch_users=64, lr=1e308, eval_k=20, seed=0)
    script_validation(monkeypatch, [0.5])
    with pytest.raises(TrainingDivergedError) as err:
        train(small_dataset, config)
    assert 1 <= err.value.epoch <= 3
    assert str(err.value.epoch) in str(err.value)


def test_non_finite_gradient_raises_before_the_step(small_dataset, monkeypatch):
    real_backward = training.backward
    steps = []

    def inf_backward(*args, **kwargs):
        total, parts, grads = real_backward(*args, **kwargs)
        grads["dec_b1"][0] = np.inf
        return total, parts, grads

    monkeypatch.setattr(training, "backward", inf_backward)
    monkeypatch.setattr(AdamOptimizer, "step", lambda self, *args: steps.append(1))
    script_validation(monkeypatch, [0.5])
    config = small_train_config(epochs=3, patience=3)
    with pytest.raises(TrainingDivergedError, match="non-finite gradient of dec_b1") as err:
        train(small_dataset, config)
    assert err.value.epoch == 1
    assert steps == []


def test_overflowing_loss_with_finite_gradients_raises_before_the_step(small_dataset,
                                                                       monkeypatch):
    # dec_b2 = 1e154 puts every reconstruction near 1e154: each squared
    # residual is ~1e308, so the loss overflows to inf while every gradient
    # stays finite. Only the loss check stops this run.
    real_init, real_backward = training.init_params, training.backward
    results, steps = [], []

    def huge_output_bias(*args):
        params = real_init(*args)
        params.dec_b2[:] = 1e154
        return params

    def spy_backward(*args):
        results.append(real_backward(*args))
        return results[-1]

    monkeypatch.setattr(training, "init_params", huge_output_bias)
    monkeypatch.setattr(training, "backward", spy_backward)
    monkeypatch.setattr(AdamOptimizer, "step", lambda self, *args: steps.append(1))
    script_validation(monkeypatch, [0.5])
    with pytest.raises(TrainingDivergedError, match="non-finite loss at epoch 1") as err:
        train(small_dataset, small_train_config(epochs=3, patience=3))
    assert err.value.epoch == 1 and steps == []
    ((total, _, grads),) = results
    assert total == np.inf
    assert all(np.isfinite(grad).all() for grad in grads.values())


class FirstForward(Exception):
    """Raised to stop train once its first forward has been recorded."""


def test_first_step_replays_from_the_keyed_streams(small_dataset, monkeypatch):
    # train draws each kind of randomness from its own sub-stream of the
    # seed: the parameters from derive(0), the epoch's user order from
    # derive(1), the dropout mask and Gumbel noise from derive(2). Its
    # first forward is a replay of exactly those.
    seen = {}
    real_forward = training.forward

    def first_forward(*args, **kwargs):
        trace = real_forward(*args, **kwargs)
        seen.update(x=dense_x(trace.x).copy(), assign=trace.assign.copy(),
                    recon_s=trace.recon_s.copy(), recon_t=trace.recon_t.copy())
        raise FirstForward

    monkeypatch.setattr(training, "forward", first_forward)
    config = small_train_config(epochs=1, patience=1, seed=4)
    with pytest.raises(FirstForward):
        train(small_dataset, config)
    root = Rng(config.seed)
    params = init_params(config.model, small_dataset.n_items("s"), small_dataset.n_items("t"),
                         root.derive(0))
    users = root.derive(1).permutation(small_dataset.n_users)[:config.batch_users]
    replay = forward(params, config.model, sparse_batch(small_dataset, users), root.derive(2))
    assert seen["x"].tobytes() == dense_x(replay.x).tobytes()
    for name in ("assign", "recon_s", "recon_t"):
        assert seen[name].tobytes() == getattr(replay, name).tobytes(), name


def test_single_view_variant_trains_with_one_view(small_dataset, monkeypatch):
    base = small_train_config(epochs=2, patience=2)
    sv = TrainConfig(model=replace(base.model, ablation="single_view"),
                     epochs_max=2, patience=2, batch_users=64, lr=1e-3,
                     eval_k=20, seed=0)
    script_validation(monkeypatch, [0.5, 0.6])
    params, log = train(small_dataset, sv)
    assert params.gate.shape == (2, 1)
    assert len(log.records) == 2
