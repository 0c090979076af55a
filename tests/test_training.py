import json

import numpy as np
import pytest

from mdap import training
from mdap.errors import TrainingDivergedError
from mdap.model import (ForwardTrace, ModelConfig, PARAM_FIELDS, forward,
                        init_params, variant_config)
from mdap.numerics import Rng, softmax_rows_grad
from mdap.training import (ABLATION_VARIANTS, LOG_KEYS, AdamOptimizer,
                           TrainConfig, backward, loss, run_ablation, train)


def stub_trace(recon_s, recon_t, gate_s, gate_t):
    return ForwardTrace(
        config=ModelConfig(), training=False, raw_rows=None, x_norm=None,
        input_mask=None, x=None, item_norm=None, core_norm=None, proj=None,
        logits=None, gumbel=None, assign=None, gate_s=gate_s, gate_t=gate_t,
        recon_s=recon_s, recon_t=recon_t)


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
    total, parts = loss(trace, np.zeros((2, 3)), np.zeros((2, 2)), lam=0.5)
    assert abs(parts["rec_s"] - 0.25) < 1e-12
    assert abs(parts["rec_t"] - 0.25) < 1e-12
    assert abs(parts["orth"] - 0.25) < 1e-12  # 0.5 * (w_s . w_t) = 0.5 * 0.5
    assert abs(total - 0.75) < 1e-12


def test_loss_breakdown_sums_to_total():
    config, params, x = toy_setup()
    trace = forward(params, config, x, Rng(3), training=True)
    total, parts = loss(trace, x[:, :4], x[:, 4:], config.lam)
    assert abs(total - (parts["rec_s"] + parts["rec_t"] + parts["orth"])) < 1e-10
    assert 0.0 <= parts["orth"] <= config.lam


def test_perfect_reconstruction_gives_zero_gradients():
    config, params, x = toy_setup(lam=0.0)
    trace = forward(params, config, x, Rng(3), training=True)
    grads = backward(trace, trace.recon_s.copy(), trace.recon_t.copy(), params, config)
    for field in PARAM_FIELDS:
        assert not np.any(grads[field]), field


def test_gate_gradient_orthogonality_coupling():
    config, params, x = toy_setup(lam=0.7)
    config_lam = ModelConfig(k=2, embed_dim=3, hidden=4, tau=0.5,
                             keep_prob=0.5, lam=0.7)
    params.gate[0] = [0.3, -0.1]
    params.gate[1] = [-0.2, 0.4]
    trace = forward(params, config_lam, x, Rng(3), training=True)
    # targets equal to the reconstruction leave only the lambda term
    grads = backward(trace, trace.recon_s.copy(), trace.recon_t.copy(),
                     params, config_lam)
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
    targets_s, targets_t = x[:, :4], x[:, 4:]
    trace = forward(params, config, x, rng.derive(2), training=True)
    grads = backward(trace, targets_s, targets_t, params, config)

    def loss_with(p):
        replay = forward(p, config, x, training=True,
                         gumbel=trace.gumbel, input_mask=trace.input_mask)
        return loss(replay, targets_s, targets_t, config.lam)[0]

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


def test_adam_optimizer_moves_every_field():
    config, params, x = toy_setup()
    trace = forward(params, config, x, Rng(3), training=True)
    grads = backward(trace, x[:, :4], x[:, 4:], params, config)
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
    _, log = artifacts["MDAP-DG"]
    k = config.model.k
    for gate_s, gate_t in log.gates:
        assert np.array_equal(gate_s, np.full(k, 1.0 / k))
        assert np.array_equal(gate_t, np.full(k, 1.0 / k))
    _, full_log = artifacts["MDAP"]
    assert len(full_log.gates) == len(full_log.records)


def test_single_view_variant_trains_with_one_view(small_dataset):
    base = small_train_config(epochs=2, patience=2)
    sv = TrainConfig(model=variant_config(base.model, "single_view"),
                     epochs_max=2, patience=2, batch_users=64, lr=1e-3,
                     eval_k=20, seed=0)
    params, log = train(small_dataset, sv, eval_fn=metric_schedule([0.5, 0.6]))
    assert params.gate.shape == (2, 1)
    assert len(log.records) == 2
