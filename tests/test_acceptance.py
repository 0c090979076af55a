"""One test per release criterion; each prints a PASS/FAIL line.

Run standalone with `pytest tests/test_acceptance.py -v`.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mdap.data import SyntheticSpec, generate_synthetic
from mdap.evaluation import (evaluate, ndcg_at_k, recall_at_k,
                             score_matrix_metrics, top_k)
from mdap.model import (ModelConfig, PARAM_FIELDS, forward, gate_weights,
                        gumbel_softmax_assign, init_params, load_checkpoint,
                        save_checkpoint)
from mdap.numerics import Rng, row_l2_normalize, softmax_rows
from mdap.training import TrainConfig, backward, loss, residuals, train
from sparse_rows import csr, dense

CUTOFF = 20


@pytest.fixture(scope="module")
def fixture7():
    spec = SyntheticSpec(n_users=200, n_items_s=40, n_items_t=30,
                         k_true=4, overlap=0.5, noise=0.05)
    dataset, _ = generate_synthetic(spec, Rng(7))
    return dataset


def fixture_model_config():
    return ModelConfig(k=4, embed_dim=32, hidden=64, tau=0.2,
                       keep_prob=0.5, lam=0.5)


def report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    config = ModelConfig(k=2, embed_dim=3, hidden=4, tau=0.5,
                         keep_prob=0.5, lam=0.5)
    rng = Rng(0)
    params = init_params(config, 4, 3, rng.derive(0))
    x = (rng.derive(1).uniform(5, 7) < 0.5).astype(float)
    x[2, 0] = 1.0
    x[4] = 0.0  # one padded user row
    batch = csr(x)
    trace = forward(params, config, batch, rng.derive(2), training=True)
    grads = backward(trace, residuals(trace, batch), params, config)

    def loss_with(p):
        # the same derived stream draws the same mask and noise again
        replay = forward(p, config, batch, rng.derive(2), training=True)
        return loss(replay, residuals(replay, batch), config.lam)[0]

    h = 1e-5
    worst = 0.0
    for fieldname in PARAM_FIELDS:
        arr = getattr(params, fieldname)
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + h
            up = loss_with(params)
            arr[idx] = keep - h
            down = loss_with(params)
            arr[idx] = keep
            numeric = (up - down) / (2 * h)
            analytic = grads[fieldname][idx]
            rel = abs(numeric - analytic) / max(abs(numeric) + abs(analytic), 1e-8)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10.0
    report(1, "gradient correctness", ok,
           f"max rel err {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 10.0


def test_criterion_2_simplex_invariants():
    start = time.perf_counter()
    rng = Rng(11)
    cases = 0
    worst_sum = 0.0
    min_entry = np.inf
    for tau in (0.1, 0.2, 1.0, 5.0):
        for scale in (1.0, 10.0, 300.0):
            logits = (rng.uniform(600, 6) - 0.5) * 2.0 * scale
            assign = gumbel_softmax_assign(logits, tau, rng, training=True)
            plain = softmax_rows(logits, tau)
            for s in (assign, plain):
                worst_sum = max(worst_sum, float(np.abs(s.sum(axis=1) - 1.0).max()))
                min_entry = min(min_entry, float(s.min()))
            cases += 2 * logits.shape[0]
    config = ModelConfig(k=6, embed_dim=4, hidden=4)
    params = init_params(config, 3, 3, Rng(5))
    for _ in range(1400):
        params.gate[:] = (rng.uniform(2, 6) - 0.5) * 40.0
        for domain in ("s", "t"):
            w = gate_weights(params, domain)
            worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
            min_entry = min(min_entry, float(w.min()))
            cases += 1
    elapsed = time.perf_counter() - start
    ok = cases >= 10000 and worst_sum < 1e-9 and min_entry >= 0.0 and elapsed < 10.0
    report(2, "simplex invariants", ok,
           f"{cases} cases, worst sum dev {worst_sum:.2e}, {elapsed:.1f}s")
    assert cases >= 10000
    assert worst_sum < 1e-9
    assert min_entry >= 0.0
    assert elapsed < 10.0


def test_criterion_3_decomposition_completeness():
    rng = Rng(23)
    worst = 0.0
    for batch in range(100):
        k = 1 + batch % 5
        config = ModelConfig(k=k, embed_dim=6, hidden=8, tau=0.2,
                             keep_prob=0.5, lam=0.5)
        n_s, n_t = 5 + batch % 7, 4 + batch % 5
        params = init_params(config, n_s, n_t, rng.derive(batch, 0))
        x = (rng.derive(batch, 1).uniform(6, n_s + n_t) < 0.4).astype(float)
        # view i's encoder input is diag(a_i)·x
        trace = forward(params, config, csr(x))
        views = [trace.x * trace.assign[:, i:i + 1] for i in range(k)]
        worst = max(worst, float(np.abs(sum(views) - row_l2_normalize(x)).max()))
        trained = forward(params, config, csr(x), rng.derive(batch, 2), training=True)
        views = [trained.x * trained.assign[:, i:i + 1] for i in range(k)]
        worst = max(worst, float(np.abs(sum(views) - trained.x).max()))
    ok = worst < 1e-9
    report(3, "decomposition completeness", ok, f"max residual {worst:.2e}")
    assert worst < 1e-9


def test_criterion_4_gumbel_max_fidelity():
    logits = np.tile(np.array([[1.0, 0.0]]), (10000, 1))
    assign = gumbel_softmax_assign(logits, tau=0.2, rng=Rng(0), training=True)
    freq = float((np.argmax(assign, axis=1) == 0).mean())
    expect = math.e / (1.0 + math.e)
    ok = abs(freq - expect) < 0.02
    report(4, "gumbel-max fidelity", ok,
           f"argmax freq {freq:.4f} vs {expect:.4f}")
    assert abs(freq - expect) < 0.02


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(5, 201))
        scores = rng.standard_normal(n)
        if rng.random() < 0.25:
            scores = np.round(scores, 1)
        items = rng.permutation(n)
        n_banned = int(rng.integers(0, max(1, n // 3)))
        n_truth = int(rng.integers(1, max(2, n // 4)))
        banned = set(items[:n_banned].tolist())
        truth = set(items[n_banned:n_banned + n_truth].tolist())
        k = int(rng.integers(1, 40))
        ranked = top_k(scores, np.array(sorted(banned), dtype=np.int64), k)
        order = sorted((i for i in range(n) if i not in banned),
                       key=lambda i: (-scores[i], i))
        top = order[:k]
        hits = [i for i in top if i in truth]
        recall_oracle = len(hits) / len(truth)
        dcg = sum(1.0 / math.log2(top.index(i) + 2) for i in hits)
        idcg = sum(1.0 / math.log2(p + 2) for p in range(min(k, len(truth))))
        assert abs(recall_at_k(ranked, truth, k) - recall_oracle) < 1e-12
        assert abs(ndcg_at_k(ranked, truth, k) - dcg / idcg) < 1e-12
        checked += 1
    worked = ndcg_at_k(np.array([5, 0, 6, 2]), {5, 6}, CUTOFF)
    ok = checked == 1000 and abs(worked - 0.91972) < 1e-5
    report(5, "metric oracles", ok,
           f"{checked} instances exact, worked example {worked:.5f}")
    assert checked == 1000
    assert abs(worked - 0.91972) < 1e-5


def random_ranking_recall(dataset, domain, k):
    """Closed-form mean recall of a uniformly random ranking."""
    n_items = dataset.n_items(domain)
    values = []
    n_train = np.diff(dataset.rows(domain, "train").indptr)
    n_truth = np.diff(dataset.rows(domain, "test").indptr)
    for n, t in zip(n_train.tolist(), n_truth.tolist()):
        if t == 0:
            continue
        eligible = n_items - n
        values.append(min(k, eligible) / eligible)
    return float(np.mean(values))


def ceiling_recall(dataset, domain, k):
    """Mean recall of a perfect ranker: every test item scores above the rest.

    Ranked through score_matrix_metrics with the training-item masking
    that evaluate applies.
    """
    train, truth = dataset.rows(domain, "train"), dataset.rows(domain, "test")
    oracle = dense(truth)
    return score_matrix_metrics(oracle, train, truth, k)[0]


# Criterion 6 asks for test recall at least FOLD times better than a
# random ranking. Random Recall@20 on fixture7 is 0.64 (s) and 0.85 (t),
# because each user has one test item and ranks only ~26 of 40 / ~23 of
# 30 items, so FOLD x random exceeds the 1.0 recall ceiling and no ranker
# could meet a plain ratio. Above random recall 0.2 a FOLD-fold gain is
# possible only on the misses: ceiling - recall <= (ceiling - random) / FOLD,
# i.e. lift = (recall - random) / (ceiling - random) >= 1 - 1 / FOLD.
FOLD = 5
LIFT_BAR = 1.0 - 1.0 / FOLD


def recall_lift(recall, random, ceiling):
    """Share of random ranking's reachable misses that a model recovers."""
    return (recall - random) / (ceiling - random)


def test_criterion_6_end_to_end_learning_signal(fixture7):
    start = time.perf_counter()
    config = TrainConfig(model=fixture_model_config(), epochs_max=100,
                         patience=100, batch_users=4096, lr=1e-3,
                         eval_k=CUTOFF, seed=7)
    params, log = train(fixture7, config)
    first = log.records[0]["loss_total"]
    last = log.records[-1]["loss_total"]
    ratio = last / first
    metrics = evaluate(params, config.model, fixture7, "test", k=CUTOFF)
    elapsed = time.perf_counter() - start

    loss_ok = len(log.records) == 100 and ratio <= 0.5
    domains = ("s", "t")
    recall = {d: metrics.domains[d]["recall"] for d in domains}
    random_recall = {d: random_ranking_recall(fixture7, d, CUTOFF) for d in domains}
    ceiling = {d: ceiling_recall(fixture7, d, CUTOFF) for d in domains}
    assert all(ceiling[d] > random_recall[d] for d in domains), (ceiling, random_recall)
    lift = {d: recall_lift(recall[d], random_recall[d], ceiling[d]) for d in domains}
    recall_ok = all(lift[d] >= LIFT_BAR for d in domains)

    # Control: the untrained parameters train starts from must miss the
    # bar, or the clause would pass any model.
    untrained = init_params(config.model, fixture7.n_items("s"),
                            fixture7.n_items("t"), Rng(config.seed).derive(0))
    untrained_metrics = evaluate(untrained, config.model, fixture7, "test", k=CUTOFF)
    untrained_lift = {
        d: recall_lift(untrained_metrics.domains[d]["recall"], random_recall[d],
                       ceiling[d]) for d in domains}

    detail = "; ".join(
        f"{d}: recall {recall[d]:.4f}, random {random_recall[d]:.4f}, "
        f"ceiling {ceiling[d]:.4f}, lift {lift[d]:.3f} (untrained "
        f"{untrained_lift[d]:.3f}) vs bar {LIFT_BAR:.3f}" for d in domains)
    ok = loss_ok and recall_ok and elapsed < 120.0
    report(6, "end-to-end learning signal", ok,
           f"loss ratio {ratio:.3f}; {detail}; {elapsed:.0f}s")
    assert loss_ok, f"loss fell only to {ratio:.3f} of epoch 1"
    assert elapsed < 120.0
    assert recall_ok, (
        f"lift (recall - random) / (ceiling - random) must be >= "
        f"1 - 1/{FOLD} = {LIFT_BAR:.3f} per domain; {detail}")
    assert all(untrained_lift[d] < LIFT_BAR for d in domains), (
        f"untrained model reaches the bar; {detail}")


def test_criterion_7_ablation_direction(fixture7):
    seeds = range(5)
    means = {}
    for ablation in ("full", "single_view"):
        model = replace(fixture_model_config(), ablation=ablation)
        ndcg = {"s": [], "t": []}
        for seed in seeds:
            config = TrainConfig(model=model, epochs_max=60, patience=60,
                                 batch_users=4096, lr=1e-3, eval_k=CUTOFF,
                                 seed=seed)
            params, _ = train(fixture7, config)
            metrics = evaluate(params, model, fixture7, "test", k=CUTOFF)
            for domain in ("s", "t"):
                ndcg[domain].append(metrics.domains[domain]["ndcg"])
        means[ablation] = {d: float(np.mean(ndcg[d])) for d in ("s", "t")}
    margin = {d: means["full"][d] - means["single_view"][d] for d in ("s", "t")}
    ok = margin["s"] >= 0.0 and margin["t"] >= 0.0
    report(7, "ablation direction", ok,
           f"mean test ndcg full ({means['full']['s']:.4f}, {means['full']['t']:.4f}) "
           f"vs single view ({means['single_view']['s']:.4f}, "
           f"{means['single_view']['t']:.4f})")
    assert margin["s"] >= 0.0, margin
    assert margin["t"] >= 0.0, margin


def test_criterion_8_determinism(fixture7, tmp_path):
    config = TrainConfig(model=fixture_model_config(), epochs_max=5,
                         patience=5, batch_users=4096, lr=1e-3,
                         eval_k=CUTOFF, seed=13)
    digests = []
    logs = []
    for run_idx in range(2):
        params, log = train(fixture7, config)
        path = tmp_path / f"run{run_idx}.ckpt"
        save_checkpoint(str(path), params, config.model,
                        extra={"best_epoch": log.best_epoch})
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        logs.append(log.to_jsonl())
    ok = logs[0] == logs[1] and digests[0] == digests[1]
    report(8, "determinism", ok,
           f"log bytes {'equal' if logs[0] == logs[1] else 'differ'}, "
           f"checkpoint sha256 {digests[0][:12]}")
    assert logs[0] == logs[1]
    assert digests[0] == digests[1]


def test_criterion_9_checkpoint_round_trip(fixture7, tmp_path):
    config = TrainConfig(model=fixture_model_config(), epochs_max=3,
                         patience=3, batch_users=4096, lr=1e-3,
                         eval_k=CUTOFF, seed=29)
    params, _ = train(fixture7, config)
    before = evaluate(params, config.model, fixture7, "test", k=CUTOFF)
    path = str(tmp_path / "round.ckpt")
    save_checkpoint(path, params, config.model)
    loaded, loaded_config, _ = load_checkpoint(path)
    after = evaluate(loaded, loaded_config, fixture7, "test", k=CUTOFF)
    ok = before.to_dict() == after.to_dict()
    report(9, "checkpoint round trip", ok,
           f"report bytes {'identical' if ok else 'changed'}")
    assert loaded_config == config.model
    assert before.to_dict() == after.to_dict()
