import math
import tracemalloc

import numpy as np
import pytest

from mdap import Rng, SyntheticSpec, evaluation, generate_synthetic
from mdap.errors import ParameterError, ShapeError
from mdap.evaluation import (evaluate, model_scores, ndcg_at_k, recall_at_k,
                             score_matrix_metrics, top_k)
from mdap.model import ModelConfig, init_params
from sparse_rows import csr_lists


def test_top_k_orders_by_score():
    ranked = top_k(np.array([0.1, 0.9, 0.5]), np.array([], dtype=np.int64), 2)
    assert ranked.tolist() == [1, 2]


def test_top_k_excludes_training_items():
    ranked = top_k(np.array([0.1, 0.9, 0.5]), np.array([1]), 2)
    assert ranked.tolist() == [2, 0]


def test_top_k_breaks_ties_by_index():
    ranked = top_k(np.full(4, 3.25), np.array([], dtype=np.int64), 3)
    assert ranked.tolist() == [0, 1, 2]


def test_top_k_short_when_few_eligible():
    ranked = top_k(np.array([0.3, 0.2, 0.1]), np.array([0, 2]), 5)
    assert ranked.tolist() == [1]


def test_recall_hand_values():
    top = np.arange(20)
    assert recall_at_k(top, {0, 5, 100, 101}, 20) == 0.5
    assert recall_at_k(top, {50, 60}, 20) == 0.0
    truth7 = {0, 1, 2, 30, 40, 50, 60}
    assert abs(recall_at_k(top, truth7, 20) - 3 / 7) < 1e-12


def test_recall_rejects_empty_truth():
    with pytest.raises(ParameterError):
        recall_at_k(np.arange(5), set(), 5)


@pytest.mark.parametrize("k", [0, -3])
def test_recall_rejects_cutoff_below_one(k):
    with pytest.raises(ParameterError):
        recall_at_k(np.arange(5), {1}, k)


@pytest.mark.parametrize("k", [0, -3])
def test_ndcg_rejects_cutoff_below_one(k):
    with pytest.raises(ParameterError):
        ndcg_at_k(np.arange(5), {1}, k)


def test_ndcg_hand_values():
    assert ndcg_at_k(np.array([7, 1, 2]), {7}, 20) == 1.0
    assert ndcg_at_k(np.array([1, 2, 3]), {9}, 20) == 0.0
    # hits at ranks 1 and 3 of two truth items
    got = ndcg_at_k(np.array([5, 0, 6, 2]), {5, 6}, 20)
    expect = (1.0 + 0.5) / (1.0 + 1.0 / math.log2(3))
    assert abs(got - expect) < 1e-12
    assert abs(got - 0.91972) < 1e-5


def brute_force_metrics(scores, banned, truth, k):
    order = sorted((i for i in range(len(scores)) if i not in banned),
                   key=lambda i: (-scores[i], i))
    top = order[:k]
    hits = [i for i in top if i in truth]
    recall = len(hits) / len(truth)
    dcg = sum(1.0 / math.log2(top.index(i) + 2) for i in hits)
    ideal = sum(1.0 / math.log2(p + 2) for p in range(min(k, len(truth))))
    return recall, dcg / ideal


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = int(rng.integers(5, 201))
        scores = rng.standard_normal(n)
        if rng.random() < 0.3:  # force score ties into some instances
            scores = np.round(scores, 1)
        items = rng.permutation(n)
        n_banned = int(rng.integers(0, max(1, n // 3)))
        n_truth = int(rng.integers(1, max(2, n // 4)))
        banned = set(items[:n_banned].tolist())
        truth = set(items[n_banned:n_banned + n_truth].tolist())
        k = int(rng.integers(1, 30))
        ranked = top_k(scores, np.array(sorted(banned), dtype=np.int64), k)
        expect_recall, expect_ndcg = brute_force_metrics(scores, banned, truth, k)
        assert abs(recall_at_k(ranked, truth, k) - expect_recall) < 1e-12
        assert abs(ndcg_at_k(ranked, truth, k) - expect_ndcg) < 1e-12


def test_ranking_invariant_under_monotone_transforms():
    rng = np.random.default_rng(7)
    scores = rng.standard_normal(50)
    banned = np.array([3, 11], dtype=np.int64)
    base = top_k(scores, banned, 10)
    assert np.array_equal(top_k(2.0 * scores + 7.0, banned, 10), base)
    assert np.array_equal(top_k(np.exp(scores), banned, 10), base)


def test_score_matrix_metrics_perfect_scores():
    # scores that put every truth item first must reach recall = ndcg = 1
    scores = np.zeros((2, 6))
    train_lists = [np.array([0]), np.array([], dtype=np.int64)]
    truth_lists = [np.array([1, 2]), np.array([5])]
    scores[0, [1, 2]] = 5.0
    scores[1, 5] = 5.0
    recall, ndcg, n_eval = score_matrix_metrics(
        scores, csr_lists(train_lists, 6), csr_lists(truth_lists, 6), 3)
    assert recall == 1.0 and ndcg == 1.0 and n_eval == 2


def test_score_matrix_metrics_skips_empty_truth():
    scores = np.zeros((2, 4))
    train_lists = [np.array([], dtype=np.int64)] * 2
    truth_lists = [np.array([2]), np.array([], dtype=np.int64)]
    scores[0, 2] = 1.0
    recall, ndcg, n_eval = score_matrix_metrics(
        scores, csr_lists(train_lists, 4), csr_lists(truth_lists, 4), 2)
    assert n_eval == 1
    assert recall == 1.0


def test_score_matrix_metrics_all_empty_returns_zero():
    scores = np.zeros((1, 4))
    empty = csr_lists([np.array([], dtype=np.int64)], 4)
    recall, ndcg, n_eval = score_matrix_metrics(scores, empty, empty, 2)
    assert (recall, ndcg, n_eval) == (0.0, 0.0, 0)


def per_user_metrics(scores, train_lists, truth_lists, k):
    """The per-user loop score_matrix_metrics replaced, kept as its reference."""
    recall_sum = 0.0
    ndcg_sum = 0.0
    n_eval = 0
    for u in range(scores.shape[0]):
        if truth_lists[u].size == 0:
            continue
        truth = {int(i) for i in truth_lists[u]}
        ranked = top_k(scores[u], train_lists[u], k)
        recall_sum += recall_at_k(ranked, truth, k)
        ndcg_sum += ndcg_at_k(ranked, truth, k)
        n_eval += 1
    if n_eval == 0:
        return 0.0, 0.0, 0
    return recall_sum / n_eval, ndcg_sum / n_eval, n_eval


def random_instance(rng, rounding):
    """Scores plus per-user train/truth lists; some users have no train
    items, no truth, or fewer eligible items than the cutoff."""
    n_users = int(rng.integers(1, 40))
    n_items = int(rng.integers(1, 60))
    scores = rng.standard_normal((n_users, n_items))
    if rounding == "nonfinite":
        cells = rng.random(scores.shape)
        scores[cells < 0.05] = np.nan
        scores[(cells >= 0.05) & (cells < 0.1)] = np.inf
        scores[(cells >= 0.1) & (cells < 0.15)] = -np.inf
    elif rounding is not None:
        scores = np.round(scores, rounding)
    train_lists, truth_lists = [], []
    for _ in range(n_users):
        items = rng.permutation(n_items)
        n_train = 0 if rng.random() < 0.3 else int(rng.integers(0, n_items + 1))
        n_truth = int(rng.integers(0, n_items - n_train + 1))
        train_lists.append(np.sort(items[:n_train]))
        truth_lists.append(np.sort(items[n_train:n_train + n_truth]))
    return scores, train_lists, truth_lists


@pytest.mark.parametrize("rounding", [None, 1, 0, "nonfinite"],
                         ids=["continuous", "one-decimal", "integer", "nonfinite"])
def test_score_matrix_metrics_equals_per_user_loop(monkeypatch, rounding):
    # small blocks so that instances span several of them
    monkeypatch.setattr(evaluation, "EVAL_BATCH_USERS", 7)

    # the block ranking must not lean on the scalar references; this
    # test's own per_user_metrics keeps its import-time bindings
    def scalar_reference(*args):
        raise AssertionError("score_matrix_metrics called a scalar reference")

    for name in ("top_k", "recall_at_k", "ndcg_at_k"):
        monkeypatch.setattr(evaluation, name, scalar_reference)
    rng = np.random.default_rng(31)
    for _ in range(150):
        scores, train_lists, truth_lists = random_instance(rng, rounding)
        k = int(rng.integers(1, 30))  # often above the item count
        n_items = scores.shape[1]
        got = score_matrix_metrics(scores, csr_lists(train_lists, n_items),
                                   csr_lists(truth_lists, n_items), k)
        assert got == per_user_metrics(scores, train_lists, truth_lists, k)


def test_score_matrix_metrics_breaks_tie_at_cutoff_by_index():
    # item 9 leads; items 0..8 tie for the remaining two places, so the
    # cut falls inside the tie and items 0 and 1 must take them
    scores = np.zeros((2, 10))
    scores[:, 9] = 1.0
    train_lists = [np.array([], dtype=np.int64), np.array([0])]
    truth_lists = [np.array([1, 8]), np.array([2, 8])]
    recall, ndcg, n_eval = score_matrix_metrics(
        scores, csr_lists(train_lists, 10), csr_lists(truth_lists, 10), 3)
    # each user hits one of two truth items, at rank 3
    per_user = (1.0 / math.log2(4)) / (1.0 + 1.0 / math.log2(3))
    assert (recall, n_eval) == (0.5, 2)
    assert ndcg == (per_user + per_user) / 2
    assert (recall, ndcg, n_eval) == per_user_metrics(scores, train_lists, truth_lists, 3)


@pytest.mark.parametrize("train_shape, truth_shape", [
    ((2, 6), (2, 5)),  # train over more columns: it would ban the wrong cells
    ((2, 5), (3, 5)),  # truth has a row with no scores
    ((3, 5), (2, 5)),  # train has a row with no scores
], ids=["train-cols", "truth-rows", "train-rows"])
def test_score_matrix_metrics_rejects_mismatched_rows(train_shape, truth_shape):
    scores = np.arange(10.0).reshape(2, 5)
    train = csr_lists([np.array([4])] + [np.array([], dtype=np.int64)] * (train_shape[0] - 1),
                      train_shape[1])
    truth = csr_lists([np.array([3])] * truth_shape[0], truth_shape[1])
    with pytest.raises(ShapeError):
        score_matrix_metrics(scores, train, truth, 1)


def hypergeometric_expectation(dataset, domain, split, k):
    """Closed-form mean and variance of random-ranking recall per user."""
    n_items = dataset.n_items(domain)
    n_train = np.diff(dataset.rows(domain, "train").indptr)
    n_truth = np.diff(dataset.rows(domain, split).indptr)
    means, variances = [], []
    for n, t in zip(n_train.tolist(), n_truth.tolist()):
        if t == 0:
            continue
        eligible = n_items - n
        kk = min(k, eligible)
        means.append(kk * t / eligible / t)
        if eligible > 1:
            var_hits = kk * (t / eligible) * (1 - t / eligible) * (eligible - kk) / (eligible - 1)
        else:
            var_hits = 0.0
        variances.append(var_hits / t ** 2)
    mean = float(np.mean(means))
    se = math.sqrt(sum(variances)) / len(means)
    return mean, se


def test_random_scores_match_hypergeometric_oracle(fixture_dataset):
    rng = np.random.default_rng(2024)
    for domain in ("s", "t"):
        scores = rng.random((fixture_dataset.n_users, fixture_dataset.n_items(domain)))
        recall, _, _ = score_matrix_metrics(scores, fixture_dataset.rows(domain, "train"),
                                            fixture_dataset.rows(domain, "test"), 20)
        mean, se = hypergeometric_expectation(fixture_dataset, domain, "test", 20)
        assert abs(recall - mean) <= 3.0 * se, (domain, recall, mean, se)


def test_evaluate_is_deterministic(fixture_dataset):
    config = ModelConfig(k=4, embed_dim=16, hidden=32, tau=0.2, keep_prob=0.5, lam=0.5)
    params = init_params(config, fixture_dataset.n_items("s"),
                         fixture_dataset.n_items("t"), Rng(1))
    a = evaluate(params, config, fixture_dataset, "test", k=20, seed=3)
    b = evaluate(params, config, fixture_dataset, "test", k=20, seed=3)
    assert a.to_dict() == b.to_dict()
    assert a.split == "test" and a.cutoff == 20 and a.seed == 3
    for domain in ("s", "t"):
        assert 0.0 <= a.domains[domain]["recall"] <= 1.0
        assert a.domains[domain]["n_users_evaluated"] > 0


def test_evaluate_batching_invariant(fixture_dataset, monkeypatch):
    config = ModelConfig(k=2, embed_dim=8, hidden=16, tau=0.2, keep_prob=0.5, lam=0.5)
    params = init_params(config, fixture_dataset.n_items("s"),
                         fixture_dataset.n_items("t"), Rng(4))
    reports = []
    # a partial last block, the production block and one block for all users
    for block in (7, evaluation.EVAL_BATCH_USERS, fixture_dataset.n_users + 1):
        monkeypatch.setattr(evaluation, "EVAL_BATCH_USERS", block)
        reports.append(evaluate(params, config, fixture_dataset, "valid", k=20).to_dict())
    assert reports[0] == reports[1] == reports[2]


def test_model_scores_fill_every_row(fixture_dataset, monkeypatch):
    # The outputs start uninitialized and garbage can be finite, so every
    # row is checked against a single-block run; 200 users in blocks of 7
    # end on a partial block.
    config = ModelConfig(k=2, embed_dim=8, hidden=16, tau=0.2, keep_prob=0.5, lam=0.5)
    params = init_params(config, fixture_dataset.n_items("s"),
                         fixture_dataset.n_items("t"), Rng(0))
    monkeypatch.setattr(evaluation, "EVAL_BATCH_USERS", fixture_dataset.n_users)
    whole = model_scores(params, config, fixture_dataset)
    monkeypatch.setattr(evaluation, "EVAL_BATCH_USERS", 7)
    blocked = model_scores(params, config, fixture_dataset)
    for domain in ("s", "t"):
        assert np.array_equal(blocked[domain], whole[domain]), domain


def evaluate_peak_bytes(n_users):
    """Peak traced bytes of evaluate in blocks of 8 users over 300 + 200
    items, less its two (n_users, 500) score matrices."""
    spec = SyntheticSpec(n_users=n_users, n_items_s=300, n_items_t=200, k_true=4)
    dataset, _ = generate_synthetic(spec, Rng(7))
    assert (dataset.n_users, dataset.n_items("s"), dataset.n_items("t")) == (n_users, 300, 200)
    config = ModelConfig(k=4, embed_dim=16, hidden=32)
    params = init_params(config, 300, 200, Rng(0))
    tracemalloc.start()
    try:
        evaluate(params, config, dataset, "test", k=20)
        return tracemalloc.get_traced_memory()[1] - n_users * 500 * 8
    finally:
        tracemalloc.stop()


def test_evaluate_memory_is_bounded_by_the_block(monkeypatch):
    # Beyond the two score matrices model_scores hands to evaluate,
    # evaluation holds only per-block arrays: going from 32 to 256 users
    # may add less than one (block, N) array.
    monkeypatch.setattr(evaluation, "EVAL_BATCH_USERS", 8)
    one_block = 8 * 500 * 8
    growth = evaluate_peak_bytes(256) - evaluate_peak_bytes(32)
    assert growth < one_block, growth / one_block


def test_model_scores_shapes(fixture_dataset):
    config = ModelConfig(k=2, embed_dim=8, hidden=16, tau=0.2, keep_prob=0.5, lam=0.5)
    params = init_params(config, fixture_dataset.n_items("s"),
                         fixture_dataset.n_items("t"), Rng(0))
    scores = model_scores(params, config, fixture_dataset)
    assert scores["s"].shape == (fixture_dataset.n_users, fixture_dataset.n_items("s"))
    assert scores["t"].shape == (fixture_dataset.n_users, fixture_dataset.n_items("t"))
    assert np.all(np.isfinite(scores["s"])) and np.all(np.isfinite(scores["t"]))


def test_evaluate_rejects_unknown_split(fixture_dataset):
    config = ModelConfig(k=2, embed_dim=8, hidden=16)
    params = init_params(config, fixture_dataset.n_items("s"),
                         fixture_dataset.n_items("t"), Rng(0))
    with pytest.raises(ParameterError):
        evaluate(params, config, fixture_dataset, "holdout")

