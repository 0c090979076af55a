"""Top-K ranking evaluation: recall and NDCG over full item rankings
with training items masked out.

Ranking is deterministic: scores sort descending and ties break on the
ascending item index. A user counts toward a domain's averages only if
their ground-truth set for the evaluated split is non-empty.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import sparse_batch
from .errors import ParameterError
from .model import ModelConfig, ModelParams, forward
from .numerics import CsrRows

# Users per evaluation block, shared by model_scores and
# score_matrix_metrics. At 256 rows every per-block array (the dense x,
# recon_s/recon_t, the encoder's (k, B, hidden) layer, the negated ranking
# block, argpartition's output and the masks) stays under glibc's 32 MiB
# mmap ceiling up to 16k items, so a freed block is reused from the heap
# instead of being mapped and faulted in afresh for the next one.
EVAL_BATCH_USERS = 256


def top_k(scores: np.ndarray, train_items: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest-scoring items outside the training set.

    Equal scores rank by ascending item index. If fewer than k items are
    eligible the list is just shorter. This is the scalar oracle of the
    ranking rule: score_matrix_metrics calls it only for rows that its
    block path cannot rank exactly; otherwise tests and the benchmark's
    metric check use it.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    order = np.argsort(-scores, kind="stable")
    if len(train_items):
        banned = np.zeros(scores.shape[0], dtype=bool)
        banned[train_items] = True
        order = order[~banned[order]]
    return order[:k]


def recall_at_k(ranked: np.ndarray, truth: set[int], k: int) -> float:
    """Fraction of the truth set that appears in the top k. Truth must be non-empty.

    Scalar oracle: used by tests, by the benchmark's metric check and by
    score_matrix_metrics for the rows that fall back to top_k.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not truth:
        raise ParameterError("recall is undefined for an empty truth set")
    hits = sum(1 for item in ranked[:k] if int(item) in truth)
    return hits / len(truth)


def ndcg_at_k(ranked: np.ndarray, truth: set[int], k: int) -> float:
    """Binary-gain NDCG: DCG over hit positions, ideal DCG over min(k, |truth|).

    Scalar oracle: used by tests, by the benchmark's metric check and by
    score_matrix_metrics for the rows that fall back to top_k.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not truth:
        raise ParameterError("ndcg is undefined for an empty truth set")
    dcg = 0.0
    for pos, item in enumerate(ranked[:k], start=1):
        if int(item) in truth:
            dcg += 1.0 / math.log2(pos + 1)
    idcg = sum(1.0 / math.log2(pos + 1) for pos in range(1, min(k, len(truth)) + 1))
    return dcg / idcg


def score_matrix_metrics(scores: np.ndarray, train: CsrRows, truth: CsrRows,
                         k: int) -> tuple[float, float, int]:
    """Mean recall and NDCG over the users with non-empty truth.

    scores is (n_users, n_items); row u of train/truth holds user u's
    training and ground-truth item indices, over the same n_items
    columns. Returns (mean recall, mean ndcg, users evaluated); means are
    0.0 when no user qualifies.

    The evaluated users are ranked EVAL_BATCH_USERS rows at a time. Each
    block is negated, its training items set to +inf, and the K smallest
    entries taken with argpartition and ordered by (value, item index),
    which is top_k's rule whenever those K entries are exactly the row's
    K best. A row falls back to top_k when that cannot be guaranteed:
    the row holds more entries equal to its K-th value than the K
    candidates do (a tie cut at K), or the K-th value is not finite
    (fewer than K eligible items, or a NaN score). Every per-user value
    and both means are computed in the oracle's order of operations, so
    the results equal the per-user recall_at_k/ndcg_at_k loop bit for bit.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    n_items = scores.shape[1]
    eval_users = np.flatnonzero(np.diff(truth.indptr))
    n_eval = len(eval_users)
    if n_eval == 0:
        return 0.0, 0.0, 0
    kk = min(k, n_items)
    disc = np.array([1.0 / math.log2(pos + 1) for pos in range(1, kk + 1)])
    idcg = np.array([sum(1.0 / math.log2(pos + 1) for pos in range(1, m + 1))
                     for m in range(kk + 1)])
    recall = np.empty(n_eval)
    ndcg = np.empty(n_eval)
    for start in range(0, n_eval, EVAL_BATCH_USERS):
        rows = eval_users[start:start + EVAL_BATCH_USERS]
        block = scores[rows]
        np.negative(block, out=block)
        banned = train.take(rows)
        np.put(block, banned.flat_index(), np.inf)
        if kk < n_items:
            cand = np.argpartition(block, kk - 1, axis=1)[:, :kk]
        else:
            cand = np.broadcast_to(np.arange(n_items), block.shape)
        cand_scores = np.take_along_axis(block, cand, axis=1)
        order = np.lexsort((cand, cand_scores), axis=1)
        top = np.take_along_axis(cand, order, axis=1)
        kth = np.take_along_axis(cand_scores, order[:, -1:], axis=1)
        fallback = ((np.count_nonzero(block == kth, axis=1)
                     > np.count_nonzero(cand_scores == kth, axis=1))
                    | ~np.isfinite(kth[:, 0]))

        wanted = truth.take(rows)
        is_truth = np.zeros(block.shape, dtype=bool)
        np.put(is_truth, wanted.flat_index(), True)
        truth_len = np.diff(wanted.indptr)
        hits = is_truth[np.arange(len(rows))[:, None], top]
        dcg = np.cumsum(hits * disc, axis=1)[:, -1]
        recall[start:start + len(rows)] = np.count_nonzero(hits, axis=1) / truth_len
        ndcg[start:start + len(rows)] = dcg / idcg[np.minimum(k, truth_len)]
        for i in np.flatnonzero(fallback):
            train_items = banned.indices[banned.indptr[i]:banned.indptr[i + 1]]
            truth_items = wanted.indices[wanted.indptr[i]:wanted.indptr[i + 1]]
            ranked = top_k(scores[rows[i]], train_items, k)
            truth_set = {int(item) for item in truth_items}
            recall[start + i] = recall_at_k(ranked, truth_set, k)
            ndcg[start + i] = ndcg_at_k(ranked, truth_set, k)
    return (float(np.cumsum(recall)[-1]) / n_eval,
            float(np.cumsum(ndcg)[-1]) / n_eval, n_eval)


@dataclass
class MetricsReport:
    """Per-domain ranking metrics of one model state on one split."""

    split: str
    cutoff: int
    domains: dict[str, dict] = field(default_factory=dict)
    seed: int | None = None
    checkpoint: str | None = None

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "cutoff": self.cutoff,
            "domains": self.domains,
            "seed": self.seed,
            "checkpoint": self.checkpoint,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def model_scores(params: ModelParams, config: ModelConfig, dataset) -> dict[str, np.ndarray]:
    """Evaluation-mode reconstruction scores for every user, per domain.

    Model input is each user's training row over both domains, run
    EVAL_BATCH_USERS users at a time.
    """
    n_users = dataset.n_users
    # every row is written below
    out = {"s": np.empty((n_users, dataset.n_items("s"))),
           "t": np.empty((n_users, dataset.n_items("t")))}
    for start in range(0, n_users, EVAL_BATCH_USERS):
        stop = min(start + EVAL_BATCH_USERS, n_users)
        trace = forward(params, config, sparse_batch(dataset, np.arange(start, stop)),
                        training=False)
        out["s"][start:stop] = trace.recon_s
        out["t"][start:stop] = trace.recon_t
    return out


def evaluate(params: ModelParams, config: ModelConfig, dataset, split: str,
             k: int = 20, seed: int | None = None,
             checkpoint: str | None = None) -> MetricsReport:
    """Rank every non-training item for every user and score one split.

    Deterministic: evaluating the same params twice gives bit-identical
    reports.
    """
    if split not in ("train", "valid", "test"):
        raise ParameterError(f"unknown split {split!r}")
    scores = model_scores(params, config, dataset)
    report = MetricsReport(split=split, cutoff=k, seed=seed, checkpoint=checkpoint)
    for domain in ("s", "t"):
        recall, ndcg, n_eval = score_matrix_metrics(
            scores[domain], dataset.rows(domain, "train"), dataset.rows(domain, split), k)
        report.domains[domain] = {
            "recall": recall, "ndcg": ndcg, "n_users_evaluated": n_eval}
    return report
