"""Top-K ranking evaluation: recall and NDCG over full item rankings
with training items masked out.

Ranking is deterministic: scores sort descending and ties break on the
ascending item index. A user counts toward a domain's averages only if
their ground-truth set for the evaluated split is non-empty.

evaluate and the scalar references (top_k, recall_at_k, ndcg_at_k) check
their arguments; the other helpers here assume checked inputs.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import DOMAINS, SPLITS, sparse_batch
from .errors import ParameterError
from .model import ModelConfig, ModelParams, embedding_norms, forward
from .numerics import CsrRows, check_int

# Users per evaluation block, shared by model_scores and
# score_matrix_metrics; it bounds evaluation's working set to O(256 x N)
# beyond the score matrices, which decode writes each block's scores
# into. numpy allocates each block's forward arrays afresh; the ranking
# reuses its first block's three work arrays (the negated block, its
# group summary and its mask) for every later block of the call.
# A user's scores are the same bits in any block of 2 or more rows that
# takes the same input path (numerics.per_row_products picks it per block
# from the block's density). A 1-row block can differ in the last bit, as
# numpy multiplies a single row on its matrix-vector path, so model_scores
# folds a 1-row tail into the block before it.
EVAL_BATCH_USERS = 256


def top_k(scores: np.ndarray, train_items: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest-scoring items outside the training set.

    Equal scores rank by ascending item index. If fewer than k items are
    eligible the list is just shorter. This is the scalar reference of
    the ranking rule, which the tests and the benchmark's metric check
    compare score_matrix_metrics against; no production code calls it.
    """
    k = check_int("k", k)
    order = np.argsort(-scores, kind="stable")
    if len(train_items):
        banned = np.zeros(scores.shape[0], dtype=bool)
        banned[train_items] = True
        order = order[~banned[order]]
    return order[:k]


def recall_at_k(ranked: np.ndarray, truth: set[int], k: int) -> float:
    """Fraction of the truth set that appears in the top k. Truth must be non-empty.

    Scalar reference for the tests and the benchmark's metric check.
    """
    k = check_int("k", k)
    if not truth:
        raise ParameterError("recall is undefined for an empty truth set")
    hits = sum(1 for item in ranked[:k] if int(item) in truth)
    return hits / len(truth)


def ndcg_at_k(ranked: np.ndarray, truth: set[int], k: int) -> float:
    """Binary-gain NDCG: DCG over hit positions, ideal DCG over min(k, |truth|).

    Scalar reference for the tests and the benchmark's metric check.
    """
    k = check_int("k", k)
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
    columns. Returns (mean recall, mean ndcg, users evaluated); means
    are 0.0 when no user qualifies.

    The evaluated users are ranked EVAL_BATCH_USERS rows at a time, in
    one exact pass per block, without writing into scores. The block is
    copied out, negated and its training items set to +inf. With K' =
    min(K, n_items), w = max(1, n_items // 4K') and m = n_items // w,
    group j of a row is the minimum of columns j, j + m, ... (the tail
    columns past m·w fold into the first groups); each is an entry of
    the row, so the K'-th smallest group minimum bounds the K-th value
    from above. The entries at or below it (every eligible entry of a
    row whose bound is not finite: fewer than K eligible items, or a NaN
    score) hold the top K, ties included, and are sorted by (row, value)
    with a stable lexsort. They are gathered in row-major order, so equal
    values keep ascending item order, which is top_k's rule, and the
    first K of each row are its ranking. Every per-user value and both
    means follow the scalar references' order of operations, so the
    results equal the per-user recall_at_k/ndcg_at_k loop bit for bit.
    """
    n_items = scores.shape[1]
    truth_lens = np.diff(truth.indptr)
    eval_users = np.flatnonzero(truth_lens)
    n_eval = len(eval_users)
    if n_eval == 0:
        return 0.0, 0.0, 0
    kk = min(k, n_items)
    w = max(1, n_items // (4 * kk))
    m = n_items // w
    disc = np.array([1.0 / math.log2(pos + 1) for pos in range(1, kk + 1)])
    # only idcg[min(k, |truth|)] is read; the sum per entry matches
    # ndcg_at_k's, which Python 3.12+ compensates
    idcg = np.array([sum(1.0 / math.log2(pos + 1) for pos in range(1, m + 1))
                     for m in range(min(k, int(truth_lens.max())) + 1)])
    recall = np.empty(n_eval)
    ndcg = np.empty(n_eval)
    # the work arrays of the first block, whose leading rows every later
    # (never longer) block takes: allocated afresh, each block would fault
    # its memory in again
    first = min(n_eval, EVAL_BATCH_USERS)
    blocks, summaries = np.empty((first, n_items)), np.empty((first, m))
    masks = np.empty((first, n_items), bool)
    for start in range(0, n_eval, EVAL_BATCH_USERS):
        rows = eval_users[start:start + EVAL_BATCH_USERS]
        b = len(rows)
        # rows are in range: "clip" spares take() the temporary it
        # makes under the default "raise"
        block = np.take(scores, rows, axis=0, mode="clip", out=blocks[:b])
        np.negative(block, out=block)
        banned = train.take(rows).flat_index()
        np.put(block, banned, np.inf)
        summary = np.minimum.reduce(block[:, :m * w].reshape(b, w, m), axis=1,
                                    out=summaries[:b])
        tail = summary[:, :n_items - m * w]
        np.minimum(tail, block[:, m * w:], out=tail)
        summary.partition(kk - 1, axis=1)
        kth = summary[:, [kk - 1]]
        ranked = np.less_equal(block, kth, out=masks[:b])
        ranked[~np.isfinite(kth[:, 0])] = True
        np.put(ranked, banned, False)
        flat = np.flatnonzero(ranked)
        row = flat // n_items  # ascending, so the lexsort below keeps it as is
        flat = flat[np.lexsort((block.reshape(-1)[flat], row))]
        rank = np.arange(len(flat)) - np.searchsorted(row, np.arange(b))[row]

        # ranked is not read again, so its memory holds the truth mask
        is_truth = ranked.reshape(-1)
        is_truth.fill(False)
        np.put(is_truth, truth.take(rows).flat_index(), True)
        hit = (rank < kk) & is_truth[flat]
        truth_len = truth_lens[rows]
        recall[start:start + b] = np.bincount(row[hit], minlength=b) / truth_len
        dcg = np.bincount(row[hit], weights=disc[rank[hit]], minlength=b)
        # min(kk, |truth|) is min(k, |truth|) as |truth| <= n_items, and
        # kk, unlike a cutoff the CLI takes, always fits numpy's int64
        ndcg[start:start + b] = dcg / idcg[np.minimum(kk, truth_len)]
    return (float(np.cumsum(recall)[-1]) / n_eval,
            float(np.cumsum(ndcg)[-1]) / n_eval, n_eval)


@dataclass
class MetricsReport:
    """Per-domain ranking metrics of one model state on one split."""

    split: str
    cutoff: int
    domains: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def model_scores(params: ModelParams, config: ModelConfig, dataset) -> dict[str, np.ndarray]:
    """Evaluation-mode reconstruction scores for every user, per domain.

    Model input is each user's training row over both domains, run
    EVAL_BATCH_USERS users at a time (the last block takes one more user
    rather than leave one alone), each block decoded into its rows of the
    returned matrices; the embeddings are normalized once per call.
    """
    n_users = dataset.n_users
    # every row is written below
    out = {"s": np.empty((n_users, dataset.n_items("s"))),
           "t": np.empty((n_users, dataset.n_items("t")))}
    norms = embedding_norms(params)
    bounds = [*range(0, n_users, EVAL_BATCH_USERS), n_users]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    for start, stop in zip(bounds, bounds[1:]):
        forward(params, config, sparse_batch(dataset, np.arange(start, stop)),
                norms=norms, out={d: scores[start:stop] for d, scores in out.items()})
    return out


def evaluate(params: ModelParams, config: ModelConfig, dataset, split: str,
             k: int = 20) -> MetricsReport:
    """Rank every non-training item for every user and score one split.

    Deterministic: evaluating the same params twice gives bit-identical
    reports.
    """
    if split not in SPLITS:
        raise ParameterError(f"unknown split {split!r}")
    k = check_int("k", k)
    scores = model_scores(params, config, dataset)
    report = MetricsReport(split=split, cutoff=k)
    for domain in DOMAINS:
        recall, ndcg, n_eval = score_matrix_metrics(
            scores[domain], dataset.rows(domain, "train"), dataset.rows(domain, split), k)
        report.domains[domain] = {
            "recall": recall, "ndcg": ndcg, "n_users_evaluated": n_eval}
    return report
