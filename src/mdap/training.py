"""Reconstruction training: the loss with its exact gradients, and the
Adam loop with early stopping.

The loss is the squared Frobenius reconstruction error of both domains
against the uncorrupted batch the forward pass was given, plus a penalty
on the dot product of the two domains' gate vectors, which pushes the
domains to rely on different views. backward() computes the loss and its
gradients, derived by hand, from one ForwardTrace; dropout masks and
Gumbel noise are treated as constants of the pass, so a finite-difference
probe that replays the pass from the same seed must agree with backward().
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import DOMAINS, InteractionDataset, atomic_open, sparse_batch
from .errors import ParameterError, ShapeError, TrainingDivergedError
from .evaluation import evaluate
from .model import PARAM_FIELDS, ModelConfig, ModelParams, forward, init_params
from .numerics import (Rng, adam_step, check_int, check_real, row_l2_normalize_grad,
                       softmax_rows_grad)

# Exact key order of one serialized training-log record.
LOG_KEYS = ("epoch", "loss_total", "loss_rec_s", "loss_rec_t", "loss_orth",
            "val_recall20_s", "val_recall20_t", "val_ndcg20_s", "val_ndcg20_t")


def tanh_grad(hidden: np.ndarray) -> np.ndarray:
    """1 - hidden ** 2, the derivative of tanh at its output hidden."""
    factor = np.square(hidden)
    np.subtract(1.0, factor, out=factor)
    return factor


def backward(trace, params: ModelParams, config: ModelConfig
             ) -> tuple[float, dict[str, float], dict[str, np.ndarray]]:
    """The loss of a training trace (from forward given an Rng) and its gradients.

    The loss is each domain's squared error against trace.batch, the rows
    forward was given, over every entry, plus lam * (gates[0] . gates[1]).
    Returns (total, {rec_s, rec_t, orth}, {field name: gradient} in
    PARAM_FIELDS order); fields off the ablation's path get zero gradients.

    backward spends the trace: it forms each domain's residual recon -
    batch in trace.recon_s and trace.recon_t themselves and marks the
    trace spent. A spent trace raises ParameterError; run forward again.
    """
    if not trace.training:
        raise ParameterError("backward needs a training trace: one from forward given an Rng")
    if trace.spent:
        raise ParameterError("this trace was already passed to backward, which overwrote its "
                             "reconstructions with the residuals; run forward again")
    if trace.x.n_cols != params.n_items_total:
        raise ShapeError("trace and params disagree on the item count")
    trace.spent = True
    # Zeros only where a gradient accumulates or may stay unused.
    grads = {"dec_w1": np.zeros_like(params.dec_w1), "dec_b1": np.zeros_like(params.dec_b1),
             "dec_w2": np.empty_like(params.dec_w2), "dec_b2": np.empty_like(params.dec_b2),
             "gate": np.zeros_like(params.gate)}
    batch = trace.batch
    rows = np.repeat(np.arange(batch.n_rows), np.diff(batch.indptr))
    in_s = batch.indices < trace.recon_s.shape[1]

    # The residual r = recon - batch is recon with 1 subtracted at the
    # stored entries only, in recon's own memory: no dense targets are
    # built. The loss gradient wrt recon is 2 * r. Doubling is exact, so it
    # is applied to the small products rather than to the (B, items) residual.
    parts, d_z = {}, {}
    for domain, r, at, dec_hidden, z in (
            ("s", trace.recon_s, in_s, trace.dec_hidden_s, trace.z_s),
            ("t", trace.recon_t, ~in_s, trace.dec_hidden_t, trace.z_t)):
        cols = params.domain_slice(domain)
        r[rows[at], batch.indices[at] - cols.start] -= 1.0
        parts["rec_" + domain] = float(np.sum(np.square(r)))
        np.matmul(dec_hidden.T, r, out=grads["dec_w2"][:, cols])
        grads["dec_w2"][:, cols] *= 2.0
        np.multiply(r.sum(axis=0), 2.0, out=grads["dec_b2"][cols])
        d_pre = r @ params.dec_w2[:, cols].T
        d_pre *= 2.0
        d_pre *= tanh_grad(dec_hidden)
        grads["dec_w1"] += z.T @ d_pre
        grads["dec_b1"] += d_pre.sum(axis=0)
        d_z[domain] = d_pre @ params.dec_w1.T
    gates = trace.gates
    parts["orth"] = float(config.lam * np.dot(*gates))
    total = parts["rec_s"] + parts["rec_t"] + parts["orth"]

    # Gate table: each row's reconstruction pull plus lam times the other
    # row, through the row softmax. Uniform gates (no_gate) are constant.
    if config.ablation != "no_gate":
        d_gates = np.stack([np.einsum("kbl,bl->k", trace.view_embs, d_z[d]) for d in DOMAINS])
        d_gates += config.lam * gates[::-1]
        grads["gate"] = softmax_rows_grad(gates, d_gates)

    # All k views at once; view and row axes are flattened so each dense
    # layer is one GEMM. View i's first-layer input is a_i ⊙ (x @ enc_w1),
    # so the enc_w1 gradient is one x^T product and a_i's gradient is a
    # row sum against x @ enc_w1.
    k, b, h = trace.enc_hidden.shape
    hidden = trace.enc_hidden.reshape(k * b, h)
    d_emb = (gates[0][:, None, None] * d_z["s"]
             + gates[1][:, None, None] * d_z["t"]).reshape(k * b, params.enc_w2.shape[1])
    grads["enc_w2"] = hidden.T @ d_emb
    grads["enc_b2"] = d_emb.sum(axis=0)
    d_pre = d_emb @ params.enc_w2.T
    d_pre *= tanh_grad(hidden)
    d_pre = d_pre.reshape(k, b, h)
    grads["enc_b1"] = d_pre.sum(axis=(0, 1))
    d_enc = np.einsum("bk,kbh->bh", trace.assign, d_pre)
    d_assign = np.einsum("kbh,bh->bk", d_pre, trace.enc_proj)
    # Tempered softmax back to the logits; Gumbel noise is additive and
    # constant, so the logit gradient passes straight through. With one
    # view (single_view) the Jacobian s * (g - g) / tau is exactly 0, so
    # item_emb and core_emb get exact zero gradients, as gate does above.
    d_logits = softmax_rows_grad(trace.assign, d_assign, config.tau)
    d_proj = d_logits @ trace.core_norm
    # x is read once: x^T [d_enc | d_proj] gives the enc_w1 gradient and
    # item_norm's in one product. It is the only path for both; BLAS may
    # round it unlike a lone x^T d_enc, as its kernel depends on the width.
    x_grads = trace.x.t_matmul(np.concatenate((d_enc, d_proj), axis=1))
    grads["enc_w1"] = x_grads[:, :h]
    grads["core_emb"] = row_l2_normalize_grad(params.core_emb, trace.core_norm,
                                              d_logits.T @ trace.proj)
    grads["item_emb"] = row_l2_normalize_grad(params.item_emb, trace.item_norm,
                                              x_grads[:, h:])

    return total, parts, {name: grads[name] for name in PARAM_FIELDS}


class AdamOptimizer:
    """Per-array Adam state over a ModelParams instance; step() updates the
    params' arrays in place with adam_step."""

    def __init__(self, params: ModelParams, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.arrays()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.arrays()}

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]):
        self.t += 1
        for name, arr in params.arrays():
            adam_step(arr, grads[name], self.m[name], self.v[name], self.t, lr=self.lr)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization protocol around a ModelConfig."""

    model: ModelConfig = field(default_factory=ModelConfig)
    epochs_max: int = 1000
    patience: int = 20
    batch_users: int = 4096
    lr: float = 1e-3
    eval_k: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs_max", "patience", "batch_users", "eval_k", "seed"):
            object.__setattr__(self, name,
                               check_int(name, getattr(self, name), 0 if name == "seed" else 1))
        if not 0.0 < check_real("lr", self.lr) < math.inf:
            raise ParameterError(f"lr must be positive and finite, got {self.lr}")


@dataclass
class TrainLog:
    """Per-epoch records, each holding exactly the LOG_KEYS fields, plus
    the best-epoch marker."""

    records: list[dict] = field(default_factory=list)
    best_epoch: int = -1

    def to_jsonl(self) -> str:
        lines = []
        for rec in self.records:
            ordered = {key: rec[key] for key in LOG_KEYS}
            lines.append(json.dumps(ordered))
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str):
        with atomic_open(path) as fh:
            fh.write(self.to_jsonl())


def train(dataset: InteractionDataset, config: TrainConfig,
          verbose: bool = False) -> tuple[ModelParams, TrainLog]:
    """Fit the model on the dataset's training split.

    Each epoch shuffles the user rows; each step runs a training (noised)
    forward and backward on a batch of users, whose loss and gradients
    must be finite, and applies Adam. The epoch then validates: evaluate()
    on the valid split at config.eval_k. Early stopping watches the mean
    of the two domains' NDCG and keeps a snapshot of the best-epoch
    parameters, which are returned. A non-finite loss, or a non-finite
    gradient before the Adam step, aborts with TrainingDivergedError.
    """
    rng = Rng(config.seed)
    init_rng = rng.derive(0)
    shuffle_rng = rng.derive(1)
    noise_rng = rng.derive(2)

    params = init_params(config.model, dataset.n_items("s"), dataset.n_items("t"), init_rng)
    opt = AdamOptimizer(params, lr=config.lr)
    log = TrainLog()
    best_score = -np.inf
    best_params = params.copy()
    bad_epochs = 0

    for epoch in range(1, config.epochs_max + 1):
        perm = shuffle_rng.permutation(dataset.n_users)
        sums = {"rec_s": 0.0, "rec_t": 0.0, "orth": 0.0}
        # overflow inside the epoch is not an error condition by itself: a
        # diverged run is caught by the loss and gradient finiteness checks
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, dataset.n_users, config.batch_users):
                batch = sparse_batch(dataset, perm[start:start + config.batch_users])
                trace = forward(params, config.model, batch, noise_rng)
                total, parts, grads = backward(trace, params, config.model)
                if not np.isfinite(total):
                    raise TrainingDivergedError(epoch)
                for name, grad in grads.items():
                    if not np.isfinite(grad).all():
                        raise TrainingDivergedError(
                            epoch, f"non-finite gradient of {name} at epoch {epoch}")
                opt.step(params, grads)
                for key in sums:
                    sums[key] += parts[key]

            # the last step's arrays would otherwise stay alive through
            # validation; rebinding (not del) also holds for zero steps
            batch = trace = grads = grad = None
            domains = evaluate(params, config.model, dataset, "valid", k=config.eval_k).domains
            rec_s, rec_t, orth = sums.values()
            record = dict(zip(LOG_KEYS, (epoch, rec_s + rec_t + orth, rec_s, rec_t, orth, *(
                domains[d][m] for m in ("recall", "ndcg") for d in DOMAINS))))
            log.records.append(record)
        if verbose:
            print(f"epoch {epoch:4d}  loss {record['loss_total']:.4f}  val ndcg s/t "
                  f"{record['val_ndcg20_s']:.4f}/{record['val_ndcg20_t']:.4f}")

        score = 0.5 * (record["val_ndcg20_s"] + record["val_ndcg20_t"])
        if score > best_score:
            best_score = score
            best_params = params.copy()
            log.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    return best_params, log

