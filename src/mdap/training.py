"""Reconstruction training: loss, exact gradients, the Adam loop with
early stopping, and the four-variant ablation runner.

The loss is the squared Frobenius reconstruction error of both domains
plus a penalty on the dot product of the two domains' gate vectors,
which pushes the domains to rely on different views. Gradients are
derived by hand against the ForwardTrace; dropout masks and Gumbel
noise are treated as constants of the pass, so a finite-difference
probe that replays the pass from the same seed must agree with backward().
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import InteractionDataset, atomic_open, sparse_batch
from .errors import ParameterError, ShapeError, TrainingDivergedError
from .evaluation import evaluate
from .model import PARAM_FIELDS, ModelConfig, ModelParams, forward, init_params
from .numerics import CsrRows, Rng, adam_step, row_l2_normalize_grad, softmax_rows_grad

# Exact key order of one serialized training-log record.
LOG_KEYS = ("epoch", "loss_total", "loss_rec_s", "loss_rec_t", "loss_orth",
            "val_recall20_s", "val_recall20_t", "val_ndcg20_s", "val_ndcg20_t")

ABLATION_VARIANTS = (("MDAP", "full"), ("MDAP-GS", "no_gumbel"),
                     ("MDAP-MV", "single_view"), ("MDAP-DG", "no_gate"))


def residuals(trace, targets: CsrRows) -> tuple[np.ndarray, np.ndarray]:
    """Each domain's reconstruction residual recon - targets, formed once.

    targets are 0/1 rows over both domains' columns (a training step
    passes the batch itself). Off the stored entries the target is 0 and
    recon - 0 is recon exactly, so each residual is a copy of its
    reconstruction with recon - 1 written at the stored entries only: no
    dense targets are built. loss() and backward() both read the pair.
    """
    n_s = trace.recon_s.shape[1]
    if (targets.n_rows, targets.n_cols) != (trace.recon_s.shape[0],
                                            n_s + trace.recon_t.shape[1]):
        raise ShapeError(
            f"targets of shape {(targets.n_rows, targets.n_cols)} do not match "
            f"reconstructions {trace.recon_s.shape}/{trace.recon_t.shape}")
    rows = np.repeat(np.arange(targets.n_rows), np.diff(targets.indptr))
    in_s = targets.indices < n_s
    out = []
    for recon, at, col0 in ((trace.recon_s, in_s, 0), (trace.recon_t, ~in_s, n_s)):
        r = recon.copy()
        r[rows[at], targets.indices[at] - col0] -= 1.0
        out.append(r)
    return out[0], out[1]


def loss(trace, residuals: tuple[np.ndarray, np.ndarray],
         lam: float) -> tuple[float, dict[str, float]]:
    """Total loss and its breakdown {rec_s, rec_t, orth}.

    residuals is the (r_s, r_t) pair from residuals(). Reconstruction
    terms are sums of squared errors over every entry of the batch rows,
    zeros included. The orthogonality term is lam * (gate_s . gate_t).
    """
    r_s, r_t = residuals
    if r_s.shape != trace.recon_s.shape or r_t.shape != trace.recon_t.shape:
        raise ShapeError(
            f"residual shapes {r_s.shape}/{r_t.shape} do not match "
            f"reconstructions {trace.recon_s.shape}/{trace.recon_t.shape}")
    # squared into a fresh array: backward() still reads the residuals
    rec_s = float(np.sum(np.square(r_s)))
    rec_t = float(np.sum(np.square(r_t)))
    orth = float(lam * np.dot(trace.gate_s, trace.gate_t))
    total = rec_s + rec_t + orth
    return total, {"rec_s": rec_s, "rec_t": rec_t, "orth": orth}


def backward(trace, residuals: tuple[np.ndarray, np.ndarray],
             params: ModelParams, config: ModelConfig) -> dict[str, np.ndarray]:
    """Exact loss gradients for every parameter array.

    Requires a training-mode trace and its residuals() pair. Returns
    {field name: gradient} in PARAM_FIELDS order; fields outside the
    active ablation's compute path get zero gradients.
    """
    if not trace.training:
        raise ParameterError("backward needs a trace from forward(training=True)")
    if trace.x.shape[1] != params.n_items_total:
        raise ShapeError("trace and params disagree on the item count")
    # Zeros only where a gradient accumulates or may stay unused.
    grads = {"dec_w1": np.zeros_like(params.dec_w1), "dec_b1": np.zeros_like(params.dec_b1),
             "dec_w2": np.empty_like(params.dec_w2), "dec_b2": np.empty_like(params.dec_b2),
             "gate": np.zeros_like(params.gate)}

    # The loss gradient wrt recon is 2 * r. Doubling is exact, so it is
    # applied to the small products rather than to the (B, items) residual.
    d_z = {}
    gate_recon_grad = {}
    for domain, r, dec_hidden, z in (
            ("s", residuals[0], trace.dec_hidden_s, trace.z_s),
            ("t", residuals[1], trace.dec_hidden_t, trace.z_t)):
        cols = params.domain_slice(domain)
        np.multiply(dec_hidden.T @ r, 2.0, out=grads["dec_w2"][:, cols])
        np.multiply(r.sum(axis=0), 2.0, out=grads["dec_b2"][cols])
        d_hidden = r @ params.dec_w2[:, cols].T
        d_hidden *= 2.0
        d_pre = d_hidden * (1.0 - dec_hidden ** 2)
        grads["dec_w1"] += z.T @ d_pre
        grads["dec_b1"] += d_pre.sum(axis=0)
        d_z[domain] = d_pre @ params.dec_w1.T
        gate_recon_grad[domain] = np.einsum("kbl,bl->k", trace.view_embs, d_z[domain])

    # Gate table: reconstruction pull plus the orthogonality coupling,
    # through the softmax Jacobian. Uniform gates (no_gate) are constant.
    if config.ablation != "no_gate":
        d_gate_s = gate_recon_grad["s"] + config.lam * trace.gate_t
        d_gate_t = gate_recon_grad["t"] + config.lam * trace.gate_s
        grads["gate"][0] = softmax_rows_grad(trace.gate_s[None, :], d_gate_s[None, :])[0]
        grads["gate"][1] = softmax_rows_grad(trace.gate_t[None, :], d_gate_t[None, :])[0]

    # All k views at once; view and row axes are flattened so each dense
    # layer is one GEMM. View i's first-layer input is a_i ⊙ (x @ enc_w1),
    # so the enc_w1 gradient is one x^T product and a_i's gradient is a
    # row sum against x @ enc_w1.
    k, b, h = trace.enc_hidden.shape
    hidden = trace.enc_hidden.reshape(k * b, h)
    d_emb = (trace.gate_s[:, None, None] * d_z["s"]
             + trace.gate_t[:, None, None] * d_z["t"]).reshape(k * b, -1)
    grads["enc_w2"] = hidden.T @ d_emb
    grads["enc_b2"] = d_emb.sum(axis=0)
    d_pre = d_emb @ params.enc_w2.T
    d_pre *= 1.0 - hidden ** 2
    d_pre = d_pre.reshape(k, b, h)
    grads["enc_b1"] = d_pre.sum(axis=(0, 1))
    d_enc = np.einsum("bk,kbh->bh", trace.assign, d_pre)

    if config.ablation == "single_view":
        grads["enc_w1"] = trace.x.T @ d_enc
        grads["item_emb"] = np.zeros_like(params.item_emb)
        grads["core_emb"] = np.zeros_like(params.core_emb)
    else:
        d_assign = np.einsum("kbh,bh->bk", d_pre, trace.enc_proj)
        # Tempered softmax back to the logits; Gumbel noise is additive
        # and constant, so the logit gradient passes straight through.
        d_logits = softmax_rows_grad(trace.assign, d_assign, config.tau)
        d_proj = d_logits @ trace.core_norm
        # x is read once: x^T [d_enc | d_proj] gives the enc_w1 gradient
        # and item_norm's in one GEMM, with the same bits as two products
        x_grads = trace.x.T @ np.concatenate((d_enc, d_proj), axis=1)
        grads["enc_w1"] = x_grads[:, :h]
        grads["core_emb"] = row_l2_normalize_grad(params.core_emb, trace.core_norm,
                                                  d_logits.T @ trace.proj)
        grads["item_emb"] = row_l2_normalize_grad(params.item_emb, trace.item_norm,
                                                  x_grads[:, h:])

    return {name: grads[name] for name in PARAM_FIELDS}


class AdamOptimizer:
    """Per-array Adam state over a ModelParams instance; step() updates the
    params' arrays in place with adam_step's default betas and eps."""

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
        if self.epochs_max < 1:
            raise ParameterError(f"epochs_max must be >= 1, got {self.epochs_max}")
        if self.patience < 1:
            raise ParameterError(f"patience must be >= 1, got {self.patience}")
        if self.batch_users < 1:
            raise ParameterError(f"batch_users must be >= 1, got {self.batch_users}")
        if not 0.0 < self.lr < math.inf:
            raise ParameterError(f"lr must be positive and finite, got {self.lr}")
        if self.eval_k < 1:
            raise ParameterError(f"eval_k must be >= 1, got {self.eval_k}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


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


def default_validator(dataset: InteractionDataset, config: TrainConfig):
    """Validation-split metric callback used by train()."""
    def run(params: ModelParams, epoch: int) -> dict[str, float]:
        report = evaluate(params, config.model, dataset, "valid", k=config.eval_k)
        return {
            "recall_s": report.domains["s"]["recall"],
            "recall_t": report.domains["t"]["recall"],
            "ndcg_s": report.domains["s"]["ndcg"],
            "ndcg_t": report.domains["t"]["ndcg"],
        }
    return run


def train(dataset: InteractionDataset, config: TrainConfig, eval_fn=None,
          verbose: bool = False) -> tuple[ModelParams, TrainLog]:
    """Fit the model on the dataset's training split.

    Each epoch shuffles the user rows, runs training-mode forward and
    backward over user batches, applies Adam, then scores the validation
    split. Early stopping watches the mean of the two domains' NDCG and
    keeps a snapshot of the best-epoch parameters, which are returned.
    A non-finite loss, or a non-finite gradient before the Adam step,
    aborts with TrainingDivergedError.

    eval_fn(params, epoch) may replace the validation callback; it must
    return a dict with recall_s/recall_t/ndcg_s/ndcg_t.
    """
    rng = Rng(config.seed)
    init_rng = rng.derive(0)
    shuffle_rng = rng.derive(1)
    noise_rng = rng.derive(2)

    params = init_params(config.model, dataset.n_items("s"), dataset.n_items("t"), init_rng)
    opt = AdamOptimizer(params, lr=config.lr)
    if eval_fn is None:
        eval_fn = default_validator(dataset, config)

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
                trace = forward(params, config.model, batch, noise_rng, training=True)
                # the batch's own entries are the targets
                r = residuals(trace, batch)
                total, parts = loss(trace, r, config.model.lam)
                if not np.isfinite(total):
                    raise TrainingDivergedError(epoch)
                grads = backward(trace, r, params, config.model)
                for name, grad in grads.items():
                    if not np.isfinite(grad).all():
                        raise TrainingDivergedError(
                            epoch, f"non-finite gradient of {name} at epoch {epoch}")
                opt.step(params, grads)
                for key in sums:
                    sums[key] += parts[key]

            # the last step's arrays would otherwise stay alive through
            # validation; rebinding (not del) also holds for zero steps
            batch = trace = r = grads = grad = None
            metrics = eval_fn(params, epoch)
            log.records.append({
                "epoch": epoch,
                "loss_total": sums["rec_s"] + sums["rec_t"] + sums["orth"],
                "loss_rec_s": sums["rec_s"],
                "loss_rec_t": sums["rec_t"],
                "loss_orth": sums["orth"],
                "val_recall20_s": metrics["recall_s"],
                "val_recall20_t": metrics["recall_t"],
                "val_ndcg20_s": metrics["ndcg_s"],
                "val_ndcg20_t": metrics["ndcg_t"],
            })
        if verbose:
            print(f"epoch {epoch:4d}  loss {log.records[-1]['loss_total']:.4f}  "
                  f"val ndcg s/t {metrics['ndcg_s']:.4f}/{metrics['ndcg_t']:.4f}")

        score = 0.5 * (metrics["ndcg_s"] + metrics["ndcg_t"])
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


@dataclass
class AblationReport:
    """Test metrics of the four model variants trained with one seed."""

    seed: int
    rows: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "rows": self.rows}

    def format_table(self) -> str:
        header = f"{'variant':<10} {'recall_s':>9} {'ndcg_s':>9} {'recall_t':>9} {'ndcg_t':>9}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(f"{row['variant']:<10} {row['recall_s']:>9.4f} {row['ndcg_s']:>9.4f} "
                         f"{row['recall_t']:>9.4f} {row['ndcg_t']:>9.4f}")
        return "\n".join(lines)


def run_ablation(dataset: InteractionDataset, config: TrainConfig,
                 verbose: bool = False) -> tuple[AblationReport, dict[str, tuple]]:
    """Train all four variants with the same seed and score the test split.

    Returns the report plus {variant name: (params, log)} for callers
    that want the artifacts.
    """
    report = AblationReport(seed=config.seed)
    artifacts: dict[str, tuple] = {}
    for name, ablation in ABLATION_VARIANTS:
        variant = replace(config, model=replace(config.model, ablation=ablation))
        if verbose:
            print(f"[ablation] training {name} ({ablation})")
        params, log = train(dataset, variant, verbose=False)
        result = evaluate(params, variant.model, dataset, "test", k=config.eval_k)
        report.rows.append({
            "variant": name,
            "ablation": ablation,
            "seed": config.seed,
            "best_epoch": log.best_epoch,
            "recall_s": result.domains["s"]["recall"],
            "ndcg_s": result.domains["s"]["ndcg"],
            "recall_t": result.domains["t"]["recall"],
            "ndcg_t": result.domains["t"]["ndcg"],
        })
        artifacts[name] = (params, log)
    return report, artifacts
