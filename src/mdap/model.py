"""Model core: preference encoding over stochastic views with domain
gates, plus checkpoint serialization.

A batch of users enters as concatenated interaction rows over both
domains' items, in CSR form. The stored entries of each row are
L2-normalized and corrupted once by dropout; that corrupted input,
written once into a dense array, drives both the view-assignment
logits and the per-view encoder inputs. Soft view assignments come from a
Gumbel-Softmax over similarity logits between the user rows and a set
of view anchors in item-embedding space. Each view's masked input
diag(a_i)·x is encoded by a shared MLP, the per-domain gate mixes the
view embeddings, and a shared decoder reconstructs each domain's items.
The masked inputs are never built: view i's first encoder layer is
a_i ⊙ (x @ enc_w1), so one product serves every view.

Ablations:
  full        complete model
  no_gumbel   deterministic softmax assignment (no Gumbel noise)
  single_view one view, no assignment step (k forced to 1)
  no_gate     uniform 1/k view mixing, gate table unused
"""

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .data import atomic_open
from .errors import CheckpointError, ParameterError, ShapeError
from .numerics import (CsrRows, Rng, matmul, row_l2_normalize, sample_dropout_mask,
                       sample_gumbel, softmax_rows)

ABLATIONS = ("full", "no_gumbel", "single_view", "no_gate")

CHECKPOINT_MAGIC = b"MDAPCKPT"
CHECKPOINT_VERSION = 1

# Serialization order of the parameter arrays in a checkpoint.
PARAM_FIELDS = ("item_emb", "core_emb", "enc_w1", "enc_b1", "enc_w2", "enc_b2",
                "dec_w1", "dec_b1", "dec_w2", "dec_b2", "gate")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the model itself.

    k            number of preference views
    embed_dim    embedding width of views and users
    hidden       width of the encoder/decoder hidden layer
    tau          assignment softmax temperature
    keep_prob    input dropout keep probability (1 = no dropout)
    lam          weight of the gate orthogonality penalty
    ablation     one of ABLATIONS; single_view forces k to 1
    """

    k: int = 8
    embed_dim: int = 64
    hidden: int = 256
    tau: float = 0.2
    keep_prob: float = 0.5
    lam: float = 0.5
    ablation: str = "full"

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ParameterError(f"unknown ablation {self.ablation!r}, expected {ABLATIONS}")
        if self.ablation == "single_view" and self.k != 1:
            object.__setattr__(self, "k", 1)
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.embed_dim < 1 or self.hidden < 1:
            raise ParameterError("embed_dim and hidden must be >= 1")
        if not 0.0 < self.tau < math.inf:
            raise ParameterError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ParameterError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if not 0.0 <= self.lam < math.inf:
            raise ParameterError(f"lam must be finite and >= 0, got {self.lam}")


@dataclass
class ModelParams:
    """All trainable arrays plus the domain item counts.

    Shapes (N = n_items_s + n_items_t, l = embed_dim, h = hidden):
      item_emb (N, l), core_emb (k, l),
      enc_w1 (N, h), enc_b1 (h,), enc_w2 (h, l), enc_b2 (l,),
      dec_w1 (l, h), dec_b1 (h,), dec_w2 (h, N), dec_b2 (N,),
      gate (2, k) with row 0 = domain s, row 1 = domain t.
    """

    item_emb: np.ndarray
    core_emb: np.ndarray
    enc_w1: np.ndarray
    enc_b1: np.ndarray
    enc_w2: np.ndarray
    enc_b2: np.ndarray
    dec_w1: np.ndarray
    dec_b1: np.ndarray
    dec_w2: np.ndarray
    dec_b2: np.ndarray
    gate: np.ndarray
    n_items_s: int
    n_items_t: int

    @property
    def n_items_total(self) -> int:
        return self.n_items_s + self.n_items_t

    def arrays(self):
        for name in PARAM_FIELDS:
            yield name, getattr(self, name)

    def copy(self) -> "ModelParams":
        kwargs = {name: arr.copy() for name, arr in self.arrays()}
        return ModelParams(n_items_s=self.n_items_s, n_items_t=self.n_items_t, **kwargs)

    def domain_slice(self, domain: str) -> slice:
        if domain == "s":
            return slice(0, self.n_items_s)
        if domain == "t":
            return slice(self.n_items_s, self.n_items_total)
        raise ParameterError(f"unknown domain {domain!r}")


def glorot_uniform(rng: Rng, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return (2.0 * rng.uniform(rows, cols) - 1.0) * limit


def param_shapes(config: ModelConfig, n_items_s: int, n_items_t: int) -> dict[str, tuple]:
    """Shape of each parameter array, in PARAM_FIELDS order."""
    n = n_items_s + n_items_t
    l, h, k = config.embed_dim, config.hidden, config.k
    return {"item_emb": (n, l), "core_emb": (k, l), "enc_w1": (n, h), "enc_b1": (h,),
            "enc_w2": (h, l), "enc_b2": (l,), "dec_w1": (l, h), "dec_b1": (h,),
            "dec_w2": (h, n), "dec_b2": (n,), "gate": (2, k)}


def init_params(config: ModelConfig, n_items_s: int, n_items_t: int, rng: Rng) -> ModelParams:
    """Glorot-uniform weights and embeddings, zero biases and gate table.

    Draw order follows PARAM_FIELDS so initialization is reproducible.
    """
    if n_items_s < 1 or n_items_t < 1:
        raise ParameterError("both domains need at least one item")
    arrays = {name: np.zeros(shape) if len(shape) == 1 or name == "gate"
              else glorot_uniform(rng, *shape)
              for name, shape in param_shapes(config, n_items_s, n_items_t).items()}
    return ModelParams(n_items_s=n_items_s, n_items_t=n_items_t, **arrays)


def gumbel_softmax_assign(logits: np.ndarray, tau: float, rng: Rng | None = None,
                          training: bool = False, ablation: str = "full") -> np.ndarray:
    """Soft view assignment rows on the probability simplex.

    Training mode (ablation != no_gumbel) perturbs the logits with fresh
    standard Gumbel noise before the tempered softmax; evaluation and
    no_gumbel use the logits as they are.
    """
    if ablation != "no_gumbel" and training:
        if rng is None:
            raise ParameterError("training-mode assignment needs an Rng")
        return softmax_rows(logits + sample_gumbel(rng, *logits.shape), tau)
    return softmax_rows(logits, tau)


def encode_rows(params: ModelParams, enc_proj: np.ndarray,
                assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared two-layer tanh encoder applied to every view at once.

    enc_proj is x @ enc_w1 for the shared input x. View i's input is
    diag(a_i)·x, whose first-layer product is a_i ⊙ enc_proj, so no view
    input is built. Returns (hidden (k, B, h), embeddings (k, B, l)).
    """
    # C order keeps the (k*B, h) reshape below a view, not a copy
    hidden = np.multiply(assign.T[:, :, None], enc_proj, order="C")
    hidden += params.enc_b1
    np.tanh(hidden, out=hidden)
    # one (k*B, h) product: numpy runs a stacked matmul against a shared
    # 2-d operand far slower than the equivalent single GEMM
    k, b, h = hidden.shape
    emb = matmul(hidden.reshape(k * b, h), params.enc_w2) + params.enc_b2
    return hidden, emb.reshape(k, b, -1)


def gate_weights(params: ModelParams, domain: str, ablation: str = "full") -> np.ndarray:
    """Per-domain view mixing weights on the simplex.

    Softmax of the domain's gate row; the no_gate ablation returns the
    uniform vector and ignores the table.
    """
    k = params.gate.shape[1]
    if ablation == "no_gate":
        return np.full(k, 1.0 / k)
    row = 0 if domain == "s" else 1 if domain == "t" else None
    if row is None:
        raise ParameterError(f"unknown domain {domain!r}")
    return softmax_rows(params.gate[row:row + 1], 1.0)[0]


def combine_views(view_embs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum of the view embeddings over the leading view axis."""
    if len(view_embs) != weights.shape[0]:
        raise ShapeError(f"{len(view_embs)} view embeddings vs {weights.shape[0]} weights")
    return np.tensordot(weights, view_embs, axes=1)


def decode(params: ModelParams, z: np.ndarray, domain: str) -> tuple[np.ndarray, np.ndarray]:
    """Shared two-layer tanh decoder, read out on one domain's items.

    Returns (hidden, scores over the domain's columns); only those
    columns of dec_w2 and dec_b2 are multiplied.
    """
    cols = params.domain_slice(domain)
    hidden = np.tanh(matmul(z, params.dec_w1) + params.dec_b1)
    scores = matmul(hidden, params.dec_w2[:, cols])
    scores += params.dec_b2[cols]  # in place: a second (B, items) array costs more than the add
    return hidden, scores


@dataclass
class ForwardTrace:
    """The intermediates of one forward pass that backward, residuals and
    loss read.

    Dropout masks and Gumbel noise are constants of the pass and are not
    kept: a finite-difference probe or a test recovers them by replaying
    the pass on a stream derived from the same seed. item_norm, core_norm
    and proj are None under the single_view ablation.
    """

    training: bool
    x: np.ndarray                      # normalized, dropout-corrupted input, dense
    item_norm: np.ndarray | None
    core_norm: np.ndarray | None
    proj: np.ndarray | None            # x @ item_norm
    assign: np.ndarray
    enc_proj: np.ndarray               # x @ enc_w1, shared by every view
    enc_hidden: np.ndarray             # (k, B, h)
    view_embs: np.ndarray              # (k, B, l)
    gate_s: np.ndarray
    gate_t: np.ndarray
    z_s: np.ndarray
    z_t: np.ndarray
    dec_hidden_s: np.ndarray
    dec_hidden_t: np.ndarray
    recon_s: np.ndarray
    recon_t: np.ndarray


def forward(params: ModelParams, config: ModelConfig, batch: CsrRows,
            rng: Rng | None = None, training: bool = False) -> ForwardTrace:
    """Run the full model on a batch of concatenated interaction rows.

    A 0/1 row with c entries has L2 norm sqrt(c) exactly, so only the
    stored entries are normalized and masked, and the result is the dense
    row_l2_normalize -> dropout input bit for bit. The normalized input is
    corrupted by one shared dropout mask that feeds both the assignment
    logits and the view encoder, so the view inputs still sum to the
    corrupted input exactly. Evaluation mode is deterministic: no noise,
    no dropout. Training mode draws the input mask first, then the Gumbel
    noise, so a stream derived from the same seed replays the pass exactly.
    """
    n = params.n_items_total
    if batch.n_cols != n:
        raise ShapeError(f"expected rows of width {n}, got {batch.n_cols}")
    b = batch.n_rows
    entries = batch.flat_index()
    if np.any(np.diff(entries) <= 0):  # a repeated column would spoil the count
        raise ShapeError("each row's columns must ascend strictly")
    counts = np.diff(batch.indptr)
    values = 1.0 / np.sqrt(np.repeat(counts, counts))
    if training and config.keep_prob < 1.0:
        if rng is None:
            raise ParameterError("training-mode forward needs an Rng")
        mask = sample_dropout_mask(rng, b, n, config.keep_prob, entries)
        values = values * mask * (1.0 / config.keep_prob)
    x = np.zeros((b, n))
    np.put(x, entries, values)

    if config.ablation == "single_view":
        assign = np.ones((b, 1))
        item_norm = core_norm = proj = None
    else:
        item_norm = row_l2_normalize(params.item_emb)
        core_norm = row_l2_normalize(params.core_emb)
        proj = matmul(x, item_norm)
        assign = gumbel_softmax_assign(matmul(proj, core_norm.T), config.tau, rng,
                                       training, config.ablation)

    enc_proj = matmul(x, params.enc_w1)
    enc_hidden, view_embs = encode_rows(params, enc_proj, assign)
    gate_s = gate_weights(params, "s", config.ablation)
    gate_t = gate_weights(params, "t", config.ablation)
    z_s = combine_views(view_embs, gate_s)
    z_t = combine_views(view_embs, gate_t)
    dec_hidden_s, recon_s = decode(params, z_s, "s")
    dec_hidden_t, recon_t = decode(params, z_t, "t")

    return ForwardTrace(
        training=training, x=x, item_norm=item_norm, core_norm=core_norm, proj=proj,
        assign=assign, enc_proj=enc_proj, enc_hidden=enc_hidden, view_embs=view_embs,
        gate_s=gate_s, gate_t=gate_t, z_s=z_s, z_t=z_t, dec_hidden_s=dec_hidden_s,
        dec_hidden_t=dec_hidden_t, recon_s=recon_s, recon_t=recon_t)


def save_checkpoint(path: str, params: ModelParams, config: ModelConfig,
                    extra: dict | None = None):
    """Write params + config to a versioned binary file.

    Layout: magic, u32 version, u64 header length, JSON header (config,
    item counts, shape table, optional extra metadata), then each
    parameter array's raw little-endian float64 bytes in PARAM_FIELDS
    order. Round-trips bit exactly.
    """
    header = {
        "config": asdict(config),
        "n_items_s": params.n_items_s,
        "n_items_t": params.n_items_t,
        "shapes": {name: list(arr.shape) for name, arr in params.arrays()},
    }
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple[ModelParams, ModelConfig, dict]:
    """Read a checkpoint written by save_checkpoint.

    Returns (params, config, extra metadata). Raises CheckpointError on
    a bad magic, unsupported version, malformed header, a shape that
    the config and item counts do not give, or truncated data.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CHECKPOINT_MAGIC) + 12 or raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    off = len(CHECKPOINT_MAGIC)
    version = struct.unpack_from("<I", raw, off)[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    off += 4
    header_len = struct.unpack_from("<Q", raw, off)[0]
    off += 8
    try:
        header = json.loads(raw[off:off + header_len].decode("utf-8"))
        config = ModelConfig(**header["config"])
        shapes = {name: header["shapes"][name] for name in PARAM_FIELDS}
        n_items_s, n_items_t = int(header["n_items_s"]), int(header["n_items_t"])
        extra = header.get("extra", {})
    except (ValueError, KeyError, TypeError, ParameterError) as exc:
        # ValueError covers undecodable UTF-8 and JSON as well.
        raise CheckpointError(f"{path}: corrupt header: {exc!r}") from exc
    off += header_len
    expected = param_shapes(config, n_items_s, n_items_t)
    arrays = {}
    for name, shape in shapes.items():
        if not (isinstance(shape, list)
                and all(type(dim) is int and dim >= 0 for dim in shape)):
            raise CheckpointError(f"{path}: bad shape {shape!r} for field {name}")
        if tuple(shape) != expected[name]:
            raise CheckpointError(f"{path}: field {name} has shape {shape}, but the header's "
                                  f"config and item counts give {list(expected[name])}")
        nbytes = math.prod(shape) * 8
        if off + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated at field {name}")
        arrays[name] = np.frombuffer(raw[off:off + nbytes], dtype="<f8").reshape(shape).copy()
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes")
    params = ModelParams(n_items_s=n_items_s, n_items_t=n_items_t, **arrays)
    return params, config, extra
