"""Model core: preference encoding over stochastic views with domain
gates, plus checkpoint serialization.

A batch of users enters as concatenated interaction rows over both
domains' items, in CSR form. The stored entries of each row are
L2-normalized and corrupted once by dropout; that corrupted input, an
InputRows, drives both the view-assignment logits and the per-view
encoder inputs. Its first-layer products run as dense BLAS GEMMs, or row
by row over the kept entries when numerics.per_row_products finds that
cheaper for the batch (sparse rows over thousands of items). Soft view
assignments come from a Gumbel-Softmax over similarity logits between the
user rows and a set of view anchors in item-embedding space. Each view's
masked input diag(a_i)·x is encoded by a shared MLP, the per-domain gate
mixes the view embeddings, and a shared decoder reconstructs each
domain's items.
The masked inputs are never built: view i's first encoder layer is
a_i ⊙ (x @ enc_w1), so one product serves every view.

Ablations:
  full        complete model
  no_gumbel   deterministic softmax assignment (no Gumbel noise)
  single_view one view (k forced to 1): the softmax of one logit is
              exactly 1, so the assignment is all-ones; no noise is drawn
  no_gate     uniform 1/k view mixing, gate table unused
"""

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .data import atomic_open
from .errors import CheckpointError, ParameterError, ShapeError
from .numerics import (CsrRows, InputRows, Rng, buffer, check_int, check_real, row_l2_normalize,
                       sample_dropout_mask, sample_gumbel, softmax_rows)

# (name in the paper's ablation table, ModelConfig.ablation), in report order
ABLATION_VARIANTS = (("MDAP", "full"), ("MDAP-GS", "no_gumbel"),
                     ("MDAP-MV", "single_view"), ("MDAP-DG", "no_gate"))
ABLATIONS = tuple(ablation for _, ablation in ABLATION_VARIANTS)

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
        for name in ("k", "embed_dim", "hidden"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.ablation == "single_view":
            object.__setattr__(self, "k", 1)
        if not 0.0 < check_real("tau", self.tau) < math.inf:
            raise ParameterError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 < check_real("keep_prob", self.keep_prob) <= 1.0:
            raise ParameterError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if not 0.0 <= check_real("lam", self.lam) < math.inf:
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
        """The columns of domain "s" or "t" in the concatenated item axis."""
        if domain == "s":
            return slice(0, self.n_items_s)
        return slice(self.n_items_s, self.n_items_total)


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


def gumbel_softmax_assign(logits: np.ndarray, tau: float, rng: Rng | None = None) -> np.ndarray:
    """Soft view assignment rows on the probability simplex: the tempered
    softmax of the logits, perturbed first by fresh standard Gumbel noise
    when an Rng is given (forward gives none under no_gumbel or single_view)."""
    if rng is not None:
        logits = logits + sample_gumbel(rng, *logits.shape)
    return softmax_rows(logits, tau)


def encode_rows(params: ModelParams, enc_proj: np.ndarray,
                assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared two-layer tanh encoder applied to every view at once.

    enc_proj is x @ enc_w1 for the shared input x. View i's input is
    diag(a_i)·x, whose first-layer product is a_i ⊙ enc_proj, so no view
    input is built. Returns (hidden (k, B, h), embeddings (k, B, l)).
    """
    b, h = enc_proj.shape
    k = assign.shape[1]
    # buffer() arrays are C order, so the (k*B, h) reshape below is a view
    hidden = buffer("enc_hidden", (k, b, h))
    np.multiply(assign.T[:, :, None], enc_proj, out=hidden)
    hidden += params.enc_b1
    np.tanh(hidden, out=hidden)
    # one (k*B, h) product: numpy runs a stacked matmul against a shared
    # 2-d operand far slower than the equivalent single GEMM
    emb = np.matmul(hidden.reshape(k * b, h), params.enc_w2,
                    out=buffer("view_embs", (k * b, params.enc_w2.shape[1])))
    emb += params.enc_b2
    return hidden, emb.reshape(k, b, -1)


def gate_weights(params: ModelParams, ablation: str = "full") -> np.ndarray:
    """The (2, k) view mixing table, row 0 for domain s and row 1 for t,
    each row on the simplex: the softmax of each gate row, or uniform rows
    under the no_gate ablation, which ignores the table.
    """
    if ablation == "no_gate":
        return np.full(params.gate.shape, 1.0 / params.gate.shape[1])
    return softmax_rows(params.gate, 1.0)


def combine_views(view_embs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum of the view embeddings over the leading view axis."""
    return np.tensordot(weights, view_embs, axes=1)


def decode(params: ModelParams, z: np.ndarray, domain: str,
           out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Shared two-layer tanh decoder, read out on one domain's items.

    Returns (hidden, scores over the domain's columns); only those
    columns of dec_w2 and dec_b2 are multiplied. The scores are written
    into out, a C-contiguous (B, items) array, when given.
    """
    cols = params.domain_slice(domain)
    b, h = len(z), params.dec_w1.shape[1]
    hidden = np.matmul(z, params.dec_w1, out=buffer("dec_hidden_" + domain, (b, h)))
    hidden += params.dec_b1
    np.tanh(hidden, out=hidden)
    if out is None:
        out = buffer("recon_" + domain, (b, cols.stop - cols.start))
    scores = np.matmul(hidden, params.dec_w2[:, cols], out=out)
    scores += params.dec_b2[cols]  # in place: a second (B, items) array costs more than the add
    return hidden, scores


@dataclass
class ForwardTrace:
    """The batch and the intermediates of one forward pass that backward reads.

    training is True when forward was given an Rng. Dropout masks and
    Gumbel noise are constants of the pass and are not kept: a
    finite-difference probe or a test recovers them by replaying the pass
    on a stream derived from the same seed.
    """

    training: bool
    batch: CsrRows                     # the rows forward was given, not a copy
    x: InputRows                       # normalized, dropout-corrupted input;
                                       # x.array is the dense x on the dense path
    item_norm: np.ndarray
    core_norm: np.ndarray
    proj: np.ndarray                   # x @ item_norm
    assign: np.ndarray
    enc_proj: np.ndarray               # x @ enc_w1, shared by every view
    enc_hidden: np.ndarray             # (k, B, h)
    view_embs: np.ndarray              # (k, B, l)
    gates: np.ndarray                  # (2, k): row 0 mixes domain s, row 1 domain t
    z_s: np.ndarray
    z_t: np.ndarray
    dec_hidden_s: np.ndarray
    dec_hidden_t: np.ndarray
    recon_s: np.ndarray
    recon_t: np.ndarray


def embedding_norms(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(item_norm, core_norm, core_norm_t): the normalized embeddings and a
    C-order copy of core_norm^T (with the transposed view, OpenBLAS rounds
    a row of proj @ core_norm^T differently in blocks of under ~155 rows)."""
    core_norm = row_l2_normalize(params.core_emb)
    return row_l2_normalize(params.item_emb), core_norm, np.ascontiguousarray(core_norm.T)


def forward(params: ModelParams, config: ModelConfig, batch: CsrRows,
            rng: Rng | None = None, norms: tuple | None = None,
            out: dict[str, np.ndarray] | None = None) -> ForwardTrace:
    """Run the full model on a batch of concatenated interaction rows.

    A 0/1 row with c entries has L2 norm sqrt(c) exactly, so only the
    stored entries are normalized and masked, and the result is the dense
    row_l2_normalize -> dropout input bit for bit. The normalized input is
    corrupted by one shared dropout mask that feeds both the assignment
    logits and the view encoder, so the view inputs still sum to the
    corrupted input exactly. A pass trains exactly when it is given an
    Rng: it draws the input mask first, then the Gumbel noise (none under
    no_gumbel or single_view), so a stream derived from the same seed
    replays the pass exactly. Without one it evaluates, deterministically:
    no noise, no dropout.

    Evaluation may pass norms, embedding_norms(params) computed once per
    call, and out, per domain the score rows that decode writes into;
    neither changes a bit of the result.
    """
    n = params.n_items_total
    if batch.n_cols != n:
        raise ShapeError(f"expected rows of width {n}, got {batch.n_cols}")
    b = batch.n_rows
    entries = batch.flat_index()
    counts = np.diff(batch.indptr)
    values = 1.0 / np.sqrt(np.repeat(counts, counts))
    if rng is not None and config.keep_prob < 1.0:
        mask = sample_dropout_mask(rng, b, n, config.keep_prob, entries)
        values = values * mask * (1.0 / config.keep_prob)
    x = InputRows.build(batch, entries, values,
                        params.item_emb.shape[1] + params.enc_w1.shape[1])

    item_norm, core_norm, core_norm_t = embedding_norms(params) if norms is None else norms
    proj = x.matmul(item_norm, "proj")
    logits = np.matmul(proj, core_norm_t)
    noisy = config.ablation not in ("no_gumbel", "single_view")
    assign = gumbel_softmax_assign(logits, config.tau, rng if noisy else None)

    enc_proj = x.matmul(params.enc_w1, "enc_proj")
    enc_hidden, view_embs = encode_rows(params, enc_proj, assign)
    gates = gate_weights(params, config.ablation)
    z_s = combine_views(view_embs, gates[0])
    z_t = combine_views(view_embs, gates[1])
    out = out or {}
    dec_hidden_s, recon_s = decode(params, z_s, "s", out=out.get("s"))
    dec_hidden_t, recon_t = decode(params, z_t, "t", out=out.get("t"))

    return ForwardTrace(
        training=rng is not None, batch=batch, x=x, item_norm=item_norm, core_norm=core_norm,
        proj=proj, assign=assign, enc_proj=enc_proj, enc_hidden=enc_hidden, view_embs=view_embs,
        gates=gates, z_s=z_s, z_t=z_t, dec_hidden_s=dec_hidden_s, dec_hidden_t=dec_hidden_t,
        recon_s=recon_s, recon_t=recon_t)


def header_value(value):
    """json.dumps' hook: a numpy scalar is written as the number it equals."""
    if isinstance(value, np.generic):
        return value.item()
    raise ParameterError(f"a checkpoint header cannot hold {value!r}")


def save_checkpoint(path: str, params: ModelParams, config: ModelConfig,
                    extra: dict | None = None):
    """Write params + config to a versioned binary file.

    Layout: magic, u32 version, u64 header length, JSON header (config,
    item counts, shape table, optional extra metadata), then each
    parameter array's raw little-endian float64 bytes in PARAM_FIELDS
    order. Round-trips bit exactly. A header value that JSON cannot write
    raises ParameterError before the file is made.
    """
    header = {
        "config": asdict(config),
        "n_items_s": params.n_items_s,
        "n_items_t": params.n_items_t,
        "shapes": {name: list(arr.shape) for name, arr in params.arrays()},
    }
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True, default=header_value).encode("utf-8")
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
        n_items_s, n_items_t = (check_int(n, header[n]) for n in ("n_items_s", "n_items_t"))
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
