"""Each library check that guards a public entry point raises its typed
MdapError with its message, not a stray numpy or Python error."""

import math
import re
import struct

import numpy as np
import pytest

from mdap.data import split_counts, view_blocks
from mdap.errors import CheckpointError, ParameterError, ShapeError
from mdap.evaluation import ndcg_at_k
from mdap.model import (CHECKPOINT_MAGIC, ModelConfig, combine_views, forward, init_params,
                        load_checkpoint, save_checkpoint)
from mdap.numerics import CsrRows, Rng, adam_step, matmul, sample_dropout_mask, softmax_rows
from mdap.training import backward
from sparse_rows import csr_lists, dense_input

CONFIG = ModelConfig(k=3, embed_dim=8, hidden=16, tau=0.2, keep_prob=0.5, lam=0.5)


def toy():
    """Params over 6 + 5 items and a two-user batch of their 11 columns."""
    return init_params(CONFIG, 6, 5, Rng(0)), csr_lists([[0, 7], [2, 9]], 11)


def backward_on_eval_trace(tmp_path):
    params, batch = toy()
    trace = forward(params, CONFIG, batch)
    backward(trace, params, CONFIG)


def backward_with_other_item_counts(tmp_path):
    params, batch = toy()
    trace = forward(params, CONFIG, batch, Rng(1))
    backward(trace, init_params(CONFIG, 7, 5, Rng(0)), CONFIG)


def checkpoint_of_version_two(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), toy()[0], CONFIG)
    blob = path.read_bytes()
    off = len(CHECKPOINT_MAGIC)
    path.write_bytes(blob[:off] + struct.pack("<I", 2) + blob[off + 4:])
    load_checkpoint(str(path))


VIEW_EMBS = np.zeros((CONFIG.k, 2, CONFIG.embed_dim))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda tmp: toy()[0].domain_slice("x"),
                 ParameterError, "unknown domain 'x'", id="domain_slice"),
    pytest.param(lambda tmp: init_params(CONFIG, 0, 5, Rng(0)),
                 ParameterError, "both domains need at least one item", id="init_params"),
    pytest.param(lambda tmp: combine_views(VIEW_EMBS, np.ones(CONFIG.k + 1)),
                 ShapeError, "3 view embeddings vs 4 weights", id="combine_views-k+1"),
    pytest.param(lambda tmp: combine_views(VIEW_EMBS, np.ones(CONFIG.k - 1)),
                 ShapeError, "3 view embeddings vs 2 weights", id="combine_views-k-1"),
    pytest.param(checkpoint_of_version_two,
                 CheckpointError, "unsupported checkpoint version 2", id="checkpoint-version"),
    pytest.param(lambda tmp: matmul(np.ones(3), np.ones((3, 2))),
                 ShapeError, "matmul needs 2-d operands, got (3,) and (3, 2)", id="matmul-1d"),
    pytest.param(lambda tmp: CsrRows(np.array([0, 2]), np.array([0]), 3),
                 ShapeError, "indptr ends at 2 but there are 1 indices", id="csr-indptr"),
    pytest.param(lambda tmp: dense_input(np.eye(2, 3)).matmul(np.ones((4, 2)), "probe"),
                 ShapeError, "cannot multiply (2, 3) rows by (4, 2)", id="input-matmul"),
    pytest.param(lambda tmp: dense_input(np.eye(2, 3)).t_matmul(np.ones((3, 2)), "probe"),
                 ShapeError, "cannot multiply (2, 3) rows, transposed, by (3, 2)",
                 id="input-t_matmul"),
    pytest.param(lambda tmp: adam_step(*(np.zeros(2) for _ in range(4)), t=0),
                 ParameterError, "step index must be >= 1, got 0", id="adam_step-t0"),
    pytest.param(lambda tmp: ndcg_at_k(np.arange(3), set(), 2),
                 ParameterError, "ndcg is undefined for an empty truth set", id="ndcg-no-truth"),
    pytest.param(backward_on_eval_trace,
                 ParameterError, "backward needs a training trace: one from forward given an Rng",
                 id="backward-eval-trace"),
    pytest.param(backward_with_other_item_counts,
                 ShapeError, "trace and params disagree on the item count",
                 id="backward-item-counts"),
    pytest.param(lambda tmp: view_blocks(3, 4),
                 ParameterError, "cannot split 3 items into 4 non-empty blocks", id="view_blocks"),
    # public helpers that take a scalar check its type and range before using it
    *(pytest.param(lambda tmp, tau=tau: softmax_rows(np.zeros((1, 2)), tau), ParameterError,
                   message, id=f"softmax_rows-tau-{tau!r}") for tau, message in (
        (math.nan, "temperature must be positive and finite, got nan"),
        (math.inf, "temperature must be positive and finite, got inf"),
        ("x", "tau must be a real number, got 'x'"),
        (None, "tau must be a real number, got None"),
        (True, "tau must be a real number, got True"))),
    *(pytest.param(lambda tmp, p=p: sample_dropout_mask(Rng(0), 2, 2, p, np.arange(4)),
                   ParameterError, f"keep_prob must be a real number, got {p!r}",
                   id=f"dropout-keep_prob-{p!r}") for p in ("x", None)),
    *(pytest.param(lambda tmp, t=t: adam_step(*(np.zeros(2) for _ in range(4)), t=t),
                   ParameterError, f"step index must be an integer, got {t!r}",
                   id=f"adam_step-t{t!r}") for t in (1.5, "x")),
    pytest.param(lambda tmp: adam_step(*(np.zeros(2) for _ in range(4)), t=1, lr=math.nan),
                 ParameterError, "lr must be positive and finite, got nan", id="adam_step-lr-nan"),
    pytest.param(lambda tmp: adam_step(*(np.zeros(2) for _ in range(4)), t=1, lr="x"),
                 ParameterError, "lr must be a real number, got 'x'", id="adam_step-lr-str"),
    # integer parameters of data and Rng
    *(pytest.param(lambda tmp, n=n: split_counts(n), ParameterError,
                   f"n must be an integer, got {n!r}", id=f"split_counts-{n!r}")
      for n in (2.5, "3", None, True)),
    pytest.param(lambda tmp: view_blocks(10, 1.5),
                 ParameterError, "k_true must be an integer, got 1.5", id="view_blocks-k-float"),
    pytest.param(lambda tmp: view_blocks(10.0, 2),
                 ParameterError, "n_items must be an integer, got 10.0", id="view_blocks-n-float"),
    *(pytest.param(lambda tmp, key=key: Rng(1, key=(key,)), ParameterError,
                   f"key must be an integer, got {key!r}", id=f"rng-key-{key!r}")
      for key in (1.5, "x")),
    pytest.param(lambda tmp: Rng(1).derive(-1),
                 ParameterError, "key must be >= 0, got -1", id="rng-derive-negative"),
])
def test_library_check_raises_its_typed_error(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
