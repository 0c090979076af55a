"""The checked surface (the CLI and the files it reads, the constructors of
the public classes and the functions in mdap.__all__) raises its typed
MdapError with its message, not a stray numpy or Python error."""

import re
import struct

import numpy as np
import pytest

from mdap.data import split_counts, view_blocks
from mdap.errors import CheckpointError, ParameterError, ShapeError
from mdap.evaluation import ndcg_at_k
from mdap.model import (CHECKPOINT_MAGIC, ModelConfig, forward, init_params, load_checkpoint,
                        save_checkpoint)
from mdap.numerics import CsrRows, Rng
from mdap.training import backward
from sparse_rows import csr_lists

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


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda tmp: init_params(CONFIG, 0, 5, Rng(0)),
                 ParameterError, "both domains need at least one item", id="init_params"),
    pytest.param(checkpoint_of_version_two,
                 CheckpointError, "unsupported checkpoint version 2", id="checkpoint-version"),
    pytest.param(lambda tmp: CsrRows(np.array([0, 2]), np.array([0]), 3),
                 ShapeError, "indptr ends at 2 but there are 1 indices", id="csr-indptr"),
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
