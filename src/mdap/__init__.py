"""Cross-domain recommendation with multi-view preference encoding.

Users interacting in two item domains are encoded through a set of
stochastically assigned preference views; per-domain gates mix the view
embeddings and a shared decoder reconstructs each domain's interaction
row. Training minimizes reconstruction error plus a penalty that keeps
the two domains' gate vectors from collapsing onto the same views.
"""

from .data import (InteractionDataset, SyntheticSpec,
                   build_dataset, k_core_filter, load_domain,
                   sparse_batch, split_counts, synthetic_records, view_blocks)
from .errors import (CheckpointError, DataError, MdapError, ParameterError,
                     ParseError, ShapeError, TrainingDivergedError)
from .evaluation import MetricsReport, evaluate, ndcg_at_k, recall_at_k, top_k
from .model import (ModelConfig, ModelParams, ForwardTrace, forward, init_params,
                    load_checkpoint, save_checkpoint)
from .numerics import CsrRows, Rng
from .training import TrainConfig, TrainLog, backward, train

__version__ = "0.1.0"

__all__ = [
    "CheckpointError", "CsrRows", "DataError", "ForwardTrace",
    "InteractionDataset", "MdapError", "MetricsReport",
    "ModelConfig", "ModelParams", "ParameterError", "ParseError", "Rng",
    "ShapeError", "SyntheticSpec", "TrainConfig", "TrainLog",
    "TrainingDivergedError", "backward", "build_dataset", "evaluate",
    "forward", "init_params", "k_core_filter",
    "load_checkpoint", "load_domain", "ndcg_at_k", "recall_at_k",
    "save_checkpoint", "sparse_batch", "split_counts",
    "synthetic_records", "top_k", "train", "view_blocks",
]
