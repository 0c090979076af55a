"""Test-side stand-ins for what the package does not carry itself."""

import numpy as np

from mdap import InteractionDataset, Rng, SyntheticSpec, build_dataset, synthetic_records


def synthetic_dataset(spec: SyntheticSpec, rng: Rng) -> tuple[InteractionDataset, dict[str, int]]:
    """A planted-structure dataset and the planted view per user id: the
    records drawn with rng.derive(0), split with rng.derive(1). `synth
    --seed s` draws the same records as Rng(s) does here, but `prepare
    --seed s` splits them with Rng(s) itself, so the splits differ."""
    domain_s, domain_t, planted = synthetic_records(spec, rng.derive(0))
    return build_dataset(domain_s, domain_t, rng.derive(1)), planted


def split_pairs(ds: InteractionDataset, domain: str, split: str) -> np.ndarray:
    """The int64 (n, 2) (user, item) pairs of one split, in (user, item)
    order, rebuilt from the split's rows."""
    rows = ds.rows(domain, split)
    users = np.repeat(np.arange(rows.n_rows), np.diff(rows.indptr))
    return np.stack([users, rows.indices], axis=1)
