import pytest

from mdap import Rng, SyntheticSpec
from oracles import synthetic_dataset


@pytest.fixture(scope="session")
def fixture_dataset():
    """The planted-structure benchmark dataset used across the suite."""
    spec = SyntheticSpec(n_users=200, n_items_s=40, n_items_t=30,
                         k_true=4, overlap=0.5, noise=0.05)
    dataset, _ = synthetic_dataset(spec, Rng(7))
    return dataset


@pytest.fixture(scope="session")
def small_dataset():
    """A reduced instance for tests that train many times."""
    spec = SyntheticSpec(n_users=60, n_items_s=16, n_items_t=12,
                         k_true=2, overlap=0.5, noise=0.05)
    dataset, _ = synthetic_dataset(spec, Rng(3))
    return dataset
