"""Shared fixtures: small graphs and datasets reused across the suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# The reference formulations (benchmarks/reference.py) are the oracle of
# the byte-identity tests; benches import the same copy.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from repro.datasets import generate_dataset
from repro.graph import chain_graph, power_law_community_graph, star_graph


@pytest.fixture(scope="session")
def tiny_dataset():
    """A ~600-node arxiv-like dataset (fast enough for unit tests)."""
    return generate_dataset("arxiv", scale=0.25, seed=0)


@pytest.fixture(scope="session")
def small_products():
    """A ~2000-node products-like dataset for sampler/integration tests."""
    return generate_dataset("products", scale=0.25, seed=0)


@pytest.fixture(scope="session")
def community_graph():
    """A standalone power-law community graph (no features/labels)."""
    return power_law_community_graph(
        num_nodes=800,
        avg_degree=12.0,
        num_communities=4,
        rng=np.random.default_rng(7),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
