"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.instances import (
    braess_network,
    grid_network,
    identical_linear_links,
    pigou_network,
    random_layered_network,
    two_link_network,
)
from repro.wardrop import AffineLatency, Commodity, FlowVector, WardropNetwork


@pytest.fixture
def two_links():
    """The paper's two-link oscillation instance with beta = 1."""
    return two_link_network(beta=1.0)


@pytest.fixture
def two_links_steep():
    """The two-link instance with a steep slope (beta = 8)."""
    return two_link_network(beta=8.0)


@pytest.fixture
def pigou():
    """The linear Pigou instance."""
    return pigou_network(degree=1)


@pytest.fixture
def braess():
    """The Braess network with the zero-latency shortcut."""
    return braess_network(with_shortcut=True)


@pytest.fixture
def parallel_four():
    """Four identical linear links."""
    return identical_linear_links(4)


@pytest.fixture
def small_grid():
    """A 3x3 grid with one commodity."""
    return grid_network(3, 3, num_commodities=1, seed=3)


@pytest.fixture
def layered():
    """A small random layered DAG with two commodities."""
    return random_layered_network(num_layers=2, width=2, num_commodities=2, seed=5)


@pytest.fixture
def ragged():
    """Two commodities of three and two parallel links: unequal block sizes."""
    edges = [
        ("s", "t", AffineLatency(1.0, 0.5)),
        ("s", "t", AffineLatency(2.0, 0.1)),
        ("s", "t", AffineLatency(0.5, 1.0)),
        ("u", "v", AffineLatency(1.5, 0.2)),
        ("u", "v", AffineLatency(0.8, 0.6)),
    ]
    return WardropNetwork.from_edges(edges, [Commodity("s", "t", 0.6), Commodity("u", "v", 0.4)])


@pytest.fixture
def uniform_flow(braess):
    """The uniform starting flow on the Braess network."""
    return FlowVector.uniform(braess)
