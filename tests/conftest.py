"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    assign_unique_weights,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
    tree_from_pruefer,
)
from repro.sim import Network


# ---------------------------------------------------------------------------
# Deterministic workload fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def small_tree() -> Graph:
    return random_tree(40, seed=7)


@pytest.fixture
def medium_tree() -> Graph:
    return random_tree(200, seed=11)


@pytest.fixture
def weighted_graph() -> Graph:
    return assign_unique_weights(random_connected_graph(80, 0.06, seed=3), seed=4)


@pytest.fixture
def weighted_grid() -> Graph:
    return assign_unique_weights(grid_graph(7, 8), seed=5)


@contextmanager
def scheduling(mode: str):
    """Run the block under the engine's ``"active"`` scheduler (a no-op)
    or a ``"full"`` sweep that invokes every unhalted program every
    round.

    The full sweep is the reference active-set scheduling must be
    observationally identical to.  It patches :meth:`Network.setup`, so
    it also reaches drivers that build their networks internally.
    """
    if mode == "active":
        yield
        return
    setup = Network.setup

    def setup_full_sweep(self, program_factory):
        setup(self, program_factory)
        self._always = set(self._unhalted)

    Network.setup = setup_full_sweep
    try:
        yield
    finally:
        Network.setup = setup


TREE_CASES = [
    ("path", path_graph(30)),
    ("star", star_graph(30)),
    ("random-a", random_tree(60, seed=1)),
    ("random-b", random_tree(97, seed=2)),
]


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------
def pruefer_trees(min_nodes: int = 2, max_nodes: int = 40):
    """Random labelled trees via Prüfer sequences."""

    def build(seq):
        return tree_from_pruefer(seq)

    return st.integers(min_value=min_nodes, max_value=max_nodes).flatmap(
        lambda n: st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=max(n - 2, 0),
            max_size=max(n - 2, 0),
        ).map(lambda seq: _tree_of(n, seq))
    )


def _tree_of(n: int, seq):
    if n == 2:
        g = Graph()
        g.add_edge(0, 1)
        return g
    return tree_from_pruefer(seq)


def weighted_graphs(min_nodes: int = 3, max_nodes: int = 30):
    """Connected graphs with distinct integer weights."""
    return st.tuples(
        st.integers(min_value=min_nodes, max_value=max_nodes),
        st.integers(min_value=0, max_value=2**20),
        st.floats(min_value=0.0, max_value=0.3),
    ).map(
        lambda t: assign_unique_weights(
            random_connected_graph(t[0], t[2], seed=t[1]), seed=t[1] + 1
        )
    )
