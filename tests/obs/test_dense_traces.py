"""Observed dense runs run the reference engine.

The dense backend serves unobserved runs only.  Under an active
observation every dense entry point (TreeKDom, FastDOM, the BFS tree;
any faulted run too) executes on the reference engine, so an observed
dense run exports the *same bytes* as the reference backend — because
it is the same run — and no dense kernel registers a run or emits an
event.  At least one of the pinned runs is *faulted*."""

import io

import pytest

from repro.core import fastdom_tree, tree_kdominating_set
from repro.graphs import RootedTree, caterpillar_tree, random_tree
from repro.obs import JsonlTraceWriter, observe
from repro.primitives import build_bfs_tree
from repro.sim import FaultConfig, FaultInjector, Network

pytest.importorskip("numpy")


def traced(fn):
    """Run ``fn`` under a JSONL observation; return the exported text."""
    sink = io.StringIO()
    writer = JsonlTraceWriter(sink, meta={"suite": "dense-traces"})
    with observe(writer):
        fn()
    return sink.getvalue()


class TestObservedKdomTree:
    @pytest.mark.parametrize("k", [2, 4])
    def test_kdom_tree_trace_bytes(self, k):
        g = random_tree(48, seed=7)
        parent = RootedTree.from_graph(g, 0).parent
        ref = traced(lambda: tree_kdominating_set(g, 0, parent, k))
        dense = traced(
            lambda: tree_kdominating_set(g, 0, parent, k, backend="dense")
        )
        assert dense == ref
        assert '"kind"' in ref  # events actually flowed

    def test_kdom_tree_trace_bytes_caterpillar(self):
        g = caterpillar_tree(10, 2)
        parent = RootedTree.from_graph(g, 0).parent
        ref = traced(lambda: tree_kdominating_set(g, 0, parent, 3))
        dense = traced(
            lambda: tree_kdominating_set(g, 0, parent, 3, backend="dense")
        )
        assert dense == ref

    def test_observed_dense_registers_engine_networks(self):
        # The DP and the wave each register one run, and both are the
        # engine's networks: nothing dense takes part in an observation.
        g = random_tree(30, seed=2)
        parent = RootedTree.from_graph(g, 0).parent
        with observe() as obs:
            tree_kdominating_set(g, 0, parent, 2, backend="dense")
        assert obs.run_count == 2
        assert all(type(run) is Network for run in obs._networks)


class TestObservedFallback:
    def test_fastdom_under_observation_matches_reference_bytes(self):
        # An observed dense run executes on the reference engine — the
        # traces are byte-identical because it *is* the same run.
        g = random_tree(40, seed=3)
        parent = RootedTree.from_graph(g, 0).parent
        ref = traced(lambda: fastdom_tree(g, 0, parent, 4))
        dense = traced(
            lambda: fastdom_tree(g, 0, parent, 4, backend="dense")
        )
        assert dense == ref

    def test_faulted_bfs_falls_back_byte_identical(self):
        # A fault plan is outside the dense contract: backend="dense"
        # with faults installed must route through the event engine and
        # leave an identical faulted trace.
        from repro.graphs import grid_graph

        g = grid_graph(5, 5)

        def run(backend):
            return traced(
                lambda: build_bfs_tree(
                    g,
                    0,
                    backend=backend,
                    faults=FaultInjector(
                        FaultConfig(drop_rate=0.15, delay_rate=0.1,
                                    max_delay=2, seed=11)
                    ),
                )
            )

        ref = run("reference")
        dense = run("dense")
        assert dense == ref
        # The identity is not vacuous: faults actually fired.
        assert '"kind":"drop"' in ref or '"kind":"delay"' in ref

    def test_clean_observed_bfs_matches_reference_bytes(self):
        g = random_tree(30, seed=5)
        ref = traced(lambda: build_bfs_tree(g, 0, backend="reference"))
        dense = traced(lambda: build_bfs_tree(g, 0, backend="dense"))
        assert dense == ref
