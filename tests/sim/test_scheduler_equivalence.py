"""Active-set scheduling is an implementation optimisation, not a model
change: every protocol must produce byte-identical results whether the
engine sweeps all nodes each round (the ``scheduling("full")`` test
helper) or invokes only nodes with traffic, matured wakeups, or
``TICK_EVERY_ROUND`` (the engine's active-set scheduler).

This suite pins that contract for every flagged program in the
repository — the primitives, the converted scripted programs
(``SimpleMST``, the nearest-dominator wave), a composite driver
(``FastDOM_T``), and runs under fault injection.
"""

from contextlib import nullcontext

import pytest

from repro.core.fastdom_tree import fastdom_tree
from repro.core.kdom_tree import NearestDominatorProgram, TreeKDomProgram
from repro.core.small_dom_set import SmallDomSetProgram
from repro.core.spanning_forest import SimpleMSTProgram, simple_mst_forest
from repro.graphs import (
    RootedTree,
    assign_unique_weights,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_tree,
)
from repro.obs import observe
from repro.primitives.bfs import BFSTreeProgram
from repro.primitives.convergecast import ConvergecastProgram, sum_combiner
from repro.primitives.echo import HopLimitedEchoProgram
from repro.primitives.flooding import FloodProgram
from repro.sim import FaultConfig, FaultInjector, Network

from ..conftest import scheduling as scheduled


def run_both(graph, factory, faults_config=None, **run_kwargs):
    """Run ``factory`` under full-sweep and active scheduling; return
    the two (network, metrics-or-report) pairs."""
    results = []
    for scheduling in ("full", "active"):
        faults = (
            FaultInjector(faults_config) if faults_config is not None else None
        )
        network = Network(graph, faults=faults)
        with scheduled(scheduling):
            metrics = network.run(factory, **run_kwargs)
        results.append((network, metrics))
    return results


def assert_equivalent(graph, factory, faults_config=None, **run_kwargs):
    (full_net, full_m), (active_net, active_m) = run_both(
        graph, factory, faults_config, **run_kwargs
    )
    # Fault runs return a RunReport; unwrap to the metrics either way.
    full_m = getattr(full_m, "metrics", full_m)
    active_m = getattr(active_m, "metrics", active_m)
    assert active_net.outputs() == full_net.outputs()
    assert active_m.rounds == full_m.rounds
    assert active_m.traffic.messages == full_m.traffic.messages
    assert active_m.traffic.total_words == full_m.traffic.total_words
    assert active_m.traffic.per_round == full_m.traffic.per_round
    halted_full = {v for v, p in full_net.programs.items() if p.halted}
    halted_active = {v for v, p in active_net.programs.items() if p.halted}
    assert halted_active == halted_full
    return full_net, active_net


def rooted(n, seed):
    tree = random_tree(n, seed=seed)
    return tree, RootedTree.from_graph(tree, 0).parent


class TestPrimitivesEquivalent:
    def test_flooding(self):
        graph = random_connected_graph(40, 0.1, seed=7)
        assert_equivalent(graph, lambda ctx: FloodProgram(ctx, 0, "payload"))

    def test_flooding_on_grid(self):
        assert_equivalent(
            grid_graph(9, 9), lambda ctx: FloodProgram(ctx, 0, 17)
        )

    def test_bfs_tree(self):
        graph = random_connected_graph(60, 0.08, seed=11)
        full_net, active_net = assert_equivalent(
            graph, lambda ctx: BFSTreeProgram(ctx, 0)
        )
        assert active_net.output_field("parent") == full_net.output_field(
            "parent"
        )

    def test_bfs_on_path(self):
        assert_equivalent(
            path_graph(80), lambda ctx: BFSTreeProgram(ctx, 0)
        )

    def test_convergecast(self):
        tree, parent = rooted(50, seed=3)
        assert_equivalent(
            tree,
            lambda ctx: ConvergecastProgram(
                ctx, 0, parent, 1, sum_combiner
            ),
        )

    def test_hop_limited_echo(self):
        tree, parent = rooted(40, seed=5)
        assert_equivalent(
            tree,
            lambda ctx: HopLimitedEchoProgram(ctx, 0, parent, 4),
            until=lambda net: net.programs[0].halted,
        )


class TestScriptedProgramsEquivalent:
    def test_tree_kdom_dp(self):
        tree, parent = rooted(45, seed=9)
        assert_equivalent(
            tree, lambda ctx: TreeKDomProgram(ctx, 0, parent, 3)
        )

    def test_nearest_dominator_wave(self):
        tree, _parent = rooted(45, seed=9)
        dominators = {v for v in tree.nodes if v % 5 == 0}
        assert_equivalent(
            tree,
            lambda ctx: NearestDominatorProgram(
                ctx, ctx.node in dominators, 6
            ),
        )

    def test_simple_mst(self):
        graph = assign_unique_weights(
            random_connected_graph(48, 0.12, seed=13), seed=14
        )
        assert_equivalent(graph, lambda ctx: SimpleMSTProgram(ctx, 6))

    def test_simple_mst_forest_driver(self):
        graph = assign_unique_weights(
            random_connected_graph(40, 0.1, seed=21), seed=22
        )
        runs = {}
        for scheduling in ("full", "active"):
            # Unobserved, the driver skips the engine; observed, it runs
            # SimpleMSTProgram under the patched scheduler.
            with scheduled(scheduling), observe():
                parents, fragments, network = simple_mst_forest(graph, 5)
            assert isinstance(network.programs[0], SimpleMSTProgram)
            runs[scheduling] = (
                parents,
                sorted(tuple(sorted(f, key=str)) for f in fragments),
                network.metrics.rounds,
                network.metrics.traffic.messages,
            )
        assert runs["active"] == runs["full"]


class TestCompositeDriverEquivalent:
    @staticmethod
    def fastdom_runs(observed):
        tree, parent = rooted(70, seed=2)
        runs = {}
        for scheduling in ("full", "active"):
            with scheduled(scheduling), (
                observe() if observed else nullcontext()
            ) as obs:
                dominators, partition, staged = fastdom_tree(tree, 0, parent, 3)
            if observed:
                ran = {
                    type(program)
                    for network in obs._networks
                    for program in network.programs.values()
                }
                assert {
                    SmallDomSetProgram,
                    TreeKDomProgram,
                    NearestDominatorProgram,
                } <= ran
            runs[scheduling] = (
                sorted(dominators, key=str),
                sorted(
                    tuple(sorted(c.members, key=str))
                    for c in partition
                ),
                staged.total_rounds,
                staged.total_messages,
            )
        return runs

    def test_fastdom_tree(self):
        runs = self.fastdom_runs(observed=False)
        assert runs["active"] == runs["full"]

    def test_fastdom_tree_observed(self):
        # Unobserved, BalancedDOM and the cluster stages skip the engine;
        # observed, SmallDomSetProgram, TreeKDomProgram and
        # NearestDominatorProgram run under the patched scheduler.
        runs = self.fastdom_runs(observed=True)
        assert runs["active"] == runs["full"]
        assert runs["full"] == self.fastdom_runs(observed=False)["full"]


class TestEquivalenceUnderFaults:
    CONFIG = dict(
        drop_rate=0.08, duplicate_rate=0.08, delay_rate=0.1, max_delay=3
    )

    def test_flooding_with_message_faults(self):
        graph = random_connected_graph(30, 0.12, seed=17)
        assert_equivalent(
            graph,
            lambda ctx: FloodProgram(ctx, 0, "x"),
            faults_config=FaultConfig(seed=5, **self.CONFIG),
            max_rounds=80,
        )

    def test_bfs_with_drops(self):
        # Drop-only: BFS is not duplicate-safe (a redelivered offer can
        # make a node send twice over one edge, a CongestionViolation in
        # either scheduling mode), so only loss is injected here.
        graph = random_connected_graph(30, 0.12, seed=19)
        assert_equivalent(
            graph,
            lambda ctx: BFSTreeProgram(ctx, 0),
            faults_config=FaultConfig(seed=6, drop_rate=0.1),
            max_rounds=120,
        )

    def test_flooding_with_crashes(self):
        graph = random_connected_graph(30, 0.12, seed=23)
        assert_equivalent(
            graph,
            lambda ctx: FloodProgram(ctx, 0, "x"),
            faults_config=FaultConfig(crashes={3: 2, 11: 4}),
            max_rounds=80,
        )

    def test_fault_reports_match(self):
        graph = random_connected_graph(24, 0.15, seed=29)
        (_, full_report), (_, active_report) = run_both(
            graph,
            lambda ctx: FloodProgram(ctx, 0, "x"),
            FaultConfig(seed=8, drop_rate=0.15),
            max_rounds=60,
        )
        assert active_report.metrics.dropped_messages == (
            full_report.metrics.dropped_messages
        )
        assert [e.kind for e in active_report.plan.events] == [
            e.kind for e in full_report.plan.events
        ]


class TestWakeupScheduling:
    def test_wakeup_invokes_at_requested_round(self):
        from repro.sim.program import NodeProgram

        invocations = {}

        class Probe(NodeProgram):
            TICK_EVERY_ROUND = False

            def on_start(self):
                invocations[self.node] = []
                if self.node == 0:
                    self.request_wakeup(3)

            def on_round(self, inbox):
                invocations[self.node].append(self.round)
                self.halt()

        network = Network(path_graph(3))
        network.run(Probe, max_rounds=10, stop_when_quiet=True)
        assert invocations[0] == [3]
        assert invocations[1] == []
        assert invocations[2] == []

    def test_wakeup_delay_must_be_positive(self):
        from repro.sim.program import NodeProgram

        class Eager(NodeProgram):
            def on_start(self):
                self.request_wakeup(0)

        with pytest.raises(ValueError):
            Network(path_graph(2)).setup(Eager)

    def test_idle_program_not_invoked_without_traffic(self):
        from repro.sim.program import NodeProgram

        invoked = []

        class Quiet(NodeProgram):
            TICK_EVERY_ROUND = False

            def on_start(self):
                if self.node == 0:
                    self.send(self.neighbors[0], "PING")

            def on_round(self, inbox):
                invoked.append((self.node, self.round))
                self.halt()

        network = Network(path_graph(4))
        network.run(Quiet, max_rounds=10, stop_when_quiet=True)
        # Only node 1 (the receiver) is ever invoked.
        assert invoked == [(1, 1)]
