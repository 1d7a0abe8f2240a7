"""Fault injection: semantics, determinism, replay, zero overhead."""

import pytest

from repro.graphs import Graph, path_graph, star_graph
from repro.obs import TraceBuffer
from repro.primitives.flooding import FloodProgram
from repro.sim import (
    FaultConfig,
    FaultConfigError,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    Network,
    NodeProgram,
    RunMetrics,
    RunReport,
)


def two_nodes() -> Graph:
    g = Graph()
    g.add_edge(0, 1)
    return g


class Echoer(NodeProgram):
    def on_start(self):
        if self.node == 0:
            self.send(1, "PING")

    def on_round(self, inbox):
        for e in inbox:
            if e.tag() == "PING":
                self.output["got_ping_round"] = self.round
                self.send(e.sender, "PONG")
                self.halt()
            elif e.tag() == "PONG":
                self.output["got_pong_round"] = self.round
                self.halt()


class InboxCounter(NodeProgram):
    """Node 0 sends once; node 1 counts copies, then both idle-halt."""

    def on_start(self):
        if self.node == 0:
            self.send(1, "X")
            self.halt()

    def on_round(self, inbox):
        self.output["copies"] = len(inbox)
        self.halt()


class TestConfigValidation:
    def test_rate_out_of_range(self):
        with pytest.raises(FaultConfigError):
            FaultConfig(drop_rate=1.5)

    def test_rates_sum_over_one(self):
        with pytest.raises(FaultConfigError):
            FaultConfig(drop_rate=0.6, duplicate_rate=0.6)

    def test_bad_max_delay(self):
        with pytest.raises(FaultConfigError):
            FaultConfig(max_delay=0)

    def test_crash_in_round_zero(self):
        with pytest.raises(FaultConfigError):
            FaultConfig(crashes={3: 0})

    def test_double_crash(self):
        with pytest.raises(FaultConfigError):
            FaultConfig(crashes=[(3, 1), (3, 2)])

    def test_crash_pairs_normalized(self):
        config = FaultConfig(crashes=[(3, 2), (5, 4)])
        assert config.crashes == {3: 2, 5: 4}


class TestDrop:
    def test_certain_drop_loses_message(self):
        net = Network(two_nodes(), faults=FaultInjector(FaultConfig(drop_rate=1.0)))
        report = net.run(Echoer, max_rounds=30)
        assert isinstance(report, RunReport)
        assert not report.completed and report.error
        assert report.metrics.dropped_messages == 1
        assert "got_ping_round" not in net.programs[1].output
        assert report.plan.count("drop") == 1

    def test_zero_rates_change_nothing(self):
        baseline = Network(two_nodes()).run(Echoer)
        net = Network(two_nodes(), faults=FaultInjector(FaultConfig()))
        report = net.run(Echoer)
        assert report.completed
        assert report.metrics.rounds == baseline.rounds
        assert report.metrics.messages == baseline.messages
        assert len(report.plan.events) == 0


class TestDuplicate:
    def test_certain_duplicate_delivers_two_copies(self):
        net = Network(
            two_nodes(),
            faults=FaultInjector(FaultConfig(duplicate_rate=1.0)),
        )
        report = net.run(InboxCounter)
        assert report.completed
        assert net.programs[1].output["copies"] == 2
        assert report.metrics.duplicated_messages == 1
        # Adversary copies are not message traffic the sender paid for.
        assert report.metrics.messages == 1


class TestDelay:
    def test_certain_delay_postpones_delivery(self):
        net = Network(
            two_nodes(),
            faults=FaultInjector(
                FaultConfig(delay_rate=1.0, max_delay=1)
            ),
        )
        report = net.run(Echoer, max_rounds=50)
        assert report.completed
        # Normal delivery round is 1; a 1-round delay makes it 2.
        assert net.programs[1].output["got_ping_round"] == 2
        assert net.programs[0].output["got_pong_round"] == 4
        assert report.metrics.delayed_messages == 2

    def test_pending_delays_block_quiescence(self):
        class SendOnce(NodeProgram):
            def on_start(self):
                if self.node == 0:
                    self.send(1, "X")

            def on_round(self, inbox):
                if inbox:
                    self.output["got"] = self.round

        net = Network(
            two_nodes(),
            faults=FaultInjector(FaultConfig(delay_rate=1.0, max_delay=3)),
        )
        net.run(SendOnce, stop_when_quiet=True, max_rounds=50)
        # Without has_pending() the run would stop before delivery.
        delay = net.faults.plan.by_kind("delay")[0].detail
        assert net.programs[1].output["got"] == 1 + delay


class TestCrash:
    def test_crashed_node_stops_participating(self):
        g = star_graph(5)  # centre 0, leaves 1..4

        class Chatter(NodeProgram):
            def on_start(self):
                self.output["seen"] = 0

            def on_round(self, inbox):
                self.output["seen"] += len(inbox)
                if self.node != 0 and self.round <= 3:
                    self.send(0, "HI")
                if self.round >= 5:
                    self.halt()

        net = Network(
            g, faults=FaultInjector(FaultConfig(crashes={2: 2}))
        )
        report = net.run(Chatter, max_rounds=50)
        assert report.completed
        assert report.node_states[2] == "crashed"
        assert report.crashed() == (2,)
        assert set(report.survivors()) == {0, 1, 3, 4}
        assert report.metrics.crashed_nodes == 1
        # Leaves send in rounds 1..3.  Node 2 crash-stops at the start
        # of round 2, so its round-1 message (already in flight) still
        # arrives but nothing after: the centre hears 4 + 3 + 3.
        assert net.programs[0].output["seen"] == 4 + 3 + 3

    def test_messages_to_crashed_node_vanish(self):
        class PingTwo(NodeProgram):
            def on_start(self):
                if self.node == 0:
                    self.send(1, "A")

            def on_round(self, inbox):
                if self.node == 0 and self.round <= 3:
                    self.send(1, "B")
                if self.round >= 4:
                    self.halt()

        net = Network(
            two_nodes(), faults=FaultInjector(FaultConfig(crashes={1: 1}))
        )
        report = net.run(PingTwo, max_rounds=50)
        assert report.completed
        assert report.node_states == {0: "halted", 1: "crashed"}


def _traced_run(config):
    buffer = TraceBuffer()
    net = Network(
        path_graph(8), faults=FaultInjector(config)
    )
    net.attach_subscriber(buffer)
    report = net.run(
        lambda ctx: FloodProgram(ctx, 0, value=7),
        max_rounds=200,
    )
    return report, buffer.events


class TestDeterminismAndReplay:
    CONFIG = dict(
        drop_rate=0.2, duplicate_rate=0.1, delay_rate=0.2, max_delay=2,
        crashes={5: 4}, seed=9,
    )

    def test_same_seed_same_run(self):
        report_a, events_a = _traced_run(FaultConfig(**self.CONFIG))
        report_b, events_b = _traced_run(FaultConfig(**self.CONFIG))
        assert report_a.plan == report_b.plan
        assert report_a == report_b
        assert events_a == events_b

    def test_different_seed_different_plan(self):
        config = dict(self.CONFIG)
        config["seed"] = 10
        report_a, _ = _traced_run(FaultConfig(**self.CONFIG))
        report_b, _ = _traced_run(FaultConfig(**config))
        assert report_a.plan != report_b.plan

    def test_replay_reproduces_run(self):
        report, events = _traced_run(FaultConfig(**self.CONFIG))
        buffer = TraceBuffer()
        net = Network(path_graph(8), faults=FaultInjector.replay(report.plan))
        net.attach_subscriber(buffer)
        replayed = net.run(
            lambda ctx: FloodProgram(ctx, 0, value=7),
            max_rounds=200,
        )
        assert replayed == report
        assert buffer.events == events

    def test_replay_mismatch_detected(self):
        # A plan recorded against a different send schedule must not be
        # silently mis-applied: endpoints are checked per event.
        plan = FaultPlan(seed=0, events=[FaultEvent(1, "drop", 5, 4, 0)])
        net = Network(two_nodes(), faults=FaultInjector.replay(plan))
        with pytest.raises(FaultConfigError):
            net.run(Echoer, max_rounds=30)


class TestZeroOverheadPath:
    def test_no_injector_returns_plain_metrics(self):
        metrics = Network(two_nodes()).run(Echoer)
        assert isinstance(metrics, RunMetrics)
        assert not isinstance(metrics, RunReport)

    def test_faultless_counts_match_exactly(self):
        baseline = Network(path_graph(6)).run(
            lambda ctx: FloodProgram(ctx, 0, value=1)
        )
        net = Network(
            path_graph(6),
            faults=FaultInjector(FaultConfig(seed=123)),
        )
        report = net.run(lambda ctx: FloodProgram(ctx, 0, value=1))
        assert report.metrics.rounds == baseline.rounds
        assert report.metrics.messages == baseline.messages
        assert report.metrics.total_words == baseline.total_words
        assert report.metrics.traffic.per_round == baseline.traffic.per_round
