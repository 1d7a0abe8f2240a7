"""Send traces and stall detection over the engine's event stream.

"Activity" here means model-visible activity (send / deliver / wakeup /
halt) as :mod:`repro.obs` sees it — the definition that is identical
under a full sweep and the active-set scheduler.  Counting
program invocations instead would list :class:`Bursty`'s stalled
round 2 as active under full scheduling only; this suite pins the
absence of that difference.
"""

from repro.graphs import Graph
from repro.obs import MetricsCollector, TraceBuffer
from repro.sim import Network, NodeProgram

from ..conftest import scheduling as scheduled

#: Event kinds that make a node model-visibly active in a round.
ACTIVITY = ("send", "deliver", "wakeup", "halt")


def pair() -> Graph:
    g = Graph()
    g.add_edge(0, 1)
    return g


class Bursty(NodeProgram):
    """Node 0 sends in rounds 0, 1 and 3 (a stall at round 2)."""

    def on_start(self):
        if self.node == 0:
            self.send(1, "A")

    def on_round(self, inbox):
        if self.node == 0:
            if self.round == 1:
                self.send(1, "B")
            elif self.round == 3:
                self.send(1, "C")
                self.halt()
        elif self.round >= 4:
            self.halt()


def observed_run(factory, scheduling="active"):
    """Run ``factory`` on :func:`pair` with a buffer and a collector attached."""
    buffer, collector = TraceBuffer(), MetricsCollector()
    net = Network(pair())
    net.attach_subscriber(buffer)
    net.attach_subscriber(collector)
    with scheduled(scheduling):
        net.run(factory)
    return buffer, collector


def rounds_active(buffer, node):
    return sorted(
        {e["round"] for e in buffer.events
         if e["kind"] in ACTIVITY and e["node"] == node}
    )


class TestTrace:
    def test_sends_recorded(self):
        _buffer, collector = observed_run(Bursty)
        assert sorted(collector.node(0).send_rounds) == [0, 1, 3]

    def test_stall_detected(self):
        _buffer, collector = observed_run(Bursty)
        assert collector.node(0).stalls() == [2]

    def test_no_stall_for_single_send(self):
        class Once(NodeProgram):
            def on_start(self):
                if self.node == 0:
                    self.send(1, "X")
                self.halt()

            def on_round(self, inbox):  # pragma: no cover
                pass

        _buffer, collector = observed_run(Once)
        assert collector.node(0).stalls() == []

    def test_halt_recorded(self):
        buffer, _collector = observed_run(Bursty)
        kinds = {e["kind"] for e in buffer.events}
        assert "halt" in kinds and "deliver" in kinds

    def test_send_detail_shape(self):
        # A send event names its receiver and carries the payload fields.
        buffer, _collector = observed_run(Bursty)
        first = buffer.by_kind("send")[0]
        assert (first["peer"], tuple(first["payload"])) == (1, ("A",))

    def test_rounds_active_is_model_visible(self):
        # Node 0 acts in rounds 0, 1 and 3; round 2 is a genuine stall
        # and must not be reported as active.
        buffer, _collector = observed_run(Bursty)
        assert rounds_active(buffer, 0) == [0, 1, 3]

    def test_rounds_active_same_in_both_modes(self):
        per_mode = {}
        for mode in ("full", "active"):
            buffer, collector = observed_run(Bursty, scheduling=mode)
            per_mode[mode] = {
                node: (rounds_active(buffer, node), collector.node(node).stalls())
                for node in (0, 1)
            }
        assert per_mode["full"] == per_mode["active"]
        assert per_mode["active"][0] == ([0, 1, 3], [2])
