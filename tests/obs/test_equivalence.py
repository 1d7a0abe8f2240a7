"""Observational equivalence guarantees of the event stream.

Three properties are pinned here:

1. **Scheduling transparency** — every event kind is model-visible, so
   a seeded run exports a *byte-identical* JSONL trace under a full
   sweep and the active-set scheduler, clean or faulted.
2. **Observer transparency** — attaching subscribers must not change
   the run itself (rounds, traffic, outputs).
3. **Observation scope** — an observation reaches only the thread that
   entered it; a run on another thread keeps its unobserved route.
"""

import io
import threading

from repro.batch import SweepCell, run_cell
from repro.graphs import path_graph
from repro.obs import CountingSubscriber, JsonlTraceWriter, observe
from repro.primitives.flooding import FloodProgram
from repro.sim import FaultConfig, FaultInjector, Network

from ..conftest import scheduling as scheduled


FAULTY = dict(
    drop_rate=0.2, duplicate_rate=0.1, delay_rate=0.2, max_delay=2,
    crashes={5: 4}, seed=9,
)


def flood_jsonl(scheduling, config=None):
    """Seeded flood on a path; return the exported trace text."""
    sink = io.StringIO()
    writer = JsonlTraceWriter(sink, meta={"scheduling": "elided"})
    with scheduled(scheduling), observe(writer):
        faults = FaultInjector(config) if config else None
        net = Network(path_graph(8), faults=faults)
        net.run(lambda ctx: FloodProgram(ctx, 0, value=7), max_rounds=200)
    return sink.getvalue()


class TestSchedulingByteIdentity:
    def test_clean_traces_byte_identical(self):
        assert flood_jsonl("full") == flood_jsonl("active")

    def test_faulted_traces_byte_identical(self):
        a = flood_jsonl("full", FaultConfig(**FAULTY))
        b = flood_jsonl("active", FaultConfig(**FAULTY))
        assert a == b
        # Faults actually fired — the identity is not vacuous.
        assert '"kind":"drop"' in a or '"kind":"delay"' in a

    def test_repeat_runs_byte_identical(self):
        config = FaultConfig(**FAULTY)
        assert flood_jsonl("active", config) == flood_jsonl(
            "active", FaultConfig(**FAULTY)
        )


def run_flood(subscribers=()):
    net = Network(path_graph(8))
    for sub in subscribers:
        net.attach_subscriber(sub)
    metrics = net.run(lambda ctx: FloodProgram(ctx, 0, value=7))
    return net, metrics


class TestObserverTransparency:
    def test_subscriber_does_not_change_run(self):
        bare_net, bare = run_flood()
        counter = CountingSubscriber()
        seen_net, seen = run_flood([counter])
        assert counter.total > 0
        assert seen.rounds == bare.rounds
        assert seen.messages == bare.messages
        assert seen.total_words == bare.total_words
        assert seen.traffic.per_round == bare.traffic.per_round
        assert seen_net.outputs() == bare_net.outputs()

    def test_faulted_run_unchanged_by_subscriber(self):
        def run(subscribed):
            net = Network(
                path_graph(8),
                faults=FaultInjector(FaultConfig(**FAULTY)),
            )
            if subscribed:
                net.attach_subscriber(CountingSubscriber())
            report = net.run(
                lambda ctx: FloodProgram(ctx, 0, value=7), max_rounds=200
            )
            return report, net.outputs()

        report_a, outputs_a = run(False)
        report_b, outputs_b = run(True)
        assert report_a == report_b
        assert outputs_a == outputs_b


class TestObservationScope:
    def test_observation_does_not_reach_another_thread(self, monkeypatch):
        built = []
        real_init = Network.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Network, "__init__", counting_init)
        cell = SweepCell("kdom", "random:n=60,p=0.08", 0, 3)

        def networks_built(on_thread):
            """Networks one run of ``cell`` builds, and its row."""
            built.clear()
            rows = []
            if on_thread:
                thread = threading.Thread(
                    target=lambda: rows.append(run_cell(cell))
                )
                thread.start()
                thread.join(timeout=60)
                assert not thread.is_alive()
            else:
                rows.append(run_cell(cell))
            return len(built), rows[0]

        unobserved, row = networks_built(on_thread=True)
        counter = CountingSubscriber()
        with observe(counter):
            assert networks_built(on_thread=True) == (unobserved, row)
            assert counter.total == 0
            # On the observing thread itself the engine route runs.
            observed, observed_row = networks_built(on_thread=False)
        assert observed > unobserved and counter.total > 0
        assert observed_row == row
