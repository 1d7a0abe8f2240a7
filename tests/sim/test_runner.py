"""Parallel composition and staged-run accounting."""

import pytest

from repro.graphs import path_graph
from repro.sim import (
    Network,
    NodeProgram,
    ParallelRunError,
    RunMetrics,
    StagedRun,
    run_in_parallel,
)


class Countdown(NodeProgram):
    def __init__(self, ctx, rounds):
        super().__init__(ctx)
        self.remaining = rounds

    def on_start(self):
        pass

    def on_round(self, inbox):
        self.remaining -= 1
        if self.remaining <= 0:
            self.halt()


class ExplodingFactory:
    """Factory that raises for the failing-run regression tests."""

    def __call__(self, ctx):
        raise RuntimeError("deliberately failing factory")


class TestRunInParallel:
    def test_rounds_are_max(self):
        runs = [
            (Network(path_graph(2)), lambda ctx: Countdown(ctx, 3)),
            (Network(path_graph(2)), lambda ctx: Countdown(ctx, 7)),
        ]
        _nets, combined = run_in_parallel(runs)
        assert combined.rounds == 7

    def test_traffic_is_summed(self):
        class OneShot(NodeProgram):
            def on_start(self):
                if self.node == 0:
                    self.send(1, "X")

            def on_round(self, inbox):
                self.halt()

        runs = [
            (Network(path_graph(2)), OneShot),
            (Network(path_graph(2)), OneShot),
        ]
        _nets, combined = run_in_parallel(runs)
        assert combined.traffic.messages == 2

    def test_empty(self):
        _nets, combined = run_in_parallel([])
        assert combined.rounds == 0


class TestStagedRun:
    def test_rounds_accumulate(self):
        staged = StagedRun()
        staged.add_rounds("a", 5)
        staged.add_rounds("b", 3)
        staged.add_rounds("a", 2)
        assert staged.total_rounds == 10
        assert staged.breakdown() == {"a": 7, "b": 3}

    def test_record_metrics(self):
        staged = StagedRun()
        metrics = RunMetrics()
        metrics.rounds = 4
        metrics.traffic.messages = 9
        staged.record("stage", metrics)
        assert staged.total_rounds == 4
        assert staged.total_messages == 9

    def test_order_preserved(self):
        staged = StagedRun()
        for name in ("z", "a", "m"):
            staged.add_rounds(name, 1)
        assert list(staged.breakdown()) == ["z", "a", "m"]


class TestMetricsMerge:
    def test_halt_accounting_is_combined(self):
        # One sub-network halts everywhere; in the other a crash leaves
        # a node un-halted.  The parallel composition must expose both
        # the summed halt count and the conjunction of all_halted.
        from repro.sim import FaultConfig, FaultInjector

        runs = [
            (Network(path_graph(2)), lambda ctx: Countdown(ctx, 3)),
            (
                Network(
                    path_graph(2),
                    faults=FaultInjector(FaultConfig(crashes={1: 1})),
                ),
                lambda ctx: Countdown(ctx, 3),
            ),
        ]
        _nets, combined = run_in_parallel(runs)
        assert combined.halted_nodes == 3  # 2 + 1 (the crashed node never halts)
        assert combined.all_halted is False
        assert combined.crashed_nodes == 1
        assert combined.rounds == 3

    def test_merge_classmethod_semantics(self):
        a = RunMetrics()
        a.rounds, a.all_halted, a.halted_nodes = 5, True, 4
        a.traffic.messages, a.traffic.total_words = 10, 30
        a.traffic.max_words = 3
        a.traffic.per_round = {1: 6, 2: 4}
        a.dropped_messages = 2
        b = RunMetrics()
        b.rounds, b.all_halted, b.halted_nodes = 8, True, 6
        b.traffic.messages, b.traffic.total_words = 1, 2
        b.traffic.max_words = 2
        b.traffic.per_round = {2: 1}
        b.delayed_messages = 1

        merged = RunMetrics.merge([a, b])
        assert merged.rounds == 8  # parallel: max, not sum
        assert merged.halted_nodes == 10
        assert merged.all_halted is True
        assert merged.traffic.messages == 11
        assert merged.traffic.total_words == 32
        assert merged.traffic.max_words == 3
        assert merged.traffic.per_round == {1: 6, 2: 5}
        assert merged.dropped_messages == 2
        assert merged.delayed_messages == 1

    def test_merge_differs_from_sequential(self):
        a = RunMetrics()
        a.rounds, a.all_halted = 5, True
        b = RunMetrics()
        b.rounds, b.all_halted = 8, True
        assert RunMetrics.merge([a, b]).rounds == 8
        assert a.merged_with(b).rounds == 13

    def test_merge_empty_is_not_all_halted(self):
        # Vacuous truth is wrong here: "every node of zero runs halted"
        # must not report a successful termination.
        merged = RunMetrics.merge([])
        assert merged.all_halted is False
        assert merged.rounds == 0
        assert merged.halted_nodes == 0

    def test_merged_with_accumulates_halted_nodes(self):
        a = RunMetrics()
        a.rounds, a.all_halted, a.halted_nodes = 5, True, 4
        b = RunMetrics()
        b.rounds, b.all_halted, b.halted_nodes = 3, True, 7
        merged = a.merged_with(b)
        # Sequential stages run on stage-local networks; the composed
        # run halted 4 nodes in stage 1 and 7 in stage 2.
        assert merged.halted_nodes == 11
        assert merged.all_halted is True
        assert merged.rounds == 8

    def test_staged_composition_halt_counts(self):
        # Three stages recorded through StagedRun must accumulate halt
        # counts instead of keeping only the last stage's.
        staged = StagedRun()
        for name, halted in (("a", 2), ("b", 3), ("c", 5)):
            m = RunMetrics()
            m.rounds, m.all_halted, m.halted_nodes = 1, True, halted
            staged.record(name, m)
        assert staged.combined.halted_nodes == 10
        assert staged.combined.rounds == 3

    def test_roundtrip_dict(self):
        a = RunMetrics()
        a.rounds, a.all_halted, a.halted_nodes = 5, True, 4
        a.traffic.messages, a.traffic.total_words = 10, 30
        a.traffic.max_words = 3
        a.traffic.per_round = {1: 6, 2: 4}
        back = RunMetrics.from_dict(a.to_dict())
        assert back.rounds == a.rounds
        assert back.all_halted is a.all_halted
        assert back.halted_nodes == a.halted_nodes
        assert back.traffic.per_round == {1: 6, 2: 4}


class TestParallelFailure:
    def test_partial_results_preserved_inline(self):
        runs = [
            (Network(path_graph(2)), lambda ctx: Countdown(ctx, 3)),
            (Network(path_graph(2)), lambda ctx: Countdown(ctx, 7)),
            (Network(path_graph(2)), ExplodingFactory()),
        ]
        with pytest.raises(ParallelRunError) as excinfo:
            run_in_parallel(runs)
        err = excinfo.value
        assert err.index == 2
        assert isinstance(err.__cause__, RuntimeError)
        # The two completed runs are preserved with their metrics.
        assert len(err.networks) == 2
        assert err.metrics.rounds == 7
        assert all(net.metrics.all_halted for net in err.networks)
