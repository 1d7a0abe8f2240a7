"""RunMetrics composition."""

from repro.sim import RunMetrics
from repro.sim.model import Envelope


def metrics_with(rounds, messages, max_words=2):
    m = RunMetrics()
    m.rounds = rounds
    for i in range(messages):
        m.traffic.record(Envelope(0, 1, tuple(range(max_words)), i))
    return m


class TestRunMetrics:
    def test_merged_with_adds_rounds_and_traffic(self):
        a = metrics_with(5, 3)
        b = metrics_with(7, 4, max_words=3)
        merged = a.merged_with(b)
        assert merged.rounds == 12
        assert merged.messages == 7
        assert merged.max_message_words == 3

    def test_merged_with_shifts_per_round(self):
        # The second run's per-round counts land after the first run's
        # rounds in the combined timeline (they used to be dropped).
        a = metrics_with(5, 3)  # messages in rounds 0, 1, 2
        b = metrics_with(7, 4)  # messages in rounds 0..3
        merged = a.merged_with(b)
        assert merged.traffic.per_round == {
            0: 1, 1: 1, 2: 1,       # from a
            5: 1, 6: 1, 7: 1, 8: 1  # from b, shifted by a.rounds == 5
        }
        assert sum(merged.traffic.per_round.values()) == merged.messages

    def test_merged_with_overlapping_shifted_rounds(self):
        a = metrics_with(0, 2)  # zero-round run: b's counts merge in place
        b = metrics_with(3, 1)
        merged = a.merged_with(b)
        assert merged.traffic.per_round == {0: 2, 1: 1}

    def test_properties(self):
        m = metrics_with(1, 2, max_words=4)
        assert m.messages == 2
        assert m.total_words == 8
        assert m.max_message_words == 4

