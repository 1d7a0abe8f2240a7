"""Message model: word measurement, envelopes, traffic stats."""

import pytest

from repro.sim import Envelope, MessageStats, UnserializablePayload, measure_words


class TestMeasureWords:
    def test_single_int(self):
        assert measure_words((42,)) == 1

    def test_flat_tuple(self):
        assert measure_words(("BFS", 3, 2.5, None)) == 4

    def test_bool_counts_one(self):
        assert measure_words((True, False)) == 2

    def test_nested_tuple(self):
        assert measure_words(("E", (1, 2), 3)) == 4

    def test_empty(self):
        assert measure_words(()) == 0

    def test_long_string_rejected(self):
        with pytest.raises(UnserializablePayload):
            measure_words(("x" * 100,))

    def test_deep_nesting_rejected(self):
        with pytest.raises(UnserializablePayload):
            measure_words((((1, (2,)),),))

    def test_object_rejected(self):
        with pytest.raises(UnserializablePayload):
            measure_words((object(),))

    def test_list_rejected(self):
        with pytest.raises(UnserializablePayload):
            measure_words(([1, 2],))

    def test_tag_boundary_length(self):
        assert measure_words(("a" * 24,)) == 1


class TestEnvelope:
    def test_fields(self):
        e = Envelope(1, 2, ("T", 5), 3)
        assert (e.sender, e.receiver, e.sent_round) == (1, 2, 3)
        assert e.tag() == "T"
        assert e.words == 2

    def test_empty_payload_tag(self):
        assert Envelope(0, 1, (), 0).tag() is None

    def test_frozen(self):
        e = Envelope(1, 2, ("T",), 0)
        with pytest.raises(AttributeError):
            e.sender = 9


class TestMessageStats:
    def test_record_accumulates(self):
        stats = MessageStats()
        stats.record(Envelope(0, 1, ("A", 1), 0))
        stats.record(Envelope(1, 0, ("B", 1, 2), 0))
        assert stats.messages == 2
        assert stats.total_words == 5
        assert stats.max_words == 3
