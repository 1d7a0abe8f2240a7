"""Message model for the CONGEST simulator.

The paper assumes messages of ``O(log n)`` bits: a constant number of
"words", where one word holds a node identifier, an edge weight
(polynomial in ``n``, hence also ``O(log n)`` bits), a hop counter, or a
small protocol tag.  We measure payloads in words and enforce a constant
per-message word limit.

A payload is a flat or shallowly nested tuple of scalar fields.  Each
scalar field costs one word.  Short strings (protocol tags such as
``"BFS"`` or ``"ECHO"``) cost one word: a real implementation would encode
them as small integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Tuple

from .errors import UnserializablePayload

#: Default per-message budget, in words.  An edge description is three
#: words (two endpoints and a weight); protocols also carry a tag and a
#: couple of counters.  Eight words is a generous constant that every
#: algorithm in this repository fits within.
DEFAULT_WORD_LIMIT = 8

#: Longest string accepted as a protocol tag.  Tags stand in for small
#: integer opcodes, so they must be short and drawn from a fixed set.
MAX_TAG_LENGTH = 24

_SCALAR_TYPES = (int, float, str, type(None))


def measure_words(payload: Any) -> int:
    """Return the size of ``payload`` in words.

    Raises :class:`UnserializablePayload` for fields that a real
    ``O(log n)``-bit encoding could not carry (long strings, arbitrary
    objects, deeply nested structures).
    """
    # Fast path: the overwhelmingly common payload is a flat tuple of
    # scalars (tag plus a couple of ids/counters).  Handle it without
    # recursing; anything unusual falls through to the general walk.
    if type(payload) is tuple:
        total = 0
        for item in payload:
            kind = type(item)
            if kind is str:
                if len(item) > MAX_TAG_LENGTH:
                    raise UnserializablePayload(item)
                total += 1
            elif kind is int or kind is float or item is None or kind is bool:
                total += 1
            else:
                total += _measure(item, depth=1)
        return total
    return _measure(payload, depth=0)


def _measure(value: Any, depth: int) -> int:
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 1
    if value is None:
        return 1
    if isinstance(value, str):
        if len(value) > MAX_TAG_LENGTH:
            raise UnserializablePayload(value)
        return 1
    if isinstance(value, tuple):
        if depth >= 2:
            raise UnserializablePayload(value)
        return sum(_measure(item, depth + 1) for item in value)
    raise UnserializablePayload(value)


@dataclass(frozen=True)
class Envelope:
    """A message in flight: sender, receiver, and payload.

    ``sent_round`` is the round in which the sender emitted the message;
    it is delivered at the start of round ``sent_round + 1``.

    ``words`` is measured once, at construction; the envelope is frozen,
    so the size can never go stale.  (Constructing an envelope therefore
    raises :class:`~repro.sim.errors.UnserializablePayload` for payloads
    no ``O(log n)``-bit encoding could carry.)
    """

    sender: int
    receiver: int
    payload: Tuple[Any, ...]
    sent_round: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", measure_words(self.payload))

    def tag(self) -> Any:
        """Return the first payload field, conventionally a protocol tag."""
        if not self.payload:
            return None
        return self.payload[0]


@dataclass
class MessageStats:
    """Aggregate message-traffic statistics for one run."""

    messages: int = 0
    total_words: int = 0
    max_words: int = 0
    per_round: dict = field(default_factory=dict)

    def record(self, envelope: Envelope) -> None:
        words = envelope.words
        self.messages += 1
        self.total_words += words
        if words > self.max_words:
            self.max_words = words
        self.per_round[envelope.sent_round] = (
            self.per_round.get(envelope.sent_round, 0) + 1
        )
