"""Execution helpers: parallel composition and staged drivers.

The paper repeatedly applies a sub-algorithm "on each cluster
separately".  Because clusters are vertex-disjoint, the executions do
not interact, and running them on independent sub-networks while taking
the *maximum* round count is an exact model of the parallel composition.
:func:`run_in_parallel` packages that argument.  The runs execute one
after another in this process; only the *accounting* is parallel, and
every byte of engine state stays observable.  Real processes pay off
across independent cells instead (:mod:`repro.batch`).

:class:`RunRecord` is what a run computed without the engine returns in
place of its :class:`~repro.sim.network.Network`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple, Union

from .metrics import RunMetrics
from .network import DEFAULT_MAX_ROUNDS, Network, ProgramFactory


class RunRecord:
    """The result of a run computed without simulating it (a direct
    route or a dense kernel).

    It answers the reads drivers make of a finished
    :class:`~repro.sim.network.Network` — ``metrics``, :meth:`outputs`
    and :meth:`output_field` — with what the engine would have left.
    ``outputs`` maps each node, in the engine's node order, to its
    output dict; it may be a zero-argument callable instead, called on
    the first read (at n = 10^6 a dense kernel's arrays are cheap but a
    million small dicts are not, and large-n drivers never read them).
    """

    def __init__(
        self,
        metrics: RunMetrics,
        outputs: Union[Dict[Any, Dict[str, Any]], Callable[[], Dict[Any, Dict[str, Any]]]],
    ) -> None:
        self.metrics = metrics
        self._outputs = outputs

    def outputs(self) -> Dict[Any, Dict[str, Any]]:
        if callable(self._outputs):
            self._outputs = self._outputs()
        return self._outputs

    def output_field(self, key: str) -> Dict[Any, Any]:
        return {
            v: fields[key] for v, fields in self.outputs().items() if key in fields
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunRecord(rounds={self.metrics.rounds}, "
            f"messages={self.metrics.traffic.messages})"
        )


class ParallelRunError(RuntimeError):
    """A sub-run of :func:`run_in_parallel` raised.

    The networks and metrics of every run that *did* complete are kept
    (``networks``, ``metrics``) instead of being lost with the
    exception; ``index`` is the position of the first failing run in
    the submission order, and the original exception is chained as
    ``__cause__``.
    """

    def __init__(
        self,
        index: int,
        networks: List[Network],
        metrics: RunMetrics,
        cause: BaseException,
    ) -> None:
        super().__init__(
            f"parallel run {index} failed: {cause!r} "
            f"({len(networks)} completed run(s) preserved)"
        )
        self.index = index
        self.networks = networks
        self.metrics = metrics


def run_in_parallel(
    runs: Iterable[Tuple[Network, ProgramFactory]],
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> Tuple[List[Network], RunMetrics]:
    """Run several disjoint sub-networks simultaneously.

    Returns the list of networks (for output collection) and the full
    parallel composition of their metrics via :meth:`RunMetrics.merge`:
    ``rounds`` is the maximum across runs (they execute in parallel);
    traffic, halt counts and fault counters are summed.  If a run
    raises, the completed runs are preserved and the failure is
    re-raised as :class:`ParallelRunError` with the original exception
    chained.  Every network in ``runs`` is built before the first one
    runs, so observed runs register in submission order.
    """
    networks: List[Network] = []
    collected: List[RunMetrics] = []
    for index, (network, factory) in enumerate(list(runs)):
        try:
            result = network.run(factory, max_rounds=max_rounds)
        except Exception as exc:
            raise ParallelRunError(
                index, networks, RunMetrics.merge(collected), exc
            ) from exc
        networks.append(network)
        # A faulty sub-network returns a RunReport; merge its metrics.
        collected.append(getattr(result, "metrics", result))
    return networks, RunMetrics.merge(collected)


class StagedRun:
    """Accumulator for the sequential stages of a composite algorithm.

    Stages execute one after the other (the paper's algorithms are
    sequential compositions), so rounds add up.  Each stage is recorded
    by name for the per-phase breakdown the benchmarks print.
    """

    def __init__(self) -> None:
        self.stage_rounds: Dict[str, int] = {}
        self.stage_order: List[str] = []
        self.total_messages = 0
        #: Sequential composition of every recorded stage's metrics
        #: (:meth:`RunMetrics.merged_with`): rounds add, traffic
        #: accumulates, and per-round counts are shifted onto the
        #: composite timeline, so ``combined.traffic.per_round`` is the
        #: full traffic profile of the staged execution.
        self.combined = RunMetrics()

    def record(self, name: str, metrics: RunMetrics) -> None:
        self.add_rounds(name, metrics.rounds)
        self.total_messages += metrics.traffic.messages
        self.combined = self.combined.merged_with(metrics)

    def add_rounds(self, name: str, rounds: int) -> None:
        if name not in self.stage_rounds:
            self.stage_rounds[name] = 0
            self.stage_order.append(name)
        self.stage_rounds[name] += rounds

    @property
    def total_rounds(self) -> int:
        return sum(self.stage_rounds.values())

    def breakdown(self) -> Dict[str, int]:
        return {name: self.stage_rounds[name] for name in self.stage_order}

    def spans(self) -> List[Dict[str, int]]:
        """The stages as half-open spans on the composite timeline.

        Stages run sequentially, so stage *i* occupies rounds
        ``[start, end)`` where ``start`` is the sum of all earlier
        stages.  This is the hand-off format for
        :meth:`repro.obs.Observation.record_phases`: per-phase round
        totals derived from the spans reproduce :meth:`breakdown`
        exactly.
        """
        spans: List[Dict[str, int]] = []
        cursor = 0
        for name in self.stage_order:
            rounds = self.stage_rounds[name]
            spans.append(
                {
                    "name": name,
                    "start": cursor,
                    "end": cursor + rounds,
                    "rounds": rounds,
                }
            )
            cursor += rounds
        return spans

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{name}={self.stage_rounds[name]}" for name in self.stage_order
        )
        return f"StagedRun(total={self.total_rounds}, {inner})"
