"""Shared plumbing for the dense (numpy) execution backend.

The dense backend executes *regular* synchronous rounds as whole-array
operations instead of per-node Python dispatch (see
docs/performance.md, "The dense backend").  This module holds what
every dense kernel needs:

* the guarded numpy import — the reference engine must import and run
  without numpy, so ``np`` is ``None`` when the package is missing and
  :func:`require_numpy` turns that into the structured
  :class:`DenseUnavailable` error;
* :class:`DenseRun`, the network-shaped result the dense BFS returns
  in place of a :class:`~repro.sim.network.Network`: it carries the
  final :class:`~repro.sim.metrics.RunMetrics` and answers the result
  reads drivers perform (``outputs``, ``output_field``,
  ``all_halted``);
* :func:`halted_metrics`, which makes every dense kernel's
  :class:`~repro.sim.metrics.RunMetrics`.

Equivalence contract: a dense kernel must produce the reference
scheduler's outputs, round count and metrics exactly.  It serves
unobserved runs only: under an active observation every dense entry
point runs the reference engine, so no dense kernel registers a run or
emits an event.  Inputs outside a kernel's contract fall back to the
reference engine instead of approximating (fallback rules in
docs/performance.md).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

try:  # pragma: no cover - exercised via the no-numpy CI matrix entry
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

from ..metrics import RunMetrics

#: True when numpy is importable; the one switch every entry point checks.
HAVE_NUMPY = np is not None


class DenseUnavailable(RuntimeError):
    """``backend="dense"`` was requested but cannot be honoured.

    Raised when numpy is not installed, or when the graph falls outside
    the dense backend's representable domain (non-integer node ids).
    The reference engine handles every such case; the error message
    says which backend to use instead.
    """

    def __init__(self, reason: str):
        super().__init__(
            f"dense backend unavailable: {reason} "
            f"(use the reference engine: drop backend='dense')"
        )
        self.reason = reason


def require_numpy() -> None:
    """Raise :class:`DenseUnavailable` when numpy is missing."""
    if np is None:
        raise DenseUnavailable(
            "numpy is not installed (pip install numpy, or install "
            "repro with its declared dependencies)"
        )


class DenseRun:
    """Network-shaped record of one dense kernel execution.

    The kernel fills in ``metrics``, ``current_round`` and the outputs
    (eagerly or through a deferred factory).
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self.n = graph.num_nodes
        self.current_round = 0
        self.metrics = RunMetrics()
        self._outputs: Dict[Any, Dict[str, Any]] = {}
        self._outputs_factory: Optional[Any] = None

    # -- the Network result surface drivers read -----------------------------
    def set_outputs(self, outputs: Dict[Any, Dict[str, Any]]) -> None:
        self._outputs = outputs
        self._outputs_factory = None

    def set_outputs_factory(self, factory) -> None:
        """Defer per-node output-dict construction until someone asks —
        at n=10^6 the array results are cheap but a million small dicts
        are not, and the large-n drivers read arrays directly."""
        self._outputs_factory = factory

    def outputs(self) -> Dict[Any, Dict[str, Any]]:
        if self._outputs_factory is not None:
            self._outputs = self._outputs_factory()
            self._outputs_factory = None
        return self._outputs

    def output_field(self, key: str) -> Dict[Any, Any]:
        return {
            v: fields[key]
            for v, fields in self.outputs().items()
            if key in fields
        }

    def all_halted(self) -> bool:
        return self.metrics.all_halted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DenseRun(n={self.n}, rounds={self.current_round}, "
            f"messages={self.metrics.traffic.messages})"
        )


def halted_metrics(
    rounds: int,
    counts: Any,
    total_words: int,
    max_words: int,
    halted_nodes: int,
) -> RunMetrics:
    """The metrics the reference engine reports for a fault-free run in
    which every node halts: ``counts[r]`` messages sent at round ``r``
    (``per_round`` omits zero rounds and holds Python ints)."""
    metrics = RunMetrics(rounds=rounds, all_halted=True, halted_nodes=halted_nodes)
    traffic = metrics.traffic
    traffic.per_round = {r: int(c) for r, c in enumerate(counts) if c}
    traffic.messages = sum(traffic.per_round.values())
    traffic.total_words = total_words
    traffic.max_words = max_words
    return metrics
