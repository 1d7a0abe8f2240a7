"""Shared plumbing for the dense (numpy) execution backend.

The dense backend executes *regular* synchronous rounds as whole-array
operations instead of per-node Python dispatch (see
docs/performance.md, "The dense backend").  This module holds the
guarded numpy import every dense kernel needs: the reference engine
must import and run without numpy, so ``np`` is ``None`` when the
package is missing and :func:`require_numpy` turns that into the
structured :class:`DenseUnavailable` error.

The dense BFS returns a :class:`~repro.sim.runner.RunRecord`, the
numpy-free record every engine-free route returns, and every kernel
builds its :class:`~repro.sim.metrics.RunMetrics` with
:func:`~repro.sim.metrics.halted_metrics`.

Equivalence contract: a dense kernel must produce the reference
scheduler's outputs, round count and metrics exactly.  It serves
unobserved runs only: under an active observation every dense entry
point runs the reference engine, so no dense kernel registers a run or
emits an event.  Inputs outside a kernel's contract fall back to the
reference engine instead of approximating (fallback rules in
docs/performance.md).
"""

from __future__ import annotations

try:  # pragma: no cover - exercised via the no-numpy CI matrix entry
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

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
