"""Golden rows: sweep cells reproduce committed bytes.

CI's ``cmp`` steps compare two runs of one commit, so a change that
alters every row the same way passes them.  This file pins the
``canonical_line`` of a fixed set of ``kdom``, ``mst`` and ``partition``
cells — the ``--fast`` grids, the perfbench sweep specs and perfbench
serve's ``partition``, ``kdom`` and ``mst`` cells — against a recording.

A ``kdom`` row pins FastDOM_G's ``dominators``, ``clusters``, ``rounds``
and per-stage ``breakdown``.  Its ``metrics`` block covers only the
SimpleMST stage (the later stages are added by round count), so the
rows do not pin the traffic of FastDOM_T's cluster stages;
tests/differential/ compares those metrics directly.

Regenerate only after a deliberate row change::

    PYTHONPATH=src python tests/batch/test_golden_rows.py
"""

import os

import pytest

from repro.batch import SweepCell, fast_grid, run_cell
from repro.batch.store import canonical_line

GOLDEN_ROWS = os.path.join(os.path.dirname(__file__), "golden", "rows.jsonl")

#: The perfbench ``sweep`` workload's (workload, spec) pairs.
PERFBENCH_SWEEP = (
    ("kdom", "tree:n=80"),
    ("kdom", "random:n=80,p=0.06"),
    ("kdom", "grid:8x10"),
    ("mst", "random:n=80,p=0.06"),
)

#: The perfbench ``serve`` workload's ``partition`` specs and ks.
PERFBENCH_SERVE_PARTITION = ("tree:n=16", "tree:n=24", "tree:n=32")
PERFBENCH_SERVE_KS = (2, 3, 4)
#: Its ``kdom`` and ``mst`` specs: the partition trees plus two random
#: graphs.
PERFBENCH_SERVE_KDOM = PERFBENCH_SERVE_PARTITION + (
    "random:n=16,p=0.2",
    "random:n=24,p=0.15",
)


def golden_cells():
    cells = fast_grid("kdom").cells() + fast_grid("mst").cells()
    cells += [
        SweepCell(workload, spec, 0, k)
        for workload, spec in PERFBENCH_SWEEP
        for k in (2, 8)
    ]
    cells += [
        SweepCell("partition", spec, seed, k)
        for spec in PERFBENCH_SERVE_PARTITION
        for seed in (0, 1)
        for k in PERFBENCH_SERVE_KS
    ]
    cells += [SweepCell("partition", "tree:n=80", 0, k) for k in (2, 8)]
    cells += [
        SweepCell("kdom", spec, seed, k)
        for spec in PERFBENCH_SERVE_KDOM
        for seed in (0, 1)
        for k in PERFBENCH_SERVE_KS
    ]
    cells += [SweepCell("kdom", "random:n=120,p=0.04", 0, k) for k in (1, 13)]
    cells += [
        SweepCell("mst", spec, seed, k)
        for spec in PERFBENCH_SERVE_KDOM
        for seed in (0, 1)
        for k in PERFBENCH_SERVE_KS
    ]
    return cells


def render(cell) -> str:
    return canonical_line(run_cell(cell)) + "\n"


def _recorded():
    with open(GOLDEN_ROWS) as handle:
        return handle.readlines()


CELLS = golden_cells()


def test_golden_file_covers_every_cell():
    assert len(_recorded()) == len(CELLS)


@pytest.mark.parametrize("index", range(len(CELLS)), ids=[c.key for c in CELLS])
def test_row_matches_golden(index):
    assert render(CELLS[index]) == _recorded()[index]


if __name__ == "__main__":
    with open(GOLDEN_ROWS, "w") as handle:
        for cell in CELLS:
            handle.write(render(cell))
    print(f"rewrote {GOLDEN_ROWS}")
