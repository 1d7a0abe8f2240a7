"""The differential contract's checks that span its stages.

:mod:`.routes` holds the route table and the comparator, :mod:`.corpus`
the inputs, :mod:`.oracle` the paper's contracts in networkx and
:mod:`.errors` the error table.  Each stage's module runs its rows on
its families and its error cases:

* tests/core/test_simple_mst_port.py — ``simple_mst_forest``;
* tests/core/test_small_dom_set_port.py — ``run_balanced_dom_on_forest``;
* tests/core/test_tree_kdom_port.py — ``dom_partition``,
  ``fastdom_tree`` and ``tree_kdominating_set``;
* tests/core/test_dense_equivalence.py — the same three rows on the
  trees their dense route was first checked on;
* tests/primitives/test_dense_primitives.py — ``build_bfs_tree``;
* tests/mst/test_pipeline_port.py — ``run_pipeline``.
"""

import pytest

from .corpus import PERFBENCH, perfbench
from .errors import raises
from .routes import ROUTES


def test_perfbench_reaches_every_stage():
    for row in ROUTES.values():
        assert any(perfbench(spec)[row.kind] for spec in PERFBENCH), row.stage


@pytest.mark.parametrize(
    "case", ["cycle-tree-kdominating-set", "cycle-dom-partition", "cycle-fastdom-tree"]
)
def test_cyclic_parent_maps_are_refused(case, monkeypatch):
    raises(case, monkeypatch)
