"""repro.sim.dense — the vectorized (numpy) execution backend.

Public surface:

* availability: :data:`HAVE_NUMPY`, :func:`require_numpy`,
  :class:`DenseUnavailable`;
* adjacency: :func:`csr_adjacency` (memoised per graph object),
  :func:`build_csr`, :class:`CSRAdjacency`;
* the BFS tree: :func:`plan_bfs` / :func:`dense_bfs_tree` (the plan
  step returns ``None`` when the input is outside the dense contract,
  so the caller can run the reference engine instead);
* forest kernels (:mod:`repro.sim.dense.forest`): the FastDOM/TreeKDom
  stages — the per-cluster DP, nearest-dominator waves, and the
  ruling-set (six-coloring + matching + star partition) rounds of the
  balanced partition stage.

The backend serves unobserved runs only.  Under an active observation
every dense entry point runs the reference engine, so traces always
hold genuine engine events and no dense kernel emits one.

This package imports cleanly without numpy; only actually *selecting*
``backend="dense"`` requires it.
"""

from .core import (
    DenseUnavailable,
    HAVE_NUMPY,
    require_numpy,
)
from .csr import (
    CSRAdjacency,
    build_csr,
    cache_clear,
    csr_adjacency,
)
from .kernels import (
    dense_bfs_tree,
    plan_bfs,
)
from .forest import (
    balanced_rows,
    dense_cluster_domination,
    nearest_dominator_wave,
    partition_from_labels,
    plan_tree_kdom,
)

__all__ = [
    "CSRAdjacency",
    "DenseUnavailable",
    "HAVE_NUMPY",
    "balanced_rows",
    "build_csr",
    "cache_clear",
    "csr_adjacency",
    "dense_bfs_tree",
    "dense_cluster_domination",
    "nearest_dominator_wave",
    "partition_from_labels",
    "plan_bfs",
    "plan_tree_kdom",
]
