"""repro.sim.dense — the vectorized (numpy) execution backend.

Public surface:

* availability: :data:`HAVE_NUMPY`, :func:`require_numpy`,
  :class:`DenseUnavailable`;
* adjacency: :func:`csr_adjacency` (memoised per graph object),
  :func:`build_csr`, :class:`CSRAdjacency`;
* primitive kernels: ``plan_*``/``dense_*`` pairs for flood,
  convergecast, and BFS (the plan step returns ``None`` when the input
  is outside the dense contract, *before* any run is registered with an
  observation — so callers can fall back to the reference engine
  without perturbing trace run ids);
* forest kernels (:mod:`repro.sim.dense.forest`): the FastDOM/TreeKDom
  stages — per-cluster DP, nearest-dominator waves, and the ruling-set
  (six-coloring + matching + star partition) rounds of the balanced
  partition stage.

This package imports cleanly without numpy; only actually *selecting*
``backend="dense"`` requires it.
"""

from .core import (
    DenseRun,
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
    dense_convergecast,
    dense_flood,
    plan_bfs,
    plan_convergecast,
    plan_flood,
)
from .forest import (
    balanced_rows,
    cluster_arrays,
    dense_balanced_on_forest,
    dense_cluster_domination,
    dense_kdom_dp_run,
    dense_wave_run,
    nearest_dominator_wave,
    partition_from_labels,
    plan_tree_kdom,
)

__all__ = [
    "CSRAdjacency",
    "DenseRun",
    "DenseUnavailable",
    "HAVE_NUMPY",
    "balanced_rows",
    "build_csr",
    "cache_clear",
    "cluster_arrays",
    "csr_adjacency",
    "dense_balanced_on_forest",
    "dense_bfs_tree",
    "dense_cluster_domination",
    "dense_convergecast",
    "dense_flood",
    "dense_kdom_dp_run",
    "dense_wave_run",
    "nearest_dominator_wave",
    "partition_from_labels",
    "plan_bfs",
    "plan_convergecast",
    "plan_flood",
    "plan_tree_kdom",
]
