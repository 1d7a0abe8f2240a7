"""CSR adjacency: the dense backend's graph representation.

A :class:`CSRAdjacency` flattens a :class:`~repro.graphs.graph.Graph`
into three arrays — ``indptr`` (n+1 row offsets), ``indices`` (2m
neighbor slots, both directions of every edge), and optionally
``weights`` aligned with ``indices`` — plus the id/rank lookup tables
the kernels need to reproduce the reference engine's orderings:

* rows are laid out in *natural* node order (``sorted(graph.nodes)``),
  which is exactly the engine's node-index order and the order of
  ``Context.neighbors``, so per-row slices of ``indices`` enumerate
  neighbors the way ``NodeProgram.broadcast`` does;
* ``str_rank`` ranks node ids by ``str(id)`` — the tie-break the engine
  uses for inbox ordering and the primitives use for parent selection.
  For the non-negative integer ids the dense backend supports, string
  order equals (digit count, value) order, so the rank is a pure
  numpy lexsort instead of a megabyte of Python string churn.

Construction is O(m) vectorized work after one pass over the edge
iterator.  Because one solve asks for the same graph's view several
times, :func:`csr_adjacency` memoises each view weak-keyed on its graph
object: the view is freed with its graph, so whatever bounds the graphs
(the process's :class:`~repro.batch.cache.GraphCache`, a caller's
scope) bounds the views.  A view is reused only while the graph's
:class:`~repro.graphs.graph.GraphProvenance` stamp is unchanged —
mutation clears the stamp and re-weighting replaces it, so a memoised
view can never go stale.  Graphs without provenance (hand-built or
mutated) are simply rebuilt each time.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .core import DenseUnavailable, np, require_numpy

#: graph -> {with_weights: (provenance stamp, view)}.  Weak keys, and a
#: view holds no reference back to its graph, so dropping the graph
#: drops its views.
_VIEWS: "weakref.WeakKeyDictionary[Any, Dict[bool, Tuple]]" = (
    weakref.WeakKeyDictionary()
)


@dataclass
class CSRAdjacency:
    """Compressed-sparse-row view of an undirected graph."""

    nodes: List[int]  # natural (sorted) order; row i <-> nodes[i]
    index: Dict[int, int]  # node id -> row
    indptr: Any  # int64[n+1]
    indices: Any  # int64[2m] neighbor rows, ascending within each row
    ids: Any  # int64[n] node ids, ids[i] == nodes[i]
    str_rank: Any  # int64[n]; str_rank[i] = rank of str(ids[i])
    rank_to_row: Any  # int64[n]; inverse permutation of str_rank
    weights: Optional[Any] = None  # float64[2m] aligned with indices
    degrees: Any = field(default=None)

    def __post_init__(self) -> None:
        if self.degrees is None:
            self.degrees = self.indptr[1:] - self.indptr[:-1]

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0]) // 2

    def neighbors_of(self, row: int) -> Any:
        """Neighbor rows of one row, ascending (natural order)."""
        return self.indices[self.indptr[row]: self.indptr[row + 1]]

    def gather_edges(self, rows: Any) -> Tuple[Any, Any]:
        """All directed edges out of ``rows``: ``(sources, targets)``
        flat arrays, sources repeated per degree, targets in natural
        order within each source.  The workhorse behind every
        gather/scatter round."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        sources = np.repeat(rows, counts)
        # Position of each flat slot inside its source's segment.
        ends = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            ends - counts, counts
        )
        targets = self.indices[np.repeat(starts, counts) + within]
        return sources, targets


def _natural_rows(graph) -> List[int]:
    try:
        nodes = sorted(graph.nodes)
    except TypeError as exc:
        raise DenseUnavailable(
            f"node ids are not mutually comparable ({exc})"
        )
    for v in nodes:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise DenseUnavailable(
                f"node id {v!r} is not a non-negative int (the dense "
                f"backend's id-ranking requires integer ids)"
            )
    return nodes


def _string_rank(ids: Any) -> Tuple[Any, Any]:
    """Rank non-negative integer ids by ``str(id)`` (lexicographic).

    Scaling every id to a common decimal width makes integer order
    match character-by-character comparison ("15" < "8" because
    ``15·10^(W-2) < 8·10^(W-1)``); among ids where one string prefixes
    the other the scaled keys tie and the shorter string sorts first,
    which the digit count as secondary key reproduces.  All without
    materialising a single Python string.
    """
    n = ids.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if int(ids.max()) > 10**17:  # scaled key would overflow int64
        order = np.asarray(
            sorted(range(n), key=lambda i: str(int(ids[i]))),
            dtype=np.int64,
        )
    else:
        powers = 10 ** np.arange(1, 19, dtype=np.int64)
        digits = (
            np.searchsorted(powers, ids, side="right") + 1
        ).astype(np.int64)
        width = int(digits.max())
        scaled = ids * 10 ** (width - digits)
        order = np.lexsort((digits, scaled))  # = rows by str(id)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    return rank, order


def build_csr(graph, with_weights: bool = False) -> CSRAdjacency:
    """Flatten ``graph`` into a fresh :class:`CSRAdjacency`."""
    require_numpy()
    nodes = _natural_rows(graph)
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    ids = np.asarray(nodes, dtype=np.int64) if n else np.empty(
        0, dtype=np.int64
    )
    m = graph.num_edges
    if m:
        flat = np.fromiter(
            (
                row
                for u, v in graph.edges()
                for row in (index[u], index[v])
            ),
            dtype=np.int64,
            count=2 * m,
        )
        src = np.concatenate((flat[0::2], flat[1::2]))
        dst = np.concatenate((flat[1::2], flat[0::2]))
        order = np.lexsort((dst, src))
        indices = dst[order]
        counts = np.bincount(src, minlength=n)
    else:
        order = None
        indices = np.empty(0, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
    indptr = np.empty(n + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    weights = None
    if with_weights and m:
        w = np.fromiter(
            (graph.weight(u, v) for u, v in graph.edges()),
            dtype=np.float64,
            count=m,
        )
        weights = np.concatenate((w, w))[order]
    str_rank, rank_to_row = _string_rank(ids)
    return CSRAdjacency(
        nodes=nodes,
        index=index,
        indptr=indptr,
        indices=indices,
        ids=ids,
        str_rank=str_rank,
        rank_to_row=rank_to_row,
        weights=weights,
    )


def csr_adjacency(graph, with_weights: bool = False) -> CSRAdjacency:
    """CSR view of ``graph``, memoised on the graph object while its
    provenance stamp holds (generated graphs carry one)."""
    stamp = getattr(graph, "provenance", None)
    if stamp is None:
        return build_csr(graph, with_weights=with_weights)
    views = _VIEWS.setdefault(graph, {})
    held = views.get(with_weights)
    if held is not None and held[0] == stamp:
        return held[1]
    csr = build_csr(graph, with_weights=with_weights)
    views[with_weights] = (stamp, csr)
    return csr


def cache_clear() -> None:
    """Drop every memoised view (test isolation hook)."""
    _VIEWS.clear()
