"""Spec-based run dispatch: ship the recipe, not the network.

PR 4's process backend pickled whole pre-run :class:`~repro.sim.network.
Network` objects to workers — adjacency tables, neighbour sets, weight
maps, precomputed delivery ranks.  For large graphs that pickle cost
dominates the run itself.  This module replaces the payload with a
:class:`NetworkSpec`: the graph's :class:`~repro.graphs.graph.
GraphProvenance` (a spec string, two seeds and an optional member
tuple) plus the network's word limit and scheduling mode.  The worker
rebuilds the graph through its one
:class:`~repro.batch.cache.GraphCache` — so sibling runs over the same
base graph regenerate it once — and constructs a fresh ``Network``.

The contract that makes this exact: provenance replay
(``parse_graph_spec`` → ``assign_unique_weights`` → ``subgraph``)
reproduces nodes, edges and weights bit for bit, and ``Network``
derives *all* engine state (dense index, neighbour tables, delivery
ranks) deterministically from the graph.  A rebuilt network therefore
runs the same program to the same outputs, metrics and per-round
traffic as a shipped one.

Networks that carry state the recipe cannot express — a fault injector
mid-plan, a hand-built or mutated graph (``provenance is None``) —
fall back to the PR 4 network-shipping path; see
:func:`parallel_task`.  ``docs/performance.md`` records the measured
per-task pickle sizes for both paths.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..graphs.graph import GraphProvenance
from ..sim.network import Network
from .cache import GraphCache, worker_graph_cache

#: Task kinds produced by :func:`parallel_task`.
SPEC_TASK = "spec"
NETWORK_TASK = "network"


@dataclass(frozen=True)
class NetworkSpec:
    """Everything a worker needs to rebuild and run a plain network."""

    provenance: GraphProvenance
    word_limit: int
    scheduling: str


def network_spec(network: Network) -> Optional[NetworkSpec]:
    """The spec that rebuilds ``network`` in a worker, or ``None``.

    ``None`` means the network cannot be expressed as a recipe — its
    graph has no provenance (hand-built, loaded, or mutated after
    generation) or it carries a fault injector whose RNG/plan state
    must travel with it — and the caller should ship the network.
    """
    if network.faults is not None:
        return None
    provenance = getattr(network.graph, "provenance", None)
    if provenance is None:
        return None
    return NetworkSpec(provenance, network.word_limit, network.scheduling)


def build_graph(provenance: GraphProvenance, cache: GraphCache):
    """Replay a provenance recipe through ``cache``."""
    graph = cache.get(
        provenance.spec,
        provenance.seed,
        weight_seed=provenance.weight_seed,
    )
    if provenance.members is not None:
        graph = graph.subgraph(provenance.members)
    return graph


def build_network(spec: NetworkSpec, cache: GraphCache) -> Network:
    """Rebuild the network a :class:`NetworkSpec` describes."""
    return Network(
        build_graph(spec.provenance, cache),
        word_limit=spec.word_limit,
        scheduling=spec.scheduling,
    )


def parallel_task(
    network: Network, factory: Any, max_rounds: int
) -> Tuple[str, Tuple[Any, Any, int]]:
    """The task to ship for one ``run_in_parallel`` run.

    Spec dispatch when the network is recipe-expressible, the PR 4
    network-shipping fallback otherwise.  Both task kinds execute via
    :func:`run_parallel_task` and return the same
    ``(result, outputs, halted)`` triple.
    """
    spec = network_spec(network)
    if spec is not None:
        return SPEC_TASK, (spec, factory, max_rounds)
    return NETWORK_TASK, (network, factory, max_rounds)


def run_parallel_task(
    task: Tuple[str, Tuple[Any, Any, int]]
) -> Tuple[Any, Dict[Any, Any], Dict[Any, bool]]:
    """Worker-side executor for both task kinds.

    Returns what parent-side drivers consume — the run result (metrics
    or fault report), per-node outputs and halt flags — rather than the
    mutated network: finished programs may hold generator frames
    (:class:`~repro.sim.program.ScriptedProgram`), which do not pickle.
    """
    kind, payload = task
    if kind == SPEC_TASK:
        spec, factory, max_rounds = payload
        network = build_network(spec, worker_graph_cache())
    else:
        network, factory, max_rounds = payload
    result = network.run(factory, max_rounds=max_rounds)
    outputs = {v: program.output for v, program in network.programs.items()}
    halted = {v: program.halted for v, program in network.programs.items()}
    return result, outputs, halted


def task_pickle_bytes(
    runs: List[Tuple[Network, Any]], max_rounds: int = 1_000_000
) -> Dict[str, Any]:
    """Measure what each dispatch path would ship for ``runs``.

    Used by ``repro perf`` to keep the spec-dispatch saving honest:
    ``spec_bytes`` is the pickled size of the tasks :func:`parallel_task`
    actually produces, ``network_bytes`` the size of the network-shipping
    equivalents.  ``spec_tasks`` counts how many runs were
    recipe-expressible.
    """
    spec_total = 0
    network_total = 0
    spec_tasks = 0
    for network, factory in runs:
        kind, payload = parallel_task(network, factory, max_rounds)
        if kind == SPEC_TASK:
            spec_tasks += 1
        spec_total += len(pickle.dumps((kind, payload)))
        network_total += len(
            pickle.dumps((NETWORK_TASK, (network, factory, max_rounds)))
        )
    return {
        "runs": len(runs),
        "spec_tasks": spec_tasks,
        "spec_bytes": spec_total,
        "network_bytes": network_total,
        "ratio": round(spec_total / network_total, 4) if network_total else 1.0,
    }
