"""The route table: each stage's routes and the contract between them.

A stage has up to three routes, all called on the same arguments:

* **engine** — the call inside ``observe()``: the stage's programs run
  on the event engine, and what the subscriber sees must account for
  the result exactly (``Row.shown``);
* **direct** — the call unobserved, with ``Network`` patched to fail
  when built or run, so the engine-free port must serve it;
* **dense** — ``backend="dense"``, unobserved and with the engine
  forbidden too; skipped when numpy does not import.

Only ``tree_kdominating_set`` has no direct route: unobserved, its
reference backend still simulates.

The engine route is the reference.  Every output of the other routes
must equal the engine's either **in order** (sequences, a set's
iteration order, a mapping's item order) or **as a set** (membership
and mapping only), as the row's rules say for that route.  Every
engine result also passes the row's networkx oracle.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import pytest

from repro.core import dom_partition, fastdom_tree, tree_kdominating_set
from repro.core.partition_common import (
    contracted_parent_map,
    run_balanced_dom_on_forest,
)
from repro.core.spanning_forest import simple_mst_forest
from repro.mst import run_pipeline
from repro.obs import Subscriber, observe
from repro.primitives import build_bfs_tree
from repro.sim import Network
from repro.sim.dense import HAVE_NUMPY, balanced_rows

from . import oracle

IN_ORDER = "equal in order"
AS_SET = "equal as a set"


@dataclass(frozen=True)
class Row:
    stage: str
    #: The corpus inputs it takes (see :mod:`.corpus`).
    kind: str
    call: Callable
    #: ``backend="dense"``'s call, or None.
    dense: Optional[Callable]
    #: Whether an engine-free direct route serves unobserved calls.
    direct: bool
    #: Result -> named outputs.
    outputs: Callable
    #: Output -> (direct rule, dense rule); an absent route is not run.
    rules: Dict[str, Tuple[str, str]]
    #: (what the engine route showed, engine outputs) -> whether the
    #: events account for the outputs: the sends of the programs whose
    #: messages the outputs count, or Small-Dom-Set's engine runs.
    shown: Callable
    #: (arguments, engine outputs) -> None; asserts the paper's contract.
    oracle: Callable


def _metrics(metrics):
    """``to_dict()``, and the ``per_round`` keys in the order written."""
    return metrics.to_dict(), list(metrics.traffic.per_round)


def _staged(result):
    """A (dominators, partition, staged) or (partition, staged) result."""
    *dominators, partition, staged = result
    out = {"dominators": dominators[0]} if dominators else {}
    out.update(
        center_of=partition.center_of,
        centers=partition.centers,
        breakdown=staged.breakdown(),
        total_messages=staged.total_messages,
        combined=_metrics(staged.combined),
    )
    return out


def _network(*names):
    """A result whose last element is the run (a Network or RunRecord):
    each node's outputs with their keys in the order written."""

    def outputs(result):
        *fields, run = result
        out = dict(zip(names, fields))
        out.update(
            outputs={v: list(node.items()) for v, node in run.outputs().items()},
            metrics=_metrics(run.metrics),
        )
        return out

    return outputs


def _pipeline(result):
    """``run_pipeline``'s (selected, staged, run)."""
    selected, staged, run = result
    out = _network("selected")((selected, run))
    out.update(breakdown=staged.breakdown(), combined=_metrics(staged.combined))
    return out


def _balanced_dense(tree, clusters, t_parent, radius=None):
    """BalancedDOM's contracted forest as ``balanced_rows`` arrays."""
    from repro.sim.dense.core import np

    parents = contracted_parent_map(t_parent, clusters)
    tops = sorted(parents)
    row = {top: i for i, top in enumerate(tops)}
    parent = np.array([row.get(parents[t], -1) for t in tops], dtype=np.int64)
    bound = max(tree.num_nodes, max(v + 1 for v in tree.nodes))
    dominators, rounds = balanced_rows(np.array(tops, dtype=np.int64), parent, bound)
    return dict(zip(tops, dominators.tolist())), rounds


def _dense(call):
    return lambda *args: call(*args, backend="dense")


SAME = (IN_ORDER, IN_ORDER)
#: Dense builds its sets and centre maps in CSR row order.
SET_ON_DENSE = (IN_ORDER, AS_SET)
PARTITION_RULES = {
    "center_of": SET_ON_DENSE,
    "centers": SET_ON_DENSE,
    "breakdown": SAME,
    "total_messages": SAME,
    "combined": SAME,
}
KDOM_RULES = dict(PARTITION_RULES, dominators=SET_ON_DENSE)
NETWORK_RULES = dict.fromkeys(("outputs", "metrics"), SAME)


def _sends(*tags):
    """The engine sent, with ``tags``, every message the outputs count."""

    def shown(seen, out):
        metrics = out.get("metrics")
        total = metrics[0]["messages"] if metrics else out["total_messages"]
        return sum(seen.sent[tag] for tag in tags) == total

    return shown


def _balanced_runs(seen, out):
    """One Small-Dom-Set run on the engine per BalancedDOM stage (its
    only engine runs)."""
    stages = [name for name in out["breakdown"] if name.startswith("balanced")]
    return len(seen.rounds) == len(stages)


ROUTES = {
    row.stage: row
    for row in (
        Row(
            "simple_mst_forest", "graph", simple_mst_forest, dense=None, direct=True,
            outputs=_network("parents", "fragments"),
            rules=dict(NETWORK_RULES, parents=SAME, fragments=SAME),
            shown=_sends("PRB", "ECH", "ACT", "FID", "MOE", "XFR", "CON"),
            oracle=lambda a, out: oracle.mst_forest(*a, out["parents"], out["fragments"]),
        ),
        Row(
            "run_balanced_dom_on_forest", "forest", run_balanced_dom_on_forest,
            dense=_balanced_dense, direct=True,
            outputs=lambda result: dict(zip(("center_map", "rounds", "radius"), result)),
            rules={"center_map": SAME, "rounds": SAME, "radius": SAME},
            shown=lambda seen, out: seen.rounds == [out["rounds"]],
            oracle=lambda a, out: oracle.lemma_3_2(*a[:2], out["center_map"], out["radius"]),
        ),
        Row(
            "dom_partition", "tree", dom_partition, dense=_dense(dom_partition),
            direct=True, outputs=_staged, rules=PARTITION_RULES, shown=_balanced_runs,
            oracle=lambda a, out: oracle.lemma_3_7(a[0], a[3], out["center_of"]),
        ),
        Row(
            "fastdom_tree", "tree", fastdom_tree, dense=_dense(fastdom_tree),
            direct=True, outputs=_staged, rules=KDOM_RULES, shown=_sends("DP", "DOM"),
            oracle=lambda a, out: oracle.k_domination(
                a[0], a[3], out["dominators"], out["center_of"]
            ),
        ),
        Row(
            "tree_kdominating_set", "tree", tree_kdominating_set,
            dense=_dense(tree_kdominating_set), direct=False, outputs=_staged,
            rules=KDOM_RULES, shown=_sends("DP", "DOM"),
            oracle=lambda a, out: (
                oracle.k_domination(a[0], a[3], out["dominators"], out["center_of"]),
                oracle.nearest_centres(a[0], a[3], out["dominators"], out["center_of"]),
            ),
        ),
        Row(
            "build_bfs_tree", "bfs", build_bfs_tree, dense=_dense(build_bfs_tree),
            direct=True, outputs=_network("parents", "depths"),
            rules=dict(NETWORK_RULES, parents=SAME, depths=SAME),
            shown=_sends("WAVE", "ACCEPT", "REJECT", "ECHO", "MFIN"),
            oracle=lambda a, out: oracle.bfs(*a[:2], out["parents"], out["depths"]),
        ),
        Row(
            "run_pipeline", "pipeline", run_pipeline, dense=None, direct=True,
            outputs=_pipeline,
            rules=dict(NETWORK_RULES, selected=SAME, breakdown=SAME, combined=SAME),
            shown=_sends("FRG", "EDG", "TRM", "SEL", "DON"),
            oracle=lambda a, out: oracle.pipeline(
                *a, out["selected"], {v: dict(f) for v, f in out["outputs"].items()}
            ),
        ),
    )
}


class Seen(Subscriber):
    """What an observed call showed: sends by protocol tag, and the
    rounds of each engine run."""

    def __init__(self):
        self.sent = Counter()
        self.rounds = []

    def on_event(self, event):
        if event["kind"] == "send":
            self.sent[event["payload"][0]] += 1

    def on_close(self, run_records):
        self.rounds = [record["rounds"] for record in run_records]


def engine(row, args):
    seen = Seen()
    with observe(seen):
        out = row.outputs(row.call(*args))
    assert row.shown(seen, out), f"{row.stage}: the engine did not run its programs"
    return out


def _engine_forbidden(*_args, **_kwargs):
    raise AssertionError("the engine ran")


def unobserved(call, args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "__init__", _engine_forbidden)
        patch.setattr(Network, "run", _engine_forbidden)
        return call(*args)


def _view(value, rule):
    if rule == AS_SET:
        return dict(value) if isinstance(value, dict) else set(value)
    if isinstance(value, dict):
        return list(value.items())
    return list(value) if isinstance(value, (set, list)) else value


def compare(row, route, got, want):
    for name, value in got.items():
        rule = row.rules[name][route == "dense"]
        assert _view(value, rule) == _view(want[name], rule), (
            f"{row.stage}: {route} {name} not {rule} to the engine's"
        )


def check(row, args, dense=HAVE_NUMPY):
    """Run ``args`` on every route of ``row`` and hold them to the contract."""
    want = engine(row, args)
    row.oracle(args, want)
    if row.direct:
        compare(row, "direct", row.outputs(unobserved(row.call, args)), want)
    if row.dense and dense:
        compare(row, "dense", row.outputs(unobserved(row.dense, args)), want)


def check_family(family):
    """``check`` each input in ``family`` on every row of its kind, one
    input at a time (the oracle caches its graphs per input)."""
    for kind, cases in family.items():
        for args in cases:
            for row in ROUTES.values():
                if row.kind == kind:
                    check(row, args)
