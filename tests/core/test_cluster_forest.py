"""The partition drivers' kept cluster state (``ClusterForest``).

Each driver keeps one member -> top map and one depth record per
cluster through its loop; merges, step 3-IV absorption and the side set
update them.  These tests pin that mechanism: step 3-IV on hand-built
clusters, no member -> top map rebuilt per cluster, and no cluster
measured by BFS unless an absorption grew it, and then once per
membership.
"""

import importlib

import pytest

import repro.core.partition_bounded as partition_bounded
import repro.core.partition_common as common
import repro.core.partition_fast as partition_fast
from perfbench.workloads import sweep_grids
from repro.batch.sweep import run_cell
from repro.core import dom_partition_2
from repro.core.partition_common import singleton_clusters
from repro.graphs import bfs_tree, path_graph, random_tree
from repro.sim.runner import StagedRun

absorb_lone_clusters = partition_fast._absorb_lone_clusters


def path_clusters(n, top_of):
    """A rooted path 0..n-1 (root 0), its forest, and the clusters that
    merging the singletons onto ``top_of`` (node -> cluster) gives."""
    tree = path_graph(n)
    forest = common.ClusterForest(tree, 0)
    clusters = forest.merge(
        singleton_clusters(tree), {v: top_of(v) for v in tree.nodes}
    )
    return tree, forest, clusters


def forests_of(forest, tree, waiting):
    """The driver's forest, and the view the dense driver builds."""
    return {
        "reference": forest,
        "dense-view": common.ClusterForest.hosts(tree, waiting),
    }


class TestAbsorption:
    """Step 3-IV on the path 0-1-...-7 rooted at 0."""

    @pytest.mark.parametrize("view", ["reference", "dense-view"])
    def test_lone_cluster_joins_a_host_at_an_eligible_node(self, view):
        # Host {0, 1, 2} waits; the lone {3, 4} touches it at 2, whose
        # depth below the host's top is 2 <= k.
        tree, forest, clusters = path_clusters(
            8, lambda v: 0 if v < 3 else 3 if v < 5 else 5
        )
        live, waiting = {3: clusters[3]}, {0: clusters[0]}
        forest = forests_of(forest, tree, waiting)[view]
        side, staged = [], StagedRun()
        absorb_lone_clusters(tree, live, waiting, side, 2, staged, 1, [3], forest)
        assert live == {} and side == []
        assert waiting == {0: {0, 1, 2, 3, 4}}
        assert forest.owner[3] == forest.owner[4] == 0
        assert staged.breakdown() == {"absorb-1": 2 * 2 + 2}
        assert forest.depth[0] == 4

    @pytest.mark.parametrize("view", ["reference", "dense-view"])
    def test_contact_deeper_than_k_sends_the_cluster_to_the_side_set(self, view):
        # The host's only node next to {3, 4} is 2, at depth 2 > k = 1;
        # 5 belongs to a cluster that is not waiting.
        tree, forest, clusters = path_clusters(
            8, lambda v: 0 if v < 3 else 3 if v < 5 else 5
        )
        live, waiting = {3: clusters[3]}, {0: clusters[0]}
        forest = forests_of(forest, tree, waiting)[view]
        side = []
        absorb_lone_clusters(tree, live, waiting, side, 1, StagedRun(), 1, [3], forest)
        assert live == {} and side == [{3, 4}]
        assert waiting == {0: {0, 1, 2}}
        assert 3 not in forest.owner and 4 not in forest.owner

    def test_a_host_below_the_lone_cluster_is_measured_from_its_top(self, monkeypatch):
        # The lone {0, 1} sits above the host {2, 3, 4}: the host keeps
        # its top 2, so its depth is a BFS from 2 (2 here, where the
        # shallowest member 0 would give 4), run once, and its
        # contracted edge leaves from 0.
        tree, forest, clusters = path_clusters(
            8, lambda v: 0 if v < 2 else 2 if v < 5 else 5
        )
        measured = []
        real = common.cluster_depths
        monkeypatch.setattr(
            common, "cluster_depths",
            lambda *args: measured.append(args[2]) or real(*args),
        )
        live, waiting = {0: clusters[0]}, {2: clusters[2]}
        absorb_lone_clusters(tree, live, waiting, [], 3, StagedRun(), 1, [0], forest)
        assert waiting == {2: {0, 1, 2, 3, 4}}
        assert forest.depth[2] == 2 and measured == [2]
        assert forest.depth_at(2, waiting[2], 0) == 2
        assert forest.contract({2: waiting[2], 5: clusters[5]}) == {2: {5}, 5: {2}}


def test_dom_partition_2_builds_no_owner_map_per_cluster(monkeypatch):
    # Its lone-cluster test reads the kept owner map: at most one
    # member -> top map is built per iteration, not one per cluster.
    built = []
    real = common.tops_by_member

    def spy(clusters):
        built.append(len(clusters))
        return real(clusters)

    for module in (common, partition_bounded, partition_fast):
        monkeypatch.setattr(module, "tops_by_member", spy, raising=False)
    tree = random_tree(600, seed=5)
    _partition, staged = dom_partition_2(tree, 0, bfs_tree(tree, 0)[1], 8)
    iterations = [name for name in staged.breakdown() if name.startswith("iteration")]
    assert len(built) <= len(iterations), built


def test_sweep_cells_measure_no_cluster_by_bfs_twice(monkeypatch):
    # Over the kdom cells of one perfbench sweep round, no unobserved
    # dom_partition measures a (top, member set) twice, and it measures
    # only hosts that step 3-IV grew.
    calls = []
    real_depths = common.cluster_depths
    real_partition = partition_fast.dom_partition

    def depths(tree, members, top):
        calls[-1]["measured"].append((top, frozenset(members)))
        return real_depths(tree, members, top)

    def absorb(*args):
        waiting = args[2]
        sizes = {top: len(members) for top, members in waiting.items()}
        absorb_lone_clusters(*args)
        calls[-1]["hosts"] |= {
            top for top, members in waiting.items() if len(members) > sizes.get(top, 0)
        }

    def partition(*args, **kwargs):
        calls.append({"measured": [], "hosts": set()})
        return real_partition(*args, **kwargs)

    monkeypatch.setattr(common, "cluster_depths", depths)
    monkeypatch.setattr(partition_fast, "cluster_depths", depths, raising=False)
    monkeypatch.setattr(partition_fast, "_absorb_lone_clusters", absorb)
    for name in ("repro.core.fastdom_tree", "repro.mst.fast_mst"):
        monkeypatch.setattr(importlib.import_module(name), "dom_partition", partition)
    kdom, _mst = sweep_grids(11, 1)[0]
    for cell in kdom.cells():
        run_cell(cell)
    assert len(calls) > 100
    repeats = sum(len(call["measured"]) - len(set(call["measured"])) for call in calls)
    unabsorbed = sum(
        top not in call["hosts"] for call in calls for top, _members in call["measured"]
    )
    assert (repeats, unabsorbed) == (0, 0)
