"""Algorithm DiamDOM (§2.2): census counts, pipelining, Lemma 2.3 timing."""

import pytest

from repro.core import diam_dom, level_classes
from repro.core.diam_dom import DiamDOMProgram
from repro.graphs import (
    RootedTree,
    diameter,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)


class TestCensusCorrectness:
    @pytest.mark.parametrize(
        "n,k,seed", [(30, 2, 1), (60, 4, 2), (100, 1, 3), (45, 6, 4)]
    )
    def test_counts_match_level_classes(self, n, k, seed):
        g = random_tree(n, seed=seed)
        dominating, level, counts, _net = diam_dom(g, 0, k)
        rt = RootedTree.from_graph(g, 0)
        classes = level_classes(rt, k)
        assert counts == {lvl: len(classes[lvl]) for lvl in range(k + 1)}
        assert dominating == classes[level]

    def test_chooses_minimum_class(self):
        g = random_tree(80, seed=5)
        _d, level, counts, _net = diam_dom(g, 0, 3)
        assert counts[level] == min(counts.values())

    def test_size_bound_always(self):
        for n, k, seed in [(30, 2, 1), (77, 3, 2), (120, 5, 6)]:
            g = random_tree(n, seed=seed)
            d, _l, _c, _net = diam_dom(g, 0, k)
            assert len(d) <= max(1, n // (k + 1))

    def test_star(self):
        g = star_graph(40)
        d, level, counts, _net = diam_dom(g, 0, 1)
        assert counts == {0: 1, 1: 39}
        assert level == 0 and d == {0}

    def test_works_on_general_graph_over_bfs_tree(self):
        g = grid_graph(6, 6)
        d, _l, counts, _net = diam_dom(g, 0, 2)
        assert sum(counts.values()) == 36


class TestLemma23Timing:
    @pytest.mark.parametrize(
        "graph_factory,label",
        [
            (lambda: path_graph(60), "path60"),
            (lambda: random_tree(100, seed=1), "tree100"),
            (lambda: star_graph(30), "star30"),
        ],
    )
    def test_decision_round_within_bound(self, graph_factory, label):
        g = graph_factory()
        k = 3
        _d, _l, _c, net = diam_dom(g, 0, k)
        decision = net.programs[0].output["decision_round"]
        assert decision <= 5 * diameter(g) + k + 5

    def test_census_messages_never_collide(self):
        """Lemma 2.3's 'crucial observation': the k+1 staggered censuses
        share tree edges without collision.  The simulator raises
        CongestionViolation on any collision, so completing the run IS
        the assertion; we additionally check the budget."""
        g = random_tree(150, seed=9)
        k = 8
        _d, _l, _c, net = diam_dom(g, 0, k)
        assert net.metrics.max_message_words <= 8

    def test_k_zero(self):
        g = path_graph(10)
        d, level, counts, _net = diam_dom(g, 0, 0)
        assert level == 0 and counts == {0: 10}
        assert d == set(g.nodes)


class TestLevelStaggeredRemark:
    """The remark after Lemma 2.3: staggering censuses by start level
    makes the decision round independent of k (5*Diam flat)."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: path_graph(60),
            lambda: random_tree(120, seed=4),
            lambda: star_graph(25),
        ],
    )
    def test_same_output_as_standard(self, factory):
        g = factory()
        for k in (1, 3, 8):
            d1, l1, c1, _n1 = diam_dom(g, 0, k)
            d2, l2, c2, _n2 = diam_dom(g, 0, k, staggered_by_level=True)
            assert d1 == d2 and l1 == l2
            rt = RootedTree.from_graph(g, 0)
            classes = level_classes(rt, k)
            for level, count in c2.items():
                assert count == len(classes[level])

    def test_decision_round_flat_in_k(self):
        g = random_tree(200, seed=5)
        decisions = set()
        for k in (1, 4, 16):
            _d, _l, _c, net = diam_dom(g, 0, k, staggered_by_level=True)
            decisions.add(net.programs[0].output["decision_round"])
        assert len(decisions) == 1

    def test_never_slower_than_standard(self):
        g = random_tree(90, seed=6)
        for k in (2, 7):
            _d1, _l1, _c1, n1 = diam_dom(g, 0, k)
            _d2, _l2, _c2, n2 = diam_dom(g, 0, k, staggered_by_level=True)
            assert (
                n2.programs[0].output["decision_round"]
                <= n1.programs[0].output["decision_round"]
            )


class TestCensusScheduleFidelity:
    """Fig. 2's exact timing: a depth-i node emits census l at round
    t1 + l + (M - i), verified via the send trace."""

    def test_send_rounds_match_schedule(self):
        from repro.obs import TraceBuffer
        from repro.sim import Network

        g = random_tree(60, seed=9)
        k = 3
        buffer = TraceBuffer()
        net = Network(g)
        net.attach_subscriber(buffer)
        net.run(lambda ctx: DiamDOMProgram(ctx, 0, k))

        t1 = net.programs[0].output["t1"] if "t1" in net.programs[0].output else None
        depths = net.output_field("depth")
        tree_depth = net.programs[0].output["tree_depth"]
        # Collect actual census sends from the trace.
        census_sends = {}
        for event in buffer.by_kind("send"):
            if event["payload"][0] == "CEN":
                level = event["payload"][1]
                census_sends.setdefault((event["node"], level), event["round"])
        t1 = net.programs[0].output["t1"]
        for (node, level), round_sent in census_sends.items():
            expected = t1 + level + (tree_depth - depths[node])
            assert round_sent == expected, (node, level, round_sent, expected)

    def test_every_nonroot_sends_every_census(self):
        from repro.obs import TraceBuffer
        from repro.sim import Network

        g = random_tree(40, seed=10)
        k = 2
        buffer = TraceBuffer()
        net = Network(g)
        net.attach_subscriber(buffer)
        net.run(lambda ctx: DiamDOMProgram(ctx, 0, k))
        counts = {}
        for event in buffer.by_kind("send"):
            if event["payload"][0] == "CEN":
                counts[event["node"]] = counts.get(event["node"], 0) + 1
        for v in g.nodes:
            if v != 0:
                assert counts.get(v, 0) == k + 1, v
