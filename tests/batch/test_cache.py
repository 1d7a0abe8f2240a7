"""GraphCache: one generation per (spec, seed, weighted), within a
node budget, in one instance per worker process."""

import pytest

from repro.batch import GraphCache
from repro.batch import cache as cache_module
from repro.batch.cache import worker_graph_cache
from repro.batch.dispatch import parallel_task, run_parallel_task
from repro.batch.sweep import SweepCell, _process_cell
from repro.graphs import GraphSpecError, has_unique_weights, parse_graph_spec
from repro.primitives.flooding import FloodProgram
from repro.sim import Network


class TestGraphCache:
    def test_same_key_same_object(self):
        cache = GraphCache()
        a = cache.get("tree:n=12", 0)
        b = cache.get("tree:n=12", 0)
        assert a is b
        assert cache.misses == 1
        assert cache.hits == 1

    def test_distinct_seeds_distinct_entries(self):
        cache = GraphCache()
        cache.get("tree:n=12", 0)
        cache.get("tree:n=12", 1)
        assert len(cache) == 2
        assert cache.misses == 2

    def test_weighted_is_a_separate_entry(self):
        cache = GraphCache()
        plain = cache.get("tree:n=12", 0)
        weighted = cache.get("tree:n=12", 0, weighted=True)
        assert plain is not weighted
        assert has_unique_weights(weighted)
        assert len(cache) == 2

    def test_weighted_generation_is_deterministic(self):
        a = GraphCache().get("random:n=20,p=0.3", 5, weighted=True)
        b = GraphCache().get("random:n=20,p=0.3", 5, weighted=True)
        assert sorted(a.edges()) == sorted(b.edges())
        assert all(a.weight(u, v) == b.weight(u, v) for u, v in a.edges())

    def test_bad_spec_propagates(self):
        with pytest.raises(GraphSpecError):
            GraphCache().get("nosuch:n=4", 0)


@pytest.fixture
def small_budget(monkeypatch):
    """A 30-node budget: two 12-node trees fit, a third does not."""
    monkeypatch.setattr(cache_module, "NODE_BUDGET", 30)


class TestNodeBudget:
    def test_evicts_least_recently_used_past_the_budget(self, small_budget):
        cache = GraphCache()
        first = cache.get("tree:n=12", 0)
        cache.get("tree:n=12", 1)
        cache.get("tree:n=12", 2)  # 36 nodes: seed 0 goes
        assert (len(cache), cache.nodes, cache.evictions) == (2, 24, 1)
        cache.get("tree:n=12", 3)  # then seed 1, the oldest left
        assert cache.evictions == 2
        cache.get("tree:n=12", 2)
        assert cache.hits == 1  # seed 2 survived both evictions
        assert cache.get("tree:n=12", 0) is not first  # regenerated
        assert cache.misses == 5

    def test_hit_refreshes_recency(self, small_budget):
        cache = GraphCache()
        first = cache.get("tree:n=12", 0)
        second = cache.get("tree:n=12", 1)
        assert cache.get("tree:n=12", 0) is first  # seed 0 now newest
        cache.get("tree:n=12", 2)  # evicts seed 1, not seed 0
        assert cache.get("tree:n=12", 0) is first
        assert cache.get("tree:n=12", 1) is not second
        assert cache.evictions == 2

    def test_graph_over_the_budget_is_still_cached(self, small_budget):
        cache = GraphCache()
        cache.get("tree:n=12", 0)
        big = cache.get("tree:n=40", 0)
        assert (len(cache), cache.nodes, cache.evictions) == (1, 40, 1)
        assert cache.get("tree:n=40", 0) is big
        assert cache.hits == 1


class TestWorkerCache:
    def test_sweep_cells_and_dispatched_runs_share_one_cache(self):
        cache = worker_graph_cache()
        assert worker_graph_cache() is cache
        _process_cell((SweepCell("partition", "tree:n=24", 7, 2), None, None))
        hits = cache.hits
        network = Network(parse_graph_spec("tree:n=24", seed=7))
        task = parallel_task(
            network, lambda ctx: FloodProgram(ctx, 0, value=1), 100
        )
        run_parallel_task(task)
        assert cache.hits == hits + 1
