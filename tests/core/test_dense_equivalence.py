"""The k-domination drivers on the trees their dense route was first
checked on: the tree rows of the route table (tests/differential/routes.py)
on broom, caterpillar, path, star and random trees."""

import pytest

from repro.graphs import random_tree

from ..differential.corpus import DENSE_TREES, rooted
from ..differential.errors import raises
from ..differential.routes import ROUTES, check

KS = [2, 4, 8]


class TestKdomTree:
    @pytest.mark.parametrize("label,factory", DENSE_TREES)
    @pytest.mark.parametrize("k", KS)
    def test_identical(self, label, factory, k):
        check(ROUTES["tree_kdominating_set"], rooted(factory(), 0, k))


class TestFastdomTree:
    @pytest.mark.parametrize("label,factory", DENSE_TREES)
    @pytest.mark.parametrize("k", KS)
    def test_identical(self, label, factory, k):
        check(ROUTES["fastdom_tree"], rooted(factory(), 0, k))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_trees_sweep(self, seed):
        tree = random_tree(60 + 5 * seed, seed=seed)
        for k in KS:
            check(ROUTES["fastdom_tree"], rooted(tree, 0, k))


class TestDomPartition:
    @pytest.mark.parametrize("label,factory", DENSE_TREES)
    @pytest.mark.parametrize("k", KS)
    def test_identical(self, label, factory, k):
        check(ROUTES["dom_partition"], rooted(factory(), 0, k))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", KS)
    def test_random_trees_sweep(self, seed, k):
        tree = random_tree(70 + 3 * seed, seed=100 + seed)
        check(ROUTES["dom_partition"], rooted(tree, 0, k))

    def test_unknown_backend_rejected(self, monkeypatch):
        raises("unknown-backend", monkeypatch)
