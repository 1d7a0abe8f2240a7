"""Procedure Pipeline's direct route against its engine route.

Unobserved, :func:`run_pipeline` takes its BFS tree from the direct BFS
and steps each node's pulses over per-node state instead of simulating
:class:`PipelineProgram`.  These tests run the ``run_pipeline`` row of
the route table (tests/differential/routes.py) on its families, and its
rows of the error table.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import assign_unique_weights, grid_graph
from repro.mst import run_pipeline

from ..differential.corpus import (
    PERFBENCH,
    PIPELINE_SHAPES,
    fragment_maps,
    perfbench,
    pipeline_inputs,
)
from ..differential.errors import raises
from ..differential.routes import ROUTES, check, compare, engine

ROW = ROUTES["run_pipeline"]


@pytest.mark.parametrize("spec", [s for s in PERFBENCH if "mst" in PERFBENCH[s]])
def test_perfbench_graphs(spec):
    for args in perfbench(spec)["pipeline"]:
        check(ROW, args)


@settings(max_examples=40, deadline=None)
@given(pipeline_inputs())
def test_weighted_graph_family(args):
    check(ROW, args)


@settings(max_examples=8, deadline=None)
@given(st.data())
@pytest.mark.parametrize("shape", PIPELINE_SHAPES)
def test_paths_stars_and_grids(shape, data):
    graph = assign_unique_weights(PIPELINE_SHAPES[shape](), seed=len(shape))
    root = data.draw(st.sampled_from(sorted(graph.nodes)))
    check(ROW, (graph, data.draw(fragment_maps(graph)), root, data.draw(st.booleans())))


@pytest.mark.parametrize("case", ["pipeline-word-limit", "pipeline-long-fragment-id"])
def test_inputs_outside_the_port_raise_engine_errors(case, monkeypatch):
    raises(case, monkeypatch)


def test_nan_weight_runs_the_engine():
    # NaN orders one way in the program's sorted Q and another in a heap.
    graph = assign_unique_weights(grid_graph(3, 3), seed=1)
    graph.set_weight(0, 1, math.nan)
    args = (graph, {v: v for v in graph.nodes}, None, True)
    compare(ROW, "direct", ROW.outputs(run_pipeline(*args)), engine(ROW, args))
