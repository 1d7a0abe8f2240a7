"""Sweep runner: grid order, backends, checkpoint/resume, determinism.

The central contract (ISSUE satellite): the same grid run under the
inline backend and under the process backend — at any worker count —
must produce byte-identical finalized stores and identical merged
metrics.
"""

import json

import pytest

from repro.batch import (
    GraphCache,
    StoreError,
    SweepCell,
    SweepGrid,
    SweepStore,
    fast_grid,
    run_cell,
    run_sweep,
)
from repro.batch.registry import iter_workloads
from repro.batch.sweep import SweepCellError

#: The workloads repro.batch.sweep registers itself.
BUILT_IN = sorted(
    w.name for w in iter_workloads() if w.fn.__module__ == "repro.batch.sweep"
)

GRID = SweepGrid(
    workload="kdom",
    specs=("tree:n=24", "random:n=20,p=0.25"),
    seeds=(0, 1),
    ks=(2, 3),
)


class TestGrid:
    def test_cell_order_is_spec_major(self):
        cells = GRID.cells()
        assert len(cells) == 8
        assert [(c.spec, c.seed, c.k) for c in cells[:4]] == [
            ("tree:n=24", 0, 2),
            ("tree:n=24", 0, 3),
            ("tree:n=24", 1, 2),
            ("tree:n=24", 1, 3),
        ]
        assert all(c.spec == "random:n=20,p=0.25" for c in cells[4:])

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            SweepGrid("nope", ("tree:n=8",), (0,), (2,))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SweepGrid("kdom", ("tree:n=8",), (), (2,))

    def test_fast_grid_shape(self):
        grid = fast_grid()
        assert len(grid.cells()) == 8
        assert grid.meta()["cells"] == 8

    @pytest.mark.parametrize("workload", BUILT_IN)
    def test_fast_grid_runs_for_every_built_in_workload(self, workload):
        """``repro sweep --fast --workload W``: the tree-only workloads
        get tree specs, so no cell fails on its graph."""
        if workload == "kdom-dense":
            pytest.importorskip("numpy")
        summary = run_sweep(fast_grid(workload), backend="inline")
        assert (summary.ran, summary.complete) == (8, True)
        assert all("error" not in row for row in summary.rows)


class TestRunCell:
    def test_kdom_cell_is_deterministic(self):
        cell = SweepCell("kdom", "random:n=20,p=0.25", 1, 2, verify=True)
        a, b = run_cell(cell), run_cell(cell)
        assert a == b
        assert a["result"]["ok"]
        assert a["result"]["dominators"] <= a["result"]["bound"]

    def test_partition_cell(self):
        cell = SweepCell("partition", "tree:n=24", 0, 3, verify=True)
        row = run_cell(cell)
        assert row["result"]["ok"]
        assert row["result"]["min_size"] >= 4

    def test_mst_cell(self):
        cell = SweepCell("mst", "random:n=20,p=0.25", 0, 4, verify=True)
        row = run_cell(cell)
        assert row["result"]["ok"]
        assert row["result"]["mst_edges"] == row["result"]["n"] - 1

    def test_rows_are_json_safe(self):
        row = run_cell(SweepCell("kdom", "tree:n=24", 0, 2))
        assert json.loads(json.dumps(row)) == row

    def test_kdom_dense_cell_matches_reference_engine(self):
        pytest.importorskip("numpy")
        from repro.core import tree_kdominating_set
        from repro.graphs import RootedTree

        cell = SweepCell("kdom-dense", "tree:n=24", 0, 2, verify=True)
        a, b = run_cell(cell), run_cell(cell)
        assert a == b
        assert a["result"]["ok"]
        assert json.loads(json.dumps(a)) == a
        # The dense row must be the reference computation, byte for
        # byte: same dominator count, rounds, and stage breakdown.
        graph = GraphCache().get("tree:n=24", 0, weighted=False)
        root = min(graph.nodes, key=str)
        rooted = RootedTree.from_graph(graph, root)
        dominators, partition, staged = tree_kdominating_set(
            graph, root, rooted.parent, 2
        )
        assert a["result"]["dominators"] == len(dominators)
        assert a["result"]["clusters"] == partition.num_clusters
        assert a["result"]["rounds"] == staged.total_rounds
        assert a["result"]["breakdown"] == staged.breakdown()

    def test_cache_reused_across_cells(self):
        cache = GraphCache()
        run_cell(SweepCell("kdom", "tree:n=24", 0, 2), cache)
        run_cell(SweepCell("kdom", "tree:n=24", 0, 3), cache)
        assert cache.misses == 1
        assert cache.hits == 1


class TestRunSweep:
    def test_inline_in_memory(self):
        summary = run_sweep(GRID, backend="inline")
        assert summary.complete
        assert summary.ran == 8
        assert summary.skipped == 0
        assert len(summary.rows) == 8
        assert summary.merged.traffic.messages > 0

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            run_sweep(GRID, backend="threads")

    def test_byte_identical_stores_across_backends(self, tmp_path):
        """Satellite 4: inline and process (any worker count) sweeps of
        the same grid finalize to byte-identical JSONL stores."""
        reference = tmp_path / "inline.jsonl"
        run_sweep(GRID, store_path=str(reference), backend="inline")
        baseline = reference.read_bytes()
        for workers in (1, 2, 3):
            path = tmp_path / f"proc{workers}.jsonl"
            summary = run_sweep(
                GRID,
                store_path=str(path),
                backend="process",
                workers=workers,
            )
            assert summary.complete
            assert path.read_bytes() == baseline

    def test_merged_metrics_match_across_backends(self):
        inline = run_sweep(GRID, backend="inline")
        proc = run_sweep(GRID, backend="process", workers=2)
        assert proc.merged.to_dict() == inline.merged.to_dict()

    def test_resume_skips_completed_cells(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        run_sweep(GRID, store_path=path)
        again = run_sweep(GRID, store_path=path)
        assert again.ran == 0
        assert again.skipped == 8
        assert again.complete

    def test_resume_after_interrupt_runs_only_missing(self, tmp_path):
        path = tmp_path / "s.jsonl"
        partial = run_sweep(GRID, store_path=str(path), max_cells=3)
        assert partial.ran == 3
        assert not partial.complete
        resumed = run_sweep(GRID, store_path=str(path), backend="process",
                            workers=2)
        assert resumed.ran == 5
        assert resumed.skipped == 3
        assert resumed.complete
        # The stitched-together store equals a single-shot run's store.
        whole = tmp_path / "whole.jsonl"
        run_sweep(GRID, store_path=str(whole))
        assert path.read_bytes() == whole.read_bytes()

    def test_resume_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        run_sweep(GRID, store_path=str(path), max_cells=2)
        with open(path, "a") as handle:
            handle.write('{"cell": {"workloa')  # killed mid-append
        resumed = run_sweep(GRID, store_path=str(path))
        assert resumed.skipped == 2
        assert resumed.complete

    def test_grid_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        run_sweep(GRID, store_path=path, max_cells=1)
        other = SweepGrid("kdom", GRID.specs, GRID.seeds, (2, 5))
        with pytest.raises(StoreError, match="different grid"):
            run_sweep(other, store_path=path)

    def test_no_resume_overwrites(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        run_sweep(GRID, store_path=path, max_cells=1)
        other = SweepGrid("kdom", GRID.specs, GRID.seeds, (2, 5))
        fresh = run_sweep(other, store_path=path, resume=False)
        assert fresh.complete
        meta, rows = SweepStore(path).load()
        assert meta["ks"] == [2, 5]
        assert len(rows) == 8

    def test_failing_cell_keeps_checkpoints(self, tmp_path, monkeypatch):
        from dataclasses import replace

        import repro.batch.registry as registry

        real = registry.get_workload("kdom")
        calls = {"n": 0}

        def flaky(graph, cell):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("simulated crash")
            return real.fn(graph, cell)

        monkeypatch.setitem(
            registry._REGISTRY, "kdom", replace(real, fn=flaky)
        )
        path = tmp_path / "s.jsonl"
        with pytest.raises(SweepCellError):
            run_sweep(GRID, store_path=str(path))
        _meta, rows = SweepStore(str(path)).load()
        assert len(rows) == 3  # everything finished before the crash survived
        monkeypatch.undo()
        resumed = run_sweep(GRID, store_path=str(path))
        assert resumed.skipped == 3
        assert resumed.complete

    def test_echo_reports_each_cell(self):
        lines = []
        summary = run_sweep(GRID, max_cells=2, echo=lines.append)
        assert summary.ran == 2
        assert len(lines) == 2
        assert "rounds=" in lines[0]
