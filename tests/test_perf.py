"""Perf smoke harness mechanics (repro.perf): workload selection,
report comparison, the ratio gate, and the v3 schema contract.

The timing numbers themselves are exercised by CI's perf-smoke job;
here we pin the *logic* — filters, the ratio rule and its messages —
on synthetic reports."""

import json

import pytest

from repro import perf


class TestSelectWorkloads:
    def test_none_selects_everything_in_order(self):
        assert list(perf.select_workloads(None)) == list(perf.WORKLOADS)
        assert list(perf.select_workloads([])) == list(perf.WORKLOADS)

    def test_filter_preserves_suite_order(self):
        names = list(perf.WORKLOADS)
        picked = perf.select_workloads([names[2], names[0]])
        assert list(picked) == [names[0], names[2]]

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="unknown workload"):
            perf.select_workloads(["nope"])
        with pytest.raises(ValueError, match="bfs_path"):
            perf.select_workloads(["nope"])

    def test_dense_workloads_are_registered(self):
        # ISSUE 7: the large-n dense workloads live in the suite with a
        # per-workload backend tag.
        assert perf.WORKLOADS["fastdom_dense"][3] == "dense"
        assert perf.WORKLOADS["bfs_grid_dense"][3] == "dense"
        assert perf.WORKLOADS["bfs_path"][3] == "reference"
        # The fast-mode dense FastDOM workload is the n=10^5 acceptance
        # run; full mode is the million-node row.
        assert perf.WORKLOADS["fastdom_dense"][1]["n"] == 1_000_000
        assert perf.WORKLOADS["fastdom_dense"][2]["n"] == 100_000


def report(mode="fast", **workloads):
    return {
        "schema": perf.SCHEMA,
        "mode": mode,
        "workloads": {
            name: {"best_seconds": best, "backend": backend}
            for name, (best, backend) in workloads.items()
        },
    }


class TestCompareReports:
    def test_speedup_table(self):
        old = report(a=(2.0, "reference"), b=(1.0, "reference"))
        new = report(a=(1.0, "reference"), b=(2.0, "reference"))
        lines = perf.compare_reports(old, new)
        assert any("a" in ln and "2.00x" in ln for ln in lines)
        assert any("b" in ln and "0.50x" in ln for ln in lines)

    def test_one_sided_workloads_marked(self):
        old = report(gone_one=(1.0, "reference"))
        new = report(new_one=(1.0, "dense"))
        text = "\n".join(perf.compare_reports(old, new))
        assert "gone" in text and "new" in text

    def test_mode_mismatch_noted_first(self):
        lines = perf.compare_reports(report(mode="full"), report(mode="fast"))
        assert lines[0].startswith("note: comparing mode='full'")


def ratios(**values):
    return {name.replace("__", "."): {"ratio": ratio}
            for name, ratio in values.items()}


class TestGates:
    def test_regression_detected(self):
        # One failure per ratio outside its band, naming the ratio and
        # the bound it crossed.
        doc = report()
        doc["ratios"] = ratios(
            dense__fastdom_tree=1.1, obs__bfs_path=9.0, obs__bfs_grid=1.5
        )
        failures = perf.check_ratios(doc)
        assert failures == [
            "dense.fastdom_tree: 1.10x below its floor 2.00x",
            "obs.bfs_path: 9.00x above its ceiling "
            f"{perf.RATIO_BOUNDS['obs.bfs_path'][1]:.2f}x",
        ]

    def test_ratio_missing_from_report_is_skipped(self):
        # A numpy-less run measures no dense ratio; the rest still gate.
        doc = report()
        doc["ratios"] = ratios(obs__bfs_grid=1.5)
        assert perf.check_ratios(doc) == []

    def test_every_measured_ratio_has_a_band(self):
        assert set(perf.RATIOS) == set(perf.RATIO_BOUNDS)
        for floor, ceiling in perf.RATIO_BOUNDS.values():
            assert floor is None or ceiling is None or floor < ceiling


class TestMainGateRules:
    def run_main(self, tmp_path, monkeypatch, **kwargs):
        monkeypatch.chdir(tmp_path)
        return perf.main(
            fast=True,
            reps=1,
            output=str(tmp_path / "out.json"),
            workload=["bfs_path"],
            **kwargs,
        )

    def test_unknown_workload_exits_2(self, capsys):
        assert perf.main(workload=["nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_workload_run_has_no_ratio_gate(self, tmp_path, monkeypatch):
        def unreachable(**kwargs):  # pragma: no cover - the filter skips it
            raise AssertionError("a --workload run measured the ratios")

        monkeypatch.setattr(perf, "measure_ratios", unreachable)
        assert self.run_main(tmp_path, monkeypatch) == 0
        written = json.loads((tmp_path / "out.json").read_text())
        assert "ratios" not in written

    def test_ratio_outside_bound_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(perf, "run_suite", lambda **kwargs: report())
        monkeypatch.setattr(
            perf,
            "measure_ratios",
            lambda **kwargs: ratios(telemetry__sweep_kdom=3.0),
        )
        assert perf.main(output=str(tmp_path / "out.json"), history=None) == 1
        assert "REGRESSION  telemetry.sweep_kdom: 3.00x above its ceiling" in (
            capsys.readouterr().err
        )

    def test_report_carries_schema_and_backend(self, tmp_path, monkeypatch):
        self.run_main(tmp_path, monkeypatch)
        written = json.loads((tmp_path / "out.json").read_text())
        assert written["schema"] == perf.SCHEMA == "repro-perf-smoke/3"
        assert written["workloads"]["bfs_path"]["backend"] == "reference"

    def test_compare_prints_table(self, tmp_path, monkeypatch, capsys):
        old = report(bfs_path=(1.0, "reference"))
        (tmp_path / "old.json").write_text(json.dumps(old))
        self.run_main(
            tmp_path,
            monkeypatch,
            compare=str(tmp_path / "old.json"),
        )
        out = capsys.readouterr().out
        assert "workload" in out and "speedup" in out


class TestTelemetryGate:
    def current(self, ratio):
        doc = report()
        doc["ratios"] = ratios(telemetry__sweep_kdom=ratio)
        return doc

    def test_within_factor_passes(self):
        assert perf.check_ratios(self.current(1.04)) == []

    def test_disabled_path_regression_fails(self):
        # A sweep with telemetry off that runs slower than with it on
        # reads below the floor.
        floor = perf.RATIO_BOUNDS["telemetry.sweep_kdom"][0]
        failures = perf.check_ratios(self.current(floor - 0.1))
        assert failures == [
            f"telemetry.sweep_kdom: {floor - 0.1:.2f}x below its floor "
            f"{floor:.2f}x"
        ]


class TestHistory:
    def test_append_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        doc = report(a=(2.0, "reference"))
        doc["ratios"] = ratios(dense__fastdom_tree=10.0)
        perf.append_history(doc, path)
        perf.append_history(report(a=(1.0, "reference")), path)
        entries, problems = perf.load_history(path)
        assert problems == []
        assert [e["workloads"]["a"] for e in entries] == [2.0, 1.0]
        assert entries[0]["dense_speedup"] == 10.0
        assert entries[1]["dense_speedup"] is None
        assert all(e["schema"] == perf.HISTORY_SCHEMA for e in entries)

    def test_load_skips_bad_lines_with_problems(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = json.dumps(
            {"schema": perf.HISTORY_SCHEMA, "mode": "fast",
             "workloads": {"a": 1.0}}
        )
        path.write_text(good + "\n{broken\n" + '{"schema":"other/1"}\n')
        entries, problems = perf.load_history(str(path))
        assert len(entries) == 1
        assert len(problems) == 2
        assert "unparsable" in problems[0]

    def test_missing_file_is_empty(self, tmp_path):
        assert perf.load_history(str(tmp_path / "nope")) == ([], [])


class TestTrajectory:
    def entries(self, *bests, mode="fast"):
        return [
            {"schema": perf.HISTORY_SCHEMA, "mode": mode,
             "workloads": {"sweep_kdom": best}, "dense_speedup": None}
            for best in bests
        ]

    def test_trend_and_ramp(self):
        lines = perf.perf_trajectory(
            self.entries(2.0, 1.5, 1.0), source="BENCH_history.jsonl"
        )
        assert lines[0] == (
            "perf trajectory: 3 recorded run(s) from BENCH_history.jsonl"
        )
        assert any("mode fast: 3 run(s)" in line for line in lines)
        row = next(line for line in lines if "sweep_kdom" in line)
        assert "2.00x faster" in row
        assert row.rstrip().endswith("@+.")  # slowest first, fastest last

    def test_modes_render_separately(self):
        lines = perf.perf_trajectory(
            self.entries(1.0) + self.entries(5.0, mode="full")
        )
        assert any("mode fast: 1 run(s)" in line for line in lines)
        assert any("mode full: 1 run(s)" in line for line in lines)
