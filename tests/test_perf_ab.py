"""The verdict of ``scripts/perf_ab.py`` on synthetic perfbench records.

The A/B runs themselves take minutes and run in CI's ``perf-ab`` job;
here we pin the rule that turns two record files into a pass or a
failure."""

import importlib.util
import json
import os

from perfbench.agree import load

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "perf_ab", os.path.join(ROOT, "scripts", "perf_ab.py")
)
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)

END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
]


def records(path, workload, ops, latency=None):
    """Write one perfbench record per value; return what ``load`` reads."""
    latency = latency or [1.0] * len(ops)
    with open(path, "a") as handle:
        for value, ms in zip(ops, latency):
            handle.write(json.dumps({
                "workload": workload, "seed": 1, "seconds": 3, "trace": 0,
                "totals": "same",
                "result": {"metrics": {
                    "ops_per_s": {"value": value, "unit": "ops/s"},
                    "latency_p50_ms": {"value": ms, "unit": "ms"},
                }},
            }) + "\n")
    return load(path)


def verdict(tmp_path, base, head):
    return perf_ab.judge(
        records(tmp_path / "base.jsonl", "sweep", *base),
        records(tmp_path / "head.jsonl", "sweep", *head),
        END_TO_END,
    )


class TestVerdict:
    def test_resolved_worse_beyond_bound_fails(self, tmp_path):
        lines, failures = verdict(
            tmp_path, ([100.0] * 5, [1.0] * 5), ([60.0] * 5, [1.4] * 5)
        )
        assert failures == ["sweep ops_per_s", "sweep latency_p50_ms"]
        assert any("ops_per_s" in line and line.endswith("worse")
                   for line in lines)

    def test_better_by_the_same_amount_passes(self, tmp_path):
        lines, failures = verdict(
            tmp_path, ([100.0] * 5, [1.0] * 5), ([140.0] * 5, [0.6] * 5)
        )
        assert failures == []
        assert sum(line.endswith("better") for line in lines) == 2

    def test_within_bound_passes(self, tmp_path):
        _lines, failures = verdict(
            tmp_path, ([100.0] * 5,), ([80.0] * 5,)
        )
        assert failures == []

    def test_unresolved_metric_passes(self, tmp_path):
        lines, failures = verdict(
            tmp_path, ([50.0, 100.0, 150.0, 200.0, 250.0],), ([60.0] * 5,)
        )
        assert failures == []
        assert any("ops_per_s" in line and line.endswith("unresolved")
                   for line in lines)

    def test_workload_on_one_side_is_reported(self, tmp_path):
        base = records(tmp_path / "base.jsonl", "sweep", [100.0] * 5)
        base += records(tmp_path / "dense.jsonl", "dense", [100.0] * 5)
        head = records(tmp_path / "head.jsonl", "sweep", [100.0] * 5)
        lines, failures = perf_ab.judge(base, head, END_TO_END)
        assert failures == []
        assert "dense: runs on the base side only, not compared" in lines
