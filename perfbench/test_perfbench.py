"""Self-tests of the benchmark's arithmetic: ``python3 -m pytest perfbench``."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import agree, hostspeed, tracing  # noqa: E402
from perfbench.stats import (  # noqa: E402
    nearest_rank,
    quartiles,
    samples_needed,
    self_times,
    spread,
    tail,
)


def test_p99_needs_a_thousand_samples_for_ten_beyond():
    assert samples_needed(0.99) == 1000
    assert samples_needed(0.5) == 20


def test_tail_counts_samples_strictly_beyond():
    value, beyond, resolved = tail(list(range(1, 1001)), 0.99)
    assert (value, beyond, resolved) == (990, 10, True)
    value, beyond, resolved = tail(list(range(1, 1000)), 0.99)
    assert (value, beyond, resolved) == (990, 9, False)
    # Ties at the percentile do not count as beyond it.
    assert tail([5.0] * 2000, 0.99) == (5.0, 0, False)


def test_nearest_rank():
    assert nearest_rank([1, 2, 3, 4], 0.5) == 2
    assert nearest_rank([1, 2, 3, 4], 0.75) == 3
    assert nearest_rank([7], 0.99) == 7


def test_spread_is_interquartile_over_median():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    q1, median, q3 = quartiles(values)
    assert median == 5.5
    assert spread(values) == (q3 - q1) / 5.5


def test_self_time_subtracts_children_on_the_same_thread():
    spans = [
        (0.0, 10.0, -1, 1),  # root
        (1.0, 4.0, 0, 1),    # child
        (2.0, 3.0, 1, 1),    # grandchild
        (3.5, 6.0, 0, 1),    # child overlapping the first one
        (5.0, 20.0, 0, 2),   # callback on another thread: not inside root
    ]
    assert self_times(spans) == [10.0 - 5.0, 3.0 - 1.0, 1.0, 2.5, 15.0]


def test_self_time_clips_children_to_the_parent():
    assert self_times([(0.0, 2.0, -1, 1), (1.0, 5.0, 0, 1)]) == [1.0, 4.0]


def test_span_table_roots_and_layer_sums_add_back_up():
    table = tracing.SpanTable()
    table.add([
        [tracing.OP_SPAN, 0.0, 10.0, -1, 1, None],
        ["core.fastdom_tree", 1.0, 9.0, 0, 1, None],
        ["sim.dense.csr_build", 2.0, 4.0, 1, 1, {"bytes": 8}],
        ["sim.dense.wave", 5.0, 6.0, 1, 1, {"bytes_in": 16}],
        ["serve.resolve", 7.0, 8.0, 1, 2, None],
    ], pid=1)
    roots = [row[5] for row in table.rows]
    assert roots == [tracing.OP_SPAN] * 4 + ["serve.resolve"]
    layers = table.layer_self()
    assert layers["core"] == 5.0 and layers["sim.dense"] == 3.0
    out = tracing.attribute_dense(table, ops=1, rounds=0, messages=0)
    shares = sum(out[f"share.{layer}"] for layer in tracing.LAYERS)
    assert abs(shares - 1.0) < 1e-12
    assert out["share.unattributed"] == 0.2  # the op's own 2 of 10


def test_every_per_layer_metric_is_listed_in_benchmark_json():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        listed = [m["name"] for m in json.load(handle)["per_layer"]]
    assert sorted(listed) == sorted(tracing.per_layer_names())


def test_host_speed_scales_each_slice_by_the_probes_around_it(monkeypatch):
    probes = iter([0.020, 0.030, 0.050, 0.010, 0.030, 0.040, 0.020])
    monkeypatch.setattr(hostspeed, "probe_s", lambda each_cpu: next(probes))
    speed = hostspeed.HostSpeed()
    speed.mark()
    speed.mark()
    assert speed.scale(0) == hostspeed.PROBE_REF_S / 0.025
    assert speed.scale(1) == hostspeed.PROBE_REF_S / 0.040
    # Three samples of 1 s between probes 0.010, 0.030, 0.040, 0.020:
    # scaled by REF / 0.020, REF / 0.035 and REF / 0.030.
    median = hostspeed.scaled_median(lambda: 1.0, 3)
    assert median == hostspeed.PROBE_REF_S / 0.030


def test_agreement_verdicts():
    assert agree.verdict([10.0] * 4 + [10.1] * 6, [10.2] * 10, 0.05) == "agree"
    assert agree.verdict([10.0] * 10, [12.0] * 10, 0.05) == "DISAGREE"
    assert agree.verdict([5.0, 10.0, 15.0, 20.0] * 3, [10.0] * 12, 0.05) == "unresolved"
