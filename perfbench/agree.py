"""Do two sets of benchmark runs of one commit agree?

Usage, from the repository root::

    python3 perfbench/agree.py A.jsonl B.jsonl

Each file holds runs written by ``perfbench/run.py --record FILE``.
For every (workload, end-to-end metric) pair it prints both medians and
quartiles and whether the medians agree within the metric's bound from
``BENCHMARK.json``.  A pair where either set's spread (inter-quartile
distance over median) exceeds the bound is ``unresolved``: the runs are
too noisy to tell.  Runs of the same workload, seed and length must have
identical exact totals across both files.  Exits 1 when any pair
disagrees or any totals differ.
"""

import json
import os
import sys
from collections import defaultdict

sys.path[0] = os.getcwd()

from perfbench.stats import quartiles, spread  # noqa: E402


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def verdict(a, b, bound):
    """``agree``, ``DISAGREE`` or ``unresolved`` for two samples."""
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    return "agree" if abs(med_b - med_a) <= bound * abs(med_a) else "DISAGREE"


def compare(runs_a, runs_b, end_to_end):
    """Rows ``(workload, metric, stats_a, stats_b, verdict)`` and the
    list of (workload, seed, seconds) whose totals differ."""
    values = defaultdict(lambda: ([], []))
    totals = defaultdict(set)
    for side, runs in enumerate((runs_a, runs_b)):
        for run in runs:
            totals[(run["workload"], run["seed"], run["seconds"])].add(run["totals"])
            if run["trace"]:
                continue
            for metric in end_to_end:
                name = metric["name"]
                values[(run["workload"], name)][side].append(run["result"]["metrics"][name]["value"])
    rows = []
    for metric in end_to_end:
        for (workload, name), (a, b) in sorted(values.items()):
            if name == metric["name"] and a and b:
                rows.append((workload, name, quartiles(a), quartiles(b),
                             verdict(a, b, metric["bound"])))
    mismatched = sorted(key for key, digests in totals.items() if len(digests) > 1)
    return rows, mismatched


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    rows, mismatched = compare(load(argv[0]), load(argv[1]), end_to_end)
    print(f"{'workload':<8} {'metric':<16} {'A q1/median/q3':>30} {'B q1/median/q3':>30}  verdict")
    for workload, name, qa, qb, result in rows:
        fa = "/".join(f"{v:.4g}" for v in qa)
        fb = "/".join(f"{v:.4g}" for v in qb)
        print(f"{workload:<8} {name:<16} {fa:>30} {fb:>30}  {result}")
    for key in mismatched:
        print(f"totals differ for {key}")
    bad = mismatched or any(row[4] == "DISAGREE" for row in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
