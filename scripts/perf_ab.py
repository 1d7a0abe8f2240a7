#!/usr/bin/env python3
"""Time this checkout against a base revision with the repository's
benchmark, on one machine, and fail on a regression.

Usage, from the repository root::

    python3 scripts/perf_ab.py BASE

``BASE`` is a git revision; CI passes the pull request's merge-base.
The script checks ``BASE`` out in a temporary git worktree, then runs
every perfbench workload in :data:`PAIRS` pairs of ``perfbench/run.py
--seconds SECONDS --record``, one run on each side, alternating which
side runs first.  Each pair runs from two fresh directories holding
``src/`` (the worktree's, or this checkout's) and this checkout's
``perfbench/`` and ``BENCHMARK.json``, so one harness times both
programs.  Fresh directories matter: the same code run from two fixed
directories read serve's p50 7–18 % apart, steadily, in whichever
direction the directories happened to fall (2-vCPU host), which a
fixed pair of directories turns into a bias.  The two sets of runs are
compared with ``perfbench.agree.compare``.

Exits 1 when an end-to-end metric is resolved and worse than the base
by more than its ``BENCHMARK.json`` bound, in the metric's ``better``
direction.  Improvements and unresolved metrics pass.  Differing exact
totals are printed but do not fail: a change may alter what a workload
computes.  The records stay in ``.perfbench/ab/``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.agree import compare, load  # noqa: E402

WORKLOADS = ("sweep", "serve", "dense")
#: Five pairs of 3-second runs of all three workloads take about five
#: minutes on a 2-vCPU runner.
PAIRS = 5
SECONDS = 3
SEED = 1


def judge(base_runs, head_runs, end_to_end):
    """``(lines, failures)`` for two sets of perfbench records: a table
    of every (workload, metric) pair, and one entry per metric that is
    resolved and worse on the head side beyond its bound."""
    better = {metric["name"]: metric["better"] for metric in end_to_end}
    rows, mismatched = compare(base_runs, head_runs, end_to_end)
    lines = [f"{'workload':<8} {'metric':<16} {'base q1/median/q3':>30} "
             f"{'head q1/median/q3':>30}  verdict"]
    failures = []
    for workload, name, base, head, verdict in rows:
        if verdict == "DISAGREE":
            lower = head[1] < base[1]
            verdict = "worse" if lower == (better[name] == "higher") else "better"
        if verdict == "worse":
            failures.append(f"{workload} {name}")
        lines.append(
            f"{workload:<8} {name:<16} {'/'.join(f'{v:.4g}' for v in base):>30} "
            f"{'/'.join(f'{v:.4g}' for v in head):>30}  {verdict}"
        )
    sides = ({run["workload"] for run in base_runs}, {run["workload"] for run in head_runs})
    for workload in sorted(sides[0] ^ sides[1]):
        side = "base" if workload in sides[0] else "head"
        lines.append(f"{workload}: runs on the {side} side only, not compared")
    for key in mismatched:
        lines.append(f"totals differ for {key} (reported, not a failure)")
    return lines, failures


def prepare(root, source):
    """Make ``root`` a fresh directory with ``source``'s program and
    this checkout's benchmark."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(os.path.join(source, "src"), os.path.join(root, "src"), ignore=ignore)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(root, "perfbench"),
                    ignore=ignore)
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), root)


def run(root, workload, record):
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--record", record],
        cwd=root, stdout=subprocess.DEVNULL, check=True,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare this checkout against")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    out = os.path.join(ROOT, ".perfbench", "ab")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    records = {"base": os.path.join(out, "base.jsonl"), "head": os.path.join(out, "head.jsonl")}
    scratch = tempfile.mkdtemp(prefix="perf-ab-")
    worktree = os.path.join(scratch, "worktree")
    subprocess.run(["git", "worktree", "add", "--detach", worktree, args.base],
                   cwd=ROOT, check=True)
    try:
        sources = {"base": worktree, "head": ROOT}
        for pair in range(PAIRS):
            roots = {side: os.path.join(scratch, f"pair{pair}", side) for side in sources}
            for side, root in roots.items():
                prepare(root, sources[side])
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for workload in WORKLOADS:
                print(f"pair {pair + 1}/{PAIRS} {workload}: {order[0]} first", flush=True)
                for side in order:
                    run(roots[side], workload, records[side])
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree], cwd=ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    lines, failures = judge(load(records["base"]), load(records["head"]), end_to_end)
    print("\n".join(lines))
    if failures:
        print(f"REGRESSION against {args.base}: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"no end-to-end metric is worse than {args.base} beyond its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
