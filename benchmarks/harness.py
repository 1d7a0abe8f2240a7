"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one claim table (EXPERIMENTS.md records the
outcomes).  Tables are printed to stdout and appended to
``benchmarks/results/<experiment>.txt`` so that
``pytest benchmarks/ --benchmark-only`` leaves a full record on disk
even with captured output.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.analysis import banner, format_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit(experiment: str, title: str, headers: Sequence[str], rows) -> str:
    """Render, print, and persist one claim table."""
    text = banner(f"{experiment}: {title}") + "\n" + format_table(headers, rows)
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "a") as handle:
        handle.write(text + "\n")
    return text


def note(experiment: str, message: str) -> None:
    print(f"[{experiment}] {message}")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{experiment}.txt"), "a") as handle:
        handle.write(f"[{experiment}] {message}\n")


def run_once(benchmark, fn):
    """Run a deterministic simulation exactly once under pytest-benchmark.

    The simulations are deterministic and individually heavy; repeated
    timing adds nothing, so one round/iteration is the right contract.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
