"""``repro serve`` with the benchmark's timing wrappers installed.

Usage (from the repository root)::

    python3 perfbench/serve_traced.py TRACE_DIR [repro serve options]

Installs the wrappers of :mod:`perfbench.tracing`, then runs the server
exactly as ``repro serve`` would with the same options (the CLI parser
supplies its defaults and ``cmd_serve`` calls ``run_server``).  When
the server drains, this process writes its spans to
``TRACE_DIR/server-<pid>.jsonl``; its pool workers, forked from it,
write their own after every task.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))


def main(argv):
    from perfbench import tracing

    recorder = tracing.Recorder(argv[0])
    tracing.install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve"] + argv[1:])
    finally:
        recorder.dump("server")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
