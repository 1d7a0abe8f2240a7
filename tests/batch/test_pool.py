"""Process-pool plumbing: ordering, failure transport, worker sizing,
and crash recovery on the pool-less route."""

import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.batch import SharedPool, resolve_workers
from repro.batch.pool import imap_completion_order


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"bad cell {x}")
    return x * 10


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("nope")
        self.handle = lambda: None  # lambdas do not pickle


def _raise_unpicklable(_x):
    raise _Unpicklable()


class TestResolveWorkers:
    def test_default_is_cpu_count(self):
        assert resolve_workers(None) >= 1

    def test_explicit(self):
        assert resolve_workers(3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestMapSubmissionOrder:
    """``SharedPool.map``: once every task is in, the first failure in
    submission order is re-raised."""

    def test_first_failure_reraised(self):
        with SharedPool(workers=2) as pool:
            with pytest.raises(ValueError, match="bad cell 3"):
                pool.map(_fail_on_three, [1, 2, 3, 4])

    def test_unpicklable_exception_transported(self):
        # An exception that cannot cross the process boundary must come
        # back as a faithful stand-in, not hang or kill the pool.
        with SharedPool(workers=2) as pool:
            with pytest.raises(RuntimeError, match="_Unpicklable"):
                pool.map(_raise_unpicklable, [1, 2])


class TestImapCompletionOrder:
    def test_tags_carry_submission_index(self):
        seen = {}
        for index, status, payload in imap_completion_order(
            _square, [5, 6, 7], workers=2
        ):
            assert status == "ok"
            seen[index] = payload
        assert seen == {0: 25, 1: 36, 2: 49}

    def test_errors_are_yielded_not_raised(self):
        statuses = {}
        for index, status, payload in imap_completion_order(
            _fail_on_three, [3, 4], workers=2
        ):
            statuses[index] = (status, payload)
        assert statuses[0][0] == "error"
        assert isinstance(statuses[0][1], ValueError)
        assert statuses[1] == ("ok", 40)

    def test_empty_yields_nothing(self):
        assert list(imap_completion_order(_square, [])) == []


#: A process sweep with no SharedPool entered, whose first cell to run
#: hard-exits its worker; prints "<cells run> <complete>".
CRASH_ONCE_SWEEP = """
import os
import sys

from repro.batch import SweepGrid, run_sweep
from repro.batch.registry import register_workload

MARKER = sys.argv[1]


@register_workload("crash-once")
def _crash_once(graph, cell):
    try:
        os.close(os.open(MARKER, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return {"n": graph.num_nodes}
    os._exit(1)


grid = SweepGrid("crash-once", ("tree:n=12",), (0, 1), (2, 3))
summary = run_sweep(grid, backend="process", workers=2)
print(summary.ran, summary.complete)
"""


class TestWorkerCrash:
    def test_pool_less_process_sweep_survives_a_worker_exit(self, tmp_path):
        """The dead worker's cell is resubmitted instead of lost.

        A consumer of a plain ``multiprocessing.Pool`` would block
        forever on that cell, so the sweep runs in its own process
        group under a timeout: a regression fails instead of hanging.
        """
        marker = tmp_path / "crashed"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        child = subprocess.Popen(
            [sys.executable, "-c", CRASH_ONCE_SWEEP, str(marker)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # the pool workers too
            child.communicate()
            pytest.fail("process sweep hung after a worker exited")
        assert child.returncode == 0, err
        assert marker.exists()
        assert out.split() == ["4", "True"]
