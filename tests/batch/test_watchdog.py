"""Watchdog, retries, quarantine: the hardened SharedPool loop.

Satellite coverage the seed lacked: dead-worker recovery under SIGKILL
and SIGSTOP *mid-task* (not just clean ``os._exit``), hang detection
via ``deadline_s``, quarantine of poison tasks, fabric events, and
resubmission never duplicating completed results.
"""

import os
import signal
import time

import pytest

from repro.batch import (
    PoolCrashError,
    SharedPool,
    TaskQuarantinedError,
    imap_completion_order,
)
from repro.obs import TraceBuffer, observe

#: Watchdog deadline for the fault tests: generous next to the
#: millisecond tasks, tiny next to the 600 s chaos hang.
DEADLINE = 0.5


def _square(x):
    return x * x


def _sigkill_once(marker_path):
    """SIGKILL our own worker process on the first attempt."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def _sigstop_once(marker_path):
    """SIGSTOP (wedge, not die) our worker on the first attempt."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("stopped")
        os.kill(os.getpid(), signal.SIGSTOP)
    return "survived"


def _hang_forever(_x):
    time.sleep(600.0)


def _mixed_fault(item):
    kind, value = item
    if kind == "sigkill":
        return _sigkill_once(value)
    if kind == "sigstop":
        return _sigstop_once(value)
    return value


class TestSignalRecovery:
    def test_sigkill_mid_task_recovers(self, tmp_path):
        marker = str(tmp_path / "killed")
        with SharedPool(workers=2) as pool:
            assert pool.map(_sigkill_once, [marker]) == ["survived"]
            assert pool.restarts == 1

    def test_sigstop_mid_task_recovers(self, tmp_path):
        """A stopped worker is *hung*, not dead: only the deadline
        watchdog can see it (SIGTERM would never be handled — teardown
        must SIGKILL)."""
        marker = str(tmp_path / "stopped")
        with SharedPool(workers=2, deadline_s=DEADLINE) as pool:
            assert pool.map(_sigstop_once, [marker]) == ["survived"]
            assert pool.restarts >= 1
            assert any(
                e["kind"] == "worker_killed" and e["reason"] == "hung"
                for e in pool.fabric_log
            )

    def test_resubmission_does_not_duplicate_completed_results(
        self, tmp_path
    ):
        """Siblings finished before the recovery are yielded exactly
        once; only genuinely unfinished tasks are resubmitted."""
        items = [("ok", i) for i in range(6)] + [
            ("sigkill", str(tmp_path / "k")),
            ("sigstop", str(tmp_path / "s")),
        ]
        seen = []
        with SharedPool(workers=2, deadline_s=DEADLINE) as pool:
            for index, status, payload in pool.imap(_mixed_fault, items):
                assert status == "ok"
                seen.append(index)
        assert sorted(seen) == list(range(8))  # each task exactly once
        assert len(seen) == len(set(seen))

    def test_pool_survives_for_later_batches(self, tmp_path):
        with SharedPool(workers=2, deadline_s=DEADLINE) as pool:
            pool.map(_sigstop_once, [str(tmp_path / "s")])
            assert pool.map(_square, [3, 4]) == [9, 16]


class TestDeadline:
    def test_fast_tasks_never_trip_a_generous_deadline(self):
        with SharedPool(workers=2, deadline_s=30.0) as pool:
            assert pool.map(_square, range(6)) == [x * x for x in range(6)]
            assert pool.restarts == 0
            assert pool.fabric_log == []

    def test_hung_task_is_quarantined_not_fatal(self):
        """The graceful-degradation contract: a task that hangs on
        every attempt ends as a quarantined result, the pool lives."""
        with SharedPool(
            workers=2, deadline_s=DEADLINE, max_attempts=2
        ) as pool:
            outcomes = list(pool.imap(_hang_forever, [0]))
            assert len(outcomes) == 1
            index, status, info = outcomes[0]
            assert (index, status) == (0, "quarantined")
            assert info["reason"] == "hung"
            assert info["attempts"] == 2
            assert pool.quarantined == 1
            # The pool is still usable afterwards.
            assert pool.map(_square, [5]) == [25]

    def test_map_raises_on_quarantine(self):
        with SharedPool(
            workers=1, deadline_s=DEADLINE, max_attempts=1
        ) as pool:
            with pytest.raises(TaskQuarantinedError, match="quarantined"):
                pool.map(_hang_forever, [0])

    def test_per_call_deadline_overrides_pool_default(self):
        with SharedPool(workers=1, max_attempts=1) as pool:
            # No pool-level deadline; the per-call one still fires.
            outcomes = list(
                pool.imap(_hang_forever, [0], deadline_s=DEADLINE)
            )
            assert outcomes[0][1] == "quarantined"

    def test_deadline_validated(self):
        with pytest.raises(ValueError, match="deadline_s"):
            SharedPool(workers=1, deadline_s=0)
        with pytest.raises(ValueError, match="max_attempts"):
            SharedPool(workers=1, max_attempts=0)

    def test_disposable_path_promotes_to_watchdog_pool(self):
        """imap_completion_order with a deadline but no shared pool
        still gets hang recovery (single-use SharedPool)."""
        outcomes = list(
            imap_completion_order(
                _hang_forever,
                [0],
                workers=2,
                deadline_s=DEADLINE,
                max_attempts=1,
            )
        )
        assert outcomes[0][1] == "quarantined"


class TestFabricEvents:
    def test_events_carry_fabric_coordinates(self, tmp_path):
        with SharedPool(workers=2) as pool:
            pool.map(_sigkill_once, [str(tmp_path / "k")])
        kinds = [e["kind"] for e in pool.fabric_log]
        assert "worker_killed" in kinds
        assert "task_retried" in kinds
        for event in pool.fabric_log:
            assert event["round"] == -1
            assert event["run"] == -1
            # Replayable by construction: no volatile fields.
            assert "pid" not in event and "time" not in event

    def test_events_reach_the_ambient_observation(self, tmp_path):
        buffer = TraceBuffer()
        with observe(buffer):
            with SharedPool(workers=2) as pool:
                pool.map(_sigkill_once, [str(tmp_path / "k")])
        assert buffer.by_kind("worker_killed")
        retried = buffer.by_kind("task_retried")
        assert retried and retried[0]["task"] == 0


class TestCrashErrorPayload:
    def test_pool_crash_error_carries_pending_items(self):
        """Satellite: operators get the failing items, not just counts,
        so they can resume around poison cells by hand."""
        with SharedPool(workers=2, max_restarts=0, max_attempts=99) as pool:
            with pytest.raises(PoolCrashError) as err:
                pool.map(_crash_always, ["cell-a", "cell-b"])
        assert err.value.pending == len(err.value.pending_items)
        assert set(err.value.pending_items) <= {"cell-a", "cell-b"}
        assert err.value.pending_items  # never empty on a crash


def _crash_always(_x):
    os._exit(13)
