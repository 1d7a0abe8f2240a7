"""SharedPool: reuse across calls, ambient routing, crash recovery,
and the event-driven drain (wake on completion, open task sources)."""

import os
import signal
import threading
import time

import pytest

from repro.batch import (
    PoolCrashError,
    SharedPool,
    SweepGrid,
    imap_completion_order,
    run_sweep,
)
from repro.batch import pool as pool_module
from repro.batch.pool import TaskSource


def _square(x):
    return x * x


def _pid(_x):
    return os.getpid()


def _crash_once(marker_path):
    """Hard-kill the worker on first sight of the marker's absence."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("crashed")
        os._exit(13)
    return "survived"


def _crash_always(_x):
    os._exit(13)


def _square_or_crash(x):
    """Square ``x``; a negative ``x`` kills the worker."""
    if x < 0:
        os._exit(13)
    return x * x


def _hang_or_nap(item):
    """``"hang"`` wedges the worker; anything else naps 1 ms."""
    if item == "hang":
        time.sleep(600.0)
    time.sleep(0.001)
    return item


class TestReuse:
    def test_same_workers_across_calls(self):
        with SharedPool(workers=2) as pool:
            first = set(pool.map(_pid, range(8)))
            second = set(pool.map(_pid, range(8)))
            assert first & second, "no worker survived between calls"
            assert pool.restarts == 0
            assert pool.completed == 16

    def test_map_preserves_submission_order(self):
        with SharedPool(workers=2) as pool:
            assert pool.map(_square, range(10)) == [x * x for x in range(10)]

    def test_ambient_pool_is_picked_up(self):
        """Pool-agnostic entry points route through the entered pool."""
        with SharedPool(workers=2) as pool:
            pids = [pid for _i, _s, pid in imap_completion_order(_pid, range(6))]
            assert set(pids) <= set(pool.worker_pids())
            assert pool.completed == 6

    def test_explicit_pool_beats_ambient(self):
        with SharedPool(workers=2) as ambient:
            with SharedPool(workers=2) as inner:
                # inner is ambient now; pass the outer one explicitly
                list(imap_completion_order(_square, [1, 2], pool=ambient))
                assert ambient.completed == 2
                assert inner.completed == 0

    def test_current_tracks_nesting(self):
        assert SharedPool.current() is None
        with SharedPool(workers=1) as outer:
            assert SharedPool.current() is outer
            with SharedPool(workers=1) as inner:
                assert SharedPool.current() is inner
            assert SharedPool.current() is outer
        assert SharedPool.current() is None

    def test_ambient_pool_is_per_thread(self):
        """A pool entered on one thread is not ambient on another: a
        process sweep there runs on a single-use pool of its own."""
        grid = SweepGrid("kdom", ("tree:n=8",), (0, 1, 2), (2,))
        seen = []

        def other_thread():
            seen.append(SharedPool.current())
            seen.append(run_sweep(grid, backend="process", workers=2).ran)

        with SharedPool(workers=2) as pool:
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert seen == [None, 3]
            assert pool.completed == 0

    def test_lazy_start(self):
        with SharedPool(workers=1) as pool:
            assert not pool.started
            pool.map(_square, [3])
            assert pool.started

    def test_closed_pool_refuses_use(self):
        pool = SharedPool(workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_square, [1])
        with pytest.raises(RuntimeError, match="closed"):
            with pool:
                pass

    def test_close_is_idempotent(self):
        pool = SharedPool(workers=1)
        pool.map(_square, [1])
        pool.close()
        pool.close()

    def test_workers_die_despite_a_sigterm_handler(self):
        """Workers forked from a process that handles SIGTERM (as
        ``repro serve`` does) inherit the handler, so the pool ends
        them with SIGKILL; ``close`` would otherwise hang joining a
        worker the pool forked to replace one it had just killed."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        pool = SharedPool(workers=1)
        try:
            pool.map(_square, [2])
            worker = pool._pool._pool[0]
            worker.terminate()
            # The pool's own thread may reap the worker first, so poll.
            deadline = time.monotonic() + 10
            while worker.exitcode is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert worker.exitcode == -signal.SIGKILL
        finally:
            closer = threading.Thread(target=pool.close, daemon=True)
            closer.start()
            closer.join(timeout=10)
            signal.signal(signal.SIGTERM, previous)
        assert not closer.is_alive(), "close() hung"


class TestCrashRecovery:
    def test_worker_crash_restarts_and_finishes(self, tmp_path):
        """A task that hard-kills its worker once still completes after
        the pool restart resubmits it."""
        marker = str(tmp_path / "crashed")
        with SharedPool(workers=2) as pool:
            results = pool.map(_crash_once, [marker])
            assert results == ["survived"]
            assert pool.restarts == 1

    def test_permanent_crasher_raises_pool_crash_error(self):
        with SharedPool(workers=2, max_restarts=1) as pool:
            with pytest.raises(PoolCrashError) as err:
                pool.map(_crash_always, [1])
            assert err.value.pending == 1
            assert pool.restarts == 2

    def test_pool_usable_after_crash_error(self, tmp_path):
        with SharedPool(workers=2, max_restarts=0) as pool:
            with pytest.raises(PoolCrashError):
                pool.map(_crash_always, [1])
            assert pool.map(_square, [4]) == [16]

    def test_healthy_siblings_survive_a_crash(self, tmp_path):
        """Results completed before the crash are kept; the lost task
        reruns after restart."""
        marker = str(tmp_path / "crashed")
        items = [("ok", i) for i in range(6)] + [("crash", marker)]

        with SharedPool(workers=2) as pool:
            outcomes = dict()
            for index, status, payload in pool.imap(_mixed, items):
                assert status == "ok"
                outcomes[index] = payload
            assert len(outcomes) == 7
            assert outcomes[6] == "survived"


def _mixed(item):
    kind, value = item
    if kind == "crash":
        return _crash_once(value)
    return value


def _drain_in_thread(pool, source, outcomes):
    """Consume ``pool.imap(_square, source)`` on a daemon thread, so a
    call that never ends fails a bounded join instead of hanging."""
    thread = threading.Thread(
        target=lambda: outcomes.extend(pool.imap(_square, source)),
        daemon=True,
    )
    thread.start()
    return thread


class TestEventDrain:
    def test_completion_wakes_the_drain(self, monkeypatch):
        """A finished task wakes the draining thread: with a 30 s poll
        interval, three trivial tasks still finish at once."""
        monkeypatch.setattr(pool_module, "_POLL_INTERVAL", 30.0)
        started = time.monotonic()
        with SharedPool(workers=1) as pool:
            outcomes = sorted(pool.imap(_square, [1, 2, 3]))
        assert outcomes == [(0, "ok", 1), (1, "ok", 4), (2, "ok", 9)]
        assert time.monotonic() - started < 5

    def test_hang_is_caught_under_steady_completions(self):
        """Completions arriving faster than the poll interval do not
        starve the deadline check: the hung task is recovered about
        its deadline after it started, while the others keep going."""
        deadline = 0.3
        items = ["hang"] + list(range(1, 801))
        arrivals = {}
        started = time.monotonic()
        with SharedPool(
            workers=2, deadline_s=deadline, max_attempts=1
        ) as pool:
            for index, status, _payload in pool.imap(_hang_or_nap, items):
                arrivals[index] = (status, time.monotonic() - started)
        assert sorted(arrivals) == list(range(len(items)))
        status, caught_at = arrivals[0]
        assert status == "quarantined"
        assert caught_at < deadline + 1.0
        ok_times = [at for state, at in arrivals.values() if state == "ok"]
        assert min(ok_times) < caught_at < max(ok_times)


class TestTaskSource:
    def test_items_handed_over_while_running_are_yielded_once(self):
        source = TaskSource()
        outcomes = []
        with SharedPool(workers=2) as pool:
            drain = _drain_in_thread(pool, source, outcomes)
            handed = {}
            for x in range(20):
                handed[source.put(x)] = x
                time.sleep(0.002)
            source.close()
            drain.join(timeout=30)
            assert not drain.is_alive()
        assert sorted(index for index, _s, _p in outcomes) == sorted(handed)
        for index, status, payload in outcomes:
            assert (status, payload) == ("ok", handed[index] ** 2)
        with pytest.raises(RuntimeError, match="closed"):
            source.put(1)

    def test_close_ends_the_call_after_in_flight_tasks(self):
        source = TaskSource()
        outcomes = []
        with SharedPool(workers=1) as pool:
            drain = _drain_in_thread(pool, source, outcomes)
            source.put(7)
            deadline = time.monotonic() + 10
            while pool.dispatched < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            source.close()
            drain.join(timeout=30)
            assert not drain.is_alive()
        assert outcomes == [(0, "ok", 49)]

    def test_open_source_without_items_starts_no_pool(self):
        source = TaskSource()
        outcomes = []
        with SharedPool(workers=1) as pool:
            drain = _drain_in_thread(pool, source, outcomes)
            time.sleep(0.1)
            assert not pool.started
            source.close()
            drain.join(timeout=10)
            assert not drain.is_alive()
            assert not pool.started
        assert outcomes == []

    def test_a_new_call_after_a_crash_yields_only_its_own_items(self):
        """The crashed call reports the item it lost; the next call on
        the same source drops the old call's outcomes and runs on."""
        source = TaskSource([-1])
        with SharedPool(workers=2, max_restarts=0) as pool:
            with pytest.raises(PoolCrashError) as err:
                next(pool.imap(_square_or_crash, source))
            assert err.value.pending_items == (-1,)
            later = source.put(5)
            source.close()
            assert list(pool.imap(_square_or_crash, source)) == [
                (later, "ok", 25)
            ]
