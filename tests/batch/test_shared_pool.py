"""SharedPool: reuse across calls, ambient routing, crash recovery,
the event-driven drain (wake on completion, open task sources), and
the one-pipe-per-worker contract (exact blame, no helper thread, no
leaked descriptors, workers that outlive no parent)."""

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.batch import (
    PoolCrashError,
    SharedPool,
    SweepGrid,
    imap_completion_order,
    run_sweep,
)
from repro.batch.chaos import ChaosAction, ChaosPlan
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


def _nap(item):
    time.sleep(0.02)
    return item


def _hang_or_nap(item):
    """``"hang"`` wedges the worker; anything else naps 1 ms."""
    if item == "hang":
        time.sleep(600.0)
    time.sleep(0.001)
    return item


@pytest.fixture
def exit_statuses(monkeypatch):
    """The exit status of every worker process closed, in order."""
    statuses = []
    close_process = multiprocessing.process.BaseProcess.close

    def record_status(process):
        statuses.append(process.exitcode)
        close_process(process)

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "close", record_status
    )
    return statuses


def _exited(pid):
    """Whether the child ``pid`` has exited; it stays unreaped."""
    flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
    return os.waitid(os.P_PID, pid, flags) is not None


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

    def test_workers_die_despite_a_sigterm_handler(self, exit_statuses):
        """Workers forked from a process that handles SIGTERM (as
        ``repro serve`` does) inherit the handler, so the pool ends
        them with SIGKILL; ``close`` would otherwise hang joining one."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        pool = SharedPool(workers=1)
        try:
            assert pool.map(_square, [2]) == [4]
        finally:
            closer = threading.Thread(target=pool.close, daemon=True)
            closer.start()
            closer.join(timeout=10)
            signal.signal(signal.SIGTERM, previous)
        assert not closer.is_alive(), "close() hung"
        assert exit_statuses == [-signal.SIGKILL]

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
    def test_sigterm_ends_a_worker_despite_the_parents_handler(
        self, exit_statuses
    ):
        """A worker resets SIGTERM to its default action, so the
        parent's handler cannot keep it alive: multiprocessing's exit
        handler SIGTERMs daemonic workers and then joins them."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with SharedPool(workers=1) as pool:
                assert pool.map(_square, [2]) == [4]
                (pid,) = pool.worker_pids()
                os.kill(pid, signal.SIGTERM)
                deadline = time.monotonic() + 10
                while not _exited(pid) and time.monotonic() < deadline:
                    time.sleep(0.01)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert exit_statuses == [-signal.SIGTERM]


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

    @pytest.mark.parametrize("workers", [2, 4])
    def test_a_round_of_crashes_is_one_restart(self, workers):
        """Every worker holds a task that always crashes: their deaths
        may be seen in separate wake-ups, yet each round counts as one
        restart, so every task is quarantined and nothing raises."""
        for _run in range(3):
            with SharedPool(workers=workers) as pool:
                outcomes = sorted(pool.imap(_crash_always, range(workers)))
            assert [(i, s) for i, s, _p in outcomes] == [
                (i, "quarantined") for i in range(workers)
            ]

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
    def test_completion_wakes_the_drain(self):
        """A finished task wakes the draining thread: three trivial
        tasks finish at once."""
        started = time.monotonic()
        with SharedPool(workers=1) as pool:
            outcomes = sorted(pool.imap(_square, [1, 2, 3]))
        assert outcomes == [(0, "ok", 1), (1, "ok", 4), (2, "ok", 9)]
        assert time.monotonic() - started < 5

    def test_hang_is_caught_under_steady_completions(self):
        """Steady completions do not starve the deadline check: the
        hung task is recovered about its deadline after it started,
        while the others keep going."""
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


def _slow_or_crash_once(item):
    """``("slow", log)`` logs a run and naps; ``("crash", marker)`` is
    :func:`_crash_once`."""
    kind, path = item
    if kind == "crash":
        return _crash_once(path)
    with open(path, "a") as handle:
        handle.write("ran\n")
    time.sleep(0.5)
    return "slow"


def _lock_for(item):
    """A result that does not pickle for ``"lock"``; ``item`` otherwise."""
    return threading.Lock() if item == "lock" else item


def _descriptors():
    return len(os.listdir("/proc/self/fd"))


def _alive(pid):
    """Whether ``pid`` runs (a zombie nobody reaps counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


#: A 2-worker pool in its own interpreter; prints the worker pids.
POOL_CHILD = """
import time

from repro.batch import SharedPool

pool = SharedPool(workers=2)
pool.map(abs, range(4))
print(*pool.worker_pids(), flush=True)
time.sleep(600)
"""


needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="reads /proc"
)


class TestOnePipePerWorker:
    def test_a_crash_charges_only_the_dead_workers_task(self, tmp_path):
        """Each worker holds one known task: a sibling running beside
        the crash is neither charged nor rerun."""
        runs = tmp_path / "runs"
        items = [("slow", str(runs)), ("crash", str(tmp_path / "crashed"))]
        with SharedPool(workers=2) as pool:
            assert pool.map(_slow_or_crash_once, items) == ["slow", "survived"]
        assert runs.read_text() == "ran\n"
        retried = [e for e in pool.fabric_log if e["kind"] == "task_retried"]
        assert [(e["task"], e["attempt"]) for e in retried] == [(1, 1)]
        assert pool.restarts == 1

    def test_the_drain_starts_no_thread(self):
        before = threading.active_count()
        seen = []
        with SharedPool(workers=2) as pool:
            for _outcome in pool.imap(_square, range(8)):
                seen.append(threading.active_count())
        assert seen == [before] * 8

    @needs_proc
    def test_crash_recoveries_release_their_descriptors(self):
        def recover(pool, count):
            plan = ChaosPlan([ChaosAction(i, "kill") for i in range(count)])
            outcomes = sorted(pool.imap(_square, range(count), chaos=plan))
            assert outcomes == [(i, "ok", i * i) for i in range(count)]

        with SharedPool(workers=1, backoff_base_s=0.001) as pool:
            recover(pool, 10)
            after_ten = _descriptors()
            recover(pool, 20)
            assert pool.restarts == 30
            assert _descriptors() == after_ten

    def test_what_does_not_pickle_fails_only_its_task(self):
        with SharedPool(workers=2) as pool:
            unsent = sorted(pool.imap(_square, [2, threading.Lock(), 3]))
            unreturned = sorted(pool.imap(_lock_for, [1, "lock", 3]))
            assert pool.restarts == 0
        assert unsent[0] == (0, "ok", 4) and unsent[2] == (2, "ok", 9)
        assert unsent[1][:2] == (1, "error")
        assert isinstance(unsent[1][2], Exception)
        assert unreturned[0] == (0, "ok", 1) and unreturned[2] == (2, "ok", 3)
        assert unreturned[1][:2] == (1, "error")
        assert "pickle" in str(unreturned[1][2])

    @needs_proc
    def test_workers_exit_when_their_parent_dies(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        child = subprocess.Popen(
            [sys.executable, "-c", POOL_CHILD],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            # Bounded: a child that never prints fails instead of hanging.
            printed, _, _ = select.select([child.stdout], [], [], 60)
            line = child.stdout.readline() if printed else ""
            pids = [int(pid) for pid in line.split()]
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 5
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids)), "a worker outlived its parent"


class TestOverlappingCalls:
    """Two live calls on one pool: two generators, or two threads."""

    def test_interleaved_generators_keep_their_outcomes(self):
        with SharedPool(workers=2) as pool:
            first = pool.imap(_nap, range(6))
            second = pool.imap(_nap, range(100, 106))
            outcomes = {first: [], second: []}
            live = [first, second]
            while live:
                for call in list(live):
                    try:
                        outcomes[call].append(next(call))
                    except StopIteration:
                        live.remove(call)
            assert len(pool.worker_pids()) == 2
            assert pool.restarts == 0
        assert sorted(outcomes[first]) == [(i, "ok", i) for i in range(6)]
        assert sorted(outcomes[second]) == [
            (i, "ok", 100 + i) for i in range(6)
        ]

    def test_a_call_ended_early_kills_only_its_workers(self):
        """The first call, suspended, holds both workers, so the second
        starts a third; closing the first leaves the second running."""
        with SharedPool(workers=2) as pool:
            first = pool.imap(_nap, range(6))
            next(first)
            second = pool.imap(_nap, range(100, 104))
            outcomes = [next(second)]
            assert len(pool.worker_pids()) == 3
            first.close()
            outcomes += list(second)
            assert len(pool.worker_pids()) == 2
            assert pool.restarts == 0
        assert sorted(outcomes) == [(i, "ok", 100 + i) for i in range(4)]

    def test_calls_on_two_threads(self):
        results = {}

        def run(base):
            results[base] = pool.map(_square, range(base, base + 30))

        with SharedPool(workers=2) as pool:
            threads = [
                threading.Thread(target=run, args=(base,)) for base in (0, 100)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert len(pool.worker_pids()) <= 2
            assert pool.restarts == 0
        assert results == {
            base: [x * x for x in range(base, base + 30)] for base in (0, 100)
        }
