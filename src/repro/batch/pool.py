"""Process-pool execution: the one place that touches ``multiprocessing``.

Its consumers parallelise across independent cells, never inside one
run:

* the sweep runner (:mod:`repro.batch.sweep`) fans grid cells across
  workers via :func:`imap_completion_order`, consuming results as they
  finish so it can checkpoint them immediately;
* ``repro serve`` hands each cache miss to one long-lived
  :meth:`SharedPool.imap` call.

Every route runs on a :class:`SharedPool`, the only place worker
processes are started.  When one is active (entered as a context
manager on the calling thread or task, or passed explicitly) it
persists across calls, so repeated fan-outs pay worker startup once
and worker-side caches (graph regeneration, imported workload modules)
stay warm.  Without one, each call runs on a single-use
``SharedPool``, with the same crash and hang recovery.

**One pipe per worker, no helper thread.**  A worker is a plain
``multiprocessing.Process`` at one end of its own duplex pipe, running
one task at a time.  The thread that drains :meth:`SharedPool.imap`
sends each task to an idle worker itself, then blocks in
:func:`multiprocessing.connection.wait` on the busy workers' pipes,
their process sentinels and the wake pipe of the call's
:class:`TaskSource`: a finished task, a dead worker and a newly handed
item each wake it at once.  ``repro serve`` keeps one source open and
hands each cache miss to it.

Determinism contract: results are *tagged with their submission index*
inside the worker, so callers can always reassemble submission order
regardless of completion order.  Everything that crosses the process
boundary (task functions, items, results) must be picklable; task
functions must be module-level (or picklable callables), which is why
the sweep keeps its own at module scope.  A task whose item or result
does not pickle ends as that task's ``"error"`` outcome.

**Fault tolerance** (docs/robustness.md): a worker that *dies* mid-task
is seen by its process sentinel; a worker that *hangs* (livelock,
SIGSTOP, a task that never returns) by the per-task ``deadline_s``,
counted from dispatch.  Either way only that worker is SIGKILLed
(SIGTERM cannot kill a stopped process) and replaced after a capped
exponential backoff, and only its task is charged an attempt and
resubmitted.  A task charged ``max_attempts`` times is **quarantined**:
yielded with status ``"quarantined"`` instead of being retried forever,
so one poison task degrades the batch instead of crashing it.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import Counter, deque
from contextvars import ContextVar
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


def resolve_workers(workers: Optional[int]) -> int:
    """Number of pool processes: ``workers`` or the CPU count."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _portable_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives pickling, else a faithful stand-in
    (an unpicklable exception must not take the whole pool down)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


#: How long a chaos "hang" op sleeps — effectively forever next to any
#: reasonable ``deadline_s``; the watchdog is what ends it.
_HANG_SECONDS = 600.0


def _apply_chaos_op(op: Optional[Tuple[Any, ...]]) -> None:
    """Worker-side chaos execution (see :mod:`repro.batch.chaos`).

    ``op`` is ``None`` (the overwhelmingly common case), or a small
    tuple: ``("kill",)`` hard-exits the worker mid-task, ``("hang",)``
    wedges it until the watchdog kills it, ``("slow", seconds)`` sleeps
    before running the task normally.
    """
    if not op:
        return
    kind = op[0]
    if kind == "kill":
        os._exit(137)
    elif kind == "hang":
        time.sleep(_HANG_SECONDS)
    elif kind == "slow":
        time.sleep(float(op[1]))


def _invoke(
    task: Tuple[Callable[[Any], Any], int, Any, Optional[Tuple[Any, ...]]]
) -> Tuple[int, str, Any]:
    """Worker-side trampoline: run one task, tag it with its index."""
    fn, index, item, chaos_op = task
    _apply_chaos_op(chaos_op)
    try:
        return index, "ok", fn(item)
    except Exception as exc:  # shipped back, re-raised caller-side
        return index, "error", _portable_exception(exc)


def _serve(conn: Connection, parent_end: Connection) -> None:
    """A worker's life: run the tasks ``conn`` delivers, one at a time,
    until the parent's end closes.

    SIGTERM gets its default action back, so a handler inherited from
    the parent (``repro serve`` installs one) cannot keep the worker
    alive, and the inherited copy of the parent's end is closed, so the
    parent's death reads as end of file here.  ``_invoke`` is looked up
    at call time: a tracer may wrap it by name.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent_end.close()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        outcome = _invoke(task)
        try:
            conn.send(outcome)
        except OSError:  # the parent is gone
            return
        except Exception as exc:  # the result does not pickle
            conn.send((outcome[0], "error", _portable_exception(exc)))


# ---------------------------------------------------------------------------
# The persistent shared pool
# ---------------------------------------------------------------------------
class PoolCrashError(RuntimeError):
    """Workers kept dying faster than the pool could make progress.

    Raised by :meth:`SharedPool.imap` after ``max_restarts`` consecutive
    pool restarts delivered no result (and quarantined nothing) — the
    signature of a pool-wide failure rather than a single poison task
    (poison tasks are quarantined instead).  Results delivered before
    the crash were already yielded; ``pending`` counts the tasks still
    unfinished and ``pending_items`` carries the items themselves so
    callers can report exactly which work was lost (the sweep surfaces
    these as cell keys via :class:`~repro.batch.sweep.SweepCrashError`).
    """

    def __init__(
        self,
        restarts: int,
        pending: int,
        pending_items: Tuple[Any, ...] = (),
    ) -> None:
        super().__init__(
            f"worker pool crashed {restarts} time(s); giving up with "
            f"{pending} task(s) unfinished (a task is killing its worker)"
        )
        self.restarts = restarts
        self.pending = pending
        self.pending_items = tuple(pending_items)


class TaskQuarantinedError(RuntimeError):
    """A strict consumer (``map``) met a quarantined task."""

    def __init__(self, index: int, info: Dict[str, Any]) -> None:
        super().__init__(
            f"task {index} quarantined after {info.get('attempts')} "
            f"attempt(s): {info.get('reason')}"
        )
        self.index = index
        self.info = info


#: The innermost SharedPool entered in this thread or task: the ambient
#: pool that pool-agnostic call sites (run_sweep) route through.
_ACTIVE: ContextVar[Optional[SharedPool]] = ContextVar("shared_pool", default=None)


class TaskSource:
    """The items of one :meth:`SharedPool.imap` call, handed over while
    it runs.

    :meth:`put` numbers an item with its submission index and wakes the
    draining thread through the source's wake pipe; :meth:`close` says
    no more will come, and the call ends once every item handed over
    has finished.  ``imap`` runs a list as a source closed up front.

    ``items`` maps the index of every unfinished item to the item; a
    consumer finds an outcome's item there until it resumes the
    iteration.
    """

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self.items: Dict[int, Any] = {}
        self.closed = False
        self._handed: List[Tuple[int, float]] = []
        self._lock = threading.Lock()
        self._count = 0
        # At most one wake message is ever unread; ``_woken`` says so.
        self._wake, self._waker = multiprocessing.Pipe(duplex=False)
        self._woken = False
        for item in items:
            self.put(item)

    def put(self, item: Any) -> int:
        """Hand ``item`` over; returns its submission index."""
        with self._lock:
            if self.closed:
                raise RuntimeError("TaskSource is closed")
            index = self._count
            self._count += 1
            self.items[index] = item
            self._handed.append((index, time.monotonic()))
            self._wake_drain()
        return index

    def close(self) -> None:
        """Hand over nothing more; idempotent."""
        with self._lock:
            if not self.closed:
                self.closed = True
                self._wake_drain()

    def _wake_drain(self) -> None:
        if not self._woken:
            self._woken = True
            self._waker.send_bytes(b"")

    def _take(self) -> Tuple[List[Tuple[int, float]], bool]:
        """The draining side: the ``(index, hand-over time)`` pairs
        handed over since the last take, and whether the source is
        closed."""
        with self._lock:
            if self._woken:
                self._woken = False
                self._wake.recv_bytes()
            handed, self._handed = self._handed, []
            return handed, self.closed


class _Worker:
    """One worker process, the parent's end of its pipe, and the index
    of the task it holds (``None`` while it is idle and any call may
    take it)."""

    def __init__(self) -> None:
        self.conn, child_end = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_serve, args=(child_end, self.conn), daemon=True
        )
        self.process.start()
        child_end.close()
        self.task: Optional[int] = None
        self.dispatched = 0.0

    def stop(self) -> None:
        """SIGKILL the worker, reap it and release its descriptors
        (SIGKILL: a stopped worker never handles SIGTERM)."""
        self.process.kill()
        self.process.join()
        self.process.close()
        self.conn.close()


class SharedPool:
    """A persistent worker pool reused across batch calls.

    ::

        with SharedPool(workers=4) as pool:
            run_sweep(grid_a, backend="process")   # same 4 workers
            run_sweep(grid_b, backend="process")   # ...reused

    Entering the context makes the pool *ambient*: every
    ``backend="process"`` call inside the block, on this thread or task,
    routes through it (innermost pool wins when nested); another thread
    does not see it.  Passing ``pool=...`` explicitly
    works too and takes precedence.  Exiting shuts the workers down;
    :meth:`close` is idempotent and also safe to call directly.

    Workers start at the first task that finds none idle, up to
    ``workers`` of them.  Each holds at most one task, so a task in
    flight is a task running, and a worker's failure names its task.
    Calls may overlap (two live ``imap`` generators, or calls on two
    threads): each waits on, recovers and on an early end kills only
    the workers holding its own tasks.  A call that finds every worker
    held by another starts one more, retired when a call ends, so it
    never waits on another call's consumer.

    **Crash recovery.**  A worker that dies mid-task (hard exit, OOM
    kill) is seen by its process sentinel.  The outcome it managed to
    send is kept; otherwise its task is charged an attempt and
    resubmitted, and the worker is replaced.  Tasks must therefore be
    idempotent — true for everything in this repository, where tasks
    are deterministic simulations.  Other workers keep running theirs.

    **Hang recovery.**  ``deadline_s`` arms a watchdog: a task in
    flight longer than the deadline since its dispatch means its worker
    is hung (infinite loop, SIGSTOP, deadlock), which no sentinel can
    see.  That worker is SIGKILLed and replaced, and its task charged,
    exactly as for a crash.

    **Retries, quarantine.**  A task charged ``max_attempts`` times is
    yielded with status ``"quarantined"`` and not retried.  A round of
    failures counts as one restart, however its failures spread over
    wake-ups: a task dispatched before the last restart for the same
    reason joins that restart when it fails.  Only ``max_restarts``
    *consecutive* restarts with no progress (no result, no quarantine)
    raise :class:`PoolCrashError`.  A call that ends early (its
    consumer stops, or it raises) kills the workers still running its
    tasks, so a later call never receives their outcomes.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_restarts: int = 2,
        deadline_s: Optional[float] = None,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.max_restarts = max_restarts
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.deadline_s = deadline_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        #: Lifetime counters (telemetry for tests and perf reports).
        self.restarts = 0
        self.dispatched = 0
        self.completed = 0
        self.quarantined = 0
        #: Fabric events (worker_killed / task_retried / task_quarantined)
        #: in emission order; also forwarded to the ambient obs session.
        self.fabric_log: List[Dict[str, Any]] = []
        self._workers: List[_Worker] = []
        # Guards the worker list and the claiming of idle workers: calls
        # on other threads share them.
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def _claim(self, index: int, overflow: bool) -> Optional[_Worker]:
        """An idle worker, else a new one while the pool is below its
        size (or past it, with ``overflow``), now holding task
        ``index``; ``None`` if every worker is busy."""
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedPool is closed")
            worker = next((w for w in self._workers if w.task is None), None)
            if worker is None:
                if len(self._workers) >= self.workers and not overflow:
                    return None
                worker = _Worker()
                self._workers.append(worker)
            worker.task = index
            return worker

    def _retire(self, workers: List[_Worker]) -> None:
        """Stop ``workers`` (those :meth:`close` has not), and idle
        workers past the pool's size."""
        with self._lock:
            workers = [w for w in workers if w in self._workers]
            for worker in workers:
                self._workers.remove(worker)
            idle = [w for w in self._workers if w.task is None]
            surplus = idle[: max(0, len(self._workers) - self.workers)]
            for worker in surplus:
                self._workers.remove(worker)
        for worker in workers + surplus:
            worker.stop()

    def close(self) -> None:
        """Shut the workers down; the pool cannot be used afterwards."""
        with self._lock:
            self._closed = True
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()

    def __enter__(self) -> "SharedPool":
        if self._closed:
            raise RuntimeError("SharedPool is closed")
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *_exc: Any) -> None:
        _ACTIVE.reset(self._token)
        self.close()

    @classmethod
    def current(cls) -> Optional["SharedPool"]:
        """The innermost pool entered in this thread or task, or ``None``."""
        return _ACTIVE.get()

    # -- inspection --------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._workers)

    def worker_pids(self) -> Tuple[int, ...]:
        """Pids of the live workers (empty before first use)."""
        return tuple(worker.process.pid for worker in self._workers)

    # -- fabric events -----------------------------------------------------
    def _emit(self, kind: str, **fields: Any) -> None:
        """Record a fabric event and forward it to the obs layer.

        Fabric events carry ``round=-1``/``run=-1``: they describe the
        execution fabric, not any simulated network round.  Volatile
        data (pids, timestamps) deliberately never appears — the chaos
        harness compares these logs across replays.
        """
        event: Dict[str, Any] = {"kind": kind, "round": -1, "run": -1}
        event.update(fields)
        self.fabric_log.append(event)
        from ..obs.session import current_observation

        observation = current_observation()
        if observation is not None:
            observation.dispatch(dict(event))

    # -- execution ---------------------------------------------------------
    def imap(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        deadline_s: Optional[float] = None,
        max_attempts: Optional[int] = None,
        chaos: Optional[Any] = None,
    ) -> Iterator[Tuple[int, str, Any]]:
        """Yield ``(submission_index, status, payload)`` as tasks finish.

        ``items`` is an iterable, run as a source closed up front, or an
        open :class:`TaskSource` the caller keeps handing items to; the
        call ends when the source is closed and every item handed over
        has finished.  The first task starts the first worker.

        ``status`` is ``"ok"`` (payload = result), ``"error"`` (payload
        = the exception the task raised, or the pickling error of its
        item or result; deterministic failures are never retried), or
        ``"quarantined"`` (payload = a dict with ``reason``/``attempts``;
        see the class docstring).  Per-call ``deadline_s``/
        ``max_attempts`` override the pool's defaults.  ``chaos`` is a
        :class:`~repro.batch.chaos.ChaosPlan` (or anything with its
        ``op_for(index, attempt)`` shape) injecting planned worker
        faults — the deterministic test harness for all of the above.
        """
        deadline = deadline_s if deadline_s is not None else self.deadline_s
        attempts_cap = (
            max_attempts if max_attempts is not None else self.max_attempts
        )
        source = items if isinstance(items, TaskSource) else TaskSource(items)
        if source is not items:
            source.close()
        # Telemetry is ambient and optional: one lookup per batch, one
        # ``is not None`` per instrumented point — the fabric mirror of
        # the engine's no-subscriber discipline.  Everything recorded
        # here is wall-clock-shaped, so it all rides the volatile plane.
        from ..obs.telemetry import current_telemetry

        session = current_telemetry()
        if session is not None:
            tele_queue_wait = session.registry.histogram(
                "fabric_queue_wait_s", volatile=True
            )
            tele_latency = session.registry.histogram(
                "fabric_task_latency_s", volatile=True
            )
            tele_counter = session.registry.counter(
                "fabric_tasks", volatile=True
            )
            session.registry.gauge("fabric_workers", volatile=True).max(
                self.workers
            )
        # Items this call took and has not finished: index -> hand-over time.
        pending: Dict[int, float] = {}
        waiting: "deque[int]" = deque()
        attempts: Dict[int, int] = {}
        finished: List[Tuple[int, str, Any]] = []
        # The workers holding this call's tasks (other calls hold theirs).
        mine: List[_Worker] = []
        # Workers found dead or past their deadline: the task to charge
        # (``None`` if none) and the reason.
        failed: List[Tuple[_Worker, Optional[int], str]] = []
        progressed = False
        stalled_restarts = 0
        respawn_at = 0.0
        # When the last restart for each reason happened.
        restarted_at = {"crashed": float("-inf"), "hung": float("-inf")}

        def finish(index: int, outcome: Tuple[int, str, Any], since: float) -> None:
            nonlocal progressed
            del pending[index]
            self.completed += 1
            progressed = True
            if session is not None:
                tele_counter.inc(state="completed")
                tele_latency.observe(time.monotonic() - since)
            finished.append(outcome)

        handed, closed = source._take()
        try:
            while True:
                for index, handed_at in handed:
                    pending[index] = handed_at
                    waiting.append(index)
                handed = []
                now = time.monotonic()
                while waiting and now >= respawn_at:
                    # A call holding no worker may start one past the
                    # pool's size: it never waits on another call's tasks.
                    worker = self._claim(waiting[0], overflow=not mine)
                    if worker is None:
                        break
                    index = waiting.popleft()
                    mine.append(worker)
                    op = (
                        chaos.op_for(index, attempts.get(index, 0))
                        if chaos is not None
                        else None
                    )
                    try:
                        # An idle worker waits in recv: this never blocks.
                        worker.conn.send((fn, index, source.items[index], op))
                    except OSError:  # it died idle, not of this task
                        waiting.appendleft(index)
                        failed.append((worker, None, "crashed"))
                        break
                    except Exception as exc:  # the item does not pickle
                        mine.remove(worker)
                        worker.task = None
                        finish(index, (index, "error", exc), now)
                        continue
                    worker.dispatched = time.monotonic()
                    self.dispatched += 1
                    if session is not None:
                        tele_counter.inc(state="dispatched")
                        tele_queue_wait.observe(now - pending[index])
                for outcome in finished:
                    yield outcome
                    del source.items[outcome[0]]
                finished.clear()
                if closed and not pending:
                    return
                if not failed:
                    handles: List[Any] = [w.conn for w in mine]
                    handles += [w.process.sentinel for w in mine]
                    if not closed:
                        handles.append(source._wake)
                    wake_at = []
                    if deadline is not None:
                        wake_at = [w.dispatched + deadline for w in mine]
                    if waiting and respawn_at > now:
                        wake_at.append(respawn_at)
                    timeout = None
                    if wake_at:
                        timeout = max(0.0, min(wake_at) - time.monotonic())
                    ready = set(wait(handles, timeout))
                    if source._wake in ready:
                        handed, closed = source._take()
                    now = time.monotonic()
                    for w in list(mine):
                        index = w.task
                        dead = w.process.sentinel in ready
                        try:
                            # A dead worker's outcome, if it sent one, is kept.
                            if w.conn in ready or (dead and w.conn.poll()):
                                finish(index, w.conn.recv(), w.dispatched)
                                index = None
                        except (EOFError, OSError):
                            dead = True
                        if dead:
                            failed.append((w, index, "crashed"))
                        elif index is None:
                            mine.remove(w)
                            w.task = None
                        elif deadline is not None and now - w.dispatched > deadline:
                            failed.append((w, index, "hung"))
                if not failed:
                    continue
                # -- recovery: replace, blame, quarantine, resubmit ----
                # A task dispatched before the last restart for the same
                # reason failed in that restart's round, however late its
                # failure was seen: it joins that restart.
                fresh = any(
                    index is None or w.dispatched >= restarted_at[reason]
                    for w, index, reason in failed
                )
                killed = Counter(reason for _w, _index, reason in failed)
                blamed = sorted(
                    (index, reason)
                    for _w, index, reason in failed
                    if index is not None
                )
                for w, _index, _reason in failed:
                    mine.remove(w)
                self._retire([w for w, _index, _reason in failed])
                failed = []
                for reason in sorted(killed):
                    self._emit(
                        "worker_killed", reason=reason, workers=killed[reason]
                    )
                retried = []
                for index, reason in blamed:
                    attempts[index] = attempts.get(index, 0) + 1
                    if attempts[index] >= attempts_cap:
                        del pending[index]
                        self.quarantined += 1
                        progressed = True
                        info = {"reason": reason, "attempts": attempts[index]}
                        self._emit(
                            "task_quarantined",
                            task=index,
                            attempts=attempts[index],
                            reason=reason,
                        )
                        if session is not None:
                            tele_counter.inc(state="quarantined")
                        finished.append((index, "quarantined", info))
                    else:
                        self._emit(
                            "task_retried",
                            task=index,
                            attempt=attempts[index],
                            reason=reason,
                        )
                        if session is not None:
                            tele_counter.inc(state="retried")
                        retried.append(index)
                waiting.extendleft(reversed(retried))
                if not fresh:
                    continue
                self.restarts += 1
                if session is not None:
                    session.registry.counter(
                        "fabric_worker_respawns", volatile=True
                    ).inc(reason="hung" if "hung" in killed else "crashed")
                stalled_restarts = 0 if progressed else stalled_restarts + 1
                progressed = False
                if stalled_restarts > self.max_restarts:
                    raise PoolCrashError(
                        stalled_restarts,
                        len(pending),
                        tuple(source.items.pop(index) for index in sorted(pending)),
                    )
                # Dispatch (and with it any respawn) waits out a capped
                # exponential backoff; the loop keeps yielding and taking
                # items meanwhile.
                now = time.monotonic()
                restarted_at.update(dict.fromkeys(killed, now))
                respawn_at = now + min(
                    self.backoff_max_s,
                    self.backoff_base_s * (2 ** (stalled_restarts or 1)),
                )
        finally:
            # An early end: a later call must never receive these outcomes.
            self._retire(mine)

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> List[Any]:
        """Map ``fn`` over ``items``; results in submission order, the
        first failing (or quarantined) item's exception re-raised."""
        items = list(items)
        return _in_submission_order(self.imap(fn, items), len(items))


def _in_submission_order(
    outcomes: Iterable[Tuple[int, str, Any]], count: int
) -> List[Any]:
    """The results of ``count`` tasks' ``(index, status, payload)``
    outcomes in submission order; once all are in, the first failing
    (or quarantined) task's exception is raised."""
    results: List[Any] = [None] * count
    failures: Dict[int, BaseException] = {}
    for index, status, payload in outcomes:
        if status == "error":
            failures[index] = payload
        elif status == "quarantined":
            failures[index] = TaskQuarantinedError(index, payload)
        else:
            results[index] = payload
    if failures:
        raise failures[min(failures)]
    return results


# ---------------------------------------------------------------------------
# Pool-agnostic entry points
# ---------------------------------------------------------------------------
def imap_completion_order(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: Optional[int] = None,
    pool: Optional[SharedPool] = None,
    deadline_s: Optional[float] = None,
    max_attempts: Optional[int] = None,
    chaos: Optional[Any] = None,
) -> Iterator[Tuple[int, str, Any]]:
    """Yield ``(submission_index, status, payload)`` as tasks finish.

    ``status`` is ``"ok"`` (payload = result), ``"error"`` (payload =
    the exception; the caller decides whether to raise), or
    ``"quarantined"`` (see :meth:`SharedPool.imap`).  Routing: an
    explicit ``pool``, else the ambient :meth:`SharedPool.current`, else
    a single-use :class:`SharedPool` of ``workers`` closed when the
    iterator is exhausted or closed — so crash recovery, the
    ``deadline_s`` watchdog and ``chaos`` work on every route.
    """
    items = list(items)
    if not items:
        return
    owned: Optional[SharedPool] = None
    if pool is None:
        pool = SharedPool.current()
    if pool is None:
        pool = owned = SharedPool(min(resolve_workers(workers), len(items)))
    try:
        yield from pool.imap(
            fn,
            items,
            deadline_s=deadline_s,
            max_attempts=max_attempts,
            chaos=chaos,
        )
    finally:
        if owned is not None:
            owned.close()
