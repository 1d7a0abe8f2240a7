"""Process-pool execution: the one place that touches ``multiprocessing``.

Its consumers parallelise across independent cells, never inside one
run:

* the sweep runner (:mod:`repro.batch.sweep`) fans grid cells across
  workers via :func:`imap_completion_order`, consuming results as they
  finish so it can checkpoint them immediately;
* ``repro serve`` hands each cache miss to one long-lived
  :meth:`SharedPool.imap` call;
* :func:`benchmarks.harness.sweep_map` maps experiment cells through
  :func:`map_submission_order`.

Every route runs on a :class:`SharedPool`, the only place a
``multiprocessing`` pool is built.  When one is active (entered as a
context manager, or passed explicitly) it persists across calls, so
repeated fan-outs pay worker startup once and worker-side caches
(graph regeneration, imported workload modules) stay warm.  Without
one, each call runs on a single-use ``SharedPool``, with the same
crash and hang recovery.

**Draining** is event-driven: each task posts its outcome from its
``apply_async`` callback onto the queue of the call's
:class:`TaskSource`, which the draining thread blocks on.  ``repro
serve`` keeps one source open and hands each cache miss to it.

Determinism contract: results are *tagged with their submission index*
inside the worker, so callers can always reassemble submission order
regardless of completion order.  Everything that crosses the process
boundary (task functions, items, results) must be picklable; task
functions must be module-level (or picklable callables), which is why
the sweep keeps its own at module scope.

**Fault tolerance** (docs/robustness.md): a worker that *dies* mid-task
is detected by watching the pool's pid set; a worker that *hangs*
(livelock, SIGSTOP, a task that never returns) is detected by the
per-task ``deadline_s`` watchdog.  Either way the pool is torn down
(SIGKILL — SIGTERM cannot kill a stopped process), respawned after a
capped exponential backoff, and unfinished tasks are resubmitted.  A
task blamed ``max_attempts`` times is **quarantined**: yielded with
status ``"quarantined"`` instead of being retried forever, so one
poison task degrades the batch instead of crashing it.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import pickle
import queue
import signal
import threading
import time
from collections import deque
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


#: Stack of entered SharedPools; the innermost is the ambient pool that
#: pool-agnostic call sites (run_sweep, sweep_map) route through.
_ACTIVE: List["SharedPool"] = []

#: Seconds between liveness and deadline checks while tasks are in
#: flight.  The drain loop waits at most this long for an outcome, and
#: runs the checks at least this often even while outcomes keep coming.
_POLL_INTERVAL = 0.005

#: Tags of the events a :class:`TaskSource` queue carries besides task
#: outcomes (which carry the token of the pool incarnation that ran them).
_ITEM = "item"
_CLOSE = "close"


class TaskSource:
    """The items of one :meth:`SharedPool.imap` call, handed over while
    it runs.

    :meth:`put` numbers an item with its submission index and wakes the
    draining thread; :meth:`close` says no more will come, and the call
    ends once every item handed over has finished.  ``imap`` runs a list
    as a source closed up front.  The same queue carries the outcomes
    the pool's result thread posts, so one wait serves both.

    ``items`` maps the index of every unfinished item to the item; a
    consumer finds an outcome's item there until it resumes the
    iteration.
    """

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self.items: Dict[int, Any] = {}
        self.closed = False
        self._events: "queue.SimpleQueue[Tuple[Any, Any, Any]]" = (
            queue.SimpleQueue()
        )
        self._lock = threading.Lock()
        self._count = 0
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
            self._events.put((_ITEM, index, time.monotonic()))
        return index

    def close(self) -> None:
        """Hand over nothing more; idempotent."""
        with self._lock:
            if not self.closed:
                self.closed = True
                self._events.put((_CLOSE, None, None))


class _Pool(multiprocessing.pool.Pool):
    """The ``multiprocessing`` pool :class:`SharedPool` runs on.

    ``Pool.terminate`` drains the task pipe message by message so a
    blocked task-handler thread can finish.  A worker SIGKILLed while
    reading a task leaves a torn message there, which ``recv`` misparses
    (``EOFError``) and which could even block it; this pool drains raw
    bytes instead — the pool is being discarded, so the tasks are moot.

    ``terminate`` also ends workers with SIGKILL: the pool replaces a
    worker the moment it dies, and a replacement forked from a process
    with a SIGTERM handler (``repro serve``) would survive SIGTERM.
    """

    @staticmethod
    def Process(ctx, *args, **kwds):
        process = ctx.Process(*args, **kwds)
        process.terminate = process.kill
        return process

    @staticmethod
    def _help_stuff_finish(inqueue, task_handler, size):
        inqueue._rlock.acquire()
        reader = inqueue._reader
        while task_handler.is_alive() and reader.poll():
            if not os.read(reader.fileno(), 1 << 16):
                break  # end of file: no writer is left to unblock
            time.sleep(0)


class SharedPool:
    """A persistent worker pool reused across batch calls.

    ::

        with SharedPool(workers=4) as pool:
            run_sweep(grid_a, backend="process")   # same 4 workers
            run_sweep(grid_b, backend="process")   # ...reused

    Entering the context makes the pool *ambient*: every
    ``backend="process"`` call inside the block routes through it
    (innermost pool wins when nested).  Passing ``pool=...`` explicitly
    works too and takes precedence.  Exiting shuts the workers down;
    :meth:`close` is idempotent and also safe to call directly.

    **Crash recovery.**  A worker that dies mid-task (hard exit, OOM
    kill) would hang a plain ``multiprocessing.Pool`` consumer forever:
    the pool replaces the worker but the task it held is silently lost.
    ``SharedPool`` watches the worker pid set while draining; when it
    changes, the pool is torn down, respawned, and every unfinished
    task resubmitted.  Tasks must therefore be idempotent — true for
    everything in this repository, where tasks are deterministic
    simulations.

    **Hang recovery.**  ``deadline_s`` arms a watchdog: a task in
    flight longer than the deadline means its worker is hung (infinite
    loop, SIGSTOP, deadlock), which no pid-set watching can see.  The
    pool is killed (SIGKILL — a stopped worker ignores SIGTERM) and
    rebuilt exactly as for a crash.

    **Blame, retries, quarantine.**  Each recovery increments the
    attempt count of the tasks *blamed* for it — the deadline-expired
    tasks on a hang, the in-flight tasks on a crash (at most
    ``workers`` of them, thanks to windowed dispatch; a planned chaos
    op narrows blame to the task that carries it).  Unblamed casualties
    are resubmitted for free.  A task blamed ``max_attempts`` times is
    yielded with status ``"quarantined"`` and not retried.  Only
    ``max_restarts`` *consecutive* recoveries with no progress (no
    result, no quarantine) raise :class:`PoolCrashError`.
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
        self._pool: Optional[Any] = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def _ensure(self) -> Any:
        if self._closed:
            raise RuntimeError("SharedPool is closed")
        if self._pool is None:
            self._pool = _Pool(self.workers)
        return self._pool

    def _teardown(self) -> None:
        """Kill the workers outright and discard the pool.

        SIGKILL rather than ``Pool.terminate``'s SIGTERM alone: a
        SIGSTOPped worker never handles SIGTERM, so ``join`` would hang
        on exactly the failure mode the watchdog exists to clear.
        """
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        for proc in list(pool._pool):
            if proc.is_alive():
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        # A worker killed while blocked on the task queue dies *holding*
        # the queue's reader lock, and one killed mid-result-write dies
        # holding the result queue's writer lock; ``Pool.terminate``
        # would deadlock acquiring them (``_help_stuff_finish``).  The
        # pool is being discarded, so force-release both — a release of
        # an already-free lock raises and is ignored.
        for lock in (
            getattr(pool._inqueue, "_rlock", None),
            getattr(pool._outqueue, "_wlock", None),
        ):
            try:
                if lock is not None:
                    lock.release()
            except Exception:
                pass
        pool.terminate()
        pool.join()

    def close(self) -> None:
        """Shut the workers down; the pool cannot be used afterwards."""
        self._teardown()
        self._closed = True

    def __enter__(self) -> "SharedPool":
        if self._closed:
            raise RuntimeError("SharedPool is closed")
        _ACTIVE.append(self)
        return self

    def __exit__(self, *_exc: Any) -> None:
        _ACTIVE.remove(self)
        self.close()

    @classmethod
    def current(cls) -> Optional["SharedPool"]:
        """The innermost entered pool, or ``None``."""
        return _ACTIVE[-1] if _ACTIVE else None

    # -- inspection --------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._pool is not None

    def worker_pids(self) -> Tuple[int, ...]:
        """Pids of the live workers (empty before first use)."""
        if self._pool is None:
            return ()
        return tuple(p.pid for p in self._pool._pool)

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
        has finished.  The pool starts at the first task.

        ``status`` is ``"ok"`` (payload = result), ``"error"`` (payload
        = the exception the task raised; deterministic failures are
        never retried), or ``"quarantined"`` (payload = a dict with
        ``reason``/``attempts``; see the class docstring).  Per-call
        ``deadline_s``/``max_attempts`` override the pool's defaults.
        ``chaos`` is a :class:`~repro.batch.chaos.ChaosPlan` (or
        anything with its ``op_for(index, attempt)`` shape) injecting
        planned worker faults — the deterministic test harness for all
        of the above.
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
        events = source._events
        # Items this call took and has not finished: index -> hand-over time.
        pending: Dict[int, float] = {}
        waiting: "deque[int]" = deque()
        # Windowed dispatch: at most ``workers`` tasks in flight, so the
        # in-flight set approximates "actually running" and a recovery
        # blames at most one window, not the whole batch.
        inflight: Dict[int, float] = {}
        attempts: Dict[int, int] = {}
        finished: List[Tuple[int, str, Any]] = []
        pool: Optional[Any] = None
        pids: set = set()
        # Outcomes carry the token of the pool incarnation and call that
        # ran them: a torn-down pool's, or an earlier call's on the same
        # source, no longer match and are dropped.
        token = object()
        closed = progressed = False
        stalled_restarts = 0
        checked = respawn_at = time.monotonic()
        while True:
            window = self.workers if time.monotonic() >= respawn_at else 0
            while waiting and len(inflight) < window:
                if pool is None:
                    pool = self._ensure()
                if not inflight:
                    pids = set(p.pid for p in pool._pool)
                index = waiting.popleft()
                op = (
                    chaos.op_for(index, attempts.get(index, 0))
                    if chaos is not None
                    else None
                )
                # The outcome rides the event: ``ApplyResult._set`` runs
                # the callback before it marks the result ready.  The
                # error callback sees the pool's own failures (unpicklable
                # results); ``_invoke`` ships a task's exceptions.
                tag = (token, index)
                pool.apply_async(
                    _invoke,
                    ((fn, index, source.items[index], op),),
                    callback=lambda outcome, tag=tag: events.put(tag + (outcome,)),
                    error_callback=lambda exc, tag=tag: events.put(
                        tag + ((tag[1], "error", exc),)
                    ),
                )
                now = time.monotonic()
                inflight[index] = now
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
            try:
                kind, index, value = events.get(
                    timeout=_POLL_INTERVAL if inflight or waiting else None
                )
                while True:
                    if kind is _ITEM:
                        pending[index] = value
                        waiting.append(index)
                    elif kind is _CLOSE:
                        closed = True
                    elif kind is token:
                        started = inflight.pop(index)
                        del pending[index]
                        self.completed += 1
                        progressed = True
                        if session is not None:
                            tele_counter.inc(state="completed")
                            tele_latency.observe(time.monotonic() - started)
                        finished.append(value)
                    kind, index, value = events.get_nowait()
            except queue.Empty:
                pass
            now = time.monotonic()
            if not inflight or now - checked < _POLL_INTERVAL:
                continue
            checked = now
            failure = self._detect_failure(
                inflight, pids, pool, deadline, chaos, attempts
            )
            if failure is None:
                continue
            # -- recovery: blame, quarantine, respawn, resubmit --------
            reason, blamed = failure
            self.restarts += 1
            self._teardown()
            pool, token = None, object()
            inflight.clear()
            self._emit("worker_killed", reason=reason, workers=self.workers)
            if session is not None:
                session.registry.counter(
                    "fabric_worker_respawns", volatile=True
                ).inc(reason=reason)
            for index in blamed:
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
            waiting = deque(sorted(pending))
            stalled_restarts = 0 if progressed else stalled_restarts + 1
            progressed = False
            if stalled_restarts > self.max_restarts:
                raise PoolCrashError(
                    stalled_restarts,
                    len(pending),
                    tuple(source.items.pop(index) for index in waiting),
                )
            # Respawn after a capped exponential backoff; the loop keeps
            # yielding and taking items meanwhile.
            respawn_at = time.monotonic() + min(
                self.backoff_max_s,
                self.backoff_base_s * (2 ** (stalled_restarts or 1)),
            )

    def _detect_failure(
        self,
        inflight: Dict[int, float],
        pids: set,
        pool: Any,
        deadline: Optional[float],
        chaos: Optional[Any],
        attempts: Dict[int, int],
    ) -> Optional[Tuple[str, List[int]]]:
        """One watchdog pass: ``(reason, blamed_indices)`` or ``None``.

        Blame narrows to the tasks carrying a *planned* chaos op when
        one is in flight — that keeps the retry/quarantine log
        deterministic under ``repro chaos`` replays, where organic
        blame ("everything in flight") would depend on scheduling.
        """

        def planned(kind: str, candidates: List[int]) -> List[int]:
            if chaos is None:
                return []
            return [
                index
                for index in candidates
                if (chaos.op_for(index, attempts.get(index, 0)) or (None,))[0]
                == kind
            ]

        if deadline is not None:
            now = time.monotonic()
            expired = [
                index
                for index, started in inflight.items()
                if now - started > deadline
            ]
            if expired:
                return "hung", sorted(planned("hang", expired) or expired)
        # Liveness: the pool's maintenance thread replaces dead workers,
        # so a changed pid set means a worker died and whatever task it
        # held is lost.
        if set(p.pid for p in pool._pool) != pids:
            candidates = list(inflight)
            return "crashed", sorted(planned("kill", candidates) or candidates)
        return None

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


def map_submission_order(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    backend: str = "inline",
    workers: Optional[int] = None,
    pool: Optional[SharedPool] = None,
) -> List[Any]:
    """Map ``fn`` over ``items``; results in submission order.

    ``backend="inline"`` runs in this process; ``"process"`` fans out
    (through ``pool``, the ambient shared pool, or a single-use one)
    and reassembles.  The first failing item's exception is re-raised
    either way.  This is the benchmark harness's opt-in hook.
    """
    items = list(items)
    if backend == "inline" or len(items) <= 1:
        return [fn(item) for item in items]
    if backend != "process":
        raise ValueError(f"backend must be 'inline' or 'process', got {backend!r}")
    return _in_submission_order(
        imap_completion_order(fn, items, workers, pool=pool), len(items)
    )
