"""kdom-as-a-service: the asyncio HTTP front-end on the sweep fabric.

``repro serve`` runs a long-lived process that answers graph-spec
queries — k-dominating set, partition, MST, anything in the workload
registry — over HTTP/JSON.  The server is deliberately *thin*: it is a
bounded result cache plus a request batcher in front of the exact same
deterministic execution path ``run_sweep`` uses, so a served response
body is byte-identical to the corresponding row of a finalized sweep
store (``canonical_line(row) + "\\n"``).  That equivalence is the core
contract; tests and the CI ``serve-smoke`` job ``cmp`` it.

Architecture (stdlib only — ``asyncio.start_server`` with a minimal
HTTP/1.1 loop, no ``http.server``):

* The **event-loop thread** parses requests, answers cache hits, and
  collapses concurrent identical queries onto one in-flight future
  (single-flight).  All cache and in-flight state is loop-confined.  It
  admits at most ``ADMISSION_PER_WORKER`` distinct outstanding cells
  per worker and refuses a miss beyond that with 429.
* A **dispatcher thread** executes the cells.  With
  ``backend="process"`` it runs one
  :meth:`~repro.batch.pool.SharedPool.imap` call for the server's
  lifetime over an open :class:`~repro.batch.pool.TaskSource`: a miss
  hands its cell over at once, and the pool dispatches it as soon as a
  worker frees, with at most ``workers`` cells in flight and blame,
  quarantine and respawn per cell.  With ``backend="inline"`` it drains
  queued cells in batches and runs them itself.  Results hop back to
  the loop via ``call_soon_threadsafe``.
* Server counters and latency histograms live on the **volatile plane**
  of one :class:`~repro.obs.telemetry.TelemetrySession`; ``/metrics``
  snapshots it and ``/status`` renders a ``repro-serve/1`` document in
  the style of the sweep status sidecar.

Endpoints: ``POST /query`` (also GET with querystring), ``GET
/status``, ``GET /metrics``, ``GET /workloads``.  Errors: 400 for bad
JSON / malformed specs (:class:`~repro.graphs.GraphSpecError`), 404
for unknown workloads (with did-you-mean) or paths, 408 for a request
begun but not complete within ``REQUEST_TIMEOUT_S`` (a connection idle
that long is closed without an answer), 413 for a body declared
longer than ``MAX_BODY_BYTES``, 431 for a request line plus headers
longer than ``MAX_HEAD_BYTES``, 429 (``Retry-After: 1``) when
admission is full, 503 while draining or when the pool quarantines a
cell (deadline/chaos).  A refusal that closes the connection (400,
408, 413, 431) closes it lingering, so the client reads the answer
even while it is still sending.

Drain: SIGTERM/SIGINT stops accepting connections, waits for in-flight
queries, shuts the dispatcher and pool down, and exits 0.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from ..graphs import GraphSpecError
from ..obs.telemetry import TelemetrySession, parse_series_key, span
from ..batch.cache import GraphCache
from ..batch.pool import PoolCrashError, SharedPool, TaskSource
from ..batch.registry import WorkloadError, get_workload, workload_names
from ..batch.status import fabric_tallies, format_duration
from ..batch.store import canonical_line
from ..batch.sweep import SweepCell, _process_cell, run_cell
from .cache import ResultCache

#: Version tag on every serve JSON document (status, metrics, errors).
SERVE_SCHEMA = "repro-serve/1"

#: HTTP reason phrases for the statuses the server emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: How long a drain waits for in-flight queries before giving up.
DRAIN_TIMEOUT_S = 30.0

#: Distinct cells that may be outstanding per worker (the inline
#: backend counts as one); a miss beyond that is refused with 429.
ADMISSION_PER_WORKER = 256

#: Largest request body read; a query body is ~80 bytes.
MAX_BODY_BYTES = 64 * 1024

#: Largest request head (request line plus headers) read; curl sends
#: ~100 bytes.
MAX_HEAD_BYTES = 16 * 1024

#: Longest wait for a request's head and body, counted from the end of
#: the previous response (or the connection's start); past it a begun
#: request gets 408 and an idle connection is closed.  Load generators
#: send back to back, so their idle gaps are milliseconds.
REQUEST_TIMEOUT_S = 30.0


class _Refusal(Exception):
    """A request the server answers with ``status`` and then closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _RequestClock:
    """The deadline of the request one connection is reading.

    The handler sets :attr:`deadline` (a loop time) when it starts
    waiting for a request and clears it once the request is in.  One
    timer per connection checks it and cancels the handler's task once
    a set deadline has passed.  The timer is re-armed only when it
    fires, at the deadline then set or ``REQUEST_TIMEOUT_S`` later, so a
    request costs two attribute stores, not a timer of its own.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._task = asyncio.current_task()
        self.deadline: Optional[float] = None
        self.expired = False
        self._timer = loop.call_later(REQUEST_TIMEOUT_S, self._check)

    def _check(self) -> None:
        now = self._loop.time()
        if self.deadline is not None and now >= self.deadline:
            self.expired = True
            self._task.cancel()
            return
        when = self.deadline
        if when is None:
            when = now + REQUEST_TIMEOUT_S
        self._timer = self._loop.call_at(when, self._check)

    def caused_cancel(self) -> bool:
        """Whether the task's cancellation came from this clock alone:
        Python 3.11+ counts cancel requests, and one from elsewhere as
        well stays a cancellation."""
        return self.expired and not (
            hasattr(self._task, "uncancel") and self._task.uncancel()
        )

    def close(self) -> None:
        self._timer.cancel()


@dataclass(frozen=True)
class ServeConfig:
    """Configuration for one :class:`ReproServe` instance.

    ``port=0`` binds an ephemeral port (tests); ``backend="inline"``
    executes cells on the dispatcher thread itself — no worker
    processes, same rows — while ``"process"`` keeps a persistent
    :class:`~repro.batch.pool.SharedPool` hot for the server's
    lifetime.  ``deadline_s``/``max_attempts`` arm the pool's
    hung-worker watchdog per cell; ``chaos`` is the deterministic
    fault-injection hook the 503 tests use.
    """

    host: str = "127.0.0.1"
    port: int = 8673
    backend: str = "inline"
    workers: Optional[int] = None
    cache_size: int = 1024
    deadline_s: Optional[float] = None
    max_attempts: Optional[int] = None
    chaos: Optional[Any] = None


class QueryError(Exception):
    """A request rejected before dispatch (maps to an HTTP status)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def serve_tallies(volatile_counters: Dict[str, Any]) -> Dict[str, int]:
    """Collapse ``serve_requests{...}`` counters into flat tallies,
    the way :func:`~repro.batch.status.fabric_tallies` does for the
    pool's counters."""
    tallies = {"hit": 0, "miss": 0, "flight": 0, "error": 0}
    for key, value in volatile_counters.items():
        name, labels = parse_series_key(key)
        if name == "serve_requests" and labels.get("outcome") in tallies:
            tallies[labels["outcome"]] += int(value)
    tallies["total"] = sum(tallies.values())
    return tallies


def render_serve_status(doc: Dict[str, Any]) -> List[str]:
    """Human-readable lines for a serve status document."""
    requests = doc.get("requests", {})
    cache = doc.get("cache", {})
    tasks = doc.get("tasks", {})
    fabric = doc.get("fabric", {})
    lines = [
        f"serve: {str(doc.get('state', '?')).upper()} "
        f"backend={doc.get('backend', '?')} "
        f"workers={doc.get('workers', '?')} "
        f"uptime {format_duration(doc.get('uptime_s'))}"
    ]
    lines.append(
        f"  requests {requests.get('total', 0)} "
        f"(hit {requests.get('hit', 0)}, miss {requests.get('miss', 0)}, "
        f"flight {requests.get('flight', 0)}, "
        f"error {requests.get('error', 0)})"
    )
    lines.append(
        f"  cache {cache.get('size', 0)}/{cache.get('capacity', 0)} "
        f"entries (hits {cache.get('hits', 0)}, "
        f"misses {cache.get('misses', 0)}, "
        f"evictions {cache.get('evictions', 0)})"
    )
    lines.append(
        f"  tasks ok {tasks.get('ok', 0)}, error {tasks.get('error', 0)}, "
        f"quarantined {tasks.get('quarantined', 0)}; "
        f"inflight {doc.get('inflight', 0)}"
    )
    lines.append(
        f"  fabric dispatched {fabric.get('dispatched', 0)}, "
        f"completed {fabric.get('completed', 0)}, "
        f"retried {fabric.get('retried', 0)}, "
        f"respawns {fabric.get('respawns', 0)}"
    )
    return lines


def _as_int(doc: Dict[str, Any], name: str, default: int) -> int:
    """An integer field from a query document (str digits accepted —
    GET querystrings arrive as strings)."""
    value = doc.get(name, default)
    if isinstance(value, bool):
        raise QueryError(400, f"query field {name!r} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    raise QueryError(
        400, f"query field {name!r} must be an integer, got {value!r}"
    )


def build_cell(doc: Dict[str, Any]) -> Tuple[SweepCell, Optional[str]]:
    """Validate a query document into a cell + provider module.

    Raises :class:`QueryError` — 400 for malformed fields, 404 for an
    unknown workload (the registry message carries did-you-mean).
    Spec *contents* are validated where graphs are built (the worker),
    so a bad spec surfaces as a dispatched
    :class:`~repro.graphs.GraphSpecError` instead.
    """
    if not isinstance(doc, dict):
        raise QueryError(400, "query body must be a JSON object")
    spec = doc.get("spec")
    if not isinstance(spec, str) or not spec:
        raise QueryError(400, "query field 'spec' must be a graph spec string")
    name = doc.get("workload", "kdom")
    if not isinstance(name, str):
        raise QueryError(400, "query field 'workload' must be a string")
    try:
        workload = get_workload(name)
    except WorkloadError as exc:
        raise QueryError(404, str(exc))
    cell = SweepCell(
        workload=name,
        spec=spec,
        seed=_as_int(doc, "seed", 0),
        k=_as_int(doc, "k", 2),
    )
    return cell, workload.provider


def classify_failure(exc: BaseException) -> int:
    """HTTP status for an exception raised while executing a cell."""
    if isinstance(exc, GraphSpecError):
        return 400
    if isinstance(exc, WorkloadError):
        return 404
    return 500


class ReproServe:
    """One server instance: cache + single-flight + dispatcher.

    Lifecycle: construct, ``await start()`` on the serving loop, then
    ``await drain()`` to stop.  :func:`running_server` packages that
    for synchronous callers (tests, the perf harness);
    :func:`run_server` adds signal handling for the CLI.
    """

    def __init__(self, config: ServeConfig) -> None:
        if config.backend not in ("inline", "process"):
            raise ValueError(
                f"backend must be 'inline' or 'process', "
                f"got {config.backend!r}"
            )
        if config.chaos is not None and config.backend != "process":
            raise ValueError("chaos injection requires backend='process'")
        self.config = config
        self.state = "starting"
        self.session = TelemetrySession()
        self.cache = ResultCache(config.cache_size)
        self._registry = self.session.registry
        self._inflight: Dict[str, asyncio.Future] = {}
        self._tasks: "queue.Queue[Optional[Tuple[str, SweepCell, Optional[str]]]]" = (
            queue.Queue()
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._pool: Optional[SharedPool] = None
        self._source: Optional[TaskSource] = None
        self._graph_cache = GraphCache()
        self._writers: set = set()
        self._started_monotonic = 0.0
        self._request_seq = 0

    # -- lifecycle ---------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, start the dispatcher, begin serving."""
        self._loop = asyncio.get_running_loop()
        self._started_monotonic = time.monotonic()
        if self.config.backend == "process":
            self._pool = SharedPool(workers=self.config.workers)
            self._source = TaskSource()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._thread.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.state = "running"

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def workers(self) -> int:
        """Worker processes actually executing cells (1 when inline)."""
        return self._pool.workers if self._pool is not None else 1

    async def drain(self) -> None:
        """Graceful stop: no new connections, finish in-flight queries,
        shut the dispatcher and pool down."""
        if self.state in ("draining", "stopped"):
            return
        self.state = "draining"
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if self._source is not None:
            self._source.close()
        else:
            self._tasks.put(None)
        if self._thread is not None:
            await self._loop.run_in_executor(None, self._thread.join)
        if self._pool is not None:
            self._pool.close()
        for writer in list(self._writers):
            writer.close()
        self.state = "stopped"

    # -- dispatcher thread -------------------------------------------

    def _dispatch_loop(self) -> None:
        """Execute handed-over cells until the server drains: the
        process backend's pool call, or inline batches of the task
        queue until its shutdown sentinel.

        Runs with the server's telemetry session ambient on this thread
        so the pool's fabric counters and ``run_cell``'s task spans
        accumulate in the same registry ``/metrics`` snapshots.
        """
        with self.session.activate():
            if self._source is not None:
                self._drain_source(self._source)
                return
            while True:
                item = self._tasks.get()
                if item is None:
                    return
                batch = [item]
                while True:
                    try:
                        extra = self._tasks.get_nowait()
                    except queue.Empty:
                        break
                    if extra is None:
                        self._run_batch(batch)
                        return
                    batch.append(extra)
                self._run_batch(batch)

    def _drain_source(self, source: TaskSource) -> None:
        """Process backend: one pool call over the open source, posting
        each cell's outcome as it finishes.  A :class:`PoolCrashError`
        ends a call; the cells it lost are answered and a new call
        opens on the same source.  The cell in each item carries the
        key its outcome resolves."""
        while True:
            try:
                for index, state, payload in self._pool.imap(
                    _process_cell,
                    source,
                    deadline_s=self.config.deadline_s,
                    max_attempts=self.config.max_attempts,
                    chaos=self.config.chaos,
                ):
                    key = source.items[index][0].key
                    if state == "ok":
                        self._post(
                            key, ("ok", payload["row"], payload["telemetry"])
                        )
                    else:
                        self._post(key, (state, payload))
                return
            except PoolCrashError as exc:
                for cell, _provider, _profile_dir in exc.pending_items:
                    self._post(cell.key, ("error", exc))

    def _run_batch(
        self, batch: List[Tuple[str, SweepCell, Optional[str]]]
    ) -> None:
        """Hand ``(key, cell, provider)`` triples to execution: to the
        process backend's source, or run here when inline."""
        self._registry.histogram("serve_batch_cells", volatile=True).observe(
            len(batch)
        )
        if self._source is not None:
            for _key, cell, provider in batch:
                self._source.put((cell, provider, None))
            return
        for key, cell, provider in batch:
            try:
                row = run_cell(cell, self._graph_cache, provider)
            except Exception as exc:
                self._post(key, ("error", exc))
            else:
                self._post(key, ("ok", row, None))

    def _post(self, key: str, outcome: Tuple[Any, ...]) -> None:
        """Hop a finished cell back to the event-loop thread."""
        self._loop.call_soon_threadsafe(self._resolve, key, outcome)

    # -- loop-thread resolution --------------------------------------

    def _resolve(self, key: str, outcome: Tuple[Any, ...]) -> None:
        kind = outcome[0]
        if kind == "ok":
            row, shipped = outcome[1], outcome[2]
            if shipped is not None:
                self.session.merge(shipped)
            body = (canonical_line(row) + "\n").encode("utf-8")
            self.cache.put(key, body)
            self._registry.gauge("serve_cache_entries", volatile=True).set(
                len(self.cache)
            )
            outcome = ("ok", body)
        self._registry.counter("serve_tasks", volatile=True).inc(
            1, state=kind
        )
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(outcome)

    # -- HTTP --------------------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._writers.add(writer)
        loop = asyncio.get_running_loop()
        clock = _RequestClock(loop)
        try:
            while True:
                clock.deadline = loop.time() + REQUEST_TIMEOUT_S
                first = b""
                try:
                    # A deadline that passes before a request's first byte
                    # closes the connection unanswered: a keep-alive
                    # client must not read a 408 it did not ask for.
                    first = await reader.read(1)
                    if not first:
                        break
                    request = await self._read_request(reader, first)
                except asyncio.CancelledError:
                    if not clock.caused_cancel():
                        raise
                    if first:
                        await self._refuse(reader, writer, clock, 408, (
                            f"no complete request within {REQUEST_TIMEOUT_S:g} s"
                        ))
                    break
                except _Refusal as refusal:
                    await self._refuse(
                        reader, writer, clock, refusal.status, str(refusal)
                    )
                    break
                clock.deadline = None
                (method, target, version), headers, body = request
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                    and self.state == "running"
                )
                status, payload, extra = await self._route(
                    method, target, body
                )
                await self._respond(
                    writer, status, payload, extra, close=not keep_alive
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            clock.close()
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, first: bytes
    ) -> Tuple[List[str], Dict[str, str], bytes]:
        """Read the rest of the request whose ``first`` byte has been
        read: its request line's three parts, its headers and its body.
        Raises :class:`_Refusal` for 400 (malformed request line or
        Content-Length), 413 (a body declared longer than
        ``MAX_BODY_BYTES``) and 431 (a head past ``MAX_HEAD_BYTES``, or
        past the stream's own line limit, which makes ``readline`` raise
        ``ValueError``)."""
        request_line = first
        # Bytes of this request's head read so far.
        head_bytes = 0
        try:
            if first != b"\n":  # else the first byte ends the line
                request_line += await reader.readline()
            head_bytes = len(request_line)
            parts = request_line.decode("latin-1").split()
            headers: Dict[str, str] = {}
            while len(parts) == 3 and head_bytes <= MAX_HEAD_BYTES:
                line = await reader.readline()
                head_bytes += len(line)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:
            head_bytes = MAX_HEAD_BYTES + 1
        if head_bytes > MAX_HEAD_BYTES:
            raise _Refusal(
                431, f"request head exceeds the {MAX_HEAD_BYTES}-byte limit"
            )
        if len(parts) != 3:
            raise _Refusal(400, "malformed request line")
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise _Refusal(400, "bad Content-Length header")
        if length > MAX_BODY_BYTES:
            raise _Refusal(413, (
                f"request body of {length} bytes exceeds "
                f"the {MAX_BODY_BYTES}-byte limit"
            ))
        body = await reader.readexactly(length) if length else b""
        return parts, headers, body

    async def _refuse(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        clock: _RequestClock,
        status: int,
        message: str,
    ) -> None:
        """Answer ``status`` and close without losing the answer: shut
        the write side, then discard input until EOF or the request's
        deadline.  Closing with unread input would make the kernel send
        RST, and the client would drop the response it has not read
        yet."""
        await self._respond(
            writer, status, self._error_body(status, message), close=True
        )
        writer.write_eof()
        if clock.expired:
            return
        try:
            while await reader.read(64 * 1024):
                pass
        except asyncio.CancelledError:
            if not clock.caused_cancel():
                raise

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        extra: Tuple[Tuple[str, str], ...] = (),
        close: bool = False,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        for name, value in extra:
            head += f"{name}: {value}\r\n"
        head += (
            "Connection: close\r\n\r\n"
            if close
            else "Connection: keep-alive\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    def _error_body(self, status: int, message: str, **extra: Any) -> bytes:
        self._registry.counter("serve_errors", volatile=True).inc(
            1, code=str(status)
        )
        doc = {"schema": SERVE_SCHEMA, "status": status, "error": message}
        doc.update(extra)
        return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, bytes, Tuple[Tuple[str, str], ...]]:
        split = urlsplit(target)
        path = split.path
        if path == "/query":
            if method == "POST":
                if body:
                    try:
                        doc = json.loads(body.decode("utf-8"))
                    except (UnicodeDecodeError, ValueError):
                        return 400, self._error_body(
                            400, "request body is not valid JSON"
                        ), ()
                else:
                    doc = dict(parse_qsl(split.query))
            elif method == "GET":
                doc = dict(parse_qsl(split.query))
            else:
                return 405, self._error_body(
                    405, f"{method} not allowed on /query"
                ), ()
            return await self._handle_query(doc)
        if method != "GET":
            return 405, self._error_body(
                405, f"{method} not allowed on {path}"
            ), ()
        if path == "/metrics":
            doc = {"schema": SERVE_SCHEMA, "document": "metrics"}
            doc.update(self.session.snapshot())
            return 200, (
                json.dumps(doc, sort_keys=True) + "\n"
            ).encode("utf-8"), ()
        if path == "/status":
            doc = self.status_document()
            return 200, (
                json.dumps(doc, sort_keys=True) + "\n"
            ).encode("utf-8"), ()
        if path == "/workloads":
            doc = {
                "schema": SERVE_SCHEMA,
                "document": "workloads",
                "workloads": list(workload_names()),
            }
            return 200, (
                json.dumps(doc, sort_keys=True) + "\n"
            ).encode("utf-8"), ()
        return 404, self._error_body(404, f"no such endpoint: {path}"), ()

    async def _handle_query(
        self, doc: Dict[str, Any]
    ) -> Tuple[int, bytes, Tuple[Tuple[str, str], ...]]:
        started = time.perf_counter()
        requests = self._registry.counter("serve_requests", volatile=True)
        self._request_seq += 1
        request_id = self._request_seq
        outcome = "error"
        try:
            if self.state != "running":
                return 503, self._error_body(
                    503, "server is draining"
                ), ()
            try:
                cell, provider = build_cell(doc)
            except QueryError as exc:
                return exc.status, self._error_body(
                    exc.status, str(exc)
                ), ()
            key = cell.key
            # Each connection's task has its own context, so the spans
            # of interleaved requests do not nest in one another.
            with span("request", f"{key}#{request_id}", name=key):
                cached = self.cache.get(key)
                if cached is not None:
                    outcome = "hit"
                    return 200, cached, (("X-Serve-Cache", "hit"),)
                future = self._inflight.get(key)
                if future is not None:
                    outcome = "flight"
                    flavor = "flight"
                else:
                    limit = ADMISSION_PER_WORKER * self.workers
                    if len(self._inflight) >= limit:
                        return 429, self._error_body(
                            429, f"{limit} distinct cells already outstanding"
                        ), (("Retry-After", "1"),)
                    outcome = "miss"
                    flavor = "miss"
                    future = self._loop.create_future()
                    self._inflight[key] = future
                    if self._source is not None:
                        self._run_batch([(key, cell, provider)])
                    else:
                        self._tasks.put((key, cell, provider))
                result = await future
                kind = result[0]
                if kind == "ok":
                    return 200, result[1], (("X-Serve-Cache", flavor),)
                if kind == "quarantined":
                    outcome = "error"
                    info = result[1]
                    tally = fabric_tallies(
                        self._registry.volatile_counters
                    )["quarantined"]
                    return 503, self._error_body(
                        503,
                        f"cell {key} quarantined after "
                        f"{info.get('attempts')} attempt(s) "
                        f"({info.get('reason')})",
                        quarantined=info,
                        quarantine_tally=tally,
                    ), ()
                outcome = "error"
                exc = result[1]
                status = classify_failure(exc)
                return status, self._error_body(
                    status, f"{type(exc).__name__}: {exc}"
                ), ()
        finally:
            requests.inc(1, endpoint="query", outcome=outcome)
            self._registry.histogram(
                "serve_request_seconds", volatile=True
            ).observe(time.perf_counter() - started, endpoint="query")

    # -- documents ---------------------------------------------------

    def status_document(self) -> Dict[str, Any]:
        """The ``/status`` JSON document (``repro-serve/1``)."""
        volatile = self._registry.volatile_counters
        tasks = {"ok": 0, "error": 0, "quarantined": 0}
        for key, value in volatile.items():
            name, labels = parse_series_key(key)
            if name == "serve_tasks" and labels.get("state") in tasks:
                tasks[labels["state"]] += int(value)
        return {
            "schema": SERVE_SCHEMA,
            "document": "status",
            "state": self.state,
            "backend": self.config.backend,
            "workers": self.workers,
            "uptime_s": time.monotonic() - self._started_monotonic,
            "requests": serve_tallies(volatile),
            "tasks": tasks,
            "cache": self.cache.stats(),
            "inflight": len(self._inflight),
            "fabric": fabric_tallies(volatile),
            "workloads": list(workload_names()),
        }


def run_server(config: ServeConfig, echo=print) -> int:
    """Run a server until SIGTERM/SIGINT, then drain.  Returns 0.

    This is ``repro serve``: it prints a ready line once the socket is
    bound (the CI smoke job polls for it) and a drain line on the way
    out.
    """
    import signal

    async def main() -> None:
        server = ReproServe(config)
        await server.start()
        echo(
            f"{SERVE_SCHEMA} listening on "
            f"http://{config.host}:{server.port} "
            f"(backend={config.backend}, workers={server.workers}, "
            f"cache={config.cache_size})",
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        echo("draining: waiting for in-flight queries ...")
        await server.drain()
        echo("drained cleanly")

    asyncio.run(main())
    return 0


@contextmanager
def running_server(config: ServeConfig):
    """A live server on a background thread — for tests and the perf
    harness.  Yields the :class:`ReproServe`; drains on exit."""
    server = ReproServe(config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: List[BaseException] = []

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind errors to the caller
            failure.append(exc)
            started.set()
            return
        started.set()
        loop.run_forever()
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()

    thread = threading.Thread(
        target=runner, name="repro-serve-loop", daemon=True
    )
    thread.start()
    started.wait(timeout=10)
    if failure:
        raise failure[0]
    try:
        yield server
    finally:
        future = asyncio.run_coroutine_threadsafe(server.drain(), loop)
        future.result(timeout=DRAIN_TIMEOUT_S + 5)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
