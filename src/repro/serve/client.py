"""Async load client for the query server.

``run_load`` drives many concurrent keep-alive connections at one
server, pulling query bodies from a shared iterator, and returns
throughput/latency/error aggregates.  It backs the ``benchmarks/
serve_load.py`` generator and the CI ``serve-smoke`` job — stdlib only,
like the server.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple


def query_body(
    workload: str, spec: str, seed: int, k: int
) -> bytes:
    """The JSON body for one ``POST /query``."""
    return json.dumps(
        {"workload": workload, "spec": spec, "seed": seed, "k": k},
        sort_keys=True,
    ).encode("utf-8")


async def _request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    host: str,
    body: bytes,
) -> Tuple[int, bytes]:
    """One keep-alive POST /query round trip: (status, body)."""
    writer.write(
        (
            f"POST /query HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        + body
    )
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = await reader.readexactly(length) if length else b""
    return status, payload


async def load_async(
    host: str,
    port: int,
    bodies: Iterable[bytes],
    concurrency: int = 32,
) -> Dict[str, Any]:
    """Issue every body in ``bodies`` across ``concurrency``
    connections; return the aggregate report."""
    iterator = iter(bodies)
    latencies: List[float] = []
    statuses: Dict[int, int] = {}
    failures = 0

    async def worker() -> None:
        nonlocal failures
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                try:
                    body = next(iterator)
                except StopIteration:
                    return
                begun = time.perf_counter()
                try:
                    status, _payload = await _request(
                        reader, writer, host, body
                    )
                except (
                    ConnectionResetError,
                    BrokenPipeError,
                    asyncio.IncompleteReadError,
                ):
                    failures += 1
                    return
                latencies.append(time.perf_counter() - begun)
                statuses[status] = statuses.get(status, 0) + 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    elapsed = time.perf_counter() - started
    total = sum(statuses.values())
    ordered = sorted(latencies)

    def quantile(q: float) -> Optional[float]:
        if not ordered:
            return None
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    errors = failures + sum(
        count for status, count in statuses.items() if status != 200
    )
    return {
        "requests": total,
        "seconds": elapsed,
        "qps": total / elapsed if elapsed > 0 else 0.0,
        "statuses": {str(s): c for s, c in sorted(statuses.items())},
        "errors": errors,
        "latency_p50_ms": (
            quantile(0.50) * 1000.0 if ordered else None
        ),
        "latency_p95_ms": (
            quantile(0.95) * 1000.0 if ordered else None
        ),
    }


def run_load(
    host: str,
    port: int,
    bodies: List[bytes],
    concurrency: int = 32,
) -> Dict[str, Any]:
    """Synchronous wrapper around :func:`load_async`."""
    return asyncio.run(
        load_async(host, port, bodies, concurrency=concurrency)
    )
