"""End-to-end tests for the `repro serve` query server.

The load-bearing contract: a served response body is byte-identical to
the corresponding row of a finalized ``run_sweep`` store.  Around it,
the error paths (400 malformed spec, 404 did-you-mean, 408 stalled
request, 413 oversized body, 429 full admission, 431 oversized head,
503 quarantine with tally; refusals reach a client still sending),
single-flight dedup, concurrent misses on the process backend, LRU
eviction, and the status/metrics documents.
"""

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.batch import SweepGrid, run_sweep
from repro.batch.registry import register_workload
from repro.serve import (
    SERVE_SCHEMA,
    QueryError,
    ServeConfig,
    build_cell,
    query_body,
    render_serve_status,
    run_load,
    running_server,
    serve_tallies,
)
from repro.serve import server as server_module

# --- a gate workload the single-flight test can hold open ------------
_GATE_STARTED = threading.Event()
_GATE_RELEASE = threading.Event()


@register_workload("serve-gate")
def _gate_workload(graph, cell):
    """Test-only workload that blocks until the test releases it."""
    _GATE_STARTED.set()
    assert _GATE_RELEASE.wait(timeout=30), "gate never released"
    return {"rounds": 0, "gated": True}


# --- a pair of cells that only finish when they run at the same time -
#: Directory of the pair's marker files; set before the pool forks.
_PAIR_DIR = []


@register_workload("serve-pair")
def _pair_workload(graph, cell):
    """Test-only workload: marks its cell, then waits for the other's."""
    with open(os.path.join(_PAIR_DIR[-1], str(cell.seed)), "w"):
        pass
    other = os.path.join(_PAIR_DIR[-1], str(1 - cell.seed))
    deadline = time.monotonic() + 10
    while not os.path.exists(other):
        if time.monotonic() > deadline:
            raise TimeoutError(f"cell {1 - cell.seed} never started")
        time.sleep(0.01)
    return {"rounds": 0, "paired": True}


@register_workload("serve-crash")
def _crash_workload(graph, cell):
    """Test-only workload that kills its worker process."""
    os._exit(13)


def wait_for(predicate, timeout=10):
    """Poll ``predicate`` until it holds; fail after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("condition never held")
        time.sleep(0.01)


def http(port, path, body=None, method=None, timeout=30):
    """One request; returns (status, body_bytes, headers)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        method=method or ("POST" if body is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read(), dict(exc.headers)


@pytest.fixture()
def inline_server():
    config = ServeConfig(port=0, backend="inline", cache_size=4)
    with running_server(config) as server:
        yield server


class TestByteIdentity:
    def test_served_equals_direct_run_sweep_row(self, tmp_path):
        grid = SweepGrid(
            workload="kdom", specs=("tree:n=40",), seeds=(0,), ks=(2,)
        )
        store = tmp_path / "direct.jsonl"
        run_sweep(grid, store_path=str(store), backend="inline")
        row_line = store.read_bytes().splitlines(keepends=True)[-1]
        with running_server(
            ServeConfig(port=0, backend="inline", cache_size=4)
        ) as server:
            body = query_body("kdom", "tree:n=40", 0, 2)
            status, served, headers = http(server.port, "/query", body)
            assert status == 200
            assert served == row_line
            assert headers["X-Serve-Cache"] == "miss"
            # The hit path replays the same bytes.
            status, again, headers = http(server.port, "/query", body)
            assert status == 200
            assert again == row_line
            assert headers["X-Serve-Cache"] == "hit"


class TestErrorPaths:
    def test_malformed_spec_is_400_with_graphspec_message(
        self, inline_server
    ):
        body = query_body("kdom", "banana:n=8", 0, 2)
        status, payload, _ = http(inline_server.port, "/query", body)
        assert status == 400
        doc = json.loads(payload)
        assert doc["schema"] == SERVE_SCHEMA
        assert "GraphSpecError" in doc["error"]
        assert "banana" in doc["error"]

    def test_bad_spec_value_is_400(self, inline_server):
        body = query_body("kdom", "tree:n=banana", 0, 2)
        status, payload, _ = http(inline_server.port, "/query", body)
        assert status == 400
        assert "GraphSpecError" in json.loads(payload)["error"]

    def test_unknown_workload_is_404_with_did_you_mean(
        self, inline_server
    ):
        body = query_body("kdmo", "tree:n=8", 0, 2)
        status, payload, _ = http(inline_server.port, "/query", body)
        assert status == 404
        assert "did you mean 'kdom'?" in json.loads(payload)["error"]

    def test_bad_json_body_is_400(self, inline_server):
        status, payload, _ = http(
            inline_server.port, "/query", b"{not json"
        )
        assert status == 400
        assert "not valid JSON" in json.loads(payload)["error"]

    def test_missing_spec_is_400(self, inline_server):
        status, payload, _ = http(
            inline_server.port, "/query", b'{"workload": "kdom"}'
        )
        assert status == 400
        assert "'spec'" in json.loads(payload)["error"]

    def test_unknown_path_is_404(self, inline_server):
        status, payload, _ = http(inline_server.port, "/nope")
        assert status == 404
        assert "no such endpoint" in json.loads(payload)["error"]

    def test_method_not_allowed_is_405(self, inline_server):
        status, _, _ = http(
            inline_server.port, "/status", b"{}", method="POST"
        )
        assert status == 405


class TestQuarantine:
    class _AlwaysHang:
        """Chaos stub: every attempt of every task hangs."""

        def op_for(self, index, attempt):
            return ("hang",)

    def test_pool_deadline_is_503_with_tally(self):
        config = ServeConfig(
            port=0,
            backend="process",
            workers=1,
            cache_size=4,
            deadline_s=0.5,
            max_attempts=1,
            chaos=self._AlwaysHang(),
        )
        with running_server(config) as server:
            body = query_body("kdom", "tree:n=8", 0, 2)
            status, payload, _ = http(server.port, "/query", body)
            assert status == 503
            doc = json.loads(payload)
            assert "quarantined" in doc["error"]
            assert doc["quarantined"]["attempts"] == 1
            assert doc["quarantine_tally"] >= 1
            # The failure is not cached: the cell stays answerable.
            status_doc = json.loads(
                http(server.port, "/status")[1]
            )
            assert status_doc["cache"]["size"] == 0
            assert status_doc["tasks"]["quarantined"] == 1


class TestSingleFlight:
    def test_identical_concurrent_queries_run_once(self, inline_server):
        _GATE_STARTED.clear()
        _GATE_RELEASE.clear()
        port = inline_server.port
        body = query_body("serve-gate", "tree:n=8", 0, 2)
        results = []

        def issue():
            results.append(http(port, "/query", body))

        threads = [threading.Thread(target=issue) for _ in range(5)]
        threads[0].start()
        assert _GATE_STARTED.wait(timeout=10)
        for thread in threads[1:]:
            thread.start()
        # Every handler counts a cache miss before attaching to the
        # in-flight future — once misses reach 5, all five requests
        # are parked on the same future.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            doc = json.loads(http(port, "/status")[1])
            if doc["cache"]["misses"] >= 5:
                break
            time.sleep(0.01)
        else:
            pytest.fail("five concurrent queries never arrived")
        assert doc["inflight"] == 1
        _GATE_RELEASE.set()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 5
        bodies = {payload for _status, payload, _headers in results}
        assert {status for status, _p, _h in results} == {200}
        assert len(bodies) == 1  # identical bytes for every waiter
        doc = json.loads(http(port, "/status")[1])
        assert doc["tasks"]["ok"] == 1  # one pool task, not five
        assert doc["requests"]["miss"] == 1
        assert doc["requests"]["flight"] == 4


class TestConcurrentMisses:
    def test_two_misses_run_at_once(self, tmp_path):
        """A second miss is dispatched to the free worker while the
        first still runs: each cell waits for the other's marker."""
        _PAIR_DIR.append(str(tmp_path))
        config = ServeConfig(
            port=0, backend="process", workers=2, cache_size=4
        )
        results = {}
        with running_server(config) as server:

            def send(seed):
                body = query_body("serve-pair", "tree:n=8", seed, 2)
                results[seed] = http(server.port, "/query", body)

            threads = [
                threading.Thread(target=send, args=(seed,))
                for seed in (0, 1)
            ]
            threads[0].start()
            wait_for((tmp_path / "0").exists)
            threads[1].start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        assert results[0][0] == 200, results[0][1]
        assert results[1][0] == 200, results[1][1]


class TestPoolCrash:
    def test_lost_cell_is_answered_and_serving_goes_on(self):
        config = ServeConfig(
            port=0, backend="process", workers=1, cache_size=4,
            max_attempts=99,
        )
        with running_server(config) as server:
            body = query_body("serve-crash", "tree:n=8", 0, 2)
            status, payload, _ = http(server.port, "/query", body)
            assert status == 500
            assert "PoolCrashError" in json.loads(payload)["error"]
            body = query_body("kdom", "tree:n=8", 0, 2)
            assert http(server.port, "/query", body)[0] == 200


class TestAdmission:
    def test_misses_beyond_the_bound_get_429(self, monkeypatch):
        monkeypatch.setattr(server_module, "ADMISSION_PER_WORKER", 2)
        _GATE_STARTED.clear()
        _GATE_RELEASE.clear()
        gate = query_body("serve-gate", "tree:n=8", 0, 2)
        queued = query_body("kdom", "tree:n=8", 0, 2)
        refused = query_body("kdom", "tree:n=8", 1, 2)
        config = ServeConfig(port=0, backend="inline", cache_size=8)
        results = []
        try:
            with running_server(config) as server:
                port = server.port

                def inflight():
                    return json.loads(http(port, "/status")[1])["inflight"]

                def send(body):
                    thread = threading.Thread(
                        target=lambda: results.append(
                            http(port, "/query", body)
                        )
                    )
                    thread.start()
                    return thread

                threads = [send(gate)]
                assert _GATE_STARTED.wait(timeout=10)
                threads.append(send(queued))
                wait_for(lambda: inflight() == 2)
                status, payload, headers = http(port, "/query", refused)
                assert status == 429
                assert headers["Retry-After"] == "1"
                assert json.loads(payload)["status"] == 429
                # Joining an in-flight key is still admitted (a handler
                # counts its cache miss before it joins the flight).
                threads.append(send(gate))
                wait_for(lambda: json.loads(
                    http(port, "/status")[1]
                )["cache"]["misses"] == 4)
                assert inflight() == 2
                _GATE_RELEASE.set()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert [r[0] for r in results] == [200, 200, 200]
                assert http(port, "/query", refused)[0] == 200
        finally:
            _GATE_RELEASE.set()


class TestBodyCap:
    def test_oversized_body_is_413_without_reading_it(self, inline_server):
        port = inline_server.port
        declared = server_module.MAX_BODY_BYTES + 1
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: %d\r\n\r\n" % declared
            )
            response = sock.makefile("rb").read()
        assert response.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")
        assert b"Connection: close" in response
        assert http(port, "/status")[0] == 200


def _distinct_headers(total):
    """About ``total`` bytes of distinct ~64-byte header lines."""
    return b"".join(
        b"X-Filler-%06d: %s\r\n" % (i, b"v" * 44) for i in range(total // 64 + 1)
    )


class TestHeadCap:
    @pytest.mark.parametrize(
        "head",
        [
            # Many short lines, together past MAX_HEAD_BYTES.
            b"GET /status HTTP/1.1\r\n"
            + _distinct_headers(server_module.MAX_HEAD_BYTES + 1024)
            + b"\r\n",
            # One 70 KB header line: past asyncio's own 64 KiB line limit.
            b"GET /status HTTP/1.1\r\nX-Long: " + b"v" * 70_000 + b"\r\n\r\n",
            # One 70 KB request line.
            b"GET /status?" + b"v" * 70_000 + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["many-headers", "long-header-line", "long-request-line"],
    )
    def test_oversized_head_is_431(self, inline_server, head):
        port = inline_server.port
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(head)
            response = sock.makefile("rb").read()
        assert response.startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n"
        )
        assert b"Connection: close" in response
        assert http(port, "/status")[0] == 200


class TestRequestTimeout:
    @pytest.mark.parametrize(
        "sent", [b"", b"GET /sta"], ids=["idle", "partial-request-line"]
    )
    def test_stalled_request_is_408(self, inline_server, monkeypatch, sent):
        monkeypatch.setattr(server_module, "REQUEST_TIMEOUT_S", 0.2)
        port = inline_server.port
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(sent)
            response = sock.makefile("rb").read()
        assert response.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert b"Connection: close" in response
        assert http(port, "/status")[0] == 200


class TestLingeringClose:
    # Input the server refuses to read is still arriving when it
    # answers; closing at once would reset the connection and the
    # client would lose the answer.
    @pytest.mark.parametrize(
        "request_bytes,status_line",
        [
            (
                b"POST /query HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 1000000\r\n\r\n" + b"x" * 1_000_000,
                b"HTTP/1.1 413 Payload Too Large\r\n",
            ),
            (
                b"GET /status HTTP/1.1\r\n"
                + _distinct_headers(1_000_000)
                + b"\r\n",
                b"HTTP/1.1 431 Request Header Fields Too Large\r\n",
            ),
        ],
        ids=["1MB-body", "1MB-head"],
    )
    def test_refusal_reaches_a_client_still_sending(
        self, inline_server, request_bytes, status_line
    ):
        port = inline_server.port
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(request_bytes)
            response = sock.makefile("rb").read()
        assert response.startswith(status_line)
        assert b"Connection: close" in response
        assert http(port, "/status")[0] == 200


class TestLRUEviction:
    def test_cache_size_bounds_entries_end_to_end(self):
        config = ServeConfig(port=0, backend="inline", cache_size=2)
        with running_server(config) as server:
            port = server.port
            for seed in (0, 1, 2):
                status, _, headers = http(
                    port, "/query", query_body("kdom", "tree:n=8", seed, 2)
                )
                assert status == 200
                assert headers["X-Serve-Cache"] == "miss"
            doc = json.loads(http(port, "/status")[1])
            assert doc["cache"]["size"] == 2
            assert doc["cache"]["evictions"] == 1
            # seed=0 was evicted: querying it again is a miss...
            _, _, headers = http(
                port, "/query", query_body("kdom", "tree:n=8", 0, 2)
            )
            assert headers["X-Serve-Cache"] == "miss"
            # ...while seed=2 is still resident.
            _, _, headers = http(
                port, "/query", query_body("kdom", "tree:n=8", 2, 2)
            )
            assert headers["X-Serve-Cache"] == "hit"


class TestDocuments:
    def test_status_document_and_renderer(self, inline_server):
        port = inline_server.port
        http(port, "/query", query_body("kdom", "tree:n=8", 0, 2))
        http(port, "/query", query_body("kdom", "tree:n=8", 0, 2))
        doc = json.loads(http(port, "/status")[1])
        assert doc["schema"] == SERVE_SCHEMA
        assert doc["state"] == "running"
        assert doc["backend"] == "inline"
        assert doc["workers"] == 1
        assert doc["requests"]["hit"] == 1
        assert doc["requests"]["miss"] == 1
        assert "kdom" in doc["workloads"]
        lines = render_serve_status(doc)
        assert lines[0].startswith("serve: RUNNING backend=inline")
        assert "requests 2 (hit 1, miss 1" in lines[1]
        assert "cache 1/4 entries" in lines[2]

    def test_metrics_document_carries_serve_counters(self, inline_server):
        port = inline_server.port
        http(port, "/query", query_body("kdom", "tree:n=8", 0, 2))
        doc = json.loads(http(port, "/metrics")[1])
        assert doc["schema"] == SERVE_SCHEMA
        counters = doc["volatile"]["counters"]
        assert (
            counters["serve_requests{endpoint=query,outcome=miss}"] == 1
        )
        assert counters["serve_tasks{state=ok}"] == 1
        histograms = doc["volatile"]["histograms"]
        assert any(
            key.startswith("serve_request_seconds") for key in histograms
        )

    def test_workloads_endpoint(self, inline_server):
        doc = json.loads(http(inline_server.port, "/workloads")[1])
        assert "kdom" in doc["workloads"]
        assert "mst" in doc["workloads"]

    def test_get_query_with_querystring(self, inline_server):
        status, payload, _ = http(
            inline_server.port,
            "/query?workload=kdom&spec=tree:n=8&seed=0&k=2",
        )
        assert status == 200
        row = json.loads(payload)
        assert row["cell"] == {
            "workload": "kdom", "spec": "tree:n=8", "seed": 0, "k": 2
        }


class TestLoadClient:
    def test_run_load_reports_throughput(self, inline_server):
        bodies = [query_body("kdom", "tree:n=8", 0, 2)] * 50
        report = run_load(
            "127.0.0.1", inline_server.port, bodies, concurrency=8
        )
        assert report["requests"] == 50
        assert report["errors"] == 0
        assert report["qps"] > 0
        assert report["statuses"] == {"200": 50}
        assert report["latency_p95_ms"] is not None


class TestDrain:
    def test_drained_server_refuses_connections(self):
        config = ServeConfig(port=0, backend="inline", cache_size=4)
        with running_server(config) as server:
            port = server.port
            assert http(port, "/status")[0] == 200
        assert server.state == "stopped"
        with pytest.raises(urllib.error.URLError):
            http(port, "/status", timeout=2)


class TestBuildCell:
    def test_defaults(self):
        cell, provider = build_cell({"spec": "tree:n=8"})
        assert cell.workload == "kdom"
        assert (cell.seed, cell.k) == (0, 2)
        assert provider == "repro.batch.sweep"  # where kdom registers

    def test_string_integers_accepted(self):
        cell, _ = build_cell(
            {"spec": "tree:n=8", "seed": "3", "k": "4"}
        )
        assert (cell.seed, cell.k) == (3, 4)

    @pytest.mark.parametrize(
        "doc, match",
        [
            ({}, "'spec'"),
            ({"spec": 7}, "'spec'"),
            ({"spec": "tree:n=8", "seed": "x"}, "'seed'"),
            ({"spec": "tree:n=8", "k": True}, "'k'"),
            ({"spec": "tree:n=8", "workload": 3}, "'workload'"),
        ],
    )
    def test_malformed_fields_are_400(self, doc, match):
        with pytest.raises(QueryError, match=match) as excinfo:
            build_cell(doc)
        assert excinfo.value.status == 400

    def test_unknown_workload_is_404(self):
        with pytest.raises(QueryError) as excinfo:
            build_cell({"spec": "tree:n=8", "workload": "nope"})
        assert excinfo.value.status == 404


class TestServeTallies:
    def test_collapses_outcome_labels(self):
        tallies = serve_tallies(
            {
                "serve_requests{endpoint=query,outcome=hit}": 3,
                "serve_requests{endpoint=query,outcome=miss}": 2,
                "serve_requests{endpoint=query,outcome=flight}": 1,
                "serve_requests{endpoint=query,outcome=error}": 1,
                "serve_tasks{state=ok}": 99,  # unrelated: ignored
            }
        )
        assert tallies == {
            "hit": 3, "miss": 2, "flight": 1, "error": 1, "total": 7
        }
