"""End-to-end server behavior: taxonomy, deadlines, coalescing,
backpressure, cache read-through, and graceful drain.

Each test talks to a real :class:`AnalysisServer` on a background
thread over a real TCP socket — the debug ``sleep`` endpoint makes
timing-dependent behavior (deadlines, coalescing, overload) cheap and
deterministic without running analyses.
"""

import asyncio
import socket
import struct

import pytest

from repro.pfs.config import RetryPolicy
from repro.serve import protocol
from repro.serve.client import ServeClient, request_sync
from repro.serve.handlers import prepare_cell
from repro.serve.server import ServeConfig, start_background
from repro.study.cache import ResultCache

#: a single attempt: tests asserting on 'overloaded' must see it raw,
#: not have the client politely retry it away
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.01, backoff=1.0,
                       jitter=0.0)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One debug server shared by the read-mostly tests."""
    cache = ResultCache(root=tmp_path_factory.mktemp("serve-cache"))
    handle = start_background(
        ServeConfig(workers=2, queue_limit=8, drain_s=2.0, debug=True),
        cache=cache)
    try:
        yield handle
    finally:
        handle.stop()


def ask(handle, endpoint, params=None, **kwargs):
    kwargs.setdefault("retry", NO_RETRY)
    return request_sync(handle.host, handle.port, endpoint,
                        params or {}, **kwargs)


class TestInlineEndpoints:
    def test_healthz(self, served):
        doc = ask(served, "healthz")
        assert doc["ok"] is True
        result = doc["result"]
        assert result["status"] == "ok"
        assert result["queue_limit"] == 8
        names = {ep["name"] for ep in result["endpoints"]}
        assert {"cell", "lint", "advise", "chaos", "healthz",
                "fingerprint", "metrics", "sleep"} <= names

    def test_fingerprint(self, served):
        from repro.study.cache import code_fingerprint

        result = ask(served, "fingerprint")["result"]
        assert result["fingerprint"] == code_fingerprint()
        assert result["cache_enabled"] is True

    def test_metrics_snapshot_is_live(self, served):
        before = ask(served, "metrics")["result"]["metrics"]
        ask(served, "healthz")
        after = ask(served, "metrics")["result"]["metrics"]
        assert after["server.requests"]["value"] \
            > before["server.requests"]["value"]


class TestTaxonomy:
    def test_unknown_endpoint(self, served):
        doc = ask(served, "divine")
        assert protocol.response_error_code(doc) \
            == protocol.ERR_BAD_REQUEST
        assert "known:" in doc["error"]["message"]

    def test_unknown_app(self, served):
        doc = ask(served, "cell", {"app": "NOPE"})
        assert protocol.response_error_code(doc) \
            == protocol.ERR_BAD_REQUEST

    def test_unknown_parameter(self, served):
        doc = ask(served, "cell",
                  {"app": "QMCPACK/HDF5", "banana": True})
        assert protocol.response_error_code(doc) \
            == protocol.ERR_BAD_REQUEST
        assert "banana" in doc["error"]["message"]

    def test_garbage_frame_answered_not_crashed(self, served):
        # raw socket: a valid length prefix around a non-JSON body
        with socket.create_connection(
                (served.host, served.port), timeout=5) as sock:
            body = b"certainly not json"
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = recv_frame(sock)
            assert protocol.response_error_code(response) \
                == protocol.ERR_BAD_REQUEST
            # the stream stayed usable: framing was never violated
            sock.sendall(protocol.encode_frame(
                {"endpoint": "healthz", "params": {}}))
            assert recv_frame(sock)["ok"] is True

    def test_oversized_frame_answered_then_closed(self, served):
        with socket.create_connection(
                (served.host, served.port), timeout=5) as sock:
            sock.sendall(struct.pack(">I", protocol.MAX_FRAME + 1))
            response = recv_frame(sock)
            assert protocol.response_error_code(response) \
                == protocol.ERR_BAD_REQUEST
            # the server cannot resync: it hangs up
            assert sock.recv(1) == b""

    def test_server_survives_abuse(self, served):
        # after the raw-socket abuse above, normal service continues
        assert ask(served, "healthz")["ok"] is True


class TestDeadline:
    def test_expiry_returns_deadline(self, served):
        doc = ask(served, "sleep",
                  {"seconds": 5, "token": "deadline-test"},
                  deadline_s=0.2)
        assert protocol.response_error_code(doc) \
            == protocol.ERR_DEADLINE
        assert "retry" in doc["error"]["message"]

    def test_expired_work_still_lands_in_cache(self, served):
        params = {"seconds": 1.0, "token": "late-but-cached"}
        doc = ask(served, "sleep", params, deadline_s=0.1)
        assert protocol.response_error_code(doc) \
            == protocol.ERR_DEADLINE
        # the shielded computation kept running; once it finishes the
        # retry is a cache hit
        deadline = 30
        import time
        t0 = time.monotonic()
        while time.monotonic() - t0 < deadline:
            doc = ask(served, "sleep", params, deadline_s=5)
            if doc.get("ok"):
                break
            time.sleep(0.1)
        assert doc["ok"] is True
        assert doc["result"]["token"] == "late-but-cached"


class TestCoalescing:
    def test_duplicates_share_one_computation(self):
        # cache disabled: every hit below must come from coalescing,
        # not from the read-through store
        handle = start_background(
            ServeConfig(workers=2, queue_limit=16, drain_s=5.0,
                        debug=True),
            cache=ResultCache.disabled())
        try:
            n = 6
            params = {"seconds": 0.8, "token": "dup"}

            async def burst():
                clients = [ServeClient(host=handle.host,
                                       port=handle.port, seed=i)
                           for i in range(n)]
                try:
                    return await asyncio.gather(*(
                        c.request("sleep", dict(params), deadline_s=30)
                        for c in clients))
                finally:
                    for c in clients:
                        await c.close()

            responses = asyncio.run(burst())
            assert all(r["ok"] for r in responses)
            tokens = {r["result"]["token"] for r in responses}
            assert tokens == {"dup"}
            coalesced = sum(r["coalesced"] for r in responses)
            assert coalesced == n - 1

            metrics = ask(handle, "metrics")["result"]["metrics"]
            computations = metrics["server.computations"]["value"]
            requests = metrics["server.requests"]["value"]
            # the acceptance criterion: provably fewer computations
            # than requests for a duplicate burst
            assert computations == 1
            assert requests >= n
        finally:
            handle.stop()


async def exchange_once(host, port, endpoint, params, *,
                        deadline_s=None):
    """One raw request/response, no retries: shows rejections as-is."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        doc = protocol.Request(endpoint=endpoint, params=params,
                               id="raw", deadline_s=deadline_s) \
            .to_dict()
        await protocol.write_frame(writer, doc)
        return await protocol.read_frame(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestBackpressure:
    def test_full_queue_answers_overloaded(self):
        handle = start_background(
            ServeConfig(workers=1, queue_limit=1, drain_s=5.0,
                        debug=True),
            cache=ResultCache.disabled())
        try:
            async def go():
                hog = ServeClient(host=handle.host, port=handle.port,
                                  seed=1)
                try:
                    filler = asyncio.ensure_future(hog.request(
                        "sleep", {"seconds": 3, "token": "hog"},
                        deadline_s=30))
                    # wait until the hog occupies the only slot
                    for _ in range(200):
                        health = await exchange_once(
                            handle.host, handle.port, "healthz", {})
                        if health["result"]["in_flight"] >= 1:
                            break
                        await asyncio.sleep(0.02)
                    response = await exchange_once(
                        handle.host, handle.port, "sleep",
                        {"seconds": 0, "token": "bounced"},
                        deadline_s=5)
                    filler.cancel()
                    return response
                finally:
                    await hog.close()

            response = asyncio.run(go())
            assert protocol.response_error_code(response) \
                == protocol.ERR_OVERLOADED
            assert "queue full" in response["error"]["message"]
        finally:
            handle.stop()

    def test_inline_reads_bypass_admission(self):
        # healthz is answered even with the only slot taken:
        # liveness is never queued behind work
        handle = start_background(
            ServeConfig(workers=1, queue_limit=1, drain_s=5.0,
                        debug=True),
            cache=ResultCache.disabled())
        try:
            async def go():
                hog = ServeClient(host=handle.host, port=handle.port,
                                  seed=1)
                try:
                    filler = asyncio.ensure_future(hog.request(
                        "sleep", {"seconds": 2, "token": "hog"},
                        deadline_s=30))
                    for _ in range(200):
                        health = await exchange_once(
                            handle.host, handle.port, "healthz", {})
                        if health["result"]["in_flight"] >= 1:
                            break
                        await asyncio.sleep(0.02)
                    health = await exchange_once(
                        handle.host, handle.port, "healthz", {})
                    filler.cancel()
                    return health
                finally:
                    await hog.close()

            health = asyncio.run(go())
            assert health["ok"] is True
            assert health["result"]["in_flight"] == 1
        finally:
            handle.stop()


class TestCacheReadThrough:
    def test_batch_entries_serve_warm(self, tmp_path):
        # a payload written under the batch CLI's key is a warm hit
        # for the service: the server never recomputes it
        cache = ResultCache(root=tmp_path / "cache")
        params = {"app": "QMCPACK/HDF5", "nranks": 2, "seed": 99}
        key = prepare_cell(dict(params)).key
        sentinel = {"planted": True, "label": "QMCPACK-HDF5"}
        cache.put(key, sentinel)

        handle = start_background(
            ServeConfig(workers=1, drain_s=2.0), cache=cache)
        try:
            doc = ask(handle, "cell", params)
            assert doc["ok"] is True
            assert doc["cached"] is True
            assert doc["result"] == sentinel
            metrics = ask(handle, "metrics")["result"]["metrics"]
            assert metrics["server.computations"]["value"] == 0
            assert metrics["server.cache.hits"]["value"] == 1
        finally:
            handle.stop()

    def test_computed_cell_lands_in_shared_store(self, tmp_path):
        # the converse: a cell the service computes is readable by
        # the batch CLI's cache under the identical key
        cache = ResultCache(root=tmp_path / "cache")
        params = {"app": "QMCPACK/HDF5", "nranks": 1, "seed": 5}
        handle = start_background(
            ServeConfig(workers=1, drain_s=5.0), cache=cache)
        try:
            doc = ask(handle, "cell", params, deadline_s=120)
            assert doc["ok"] is True, doc
            assert doc["cached"] is False
        finally:
            handle.stop()
        key = prepare_cell(dict(params)).key
        stored = ResultCache(root=tmp_path / "cache").get(key)
        assert stored == doc["result"]


class TestShutdown:
    def test_stop_refuses_new_connections(self):
        handle = start_background(
            ServeConfig(workers=1, drain_s=1.0, debug=True),
            cache=ResultCache.disabled())
        assert ask(handle, "healthz")["ok"] is True
        port = handle.port
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port),
                                     timeout=1).close()

    def test_stop_is_idempotent(self):
        handle = start_background(
            ServeConfig(workers=1, drain_s=1.0),
            cache=ResultCache.disabled())
        handle.stop()
        handle.stop()  # no-op, no raise


class TestServeCliProcess:
    def test_ready_line_sigterm_drain_exit_0(self, tmp_path):
        """The real ``python -m repro.study serve`` lifecycle."""
        import json
        import os
        import signal
        import subprocess
        import sys
        import time

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            __import__("pathlib").Path(repro.__file__).parents[1])
        ready_file = tmp_path / "ready.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.study", "serve",
             "--port", "0", "--workers", "1", "--drain", "2",
             "--debug", "--cache-dir", str(tmp_path / "cache"),
             "--ready-file", str(ready_file)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True)
        try:
            deadline = time.monotonic() + 60
            while not ready_file.exists():
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "server never ready"
                time.sleep(0.05)
            ready = json.loads(ready_file.read_text())
            assert ready["event"] == "ready"
            assert ready["pid"] == proc.pid

            doc = request_sync("127.0.0.1", ready["port"], "healthz")
            assert doc["ok"] is True

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert json.loads(out.splitlines()[0]) == ready
            assert "draining" in err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


def recv_frame(sock: socket.socket) -> dict:
    header = recv_exact(sock, protocol.HEADER_SIZE)
    (length,) = struct.unpack(">I", header)
    return protocol.decode_body(recv_exact(sock, length))


def recv_exact(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise AssertionError(
                f"connection closed after {len(data)}/{n} bytes")
        data += chunk
    return data
