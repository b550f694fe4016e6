"""Tests for the JSONL protocol and the client/server round trip."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import AnalysisService
from repro.service.server import serve_unix


class TestFraming:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "rid": 7, "job": {"op": "sleep", "params": {}}}
        line = protocol.encode(message)
        assert line.endswith(b"\n")
        assert protocol.decode(line) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2, 3]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"\n")

    def test_responses_echo_rid(self):
        ok = protocol.ok_response(3, job={"id": "job-000001"})
        assert ok["ok"] is True and ok["rid"] == 3
        err = protocol.error_response("nope", error_type="validation", rid=4)
        assert err["ok"] is False
        assert err["error_type"] == "validation"
        assert err["rid"] == 4

    def test_encode_is_single_line(self):
        line = protocol.encode({"op": "hello", "text": "a\nb"})
        assert line.count(b"\n") == 1


@pytest.fixture()
def live_server(tmp_path):
    """A daemon serving the protocol on a unix socket in a worker thread."""
    sock = str(tmp_path / "svc.sock")
    ready = threading.Event()

    def run_server():
        async def go():
            service = AnalysisService(workers=2, queue_limit=16, seed=11)
            await serve_unix(service, sock, ready=ready.set)

        asyncio.run(go())

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    assert ready.wait(20), "server did not come up"
    yield sock
    try:
        with ServiceClient(sock, timeout=10) as client:
            client.shutdown()
    except (ServiceError, OSError):
        pass  # a test already shut it down
    thread.join(20)


class TestClientServer:
    def test_hello_reports_schema_and_ops(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            hello = client.hello()
            assert hello["schema"] == protocol.SCHEMA
            assert "submit" in hello["ops"]
            assert hello["stats"]["queue_limit"] == 16

    def test_submit_result_roundtrip(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            job = client.submit("curve", {"demands": [1.0, 3.0, 2.0, 3.0]})
            assert job["state"] in ("queued", "running")
            done = client.result(job["id"], timeout=30)
            assert done["state"] == "done"
            assert done["result"]["wcet"] == 3.0
            assert done["result"]["k"] == [1, 2, 3, 4]
            # status drops the payload, keeps the lifecycle record
            status = client.status(job["id"])
            assert status["state"] == "done"
            assert "result" not in status

    def test_error_responses_become_exceptions(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.result("job-424242")
            assert excinfo.value.error_type == "unknown-job"
            with pytest.raises(ServiceError) as excinfo:
                client.submit("no-such-op", {})
            assert excinfo.value.error_type == "validation"

    def test_failed_job_carries_error(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            job = client.submit("curve", {"demands": []})
            done = client.result(job["id"], timeout=30)
            assert done["state"] == "failed"
            assert done["error_type"] == "ValidationError"

    def test_stats_over_the_wire(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            job = client.submit("sleep", {"seconds": 0})
            client.result(job["id"], timeout=30)
            stats = client.stats()
            assert stats["states"].get("done", 0) >= 1

    @pytest.mark.parametrize("events", [4_000, 40_000])
    def test_over_limit_request_line_keeps_session(self, live_server, events):
        # a submit line past the reader's 64 KiB limit (one buffered
        # chunk, or many) gets exactly one protocol error; the rest of
        # the line is discarded, so the next request gets its own reply
        demands = [1000.0 + i / 7 for i in range(events)]
        with ServiceClient(live_server, timeout=30) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit("curve", {"demands": demands})
            assert excinfo.value.error_type == "protocol"
            assert "states" in client.stats()
            assert client.hello()["schema"] == protocol.SCHEMA

    def test_events_stream(self, live_server):
        with ServiceClient(live_server, timeout=30) as subscriber:
            with ServiceClient(live_server, timeout=30) as client:
                events = subscriber.events()
                job = client.submit("sleep", {"seconds": 0})
                client.result(job["id"], timeout=30)
                seen = []
                for event in events:
                    if event["id"] == job["id"]:
                        seen.append(event["state"])
                    if seen and seen[-1] == "done":
                        break
                assert seen[0] == "queued"
                assert seen[-1] == "done"

    def test_shutdown_stops_server(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            client.shutdown()
        # the socket stops accepting: a fresh request errors out
        with pytest.raises((ServiceError, OSError)):
            with ServiceClient(live_server, timeout=5) as client:
                client.hello()
