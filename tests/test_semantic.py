import contextlib
import json
import select
import socket
import sys
import threading
import time

import pytest

from failsynth.errors import TransportError
from failsynth.semantic import (DEFAULT_VISUAL_FLOORS, HttpClient,
                                MockSemanticVerifier, PipeClient,
                                client_from_endpoint, mock_judgment)

_FAIL_REQ = {
    "instruction": "pick-and-place",
    "reference_clip_ref": None,
    "candidate_clip_ref": {"id": "c", "outcome": "fail", "artifacts": None},
}


def _req(outcome="fail", artifacts=None):
    return {
        "instruction": "pick-and-place",
        "reference_clip_ref": None,
        "candidate_clip_ref": {"id": "c", "outcome": outcome,
                               "artifacts": artifacts},
    }


def _judge(client, request):
    client.send(request)
    return client.receive()


class TestMockJudgment:
    def test_clean_failure(self):
        resp = mock_judgment(_req())
        assert resp["valid_failure"] and resp["visual_ok"]
        assert isinstance(resp["rationale"], str)

    def test_success_is_not_a_valid_failure(self):
        assert not mock_judgment(_req(outcome="success"))["valid_failure"]

    def test_artifact_floor_trips_visual(self):
        resp = mock_judgment(_req(artifacts={"jitter_px": 6.0}))
        assert resp["valid_failure"] and not resp["visual_ok"]
        assert "jitter_px" in resp["rationale"]

    def test_below_floor_is_clean(self):
        floor = DEFAULT_VISUAL_FLOORS["jitter_px"]
        assert mock_judgment(_req(artifacts={"jitter_px": floor / 2}))["visual_ok"]
        assert not mock_judgment(_req(artifacts={"jitter_px": floor}))["visual_ok"]

    def test_floor_override(self):
        resp = mock_judgment(_req(artifacts={"jitter_px": 6.0}),
                             floors={"jitter_px": 100.0})
        assert resp["visual_ok"]

    def test_unknown_artifact_keys_ignored(self):
        assert mock_judgment(_req(artifacts={"lens_flare": 9.0}))["visual_ok"]


_JUDGE_SCRIPT = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    cand = req.get("candidate_clip_ref") or {}
    print(json.dumps({"valid_failure": cand.get("outcome") == "fail",
                      "visual_ok": True, "rationale": "external"}))
    sys.stdout.flush()
"""


class TestPipeClient:
    def test_round_trip(self):
        client = PipeClient([sys.executable, "-c", _JUDGE_SCRIPT])
        try:
            resp = _judge(client, _req())
            assert resp["valid_failure"] is True
            assert resp["rationale"] == "external"
            resp = _judge(client, _req(outcome="success"))
            assert resp["valid_failure"] is False
        finally:
            client.close()

    def test_dead_process_raises_transport_error(self):
        client = PipeClient([sys.executable, "-c", "pass"])
        try:
            with pytest.raises(TransportError):
                _judge(client, _req())
        finally:
            client.close()

    def test_garbage_response_raises_transport_error(self):
        client = PipeClient([sys.executable, "-c",
                             "import sys; sys.stdin.readline(); print('not json')"])
        try:
            with pytest.raises(TransportError):
                _judge(client, _req())
        finally:
            client.close()

    def test_silent_judge_times_out(self):
        client = PipeClient([sys.executable, "-c",
                             "import sys\nfor line in sys.stdin: pass"], timeout=0.3)
        try:
            start = time.monotonic()
            with pytest.raises(TransportError, match="did not answer"):
                _judge(client, _req())
            assert 0.3 <= time.monotonic() - start < 5
        finally:
            client.close()
        assert client.proc.returncode == 0

    def test_late_reply_is_never_taken_for_the_next(self):
        """After a timeout every request fails at once, even once the judge
        has sent its late reply to the first."""
        late = ("import json, sys, time\n"
                "for line in sys.stdin:\n"
                "    time.sleep(0.6)\n"
                "    print(json.dumps({'valid_failure': False, 'visual_ok': False,"
                " 'rationale': 'late'}), flush=True)\n")
        client = PipeClient([sys.executable, "-c", late], timeout=0.2)
        try:
            with pytest.raises(TransportError):
                _judge(client, _req())
            time.sleep(0.8)  # the late reply is in the pipe now
            start = time.monotonic()
            with pytest.raises(TransportError, match="earlier request"):
                _judge(client, _req())
            assert time.monotonic() - start < 0.1
        finally:
            client.close()

    def test_reply_split_across_writes(self):
        chunked = ("import sys, time\n"
                   "sys.stdin.readline()\n"
                   "sys.stdout.write('{\"valid_failure\": true, ')\n"
                   "sys.stdout.flush(); time.sleep(0.1)\n"
                   "sys.stdout.write('\"visual_ok\": true, \"rationale\": \"x\"}\\n')\n"
                   "sys.stdout.flush()\n")
        client = PipeClient([sys.executable, "-c", chunked], timeout=5)
        try:
            assert _judge(client, _req()) == {"valid_failure": True,
                                              "visual_ok": True, "rationale": "x"}
        finally:
            client.close()

    def test_missing_binary_raises_transport_error(self):
        with pytest.raises(TransportError):
            PipeClient(["/nonexistent/judge-binary"])


def _read_request(conn):
    """Read one HTTP request, headers and Content-Length body, off conn."""
    with conn.makefile("rb") as f:
        length = 0
        while (line := f.readline()) not in (b"\r\n", b""):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        f.read(length)


@contextlib.contextmanager
def serve_raw(reply: bytes):
    """The URL of an endpoint on 127.0.0.1 that reads each request and sends
    the bytes reply, whatever they are, then closes the connection."""
    server = socket.create_server(("127.0.0.1", 0))
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            if select.select([server], [], [], 0.05)[0]:
                conn, _ = server.accept()
                with conn:
                    conn.settimeout(5)
                    _read_request(conn)
                    conn.sendall(reply)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.getsockname()[1]}/judge"
    finally:
        stop.set()
        thread.join(timeout=10)
        server.close()
    assert not thread.is_alive()


def _http_reply(body: bytes, length=None) -> bytes:
    return (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % (len(body) if length is None else length)
            + body)


# replies that are not HTTP, or not a whole UTF-8 JSON body
MALFORMED_REPLIES = {
    "bad-status-line": b"garbage\r\n\r\n",
    "truncated-body": _http_reply(b'{"valid_failure": true', length=100),
    "non-utf8-body": _http_reply(b"\xff\xfe"),
}


class TestHttpClient:
    def test_unreachable_endpoint_raises_transport_error(self):
        client = HttpClient("http://127.0.0.1:1/judge", timeout=0.5)
        with pytest.raises(TransportError):
            _judge(client, _req())

    def test_round_trip(self):
        answer = {"valid_failure": True, "visual_ok": False, "rationale": "http"}
        with serve_raw(_http_reply(json.dumps(answer).encode())) as url:
            assert _judge(HttpClient(url, timeout=5), _req()) == answer

    @pytest.mark.parametrize("reply", MALFORMED_REPLIES.values(),
                             ids=MALFORMED_REPLIES.keys())
    def test_malformed_reply_raises_transport_error(self, reply):
        with serve_raw(reply) as url:
            with pytest.raises(TransportError, match="^judge endpoint failed"):
                _judge(HttpClient(url, timeout=5), _req())


class TestEndpointDispatch:
    def test_mock(self):
        assert isinstance(client_from_endpoint("mock"), MockSemanticVerifier)

    def test_pipe(self):
        client = client_from_endpoint(f"pipe:{sys.executable} -c pass")
        assert isinstance(client, PipeClient)
        client.close()

    def test_http(self):
        assert isinstance(client_from_endpoint("http://x/judge"), HttpClient)

    def test_unknown(self):
        with pytest.raises(ValueError):
            client_from_endpoint("smoke-signals")
