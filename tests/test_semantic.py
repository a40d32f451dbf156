import sys
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


class TestHttpClient:
    def test_unreachable_endpoint_raises_transport_error(self):
        client = HttpClient("http://127.0.0.1:1/judge", timeout=0.5)
        with pytest.raises(TransportError):
            _judge(client, _req())


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
