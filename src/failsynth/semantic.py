"""Semantic-verifier clients: mock, subprocess pipe, and HTTP.

Wire protocol of the semantic verifier (verify's only external judge): one
JSON object per line in, one JSON object per line out. Semantic requests are
{"instruction", "reference_clip_ref", "candidate_clip_ref"}, where
reference_clip_ref is always null (no stage pairs a candidate with a
reference clip), and responses are {"valid_failure": bool, "visual_ok": bool,
"rationale": str}; a judgment that is not a JSON boolean is a transport
failure.

Transport failures raise TransportError; callers quarantine the affected
rollout instead of counting it as rejected.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import time
from typing import Optional

from .errors import TransportError, ValidationError

# Seconds a judge may take to answer one request.
DEFAULT_TIMEOUT_S = 10.0

DEFAULT_VISUAL_FLOORS = {
    "jitter_px": 0.5,
    "flicker_rate": 0.05,
    "topo_warp": 0.02,
    "affine_jitter": 0.02,
    "joint_spike": 0.05,
}


def mock_judgment(request: dict, floors: Optional[dict] = None) -> dict:
    """Ground-truth judgment rule shared by the in-process and pipe mocks."""
    floors = dict(DEFAULT_VISUAL_FLOORS, **(floors or {}))
    cand = request.get("candidate_clip_ref") or {}
    valid_failure = cand.get("outcome") == "fail"
    artifacts = cand.get("artifacts") or {}
    offending = [k for k, v in artifacts.items()
                 if k in floors and v >= floors[k]]
    visual_ok = not offending
    rationale = ("clean clip" if visual_ok
                 else "artifact floor exceeded: " + ", ".join(sorted(offending)))
    return {"valid_failure": bool(valid_failure), "visual_ok": bool(visual_ok),
            "rationale": rationale}


class _Client:
    """A judge used one request at a time: send it, then receive its reply.

    ready() says whether receive() would answer without waiting. This base
    keeps the request and answers it in receive(), so it is always ready.
    """

    def send(self, request: dict) -> None:
        self._request = request

    def ready(self) -> bool:
        return True

    def close(self):
        pass


class MockSemanticVerifier(_Client):
    """Answers from simulator ground truth carried in the clip descriptors."""

    def __init__(self, floors: Optional[dict] = None):
        self.floors = floors

    def receive(self) -> dict:
        return mock_judgment(self._request, self.floors)


class PipeClient(_Client):
    """Line-delimited JSON over a subprocess pipe, one request in flight.

    The judge must answer each request line with one line within timeout
    seconds of the send. A reply that missed its deadline, or was never
    received, may still come and be read as the next request's, so after
    either every later request fails at once. A failed send shows in receive.
    """

    def __init__(self, cmd: list[str], timeout: float = DEFAULT_TIMEOUT_S):
        try:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE)
        except OSError as exc:
            raise TransportError(f"cannot start judge process: {exc}") from exc
        self.timeout = timeout
        self._unread = b""  # bytes read past the last reply line
        self._deadline = None  # of the request in flight
        self._send_error = None
        self._out_of_step = False  # a reply to an earlier request may still come

    def send(self, request: dict) -> None:
        self._out_of_step |= self._deadline is not None
        self._deadline = time.monotonic() + self.timeout
        self._send_error = None
        if not self._out_of_step:
            try:
                self.proc.stdin.write((json.dumps(request) + "\n").encode())
                self.proc.stdin.flush()
            except (OSError, ValueError) as exc:
                self._send_error = exc

    def ready(self) -> bool:
        return (self._out_of_step or b"\n" in self._unread
                or bool(select.select([self.proc.stdout], [], [], 0)[0]))

    def _readline(self, deadline: float) -> bytes:
        """Next reply line (b"" once the judge closed its end), by deadline."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._unread:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self._out_of_step = True
                raise TransportError(f"judge did not answer within {self.timeout} s")
            chunk = os.read(fd, 65536)
            if not chunk:  # end of file: hand over what is left
                line, self._unread = self._unread, b""
                return line
            self._unread += chunk
        line, _, self._unread = self._unread.partition(b"\n")
        return line + b"\n"

    def receive(self) -> dict:
        deadline, self._deadline = self._deadline, None
        if self._out_of_step:
            raise TransportError("a reply to an earlier request is still due")
        try:
            if self._send_error is not None:
                raise self._send_error
            line = self._readline(deadline)
        except (OSError, ValueError) as exc:
            raise TransportError(f"judge pipe failed: {exc}") from exc
        if not line:
            raise TransportError("judge process closed the pipe")
        try:
            return json.loads(line)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise TransportError(f"judge sent invalid JSON: {line!r}") from exc

    def close(self):
        """Close the judge's pipes and reap it; kill it if it lingers."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class HttpClient(_Client):
    """POSTs each request as JSON to a fixed endpoint when its reply is received."""

    def __init__(self, url: str, timeout: float = DEFAULT_TIMEOUT_S):
        self.url = url
        self.timeout = timeout

    def receive(self) -> dict:
        import urllib.error
        import urllib.request
        data = json.dumps(self._request).encode()
        req = urllib.request.Request(self.url, data=data,
                                     headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode())
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise TransportError(f"judge endpoint failed: {exc}") from exc


def client_from_endpoint(endpoint: str, floors: Optional[dict] = None):
    """Build a client from a config endpoint string.

    "mock" -> in-process ground-truth mock; "pipe:<cmd>" -> subprocess;
    "http:<url>" / "https:<url>" -> HTTP endpoint.
    """
    if endpoint == "mock":
        return MockSemanticVerifier(floors)
    if endpoint.startswith("pipe:"):
        return PipeClient(endpoint[5:].split())
    if endpoint.startswith(("http:", "https:")):
        return HttpClient(endpoint)
    raise ValidationError(f"semantic_endpoint {endpoint!r}: want mock, pipe:<cmd> or http(s):<url>")
