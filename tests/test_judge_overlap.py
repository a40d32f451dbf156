"""verify runs each candidate's physical checks while a pipe judge works on
its request: one request in flight, and outputs that do not depend on how
fast the judge answers."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import failsynth
from failsynth import pipeline, verify
from failsynth.config import PipelineConfig
from failsynth.errors import TransportError
from failsynth.semantic import MockSemanticVerifier, PipeClient

SRC = str(Path(failsynth.__file__).resolve().parents[1])

# A mock judge that reads its delays from delays.json beside it, so that
# one endpoint (and one config hash) runs every delay profile. It exits 3
# if a second request arrives before it has answered the first.
DELAYED_JUDGE = f"""
import json, os, random, select, sys, time
from pathlib import Path
sys.path.insert(0, {SRC!r})
from failsynth.semantic import mock_judgment
delays = json.loads((Path(__file__).parent / "delays.json").read_text())
rng = random.Random(0)
pending, answered = b"", 0
while True:
    while b"\\n" not in pending:
        chunk = os.read(0, 65536)
        if not chunk:
            sys.exit(0)
        pending += chunk
    line, _, pending = pending.partition(b"\\n")
    if answered < delays["replies"]:
        time.sleep(delays["first_s"] if answered == 0
                   else rng.uniform(0, delays["each_max_s"]))
    elif delays["exit_after_replies"]:
        sys.exit(0)
    if pending or select.select([0], [], [], 0)[0]:
        sys.exit(3)  # a second request came before this one was answered
    sys.stdout.write(json.dumps(mock_judgment(json.loads(line))) + "\\n")
    sys.stdout.flush()
    answered += 1
"""

PROFILES = {
    "no-delay": {"first_s": 0.0, "each_max_s": 0.0},
    "slow-start": {"first_s": 0.3, "each_max_s": 0.0},
    "random-0-5ms": {"first_s": 0.0, "each_max_s": 0.005},
}


def _delays(d, replies=10 ** 9, exit_after_replies=False, **profile):
    (d / "delays.json").write_text(json.dumps(
        {"replies": replies, "exit_after_replies": exit_after_replies,
         "first_s": 0.0, "each_max_s": 0.0, **profile}))


def _inputs(d, seed, demos=10):
    """Candidates of `demos` demos (4 each, all failures) followed by the
    demos (successes, which the judge rejects), and their calibration."""
    cfg = PipelineConfig(seed=seed)
    pipeline.cmd_generate(cfg, demos, d / "demos.jsonl")
    pipeline.cmd_perturb(cfg, d / "demos.jsonl", d / "cands.jsonl")
    pipeline.cmd_calibrate(cfg, d / "demos.jsonl", d / "calib.json")
    with open(d / "cands.jsonl", "a") as fh:
        fh.write((d / "demos.jsonl").read_text())
    return d


@pytest.fixture(scope="module", params=[808, 1])
def inputs(request, tmp_path_factory):
    d = _inputs(tmp_path_factory.mktemp(f"overlap{request.param}"), request.param)
    (d / "judge.py").write_text(DELAYED_JUDGE)
    return request.param, d


def _verify(seed, d, out):
    cfg = PipelineConfig(seed=seed,
                         semantic_endpoint=f"pipe:{sys.executable} {d / 'judge.py'}")
    return pipeline.cmd_verify(cfg, d / "cands.jsonl", d / "calib.json",
                               out / "retained.jsonl", out / "manifest.json")


def test_outputs_do_not_depend_on_judge_timing(inputs, tmp_path, clients):
    seed, d = inputs
    outputs = {}
    for name, profile in PROFILES.items():
        _delays(d, **profile)
        out = tmp_path / name
        out.mkdir()
        m = _verify(seed, d, out)
        assert m["generated"] == 50 > verify.LOOKAHEAD
        assert m["quarantined"] == 0 and 0 < m["retained"] < 50
        outputs[name] = [(out / f).read_bytes() for f in ("retained.jsonl", "manifest.json")]
    assert [c.proc.returncode for c in clients] == [0, 0, 0]  # one request in flight
    assert outputs["slow-start"] == outputs["no-delay"] == outputs["random-0-5ms"]
    mock = pipeline.cmd_verify(PipelineConfig(seed=seed), d / "cands.jsonl",
                               d / "calib.json", tmp_path / "mock.jsonl")
    assert (tmp_path / "mock.jsonl").read_bytes() == outputs["no-delay"][0]
    assert {k: v for k, v in mock.items() if k != "config_hash"} == {
        k: v for k, v in json.loads(outputs["no-delay"][1]).items() if k != "config_hash"}


def test_judge_fails_on_a_second_request_in_flight(inputs, tmp_path):
    """The judge of the timing test does catch two requests in flight."""
    _, d = inputs
    _delays(d, first_s=0.2)
    request = json.dumps({"candidate_clip_ref": {"outcome": "fail"}}) + "\n"
    proc = subprocess.run([sys.executable, d / "judge.py"], input=2 * request,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""


@pytest.fixture(scope="module")
def seed11(tmp_path_factory):
    d = _inputs(tmp_path_factory.mktemp("overlap11"), 11)
    (d / "judge.py").write_text(DELAYED_JUDGE)
    return d


def test_judge_that_exits_after_k_replies(seed11, tmp_path, clients):
    """With the queue full behind a slow start, a judge that answers k
    requests and exits gives exactly k judged candidates, the first k."""
    d = seed11
    _delays(d, first_s=0.3, replies=5, exit_after_replies=True)
    m = _verify(11, d, tmp_path)
    assert m["retained"] + m["rejected"] == 5
    assert m["quarantined"] == m["generated"] - 5 == 45
    first = [json.loads(line)["id"] for line in
             (d / "cands.jsonl").read_text().splitlines()[:5]]
    retained = [json.loads(line)["id"] for line in
                (tmp_path / "retained.jsonl").read_text().splitlines()]
    assert set(retained) <= set(first)
    (client,) = clients
    assert client.proc.returncode == 0


HANG = "import sys\nfor line in sys.stdin:\n    pass\n"


def test_hung_judge_costs_one_deadline_with_the_queue_full(seed11, tmp_path,
                                                            monkeypatch):
    script = tmp_path / "hang.py"
    script.write_text(HANG)
    made, waits = [], []

    def short_deadline(endpoint, floors=None):
        client = PipeClient(endpoint[5:].split(), timeout=0.5)
        readline = client._readline

        def waiting(deadline):
            waits.append(deadline)
            return readline(deadline)
        client._readline = waiting
        made.append(client)
        return client
    monkeypatch.setattr(pipeline, "client_from_endpoint", short_deadline)
    cfg = PipelineConfig(seed=11, semantic_endpoint=f"pipe:{sys.executable} {script}")
    m = pipeline.cmd_verify(cfg, seed11 / "cands.jsonl", seed11 / "calib.json",
                            tmp_path / "r.jsonl")
    assert m["quarantined"] == m["generated"] == 50
    assert m["retained"] == m["rejected"] == 0
    assert len(waits) == 1  # one deadline; later requests fail at once
    (client,) = made
    assert client.proc.returncode is not None


class TestSendReceive:
    def test_deadline_counts_from_the_send(self):
        client = PipeClient([sys.executable, "-c", HANG], timeout=1.0)
        try:
            client.send({"instruction": "x"})
            time.sleep(0.6)  # checks that run while the judge works
            start = time.monotonic()
            with pytest.raises(TransportError, match="did not answer"):
                client.receive()
            assert time.monotonic() - start < 0.8
        finally:
            client.close()

    def test_request_never_received_fails_every_later_one(self, tmp_path):
        """A reply not taken may still come, so it is never read as the
        reply to the next request, and the next request is not sent."""
        seen = tmp_path / "seen.txt"
        echo = ("import json, sys\n"
                "for line in sys.stdin:\n"
                f"    open({str(seen)!r}, 'a').write(line)\n"
                "    print(json.dumps({'valid_failure': True, 'visual_ok': True}),"
                " flush=True)\n")
        client = PipeClient([sys.executable, "-c", echo])
        try:
            client.send({"n": 1})
            client.send({"n": 2})
            with pytest.raises(TransportError, match="earlier request"):
                client.receive()
            assert client.ready()
        finally:
            client.close()
        assert seen.read_text() == '{"n": 1}\n'

    def test_ready_once_the_reply_is_in(self):
        client = PipeClient([sys.executable, "-c",
                             "import sys\nfor line in sys.stdin:\n"
                             "    print(line, end='', flush=True)\n"])
        try:
            client.send({"a": 1})
            deadline = time.monotonic() + 30
            while not client.ready():
                assert time.monotonic() < deadline
                time.sleep(0.001)
            assert client.receive() == {"a": 1}
        finally:
            client.close()


def test_a_judge_that_is_always_ready_sees_one_candidate_at_a_time(
        seed11, tmp_path, monkeypatch):
    """The mock answers in receive: each candidate's reply is taken before
    the next candidate is read, so nothing queues."""
    events = []

    class Recording(MockSemanticVerifier):
        def send(self, request):
            events.append("send")
            super().send(request)

        def receive(self):
            events.append("receive")
            return super().receive()
    monkeypatch.setattr(pipeline, "client_from_endpoint",
                        lambda endpoint, floors=None: Recording(floors))
    check = verify.verify_physical

    def physical(*args, **kwargs):
        events.append("physical")
        return check(*args, **kwargs)
    monkeypatch.setattr(verify, "verify_physical", physical)
    m = pipeline.cmd_verify(PipelineConfig(seed=11), seed11 / "cands.jsonl",
                            seed11 / "calib.json", tmp_path / "r.jsonl")
    assert events == ["send", "physical", "receive"] * m["generated"]
