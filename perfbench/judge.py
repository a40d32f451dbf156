"""Semantic judge for the gate-mixed workload, started by failsynth's
``pipe:`` endpoint.

Usage: python3 perfbench/judge.py STATUS_JSON

Answers each JSON request line on stdin with one line from
``failsynth.semantic.mock_judgment``. It writes ``{"pid", "exit"}`` to
STATUS_JSON when it starts (``"exit": null``) and again when it ends: on stdin
EOF (``"eof"``) or on SIGTERM (``"sigterm"``). The benchmark reads the file to
find the process and to tell whether the client closed the pipe.
"""

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from failsynth.semantic import mock_judgment  # noqa: E402


def _write_status(path: Path, exit_reason) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps({"pid": os.getpid(), "exit": exit_reason}))
    os.replace(tmp, path)


def main(argv) -> int:
    status = Path(argv[1])

    def on_term(signum, frame):
        _write_status(status, "sigterm")
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    _write_status(status, None)
    while True:
        line = sys.stdin.readline()
        if not line:
            break
        sys.stdout.write(json.dumps(mock_judgment(json.loads(line))) + "\n")
        sys.stdout.flush()
    _write_status(status, "eof")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
