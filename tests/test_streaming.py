"""Streaming stages: memory stays flat in the number of records, and every
output file appears atomically."""

import json
import os
import shutil
import stat
import threading
import tracemalloc

import pytest

from failsynth import pipeline
from failsynth.cli import main
from failsynth.config import PipelineConfig
from failsynth.rollout_io import write_json, write_records

CFG = PipelineConfig(seed=808)


def _run(*argv):
    return main([str(a) for a in argv])


def _peak(fn, *args) -> int:
    """tracemalloc peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def batches(tmp_path_factory):
    """Inputs of every stage for 100 and 400 candidates (25 and 100 demos)."""
    out = {}
    for n in (100, 400):
        d = tmp_path_factory.mktemp(f"stream{n}")
        pipeline.cmd_generate(CFG, n // 4, d / "demos.jsonl")
        pipeline.cmd_perturb(CFG, d / "demos.jsonl", d / "cands.jsonl")
        pipeline.cmd_calibrate(CFG, d / "demos.jsonl", d / "calib.json")
        m = pipeline.cmd_verify(CFG, d / "cands.jsonl", d / "calib.json",
                                d / "retained.jsonl")
        assert m["retained"] == n
        pipeline.cmd_label(CFG, d / "retained.jsonl", d / "labeled.jsonl")
        out[n] = d
    return out


STAGES = {
    "generate": lambda d, n: pipeline.cmd_generate(CFG, n, d / "out.jsonl"),
    "perturb": lambda d, n: pipeline.cmd_perturb(CFG, d / "demos.jsonl",
                                                 d / "out.jsonl"),
    "verify": lambda d, n: pipeline.cmd_verify(CFG, d / "cands.jsonl",
                                               d / "calib.json", d / "out.jsonl"),
    "label": lambda d, n: pipeline.cmd_label(CFG, d / "retained.jsonl",
                                             d / "out.jsonl"),
    "recover": lambda d, n: pipeline.cmd_recover(CFG, d / "labeled.jsonl",
                                                 d / "out.jsonl"),
}


@pytest.mark.parametrize("stage", STAGES)
def test_peak_memory_flat_in_record_count(batches, stage):
    run = STAGES[stage]
    run(batches[100], 100)  # first-call allocations are not per record
    small = _peak(run, batches[100], 100)
    large = _peak(run, batches[400], 400)
    assert large <= 1.5 * small, f"{stage}: {large} B at 400 vs {small} B at 100"


def _broken_input(batches, tmp_path, stage):
    """Ten records of a stage's input whose 7th stops the stage; the argv
    that runs it and the exit code it must give."""
    d = batches[100]
    if stage == "label":
        lines = (d / "retained.jsonl").read_text().splitlines(keepends=True)[:10]
        rec = json.loads(lines[6])
        rec["states"][3][0] = float("nan")
        lines[6] = json.dumps(rec) + "\n"
        extra, code = (), 4
    else:
        lines = (d / "cands.jsonl").read_text().splitlines(keepends=True)[:10]
        lines[6] = '{"id": "broken", "task": \n'
        extra, code = ("--calibration", d / "calib.json"), 2
    path = tmp_path / "in.jsonl"
    path.write_text("".join(lines))
    return (stage, "-i", path, *extra), code


class TestAtomicOutput:
    @pytest.mark.parametrize("existing", [None, b"earlier output\n"],
                             ids=["no-output", "existing-output"])
    @pytest.mark.parametrize("stage", ["label", "verify"])
    def test_failing_stage_leaves_no_output(self, batches, tmp_path, stage,
                                            existing):
        argv, code = _broken_input(batches, tmp_path, stage)
        out = tmp_path / "out.jsonl"
        if existing is not None:
            out.write_bytes(existing)
        before = sorted(os.listdir(tmp_path))
        assert _run(*argv, "-o", out, "--seed", 808) == code
        assert sorted(os.listdir(tmp_path)) == before  # no output, no temp file
        if existing is not None:
            assert out.read_bytes() == existing

    def test_recover_without_cases_leaves_no_output(self, tmp_path):
        (tmp_path / "labeled.jsonl").write_text("")
        assert _run("recover", "-i", tmp_path / "labeled.jsonl",
                    "-o", tmp_path / "out.jsonl") == 4
        assert os.listdir(tmp_path) == ["labeled.jsonl"]

    @pytest.mark.parametrize("stage", ["label", "verify"])
    def test_in_place_matches_separate_output(self, batches, tmp_path, stage):
        d = batches[100]
        src = d / ("retained.jsonl" if stage == "label" else "cands.jsonl")
        extra = ("--calibration", d / "calib.json") if stage == "verify" else ()
        same = tmp_path / "same.jsonl"
        shutil.copyfile(src, same)
        assert _run(stage, "-i", src, *extra, "-o", tmp_path / "other.jsonl") == 0
        assert _run(stage, "-i", same, *extra, "-o", same) == 0
        assert same.read_bytes() == (tmp_path / "other.jsonl").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["other.jsonl", "same.jsonl"]

    def test_writer_that_raises_leaves_nothing(self, tmp_path):
        def records():
            yield {"a": 1}
            raise RuntimeError("stage failed")
        with pytest.raises(RuntimeError):
            write_records(tmp_path / "r.jsonl", records())
        with pytest.raises(ValueError):
            write_json(tmp_path / "m.json", {"x": float("nan")})
        assert os.listdir(tmp_path) == []


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


class TestOutputMode:
    """Outputs get the mode plain open() gives, not the temp file's."""

    def test_new_file_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_records(tmp_path / "atomic.jsonl", [{"a": 1}])
            with open(tmp_path / "plain.jsonl", "w"):
                pass
        finally:
            os.umask(old)
        assert _mode(tmp_path / "atomic.jsonl") == _mode(tmp_path / "plain.jsonl") == 0o640

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("earlier output\n")
        os.chmod(path, 0o604)
        write_records(path, [{"a": 1}])
        assert _mode(path) == 0o604
        assert path.read_text() == '{"a":1}\n'


class TestSpecialTargets:
    def test_symlink_target_is_replaced_and_link_kept(self, tmp_path):
        target = tmp_path / "real.jsonl"
        target.write_text("earlier output\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        write_records(link, [{"a": 1}])
        assert link.is_symlink()
        assert target.read_text() == '{"a":1}\n'
        assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "real.jsonl"]

    def test_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        write_records(fifo, [{"a": 1}])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == ['{"a":1}\n']
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["out.fifo"]
