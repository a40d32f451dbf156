"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, with every metric present and every output check passing."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402

TINY_DEMOS = 3


def _module_attrs():
    import failsynth
    import failsynth.metrics
    import failsynth.pipeline
    import failsynth.recovery
    import failsynth.rollout_io
    import failsynth.tracks
    import failsynth.verify
    import failsynth.world
    mods = (failsynth.metrics, failsynth.pipeline, failsynth.recovery,
            failsynth.rollout_io, failsynth.tracks, failsynth.verify,
            failsynth.world)
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def _same_objects(before, after):
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload, tmp_path, monkeypatch):
    def no_tracing(tracer):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(harness, "install", no_tracing)
    before = _module_attrs()
    out = harness.run(workload, seed=5, seconds=0, trace=False,
                      work=tmp_path / "work", demos=TINY_DEMOS)
    result, report = out["result"], out["report"]
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * 4 * TINY_DEMOS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert _same_objects(before, _module_attrs())
    json.dumps(result)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_run_reports_layers_and_restores_originals(workload, tmp_path):
    before = _module_attrs()
    out = harness.run(workload, seed=6, seconds=0, trace=True,
                      work=tmp_path / "work", demos=TINY_DEMOS)
    result, report = out["result"], out["report"]
    assert report["problems"] == [] and report["not_measured"] == []
    assert result["correct"] and result["failed"] == 0
    units = {name: unit for name, (unit, _) in harness.PER_LAYER.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) and v >= 0 for v in values.values())
    assert values["trace_overhead_frac"] > 0
    assert values["rollout_io.records_parsed"] > 0
    exercised = {
        "pipeline-clean": ("pipeline.verify_s", "tracks.score_tracks_p50_ms",
                           "world.resimulate_calls", "recovery.replay_p50_ms"),
        "gate-mixed": ("pipeline.verify_s", "semantic.requests",
                       "semantic.judge_cpu_s", "tracks.insufficient_tracking"),
        "replay-eval": ("pipeline.evaluate_s", "labels.parse_p50_ms",
                        "metrics.rouge_l_p50_ms", "recovery.replay_p50_ms"),
    }[workload]
    assert all(values[name] > 0 for name in exercised)
    if workload == "replay-eval":
        assert values["tracks.fit_affine_calls"] == 0
    assert _same_objects(before, _module_attrs())


def test_missing_name_is_reported_not_raised():
    tracer = harness.Tracer()
    tracer.wrap("failsynth.verify.no_such_function", "x")
    tracer.count("failsynth.no_such_module.f", "y")
    assert tracer.missing == ["failsynth.verify.no_such_function",
                              "failsynth.no_such_module.f"]
    assert tracer.close() == []


def test_speed_probe_sees_a_running_child_process():
    assert not harness.own_work_running()
    child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        deadline = time.monotonic() + 10
        while not harness.own_work_running():
            assert time.monotonic() < deadline, "a busy child was never seen running"
            time.sleep(0.01)
    finally:
        child.kill()
        child.wait()


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {name: unit for name, (unit, _) in harness.PER_LAYER.items()})


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
