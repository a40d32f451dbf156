"""Workloads, output checks, tracing and metrics of the failsynth benchmark.

The harness calls the public ``failsynth`` stage functions from outside, in
one process. Each workload builds its inputs from the seed (set-up, in a forked
child), then runs closed-loop batches of its timed stages: the next batch
starts when the last one has finished. ``run.py`` is the command-line entry point.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from failsynth.config import PipelineConfig
from failsynth.core import FailureType
from failsynth.errors import InsufficientTrackingError, TransportError
from failsynth.labels import FixLabel, LabelError, generate_label, serialize
from failsynth.pipeline import (FAILURE_TYPES, cmd_calibrate, cmd_evaluate,
                                cmd_generate, cmd_label, cmd_perturb,
                                cmd_recover, cmd_verify, perturb_one)
from failsynth.rollout_io import (read_json, read_records, read_rollouts,
                                  write_records, write_rollouts)
from failsynth.semantic import DEFAULT_VISUAL_FLOORS
from failsynth.world import ArtifactSpec

HERE = Path(__file__).resolve().parent
JUDGE = HERE / "judge.py"
SETUP_REPEATS = 3

# Speed probes: fixed tasks that no failsynth code touches, timed every
# PROBE_EVERY_S while timed code runs. Each workload uses the task closest to
# its hot path; times are reported at the reference speed, where the task
# takes its reference CPU seconds.
_PROBE_RECORD = json.dumps({"states": [[round(0.01 * t + j, 6) for j in range(7)]
                                       for t in range(61)]})
_PROBE_DST = np.random.default_rng(0).standard_normal((100, 2))
_PROBE_SRC = np.concatenate([_PROBE_DST, np.ones((100, 1))], axis=1)


def _parse_records():
    for _ in range(8):
        json.loads(_PROBE_RECORD)


def _fit_affines():
    for _ in range(8):
        theta = np.linalg.lstsq(_PROBE_SRC, _PROBE_DST, rcond=None)[0]
        np.median(np.linalg.norm(_PROBE_SRC @ theta - _PROBE_DST, axis=1))


PROBES = {"parse": (_parse_records, 0.55e-3), "fit": (_fit_affines, 0.6e-3)}
PROBE_EVERY_S = 0.1

END_TO_END = {
    "items_per_s": "1/s",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Per-layer metric -> (unit, the end-to-end metric it should move, on which
# workload). Counts are per batch. A layer a workload does not run reports 0.
PER_LAYER = {
    "pipeline.generate_s": ("s", "items_per_s on pipeline-clean"),
    "pipeline.perturb_s": ("s", "items_per_s on pipeline-clean"),
    "pipeline.calibrate_s": ("s", "items_per_s on pipeline-clean"),
    "pipeline.verify_s": ("s", "items_per_s on pipeline-clean and gate-mixed"),
    "pipeline.verify_self_s": ("s", "items_per_s on pipeline-clean and gate-mixed"),
    "pipeline.label_s": ("s", "items_per_s on pipeline-clean and replay-eval"),
    "pipeline.recover_s": ("s", "items_per_s on pipeline-clean and replay-eval"),
    "pipeline.evaluate_s": ("s", "items_per_s on replay-eval"),
    "tracks.score_tracks_p50_ms": ("ms", "items_per_s/cpu_ms_per_item on pipeline-clean and gate-mixed; none on replay-eval"),
    "tracks.score_tracks_p95_ms": ("ms", "items_per_s/cpu_ms_per_item on pipeline-clean and gate-mixed; none on replay-eval"),
    "tracks.fit_affine_calls": ("count", "items_per_s/cpu_ms_per_item on pipeline-clean and gate-mixed; none on replay-eval"),
    "tracks.insufficient_tracking": ("count", "items_per_s on gate-mixed"),
    "verify.verify_rollout_p50_ms": ("ms", "items_per_s on pipeline-clean and gate-mixed"),
    "verify.verify_rollout_p95_ms": ("ms", "items_per_s on pipeline-clean and gate-mixed"),
    "verify.idm_p50_ms": ("ms", "items_per_s on pipeline-clean and gate-mixed"),
    "verify.joints_p50_ms": ("ms", "items_per_s on pipeline-clean and gate-mixed"),
    "verify.calibrate_s": ("s", "items_per_s on pipeline-clean; setup_s on gate-mixed"),
    "verify.state_diff_calls": ("count", "items_per_s on pipeline-clean and gate-mixed"),
    "verify.retained_frac": ("ratio", "items_per_s on pipeline-clean and gate-mixed"),
    "semantic.judge_p50_ms": ("ms", "items_per_s/failed on gate-mixed"),
    "semantic.judge_p95_ms": ("ms", "items_per_s/failed on gate-mixed"),
    "semantic.requests": ("count", "items_per_s/failed on gate-mixed"),
    "semantic.transport_errors": ("count", "failed on gate-mixed"),
    "semantic.judge_cpu_s": ("s", "cpu_ms_per_item on gate-mixed"),
    "semantic.judge_left_running": ("count", "cpu_ms_per_item/failed on gate-mixed"),
    "world.synthesize_observations_p50_ms": ("ms", "items_per_s on pipeline-clean and gate-mixed"),
    "world.resimulate_p50_ms": ("ms", "items_per_s on pipeline-clean and replay-eval; setup_s on replay-eval"),
    "world.resimulate_calls": ("count", "items_per_s on pipeline-clean and replay-eval; setup_s on replay-eval"),
    "world.script_success_p50_ms": ("ms", "items_per_s on pipeline-clean; setup_s elsewhere"),
    "perturb.inject_p50_ms": ("ms", "items_per_s on pipeline-clean; setup_s elsewhere"),
    "perturb.offset_draws_per_accept": ("ratio", "items_per_s on pipeline-clean; setup_s elsewhere"),
    "rollout_io.parse_ms_per_record": ("ms", "items_per_s and peak_rss_mb on all three"),
    "rollout_io.write_ms_per_record": ("ms", "items_per_s on all three, most on pipeline-clean"),
    "rollout_io.records_parsed": ("count", "items_per_s and peak_rss_mb on all three"),
    "rollout_io.bytes_written": ("B", "items_per_s on all three, most on pipeline-clean"),
    "labels.generate_label_p50_ms": ("ms", "items_per_s on replay-eval"),
    "labels.parse_p50_ms": ("ms", "items_per_s on replay-eval"),
    "labels.parse_errors": ("count", "items_per_s on replay-eval"),
    "recovery.replay_p50_ms": ("ms", "items_per_s on replay-eval; a small share on pipeline-clean"),
    "recovery.replay_p95_ms": ("ms", "items_per_s on replay-eval; a small share on pipeline-clean"),
    "recovery.recovered_frac": ("ratio", "items_per_s on replay-eval"),
    "metrics.evaluate_record_p50_ms": ("ms", "items_per_s on replay-eval only"),
    "metrics.rouge_l_p50_ms": ("ms", "items_per_s on replay-eval only"),
    "metrics.rouge_l_p95_ms": ("ms", "items_per_s on replay-eval only"),
    "trace_overhead_frac": ("ratio", "traced batch wall over the untraced batch just before it"),
}

VERIFIERS = ("semantic_validity", "semantic_visual", "idm", "joint", "track")


# ---------------------------------------------------------------------------
# tracing

class Tracer:
    """Spans and counts recorded by wrapping module attributes.

    ``install`` replaces each module-level name a layer is called through
    with a wrapper; ``close`` puts every original back. A name that does not
    exist is listed in ``missing`` and its metrics read 0.
    """

    def __init__(self):
        self.durations = defaultdict(list)  # span name -> seconds, one per call
        self.self_time = defaultdict(float)  # span name -> seconds outside child spans
        self.counts = Counter()
        self.missing = []
        self._open = []  # child seconds of each open span
        self._patched = []  # (module, attribute, original)

    @contextmanager
    def span(self, name):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self.durations[name].append(seconds)
            self.self_time[name] += seconds - self._open.pop()
            if self._open:
                self._open[-1] += seconds

    def _patch(self, target, make_wrapper):
        module_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            if target not in self.missing:  # install runs once per traced batch
                self.missing.append(target)
            return
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))
        self._patched.append((module, attr, original))

    def wrap(self, target, name, error=None, after=None):
        """Time every call of ``target`` as span ``name``.

        ``error`` is (exception type, counter) counted when a call raises it;
        ``after(args, result)`` runs after each call that returns.
        """
        span, counts = self.span, self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                try:
                    with span(name):
                        result = original(*args, **kwargs)
                except error[0] if error else ():
                    counts[error[1]] += 1
                    raise
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        self._patch(target, make)

    def count(self, target, counter):
        """Count calls of ``target`` without timing them (hot inner calls)."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return original(*args, **kwargs)
            return wrapper
        self._patch(target, make)

    def wrap_iter(self, target, name, counter):
        """Time each item a generator function yields as span ``name``."""
        span, counts = self.span, self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                items = original(*args, **kwargs)
                while True:
                    with span(name):
                        item = next(items, StopIteration)
                    if item is StopIteration:
                        return
                    counts[counter] += 1
                    yield item
            return wrapper
        self._patch(target, make)

    def close(self) -> list:
        """Restore every original; return the names that are not the original after."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        wrong = [f"{m.__name__}.{a}" for m, a, o in self._patched
                 if getattr(m, a) is not o]
        self._patched.clear()
        return wrong


def install(tr: Tracer) -> None:
    """Wrap the module-level names each layer is called through."""
    counts = tr.counts

    def written(args, n):
        counts["rollout_io.records_written"] += n
        counts["rollout_io.bytes_written"] += os.path.getsize(args[0])

    def drawn(args, result):
        counts["perturb.offset_draws"] += result[2]
        counts["perturb.offset_accepts"] += 1

    for mod in ("failsynth.pipeline", "failsynth.verify"):
        tr.wrap(f"{mod}.score_tracks", "tracks.score_tracks",
                error=(InsufficientTrackingError, "tracks.insufficient_tracking"))
    tr.count("failsynth.tracks.fit_affine", "tracks.fit_affine_calls")
    tr.wrap("failsynth.pipeline.verify_rollout", "verify.verify_rollout")
    tr.wrap("failsynth.verify.verify_idm", "verify.idm")
    tr.wrap("failsynth.verify.verify_joints", "verify.joints")
    tr.wrap("failsynth.pipeline.calibrate_idm", "verify.calibrate")
    tr.wrap("failsynth.pipeline.calibrate_joints", "verify.calibrate")
    tr.count("failsynth.verify.state_diff", "verify.state_diff_calls")
    tr.wrap("failsynth.verify.verify_semantic", "semantic.judge",
            error=(TransportError, "semantic.transport_errors"))
    tr.wrap("failsynth.pipeline.synthesize_observations", "world.synthesize_observations")
    for mod in ("failsynth.pipeline", "failsynth.recovery", "failsynth.world"):
        tr.wrap(f"{mod}.resimulate", "world.resimulate")
    tr.wrap("failsynth.pipeline.script_success", "world.script_success")
    for kind in ("translation", "weak_close", "force_open", "delay_close"):
        tr.wrap(f"failsynth.pipeline.inject_{kind}", "perturb.inject")
    tr.wrap("failsynth.pipeline.draw_translation_offset", "perturb.draw_offset",
            after=drawn)
    for mod in ("failsynth.pipeline", "failsynth.rollout_io"):
        tr.wrap_iter(f"{mod}.read_records", "rollout_io.parse",
                     "rollout_io.records_parsed")
        tr.wrap(f"{mod}.rollout_from_record", "rollout_io.parse")
    for fn in ("write_records", "write_rollouts"):
        tr.wrap(f"failsynth.pipeline.{fn}", "rollout_io.write", after=written)
    tr.wrap("failsynth.pipeline.generate_label", "labels.generate_label")
    for mod in ("failsynth.pipeline", "failsynth.metrics"):
        tr.wrap(f"{mod}.parse", "labels.parse",
                error=(LabelError, "labels.parse_errors"))
    tr.wrap("failsynth.pipeline.replay_with_recovery", "recovery.replay")
    tr.wrap("failsynth.metrics.evaluate_record", "metrics.evaluate_record")
    tr.wrap("failsynth.metrics.rouge_l", "metrics.rouge_l")


# ---------------------------------------------------------------------------
# machine speed

def _running(stat_path: str) -> bool:
    try:
        with open(stat_path) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "R"
    except (OSError, IndexError):
        return False  # the task has just ended


def own_work_running() -> bool:
    """Whether another thread of this process, or a child process, is on a CPU."""
    me = str(threading.get_native_id())
    for tid in os.listdir("/proc/self/task"):
        task = f"/proc/self/task/{tid}"
        if tid != me and _running(f"{task}/stat"):
            return True
        try:
            with open(f"{task}/children") as fh:
                children = fh.read().split()
        except OSError:
            children = []
        if any(_running(f"/proc/{pid}/stat") for pid in children):
            return True
    return False


class SpeedProbe:
    """How fast the machine executes code while timed code runs.

    On a shared host, other tenants' load changes how fast this process's
    code executes by tens of percent within minutes; CPU time grows with wall
    time, so the process is slowed rather than descheduled. A SIGALRM timer
    interrupts the process every PROBE_EVERY_S and runs the workload's probe
    task, timed by this thread's CPU time, which leaves out waiting for a CPU
    or the GIL. A sample is dropped when another thread of this process or a
    child process is running: the program's own concurrent work (pool
    workers, the judge) slows the probe as well, and a change that spreads
    work over more processes would be credited twice. So the timer's samples
    are kept only when none of that runs just before and just after the
    task; the samples at the block's start and end are always kept.
    ``scale`` converts a time measured inside the ``with`` block to the
    reference speed. The probe costs about 1% of the measured time.
    """

    def __init__(self, kind: str):
        self.task, self.reference_s = PROBES[kind]
        self.task()  # untimed: the first call pays one-off library set-up
        self.samples = []

    def _sample(self, signum=None, frame=None):
        timer = signum is not None
        if timer and own_work_running():
            return
        t0 = time.thread_time()
        self.task()
        seconds = time.thread_time() - t0
        if not (timer and own_work_running()):
            self.samples.append(seconds)

    def __enter__(self):
        self.samples = []
        self._sample()  # the edges count too, so short blocks get samples
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self) -> float:
        return self.reference_s / statistics.mean(self.samples)


# ---------------------------------------------------------------------------
# helpers

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def digest(directory: Path) -> str:
    """sha256 over the names and bytes of every file in a directory."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            # chunked, so hashing adds no large allocation to peak_rss_mb
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def verify_checks(manifest: dict, expected_generated: int) -> list:
    """Accounting checks every verify manifest must pass."""
    problems = []
    total = manifest["retained"] + manifest["rejected"] + manifest["quarantined"]
    if total != manifest["generated"]:
        problems.append(f"retained+rejected+quarantined={total} != generated="
                        f"{manifest['generated']}")
    if manifest["generated"] != expected_generated:
        problems.append(f"generated {manifest['generated']} != {expected_generated}")
    return problems


class Judge:
    """The judge process a verify stage starts through the ``pipe:`` endpoint.

    ``cmd_verify`` owns the client, so the harness finds the process through
    the status file the judge writes, and stops and reaps it when the stage
    has returned without closing the pipe.
    """

    def __init__(self, status: Path):
        # Paths relative to the working directory keep the endpoint, and so
        # the config hash in the outputs, the same from run to run.
        cmd = [sys.executable, os.path.relpath(JUDGE), os.path.relpath(status)]
        if any(ch.isspace() for ch in "".join(cmd)):
            raise ValueError("pipe: endpoints split on whitespace; run the "
                             "benchmark from a path without spaces")
        self.status = status
        self.endpoint = "pipe:" + " ".join(cmd)

    def reset(self) -> None:
        self.status.unlink(missing_ok=True)

    def _read(self):
        try:
            return json.loads(self.status.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def finish(self) -> bool:
        """Stop the judge if still running and reap it, so its CPU time lands
        in this process's RUSAGE_CHILDREN; return whether it was left running."""
        state = self._read()
        if state is None:
            raise RuntimeError("the judge process never reported its start")
        left_running = state["exit"] is None
        if left_running:
            try:
                os.kill(state["pid"], signal.SIGTERM)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(state["pid"], 0)
        except ChildProcessError:
            pass  # already reaped by the client's own wait
        state = self._read()
        if state is None or state["exit"] is None:
            raise RuntimeError("the judge process ended without a final report")
        return left_running

    def stop(self) -> None:
        """Best-effort stop for the error path."""
        state = self._read()
        if state and state["exit"] is None:
            try:
                os.kill(state["pid"], signal.SIGTERM)
                os.waitpid(state["pid"], 0)
            except (ProcessLookupError, ChildProcessError):
                pass


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Set-up, timed stages and output checks of one workload."""

    judge = None
    probe = "fit"  # the SpeedProbe task closest to the workload's hot path

    def setup(self, d: Path) -> None:
        """Build the inputs of the timed stages in ``d``."""
        raise NotImplementedError

    def stages(self, inputs: Path, out: Path, span) -> dict:
        """Run the timed stages; return the manifests."""
        raise NotImplementedError

    def check(self, inputs: Path, out: Path, manifests: dict) -> list:
        """Return a description of every output check that fails."""
        raise NotImplementedError


class PipelineClean(Workload):
    """Acceptance criterion 8: generate -> perturb -> calibrate -> verify ->
    label -> recover on self labels, default config."""

    def __init__(self, seed: int, demos: int = 50):
        self.cfg = PipelineConfig(seed=seed)
        self.demos = demos
        self.items = 4 * demos

    def _run(self, n: int, out: Path, span) -> dict:
        cfg = self.cfg
        with span("pipeline.generate"):
            gen = cmd_generate(cfg, n, out / "demos.jsonl", out / "generate.json")
        with span("pipeline.perturb"):
            per = cmd_perturb(cfg, out / "demos.jsonl", out / "candidates.jsonl",
                              out / "perturb.json")
        with span("pipeline.calibrate"):
            cmd_calibrate(cfg, out / "demos.jsonl", out / "calibration.json")
        with span("pipeline.verify"):
            ver = cmd_verify(cfg, out / "candidates.jsonl", out / "calibration.json",
                             out / "retained.jsonl", out / "verify.json")
        with span("pipeline.label"):
            lab = cmd_label(cfg, out / "retained.jsonl", out / "labeled.jsonl",
                            out / "label.json")
        with span("pipeline.recover"):
            rec = cmd_recover(cfg, out / "labeled.jsonl", out / "recovered.jsonl",
                              manifest_path=out / "recover.json")
        return {"generate": gen, "perturb": per, "verify": ver, "label": lab,
                "recover": rec}

    def setup(self, d):
        # The timed stages make their own inputs, so set-up is a trial run of
        # every stage on 4 demos.
        self._run(4, d, nullcontext_span)

    def stages(self, inputs, out, span):
        return self._run(self.demos, out, span)

    def check(self, inputs, out, manifests):
        ver, rec = manifests["verify"], manifests["recover"]
        problems = []
        if ver["retained"] != self.items:
            problems.append(f"retained {ver['retained']}/{self.items}, want all")
        if rec["recovery_rate"] != 1.0:
            problems.append(f"self-label recovery {rec['recovery_rate']}, want 1.0")
        return problems


def nullcontext_span(name):
    return nullcontext()


# gate-mixed candidate kinds: artifacts (None for a success demo passed in as
# a candidate) and the verifiers each kind must fail. "hi" magnitudes are
# 10x-100x their visual floor, as in acceptance criterion 4, so the judge
# and the named physical verifier reject them; "lo" are half the floor, so the
# judge waives them and only the physical verifiers can catch them.
_HALF_FLOOR = {k: v / 2 for k, v in DEFAULT_VISUAL_FLOORS.items()}
GATE_KINDS = {
    "clean": (ArtifactSpec(), ()),
    "jitter_hi": (ArtifactSpec(jitter_px=6.0), ("semantic_visual", "track")),
    "flicker_hi": (ArtifactSpec(flicker_rate=0.6), ("semantic_visual", "track")),
    "topo_hi": (ArtifactSpec(topo_warp=0.8), ("semantic_visual", "track")),
    "affine_hi": (ArtifactSpec(affine_jitter=2.0), ("semantic_visual", "track")),
    "spike_hi": (ArtifactSpec(joint_spike=0.5), ("semantic_visual", "joint")),
    "jitter_lo": (ArtifactSpec(jitter_px=_HALF_FLOOR["jitter_px"]), ("track",)),
    "flicker_lo": (ArtifactSpec(flicker_rate=_HALF_FLOOR["flicker_rate"]), ("track",)),
    "topo_lo": (ArtifactSpec(topo_warp=_HALF_FLOOR["topo_warp"]), ()),
    "affine_lo": (ArtifactSpec(affine_jitter=_HALF_FLOOR["affine_jitter"]), ()),
    "spike_lo": (ArtifactSpec(joint_spike=_HALF_FLOOR["joint_spike"]), ("joint",)),
    "demo": (None, ("semantic_validity",)),
}
FLICKER_KINDS = ("flicker_hi", "flicker_lo")  # rejected by InsufficientTrackingError


class GateMixed(Workload):
    """The verify stage alone on a mixed batch, judged through ``pipe:``."""

    def __init__(self, seed: int, judge: Judge, demos: int = 50):
        self.judge = judge
        self.cfg = PipelineConfig(seed=seed, semantic_endpoint=judge.endpoint)
        self.demos = demos
        self.items = 4 * demos
        names = list(GATE_KINDS)
        # candidate j = demo j // 4 with failure type j % 4; (5i + t) % 12
        # pairs every kind with every failure type
        self.kinds = [names[(5 * (j // 4) + j % 4) % len(names)]
                      for j in range(self.items)]

    def setup(self, d):
        cfg = self.cfg
        cmd_generate(cfg, self.demos, d / "demos.jsonl")
        demos = read_rollouts(d / "demos.jsonl")
        candidates = []
        for j, kind in enumerate(self.kinds):
            i, artifacts = j // 4, GATE_KINDS[kind][0]
            if artifacts is None:
                candidates.append(demos[i])
            else:
                cand, _ = perturb_one(demos[i], cfg, i, FAILURE_TYPES[j % 4],
                                      artifacts=artifacts)
                candidates.append(cand)
        write_rollouts(d / "candidates.jsonl", candidates)
        cmd_calibrate(cfg, d / "demos.jsonl", d / "calibration.json")

    def stages(self, inputs, out, span):
        with span("pipeline.verify"):
            ver = cmd_verify(self.cfg, inputs / "candidates.jsonl",
                             inputs / "calibration.json", out / "retained.jsonl",
                             out / "verify.json")
        return {"verify": ver}

    def expected(self) -> dict:
        counts = {v: 0 for v in VERIFIERS}
        retained = 0
        for kind in self.kinds:
            failing = GATE_KINDS[kind][1]
            retained += not failing
            for v in failing:
                counts[v] += 1
        return {"rejections": counts, "retained": retained}

    def check(self, inputs, out, manifests):
        ver = manifests["verify"]
        want = self.expected()
        problems = []
        if ver["rejections"] != want["rejections"]:
            problems.append(f"rejections {ver['rejections']} != injected mix "
                            f"{want['rejections']}")
        if ver["retained"] != want["retained"]:
            problems.append(f"retained {ver['retained']} != {want['retained']}")
        return problems


# replay-eval prediction kinds and their share of the cases
PREDICTION_KINDS = {"exact": 0.4, "off_by_one": 0.15, "corrupted": 0.15,
                    "wrong_type": 0.15, "unparseable": 0.15}
UNPARSEABLE = (
    "The robot missed the object; move it a little to the left.",
    "RESULT=MAYBE; TYPE=translation; STAGE=pre_grasp; unsure.",
    "RESULT=FAIL; TYPE=teleport; STAGE=grasp; CLOSE_AT=20; STRENGTH=1",
    "RESULT=FAIL; TYPE=delay_close; STAGE=grasp; CLOSE_AT=soon; STRENGTH=1",
    "RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=-x; FIX_N_X=2",
)


def predict(kind: str, gt: FixLabel, keyframe: int, index: int) -> str:
    """Prediction text of one kind for ground-truth label ``gt``."""
    if kind == "exact":
        return serialize(gt)
    if kind == "unparseable":
        return UNPARSEABLE[index % len(UNPARSEABLE)]
    translation = gt.failure_type is FailureType.translation
    if kind == "off_by_one":
        pred = (replace(gt, fix_n_x=gt.fix_n_x + 1) if translation
                else replace(gt, close_at=gt.close_at + 1))
    elif kind == "corrupted":  # flipped directions / useless strength
        flip = {"+x": "-x", "-x": "+x", "+y": "-y", "-y": "+y"}
        pred = (replace(gt, fix_dir_x=flip[gt.fix_dir_x], fix_dir_y=flip[gt.fix_dir_y])
                if translation else replace(gt, strength=0.1))
    elif translation:  # wrong_type
        pred = FixLabel(result="FAIL", failure_type=FailureType.force_open,
                        stage="grasp", close_at=keyframe, strength=1.0)
    else:
        pred = FixLabel(result="FAIL", failure_type=FailureType.translation,
                        stage="pre_grasp", fix_dir_x="+x", fix_n_x=1,
                        fix_dir_y="+y", fix_n_y=1)
    return serialize(pred)


class ReplayEval(Workload):
    """label -> recover (predictions) -> evaluate on 4 failures per demo."""

    probe = "parse"

    def __init__(self, seed: int, demos: int = 250):
        self.cfg = PipelineConfig(seed=seed)
        self.demos = demos
        self.items = 4 * demos
        rng = random.Random(seed)
        # prediction kind of each case, in candidate order
        self.kinds = rng.choices(list(PREDICTION_KINDS),
                                 weights=list(PREDICTION_KINDS.values()), k=self.items)

    def setup(self, d):
        cfg = self.cfg
        cmd_generate(cfg, self.demos, d / "demos.jsonl")
        candidates = [perturb_one(demo, cfg, i, ft)[0]
                      for i, demo in enumerate(read_rollouts(d / "demos.jsonl"))
                      for ft in FAILURE_TYPES]
        write_rollouts(d / "candidates.jsonl", candidates)
        preds = []
        for index, (cand, kind) in enumerate(zip(candidates, self.kinds)):
            gt = generate_label(cand.spec, bin_size=cfg.label.bin_size,
                                attach_strength=cand.meta["scene"]["attach_strength"],
                                strength_margin=cfg.label.strength_margin)
            preds.append({"id": cand.id,
                          "pred_text": predict(kind, gt, cand.spec.keyframe, index),
                          "gt_text": serialize(gt)})
        write_records(d / "predictions.jsonl", preds)

    def stages(self, inputs, out, span):
        cfg = self.cfg
        with span("pipeline.label"):
            lab = cmd_label(cfg, inputs / "candidates.jsonl", out / "labeled.jsonl",
                            out / "label.json")
        with span("pipeline.recover"):
            rec = cmd_recover(cfg, out / "labeled.jsonl", out / "recovered.jsonl",
                              predictions_path=inputs / "predictions.jsonl",
                              manifest_path=out / "recover.json")
        with span("pipeline.evaluate"):
            ev = cmd_evaluate(cfg, out / "labeled.jsonl", inputs / "predictions.jsonl",
                              report_path=out / "evaluate.json")
        # the per-record list stays on disk; batches keep only the summary
        ev = {k: v for k, v in ev.items() if k != "records"}
        return {"label": lab, "recover": rec, "evaluate": ev}

    def check(self, inputs, out, manifests):
        problems = []
        preds = list(read_records(inputs / "predictions.jsonl"))
        kinds = {r["id"]: kind for r, kind in zip(preds, self.kinds)}
        gt = {r["id"]: r["gt_text"] for r in preds}
        labels = {r["id"]: r["label"] for r in read_records(out / "labeled.jsonl")}
        if labels != gt:
            problems.append("labels differ from generate_label on the injected specs")
        wrong = Counter()
        for entry in read_records(out / "recovered.jsonl"):
            kind = kinds[entry["id"]]
            if kind == "exact" and not entry["recovered"]:
                wrong["exact label not recovered"] += 1
            if kind == "corrupted" and entry["recovered"]:
                wrong["corrupted label recovered"] += 1
            if kind == "unparseable" and entry["error"] is None:
                wrong["unparseable prediction without error entry"] += 1
        for rec in read_json(out / "evaluate.json")["records"]:
            kind = kinds[rec["id"]]
            if kind == "unparseable" and rec["parse_error"] is None:
                wrong["unparseable prediction without parse error"] += 1
            if kind == "exact" and rec["acc"] != 1.0:
                wrong["exact prediction scored below 1.0"] += 1
        problems += [f"{n} cases: {what}" for what, n in sorted(wrong.items())]
        if manifests["recover"]["cases"] != self.items:
            problems.append(f"recovered {manifests['recover']['cases']} cases "
                            f"!= {self.items}")
        return problems


WORKLOADS = ("pipeline-clean", "gate-mixed", "replay-eval")


def make_workload(name: str, seed: int, work: Path, demos=None) -> Workload:
    sizes = {} if demos is None else {"demos": demos}
    if name == "pipeline-clean":
        return PipelineClean(seed, **sizes)
    if name == "gate-mixed":
        return GateMixed(seed, Judge(work / "judge-status.json"), **sizes)
    if name == "replay-eval":
        return ReplayEval(seed, **sizes)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# the run

def cpu_seconds() -> tuple:
    """CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


@dataclass
class Batch:
    """One batch's measurements and outcome; ``raw_`` times as measured, the
    others at reference speed."""

    raw_wall: float  # seconds of the timed stages
    raw_cpu: float  # CPU seconds of this process and every child it reaped
    child_cpu: float  # the children's share of ``raw_cpu`` (the judge, pool workers)
    scale: float  # reference time over measured time, from the SpeedProbe
    left_running: Optional[bool]  # whether the stage left its judge running
    manifests: dict
    digest: str
    traced: bool

    @property
    def wall(self) -> float:
        return self.raw_wall * self.scale

    @property
    def cpu(self) -> float:
        return self.raw_cpu * self.scale


def run_batch(wl: Workload, inputs: Path, out: Path, tracer) -> Batch:
    fresh_dir(out)
    if wl.judge:
        wl.judge.reset()
    span = tracer.span if tracer else nullcontext_span
    gc.collect()  # every batch starts from the same heap state
    with SpeedProbe(wl.probe) as speed:
        own0, children0 = cpu_seconds()
        t0 = time.perf_counter()
        manifests = wl.stages(inputs, out, span)
        wall = time.perf_counter() - t0
        own1 = cpu_seconds()[0]
    # reaping the judge puts its CPU time into RUSAGE_CHILDREN
    left_running = wl.judge.finish() if wl.judge else None
    child_cpu = cpu_seconds()[1] - children0
    return Batch(wall, own1 - own0 + child_cpu, child_cpu, speed.scale(),
                 left_running, manifests, digest(out), tracer is not None)


def measure(seconds: float, run_round, min_rounds: int = 1) -> None:
    """Call ``run_round`` closed-loop for about ``seconds``: another round
    starts while at least half of one still fits."""
    start, done = time.perf_counter(), 0
    while True:
        t0 = time.perf_counter()
        run_round()
        done += 1
        now = time.perf_counter()
        if done >= min_rounds and now - start + (now - t0) / 2 > seconds:
            return


def layer_metrics(tr: Tracer, traced: list, untraced: list) -> dict:
    n = len(traced)
    dur, counts = tr.durations, tr.counts

    def p(span, q):
        return percentile(dur.get(span, []), q) * 1e3

    def per_batch(counter):
        return counts[counter] / n

    def manifest_ratio(stage, num, den):
        vals = [b.manifests[stage][num] / b.manifests[stage][den]
                for b in traced if stage in b.manifests]
        return median(vals)

    parsed = counts["rollout_io.records_parsed"]
    written = counts["rollout_io.records_written"]
    judged = [b for b in traced if b.left_running is not None]
    m = {f"pipeline.{s}_s": median(dur.get(f"pipeline.{s}", []))
         for s in ("generate", "perturb", "calibrate", "verify", "label",
                   "recover", "evaluate")}
    m.update({
        "pipeline.verify_self_s": tr.self_time["pipeline.verify"] / n,
        "tracks.score_tracks_p50_ms": p("tracks.score_tracks", 0.5),
        "tracks.score_tracks_p95_ms": p("tracks.score_tracks", 0.95),
        "tracks.fit_affine_calls": per_batch("tracks.fit_affine_calls"),
        "tracks.insufficient_tracking": per_batch("tracks.insufficient_tracking"),
        "verify.verify_rollout_p50_ms": p("verify.verify_rollout", 0.5),
        "verify.verify_rollout_p95_ms": p("verify.verify_rollout", 0.95),
        "verify.idm_p50_ms": p("verify.idm", 0.5),
        "verify.joints_p50_ms": p("verify.joints", 0.5),
        "verify.calibrate_s": sum(dur.get("verify.calibrate", [])) / n,
        "verify.state_diff_calls": per_batch("verify.state_diff_calls"),
        "verify.retained_frac": manifest_ratio("verify", "retained", "generated"),
        "semantic.judge_p50_ms": p("semantic.judge", 0.5),
        "semantic.judge_p95_ms": p("semantic.judge", 0.95),
        "semantic.requests": len(dur.get("semantic.judge", [])) / n,
        "semantic.transport_errors": per_batch("semantic.transport_errors"),
        "semantic.judge_cpu_s": median([b.child_cpu for b in judged]),
        "semantic.judge_left_running": sum(b.left_running for b in judged) / n,
        "world.synthesize_observations_p50_ms": p("world.synthesize_observations", 0.5),
        "world.resimulate_p50_ms": p("world.resimulate", 0.5),
        "world.resimulate_calls": len(dur.get("world.resimulate", [])) / n,
        "world.script_success_p50_ms": p("world.script_success", 0.5),
        "perturb.inject_p50_ms": p("perturb.inject", 0.5),
        "perturb.offset_draws_per_accept": (
            counts["perturb.offset_draws"] / counts["perturb.offset_accepts"]
            if counts["perturb.offset_accepts"] else 0.0),
        "rollout_io.parse_ms_per_record": (
            sum(dur.get("rollout_io.parse", [])) * 1e3 / parsed if parsed else 0.0),
        "rollout_io.write_ms_per_record": (
            sum(dur.get("rollout_io.write", [])) * 1e3 / written if written else 0.0),
        "rollout_io.records_parsed": parsed / n,
        "rollout_io.bytes_written": per_batch("rollout_io.bytes_written"),
        "labels.generate_label_p50_ms": p("labels.generate_label", 0.5),
        "labels.parse_p50_ms": p("labels.parse", 0.5),
        "labels.parse_errors": per_batch("labels.parse_errors"),
        "recovery.replay_p50_ms": p("recovery.replay", 0.5),
        "recovery.replay_p95_ms": p("recovery.replay", 0.95),
        "recovery.recovered_frac": manifest_ratio("recover", "recovered", "cases"),
        "metrics.evaluate_record_p50_ms": p("metrics.evaluate_record", 0.5),
        "metrics.rouge_l_p50_ms": p("metrics.rouge_l", 0.5),
        "metrics.rouge_l_p95_ms": p("metrics.rouge_l", 0.95),
        "trace_overhead_frac": median([t.wall / u.wall
                                       for u, t in zip(untraced, traced)]),
    })
    return m


def timed_in_child(fn, probe: str, *args) -> tuple:
    """Run ``fn(*args)`` in a forked child; return its wall seconds as
    measured and at reference speed.

    The child's memory is its own, so the peak resident set of this process
    covers only what runs in it: the imports and the timed batches.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with SpeedProbe(probe) as speed:
                t0 = time.perf_counter()
                fn(*args)
                seconds = time.perf_counter() - t0
            os.write(write_end, json.dumps([seconds, seconds * speed.scale()]).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        times = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not times:
        raise RuntimeError("set-up failed in its child process; traceback on stderr")
    return tuple(json.loads(times))


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        demos=None) -> dict:
    """Run one workload; return {"result": ..., "report": ...}.

    The result has ``correct``, ``attempted``, ``failed`` and ``metrics``;
    the report has the batches, checks and digests behind it.
    """
    work = fresh_dir(work)
    wl = make_workload(workload, seed, work, demos)
    problems, setup_times, setup_digests, batches = [], [], [], []
    tracer, raised, not_restored = None, False, []
    try:
        for k in range(SETUP_REPEATS):
            inputs = fresh_dir(work / f"setup-{k}")
            setup_times.append(timed_in_child(wl.setup, wl.probe, inputs))
            setup_digests.append(digest(inputs))
        setup_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        if len(set(setup_digests)) != 1:
            problems.append("set-up outputs differ between repeats of one seed")
        out = work / "batch"
        try:
            if trace:
                tracer = Tracer()

                def traced_pair():
                    # An untraced batch, then a traced one: load changes on a
                    # shared machine hit both alike in trace_overhead_frac.
                    batches.append(run_batch(wl, inputs, out, None))
                    install(tracer)
                    try:
                        batches.append(run_batch(wl, inputs, out, tracer))
                    finally:
                        not_restored.extend(tracer.close())
                measure(seconds, traced_pair)
            else:
                measure(seconds, lambda: batches.append(run_batch(wl, inputs, out, None)),
                        min_rounds=2)
        except Exception:
            traceback.print_exc()
            problems.append("a stage raised; traceback on stderr")
            raised = True
        if not_restored:
            problems.append(f"not restored after tracing: {sorted(set(not_restored))}")
        if batches and not raised:
            problems += [f"last batch: {p}" for p in
                         wl.check(inputs, out, batches[-1].manifests)]
        for i, b in enumerate(batches):
            if "verify" in b.manifests:
                problems += [f"batch {i}: {p}" for p in
                             verify_checks(b.manifests["verify"], wl.items)]
        if len({b.digest for b in batches}) > 1:
            problems.append("output bytes differ between batches of one seed")
    finally:
        if wl.judge:
            wl.judge.stop()
        shutil.rmtree(work, ignore_errors=True)

    traced = [b for b in batches if b.traced]
    untraced = [b for b in batches if not b.traced]
    if isinstance(wl, GateMixed) and traced:
        want = sum(k in FLICKER_KINDS for k in wl.kinds) * len(traced)
        if tracer.counts["tracks.insufficient_tracking"] != want:
            problems.append("insufficient-tracking count differs from the "
                            "flicker candidates injected")
    failed = raised * wl.items + sum(m.get("quarantined", 0) for b in batches
                                     for m in b.manifests.values())
    if not trace:
        values = {
            "items_per_s": median([wl.items / b.wall for b in batches]),
            "cpu_ms_per_item": median([b.cpu * 1e3 / wl.items for b in batches]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": median([scaled for _, scaled in setup_times]),
        }
        units = END_TO_END
    else:
        values = (layer_metrics(tracer, traced, untraced) if traced and untraced
                  else dict.fromkeys(PER_LAYER, 0.0))
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    result = {
        "correct": not problems and failed == 0,
        "attempted": wl.items * (len(batches) + raised),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "batches": len(batches),
        "raw_items_per_s": median([wl.items / b.raw_wall for b in batches]),
        "raw_cpu_ms_per_item": median([b.raw_cpu * 1e3 / wl.items for b in batches]),
        "batch_wall_s": [b.raw_wall for b in batches],
        "batch_cpu_s": [b.raw_cpu for b in batches],
        "slowdown": [1 / b.scale for b in batches],
        "setup_s": [raw for raw, _ in setup_times], "setup_peak_rss_mb": setup_rss_mb,
        "output_sha256": batches[0].digest if batches else None,
        "problems": problems,
        "not_measured": tracer.missing if tracer else [],
    }
    return {"result": result, "report": report}
