import json
import logging
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import failsynth
from failsynth import pipeline
from failsynth.cli import main
from failsynth.config import PipelineConfig
from failsynth.core import FailureType
from failsynth.errors import ValidationError
from failsynth.rollout_io import read_records

from test_labels import label_texts


def _run(*argv):
    return main([str(a) for a in argv])


def _write_preds(labeled_path, preds_path, mutate=None):
    with open(preds_path, "w") as fh:
        for rec in read_records(labeled_path):
            text = rec["label"] if mutate is None else mutate(rec)
            fh.write(json.dumps({"id": rec["id"], "pred_text": text}) + "\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small pipeline run shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    assert _run("generate", "-n", 3, "-o", d / "demos.jsonl",
                "--manifest", d / "gen.json", "--seed", 11) == 0
    assert _run("perturb", "-i", d / "demos.jsonl", "-o", d / "cands.jsonl",
                "--manifest", d / "pert.json", "--seed", 11) == 0
    assert _run("calibrate", "-i", d / "demos.jsonl", "-o", d / "calib.json",
                "--seed", 11) == 0
    assert _run("verify", "-i", d / "cands.jsonl", "--calibration",
                d / "calib.json", "-o", d / "retained.jsonl",
                "--manifest", d / "ver.json", "--seed", 11) == 0
    assert _run("label", "-i", d / "retained.jsonl", "-o", d / "labeled.jsonl",
                "--seed", 11) == 0
    assert _run("recover", "-i", d / "labeled.jsonl", "-o", d / "recov.jsonl",
                "--manifest", d / "rec.json", "--seed", 11) == 0
    return d


class TestPipeline:
    def test_stage_outputs_exist(self, workdir):
        for name in ("demos.jsonl", "cands.jsonl", "calib.json",
                     "retained.jsonl", "labeled.jsonl", "recov.jsonl"):
            assert (workdir / name).exists()

    def test_perturb_expands_per_failure_type(self, workdir):
        manifest = json.loads((workdir / "pert.json").read_text())
        assert manifest["candidates"] == manifest["inputs"] * 4
        assert set(manifest["per_type"]) == {"translation", "weak_close",
                                             "force_open", "delay_close"}

    def test_verify_manifest_accounting(self, workdir):
        m = json.loads((workdir / "ver.json").read_text())
        assert m["retained"] + m["rejected"] + m["quarantined"] == m["generated"]
        assert m["generated"] == 12
        assert set(m["rejections"]) == {"semantic_validity", "semantic_visual",
                                        "idm", "joint", "track"}
        assert m["stats"]["generated"]["s_vis"] is not None
        assert m["stats"]["ground_truth"]["demos"] == 3

    def test_config_hash_stamped_everywhere(self, workdir):
        hashes = {json.loads((workdir / n).read_text())["config_hash"]
                  for n in ("gen.json", "pert.json", "ver.json", "rec.json")}
        assert len(hashes) == 1

    def test_labels_attached_and_parseable(self, workdir):
        from failsynth.labels import parse
        recs = list(read_records(workdir / "labeled.jsonl"))
        assert recs
        for rec in recs:
            label = parse(rec["label"])
            assert label.result == "FAIL"

    def test_perturb_logs_resamples_only_at_debug(self, workdir, tmp_path, caplog):
        """The resample count is in the manifest; a default run logs nothing
        at INFO about it, and -v shows it."""
        caplog.set_level(logging.DEBUG, logger="failsynth.perturb")
        assert _run("perturb", "-i", workdir / "demos.jsonl", "-o",
                    tmp_path / "c.jsonl", "--manifest", tmp_path / "p.json",
                    "--seed", 11) == 0
        records = [r for r in caplog.records if r.name == "failsynth.perturb"]
        assert json.loads((tmp_path / "p.json").read_text())["translation_resamples"]
        assert records
        assert all(r.levelno == logging.DEBUG for r in records)

    def test_self_recovery_is_total(self, workdir):
        m = json.loads((workdir / "rec.json").read_text())
        assert m["recovery_rate"] == 1.0

    def test_evaluate_oracle_predictions(self, workdir, capsys):
        preds = workdir / "preds.jsonl"
        _write_preds(workdir / "labeled.jsonl", preds)
        assert _run("evaluate", "-i", workdir / "labeled.jsonl",
                    "--predictions", preds, "-o", workdir / "eval.json") == 0
        rep = json.loads((workdir / "eval.json").read_text())
        assert rep["rouge_l"] == 1.0 and rep["acc"] == 1.0
        assert _run("report", "-i", workdir / "eval.json") == 0
        assert "BinSucc(%)" in capsys.readouterr().out

    def test_recover_with_external_predictions(self, workdir, tmp_path):
        preds = tmp_path / "preds.jsonl"
        _write_preds(workdir / "labeled.jsonl", preds)
        out = tmp_path / "recov2.jsonl"
        assert _run("recover", "-i", workdir / "labeled.jsonl", "-o", out,
                    "--predictions", preds, "--manifest",
                    tmp_path / "rec2.json", "--seed", 11) == 0
        m = json.loads((tmp_path / "rec2.json").read_text())
        assert m["recovery_rate"] == 1.0

    def test_garbage_predictions_do_not_crash_recover(self, workdir, tmp_path):
        preds = tmp_path / "preds.jsonl"
        _write_preds(workdir / "labeled.jsonl", preds,
                     mutate=lambda rec: "not a label")
        out = tmp_path / "recov3.jsonl"
        assert _run("recover", "-i", workdir / "labeled.jsonl", "-o", out,
                    "--predictions", preds, "--manifest",
                    tmp_path / "rec3.json", "--seed", 11) == 0
        m = json.loads((tmp_path / "rec3.json").read_text())
        assert m["recovery_rate"] == 0.0
        entries = list(read_records(out))
        assert all(e["error"] for e in entries)


@pytest.fixture(scope="module")
def four_cases(workdir):
    """The first four labeled cases, one of each failure type."""
    path = workdir / "four_cases.jsonl"
    recs = list(read_records(workdir / "labeled.jsonl"))[:4]
    assert {rec["id"].split("/")[1] for rec in recs} == {ft.value for ft in FailureType}
    path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    return path, recs


class TestPredictionTexts:
    @settings(max_examples=200, deadline=None)
    @given(text=label_texts(max_int=10 ** 401), case=st.sampled_from(range(4)))
    @example(text="RESULT=FAIL; TYPE=weak_close; STAGE=grasp; CLOSE_AT=58; STRENGTH=0.5",
             case=1)
    @example(text=("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=+x; "
                   f"FIX_N_X={10 ** 400}; FIX_DIR_Y=-y; FIX_N_Y=0"), case=0)
    def test_recover_and_evaluate_give_one_entry_per_id(self, workdir, four_cases,
                                                       text, case):
        """No prediction text fails recover --predictions or evaluate: each
        gives one entry per id, and a case recover cannot replay is an entry
        with its error and no primitives."""
        labeled, recs = four_cases
        texts = [rec["label"] for rec in recs]
        texts[case] = text
        preds = workdir / "prop_preds.jsonl"
        preds.write_text("".join(json.dumps({"id": rec["id"], "pred_text": t}) + "\n"
                                 for rec, t in zip(recs, texts)))
        ids = [rec["id"] for rec in recs]
        cfg = PipelineConfig(seed=11)
        pipeline.cmd_recover(cfg, labeled, workdir / "prop_rec.jsonl", predictions_path=preds)
        entries = list(read_records(workdir / "prop_rec.jsonl"))
        assert [e["id"] for e in entries] == ids
        assert all((e["error"] is None) == bool(e["primitives"]) for e in entries)
        report = pipeline.cmd_evaluate(cfg, labeled, preds)
        assert [r["id"] for r in report["records"]] == ids


class TestDeterminism:
    def test_repeat_run_bytes_identical(self, workdir, tmp_path):
        d = tmp_path
        _run("generate", "-n", 3, "-o", d / "demos.jsonl", "--seed", 11)
        _run("perturb", "-i", d / "demos.jsonl", "-o", d / "cands.jsonl",
             "--seed", 11)
        _run("calibrate", "-i", d / "demos.jsonl", "-o", d / "calib.json",
             "--seed", 11)
        _run("verify", "-i", d / "cands.jsonl", "--calibration", d / "calib.json",
             "-o", d / "retained.jsonl", "--seed", 11)
        _run("label", "-i", d / "retained.jsonl", "-o", d / "labeled.jsonl",
             "--seed", 11)
        for name in ("demos.jsonl", "cands.jsonl", "calib.json",
                     "retained.jsonl", "labeled.jsonl"):
            assert (d / name).read_bytes() == (workdir / name).read_bytes()

    def test_seed_changes_output(self, workdir, tmp_path):
        _run("generate", "-n", 3, "-o", tmp_path / "demos.jsonl", "--seed", 12)
        assert (tmp_path / "demos.jsonl").read_bytes() != \
            (workdir / "demos.jsonl").read_bytes()


class TestExitCodes:
    def test_schema_error_is_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not valid json\n")
        assert _run("label", "-i", bad, "-o", tmp_path / "out.jsonl") == 2

    def test_missing_prediction_id_is_2(self, workdir, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        assert _run("evaluate", "-i", workdir / "labeled.jsonl",
                    "--predictions", preds) == 2

    def test_transport_error_is_3(self, workdir, tmp_path):
        assert _run("verify", "-i", workdir / "cands.jsonl", "--calibration",
                    workdir / "calib.json", "-o", tmp_path / "r.jsonl",
                    "--endpoint", "pipe:/nonexistent/judge") == 3

    def test_validation_error_is_4(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert _run("calibrate", "-i", empty, "-o", tmp_path / "c.json") == 4

    def test_missing_file_is_4(self, tmp_path):
        assert _run("calibrate", "-i", tmp_path / "nope.jsonl",
                    "-o", tmp_path / "c.json") == 4

    @pytest.mark.parametrize("argv", [
        ("label", "-i", "{dir}", "-o", "{tmp}/out.jsonl"),
        ("evaluate", "-i", "{dir}", "--predictions", "{dir}"),
        ("generate", "-n", 2, "-o", "{dir}"),
        ("label", "-i", "{tmp}/in.jsonl/x", "-o", "{tmp}/out.jsonl"),
        ("generate", "-n", 1, "-o", "{tmp}/d.jsonl", "--config", "{dir}")])
    def test_path_that_is_not_a_file_is_4(self, tmp_path, capsys, argv):
        (tmp_path / "adir").mkdir()
        (tmp_path / "in.jsonl").write_text("")
        argv = [str(a).format(dir=tmp_path / "adir", tmp=tmp_path) for a in argv]
        assert _run(*argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("bad path: ") and str(tmp_path) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "in.jsonl"]
        assert list((tmp_path / "adir").iterdir()) == []

    @staticmethod
    def _stage_on(stage, path, tmp_path):
        """Exit code of label or evaluate reading ``path``."""
        if stage == "label":
            return _run("label", "-i", path, "-o", tmp_path / "out.jsonl")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        return _run("evaluate", "-i", path, "--predictions", preds)

    @pytest.mark.parametrize("stage", ["label", "evaluate"])
    def test_line_nested_too_deep_is_2(self, tmp_path, capsys, stage):
        bad = tmp_path / "deep.jsonl"
        bad.write_text('{"id": "a", "label": "x"}\n' + "[" * 100000 + "\n")
        assert self._stage_on(stage, bad, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: {bad}:2: invalid JSON: maximum recursion depth")

    @pytest.mark.parametrize("stage", ["label", "evaluate"])
    def test_line_not_utf8_is_2(self, tmp_path, capsys, stage):
        bad = tmp_path / "bad.jsonl"
        # the reader decodes whole chunks: the bad byte is inside the first
        ok = b'{"id": "a", "label": "x"}\n'
        bad.write_bytes(ok * 3 + b'{"id": "\xff"}\n' + ok * 3)
        assert self._stage_on(stage, bad, tmp_path) == 2
        assert capsys.readouterr().err == f"schema error: {bad}:4: not UTF-8: byte 0xff\n"

    def test_non_finite_reference_stat_is_4(self, workdir, tmp_path, monkeypatch):
        """calibration.json is strict JSON: a NaN stat fails calibrate and
        writes no file."""
        means = pipeline._Stats.means
        monkeypatch.setattr(pipeline._Stats, "means",
                            lambda self: {**means(self), "s_vis": float("nan")})
        out = tmp_path / "c.json"
        assert _run("calibrate", "-i", workdir / "demos.jsonl", "-o", out,
                    "--seed", 11) == 4
        assert not out.exists()

    def test_bare_value_error_is_a_bug(self, workdir, tmp_path, monkeypatch):
        """Only the package's errors map to exit codes: a bare ValueError
        inside a stage propagates out of main, to exit 1 with its traceback."""
        def broken(*args, **kwargs):
            raise ValueError("a bug")
        monkeypatch.setattr(pipeline, "generate_label", broken)
        with pytest.raises(ValueError, match="a bug"):
            _run("label", "-i", workdir / "retained.jsonl", "-o", tmp_path / "l.jsonl")
        assert not (tmp_path / "l.jsonl").exists()

    @pytest.mark.parametrize("spec", ["noisy:1", "noisy:a,b", "noisy:-1,0", "noisy:nan,0"])
    def test_bad_predictor_spec_is_4(self, workdir, tmp_path, capsys, spec):
        """A malformed, negative or non-finite verifier.predictor is a
        validation error that names the field; calibrate writes no file."""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"verifier": {"predictor": spec}}))
        out = tmp_path / "c.json"
        assert _run("calibrate", "-i", workdir / "demos.jsonl", "-o", out,
                    "--config", cfgfile) == 4
        assert capsys.readouterr().err.startswith(
            f"validation error: verifier.predictor {spec!r}: want ")
        assert not out.exists()

    @pytest.mark.parametrize("content", [
        '{"wormholes": 3}', '{"workers": 1}', '{"judge_endpoint": "mock"}',
        '{"trigger": {"action_budget": 80}}'])
    def test_unknown_config_key_is_2(self, workdir, tmp_path, content):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(content)
        assert _run("generate", "-n", 1, "-o", tmp_path / "d.jsonl",
                    "--config", cfgfile) == 2

    @pytest.mark.parametrize("content", [b'{"seed": "\xff"}', b"[" * 100000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_config_is_2(self, tmp_path, capsys, content):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_bytes(content)
        assert _run("generate", "-n", 1, "-o", tmp_path / "d.jsonl",
                    "--config", cfgfile) == 2
        assert capsys.readouterr().err.startswith(f"schema error: {cfgfile} is not valid JSON")

    @pytest.mark.parametrize("argv", [
        ("generate", "-n", 1, "-o", "d.jsonl", "--workers", 2),
        ("perturb", "-i", "d.jsonl", "-o", "c.jsonl", "--types", "translation"),
        ("report", "-i", "r.json", "--seed", 1),
        ("report", "-i", "r.json", "--config", "c.json"),
        ("report", "-i", "r.json", "--endpoint", "mock")],
        ids=["generate--workers", "perturb--types", "report--seed",
             "report--config", "report--endpoint"])
    def test_removed_flag_is_refused(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            _run(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, edit", [
        ("verify", lambda calib: [1]),
        ("verify", lambda calib: {k: v for k, v in calib.items() if k != "idm"}),
        ("verify", lambda calib: dict(calib, idm="x")),
        ("report", lambda calib: {"rouge_l": 1})],
        ids=["calibration-not-object", "calibration-without-idm",
             "calibration-idm-string", "report-without-acc"])
    def test_malformed_calibration_or_report_is_2(self, workdir, tmp_path, capsys,
                                                  stage, edit):
        path = tmp_path / "in.json"
        calib = json.loads((workdir / "calib.json").read_text())
        path.write_text(json.dumps(edit(calib)))
        if stage == "verify":
            argv = ("verify", "-i", workdir / "cands.jsonl", "--calibration", path,
                    "-o", tmp_path / "r.jsonl")
        else:
            argv = ("report", "-i", path)
        assert _run(*argv) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize("field, limits", [("q_min", [-1.0, -1.0, -1.0]),
                                               ("q_max", [])])
    def test_joint_limits_of_wrong_length_are_2(self, workdir, tmp_path, capsys,
                                               field, limits):
        calib = json.loads((workdir / "calib.json").read_text())
        calib["joints"][field] = limits
        path = tmp_path / "calib.json"
        path.write_text(json.dumps(calib))
        assert _run("verify", "-i", workdir / "cands.jsonl", "--calibration", path,
                    "-o", tmp_path / "r.jsonl") == 2
        err = capsys.readouterr().err
        assert "schema error" in err and field in err

    def test_malformed_config_json_is_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{bad")
        assert _run("generate", "-n", 1, "-o", tmp_path / "d.jsonl",
                    "--config", cfgfile) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        '{"horizon": "abc"}', '{"horizon": 60.5}', '{"horizon": true}',
        '{"scene": 3}', '{"verifier": {"predictor": 3}}',
        '{"tracks": {"weights": [0.5, "x", 0.25, 0.25]}}',
        '{"scene": {"object_x": "wide"}}', '{"scene": {"object_x": [1]}}',
        '{"tracks": {"weights": [1]}}', '{"verifier": {"visual_floors": {"jitter_px": "1"}}}',
        '{"verifier": {"visual_floors": []}}'])
    def test_mistyped_config_value_is_2(self, tmp_path, capsys, content):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(content)
        assert _run("generate", "-n", 1, "-o", tmp_path / "d.jsonl",
                    "--config", cfgfile) == 2
        assert "schema error" in capsys.readouterr().err

    def test_int_for_float_and_list_for_tuple_accepted(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"perturb": {"sigma": 1}, "scene": {"object_x": [0.3, 0.5]}}')
        assert _run("generate", "-n", 1, "-o", tmp_path / "d.jsonl",
                    "--config", cfgfile) == 0

    @pytest.mark.parametrize("stage, content, names", [
        ("label", {"label": {"bin_size": 0}}, ["label.bin_size"]),
        ("label", {"label": {"bin_size": -0.01}}, ["label.bin_size"]),
        ("label", {"label": {"bin_size": float("nan")}}, ["label.bin_size"]),
        ("label", {"label": {"strength_margin": -1}}, ["label.strength_margin"]),
        ("evaluate", {"cap": 0}, [".cap"]),
        ("calibrate", {"tracks": {"tau_acc": 0}}, ["tracks.tau_acc"]),
        ("verify", {"tracks": {"knn_k": 0}}, ["tracks.knn_k"]),
        ("verify", {"tracks": {"eps": -1}}, ["tracks.eps"]),
        ("calibrate", {"verifier": {"idm_eps": 0}}, ["verifier.idm_eps"]),
        ("generate", {"scene": {"object_x": [0.6, 0.3]}}, ["scene.object_x[0]", "object_x[1]"]),
        ("perturb", {"perturb": {"weak_min": 0.7, "weak_max": 0.3}},
         ["perturb.weak_min", "weak_max"]),
        ("perturb", {"perturb": {"offset_cap": 0.001}},
         ["scene.grasp_tolerance", "perturb.offset_cap"]),
        ("generate", {"scene": {"min_separation": 5}}, ["scene.min_separation"]),
        ("generate", {"seed": -1}, [".seed"]),
        ("generate", {}, [".seed"])],
        ids=["bin_size-0", "bin_size-negative", "bin_size-nan", "strength_margin-negative",
             "cap-0", "tau_acc-0", "knn_k-0", "eps-negative", "idm_eps-0", "object_x-swapped",
             "weak-swapped", "offset_cap-below-grasp_tolerance", "min_separation-5",
             "seed-negative", "seed-flag-negative"])
    def test_config_value_out_of_range_is_4(self, workdir, tmp_path, capsys, stage,
                                            content, names):
        """A config value out of its declared range, or out of order with
        another, fails the stage that reads the config and names the key;
        the last case sets the seed with --seed -1."""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(content))
        preds = tmp_path / "preds.jsonl"
        _write_preds(workdir / "labeled.jsonl", preds)
        args = {"generate": ("-n", 2, "-o", tmp_path / "d.jsonl"),
                "perturb": ("-i", workdir / "demos.jsonl", "-o", tmp_path / "c.jsonl"),
                "calibrate": ("-i", workdir / "demos.jsonl", "-o", tmp_path / "c.json"),
                "verify": ("-i", workdir / "cands.jsonl", "--calibration",
                           workdir / "calib.json", "-o", tmp_path / "r.jsonl"),
                "label": ("-i", workdir / "retained.jsonl", "-o", tmp_path / "l.jsonl"),
                "evaluate": ("-i", workdir / "labeled.jsonl", "--predictions", preds)}[stage]
        seed = ("--seed", -1) if not content else ()
        assert _run(stage, *args, "--config", cfgfile, *seed) == 4
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and "Traceback" not in err
        assert all(name in err for name in names), err

    def test_unknown_endpoint_is_4(self, workdir, tmp_path, capsys):
        assert _run("verify", "-i", workdir / "cands.jsonl", "--calibration",
                    workdir / "calib.json", "-o", tmp_path / "r.jsonl",
                    "--endpoint", "bogus") == 4
        assert capsys.readouterr().err.startswith(
            "validation error: semantic_endpoint 'bogus': want mock, ")
        assert not (tmp_path / "r.jsonl").exists()


def _mutated_candidates(workdir, tmp_path, mutate):
    recs = list(read_records(workdir / "cands.jsonl"))
    mutate(recs[0])
    path = tmp_path / "cands.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    return path


def _set(field, i, j, value):
    def mutate(rec):
        rec[field][i][j] = value
    return mutate


def _set_field(field, value):
    def mutate(rec):
        rec[field] = value
    return mutate


def _set_row(field, i, value):
    def mutate(rec):
        rec[field][i] = value
    return mutate


def _six_wide(rec):
    rec["states"] = [row[:6] for row in rec["states"]]


class TestMalformedRecords:
    """Malformed state/action rows exit 2; bad values exit 4."""

    @pytest.mark.parametrize("mutate, code", [
        pytest.param(lambda r: r["states"][3].append([0.0]), 2, id="nested-value"),
        pytest.param(lambda r: r["actions"][0].pop(), 2, id="ragged"),
        pytest.param(_set_row("actions", 2, [0.0, 0.0, 0.0]), 2, id="short-row"),
        pytest.param(_six_wide, 2, id="6-wide"),
        pytest.param(_set("states", 5, 2, None), 2, id="null-value"),
        pytest.param(_set_row("actions", 4, None), 2, id="null-row"),
        pytest.param(_set_field("actions", None), 2, id="null-field"),
        pytest.param(_set("actions", 1, 0, "abc"), 2, id="string"),
        pytest.param(_set("states", 1, 0, "0.5"), 2, id="number-string"),
        pytest.param(_set("states", 7, 1, float("nan")), 4, id="nan"),
        pytest.param(_set("actions", 7, 5, float("inf")), 4, id="inf"),
        pytest.param(_set("states", 0, 6, 1.5), 4, id="gripper-1.5"),
        pytest.param(_set("actions", 9, 6, 1.5), 4, id="gripper_cmd-1.5"),
        pytest.param(_set("actions", 9, 6, -0.5), 4, id="gripper_cmd-negative"),
        pytest.param(_set_field("states", []), 4, id="no-states"),
        pytest.param(lambda r: r["states"].pop(), 4, id="length"),
    ])
    def test_exit_code(self, workdir, tmp_path, capsys, mutate, code):
        path = _mutated_candidates(workdir, tmp_path, mutate)
        assert _run("verify", "-i", path, "--calibration", workdir / "calib.json",
                    "-o", tmp_path / "r.jsonl", "--seed", 11) == code
        err = capsys.readouterr().err
        assert ("schema error" if code == 2 else "validation error") in err

    def test_first_fault_in_row_order_wins(self, workdir, tmp_path, capsys):
        """A bad value in an earlier row is reported before a schema fault in
        a later row or field, and the other way round; a value out of range
        is reported before a non-finite value in a later row."""
        def value_first(rec):
            rec["states"][2][0] = float("nan")
            rec["actions"][3][1] = None
        def schema_first(rec):
            rec["states"][2][0] = None
            rec["states"][4][0] = float("nan")
        def value_first_in_row(rec):
            rec["states"][2][0] = float("nan")
            rec["states"][2][1] = {}
        def length_last(rec):  # zero states is a length fault, checked last
            rec["states"] = []
            rec["actions"][0] = None
        def range_first(rec):
            rec["states"][2][0] = 1e300
            rec["states"][4][0] = float("nan")
        for mutate, code, message in (
                (value_first, 4, "non-finite state field"),
                (schema_first, 2, "state value is not a number: None"),
                (value_first_in_row, 4, "non-finite state field"),
                (length_last, 2, "action row is not 7 numbers: None"),
                (range_first, 4, "state x must lie in [-1000.0, 1000.0], got 1e+300")):
            path = _mutated_candidates(workdir, tmp_path, mutate)
            assert _run("verify", "-i", path, "--calibration", workdir / "calib.json",
                        "-o", tmp_path / "r.jsonl", "--seed", 11) == code
            assert message in capsys.readouterr().err

    def test_record_that_is_not_an_object_is_2(self, workdir, tmp_path):
        path = tmp_path / "cands.jsonl"
        path.write_text("[1, 2, 3]\n")
        assert _run("verify", "-i", path, "--calibration", workdir / "calib.json",
                    "-o", tmp_path / "r.jsonl", "--seed", 11) == 2


DELETE = object()
JOINTS = [[0.0] * 7] * 3
POINTS = [[[1.0, 2.0]] * 3] * 2
MASKS = [[1] * 3] * 2

# (id, edit, member named in the message): ragged rows and strings in an array member
ARRAY_FAULTS = [
    ("joints-ragged", lambda r: r.update(joints=JOINTS + [[0.0] * 6]), "joints"),
    ("joints-string", lambda r: r.update(joints=JOINTS + [["abc"] * 7]), "joints"),
    ("joints-number-string", lambda r: r.update(joints=JOINTS + [["0.5"] * 7]), "joints"),
    ("points-ragged", lambda r: r.update(tracks={"points": POINTS + [[[1.0, 2.0]] * 2],
                                                 "masks": MASKS}), "tracks.points"),
    ("points-string", lambda r: r.update(tracks={"points": POINTS + [[["a", 2.0]] * 3],
                                                 "masks": MASKS}), "tracks.points"),
    ("masks-ragged", lambda r: r.update(tracks={"points": POINTS,
                                                "masks": MASKS[:1] + [[1] * 2]}), "tracks.masks"),
    ("masks-string", lambda r: r.update(tracks={"points": POINTS,
                                                "masks": MASKS[:1] + [["abc"] * 3]}), "tracks.masks"),
]


def _edit(path, value):
    """Set the nested key path of a record to value; value DELETE deletes it."""
    def mutate(rec):
        obj = rec
        for key in path[:-1]:
            obj = obj[key]
        if value is DELETE:
            del obj[path[-1]]
        else:
            obj[path[-1]] = value
    return mutate


class TestMalformedNestedObjects:
    """Every JSON object a stage reads is decoded by one rule: an unknown key
    or a mistyped value exits 2, a missing key takes the default or exits 2."""

    @pytest.mark.parametrize("mutate, code", [
        pytest.param(_edit(("meta", "scene"), DELETE), 2, id="meta-without-scene"),
        pytest.param(_edit(("meta",), "abc"), 2, id="meta-string"),
        pytest.param(_edit(("meta", "artifacts", "glare"), 1.0), 2,
                     id="artifacts-unknown-key"),
        pytest.param(_edit(("meta", "artifacts"), "abc"), 2, id="artifacts-string"),
        pytest.param(_edit(("meta", "scene", "grasp_tolerance"), "0.01"), 2,
                     id="grasp_tolerance-string"),
        pytest.param(_edit(("meta", "scene", "seed"), 7.0), 2, id="scene-seed-float"),
        pytest.param(_edit(("meta", "scene", "glare"), 1), 2, id="scene-unknown-key"),
        pytest.param(_edit(("meta", "scene", "camera", "zoom"), 2.0), 2,
                     id="camera-unknown-key"),
        pytest.param(_edit(("meta", "scene", "camera", "position"), [0.45, 0.0]), 2,
                     id="camera-position-short"),
        pytest.param(_edit(("meta", "obs_seed"), "7"), 2, id="obs_seed-string"),
        pytest.param(_edit(("spec", "keyframe"), 3.0), 2, id="spec-keyframe-float"),
        pytest.param(_edit(("spec", "invert"), 1), 2, id="spec-invert-int"),
        pytest.param(_edit(("spec", "failure_type"), "teleport"), 2,
                     id="spec-unknown-failure-type"),
        pytest.param(_edit(("spec", "glare"), 1), 2, id="spec-unknown-key"),
        pytest.param(_edit(("spec", "keyframe"), DELETE), 2, id="spec-without-keyframe"),
        pytest.param(_edit(("meta", "scene", "slip_delay"), DELETE), 0,
                     id="scene-key-missing"),
        pytest.param(_edit(("meta", "scene", "camera", "fx"), DELETE), 0,
                     id="camera-key-missing"),
        pytest.param(_edit(("meta", "scene", "camera"), DELETE), 0,
                     id="camera-missing"),
        *[pytest.param(edit, 2, id=name) for name, edit, _ in ARRAY_FAULTS],
    ])
    def test_verify(self, workdir, tmp_path, capsys, mutate, code):
        path = _mutated_candidates(workdir, tmp_path, mutate)
        assert _run("verify", "-i", path, "--calibration", workdir / "calib.json",
                    "-o", tmp_path / "r.jsonl", "--seed", 11) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 0 or "schema error" in err

    @pytest.mark.parametrize("mutate, field", [
        (_edit(("meta", "scene", "object_pos"), [float("nan"), 0.0, 0.02]), "object_pos"),
        (_edit(("meta", "scene", "grasp_tolerance"), float("nan")), "grasp_tolerance")],
        ids=["object_pos-nan", "grasp_tolerance-nan"])
    def test_nan_scene_is_4(self, workdir, tmp_path, capsys, mutate, field):
        """The scene check itself rejects a NaN, naming the field."""
        path = _mutated_candidates(workdir, tmp_path, mutate)
        assert _run("verify", "-i", path, "--calibration", workdir / "calib.json",
                    "-o", tmp_path / "r.jsonl", "--seed", 11) == 4
        assert f"validation error: meta.scene.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        (("meta", "scene", "camera", "fx"), 1e300),
        (("meta", "scene", "camera", "cy"), -1e300),
        (("meta", "scene", "camera", "position"), [0.45, 0.0, float("nan")]),
        (("meta", "artifacts", "jitter_px"), 1e300),
        (("meta", "artifacts", "topo_warp"), 1e300),
        (("meta", "artifacts", "affine_jitter"), 1e300),
        (("meta", "artifacts", "flicker_rate"), 1.5),
        (("meta", "scene", "partial_floor"), 0.8),
        (("meta", "scene", "seed"), -1),
        (("meta", "obs_seed"), -1),
        (("spec", "keyframe"), -1)],
        ids=["fx-1e300", "cy-minus-1e300", "camera-position-nan", "jitter_px-1e300",
             "topo_warp-1e300", "affine_jitter-1e300", "flicker_rate-1.5",
             "partial_floor-above-attach_strength", "scene-seed-negative",
             "obs_seed-negative", "keyframe-negative"])
    def test_out_of_range_value_is_4(self, workdir, tmp_path, capsys, path, value):
        """A candidate value out of its declared range fails verify, naming
        its dotted path, before any numpy arithmetic overflows."""
        cands = _mutated_candidates(workdir, tmp_path, _edit(path, value))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _run("verify", "-i", cands, "--calibration", workdir / "calib.json",
                        "-o", tmp_path / "r.jsonl", "--seed", 11) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {'.'.join(path)}"), err

    @pytest.mark.parametrize("line", ["[1, 2]", "5", '"abc"', None],
                             ids=["list", "number", "string", "meta-string"])
    def test_label(self, workdir, tmp_path, capsys, line):
        if line is None:
            rec = next(read_records(workdir / "retained.jsonl"))
            line = json.dumps(dict(rec, meta="abc"))
        path = tmp_path / "retained.jsonl"
        path.write_text(line + "\n")
        assert _run("label", "-i", path, "-o", tmp_path / "l.jsonl") == 2
        assert "schema error" in capsys.readouterr().err

    def test_label_reads_the_scene_only_for_weak_close(self, workdir, tmp_path):
        """Only a weak_close label depends on the scene's attach_strength."""
        recs = list(read_records(workdir / "retained.jsonl"))
        for rec in recs:
            del rec["meta"]["scene"]
        kinds = {rec["spec"]["failure_type"] for rec in recs}
        assert "weak_close" in kinds and len(kinds) > 1
        path = tmp_path / "retained.jsonl"
        for keep in (kinds - {"weak_close"}, {"weak_close"}):
            path.write_text("".join(json.dumps(r) + "\n" for r in recs
                                    if r["spec"]["failure_type"] in keep))
            code = _run("label", "-i", path, "-o", tmp_path / "l.jsonl")
            assert code == (2 if keep == {"weak_close"} else 0)

    @pytest.mark.parametrize("edit_labeled, edit_pred, error", [
        (lambda rec: rec.pop("label"), None, None),
        (lambda rec: rec.update(label=5), None, None),
        (lambda rec: rec.update(id=["x"]), None, None),
        (None, lambda pred: 5, None),
        (None, lambda pred: dict(pred, pred_text=5), None),
        (None, lambda pred: {"pred_text": pred["pred_text"]}, None),
        (None, lambda pred: dict(pred, pred_text=(
            "RESULT=FAIL; TYPE=delay_close; STAGE=grasp; CLOSE_AT=999; STRENGTH=1.0")),
         "ValidationError: primitive anchor 999 outside horizon 60"),
        (None, lambda pred: dict(pred, pred_text=(
            "RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=-x; "
            f"FIX_N_X={'9' * 401}; FIX_DIR_Y=+y; FIX_N_Y=2")),
         "NumericFieldError: FIX_N_X must be an integer below 2**53")],
        ids=["labeled-without-label", "label-number", "id-list", "prediction-number",
             "pred_text-number", "prediction-without-id", "close_at-999",
             "fix_n_x-401-digits"])
    def test_evaluate(self, workdir, tmp_path, capsys, edit_labeled, edit_pred, error):
        """A malformed labeled or prediction file is exit 2 (error None). A
        prediction text is model output: evaluate and recover --predictions
        exit 0 on any, and recover reports the case's error in its entry."""
        labeled = list(read_records(workdir / "labeled.jsonl"))
        preds = [{"id": rec["id"], "pred_text": rec["label"]} for rec in labeled]
        (edit_labeled or (lambda rec: None))(labeled[0])
        if edit_pred:
            preds[0] = edit_pred(preds[0])
        for name, recs in (("labeled.jsonl", labeled), ("preds.jsonl", preds)):
            (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in recs))
        files = ("-i", tmp_path / "labeled.jsonl", "--predictions", tmp_path / "preds.jsonl")
        if error is None:
            assert _run("evaluate", *files) == 2
            assert "schema error" in capsys.readouterr().err
            return
        assert _run("evaluate", *files) == 0
        assert _run("recover", *files, "-o", tmp_path / "r.jsonl") == 0
        entry = next(read_records(tmp_path / "r.jsonl"))
        assert (entry["recovered"], entry["error"], entry["primitives"]) == (False, error, [])

    @pytest.mark.parametrize("edit, member", [
        pytest.param(lambda rec: rec.pop("label"), "label", id="without-label"),
        pytest.param(lambda rec: rec.update(label=5), "label", id="label-number"),
        pytest.param(lambda rec: rec["meta"].pop("scene"), "meta.scene",
                     id="meta-without-scene"),
        *[pytest.param(edit, member, id=name) for name, edit, member in ARRAY_FAULTS]])
    def test_recover(self, workdir, tmp_path, capsys, edit, member):
        labeled = list(read_records(workdir / "labeled.jsonl"))
        edit(labeled[0])
        path = tmp_path / "labeled.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in labeled))
        assert _run("recover", "-i", path, "-o", tmp_path / "r.jsonl") == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and member in err, err


class TestQuarantine:
    def test_dying_judge_quarantines_batch(self, workdir, tmp_path):
        import sys
        # a judge that answers one request then exits mid-batch
        script = tmp_path / "judge_once.py"
        script.write_text(
            "import json, sys\n"
            "line = sys.stdin.readline()\n"
            "print(json.dumps({'valid_failure': True, 'visual_ok': True,"
            " 'rationale': 'ok'}))\n"
            "sys.stdout.flush()\n")
        assert _run("verify", "-i", workdir / "cands.jsonl", "--calibration",
                    workdir / "calib.json", "-o", tmp_path / "r.jsonl",
                    "--manifest", tmp_path / "m.json",
                    "--endpoint", f"pipe:{sys.executable} {script}",
                    "--seed", 11) == 0
        m = json.loads((tmp_path / "m.json").read_text())
        assert m["quarantined"] == m["generated"] - 1
        assert m["retained"] + m["rejected"] == 1
        assert m["retained"] + m["rejected"] + m["quarantined"] == m["generated"]

    @pytest.mark.parametrize("reply", [
        "{}", "[]", '{"valid_failure": true}', '"ok"',
        '{"valid_failure": "false", "visual_ok": "no"}',
        '{"valid_failure": 1, "visual_ok": 1}'])
    def test_reply_without_judgments_quarantines(self, workdir, tmp_path, capsys,
                                                 reply):
        """A judge answering JSON that is not an object with valid_failure
        and visual_ok has each candidate quarantined, without a traceback."""
        script = tmp_path / "judge_bad_reply.py"
        script.write_text("import sys\n"
                          "for line in sys.stdin:\n"
                          f"    print({reply!r}, flush=True)\n")
        assert _run("verify", "-i", workdir / "cands.jsonl", "--calibration",
                    workdir / "calib.json", "-o", tmp_path / "r.jsonl",
                    "--manifest", tmp_path / "m.json",
                    "--endpoint", f"pipe:{sys.executable} {script}",
                    "--seed", 11) == 0
        m = json.loads((tmp_path / "m.json").read_text())
        assert m["quarantined"] == m["generated"] == 12
        assert "Traceback" not in capsys.readouterr().err


ANSWER_EVERY_LINE = (
    "import json, sys\n"
    "for line in sys.stdin:\n"
    "    print(json.dumps({'valid_failure': True, 'visual_ok': True,"
    " 'rationale': 'ok'}), flush=True)\n")


HANG_AFTER_READING = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    pass\n")


class TestHungJudge:
    def test_hung_judge_quarantines_every_candidate(self, workdir, tmp_path,
                                                    monkeypatch):
        """A judge that reads requests and never answers costs one deadline,
        not a hung run; it has exited when verify returns."""
        from failsynth.semantic import PipeClient
        script = tmp_path / "hang.py"
        script.write_text(HANG_AFTER_READING)
        made = []

        def short_deadline(endpoint, floors=None):
            made.append(PipeClient(endpoint[5:].split(), timeout=0.5))
            return made[-1]
        monkeypatch.setattr(pipeline, "client_from_endpoint", short_deadline)
        start = time.monotonic()
        assert _run("verify", "-i", workdir / "cands.jsonl", "--calibration",
                    workdir / "calib.json", "-o", tmp_path / "r.jsonl",
                    "--manifest", tmp_path / "m.json",
                    "--endpoint", f"pipe:{sys.executable} {script}",
                    "--seed", 11) == 0
        assert time.monotonic() - start < 30
        m = json.loads((tmp_path / "m.json").read_text())
        assert m["quarantined"] == m["generated"] == 12
        assert m["retained"] == m["rejected"] == 0
        (client,) = made
        assert client.proc.returncode is not None


class TestJudgeLifetime:
    def _verify(self, workdir, tmp_path):
        script = tmp_path / "judge.py"
        script.write_text(ANSWER_EVERY_LINE)
        return _run("verify", "-i", workdir / "cands.jsonl", "--calibration",
                    workdir / "calib.json", "-o", tmp_path / "r.jsonl",
                    "--endpoint", f"pipe:{sys.executable} {script}", "--seed", 11)

    def test_pipe_judge_has_exited_when_verify_returns(self, workdir, tmp_path,
                                                       clients):
        assert self._verify(workdir, tmp_path) == 0
        (client,) = clients
        assert client.proc.returncode == 0  # saw end of input and exited

    def test_pipe_judge_is_stopped_when_verify_fails(self, workdir, tmp_path,
                                                     clients, monkeypatch):
        def broken(*args, **kwargs):
            raise ValidationError("verifier broke")
        monkeypatch.setattr(pipeline, "verify_physical", broken)
        assert self._verify(workdir, tmp_path) == 4
        (client,) = clients
        assert client.proc.returncode is not None

    def test_pipe_judge_is_stopped_when_checks_fail_during_its_start(
            self, workdir, tmp_path, clients, monkeypatch):
        """A physical check raises while candidates wait for a judge that is
        slow to start: exit 4, no output file, and a judge that has exited."""
        check, calls = pipeline.verify_physical, []

        def breaks_fifth(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise ValidationError("verifier broke")
            return check(*args, **kwargs)
        monkeypatch.setattr(pipeline, "verify_physical", breaks_fifth)
        script = tmp_path / "judge.py"
        script.write_text("import time; time.sleep(0.5)\n" + ANSWER_EVERY_LINE)
        before = sorted(os.listdir(tmp_path))
        assert _run("verify", "-i", workdir / "cands.jsonl", "--calibration",
                    workdir / "calib.json", "-o", tmp_path / "r.jsonl",
                    "--endpoint", f"pipe:{sys.executable} {script}", "--seed", 11) == 4
        assert sorted(os.listdir(tmp_path)) == before
        (client,) = clients
        assert client.proc.returncode is not None


class TestAccountingCheck:
    BROKEN = {"generated": 3, "retained": 1, "rejected": 1, "quarantined": 0}

    def test_broken_accounting_raises(self):
        pipeline._check_accounting({**self.BROKEN, "quarantined": 1})
        with pytest.raises(ValidationError, match="accounting"):
            pipeline._check_accounting(self.BROKEN)

    def test_check_survives_python_optimize(self):
        src = str(Path(failsynth.__file__).resolve().parents[1])
        code = ("from failsynth.pipeline import _check_accounting; "
                f"_check_accounting({self.BROKEN!r})")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "ValidationError" in proc.stderr
