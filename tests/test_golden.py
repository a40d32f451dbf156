"""Byte identity of a small CLI run across commits.

Outputs are byte-identical for a given seed, so the sha256 of every file the
six stage commands write for seed 808 and five demonstrations is pinned here,
and so is the sha256 of what evaluate and recover write for a fixed
prediction file over that run's labels. A change that alters output bytes on
purpose updates these values and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from failsynth.cli import main

GOLDEN = {
    "demos.jsonl": "846c170376927c2959f56ad371c5ede734a7099e0ce8d48b90ba1a1670a0e95c",
    "generate.json": "ac37c8c4c375ef90a656a2cae998fdc4c9da11331f562111d990535d38a8903f",
    "candidates.jsonl": "09e742d98fd64e4c44fd5de799a4f981bf2bbeba1bc58fcdb160571200fc8bf8",
    "perturb.json": "7681da911847cf9b5101d99192abaf1116dd75849db4b113f2647fb27650d6b8",
    "calibration.json": "7c4e2a375390ea0fe55014337d119b7019a34f6bfae01a6aa9af382a9f73c762",
    "retained.jsonl": "147d81869678aecaf0cb9802e84a7b9fe2a293401e332dbe28e7a10f4712f83a",
    "verify.json": "3dccd025639630aec5f22d2c16b14eb08a1594fb8ddc674dbadb782aba6796ea",
    "labeled.jsonl": "b8dd2fa66b420c172573144bd82d84d3b3d5edd7e4c0cfd5b9a216a0abe1ff18",
    "label.json": "d02848a49070e7d54d14450e965d9d93b6d95700ce26ddee2a00652f8a34a9e0",
    "recovered.jsonl": "dd80dbd92cfac627b67abdab992bd0bc73928912cbc77fd865d5872b1fa64626",
    "recover.json": "0b590cd09f87ece2865ca3fcb65f6b6cb2b7652332b96c1c9a6d0c11f2feab0d",
}

GOLDEN_PREDICTED = {
    "report.json": "9832ed72f86d5d29353aa335d6b510c137f76a48c63ecb304fb37c99db06e5d2",
    "recovered.jsonl": "2f5042227ac65097e8ea41a7f014345012661c832255b8c1559acc72aff46b2c",
    "recover.json": "48df52dc66cd354e4b9c8a97c6f8cb4c80d73d7e6a752f064ca46cae998c341f",
}

_TRANS = "RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; "
_GRIP = "RESULT=FAIL; TYPE={}; STAGE=grasp; CLOSE_AT={}; STRENGTH={}; "

# One prediction per labeled case of the seed-808 run, in file order: exact
# copies, bins and anchors off by one, a flipped direction, the wrong failure
# type, the wrong family, RESULT=SUCCESS, and text that does not parse (one
# with a RESULT token the fallback finds, one without).
PREDICTIONS = {
    "demo-00000/translation": (_TRANS + "FIX_DIR_X=+x; FIX_N_X=2; FIX_DIR_Y=-y; "
                               "FIX_N_Y=0; nudge the end-effector in +x for 2 steps"),
    "demo-00000/weak_close": _GRIP.format("weak_close", 23, 0.8) + "re-close it",
    "demo-00000/force_open": _GRIP.format("force_open", 24, 1.0) + "close one step later",
    "demo-00000/delay_close": _GRIP.format("delay_close", 26, 1.0) + "close much later",
    "demo-00001/translation": (_TRANS + "FIX_DIR_X=-x; FIX_N_X=2; FIX_DIR_Y=-y; "
                               "FIX_N_Y=2; one bin too far in x"),
    "demo-00001/weak_close": _GRIP.format("delay_close", 23, 1.0) + "wrong gripper type",
    "demo-00001/force_open": (_TRANS + "FIX_DIR_X=-x; FIX_N_X=1; FIX_DIR_Y=+y; "
                              "FIX_N_Y=1; the wrong family"),
    "demo-00001/delay_close": "RESULT=SUCCESS; The execution succeeded.",
    "demo-00002/translation": (_TRANS + "FIX_DIR_X=-x; FIX_N_X=0; FIX_DIR_Y=-y; "
                               "FIX_N_Y=2; the y direction flipped"),
    "demo-00002/weak_close": "the gripper slipped, so RESULT=FAIL I think",
    "demo-00002/force_open": "???",
    "demo-00002/delay_close": _GRIP.format("delay_close", 22, 1.0) + "one step early",
    "demo-00003/translation": _GRIP.format("delay_close", 23, 1.0) + "the wrong family",
    "demo-00003/weak_close": _GRIP.format("weak_close", 23, 0.9) + "a little stronger",
    "demo-00003/force_open": "RESULT=SUCCESS; The execution succeeded.",
    "demo-00003/delay_close": "RESULT=FAIL; TYPE=delay_close; close later",
    "demo-00004/translation": (_TRANS + "FIX_DIR_X=+x; FIX_N_X=2; FIX_DIR_Y=-y; "
                               "FIX_N_Y=1; the x direction flipped"),
    "demo-00004/weak_close": _GRIP.format("weak_close", 23, 0.8) + "re-close it",
    "demo-00004/force_open": _GRIP.format("force_open", 23, 1.0) + "close it",
    "demo-00004/delay_close": _GRIP.format("weak_close", 24, 0.8) + "type and step off",
}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """The files the six stage commands write for seed 808 and five demos."""
    d = tmp_path_factory.mktemp("golden")
    seed = ("--seed", "808")
    for argv in (
            ("generate", "-n", "5", "-o", d / "demos.jsonl",
             "--manifest", d / "generate.json"),
            ("perturb", "-i", d / "demos.jsonl", "-o", d / "candidates.jsonl",
             "--manifest", d / "perturb.json"),
            ("calibrate", "-i", d / "demos.jsonl", "-o", d / "calibration.json"),
            ("verify", "-i", d / "candidates.jsonl", "--calibration",
             d / "calibration.json", "-o", d / "retained.jsonl",
             "--manifest", d / "verify.json"),
            ("label", "-i", d / "retained.jsonl", "-o", d / "labeled.jsonl",
             "--manifest", d / "label.json"),
            ("recover", "-i", d / "labeled.jsonl", "-o", d / "recovered.jsonl",
             "--manifest", d / "recover.json")):
        assert main([str(a) for a in argv] + list(seed)) == 0
    return d


def _digests(d):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in d.iterdir()}


def test_six_stage_tree_bytes(tree):
    assert _digests(tree) == GOLDEN


def test_evaluate_and_recover_bytes_for_fixed_predictions(tree, tmp_path):
    ids = [json.loads(line)["id"] for line in (tree / "labeled.jsonl").read_text().splitlines()]
    assert ids == list(PREDICTIONS)
    preds = tmp_path / "predictions.jsonl"
    preds.write_text("".join(json.dumps({"id": i, "pred_text": t}) + "\n"
                             for i, t in PREDICTIONS.items()))
    labeled, out = tree / "labeled.jsonl", tmp_path / "out"
    out.mkdir()
    for argv in (
            ("evaluate", "-i", labeled, "--predictions", preds,
             "-o", out / "report.json"),
            ("recover", "-i", labeled, "--predictions", preds,
             "-o", out / "recovered.jsonl", "--manifest", out / "recover.json")):
        assert main([str(a) for a in argv] + ["--seed", "808"]) == 0
    assert _digests(out) == GOLDEN_PREDICTED
