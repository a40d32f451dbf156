"""Byte identity of a small CLI run across commits.

Outputs are byte-identical for a given seed, so the sha256 of every file the
six stage commands write for seed 808 and five demonstrations is pinned here.
A change that alters output bytes on purpose updates these values and says
so in CHANGES.md.
"""

import hashlib

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


def test_six_stage_tree_bytes(tmp_path):
    d = tmp_path
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
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in d.iterdir()}
    assert got == GOLDEN
