"""Offline evaluation metrics over (prediction, ground-truth) label pairs:
ROUGE-L, cosine similarity, binary success accuracy, fuzzy match, and
correction accuracy with partial credit. Each pair's two labels are parsed
once and every score is computed from them."""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .core import read_keys
from .errors import ValidationError
from .labels import FixLabel, LabelError, parse
from .rollout_io import read_json

# schema tokens must survive tokenization, so '=' and '_' are kept
_PUNCT_RE = re.compile(r"[^\w=\s]")
_RESULT_RE = re.compile(r"RESULT\s*=\s*(SUCCESS|FAIL)", re.IGNORECASE)


def tokenize(text: str) -> list[str]:
    return _PUNCT_RE.sub("", text.lower()).split()


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Longest-common-subsequence length, bit-parallel over b (Allison & Dix
    1986; Hyyro 2004): one big-int add, subtract, and two masks per item of a.

    Bit j of v is 1 while b[j] is not yet matched; each matched b[j] clears
    one bit, so the length is the number of cleared bits.
    """
    masks: dict = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(hyp: str, ref: str) -> float:
    """LCS-based F1 (beta = 1) over whitespace tokens."""
    h, r = tokenize(hyp), tokenize(ref)
    if not h or not r:
        return 0.0
    lcs = lcs_length(h, r)
    if lcs == 0:
        return 0.0
    p = lcs / len(h)
    rec = lcs / len(r)
    return 2.0 * p * rec / (p + rec)


def cosine_sim(hyp: str, ref: str) -> float:
    """Cosine of the two texts' token-count vectors, clipped to [0, 1].

    The counts are small integers, so the dot product and the squared norms
    are exact.
    """
    a, b = Counter(tokenize(hyp)), Counter(tokenize(ref))
    na = math.sqrt(sum(n * n for n in a.values()))
    nb = math.sqrt(sum(n * n for n in b.values()))
    if na == 0 or nb == 0:
        return 0.0
    dot = sum(n * b[tok] for tok, n in a.items())
    return min(1.0, max(0.0, dot / (na * nb)))


def extract_result(text: str) -> Optional[str]:
    """Fallback RESULT token extraction from unparseable predictions."""
    m = _RESULT_RE.search(text)
    return m.group(1).upper() if m else None


def binary_success(gt: FixLabel, pred: Optional[FixLabel], pred_text: str) -> bool:
    """Success/failure detection correctness, with token fallback."""
    if pred is not None:
        return pred.result == gt.result
    return extract_result(pred_text) == gt.result


def fuzzy_match(gt: FixLabel, pred: Optional[FixLabel]) -> float:
    """1.0 when the structured fields match exactly, 0.5 when the failure
    type and the stage match, 0.0 otherwise and for an unparseable
    prediction (None)."""
    if pred is None:
        return 0.0
    if gt.structured_equal(pred):
        return 1.0
    # a label without a type is a SUCCESS label, so two of them returned 1.0 above
    return 0.5 if (gt.failure_type, gt.stage) == (pred.failure_type, pred.stage) else 0.0


def correction_acc(gt: FixLabel, pred: FixLabel, cap: int = PipelineConfig.cap,
                   delta_k: int = PipelineConfig.delta_k) -> float:
    """Partial-credit correction accuracy on failure samples.

    Translation: (s_type + s_stage + s_x + s_y) / 4 with per-axis direction
    match gated linear bin penalty capped at `cap`. Gripper: (s_type +
    s_stage + s_k) / 3 with an anchor-tolerance indicator. Predictions of the
    wrong family zero the type and family-specific terms.
    """
    if gt.result != "FAIL":
        raise ValidationError("correction accuracy is defined on FAIL ground truths")
    s_type = 1.0 if gt.failure_type == pred.failure_type else 0.0
    s_stage = 1.0 if gt.stage == pred.stage else 0.0
    if gt.is_translation():
        if pred.is_translation():
            s_x = ((1.0 if gt.fix_dir_x == pred.fix_dir_x else 0.0)
                   * max(0.0, 1.0 - abs(gt.fix_n_x - pred.fix_n_x) / cap))
            s_y = ((1.0 if gt.fix_dir_y == pred.fix_dir_y else 0.0)
                   * max(0.0, 1.0 - abs(gt.fix_n_y - pred.fix_n_y) / cap))
        else:
            s_x = s_y = 0.0
        return (s_type + s_stage + s_x + s_y) / 4.0
    if pred.close_at is not None:
        s_k = 1.0 if abs(gt.close_at - pred.close_at) <= delta_k else 0.0
    else:
        s_k = 0.0
    return (s_type + s_stage + s_k) / 3.0


def evaluate_record(rec_id: str, gt_text: str, pred_text: str, cap: int = PipelineConfig.cap,
                    delta_k: int = PipelineConfig.delta_k) -> dict:
    """The report entry of one pair; each label is parsed once."""
    gt = parse(gt_text)
    pred, err = None, None
    try:
        pred = parse(pred_text)
    except LabelError as exc:
        err = f"{type(exc).__name__}: {exc}"
    acc = None
    if gt.result == "FAIL":
        # parse errors score zero rather than being excluded
        acc = correction_acc(gt, pred, cap=cap, delta_k=delta_k) if pred else 0.0
    return {"id": rec_id, "pred_text": pred_text, "parse_error": err,
            "rouge_l": rouge_l(pred_text, gt_text),
            "cosine": cosine_sim(pred_text, gt_text),
            "fuzzy": fuzzy_match(gt, pred),
            "bin_correct": binary_success(gt, pred, pred_text), "acc": acc}


def evaluate_dataset(pairs: Sequence[tuple[str, str, str]], cap: int = PipelineConfig.cap,
                     delta_k: int = PipelineConfig.delta_k) -> dict:
    """Aggregate metrics over (id, gt_text, pred_text) triples.

    Acc averages over FAIL ground truths only; BinSucc over all pairs.
    """
    if not pairs:
        raise ValidationError("cannot evaluate an empty pair set")
    records = [evaluate_record(i, g, p, cap=cap, delta_k=delta_k) for i, g, p in pairs]
    accs = [r["acc"] for r in records if r["acc"] is not None]
    return {
        "count": len(records),
        "rouge_l": float(np.mean([r["rouge_l"] for r in records])),
        "cosine": float(np.mean([r["cosine"] for r in records])),
        "bin_succ": float(np.mean([r["bin_correct"] for r in records])),
        "fuzzy": float(np.mean([r["fuzzy"] for r in records])),
        "acc": float(np.mean(accs)) if accs else None,
        "acc_count": len(accs),
        "records": records,
        "embedder": "token-frequency stand-in",
    }


# The fields render_report reads and their types.
_REPORT_FIELDS = {"rouge_l": float, "cosine": float, "bin_succ": float,
                  "fuzzy": float, "acc": Optional[float], "count": int,
                  "acc_count": int, "embedder": str}


def read_report(path) -> dict:
    """Read an evaluation report JSON; a missing or mistyped field render_report
    reads is a SchemaError."""
    report = read_json(path)
    read_keys(report, _REPORT_FIELDS, f"report {path}")
    return report


def render_report(report: dict) -> str:
    """Plain-text table mirroring the benchmark column layout."""
    cols = ["ROUGE_L", "Cos. Sim.", "BinSucc(%)", "Fuzzy Match", "Acc."]
    acc = "-" if report["acc"] is None else f"{report['acc']:.3f}"
    vals = [f"{report['rouge_l']:.3f}", f"{report['cosine']:.3f}",
            f"{100.0 * report['bin_succ']:.1f}", f"{report['fuzzy']:.3f}", acc]
    width = max(len(c) for c in cols) + 2
    lines = ["evaluation", "  ".join(c.rjust(width) for c in cols),
             "  ".join(v.rjust(width) for v in vals),
             f"(n={report['count']}, acc over {report['acc_count']} failure GTs; "
             f"cosine embedder: {report['embedder']})"]
    return "\n".join(lines)
