"""Offline evaluation metrics over (prediction, ground-truth) label pairs:
ROUGE-L, cosine similarity, binary success accuracy, judged fuzzy match,
and correction accuracy with partial credit."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import FailureType, read_keys
from .errors import ValidationError
from .labels import FixLabel, LabelError, parse
from .rollout_io import read_json

# schema tokens must survive tokenization, so '=' and '_' are kept
_PUNCT_RE = re.compile(r"[^\w=\s]")
_RESULT_RE = re.compile(r"RESULT\s*=\s*(SUCCESS|FAIL)", re.IGNORECASE)


def tokenize(text: str) -> list[str]:
    return _PUNCT_RE.sub("", text.lower()).split()


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Standard O(len(a)*len(b)) longest-common-subsequence DP."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


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


def token_frequency_embedder(texts: Sequence[str]) -> np.ndarray:
    """Deterministic bag-of-tokens embedding over the pair's joint vocabulary."""
    vocabs = [tokenize(t) for t in texts]
    vocab = sorted({tok for toks in vocabs for tok in toks})
    index = {tok: i for i, tok in enumerate(vocab)}
    out = np.zeros((len(texts), max(len(vocab), 1)))
    for row, toks in zip(out, vocabs):
        for tok in toks:
            row[index[tok]] += 1.0
    return out


def cosine_sim(hyp: str, ref: str, embedder=token_frequency_embedder) -> float:
    """Cosine of sentence embeddings, clipped to [0, 1].

    The default embedder is a deterministic token-frequency stand-in; real
    sentence-embedding services plug in via the same signature.
    """
    vecs = embedder([hyp, ref])
    na, nb = np.linalg.norm(vecs[0]), np.linalg.norm(vecs[1])
    if na == 0 or nb == 0:
        return 0.0
    return float(min(1.0, max(0.0, float(vecs[0] @ vecs[1]) / (na * nb))))


def extract_result(text: str) -> Optional[str]:
    """Fallback RESULT token extraction from unparseable predictions."""
    m = _RESULT_RE.search(text)
    return m.group(1).upper() if m else None


def binary_success(gt: FixLabel, pred: Optional[FixLabel], pred_text: str) -> bool:
    """Success/failure detection correctness, with token fallback."""
    if pred is not None:
        return pred.result == gt.result
    return extract_result(pred_text) == gt.result


class MockFuzzyJudge:
    """Deterministic stand-in for the LLM judge.

    correct iff the structured fields match exactly; partially_correct iff
    failure type and stage match; incorrect otherwise.
    """

    def judge(self, request: dict) -> dict:
        try:
            gt = parse(request["reference"])
            pred = parse(request["candidate"])
        except LabelError:
            return {"rating": "incorrect"}
        if gt.structured_equal(pred):
            rating = "correct"
        elif (gt.failure_type is not None and gt.failure_type == pred.failure_type
              and gt.stage == pred.stage):
            rating = "partially_correct"
        else:
            rating = "incorrect"
        return {"rating": rating}


FUZZY_SCORES = {"correct": 1.0, "partially_correct": 0.5, "incorrect": 0.0}


def fuzzy_match(gt_text: str, pred_text: str, judge=None) -> float:
    """Judge rating mapped onto {1.0, 0.5, 0.0}."""
    judge = judge or MockFuzzyJudge()
    resp = judge.judge({"reference": gt_text, "candidate": pred_text})
    rating = resp.get("rating")
    if rating not in FUZZY_SCORES:
        raise ValidationError(f"judge returned unknown rating {rating!r}")
    return FUZZY_SCORES[rating]


def correction_acc(gt: FixLabel, pred: FixLabel, cap: int = 3,
                   delta_k: int = 2) -> float:
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


@dataclass(frozen=True)
class EvalRecord:
    """Per-pair metric values; pred is None when the prediction is unparseable."""

    id: str
    gt: FixLabel
    pred_text: str
    pred: Optional[FixLabel]
    parse_error: Optional[str]
    rouge_l: float
    cosine: float
    fuzzy: float
    bin_correct: bool
    acc: Optional[float]

    def to_dict(self) -> dict:
        return {"id": self.id, "pred_text": self.pred_text,
                "parse_error": self.parse_error, "rouge_l": self.rouge_l,
                "cosine": self.cosine, "fuzzy": self.fuzzy,
                "bin_correct": self.bin_correct, "acc": self.acc}


def evaluate_record(rec_id: str, gt_text: str, pred_text: str, judge=None,
                    cap: int = 3, delta_k: int = 2) -> EvalRecord:
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
    return EvalRecord(
        id=rec_id, gt=gt, pred_text=pred_text, pred=pred, parse_error=err,
        rouge_l=rouge_l(pred_text, gt_text),
        cosine=cosine_sim(pred_text, gt_text),
        fuzzy=fuzzy_match(gt_text, pred_text, judge=judge),
        bin_correct=binary_success(gt, pred, pred_text),
        acc=acc)


def evaluate_dataset(pairs: Sequence[tuple[str, str, str]], judge=None,
                     cap: int = 3, delta_k: int = 2) -> dict:
    """Aggregate metrics over (id, gt_text, pred_text) triples.

    Acc averages over FAIL ground truths only; BinSucc over all pairs.
    """
    if not pairs:
        raise ValidationError("cannot evaluate an empty pair set")
    records = [evaluate_record(i, g, p, judge=judge, cap=cap, delta_k=delta_k)
               for i, g, p in pairs]
    accs = [r.acc for r in records if r.acc is not None]
    return {
        "count": len(records),
        "rouge_l": float(np.mean([r.rouge_l for r in records])),
        "cosine": float(np.mean([r.cosine for r in records])),
        "bin_succ": float(np.mean([r.bin_correct for r in records])),
        "fuzzy": float(np.mean([r.fuzzy for r in records])),
        "acc": float(np.mean(accs)) if accs else None,
        "acc_count": len(accs),
        "records": [r.to_dict() for r in records],
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


def render_report(report: dict, title: str = "evaluation") -> str:
    """Plain-text table mirroring the benchmark column layout."""
    cols = ["ROUGE_L", "Cos. Sim.", "BinSucc(%)", "Fuzzy Match", "Acc."]
    acc = "-" if report["acc"] is None else f"{report['acc']:.3f}"
    vals = [f"{report['rouge_l']:.3f}", f"{report['cosine']:.3f}",
            f"{100.0 * report['bin_succ']:.1f}", f"{report['fuzzy']:.3f}", acc]
    width = max(len(c) for c in cols) + 2
    lines = [title, "  ".join(c.rjust(width) for c in cols),
             "  ".join(v.rjust(width) for v in vals),
             f"(n={report['count']}, acc over {report['acc_count']} failure GTs; "
             f"cosine embedder: {report['embedder']})"]
    return "\n".join(lines)
