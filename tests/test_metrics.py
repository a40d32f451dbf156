import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from failsynth.core import FailureType
from failsynth.errors import ValidationError
from failsynth.labels import GRIPPER_TYPES, FixLabel, LabelError, parse, serialize
from failsynth.metrics import (binary_success, correction_acc, cosine_sim,
                               evaluate_dataset, evaluate_record, extract_result,
                               fuzzy_match, lcs_length, render_report, rouge_l,
                               tokenize)


def _brute_lcs(a, b):
    """Exponential-time subsequence enumeration oracle (small inputs only)."""
    best = 0
    for r in range(len(a), best, -1):
        for comb in itertools.combinations(a, r):
            it = iter(b)
            if all(c in it for c in comb):
                best = r
                break
        if best == r:
            break
    return best


def _dp_lcs(a, b):
    """Quadratic longest-common-subsequence DP oracle."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def _embedding_cosine(hyp, ref):
    """Oracle: cosine of numpy bag-of-tokens vectors over the pair's joint
    vocabulary, clipped to [0, 1]."""
    vocabs = [tokenize(hyp), tokenize(ref)]
    vocab = sorted({tok for toks in vocabs for tok in toks})
    index = {tok: i for i, tok in enumerate(vocab)}
    vecs = np.zeros((2, max(len(vocab), 1)))
    for row, toks in zip(vecs, vocabs):
        for tok in toks:
            row[index[tok]] += 1.0
    na, nb = np.linalg.norm(vecs[0]), np.linalg.norm(vecs[1])
    if na == 0 or nb == 0:
        return 0.0
    return float(min(1.0, max(0.0, float(vecs[0] @ vecs[1]) / (na * nb))))


def _judged_fuzzy(reference, candidate):
    """Oracle: a judge that parses both label texts and answers a rating,
    mapped onto a score."""
    try:
        gt, pred = parse(reference), parse(candidate)
    except LabelError:
        rating = "incorrect"
    else:
        if gt.structured_equal(pred):
            rating = "correct"
        elif (gt.failure_type is not None and gt.failure_type == pred.failure_type
              and gt.stage == pred.stage):
            rating = "partially_correct"
        else:
            rating = "incorrect"
    return {"correct": 1.0, "partially_correct": 0.5, "incorrect": 0.0}[rating]


_TEXTS = st.one_of(
    st.lists(st.sampled_from(["fix", "Fix,", "x", "+y", "n=2", "close", "AT", "!",
                              "RESULT=FAIL;", "step"]), max_size=30).map(" ".join),
    st.text(max_size=40))

_STAGES = st.sampled_from(["pre_grasp", "grasp"])
_LABELS = st.one_of(
    st.just(FixLabel(result="SUCCESS")),
    st.builds(lambda stage, dx, nx, dy, ny: FixLabel(
        result="FAIL", failure_type=FailureType.translation, stage=stage,
        fix_dir_x=dx, fix_n_x=nx, fix_dir_y=dy, fix_n_y=ny),
        _STAGES, st.sampled_from(["+x", "-x"]), st.integers(0, 2),
        st.sampled_from(["+y", "-y"]), st.integers(0, 2)),
    st.builds(lambda ft, stage, k, strength: FixLabel(
        result="FAIL", failure_type=ft, stage=stage, close_at=k, strength=strength),
        st.sampled_from(GRIPPER_TYPES), _STAGES, st.integers(22, 24),
        st.sampled_from([0.8, 1.0])))


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("Fix it, NOW!") == ["fix", "it", "now"]

    def test_keeps_schema_tokens(self):
        assert tokenize("RESULT=FAIL; TYPE=weak_close.") == \
            ["result=fail", "type=weak_close"]


class TestLcs:
    def test_hand_cases(self):
        assert lcs_length("abcde", "ace") == 3
        assert lcs_length("", "abc") == 0
        assert lcs_length("abc", "abc") == 3

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="abc", max_size=7), st.text(alphabet="abc", max_size=7))
    def test_matches_brute_force(self, a, b):
        assert lcs_length(a, b) == _brute_lcs(a, b)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        *[st.lists(st.sampled_from(["fix", "x", "+y", "n=2", "close", "at"][:k]),
                   max_size=40)] * 2)))
    def test_matches_dp_on_token_lists(self, ab):
        a, b = ab
        assert lcs_length(a, b) == _dp_lcs(a, b)

    def test_matches_dp_past_one_machine_word(self):
        rng = np.random.default_rng(0)
        for n, m in ((70, 130), (200, 65), (64, 64)):
            a = list(rng.choice(["a", "b", "c"], n))
            b = list(rng.choice(["a", "b", "c", "d"], m))
            assert lcs_length(a, b) == _dp_lcs(a, b)


class TestRougeL:
    def test_identical(self):
        assert rouge_l("close the gripper", "close the gripper") == 1.0

    def test_disjoint(self):
        assert rouge_l("alpha beta", "gamma delta") == 0.0

    def test_empty(self):
        assert rouge_l("", "anything") == 0.0

    def test_hand_value(self):
        # hyp "a b c", ref "a c d": lcs=2, p=2/3, r=2/3, f1=2/3
        assert rouge_l("a b c", "a c d") == pytest.approx(2.0 / 3.0)

    def test_symmetric_f1(self):
        assert rouge_l("a b c d", "a c") == pytest.approx(rouge_l("a c", "a b c d"))


class TestCosine:
    def test_identical(self):
        assert cosine_sim("x y z", "x y z") == pytest.approx(1.0)

    def test_disjoint(self):
        assert cosine_sim("x y", "p q") == 0.0

    def test_hand_value(self):
        # "a a b" = [2,1,0], "a b b" = [1,2,0] over vocab {a,b}: cos = 4/5
        assert cosine_sim("a a b", "a b b") == pytest.approx(0.8)

    def test_empty(self):
        assert cosine_sim("", "x") == 0.0

    @settings(max_examples=400, deadline=None)
    @given(_TEXTS, _TEXTS)
    def test_bit_equal_to_embedding_oracle(self, hyp, ref):
        assert cosine_sim(hyp, ref) == _embedding_cosine(hyp, ref)
        assert cosine_sim(hyp, hyp) == _embedding_cosine(hyp, hyp)


class TestBinarySuccess:
    def test_fallback_extraction(self):
        assert extract_result("blah Result=FAIL blah") == "FAIL"
        assert extract_result("no verdict here") is None

    def test_unparseable_prediction_uses_fallback(self):
        gt = FixLabel(result="FAIL", failure_type=FailureType.force_open,
                      stage="grasp", close_at=5, strength=1.0)
        assert binary_success(gt, None, "uh... RESULT=FAIL I think")
        assert not binary_success(gt, None, "total gibberish")


FIX_GT = FixLabel(result="FAIL", failure_type=FailureType.translation,
                  stage="pre_grasp", fix_dir_x="-x", fix_n_x=2,
                  fix_dir_y="+y", fix_n_y=3)
GRIP_GT = FixLabel(result="FAIL", failure_type=FailureType.delay_close,
                   stage="grasp", close_at=20, strength=1.0)


def _trans(dx="-x", nx=2, dy="+y", ny=3, stage="pre_grasp"):
    return FixLabel(result="FAIL", failure_type=FailureType.translation,
                    stage=stage, fix_dir_x=dx, fix_n_x=nx, fix_dir_y=dy,
                    fix_n_y=ny)


def _grip(ft=FailureType.delay_close, close_at=20, stage="grasp"):
    return FixLabel(result="FAIL", failure_type=ft, stage=stage,
                    close_at=close_at, strength=1.0)


class TestCorrectionAcc:
    def test_exact_match_is_one(self):
        assert correction_acc(FIX_GT, _trans()) == pytest.approx(1.0, abs=1e-12)
        assert correction_acc(GRIP_GT, _grip()) == pytest.approx(1.0, abs=1e-12)

    def test_one_bin_off_translation(self):
        # s_x = 1 - 1/3; total = (1 + 1 + 2/3 + 1) / 4 = 11/12
        assert correction_acc(FIX_GT, _trans(nx=3)) == \
            pytest.approx(11.0 / 12.0, abs=1e-12)

    def test_direction_flip_zeroes_axis(self):
        # (1 + 1 + 0 + 1) / 4
        assert correction_acc(FIX_GT, _trans(dx="+x")) == \
            pytest.approx(0.75, abs=1e-12)

    def test_bin_error_capped(self):
        assert correction_acc(FIX_GT, _trans(nx=50)) == \
            pytest.approx(0.75, abs=1e-12)

    def test_gripper_anchor_tolerance(self):
        assert correction_acc(GRIP_GT, _grip(close_at=22)) == \
            pytest.approx(1.0, abs=1e-12)
        # anchor outside delta_k: (1 + 1 + 0) / 3
        assert correction_acc(GRIP_GT, _grip(close_at=23)) == \
            pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_wrong_gripper_type_keeps_anchor_credit(self):
        # s_type = 0, s_stage = 1, s_k = 1 -> 2/3
        assert correction_acc(GRIP_GT, _grip(ft=FailureType.weak_close)) == \
            pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_family_mismatch(self):
        # translation gt vs gripper pred: only stage can match
        assert correction_acc(FIX_GT, _grip(stage="pre_grasp")) == \
            pytest.approx(0.25, abs=1e-12)
        assert correction_acc(FIX_GT, _grip(stage="grasp")) == \
            pytest.approx(0.0, abs=1e-12)
        # gripper gt vs translation pred: no anchor -> s_k = 0
        assert correction_acc(GRIP_GT, _trans(stage="grasp")) == \
            pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_success_gt_rejected(self):
        with pytest.raises(ValidationError):
            correction_acc(FixLabel(result="SUCCESS"), _trans())

    def test_configurable_cap_and_delta(self):
        assert correction_acc(FIX_GT, _trans(nx=4), cap=2) == \
            pytest.approx(0.75, abs=1e-12)
        assert correction_acc(GRIP_GT, _grip(close_at=23), delta_k=3) == \
            pytest.approx(1.0, abs=1e-12)


class TestFuzzyJudge:
    GT = parse("RESULT=FAIL; TYPE=delay_close; STAGE=grasp; CLOSE_AT=20; "
               "STRENGTH=1.0; close later")

    def test_exact(self):
        assert fuzzy_match(self.GT, self.GT) == 1.0

    def test_partial(self):
        pred = parse("RESULT=FAIL; TYPE=delay_close; STAGE=grasp; CLOSE_AT=99; "
                     "STRENGTH=1.0; close later")
        assert fuzzy_match(self.GT, pred) == 0.5

    def test_incorrect(self):
        pred = parse("RESULT=SUCCESS; all good")
        assert fuzzy_match(self.GT, pred) == 0.0

    def test_unparseable_is_incorrect(self):
        # "???" does not parse, so the prediction is None
        assert fuzzy_match(self.GT, None) == 0.0

    @settings(max_examples=400, deadline=None)
    @given(_LABELS, st.one_of(st.none(), _LABELS))
    def test_equal_to_judge_oracle(self, gt, pred):
        candidate = "???" if pred is None else serialize(pred)
        assert fuzzy_match(gt, pred) == _judged_fuzzy(serialize(gt), candidate)


class TestEvaluate:
    GT = ("RESULT=FAIL; TYPE=translation; STAGE=pre_grasp; FIX_DIR_X=-x; "
          "FIX_N_X=2; FIX_DIR_Y=+y; FIX_N_Y=3; nudge it")

    def test_perfect_prediction(self):
        rec = evaluate_record("a", self.GT, self.GT)
        assert rec["acc"] == 1.0 and rec["bin_correct"] and rec["rouge_l"] == 1.0

    def test_parse_error_scores_zero_acc(self):
        rec = evaluate_record("a", self.GT, "not a label at all")
        assert rec["parse_error"] is not None
        assert rec["acc"] == 0.0

    def test_integer_at_2_53_scores_as_a_parse_error(self):
        """A step count the grammar bounds is scored as malformed text is,
        with the RESULT token fallback."""
        for n in (2 ** 53, 10 ** 400):
            rec = evaluate_record("a", self.GT, self.GT.replace("FIX_N_X=2", f"FIX_N_X={n}"))
            assert rec["parse_error"] == ("NumericFieldError: FIX_N_X must be an "
                                          "integer below 2**53")
            assert (rec["acc"], rec["fuzzy"], rec["bin_correct"]) == (0.0, 0.0, True)

    def test_dataset_aggregation(self):
        pairs = [("a", self.GT, self.GT),
                 ("b", "RESULT=SUCCESS; done", "RESULT=SUCCESS; done")]
        rep = evaluate_dataset(pairs)
        assert rep["count"] == 2
        assert rep["acc_count"] == 1  # acc only over FAIL ground truths
        assert rep["acc"] == 1.0
        assert rep["bin_succ"] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_dataset([])

    def test_render_report_columns(self):
        rep = evaluate_dataset([("a", self.GT, self.GT)])
        text = render_report(rep)
        for col in ("ROUGE_L", "Cos. Sim.", "BinSucc(%)", "Fuzzy Match", "Acc."):
            assert col in text
