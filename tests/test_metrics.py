from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

from conftest import GRID, answer_table, make_seq, random_seq
from egodyn import metrics
from egodyn.errors import NoGroundTruth
from egodyn.metrics import (
    build_confusions,
    kendall_tau_scores,
    score_model,
    score_questions,
    sensitivity_sweep,
    temporal_scores,
)
from egodyn.questions import ANSWER_SPACES, NO_ANSWER, QUESTION_ORDER, UNPARSED
from egodyn.thresholds import ThresholdConfig
from metrics_reference import ref_accuracy, ref_balanced_accuracy, ref_macro_f1

ABC = ("a", "b", "c")


def table(pairs=(), question_id="turn_direction"):
    """The counts and scores of ``score_questions`` on one clip per (truth,
    prediction) pair; ``ABC`` stand for the question's three labels in
    order, and a prediction of ``None`` is unparsed."""
    space = ANSWER_SPACES[question_id]
    truth = {(f"c{i}", question_id): space[ABC.index(t)] for i, (t, _) in enumerate(pairs)}
    preds = {(f"c{i}", question_id): UNPARSED if p is None else space[ABC.index(p)]
             for i, (_, p) in enumerate(pairs)}
    counts, per_question, _ = score_questions(
        answer_table(truth), answer_table(preds, predicted=True))
    return counts[question_id], per_question[question_id]


def balanced_accuracy(pairs):
    return table(pairs)[1]["bacc"]


def macro_f1(pairs):
    return table(pairs)[1]["f1"]


def accuracy(pairs):
    return table(pairs)[1]["acc"]


class TestBalancedAccuracy:
    def test_diagonal_is_perfect(self):
        pairs = [("a", "a"), ("b", "b"), ("c", "c")] * 4
        assert balanced_accuracy(pairs) == pytest.approx(1.0)

    def test_constant_class_predictor_on_balanced_classes(self):
        pairs = [(truth, "a") for truth in ABC for _ in range(10)]
        assert balanced_accuracy(pairs) == pytest.approx(1.0 / 3.0)

    def test_zero_truth_class_excluded(self):
        pairs = [("a", "a")] * 5 + [("b", "b")] * 5  # no "c" ground truth
        assert balanced_accuracy(pairs) == pytest.approx(1.0)

    def test_unparsed_counts_as_wrong(self):
        pairs = [("a", "a"), ("a", None)]
        assert balanced_accuracy(pairs) == pytest.approx(0.5)

    def test_no_ground_truth_raises(self):
        with pytest.raises(NoGroundTruth):
            balanced_accuracy([])


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([("a", "a"), ("b", "b"), ("c", "c")]) == pytest.approx(1.0)

    def test_constant_predictor_three_balanced_classes(self):
        n = 7
        pairs = [(truth, "a") for truth in ABC for _ in range(n)]
        # class a: precision 1/3, recall 1 -> f1 = 0.5; others 0
        assert macro_f1(pairs) == pytest.approx(1.0 / 6.0)

    def test_all_unparsed_is_zero(self):
        pairs = [(truth, None) for truth in ABC for _ in range(3)]
        assert macro_f1(pairs) == pytest.approx(0.0)

    def test_absent_class_excluded(self):
        pairs = [("a", "a"), ("b", "b")]  # "c" has no truth and no predictions
        assert macro_f1(pairs) == pytest.approx(1.0)

    def test_one_only_iff_diagonal_without_unparsed(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pairs = []
            for _ in range(20):
                truth = ABC[rng.integers(3)]
                pred = (None, *ABC)[rng.integers(4)]
                pairs.append((truth, pred))
            counts, scores = table(pairs)
            k = len(ABC)
            diagonal = (
                np.all(counts[:, :k] == np.diag(np.diag(counts[:, :k])))
                and counts[:, k].sum() == 0
            )
            assert (scores["f1"] == pytest.approx(1.0)) == bool(diagonal)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([("a", "a")] * 4) == pytest.approx(1.0)

    def test_half_right(self):
        assert accuracy([("a", "a"), ("a", "b")]) == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(NoGroundTruth):
            accuracy([])


class TestTemporal:
    def tables(self, peak_right: bool, contrast_right: bool, n=5):
        truth, preds = {}, {}
        for i in range(n):
            truth[f"c{i}", "speed_peak_half"] = "first_half"
            preds[f"c{i}", "speed_peak_half"] = "first_half" if peak_right else "second_half"
            truth[f"c{i}", "contrastive_halves"] = "similar"
            preds[f"c{i}", "contrastive_halves"] = "similar" if contrast_right else "first_half"
            truth[f"c{i}", "turn_direction"] = "left"
            preds[f"c{i}", "turn_direction"] = "right"
        return build_confusions(answer_table(truth), answer_table(preds))

    def test_both_right(self):
        assert temporal_scores(self.tables(True, True))[0] == pytest.approx(1.0)

    def test_one_question_right_everywhere(self):
        assert temporal_scores(self.tables(True, False))[0] == pytest.approx(0.5)

    def test_non_temporal_records_ignored(self):
        assert temporal_scores(self.tables(True, True))[1] > 0.0

    def test_empty_raises(self):
        cell = {("c", "turn_direction"): "left"}
        tables = build_confusions(answer_table(cell), answer_table(cell))
        with pytest.raises(NoGroundTruth):
            temporal_scores(tables)


class TestKendallTau:
    def test_scores_identical_vectors(self):
        scores = {"m1": 0.5, "m2": 0.5, "m3": 0.5}
        assert kendall_tau_scores(scores, dict(scores)) == pytest.approx(1.0)

    def test_scores_with_ties_use_tau_b(self):
        a = {"m1": 3.0, "m2": 2.0, "m3": 2.0, "m4": 1.0}
        b = {"m1": 4.0, "m2": 3.0, "m3": 2.0, "m4": 1.0}
        value = kendall_tau_scores(a, b)
        assert 0.0 < value < 1.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_scipy_tau_b(self, data):
        n = data.draw(st.integers(2, 12), label="models")

        def scores(tied):
            values = st.sampled_from([0.2, 0.5, 0.8]) if tied else st.floats(0.0, 1.0)
            return data.draw(st.lists(values, min_size=n, max_size=n))

        a = scores(data.draw(st.booleans(), label="a tied"))
        kind = data.draw(st.sampled_from(["independent", "reversed", "reversed_coarse"]))
        if kind == "independent":
            b = scores(data.draw(st.booleans(), label="b tied"))
        elif kind == "reversed":
            b = [1.0 - value for value in a]
        else:  # reversed, with ties the other vector does not have
            b = [-round(value, 1) for value in a]
        models = [f"m{i}" for i in range(n)]
        value = kendall_tau_scores(dict(zip(models, a)), dict(zip(models, b)))
        if a == b:
            assert value == 1.0
        elif len(set(a)) == 1 or len(set(b)) == 1:
            assert value == 0.0
        else:
            assert value == kendalltau(a, b).correlation


class TestScoreModel:
    def test_permutation_invariance(self):
        truth = {("c1", "turn_direction"): "left", ("c2", "turn_direction"): "right",
                 ("c1", "mean_speed_low"): "yes", ("c2", "mean_speed_low"): "no"}
        preds = {("c1", "turn_direction"): "left", ("c2", "turn_direction"): "left",
                 ("c1", "mean_speed_low"): "no", ("c2", "mean_speed_low"): "no"}
        shuffled = dict(reversed(list(truth.items())))
        assert score_model(answer_table(truth), answer_table(preds)) == score_model(
            answer_table(shuffled), answer_table(preds)
        )

    def test_echo_scores_perfectly(self):
        truth = answer_table(
            {("c1", "turn_direction"): "left", ("c2", "turn_direction"): "right"}
        )
        scores = score_model(truth, truth)
        assert scores == {"acc": 1.0, "bacc": 1.0, "f1": 1.0}


class TestSweep:
    def build(self, extra=()):
        clips = [
            ("cruise", make_seq(v=10.0)),
            ("turn", make_seq(v=8.0, omega=0.3)),
            ("brake", make_seq(v=6.0, a=-1.0)),
            *extra,
        ]
        cfg = ThresholdConfig()
        from egodyn.oracle import label_all

        truth = {}
        for clip_id, seq in clips:
            for rec in label_all(seq, cfg=cfg, clip_id=clip_id):
                truth[(clip_id, rec.question_id)] = rec.answer
        from egodyn.questions import ANSWER_SPACES

        good = dict(truth)
        bad = dict(truth)
        # degrade every third answer of the weak agent within its space
        for key in sorted(truth)[::3]:
            space = ANSWER_SPACES[key[1]]
            bad[key] = next(label for label in space if label != truth[key])
        return clips, cfg, {"good": answer_table(good), "bad": answer_table(bad)}

    def test_alpha_one_required(self):
        clips, cfg, models = self.build()
        with pytest.raises(ValueError):
            sensitivity_sweep(clips, models, cfg, [0.5, 1.5])

    def test_alpha_one_anchors_tau(self):
        clips, cfg, models = self.build()
        results = sensitivity_sweep(clips, models, cfg, [1.0])
        assert results[0].kendall_tau_vs_nominal == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["net", "sum"])
    def test_scores_match_a_relabel_at_each_alpha(self, mode):
        from egodyn.oracle import label_all

        rng = np.random.default_rng(11)
        extra = [(f"random_{i}", random_seq(rng)) for i in range(8)]
        # heading swings out and back: net and summed heading change differ
        swing = 0.4 * np.sin(2.0 * np.pi * GRID / 3.0)
        extra.append(("swing", make_seq(v=8.0, omega=swing)))
        clips, _, models = self.build(extra)
        cfg = ThresholdConfig(heading_total_mode=mode)
        alphas = [0.5, 0.75, 1.0, 1.25, 1.5]
        results = sensitivity_sweep(clips, models, cfg, alphas)
        assert [r.alpha for r in results] == alphas
        for result in results:
            truth = answer_table({
                (clip_id, rec.question_id): rec.answer
                for clip_id, seq in clips
                for rec in label_all(seq, cfg=cfg.with_alpha(result.alpha), clip_id=clip_id)
            })
            assert result.model_scores == {
                model: score_model(truth, preds) for model, preds in models.items()
            }

    def test_serialization_deterministic(self):
        clips, cfg, models = self.build()

        def run():
            results = sensitivity_sweep(clips, models, cfg, [0.5, 1.0, 1.5])
            return json.dumps([r.to_dict() for r in results], sort_keys=True)

        assert run() == run()


class TestConfusionTable:
    def test_build_confusions_groups_by_question(self):
        truth = {("c1", "turn_direction"): "left", ("c1", "mean_speed_low"): "yes",
                 ("c2", "mean_speed_low"): "no"}
        # c1 has no mean_speed_low row, c2's is unparsed, c3 has no truth
        preds = {("c1", "turn_direction"): "left", ("c2", "mean_speed_low"): "unparsed",
                 ("c3", "mean_speed_low"): "no"}
        tables = build_confusions(answer_table(truth), answer_table(preds, predicted=True))
        assert set(tables) == {"turn_direction", "mean_speed_low"}
        assert tables["mean_speed_low"].tolist() == [[0, 0, 1], [0, 0, 1]]


# The per-table scorer that the stacked one replaced, kept as the reference:
# one confusion table per model and question, each metric one of the plain
# formulas of ``metrics_reference``, and each aggregate one ``np.mean``.


def ref_scores(truth, answers):
    """Per question the (acc, bacc, f1) of one model, and their means."""
    per_question = {}
    for j, question in enumerate(QUESTION_ORDER):
        present = truth[:, j] != NO_ANSWER
        if not present.any():
            continue
        k = len(ANSWER_SPACES[question])
        counts = np.zeros((k, k + 1), dtype=np.int64)
        for t, p in zip(truth[present, j], answers[present, j]):
            counts[t, k if p == NO_ANSWER else p] += 1
        per_question[question] = (
            ref_accuracy(counts), ref_balanced_accuracy(counts), ref_macro_f1(counts))
    aggregate = {name: float(np.mean([s[i] for s in per_question.values()]))
                 for i, name in enumerate(("acc", "bacc", "f1"))}
    return per_question, aggregate


@st.composite
def stacked_codes(draw):
    """(N, 14) truth codes with absent cells and absent classes, and the
    (M, N, 14) codes of M models, some unparsed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    truth = np.full((n, len(QUESTION_ORDER)), NO_ANSWER, dtype=np.intp)
    for j, question in enumerate(QUESTION_ORDER):
        k = len(ANSWER_SPACES[question])
        classes = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        answered = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
        truth[answered, j] = rng.choice(classes, size=int(answered.sum()))
    answers = np.stack([
        np.stack([rng.integers(-1, len(ANSWER_SPACES[q]), size=n) for q in QUESTION_ORDER],
                 axis=1)
        for _ in range(m)
    ])
    return truth, answers


@settings(max_examples=200, deadline=None)
@given(stacked_codes())
def test_stacked_scores_equal_per_table_reference(codes):
    """Every model's per-question and aggregate scores from one stacked
    pass have the bits of the per-table reference."""
    truth, answers = codes
    counts = metrics._confusion_counts(truth, answers)
    if not counts:
        with pytest.raises(NoGroundTruth):
            metrics._scores(counts)
        return
    rates, aggregate = metrics._scores(counts)
    for model in range(len(answers)):
        per_question, expected = ref_scores(truth, answers[model])
        assert list(rates) == list(per_question)
        for question, values in per_question.items():
            assert tuple(float(v) for v in rates[question][:, model]) == values
        assert aggregate[model] == expected
