from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn.consistency import RULES_V1, ClipConsistency, clip_consistency, pcov, wpcr
from egodyn.errors import EmptySet
from egodyn.questions import ANSWER_SPACES

BENIGN = {
    "turn_direction": "left",
    "braking_intensity": "none",
    "speed_regime": "urban",
    "mean_speed_low": "no",
    "speed_trend": "steady",
    "heading_change": "no",
    "lateral_accel": "no",
    "stop_and_go": "no",
    "brake_then_turn": "no",
}


def triggered_and_violated(answers):
    clip = clip_consistency("c", answers)
    return clip.triggered_rules, clip.violated_rules


class TestRuleTable:
    def test_exactly_ten_rules(self):
        assert len(RULES_V1) == 10
        assert [r.rule_id for r in RULES_V1] == [f"R{i}" for i in range(1, 11)]

    def test_rules_reference_only_the_named_questions(self):
        named = {
            "heading_change",
            "lateral_accel",
            "turn_direction",
            "speed_regime",
            "mean_speed_low",
            "speed_trend",
            "brake_then_turn",
            "braking_intensity",
            "stop_and_go",
        }
        for rule in RULES_V1:
            assert rule.antecedent.question in named
            assert rule.consequent.question in named


class TestRuleOutcomes:
    def test_heading_with_turn_is_consistent(self):
        answers = dict(BENIGN, heading_change="yes", turn_direction="left")
        triggered, violated = triggered_and_violated(answers)
        assert "R1" in triggered and "R1" not in violated

    def test_heading_with_straight_violates_r1_and_r3(self):
        answers = dict(BENIGN, heading_change="yes", turn_direction="straight")
        _, violated = triggered_and_violated(answers)
        assert "R1" in violated
        assert "R3" in violated

    def test_quiescent_straight_triggers_only_r3_r4(self):
        answers = dict(BENIGN, turn_direction="straight")
        assert triggered_and_violated(answers) == (("R3", "R4"), ())

    def test_missing_antecedent_does_not_trigger(self):
        answers = dict(BENIGN)
        del answers["heading_change"]
        assert "R1" not in triggered_and_violated(answers)[0]

    def test_unparsed_marker_behaves_like_missing(self):
        answers = dict(BENIGN, heading_change="unparsed")
        assert "R1" not in triggered_and_violated(answers)[0]

    @pytest.mark.parametrize("missing", ["absent", "unparsed"])
    def test_missing_consequent_counts_as_violation(self, missing):
        answers = dict(BENIGN, heading_change="yes")
        if missing == "absent":
            del answers["turn_direction"]
        else:
            answers["turn_direction"] = "unparsed"
        triggered, violated = triggered_and_violated(answers)
        assert "R1" in triggered and "R1" in violated

    def test_no_answers_trigger_nothing(self):
        assert triggered_and_violated({}) == ((), ())


class TestClipConsistency:
    def test_four_triggered_zero_violated(self):
        answers = dict(
            BENIGN,
            heading_change="yes",
            lateral_accel="yes",
            brake_then_turn="yes",
            braking_intensity="emergency",
        )
        clip = clip_consistency("c", answers)
        assert clip.triggered == 4
        assert clip.violated == 0
        assert clip.contribution == pytest.approx(0.4)

    def test_single_violation_zeroes_contribution(self):
        answers = dict(
            BENIGN,
            heading_change="yes",
            lateral_accel="yes",
            brake_then_turn="yes",
            braking_intensity="none",  # R8 violated
        )
        clip = clip_consistency("c", answers)
        assert clip.triggered == 4
        assert clip.violated == 1
        assert clip.contribution == 0.0

    def test_no_triggers_no_contribution(self):
        answers = dict(BENIGN)
        clip = clip_consistency("c", answers)
        assert clip.triggered == 0
        assert clip.contribution == 0.0


class TestAggregates:
    def test_wpcr_hand_cases(self):
        assert wpcr([ClipConsistency("a", 4, 0, 0.4, (), ())]) == pytest.approx(0.4)
        assert wpcr([ClipConsistency("a", 4, 1, 0.0, (), ())]) == 0.0
        assert wpcr([ClipConsistency("a", 0, 0, 0.0, (), ())]) == 0.0

    def test_pcov_cases(self):
        full = [ClipConsistency(str(i), 10, 0, 1.0, (), ()) for i in range(3)]
        assert pcov(full) == pytest.approx(1.0)
        mixed = [
            ClipConsistency("a", 4, 2, 0.0, (), ()),
            ClipConsistency("b", 6, 0, 0.6, (), ()),
        ]
        assert pcov(mixed) == pytest.approx(0.5)
        assert pcov([ClipConsistency("a", 0, 0, 0.0, (), ())]) == 0.0

    def test_empty_sets_raise(self):
        with pytest.raises(EmptySet):
            wpcr([])
        with pytest.raises(EmptySet):
            pcov([])

    def test_wpcr_never_exceeds_pcov_on_random_answers(self):
        rng = np.random.default_rng(23)
        questions = list(BENIGN)
        clips = []
        for i in range(500):
            answers = {
                q: ANSWER_SPACES[q][rng.integers(len(ANSWER_SPACES[q]))]
                for q in questions
            }
            clips.append(clip_consistency(f"c{i}", answers))
        assert wpcr(clips) <= pcov(clips) + 1e-12

    def test_flip_introducing_violation_zeroes_contribution(self):
        # The weighted rate is all-or-nothing per clip: one violating flip
        # wipes the whole contribution, never part of it.
        answers = dict(
            BENIGN,
            heading_change="yes",
            lateral_accel="yes",
            brake_then_turn="yes",
            braking_intensity="emergency",
        )
        base = clip_consistency("c", answers)
        assert base.violated == 0 and base.contribution > 0
        for question, value in answers.items():
            for other in ANSWER_SPACES[question]:
                if other == value:
                    continue
                flipped = dict(answers)
                flipped[question] = other
                clip = clip_consistency("c", flipped)
                if clip.violated > 0:
                    assert clip.contribution == 0.0

    def test_flip_never_raises_contribution_without_new_triggers(self):
        # A single flip can only raise the contribution by enlarging the
        # satisfied-trigger set; with the trigger count held, it cannot.
        answers = dict(
            BENIGN,
            heading_change="yes",
            lateral_accel="yes",
            brake_then_turn="yes",
            braking_intensity="emergency",
        )
        base = clip_consistency("c", answers)
        for question, value in answers.items():
            for other in ANSWER_SPACES[question]:
                if other == value:
                    continue
                flipped = dict(answers)
                flipped[question] = other
                clip = clip_consistency("c", flipped)
                if clip.triggered <= base.triggered:
                    assert clip.contribution <= base.contribution + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries(
        {q: st.sampled_from(ANSWER_SPACES[q] + (None, "unparsed")) for q in BENIGN}
    )
)
def test_contribution_definition_holds(answers):
    # None: the question has no answer row
    clip = clip_consistency("c", {q: a for q, a in answers.items() if a is not None})
    assert clip.violated <= clip.triggered
    if clip.violated == 0 and clip.triggered > 0:
        assert clip.contribution == pytest.approx(clip.triggered / 10.0)
    else:
        assert clip.contribution == 0.0
