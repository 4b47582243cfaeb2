"""Boolean implication rules over a clip's answer set, plus WPCR/PCov.

Ten hard implications (antecedent A => consequent B) relate answers that
physics couples: a clip that reports a significant heading change but a
straight trajectory is internally incoherent regardless of ground truth.
A clip contributes to the weighted consistency rate only when it violates
nothing and triggers at least one rule; the contribution is the fraction
of the rule table it triggers, so evasive answer sets cannot score high
by triggering nothing.

Missing (unparsed) answers: an absent antecedent leaves the rule
untriggered; an absent consequent under a holding antecedent counts as a
violation, since the implication cannot be verified.

Rules are evaluated for all clips at once, as column masks over an
(N, 14) matrix of answer codes (see ``questions.AnswerTable``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptySet
from .questions import ANSWER_SPACES, NO_ANSWER, QUESTION_ORDER, AnswerTable


@dataclass(frozen=True)
class Condition:
    question: str
    op: str  # "eq" | "ne"
    label: str

    def holds(self, answers: np.ndarray) -> np.ndarray:
        """Per row of (N, 14) answer codes: the question has an answer,
        and the answer meets the condition."""
        column = answers[:, QUESTION_ORDER.index(self.question)]
        code = ANSWER_SPACES[self.question].index(self.label)
        met = (column == code) if self.op == "eq" else (column != code)
        return met & (column != NO_ANSWER)


@dataclass(frozen=True)
class Rule:
    rule_id: str
    antecedent: Condition
    consequent: Condition


def _rule(rid, a_q, a_op, a_label, c_q, c_op, c_label) -> Rule:
    return Rule(rid, Condition(a_q, a_op, a_label), Condition(c_q, c_op, c_label))


RULES_V1: tuple[Rule, ...] = (
    _rule("R1", "heading_change", "eq", "yes", "turn_direction", "ne", "straight"),
    _rule("R2", "lateral_accel", "eq", "yes", "turn_direction", "ne", "straight"),
    _rule("R3", "turn_direction", "eq", "straight", "heading_change", "eq", "no"),
    _rule("R4", "turn_direction", "eq", "straight", "lateral_accel", "eq", "no"),
    _rule("R5", "speed_regime", "eq", "highway", "mean_speed_low", "eq", "no"),
    _rule("R6", "speed_regime", "eq", "stopped", "mean_speed_low", "eq", "yes"),
    _rule("R7", "speed_regime", "eq", "stopped", "speed_trend", "ne", "accelerating"),
    _rule("R8", "brake_then_turn", "eq", "yes", "braking_intensity", "ne", "none"),
    _rule("R9", "brake_then_turn", "eq", "yes", "turn_direction", "ne", "straight"),
    _rule("R10", "stop_and_go", "eq", "yes", "speed_regime", "ne", "stopped"),
)


@dataclass(frozen=True)
class ClipConsistency:
    clip_id: str
    triggered: int
    violated: int
    contribution: float
    triggered_rules: tuple[str, ...]
    violated_rules: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "clip_id": self.clip_id,
            "triggered": list(self.triggered_rules),
            "violated": list(self.violated_rules),
            "contribution": self.contribution,
        }


def consistency_of(clip_ids: Sequence[str], answers: np.ndarray) -> list[ClipConsistency]:
    """Every clip's rule outcomes, from its row of (N, 14) answer codes."""
    rule_ids = [rule.rule_id for rule in RULES_V1]
    triggered = np.column_stack([rule.antecedent.holds(answers) for rule in RULES_V1])
    violated = triggered & ~np.column_stack(
        [rule.consequent.holds(answers) for rule in RULES_V1]
    )
    clips = []
    for clip_id, trig_row, viol_row in zip(clip_ids, triggered.tolist(), violated.tolist()):
        trig = tuple(rule_id for rule_id, hit in zip(rule_ids, trig_row) if hit)
        viol = tuple(rule_id for rule_id, hit in zip(rule_ids, viol_row) if hit)
        t, v = len(trig), len(viol)
        contribution = t / len(RULES_V1) if (v == 0 and t > 0) else 0.0
        clips.append(ClipConsistency(clip_id, t, v, contribution, trig, viol))
    return clips


def clip_consistency(clip_id: str, answers: Mapping[str, str]) -> ClipConsistency:
    """Rule outcomes of one clip's answers, keyed by question; a question
    without a key, or answered ``unparsed``, has no answer."""
    rows = [(clip_id, question, label) for question, label in answers.items()]
    codes = AnswerTable.from_rows(rows, predicted=True).codes
    if not rows:
        codes = np.full((1, len(QUESTION_ORDER)), NO_ANSWER)
    return consistency_of([clip_id], codes)[0]


def wpcr(clips: Sequence[ClipConsistency]) -> float:
    """Mean clip contribution: T_c over |R| for clean clips, else zero."""
    if not clips:
        raise EmptySet("wpcr needs at least one clip")
    return float(sum(c.contribution for c in clips) / len(clips))


def pcov(clips: Sequence[ClipConsistency]) -> float:
    """Mean fraction of rules triggered per clip."""
    if not clips:
        raise EmptySet("pcov needs at least one clip")
    n_rules = len(RULES_V1)
    return float(sum(c.triggered / n_rules for c in clips) / len(clips))
