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
(N, 14) matrix of answer codes (see ``questions.AnswerTable``), into
(N, 10) triggered and violated matrices; ``rates`` takes WPCR and PCov
from them, and ``clip_consistency`` is the per-clip wrapper.
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


def consistency_of(answers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 10) triggered and violated matrices of every clip, from its
    row of (N, 14) answer codes; column k is rule k of ``RULES_V1``."""
    triggered = np.column_stack([rule.antecedent.holds(answers) for rule in RULES_V1])
    violated = triggered & ~np.column_stack(
        [rule.consequent.holds(answers) for rule in RULES_V1]
    )
    return triggered, violated


def outcome(clip_id, triggered: np.ndarray, violated: np.ndarray) -> ClipConsistency:
    """The ``ClipConsistency`` of one row of ``consistency_of``'s matrices."""
    trig = tuple(rule.rule_id for rule, hit in zip(RULES_V1, triggered) if hit)
    viol = tuple(rule.rule_id for rule, hit in zip(RULES_V1, violated) if hit)
    t, v = len(trig), len(viol)
    contribution = t / len(RULES_V1) if (v == 0 and t > 0) else 0.0
    return ClipConsistency(clip_id, t, v, contribution, trig, viol)


def clip_consistency(clip_id: str, answers: Mapping[str, str]) -> ClipConsistency:
    """Rule outcomes of one clip's answers, keyed by question; a question
    without a key, or answered ``unparsed``, has no answer."""
    rows = [(clip_id, question, label) for question, label in answers.items()]
    codes = AnswerTable.from_rows(rows, predicted=True).codes
    if not rows:
        codes = np.full((1, len(QUESTION_ORDER)), NO_ANSWER)
    triggered, violated = consistency_of(codes)
    return outcome(clip_id, triggered[0], violated[0])


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


def rates(triggered: np.ndarray, violated: np.ndarray) -> tuple[float, float]:
    """``wpcr`` and ``pcov`` of the clips of ``consistency_of``'s matrices,
    with the terms of their ``ClipConsistency`` added in clip order."""
    if not len(triggered):
        raise EmptySet("wpcr needs at least one clip")
    n_rules = len(RULES_V1)
    counts = triggered.sum(axis=1).tolist()
    violations = violated.sum(axis=1).tolist()
    terms = [t / n_rules if (v == 0 and t > 0) else 0.0 for t, v in zip(counts, violations)]
    return (float(sum(terms) / len(terms)),
            float(sum(t / n_rules for t in counts) / len(counts)))
