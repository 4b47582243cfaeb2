"""Question catalogue: ids, answer spaces, and question subsets.

The engine answers 14 clip-level questions about ego-motion. Every answer
emitted anywhere in the pipeline must be a member of its question's answer
space; ``UNPARSED`` is the reserved out-of-space marker for model responses
that could not be mapped to a label.

Truth and predictions are scored as an ``AnswerTable``: one row of answer
codes per clip, one column per question. A cell without a row and an
``unparsed`` prediction are the same code, ``NO_ANSWER``, so every scorer
treats "no answer" alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError

UNPARSED = "unparsed"

# Canonical question order; 14-tuples follow this order everywhere.
ANSWER_SPACES: dict[str, tuple[str, ...]] = {
    "turn_direction": ("left", "right", "straight"),
    "braking_intensity": ("emergency", "moderate", "low", "none"),
    "speed_regime": ("stopped", "slow", "urban", "highway"),
    "driving_smoothness": ("smooth", "moderate", "aggressive"),
    "speed_trend": ("accelerating", "decelerating", "steady"),
    "mean_speed_low": ("yes", "no"),
    "heading_change": ("yes", "no"),
    "extreme_maneuver": ("yes", "no"),
    "motion_axis": ("longitudinal", "lateral", "none"),
    "lateral_accel": ("yes", "no"),
    "stop_and_go": ("yes", "no"),
    "brake_then_turn": ("yes", "no"),
    "speed_peak_half": ("first_half", "second_half", "no_peak"),
    "contrastive_halves": ("first_half", "second_half", "similar"),
}

QUESTION_ORDER: tuple[str, ...] = tuple(ANSWER_SPACES)

# Questions about event ordering within the clip.
TEMPORAL_QUESTIONS: tuple[str, ...] = ("speed_peak_half", "contrastive_halves")

# Subset answerable from purely geometric motion proxies.
GEOMETRIC_SUBSET: tuple[str, ...] = (
    "turn_direction",
    "speed_trend",
    "lateral_accel",
    "heading_change",
    "stop_and_go",
    "brake_then_turn",
)


def answer_space(question_id: str) -> tuple[str, ...]:
    try:
        return ANSWER_SPACES[question_id]
    except KeyError:
        raise KeyError(f"unknown question id: {question_id!r}") from None


NO_ANSWER = -1  # the code of an absent cell and of an ``unparsed`` prediction

_COLUMN = {q: j for j, q in enumerate(QUESTION_ORDER)}
_CODES = {
    q: {label: code for code, label in enumerate(space)} for q, space in ANSWER_SPACES.items()
}
_PREDICTION_CODES = {q: {**codes, UNPARSED: NO_ANSWER} for q, codes in _CODES.items()}


def answer_code(clip_id: str, question_id: str, label, predicted: bool = False) -> int:
    """Index of ``label`` in the answer space of ``question_id``; a
    prediction may also be ``unparsed``, coded ``NO_ANSWER``.

    Raises:
        ConfigError: naming the clip, for an unknown question id or a
            label outside the answer space.
    """
    codes = (_PREDICTION_CODES if predicted else _CODES).get(question_id)
    if codes is None:
        raise ConfigError(f"clip {clip_id!r}: unknown question id {question_id!r}")
    try:
        return codes[label]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        what = "parsed label" if predicted else "truth answer"
        raise ConfigError(
            f"clip {clip_id!r}, question {question_id!r}: "
            f"{what} {label!r} is not in the answer space"
        ) from None


@dataclass(frozen=True)
class AnswerTable:
    """``codes[i, j]`` is the ``answer_code`` of clip ``clip_ids[i]`` for
    question ``QUESTION_ORDER[j]``, or ``NO_ANSWER``; clips are in the
    order of their first row."""

    clip_ids: tuple[str, ...]
    codes: np.ndarray  # shape (N, 14), dtype intp

    @classmethod
    def from_rows(
        cls, rows: Iterable[tuple[str, str, object]], predicted: bool = False
    ) -> "AnswerTable":
        """Table of ``(clip_id, question_id, label)`` rows, each checked by
        ``answer_code``; two rows for one cell raise ``ConfigError``."""
        index: dict[str, int] = {}
        cells: dict[tuple[int, int], int] = {}
        for clip_id, question_id, label in rows:
            code = answer_code(clip_id, question_id, label, predicted)
            cell = (index.setdefault(clip_id, len(index)), _COLUMN[question_id])
            if cell in cells:
                kind = "prediction" if predicted else "truth"
                raise ConfigError(f"clip {clip_id!r}, question {question_id!r}: two {kind} rows")
            cells[cell] = code
        codes = np.full((len(index), len(QUESTION_ORDER)), NO_ANSWER, dtype=np.intp)
        if cells:
            codes[tuple(zip(*cells))] = list(cells.values())
        return cls(tuple(index), codes)

    def answers_on(self, truth: "AnswerTable") -> np.ndarray:
        """This table's codes on the clips of ``truth``, in its order,
        with ``NO_ANSWER`` wherever ``truth`` has no answer."""
        row = {clip_id: i for i, clip_id in enumerate(self.clip_ids)}
        padded = np.vstack([self.codes, np.full((1, len(QUESTION_ORDER)), NO_ANSWER)])
        rows = [row.get(clip_id, -1) for clip_id in truth.clip_ids]  # -1: the padding
        return np.where(truth.codes == NO_ANSWER, NO_ANSWER, padded[rows])
