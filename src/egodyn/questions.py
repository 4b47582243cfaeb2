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
from typing import Iterable, Sequence

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


NO_ANSWER = -1  # the code of an absent cell and of an ``unparsed`` prediction

_WIDTH = len(QUESTION_ORDER)
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
        index: dict = {}
        ids, cells, codes = [], [], []
        for clip_id, question_id, label in rows:
            codes.append(answer_code(clip_id, question_id, label, predicted))
            cells.append(index.setdefault(clip_id, len(index)) * _WIDTH + _COLUMN[question_id])
            ids.append(clip_id)
        return cls._from_cells(tuple(index), ids, cells, codes, predicted)

    @classmethod
    def from_codes(
        cls, ids: Sequence, columns: Sequence[int], codes: Sequence[int], predicted: bool = False
    ) -> "AnswerTable":
        """Table of rows already coded: row ``i`` is clip ``ids[i]``, column
        ``columns[i]`` of ``QUESTION_ORDER`` and code ``codes[i]``. Two rows
        for one cell raise ``ConfigError``; an id that is not hashable
        raises ``TypeError``."""
        index: dict = {}
        cells = [index.setdefault(clip_id, len(index)) * _WIDTH + column
                 for clip_id, column in zip(ids, columns)]
        return cls._from_cells(tuple(index), ids, cells, codes, predicted)

    @classmethod
    def _from_cells(cls, clip_ids: tuple, ids: Sequence, cells: list[int], codes, predicted: bool):
        """The table whose flat cell ``cells[i]`` (clip * 14 + column) holds
        ``codes[i]``; a repeated cell raises ``ConfigError`` naming
        ``ids[i]`` of its first repeat."""
        flat = np.full(len(clip_ids) * _WIDTH, NO_ANSWER, dtype=np.intp)
        at = np.array(cells, dtype=np.intp)
        if at.size and np.bincount(at).max() > 1:
            seen = set()
            for clip_id, cell in zip(ids, cells):
                if cell in seen:
                    kind = "prediction" if predicted else "truth"
                    raise ConfigError(f"clip {clip_id!r}, question "
                                      f"{QUESTION_ORDER[cell % _WIDTH]!r}: two {kind} rows")
                seen.add(cell)
        flat[at] = codes
        return cls(clip_ids, flat.reshape(len(clip_ids), _WIDTH))

    def on_clips(self, clip_ids: Sequence) -> np.ndarray:
        """This table's codes on ``clip_ids``, in their order, with
        ``NO_ANSWER`` for a clip it does not hold."""
        row = {clip_id: i for i, clip_id in enumerate(self.clip_ids)}
        padded = np.vstack([self.codes, np.full((1, _WIDTH), NO_ANSWER)])
        return padded[[row.get(clip_id, -1) for clip_id in clip_ids]]  # -1: the padding

    def answers_on(self, truth: "AnswerTable") -> np.ndarray:
        """This table's codes on the clips of ``truth``, in its order,
        with ``NO_ANSWER`` wherever ``truth`` has no answer."""
        return np.where(truth.codes == NO_ANSWER, NO_ANSWER, self.on_clips(truth.clip_ids))
