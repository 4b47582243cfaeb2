"""Deterministic cascade mapping free-form model text to an answer code.

Stages, applied in order after trimming and lowercasing; the earliest
matching stage wins and is returned with the code:

1. exact      -- the whole response equals a label.
2. underscore -- equality after collapsing every non-alphanumeric run to
                 a single underscore ("first half" == "first_half").
3. last_line  -- stages 1-2 re-run on the final non-empty line, which
                 isolates the conclusion of verbose or chain-of-thought
                 output.
4. substring  -- a label occurs on the final line as a whole word
                 (underscore and whitespace interchangeable inside
                 multi-word labels). Accepted only when exactly one
                 distinct label occurs; two different labels on the
                 final line are ambiguous and yield ``unparsed``.

Anything else -- truncated output, refusals, empty text -- is unparsed,
coded ``NO_ANSWER``. ``parse_code`` runs the cascade on the tables of one
answer space (``tables``) and returns ``(code, stage)``: the index of the
label in that space. ``parse`` is the same cascade returning the label as
a ``ParseResult``. Both are total: they never raise on response content.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Sequence

from .questions import NO_ANSWER, UNPARSED

STAGE_EXACT = "exact"
STAGE_UNDERSCORE = "underscore"
STAGE_LAST_LINE = "last_line"
STAGE_SUBSTRING = "substring"
STAGE_NONE = "none"

_SEPARATOR_RUN = re.compile(r"[^a-z0-9]+")


@dataclass(frozen=True)
class ParseResult:
    label: str
    stage: str
    raw: str


def _normalize(text: str) -> str:
    """Lowercase and collapse non-alphanumeric runs to single underscores."""
    return _SEPARATOR_RUN.sub("_", text.lower()).strip("_")


# A label is runs of lowercase ASCII letters and digits joined by single
# underscores, so it is its own ``_normalize``d form.
_LABEL = re.compile(r"[a-z0-9]+(?:_[a-z0-9]+)*")


@functools.cache
def tables(answer_space: tuple[str, ...]):
    """The cascade's tables for ``answer_space``: each label mapped to its
    code, each ``_normalize``d label mapped to its code, and each code with
    its label as a whole word (``_label_``) in answer-space order. Built on
    first use, once per answer space, and never for an invalid one: a label
    must be lowercase ASCII letters and digits in runs joined by single
    underscores (``_LABEL``)."""
    if not answer_space:
        raise ValueError("answer_space must be non-empty")
    for label in answer_space:
        if label != label.lower():
            raise ValueError(f"answer-space labels must be lowercase: {label!r}")
        if not _LABEL.fullmatch(label):
            raise ValueError(
                f"answer-space labels must be [a-z0-9] runs joined by single underscores: "
                f"{label!r}")
    codes = {label: code for code, label in enumerate(answer_space)}
    by_normalized = {_normalize(label): code for code, label in enumerate(answer_space)}
    words = tuple((code, f"_{label}_") for code, label in enumerate(answer_space))
    return codes, by_normalized, words


def parse_code(raw: str, space_tables) -> tuple[int, str]:
    """``(code, stage)`` of response text ``raw`` under the ``tables`` of
    an answer space; ``(NO_ANSWER, "none")`` when no stage matches."""
    codes, by_normalized, words = space_tables

    text = raw.strip().lower()
    code = codes.get(text)
    if code is not None:
        return code, STAGE_EXACT

    normalized = _normalize(text)
    code = by_normalized.get(normalized)
    if code is not None:
        return code, STAGE_UNDERSCORE

    if not text:
        return NO_ANSWER, STAGE_NONE
    # ``text`` is stripped and every line break is whitespace, so its last
    # line holds its last character: the final non-empty line.
    last = text.splitlines()[-1].strip()
    if last != text:
        normalized = _normalize(last)
        code = codes.get(last)
        if code is None:
            code = by_normalized.get(normalized)
        if code is not None:
            return code, STAGE_LAST_LINE

    # The last line's alphanumeric runs joined by single underscores: a
    # label occurs in it as a whole word, its parts apart by any other
    # characters ("eyes" does not say "yes"), where ``_label_`` occurs in
    # ``_normalized_``.
    padded = f"_{normalized}_"
    found = [code for code, word in words if word in padded]
    if len(found) == 1:
        return found[0], STAGE_SUBSTRING
    return NO_ANSWER, STAGE_NONE


def parse(raw: str, answer_space: Sequence[str]) -> ParseResult:
    """Map raw response text to a label in ``answer_space`` or unparsed."""
    space = tuple(answer_space)
    code, stage = parse_code(raw, tables(space))
    return ParseResult(UNPARSED if code == NO_ANSWER else space[code], stage, raw)
