"""Deterministic cascade mapping free-form model text to a label.

Stages, applied in order after trimming and lowercasing; the earliest
matching stage wins and is recorded on the result:

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

Anything else -- truncated output, refusals, empty text -- is unparsed.
The function is total: it never raises on response content.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Sequence

from .questions import UNPARSED

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


def _word_pattern(label: str) -> re.Pattern:
    # Label parts may be separated by any non-alphanumeric run; the match
    # must not butt against other alphanumerics ("eyes" does not say "yes").
    parts = [re.escape(p) for p in label.split("_") if p]
    body = r"[^a-z0-9]+".join(parts)
    return re.compile(rf"(?<![a-z0-9]){body}(?![a-z0-9])")


@functools.cache
def _tables(answer_space: tuple[str, ...]):
    """The answer space as a set, its ``_normalize``d labels mapped back to
    the labels, and each label with its whole-word pattern in answer-space
    order; built once per answer space, and never for an invalid one."""
    if not answer_space:
        raise ValueError("answer_space must be non-empty")
    for label in answer_space:
        if label != label.lower():
            raise ValueError(f"answer-space labels must be lowercase: {label!r}")
    by_normalized = {_normalize(label): label for label in answer_space}
    patterns = tuple((label, _word_pattern(label)) for label in answer_space)
    return frozenset(answer_space), by_normalized, patterns


def parse(raw: str, answer_space: Sequence[str]) -> ParseResult:
    """Map raw response text to a label in ``answer_space`` or unparsed."""
    labels, by_normalized, patterns = _tables(tuple(answer_space))

    text = raw.strip().lower()
    if text in labels:
        return ParseResult(text, STAGE_EXACT, raw)

    normalized = _normalize(text)
    if normalized in by_normalized:
        return ParseResult(by_normalized[normalized], STAGE_UNDERSCORE, raw)

    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        return ParseResult(UNPARSED, STAGE_NONE, raw)
    last = lines[-1]
    if last != text:
        if last in labels:
            return ParseResult(last, STAGE_LAST_LINE, raw)
        if _normalize(last) in by_normalized:
            return ParseResult(by_normalized[_normalize(last)], STAGE_LAST_LINE, raw)

    found = [label for label, pattern in patterns if pattern.search(last)]
    if len(found) == 1:
        return ParseResult(found[0], STAGE_SUBSTRING, raw)
    return ParseResult(UNPARSED, STAGE_NONE, raw)

