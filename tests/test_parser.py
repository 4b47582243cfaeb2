from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn import parsing
from egodyn.parsing import UNPARSED, ParseResult, _normalize, _word_pattern, parse
from egodyn.questions import ANSWER_SPACES
from egodyn.report import parse_predictions, parse_rate_report

YES_NO = ("yes", "no")
HALVES = ("first_half", "second_half", "no_peak")
TURN = ("left", "right", "straight")
TREND = ("accelerating", "decelerating", "steady")


class TestStages:
    def test_exact(self):
        result = parse("left", TURN)
        assert result.label == "left"
        assert result.stage == "exact"

    def test_underscore_normalization(self):
        result = parse("first half", HALVES)
        assert result.label == "first_half"
        assert result.stage == "underscore"

    @pytest.mark.parametrize("raw", ["first-half", "FIRST  HALF", "First_Half!", "first...half"])
    def test_underscore_variants(self, raw):
        assert parse(raw, HALVES).label == "first_half"

    def test_last_line_extraction(self):
        raw = "The car slows through the clip.\nLots of reasoning here.\ndecelerating"
        result = parse(raw, TREND)
        assert result.label == "decelerating"
        assert result.stage == "last_line"

    def test_last_line_with_normalization(self):
        raw = "reasoning...\nno peak"
        result = parse(raw, HALVES)
        assert result.label == "no_peak"
        assert result.stage == "last_line"

    def test_substring_on_final_statement(self):
        result = parse("The answer is: yes", YES_NO)
        assert result.label == "yes"
        assert result.stage == "substring"

    def test_chain_of_thought_conclusion(self):
        raw = "Speed drops from 9 to 4 m/s.\nTherefore: decelerating."
        result = parse(raw, TREND)
        assert result.label == "decelerating"
        assert result.stage == "substring"

    def test_substring_ignores_earlier_lines(self):
        raw = "maybe accelerating?\nFinal answer: steady."
        assert parse(raw, TREND).label == "steady"


class TestUnparsed:
    def test_two_distinct_labels_are_ambiguous(self):
        result = parse("yes or no, hard to say", YES_NO)
        assert result.label == UNPARSED
        assert result.stage == "none"

    def test_repeated_label_is_fine(self):
        assert parse("yes, yes!", YES_NO).label == "yes"

    def test_empty(self):
        assert parse("", YES_NO).label == UNPARSED

    def test_whitespace_only(self):
        assert parse("  \n \n ", YES_NO).label == UNPARSED

    def test_truncated_reasoning(self):
        raw = "The vehicle appears to be moving at a moderate pace and"
        assert parse(raw, TREND).label == UNPARSED

    def test_word_boundary_blocks_embedded_match(self):
        assert parse("eyes on the road", YES_NO).label == UNPARSED

    def test_label_outside_space_never_returned(self):
        assert parse("maybe", YES_NO).label == UNPARSED


class TestInvariants:
    def test_idempotence_on_every_canonical_label(self):
        for space in ANSWER_SPACES.values():
            for label in space:
                result = parse(label, space)
                assert result.label == label
                assert result.stage == "exact"

    def test_case_insensitivity(self):
        for raw in ("LEFT", "Left", "lEfT"):
            assert parse(raw, TURN).label == "left"

    def test_stage_ordering_exact_wins(self):
        # "no" matches exactly; the substring stage is never consulted
        assert parse("no", YES_NO).stage == "exact"

    def test_determinism(self):
        raw = "The answer is: second half."
        assert parse(raw, HALVES) == parse(raw, HALVES)

    def test_empty_space_rejected(self):
        for _ in range(2):  # an invalid space is never cached as valid
            with pytest.raises(ValueError):
                parse("yes", [])

    def test_uppercase_labels_rejected(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                parse("yes", ["Yes", "no"])


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80), st.sampled_from(list(ANSWER_SPACES.values())))
def test_total_and_closed(raw, space):
    result = parse(raw, space)
    assert isinstance(result, ParseResult)
    assert result.label == UNPARSED or result.label in space
    if result.label == UNPARSED:
        assert result.stage == "none"
    else:
        assert result.stage in ("exact", "underscore", "last_line", "substring")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(ANSWER_SPACES.values())), st.data())
def test_case_changes_never_change_result(space, data):
    label = data.draw(st.sampled_from(space))
    flips = data.draw(st.lists(st.booleans(), min_size=len(label), max_size=len(label)))
    mangled = "".join(
        c.upper() if flip else c for c, flip in zip(label, flips)
    )
    assert parse(mangled, space).label == label


def test_parse_rate():
    rows = parse_predictions([
        {"clip_id": "c1", "question_id": "mean_speed_low", "response": response}
        for response in ["yes"] * 3 + ["???"]
    ])
    assert parse_rate_report(rows) == {"default": {
        "n": 4, "parsed": 3, "parse_rate_percent": 75.0, "stages": {"exact": 3, "none": 1}}}
    assert parse_rate_report([]) == {}


def reference_parse(raw, answer_space):
    """``parse`` as it was before its tables were cached: every table is
    built again on each call."""
    if not answer_space:
        raise ValueError("answer_space must be non-empty")
    for label in answer_space:
        if label != label.lower():
            raise ValueError(f"answer-space labels must be lowercase: {label!r}")

    text = raw.strip().lower()
    if text in answer_space:
        return ParseResult(text, parsing.STAGE_EXACT, raw)

    normalized = _normalize(text)
    by_normalized = {_normalize(label): label for label in answer_space}
    if normalized in by_normalized:
        return ParseResult(by_normalized[normalized], parsing.STAGE_UNDERSCORE, raw)

    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        return ParseResult(UNPARSED, parsing.STAGE_NONE, raw)
    last = lines[-1]
    if last != text:
        if last in answer_space:
            return ParseResult(last, parsing.STAGE_LAST_LINE, raw)
        if _normalize(last) in by_normalized:
            return ParseResult(by_normalized[_normalize(last)], parsing.STAGE_LAST_LINE, raw)

    found = [label for label in answer_space if _word_pattern(label).search(last)]
    if len(found) == 1:
        return ParseResult(found[0], parsing.STAGE_SUBSTRING, raw)
    return ParseResult(UNPARSED, parsing.STAGE_NONE, raw)


SPACES = sorted(set(ANSWER_SPACES.values()))
LABEL_WORDS = sorted({part for space in SPACES for label in space
                      for part in (label, *label.split("_"))} | {"the", "answer", "is", "eyes"})
SEPARATORS = (" ", "_", "-", ".", ", ", ": ", "!", "  ", "\t", "")
NEWLINES = ("\n", "\r\n", "\n\n", "\r", "\x0b", "\x85", "\u2028", " \n ")
RESPONSES = st.lists(
    st.one_of(
        st.sampled_from(LABEL_WORDS),
        st.sampled_from(LABEL_WORDS).map(str.upper),
        st.sampled_from(SEPARATORS),
        st.sampled_from(NEWLINES),
        st.text(max_size=4),
    ),
    max_size=12,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(RESPONSES)
def test_cached_tables_equal_reference(raw):
    for space in SPACES:
        expected = reference_parse(raw, space)
        assert parse(raw, space) == expected
        assert parse(raw, list(space)) == expected
