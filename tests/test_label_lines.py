"""``oracle.label_lines`` writes the label rows as text, byte for byte what
``json.dumps(row, sort_keys=True, ensure_ascii=False)`` writes for the dict
rows it replaced (``conftest.ref_label_rows``).

The tables and columns are random: rule names, parameters and evidence
keys with ``%`` and non-ASCII characters; float columns with NaN, +/-Inf,
-0.0, 1e308 and 5e-324; int and bool columns; clip ids that are
non-ASCII, hold ``%`` or are numbers; and batches of 0 clips. The checks
raise the reference's ``ValueError`` messages, and the per-clip records
read back from the text are the reference rows.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jsonl, ref_label_rows
from egodyn import oracle
from egodyn.kinematics import summarize_batch
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER
from egodyn.synth import generate_suite
from egodyn.thresholds import ThresholdConfig

TEXT = st.text(st.sampled_from("az%_é \U0001f697\"\\\n"), max_size=5)
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 5e-324, 0.1, 1 / 3]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats()
CLIP_IDS = TEXT | st.sampled_from(["100%", "%s", "%(x)s", "körung"]) | st.integers(-5, 5)
PARAMS = st.dictionaries(  # no NaN, so that read-back rows can be ``==``
    TEXT, st.floats(allow_nan=False) | st.booleans() | st.integers() | TEXT | st.none(),
    max_size=3)


@st.composite
def column(draw, count: int) -> np.ndarray:
    """An evidence column of ``count`` clips: floats (finite or not), ints
    or bools."""
    kind = draw(st.sampled_from(["finite", "float", "int", "bool"]))
    if kind == "int":
        values = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=count, max_size=count))
        return np.array(values, dtype=np.int64)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=count, max_size=count)), dtype=bool)
    values = st.floats(allow_nan=False, allow_infinity=False) if kind == "finite" else FLOATS
    return np.array(draw(st.lists(values, min_size=count, max_size=count)), dtype=float)


@st.composite
def batches(draw):
    """Clip ids, answer codes, evidence columns and a rule table."""
    count = draw(st.integers(0, 4))
    clip_ids = draw(st.lists(CLIP_IDS, min_size=count, max_size=count))
    questions = draw(st.lists(st.sampled_from(QUESTION_ORDER), min_size=1, max_size=4,
                              unique=True))
    names = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))
    evidence = {name: draw(column(count)) for name in names}
    table = {
        question: (draw(TEXT), draw(PARAMS),
                   tuple(draw(st.lists(st.sampled_from(names), min_size=1, unique=True))))
        for question in questions
    }
    codes = np.array(
        [[draw(st.integers(0, len(ANSWER_SPACES[q]) - 1)) for q in questions]
         for _ in range(count)],
        dtype=np.intp,
    ).reshape(count, len(questions))
    return clip_ids, codes, evidence, table


@settings(max_examples=300, deadline=None)
@given(batch=batches())
def test_text_equals_dumps_of_the_reference_rows(batch):
    rows = ref_label_rows(*batch)
    assert oracle.label_lines(*batch) == jsonl(rows)


@settings(max_examples=100, deadline=None)
@given(batch=batches())
def test_records_read_back_are_the_reference_rows(batch):
    """``read_records`` of the text gives the reference rows, with ``==``,
    wherever ``==`` can hold (NaN equals nothing)."""
    clip_ids, codes, evidence, table = batch
    evidence = {name: np.nan_to_num(column, nan=0.5, posinf=math.inf, neginf=-math.inf)
                for name, column in evidence.items()}
    rows = ref_label_rows(clip_ids, codes, evidence, table)
    text = oracle.label_lines(clip_ids, codes, evidence, table)
    assert [record.to_dict() for record in oracle.read_records(text)] == rows


def synth_batch():
    seqs = [clip.seq for clip in generate_suite(3, seed=5)]
    cfg = ThresholdConfig(alpha=0.93)
    codes, evidence = oracle.label_batch(seqs, summarize_batch(seqs), cfg)
    return codes, evidence, oracle.rule_table(cfg)


def test_synth_labels_with_edge_clip_ids():
    codes, evidence, table = synth_batch()
    clip_ids = ["c%d", "körung \U0001f697", " %%"]
    want = jsonl(ref_label_rows(clip_ids, codes, evidence, table))
    assert oracle.label_lines(clip_ids, codes, evidence, table) == want
    empty = {name: column[:0] for name, column in evidence.items()}
    assert oracle.label_lines([], codes[:0], empty, table) == ""


@pytest.mark.parametrize("code", [-1, 3, 4])
@pytest.mark.parametrize("clip", [0, 2])
def test_out_of_space_code_raises_the_reference_message(code, clip):
    """The range check of ``QARecord``, made once for the batch, names the
    first clip and question that fail, as the reference does."""
    codes, evidence, table = synth_batch()
    clip_ids = ["a", "b%", "cé"]
    codes[clip:, QUESTION_ORDER.index("turn_direction")] = code
    codes[2, QUESTION_ORDER.index("speed_regime")] = 9
    with pytest.raises(ValueError) as want:
        ref_label_rows(clip_ids, codes, evidence, table)
    with pytest.raises(ValueError) as got:
        oracle.label_lines(clip_ids, codes, evidence, table)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"clip {clip_ids[clip]!r}, question 'turn_direction': ")


def test_question_without_evidence_raises():
    codes, evidence, table = synth_batch()
    rule, params, _ = table["turn_direction"]
    table["turn_direction"] = (rule, params, ())
    with pytest.raises(ValueError, match="^evidence must not be empty$"):
        oracle.label_lines(["a", "b", "c"], codes, evidence, table)
