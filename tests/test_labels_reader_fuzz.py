"""Fuzz the labels and truth reader through ``balance`` and ``evaluate``.

Both commands read keyed rows with ``io.read_jsonl`` and ``io.keyed_rows``:
``balance`` its labels file, ``evaluate`` its truth file. Each file holds
the label rows of a few clips, with blank lines, and one fault in one
line: a missing ``clip_id``, ``question_id`` or ``answer``; an array or
object id; invalid JSON; a JSON value that is not an object; or bytes
that are not UTF-8. Each of these must exit 2 with ``<path>:<line>:`` of
that line. Other spoiled values (answers and ids of every JSON type,
unknown questions, lone surrogates, duplicate rows) must exit 0 or 2 with
a one-line message. No input may raise.
"""

from __future__ import annotations

import contextlib
import json
from io import StringIO

from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn import io
from egodyn.cli import main
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER

LINE_FAULTS = ["missing", "array_id", "object_id", "bad_json", "not_object", "bad_utf8"]
VALUES = [5, 1.5, None, True, [1], {"a": 1}, "banana", "bogus_q", "\ud800", "", "körung"]


@st.composite
def label_files(draw):
    """The lines of a labels file, as bytes, and the line of its fault
    that must be named (None for a spoiled value)."""
    rows = [
        {"clip_id": f"c{c}", "question_id": q, "answer": draw(st.sampled_from(ANSWER_SPACES[q])),
         "rule_name": "r"}
        for c in range(draw(st.integers(1, 3)))
        for q in QUESTION_ORDER
    ]
    index = draw(st.integers(0, len(rows) - 1))
    row = rows[index]
    fault = draw(st.sampled_from(LINE_FAULTS + ["value", "duplicate"]))
    field = draw(st.sampled_from(["clip_id", "question_id", "answer"]))
    if fault == "missing":
        del row[field]
    elif fault == "array_id":
        row[field if field != "answer" else "clip_id"] = [row["clip_id"]]
    elif fault == "object_id":
        row[field if field != "answer" else "question_id"] = {"id": row["question_id"]}
    elif fault == "value":
        row[field] = draw(st.sampled_from(VALUES))
    elif fault == "duplicate":
        rows.append(dict(row))
    lines = [json.dumps(r, ensure_ascii=False).encode("utf-8", "surrogatepass") for r in rows]
    if fault == "bad_json":
        lines[index] = lines[index][: draw(st.integers(1, len(lines[index]) - 1))]
    elif fault == "not_object":
        lines[index] = json.dumps([row]).encode()
    elif fault == "bad_utf8":
        at = draw(st.integers(0, len(lines[index])))
        lines[index] = lines[index][:at] + b"\xff" + lines[index][at:]
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=3))
    for at in sorted(blanks, reverse=True):  # blank lines are skipped but counted
        lines.insert(at, b"")
        index += at <= index
    named = index + 1 if fault in LINE_FAULTS else None
    return b"".join(line + b"\n" for line in lines), named


@settings(max_examples=150, deadline=None)
@given(file=label_files(), command=st.sampled_from(["balance", "evaluate"]))
def test_malformed_rows_exit_2_naming_the_line(tmp_path_factory, file, command):
    data, named = file
    where = tmp_path_factory.mktemp("fuzz")
    path = where / "labels.jsonl"
    path.write_bytes(data)
    if command == "balance":
        config = {"labels": str(path), "n": 1, "out": str(where / "out")}
    else:
        predictions = where / "predictions.jsonl"
        io.write_jsonl(predictions, [
            {"clip_id": f"c{c}", "question_id": q, "response": ANSWER_SPACES[q][0]}
            for c in range(3) for q in QUESTION_ORDER
        ])
        config = {"truth": str(path), "predictions": str(predictions),
                  "out": str(where / "out")}
    io.write_json(where / "config.json", config)
    err = StringIO()
    with contextlib.redirect_stderr(err):
        status = main([command, "--config", str(where / "config.json")])
    message = err.getvalue()
    if named is not None:
        assert status == 2
        assert message.startswith(f"egodyn {command}: {path}:{named}: "), message
    else:
        assert status in (0, 2)
    assert (status == 0) == (message == "")
    assert message.count("\n") == (status == 2)
