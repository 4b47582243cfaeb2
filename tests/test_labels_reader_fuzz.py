"""Fuzz the labels and truth reader through ``balance`` and ``evaluate``.

Both commands fold keyed rows as ``io.iter_jsonl`` decodes them:
``balance`` its labels file, ``evaluate`` its truth file. Each file holds
the label rows of a few clips, with blank lines, and one fault in one
line: a missing ``clip_id``, ``question_id`` or ``answer``; an array or
object id; invalid JSON; a JSON value that is not an object; or bytes
that are not UTF-8. Each of these must exit 2 with ``<path>:<line>:`` of
that line. Other spoiled values (answers and ids of every JSON type,
unknown questions, lone surrogates, duplicate rows) must exit 0 or 2 with
a one-line message. Some files hold a second fault on another line, one
that reading the file fails on (invalid JSON, bytes that are not UTF-8, a
lone surrogate), before or after the first. Every file must give the exit
code, message and outputs of the reference below, which reads the file
whole with ``io.read_jsonl`` and keys its rows under ``io.keyed_rows``. No
input may raise.
"""

from __future__ import annotations

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn import balancer, cli, io
from egodyn.errors import ConfigError
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER
from test_predictions_reader_fuzz import _run, ref_cmd_evaluate

LINE_FAULTS = ["missing", "array_id", "object_id", "bad_json", "not_object", "bad_utf8"]
READ_FAULTS = ["bad_json", "bad_utf8", "surrogate"]
VALUES = [5, 1.5, None, True, [1], {"a": 1}, "banana", "bogus_q", "\ud800", "", "körung"]


def ref_cmd_balance(cfg):
    """``balance`` on its labels file read whole: every read fault first,
    then the first row that cannot be keyed or repeats a cell, then the
    first unknown question id."""
    labels = cfg.params["labels"]
    rows = io.read_jsonl(labels)
    answers = {}
    with io.keyed_rows(labels, rows, "answer"):
        for row in rows:
            clip_answers = answers.setdefault(row["clip_id"], {})
            if row["question_id"] in clip_answers:
                raise ConfigError(f"clip {row['clip_id']!r}, question {row['question_id']!r}: "
                                  "two labels rows")
            clip_answers[row["question_id"]] = row["answer"]
    for index, row in enumerate(rows):
        if row["question_id"] not in QUESTION_ORDER:
            raise ConfigError(f"{labels}:{io._row_line(labels, index)}: clip {row['clip_id']!r}: "
                              f"unknown question id {row['question_id']!r}")
    pool = [balancer.PoolClip(clip_id, "real", clip_answers)
            for clip_id, clip_answers in answers.items()]
    selected_ids = balancer.balance(pool, cfg.params["n"])
    by_id = {clip.clip_id: clip for clip in pool}
    out = cfg.out_dir
    io.write_json(out / "selected_clips.json", {"selected": selected_ids})
    io.write_json(out / "imbalance_report.json",
                  balancer.imbalance_report([by_id[clip_id] for clip_id in selected_ids]))
    return {"selected_clips": out / "selected_clips.json",
            "imbalance_report": out / "imbalance_report.json"}


REFERENCE = {"balance": ref_cmd_balance, "evaluate": ref_cmd_evaluate}


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
        lines[index] = _not_utf8(draw, lines[index])
    second = len(lines) > 1 and draw(st.booleans()) and draw(st.sampled_from(READ_FAULTS))
    if second:  # on a line before or after the first fault's
        other = draw(st.integers(0, len(lines) - 1).filter(lambda i: i != index))
        if second == "bad_json":
            lines[other] = lines[other][:-1]
        elif second == "bad_utf8":
            lines[other] = _not_utf8(draw, lines[other])
        else:
            lines[other] = json.dumps({**rows[other], "rule_name": "\ud800"}).encode()
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=3))
    for at in sorted(blanks, reverse=True):  # blank lines are skipped but counted
        lines.insert(at, b"")
        index += at <= index
    named = index + 1 if fault in LINE_FAULTS and not second else None
    return b"".join(line + b"\n" for line in lines), named


def _not_utf8(draw, line: bytes) -> bytes:
    at = draw(st.integers(0, len(line)))
    return line[:at] + b"\xff" + line[at:]


@settings(max_examples=300, deadline=None)
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
    shipped = _run(command, where / "config.json", where / "out")
    with mock.patch.dict(cli._RUNNERS, {command: REFERENCE[command]}):
        assert _run(command, where / "config.json", where / "out") == shipped
    status, message, _ = shipped
    if named is not None:
        assert status == 2
        assert message.startswith(f"egodyn {command}: {path}:{named}: "), message
    else:
        assert status in (0, 2)
    assert (status == 0) == (message == "")
    assert message.count("\n") == (status == 2)
