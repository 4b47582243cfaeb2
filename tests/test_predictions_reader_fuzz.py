"""Fuzz the predictions reader through ``parse``, ``evaluate`` and ``sweep``.

Each predictions file holds free-text and pre-parsed rows for a few clips,
spoiled with up to three faults in random rows: an unknown question id, a
pre-parsed label outside the answer space, a second row for one cell, a
missing field, an array or object id, a ``response`` that is not a JSON
string, and numeric clip ids that are equal as keys (``1``, ``1.0``,
``true``), sometimes in two rows for one cell. The command must exit
with the code, print the message and write the bytes of the reference
below, which keeps the path that
``report.prediction_codes`` and ``AnswerTable.from_codes`` replaced: every
row copied and parsed alone with ``parsing.parse``, every label checked by
``answer_code``, then a table keyed by ``(clip, column)`` tuples that
checks each label again, each step searched row by row for the first row
that fails alone. The reference adds two rules to that path: the
string ``response``, and that ``parse``, like ``evaluate``, rejects an
array or object ``clip_id`` once no row fails alone.
"""

from __future__ import annotations

import contextlib
import json
import shutil
from io import StringIO
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egodyn import cli, io, metrics, parsing, report
from egodyn.errors import ConfigError
from egodyn.questions import (
    ANSWER_SPACES,
    NO_ANSWER,
    QUESTION_ORDER,
    UNPARSED,
    AnswerTable,
    answer_code,
)
from egodyn.synth import generate_suite

# --------------------------------------------------------------- reference


def ref_checked_rows(path, rows, check, *fields):
    """``check(rows)``; a ``ConfigError`` names the first row that fails
    alone, and a row that cannot be keyed fails as ``io.keyed_rows`` says."""
    with io.keyed_rows(path, rows, *fields):
        try:
            return check(rows)
        except ConfigError:
            for index, row in enumerate(rows):
                try:
                    check([row])
                except ConfigError as exc:
                    raise ConfigError(f"{path}:{io._row_line(path, index)}: {exc}") from None
            raise


def ref_kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    return "an array" if isinstance(value, list) else "an object"


def ref_parse_predictions(rows):
    out = []
    for row in rows:
        enriched = dict(row)
        if "parsed" in row and "response" not in row:
            answer_code(row["clip_id"], row["question_id"], row["parsed"], predicted=True)
            enriched.setdefault("stage", "external")
        else:
            space = ANSWER_SPACES.get(row["question_id"])
            if space is None:
                answer_code(row["clip_id"], row["question_id"], None)  # raises
            if not isinstance(row["response"], str):
                raise ConfigError(f"clip {row['clip_id']!r}: field 'response' holds "
                                  f"{ref_kind(row['response'])}, not a string")
            result = parsing.parse(row["response"], space)
            enriched["parsed"] = result.label
            enriched["stage"] = result.stage
        out.append(enriched)
    return out


def ref_from_rows(rows, predicted=False):
    index, cells = {}, {}
    for clip_id, question_id, label in rows:
        code = answer_code(clip_id, question_id, label, predicted)
        cell = (index.setdefault(clip_id, len(index)), QUESTION_ORDER.index(question_id))
        if cell in cells:
            kind = "prediction" if predicted else "truth"
            raise ConfigError(f"clip {clip_id!r}, question {question_id!r}: two {kind} rows")
        cells[cell] = code
    codes = np.full((len(index), len(QUESTION_ORDER)), NO_ANSWER, dtype=np.intp)
    if cells:
        codes[tuple(zip(*cells))] = list(cells.values())
    return AnswerTable(tuple(index), codes)


def ref_table(path, rows, field, predicted=False):
    def table(rows):
        return ref_from_rows(
            ((row["clip_id"], row["question_id"], row[field]) for row in rows), predicted)

    return ref_checked_rows(path, rows, table, field)


def ref_predictions(path):
    return ref_checked_rows(path, io.read_predictions(path), ref_parse_predictions)


def ref_cmd_parse(cfg):
    path = cfg.params["predictions"]
    parsed = ref_predictions(path)
    for index, row in enumerate(parsed):  # after every row fault, as in evaluate
        if isinstance(row["clip_id"], (list, dict)):
            raise ConfigError(f"{path}:{io._row_line(path, index)}: field 'clip_id' holds "
                              f"{ref_kind(row['clip_id'])}, not a string or a number")
    out = cfg.out_dir
    io.write_jsonl(out / "parsed_predictions.jsonl", parsed)
    io.write_json(out / "parse_report.json", report.parse_rate_report(parsed))
    return {"parsed_predictions": out / "parsed_predictions.jsonl",
            "parse_report": out / "parse_report.json"}


def ref_cmd_evaluate(cfg):
    truth_path, path = cfg.params["truth"], cfg.params["predictions"]
    truth = ref_table(truth_path, io.read_jsonl(truth_path), "answer")
    parsed = ref_predictions(path)
    predictions = ref_table(path, parsed, "parsed", predicted=True)
    out = cfg.out_dir
    (out / "report.json").write_text(
        report.build_evaluation_report(truth, predictions, truth_path), encoding="utf-8")
    io.write_jsonl(out / "parsed_predictions.jsonl", parsed)
    return {"report": out / "report.json", "parsed_predictions": out / "parsed_predictions.jsonl"}


def ref_cmd_sweep(cfg):
    clips = cli._load_clips(cfg, key="trajectories")
    tables = {model: ref_table(path, ref_predictions(path), "parsed", predicted=True)
              for model, path in cfg.params["predictions"].items()}
    results = metrics.sensitivity_sweep(clips, tables, cli._load_thresholds(cfg), cfg.alphas)
    out = cfg.out_dir
    io.write_json(out / "sweep.json", {"results": [r.to_dict() for r in results]})
    report.write_sweep_csv(out / "sweep.csv", results)
    return {"sweep": out / "sweep.json", "sweep_csv": out / "sweep.csv"}


REFERENCE = {"parse": ref_cmd_parse, "evaluate": ref_cmd_evaluate, "sweep": ref_cmd_sweep}

# ----------------------------------------------------------------- inputs

SUITE = generate_suite(3, seed=23)
CLIPS = [clip.clip_id for clip in SUITE]
FAULTS = ("unknown_question", "out_of_space", "duplicate", "missing", "array_id",
          "object_id", "response_type", "numeric_id")
NOT_STRINGS = (None, True, False, 0, 2.5, ["left"], {"a": "steady"}, [])


def _response(label: str, form: int) -> str:
    words = label.replace("_", " ")
    return (label, words.title() + ".", "Looking at the traces.\n" + label,
            "Answer: " + words, "I cannot tell.", f"{words} or maybe not {words}",
            "")[form]


@st.composite
def prediction_files(draw):
    """The rows of a predictions file with up to three faults."""
    rows = []
    for clip_id in CLIPS:
        for question in QUESTION_ORDER:
            kind = draw(st.sampled_from(["response", "parsed", "both", "absent"]))
            if kind == "absent":
                continue
            label = draw(st.sampled_from(ANSWER_SPACES[question] + (UNPARSED,)))
            row = {"clip_id": clip_id, "question_id": question}
            if kind != "parsed":
                row["response"] = _response(
                    label if label != UNPARSED else "none", draw(st.integers(0, 6)))
            if kind != "response":
                row["parsed"] = label
            if draw(st.booleans()) and draw(st.booleans()):
                row["model"] = draw(st.sampled_from(["m1", "m2"]))
            rows.append(row)
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        index = draw(st.integers(0, len(rows) - 1))
        row = dict(rows[index])
        fault = draw(st.sampled_from(FAULTS))
        if fault == "unknown_question":
            row["question_id"] = draw(st.sampled_from(["bogus", "Turn_Direction", 3, None]))
        elif fault == "out_of_space":
            row.pop("response", None)
            row["parsed"] = draw(st.sampled_from(["sideways", "", None, 1, ["left"]]))
        elif fault == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), dict(row))
        elif fault == "missing":
            for field in draw(st.sampled_from(
                    [("clip_id",), ("question_id",), ("response", "parsed")])):
                row.pop(field, None)
        elif fault == "array_id":
            field = draw(st.sampled_from(["clip_id", "question_id"]))
            row[field] = [row.get(field)]
        elif fault == "object_id":
            field = draw(st.sampled_from(["clip_id", "question_id"]))
            row[field] = {"id": row.get(field)}
        elif fault == "response_type":
            row["response"] = draw(st.sampled_from(NOT_STRINGS))
        else:  # numeric ids, maybe a second row for the cell under an equal id
            row["clip_id"] = draw(st.sampled_from([1, 1.0, True]))
            if draw(st.booleans()):
                rows.insert(index + 1, {**row, "clip_id": draw(st.sampled_from([1, 1.0, True]))})
        rows[index] = row
    return rows


# ------------------------------------------------------------- comparison


def _run(command, config_path, out):
    if out.exists():
        shutil.rmtree(out)
    err = StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main([command, "--config", str(config_path)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return status, err.getvalue(), files


# A ``parse`` file whose only fault is an array or object ``clip_id``: the
# random draws reach it too rarely to guard the clip-id rule of ``parse``.
ONLY_ID_FAULT = [
    [{"clip_id": CLIPS[0], "question_id": "speed_trend", "parsed": "steady"},
     {"clip_id": [CLIPS[0]], "question_id": "turn_direction", "response": "left"}],
    [{"clip_id": {"id": CLIPS[1]}, "question_id": "turn_direction", "parsed": "left"},
     {"clip_id": CLIPS[1], "question_id": "speed_trend", "response": "Steady."}],
]


@settings(max_examples=150, deadline=None)
@given(rows=prediction_files(), command=st.sampled_from(["parse", "evaluate", "sweep"]))
@example(rows=ONLY_ID_FAULT[0], command="parse")
@example(rows=ONLY_ID_FAULT[1], command="parse")
def test_predictions_reader_equals_reference(tmp_path_factory, rows, command):
    where = tmp_path_factory.mktemp("fuzz")
    path = where / "predictions.jsonl"
    path.write_text("\n" + "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    out = where / "out"
    if command == "parse":
        config = {"predictions": str(path)}
    elif command == "evaluate":
        truth = where / "truth.jsonl"
        io.write_jsonl(truth, [{"clip_id": clip.clip_id, "question_id": q,
                                "answer": clip.expected[q]}
                               for clip in SUITE for q in QUESTION_ORDER])
        config = {"truth": str(truth), "predictions": str(path)}
    else:
        trajectories = where / "trajectories.jsonl"
        io.write_jsonl(trajectories, [row for clip in SUITE
                                      for row in io.sequence_to_rows(clip.clip_id, clip.seq)])
        clean = where / "clean.jsonl"
        io.write_jsonl(clean, [{"clip_id": clip.clip_id, "question_id": q,
                                "response": clip.expected[q]}
                               for clip in SUITE for q in QUESTION_ORDER])
        config = {"trajectories": str(trajectories), "alphas": [0.5, 1.0],
                  "predictions": {"fuzzed": str(path), "clean": str(clean)}}
    config_path = where / "config.json"
    io.write_json(config_path, {**config, "out": str(out)})

    shipped = _run(command, config_path, out)
    with mock.patch.dict(cli._RUNNERS, {command: REFERENCE[command]}):
        expected = _run(command, config_path, out)
    assert shipped == expected
    status, message, _ = shipped
    assert status in (0, 2)
    assert (status == 0) == (message == "")
