"""Fuzz the thresholds reader through ``label`` and the source-manifest
reader through ``balance``.

A thresholds file is a JSON object of threshold fields. The fuzzed files
hold known fields with values of every JSON type (``10**400``, NaN and
Infinity among them), unknown keys, documents that are not objects,
invalid JSON, bytes that are not UTF-8 and lone surrogate escapes. A
source manifest is a CSV with ``clip_id`` and ``source`` columns; the
fuzzed ones lack a column, repeat clips, list clips outside the pool,
carry short and long rows, blank lines and bytes that are not UTF-8.

Every input must exit 0, or exit 2 with one line on stderr; a fault of
the file itself must exit 2 with a message that names the file (and the
line, where the fault is on one). No input may raise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from io import StringIO

from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn import io
from egodyn.cli import main
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER
from egodyn.thresholds import ThresholdConfig

FIELDS = [f.name for f in dataclasses.fields(ThresholdConfig)]
FLAGS = {"stop_go_bidirectional": [True, False], "heading_total_mode": ["net", "sum"]}
# a value no field accepts: not a finite number, and not a flag's value either
SPOILED = [None, "abc", "0.5", "", [], [0.5], {}, {"a": 1}, 10**400, -(10**400),
           math.nan, math.inf, -math.inf]
# finite numbers: a field may take them or not, by the ordering of its group
NUMBERS = [-2.0, -0.5, 0, 0.3, 1, 4.5, 30]
UNKNOWN_KEYS = ["bogus", "", "Turn_Deadzone", "turn_deadzone ", "é", "1"]
NOT_OBJECTS = ["[]", "[{}]", "0", "1e400", '"turn_deadzone"', "null", "true"]


def _run(command, config):
    err = StringIO()
    with contextlib.redirect_stderr(err):
        status = main([command, "--config", str(config)])
    return status, err.getvalue()


def _assert_outcome(command, status, message, named):
    """Exit 0 without a message, or 2 with one line; ``named`` (if any)
    must then open the message."""
    assert status in (0, 2)
    assert (status == 0) == (message == ""), message
    assert message.count("\n") == (status == 2), message
    if named is not None:
        assert status == 2
        assert message.startswith(f"egodyn {command}: {named}"), message


@st.composite
def threshold_files(draw):
    """The bytes of a thresholds file and whether the file is at fault."""
    fault = draw(st.sampled_from(
        ["none", "value", "unknown_key", "not_object", "invalid_json", "bad_utf8", "surrogate"]))
    doc = {}
    for name in draw(st.lists(st.sampled_from(FIELDS), max_size=5, unique=True)):
        doc[name] = draw(st.sampled_from(FLAGS.get(name, NUMBERS)))
    if fault == "value":
        name = draw(st.sampled_from(FIELDS))
        doc[name] = value = draw(st.sampled_from(SPOILED + [True, 1, "NET"]))
        if name == "stop_go_bidirectional":
            fault = "none" if isinstance(value, bool) else fault
        elif name == "heading_total_mode":
            fault = "none" if value in ("net", "sum") else fault
        elif type(value) in (int, float) and value in NUMBERS:
            fault = "none"  # a number the field may take
    elif fault == "unknown_key":
        doc[draw(st.sampled_from(UNKNOWN_KEYS))] = draw(st.sampled_from(SPOILED + NUMBERS))
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
    if fault == "not_object":
        text = draw(st.sampled_from(NOT_OBJECTS))
    elif fault == "invalid_json":
        text = text[: draw(st.integers(0, len(text) - 1))] if len(text) > 1 else "{"
    elif fault == "surrogate":
        escape = draw(st.sampled_from(["\\ud800", "\\udfff"]))
        key = draw(st.booleans())
        text = json.dumps({**doc, "x" if key else "heading_total_mode": "s"})
        text = text.replace('"x"', f'"{escape}"') if key else text.replace('"s"', f'"{escape}"')
    data = text.encode("utf-8")
    if fault == "bad_utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, fault != "none"


@settings(max_examples=150, deadline=None)
@given(file=threshold_files())
def test_thresholds_reader(tmp_path_factory, file):
    data, faulty = file
    where = tmp_path_factory.mktemp("fuzz")
    thresholds = where / "thresholds.json"
    thresholds.write_bytes(data)
    trajectories = where / "trajectories.jsonl"
    io.write_jsonl(trajectories, [
        {"clip_id": "c", "t": i / 10.0, "x": float(i), "y": 0.0, "heading": 0.0}
        for i in range(31)
    ])
    config = where / "config.json"
    io.write_json(config, {"input": str(trajectories), "thresholds": str(thresholds),
                           "out": str(where / "out")})
    status, message = _run("label", config)
    # a file at fault is named; so is one whose fields break an ordering
    _assert_outcome("label", status, message, thresholds if faulty or status else None)


POOL = ["c0", "c1", "c2"]
CLIPS = POOL + ["c9", ""]


@st.composite
def source_manifests(draw):
    """The lines of a source manifest, as bytes, and what its message must
    open with (None where the file holds no fault)."""
    header = draw(st.sampled_from([
        ["clip_id", "source"], ["source", "clip_id"], ["clip_id", "source", "weight"],
        ["clip_id"], ["source"], ["id", "source"], ["clip_id", "origin"], []]))
    lines, faults, seen = [",".join(header).encode()], [], set()
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(b"")  # a blank line: csv skips it but counts it
            continue
        row = {"clip_id": draw(st.sampled_from(CLIPS)),
               "source": draw(st.sampled_from(["sim", "real", "Sim", "", "x y"])),
               "weight": "1", "id": "c0", "origin": "sim"}
        fields = [row[column] for column in header]
        shape = draw(st.sampled_from(["full", "full", "full", "short", "long", "bad_utf8"]))
        if shape == "short" and fields:
            fields.pop()
        elif shape == "long":
            fields.append("extra")
        line = ",".join(fields).encode()
        if shape == "bad_utf8":
            line += draw(st.sampled_from([b"\xff", b"\xed\xa0\x80"]))  # the second: U+D800
        lines.append(line)
        if shape == "full" and line:
            if row["clip_id"] in seen:
                faults.append(f":{len(lines)}: clip {row['clip_id']!r} has a second source row")
            seen.add(row["clip_id"])
        elif line and shape != "bad_utf8":  # a short row that is blank is skipped
            faults.append(f":{len(lines)}: {'fewer' if shape == 'short' else 'more'} fields")
    # a small file is decoded whole before any row is read
    bad = [i for i, line in enumerate(lines) if b"\xff" in line or b"\xed" in line]
    if bad:
        return b"".join(line + b"\n" for line in lines), f":{bad[0] + 1}: not UTF-8"
    for column in ("clip_id", "source"):
        if column not in header:
            faults.insert(0, f": source manifest has no {column!r} column")
            break
    return b"".join(line + b"\n" for line in lines), (faults or [None])[0]


@settings(max_examples=150, deadline=None)
@given(file=source_manifests(), caps=st.sampled_from([None, {"sim": 0}, {"sim": 1, "real": 1}]))
def test_source_manifest_reader(tmp_path_factory, file, caps):
    data, named = file
    where = tmp_path_factory.mktemp("fuzz")
    sources = where / "sources.csv"
    sources.write_bytes(data)
    labels = where / "labels.jsonl"
    io.write_jsonl(labels, [{"clip_id": c, "question_id": q, "answer": ANSWER_SPACES[q][0]}
                            for c in POOL for q in QUESTION_ORDER])
    config = where / "config.json"
    io.write_json(config, {"labels": str(labels), "n": 1, "sources": str(sources),
                           "out": str(where / "out"), **({"caps": caps} if caps else {})})
    status, message = _run("balance", config)
    _assert_outcome("balance", status, message, None if named is None else f"{sources}{named}")
