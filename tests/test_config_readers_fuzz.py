"""Fuzz the thresholds reader through ``label``, the source-manifest
reader through ``balance``, and the config document through every
command.

A thresholds file is a JSON object of threshold fields. The fuzzed files
hold known fields with values of every JSON type (``10**400``, NaN and
Infinity among them), unknown keys, documents that are not objects,
invalid JSON, bytes that are not UTF-8 and lone surrogate escapes. A
source manifest is a CSV with ``clip_id`` and ``source`` columns; the
fuzzed ones lack a column, repeat clips, list clips outside the pool,
carry short and long rows, blank lines and bytes that are not UTF-8. A
config document holds a command's own keys with valid values and values
of every JSON type (sizes far beyond memory among them), keys the command
does not read, nested objects and keys repeated at the top or inside a
nested object.

Every input must exit 0, or exit 2 with one line on stderr; a fault of
the file itself must exit 2 with a message that names the file (and the
line, where the fault is on one). No input may raise."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egodyn import io
from egodyn.cli import COMMAND_KEYS, main
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER
from egodyn.synth import ManeuverSpec, generate, generate_suite
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


# scalars and containers of every JSON type, nested up to two deep
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3)
    | st.sampled_from([0, 1, -1, 2, 2.5, -0.0, 10**400, 1e300, math.nan, math.inf]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5,
)
# key -> (values it takes, values it does not); sizes far beyond any memory
# are among the second
POSITIVE = ([10.0, 5, 20, 12.5], [1e-300, 33_334, 1e12, 1e300, 0, -1, "10", math.nan,
                                  math.inf, 10**400, True])
KEY_VALUES = {
    "rate_hz": POSITIVE,
    "window_s": ([3.0, 2, 2.5], POSITIVE[1]),
    "alphas": ([[0.5, 1.0, 1.5], [1.0], [1.0, 1.0], [1.0, 0.25]],
               [[0.5], [], [1.0, 0], [1.0, "1"], [1.0, math.nan], [1.0, 10**400], [1.0, True],
                1.0, "1.0"]),
    "encoding": (["summary", "timeseries", "coordinates", "full"], ["bogus", ""]),
    "encoding_steps": ([2, 3, 10, 10_000], [10_001, 10**12, 10**400, 1, -1, 2.5, "abc", True]),
    "count": ([0, 1, 2], [100_001, 10**12, 10**400, -1, 2.5, "2", True]),
    "seed": ([0, 1, 10**20], [-1, 2.5, "1", True]),
    "regime_mix": ([{"cruise_urban": 1.0}, {"cruise_urban": 1, "stop_and_go": 2.5}],
                   [{"nope": 1}, {"cruise_urban": 0}, {}, [1.0]]),
    "kind": (["flow", "vo", "vo_learned"], ["bogus"]),
    "n": ([2, 0, 1, 3], [10, 10**400, -1, 2.5, "1", True]),
    "caps": ([{"real": 1}, {"real": 0}, {"sim": 1, "real": 2}],
             [{"real": -1}, {"real": 2.5}, {"real": "1"}, {"real": 10**400}, [1], 1]),
}
UNREAD_KEYS = ["bogus", "Out", "alpha", "encoding_step", ""]
# file key -> the stand-in for its path, replaced by a real file's path
INPUTS = {key: f"@{key}" for key in ("input", "trajectories", "truth", "labels", "predictions",
                                     "proxies", "sources", "thresholds")}
CONFIG_FAULTS = ["none", "value", "json_value", "file", "unread_key", "missing_key", "repeat"]


@st.composite
def config_documents(draw):
    """A command, the text of its config document and what its message
    must open with (None where it may exit 0, or 2 for its input).

    The document reads the files of ``INPUTS`` and gives some of the
    command's other keys values they take; then at most one fault is put
    in: a value the key does not take, a JSON value of any type, a file
    key that names no file, a key the command does not read, a missing
    required key, or a key repeated at the top or in a nested object."""
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    required, optional = COMMAND_KEYS[command]
    keys = required + optional
    doc = {key: INPUTS[key] for key in keys if key in INPUTS}
    doc["out"] = "out"  # relative: the test runs in a folder of its own
    if command == "sweep":
        doc["predictions"] = {"m0": INPUTS["predictions"], "m1": INPUTS["predictions"]}
    if command == "baseline":
        doc["kind"] = "vo"  # the kind of the proxies
    for key in draw(st.lists(st.sampled_from(sorted(KEY_VALUES)), max_size=4, unique=True)):
        if key in keys:
            doc[key] = draw(st.sampled_from(KEY_VALUES[key][0]))
    for key in set(required).difference(doc):  # alphas and n
        doc[key] = KEY_VALUES[key][0][0]
    fault, named = draw(st.sampled_from(CONFIG_FAULTS)), None
    if fault == "value":
        key = draw(st.sampled_from([key for key in keys if key in KEY_VALUES] or ["out"]))
        doc[key] = draw(st.sampled_from(KEY_VALUES.get(key, ([], [1, None, []]))[1]))
    elif fault == "json_value":
        doc[draw(st.sampled_from(keys))] = draw(JSON_VALUES)
    elif fault == "file":
        key = draw(st.sampled_from([key for key in keys if key in INPUTS] or ["out"]))
        doc[key] = draw(st.sampled_from(
            ["missing.jsonl", "", {"m0": INPUTS["predictions"], "m1": "missing.jsonl"}]))
    elif fault == "unread_key":
        doc[draw(st.sampled_from(UNREAD_KEYS))] = draw(JSON_VALUES)
        named = f"{command} does not read config key(s)"
    elif fault == "missing_key" and required:
        del doc[draw(st.sampled_from(required))]
        named = f"{command} config lacks required key"
    text = json.dumps(doc)
    if fault == "repeat":
        nested = [key for key, value in doc.items() if isinstance(value, dict) and value]
        outer = draw(st.sampled_from([None] + nested))
        inner = doc if outer is None else doc[outer]
        key = draw(st.sampled_from(sorted(inner)))
        value = draw(st.sampled_from([inner[key]]) | JSON_VALUES)
        repeated = f"{json.dumps(inner)[:-1]}, {json.dumps(key)}: {json.dumps(value)}}}"
        text = repeated if outer is None else json.dumps({**doc, outer: "\0"}).replace(
            json.dumps("\0"), repeated)
        named = f"{{config}}:1: key {key!r} repeats in its object"
    return command, text, named


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """One valid input file for every file key of a config."""
    where = tmp_path_factory.mktemp("inputs")
    suite = generate_suite(4, seed=6)
    labels = [{"clip_id": clip.clip_id, "question_id": q, "answer": clip.expected[q]}
              for clip in suite for q in QUESTION_ORDER]
    braking = [generate(ManeuverSpec("brake_profile", {  # so calibration is not degenerate
        "v0": 16.0, "accel": -0.3 - 0.35 * i, "t_start": 0.5, "t_end": 2.5}))[0]
        for i in range(10)]
    clips = [(clip.clip_id, clip.seq) for clip in suite] + [
        (f"brake_{i}", seq) for i, seq in enumerate(braking)]
    files = {
        "input": [row for clip_id, seq in clips for row in io.sequence_to_rows(clip_id, seq)],
        "labels": labels,
        "predictions": [{"clip_id": r["clip_id"], "question_id": r["question_id"],
                         "response": r["answer"]} for r in labels],
        "proxies": [{"clip_id": "c0", "t": i / 10.0, "m_disp": 1.0, "theta_deg": 0.5}
                    for i in range(31)],
    }
    inputs = {}
    for key, rows in files.items():
        inputs[key] = str(where / f"{key}.jsonl")
        io.write_jsonl(inputs[key], rows)
    inputs["trajectories"], inputs["truth"] = inputs["input"], inputs["labels"]
    inputs["sources"] = str(where / "sources.csv")
    (where / "sources.csv").write_text(f"clip_id,source\n{suite[0].clip_id},sim\n",
                                       encoding="utf-8")
    inputs["thresholds"] = str(where / "thresholds.json")
    io.write_json(inputs["thresholds"], {"turn_deadzone": 0.05})
    return inputs


@settings(max_examples=300, deadline=None)
@given(doc=config_documents())
@example(doc=("synth", '{"count": 100001, "out": "out"}', None))
@example(doc=("synth", '{"count": 1, "encoding": "full", "encoding_steps": 1000000000000, '
                       '"out": "out"}', None))
@example(doc=("label", '{"input": "@input", "encoding": "timeseries", '
                       '"encoding_steps": 1000000000000, "out": "out"}', None))
@example(doc=("label", '{"input": "@input", "encoding_steps": %d, "out": "out"}' % 10**400,
              None))
@example(doc=("label", '{"input": "@input", "rate_hz": 1e12, "out": "out"}', None))
@example(doc=("sweep", '{"trajectories": "@trajectories", "predictions": {"m": "@predictions"}, '
                       '"alphas": [1.0], "window_s": 1e300, "out": "out"}', None))
@example(doc=("sweep", '{"trajectories": "@trajectories", "predictions": {"m": "@predictions", '
                       '"m": "@predictions"}, "alphas": [1.0], "out": "out"}',
              "{config}:1: key 'm' repeats in its object"))
@example(doc=("synth", '{"out": "out",\n "count": %s}' % ("9" * 5001),
              "{config}:2: invalid JSON (Exceeds the limit (4300 digits) for integer string "
              "conversion: value has 5001 digits, column 11)"))
def test_config_document(tmp_path_factory, command_inputs, doc):
    command, text, named = doc
    for key, path in command_inputs.items():
        text = text.replace(json.dumps(INPUTS[key]), json.dumps(path))
    where = tmp_path_factory.mktemp("fuzz")
    config = where / "config.json"
    config.write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(where)  # relative paths, "out" and the default output folder among them
    try:
        status, message = _run(command, config)
    finally:
        os.chdir(cwd)
    _assert_outcome(command, status, message, named and named.replace("{config}", str(config)))
