"""File formats: JSONL records, CSV trajectories, manifests, hashing.

All record files are JSON Lines with sorted keys so reruns are
byte-identical; configuration documents are single JSON files. Rows are
decoded one line at a time by ``iter_jsonl`` with json's C scanner, so a
command can fold each row as it is decoded and hold no list of rows, and
written with one C encoder, bound at import, that writes the bytes of
``json.dumps(row, sort_keys=True, ensure_ascii=False)``; label rows are
built as that text straight from their columns (``oracle.label_lines``).
Trajectory rows may carry poses (t, x, y, heading), rates (t, v, omega),
or the full state chain (t, v, a, j, omega, theta[, x, y]); a
``clip_id`` field groups rows into clips and defaults to a single clip
when absent.

Trajectory clips are built by schema, whatever their row counts: each
channel of a schema is one float array over its clips' rows, checked
once, and all pose clips, and all rate clips, are resampled in one call
and derived and checked in one batch (see ``kinematics``). When any of
this fails, every clip is built alone, in input order, to name the first
failing clip.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import re
import sys
from contextlib import contextmanager
from io import BytesIO, TextIOWrapper
from numbers import Real
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from . import __version__
from .errors import ConfigError, EgodynError, InvalidTrajectory
from .kinematics import (
    StateSequence,
    _by_length,
    _check_states,
    derive_pose_batch,
    derive_rate_batch,
    resample_pose_log,
    resample_rate_log,
)

DEFAULT_CLIP_ID = "clip_000"

# Bound once, so that a row costs one call into the C scanner or encoder:
# ``json.loads`` adds three Python calls and two regex matches per row,
# ``raw_decode`` one call, and ``JSONEncoder.encode`` builds a C encoder
# per call. The scanner clears its memo of keys after each call. The
# encoder writes what ``json.dumps(row, sort_keys=True,
# ensure_ascii=False)`` writes; it keeps no circular-reference markers
# (rows are trees), so a row that fails to encode leaves no state behind
# for the next one.
_scan = json.scanner.c_make_scanner(json.JSONDecoder())
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.c_encode_basestring, None,
    ": ", ", ", True, False, True,
)  # markers, default, string encoder, indent, separators, sort_keys, skipkeys, allow_nan


def json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, ensure_ascii=False)``."""
    return "".join(_encode(value, 0))


def jsonl_text(records: Iterable[Mapping[str, Any]]) -> str:
    """The JSON Lines text of ``records``: each one's ``json_text`` and ``\\n``."""
    return "".join(["".join(_encode(record, 0)) + "\n" for record in records])


def write_jsonl(path: str | Path, records: Iterable[Mapping[str, Any]]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(jsonl_text(records), encoding="utf-8")


def _json_object(text: str, path: str | Path, line: int) -> dict:
    """The JSON object ``text``, which starts on ``line`` of ``path``; else
    ``ConfigError("<path>:<line>: ...")``."""
    try:
        value = json.loads(text)
    except RecursionError:
        raise ConfigError(f"{path}:{line}: invalid JSON (nested too deeply to decode)") from None
    except ValueError as exc:
        if not isinstance(exc, json.JSONDecodeError):  # an integer too long for int()
            exc = json.JSONDecodeError(str(exc).partition(";")[0], text, _long_integer(text))
        raise ConfigError(
            f"{path}:{line + exc.lineno - 1}: invalid JSON ({exc.msg}, column {exc.colno})"
        ) from None
    if not isinstance(value, dict):
        raise ConfigError(f"{path}:{line}: expected a JSON object, got {type(value).__name__}")
    return value


# One string of a JSON text, matched from the start of the text: outside its
# strings a valid JSON text holds no quote and no backslash.
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
# A string, or an integer's digits (not a fraction's or exponent's), of a JSON text.
_INTEGER = re.compile(rf"{_STRING.pattern}|(?<![\d.eE+-])-?(\d+)(?![\d.eE])")


def _long_integer(text: str) -> int:
    """The offset in the JSON ``text`` of its first integer of more digits
    than ``int()`` converts (``sys.get_int_max_str_digits()``)."""
    limit = sys.get_int_max_str_digits()
    return next((m.start() for m in _INTEGER.finditer(text) if len(m.group(1) or "") > limit), 0)


def _check_surrogates(text: str, path: str | Path, line: int) -> None:
    """Raise ``ConfigError("<path>:<line>: ...")`` when a string of the valid
    JSON text ``text``, which starts on ``line`` of ``path``, holds a lone
    UTF-16 surrogate, which no UTF-8 file can hold; only a ``\\u`` escape
    gives one."""
    for match in _STRING.finditer(text):
        if "\\u" in match.group():
            try:
                json.loads(match.group()).encode("utf-8")
            except UnicodeEncodeError as exc:
                number = line + text.count("\n", 0, match.start())
                raise ConfigError(
                    f"{path}:{number}: string holds \\u{ord(exc.object[exc.start]):04x}, "
                    "a lone UTF-16 surrogate, which is not Unicode text"
                ) from None


# A string, with the colon that makes it a key, or a bracket, matched from
# the start of a valid JSON text: outside its strings it holds no quote.
_TOKEN = re.compile(rf"({_STRING.pattern})([ \t\n\r]*:)?|[{{}}\[\]]")


def _check_keys(text: str, path: str | Path, line: int) -> None:
    """Raise ``ConfigError("<path>:<line>: ...")`` for the first key that
    repeats in its object of the valid JSON text ``text``, which starts on
    ``line`` of ``path``; keys are compared as decoded, as a dict would."""
    objects: list[set | None] = []  # the keys of each open object; None for an array
    for match in _TOKEN.finditer(text):
        string, colon = match.groups()
        if string is None:
            if match.group() in "{[":
                objects.append(set() if match.group() == "{" else None)
            else:
                objects.pop()
        elif colon:
            key = json.loads(string)
            if key in objects[-1]:
                number = line + text.count("\n", 0, match.start())
                raise ConfigError(f"{path}:{number}: key {key!r} repeats in its object")
            objects[-1].add(key)


@contextmanager
def _utf8(path: str | Path):
    """Re-raise a decode error of ``path`` as ``ConfigError("<path>:<line>:
    ...")``, naming the line of the first byte that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            line = head.count(b"\n") + 1
            raise ConfigError(
                f"{path}:{line}: not UTF-8 text "
                f"(byte 0x{data[exc.start]:02x} at offset {exc.start})"
            ) from None
        raise


# The whitespace that JSON allows around a value; ``str.strip()`` would
# also take characters such as ``\x0c``, ``\x1f`` and ``\xa0``, which
# ``json.loads`` rejects.
_JSON_SPACE = " \t\n\r"


def _text(path: str | Path, start: int, end: int | None):
    """The text of ``path``, or of its bytes from ``start`` to ``end``, as
    lines in universal newline mode."""
    if start == 0 and end is None:
        return Path(path).open("r", encoding="utf-8")
    with Path(path).open("rb") as handle:
        handle.seek(start)
        data = handle.read(-1 if end is None else end - start)
    return TextIOWrapper(BytesIO(data), encoding="utf-8")


def iter_jsonl(path: str | Path, start: int = 0, end: int | None = None) -> Iterator[dict]:
    """One JSON object per line, whose strings are Unicode text, each
    yielded as its line is decoded; a line of JSON whitespace alone is
    blank and skipped.

    A line stripped of JSON whitespace has none at either end, so the
    scanner consuming all of it accepts exactly what ``json.loads``
    accepts. Only the lines that hold a ``\\u`` escape are searched for
    lone surrogates. A fault raises ``ConfigError("<path>:<line>: ...")``
    when the stream reaches its line; closing the stream closes the file.

    With ``start`` or ``end``, only the bytes from ``start`` up to ``end``
    (the end of the file if None) are read; each must be a line start or
    the end of the file, so the rows of ``[0, s)`` and then ``[s, end)``
    are those of the whole file. A message names lines counted from
    ``start``.
    """
    with _utf8(path), _text(path, start, end) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip(_JSON_SPACE)
            if line:
                try:
                    value, stop = _scan(line, 0)
                except (ValueError, StopIteration, RecursionError):
                    # JSONDecodeError, an integer too long to convert, no value
                    # at all, or one nested too deeply
                    value, stop = None, 0
                if stop != len(line) or not isinstance(value, dict):
                    value = _json_object(line, path, number)  # raises, naming the line
                if "\\u" in line:
                    _check_surrogates(line, path, number)
                yield value


def read_jsonl(path: str | Path, start: int = 0, end: int | None = None) -> list[dict]:
    """The rows of ``iter_jsonl(path, start, end)`` as a list: every read
    fault of the file is raised before any row is used."""
    return list(iter_jsonl(path, start, end))


def _row_line(path: str | Path, index: int) -> int:
    """The line of ``path`` that holds row ``index`` of ``read_jsonl(path)``."""
    with Path(path).open("r", encoding="utf-8") as handle:
        numbers = (number for number, line in enumerate(handle, 1) if line.strip(_JSON_SPACE))
        return next(itertools.islice(numbers, index, None))


def json_kind(value) -> str:
    """What a decoded JSON value other than a string is, in words:
    ``null``, ``a boolean``, ``a number``, ``an array`` or ``an object``."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    return "an array" if isinstance(value, list) else "an object"


def _row_fault(row: Mapping[str, Any], fields: Iterable[str]) -> str | None:
    """What keeps ``row`` from being keyed: a field of ``fields`` it lacks,
    or a ``clip_id`` or ``question_id`` that is an array or an object."""
    for field in fields:
        if field not in row:
            return f"row lacks field {field!r}"
    for field in ("clip_id", "question_id"):
        if isinstance(row.get(field), (list, dict)):
            return f"field {field!r} holds {json_kind(row[field])}, not a string or a number"
    return None


@contextmanager
def keyed_rows(path: str | Path, rows: list[Mapping[str, Any]], *fields: str):
    """Re-raise a ``KeyError`` or ``TypeError`` of the block, which reads
    ``rows`` (row ``i`` of ``read_jsonl(path)`` at index ``i``), as
    ``ConfigError("<path>:<line>: ...")`` for the first row that lacks
    ``clip_id``, ``question_id`` or one of ``fields``, or whose
    ``clip_id`` or ``question_id`` cannot be a key. The rows and the file
    are searched only after a failure."""
    try:
        yield
    except (KeyError, TypeError):
        for index, row in enumerate(rows):
            fault = _row_fault(row, ("clip_id", "question_id", *fields))
            if fault:
                raise ConfigError(f"{path}:{_row_line(path, index)}: {fault}") from None
        raise


def write_json(path: str | Path, payload: Mapping[str, Any]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def read_json(path: str | Path) -> dict:
    """A single JSON object document, whose strings are Unicode text and
    whose objects, at any depth, name each key once."""
    with _utf8(path):
        text = Path(path).read_text(encoding="utf-8")
    body = text.lstrip(_JSON_SPACE)
    line = text[: len(text) - len(body)].count("\n") + 1
    value = _json_object(body, path, line)
    if "\\u" in body:
        _check_surrogates(body, path, line)
    _check_keys(body, path, line)
    return value


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _is_csv(path: str | Path) -> bool:
    return Path(path).suffix.lower() == ".csv"


def _csv_reader(path: str | Path, handle) -> csv.DictReader:
    """A ``csv.DictReader`` of ``handle``, the text of the CSV file
    ``path``, whose header has been read; a file that starts with a UTF-8
    byte order mark, which would join the first column's name, is a
    ``ConfigError``."""
    reader = csv.DictReader(handle)
    if (reader.fieldnames or [""])[0].startswith("\ufeff"):
        raise ConfigError(f"{path}:1: file starts with a UTF-8 byte order mark (U+FEFF); "
                          "write it as UTF-8 without one")
    return reader


def _read_rows(path: str | Path, start: int = 0, end: int | None = None) -> list[dict]:
    """The rows of a CSV file, or of the JSONL file's bytes from ``start``
    to ``end`` (``read_jsonl``)."""
    path = Path(path)
    if _is_csv(path):
        with _utf8(path), path.open("r", encoding="utf-8", newline="") as handle:
            rows = []
            reader = _csv_reader(path, handle)
            for row in reader:
                parsed = {}
                for key, value in row.items():
                    if key == "clip_id" or key == "source":
                        parsed[key] = value
                    elif key is None:  # csv's key for the fields past the header
                        raise ConfigError(f"{path}:{reader.line_num}: more fields than the header")
                    elif value not in (None, ""):
                        try:
                            parsed[key] = float(value)
                        except ValueError:
                            raise ConfigError(
                                f"{path}:{reader.line_num}: field {key!r} holds "
                                f"a non-numeric value {value!r}"
                            ) from None
                rows.append(parsed)
            return rows
    return read_jsonl(path, start, end)


def _clip_key(clip_id) -> str | None:
    """A trajectory row's ``clip_id`` that is not a string, as its clips are
    grouped: a JSON number as its string; None for null, a boolean, an
    array or an object, which name no clip."""
    if clip_id is None or isinstance(clip_id, (bool, list, dict)):
        return None
    return str(clip_id)


def read_trajectory_clips(
    path: str | Path, start: int = 0, end: int | None = None,
) -> dict[str, list[dict]]:
    """Group trajectory rows by clip id, in first-seen order; of a JSONL
    file, only the rows of its bytes from ``start`` to ``end`` (see
    ``read_jsonl``).

    Raises:
        ConfigError: the rows of a clip are not contiguous, or a
            ``clip_id`` is null, a boolean, an array or an object (naming
            its line).
    """
    clips: dict[str, list[dict]] = {}
    current = None
    for index, row in enumerate(_read_rows(path, start, end)):
        clip_id = row.get("clip_id", DEFAULT_CLIP_ID)
        if type(clip_id) is not str:  # one type test for a row whose id is a string
            key = _clip_key(clip_id)
            if key is None:
                raise ConfigError(f"{path}:{_row_line(path, index)}: field 'clip_id' holds "
                                  f"{json_kind(clip_id)}, not a string or a number")
            clip_id = key
        if clip_id != current:
            if clip_id in clips:
                raise ConfigError(
                    f"clip {clip_id!r}: rows are not contiguous "
                    f"(interrupted by clip {current!r})"
                )
            current = clip_id
            clips[clip_id] = []
        clips[clip_id].append(row)
    return clips


def clip_boundary(path: str | Path) -> int | None:
    """Where a JSONL trajectory file may be cut in two between clips: the
    first line start at or after its middle byte whose row's clip id
    differs from that of the row on the line before.

    None for a CSV or empty file, for one with no ``\\n`` after its middle,
    and when no such line start comes before a line that is blank or not a
    row with a clip id (``_clip_key``): the whole file is then read as one.
    """
    if _is_csv(path):
        return None
    data = Path(path).read_bytes()
    start = data.find(b"\n", max(len(data) // 2 - 1, 0)) + 1
    if start == 0:
        return None
    previous = _line_clip(data[data.rfind(b"\n", 0, start - 1) + 1:start])
    while previous is not None and start < len(data):
        end = data.find(b"\n", start) + 1 or len(data)
        clip = _line_clip(data[start:end])
        if clip != previous:
            return None if clip is None else start
        previous, start = clip, end
    return None


def line_spans(path: str | Path, count: int) -> list[tuple[int, int | None]]:
    """At most ``count`` byte ranges ``(start, end)`` that cut ``path`` at
    line starts, for ``iter_jsonl``: the k-th starts at the first line
    start at or after k / ``count`` of the file's size, and the last ends
    at the end of the file (None). A cut follows a ``\n``, which ends a
    line in universal newline mode, and is never inside a UTF-8 character;
    the rows of the ranges in order are those of the whole file."""
    with Path(path).open("rb") as handle:
        size = handle.seek(0, 2)
        starts = [0]
        for k in range(1, count):
            handle.seek(max(k * size // count - 1, 0))
            handle.readline()
            if starts[-1] < handle.tell() < size:
                starts.append(handle.tell())
    return list(zip(starts, starts[1:] + [None]))


def _line_clip(line: bytes) -> str | None:
    """The clip of the trajectory row on ``line``, grouped as
    ``read_trajectory_clips`` groups it; None if the line holds no such row."""
    try:
        row = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8 or JSON, or not one read_jsonl reads
        return None
    if not isinstance(row, dict):
        return None
    clip_id = row.get("clip_id", DEFAULT_CLIP_ID)
    return clip_id if type(clip_id) is str else _clip_key(clip_id)


_FULL_STATE_KEYS = ("t", "v", "a", "j", "omega", "theta")
_POSE_KEYS = ("t", "x", "y", "heading")
_RATE_KEYS = ("t", "v", "omega")


@contextmanager
def _naming(clip_id: str):
    """Re-raise an engine error with the id of the clip it concerns."""
    try:
        yield
    except EgodynError as exc:
        raise type(exc)(f"clip {clip_id!r}: {exc}") from exc


def _channel(rows: list[dict], name: str) -> np.ndarray:
    """One field of rows as a float array; every value a finite number,
    which a JSON string or boolean is not."""
    try:
        values = list(map(itemgetter(name), rows))
    except KeyError:
        raise ConfigError(f"a row lacks field {name!r}") from None
    array = None
    if all(kind is not bool and issubclass(kind, Real) for kind in set(map(type, values))):
        try:
            array = np.array(values, dtype=float)
        except OverflowError:  # an int beyond float
            pass
    if array is None or not np.all(np.isfinite(array)):
        raise InvalidTrajectory(f"field {name!r} holds a non-finite or non-numeric value")
    return array


def _schema(rows: list[dict]) -> tuple[str, tuple[str, ...]]:
    """The schema of a clip, read from its first row, and the fields it reads."""
    if not rows:
        raise ConfigError("clip has no rows")
    keys = set(rows[0])
    if set(_FULL_STATE_KEYS) <= keys:
        return "state", _FULL_STATE_KEYS + (("x", "y") if {"x", "y"} <= keys else ())
    if set(_POSE_KEYS) <= keys:
        return "pose", _POSE_KEYS
    if set(_RATE_KEYS) <= keys:
        return "rate", _RATE_KEYS
    raise ConfigError(
        "trajectory rows must carry (t,x,y,heading), (t,v,omega), or the "
        f"full state chain; got fields {sorted(keys)}"
    )


def _build(
    schema: str, names: tuple[str, ...], lengths: list[int], rows: list[dict],
    rate_hz: float, window_s: float,
) -> list[StateSequence]:
    """The checked StateSequences of the clips of one schema, given as their
    rows one clip after another, clip i with ``lengths[i]`` rows.

    Each channel ``names`` is one array over all the rows. Full-state clips
    are checked once per row count and cut into slices; pose and rate clips
    are resampled in one call and derived in one batch. Every check runs
    once for all the clips and fails when any clip fails it.
    """
    channels = [_channel(rows, name) for name in names]
    if schema == "pose":
        return derive_pose_batch(*resample_pose_log(*channels, rate_hz, window_s, lengths))
    if schema == "rate":
        return derive_rate_batch(*resample_rate_log(*channels, rate_hz, window_s, lengths))
    for samples in _by_length(lengths):
        _check_states(*(channel[samples] for channel in channels))
    x_y = () if len(channels) == 8 else (None, None)
    ends = list(itertools.accumulate(lengths))
    return [
        StateSequence._from_checked(*(channel[start:end] for channel in channels), *x_y)
        for start, end in zip([0, *ends], ends)
    ]


def rows_to_sequences(
    clips: Mapping[str, list[dict]],
    rate_hz: float = 10.0,
    window_s: float = 3.0,
) -> list[tuple[str, StateSequence]]:
    """Build every clip's StateSequence, whatever its schema, in input order.

    The clips of each schema are built together, whatever their row counts
    (``_build``). When any of this fails, every clip is built alone, in
    input order, to name the first that fails.

    Raises:
        EgodynError: with the clip id in its message.
    """
    # (schema, names) -> (positions, row counts, rows) of its clips
    schemas: dict[tuple, tuple[list[int], list[int], list[dict]]] = {}
    sequences: list[StateSequence | None] = [None] * len(clips)
    try:
        for position, rows in enumerate(clips.values()):
            positions, lengths, schema_rows = schemas.setdefault(_schema(rows), ([], [], []))
            positions.append(position)
            lengths.append(len(rows))
            schema_rows.extend(rows)
        for (schema, names), (positions, lengths, rows) in schemas.items():
            built = _build(schema, names, lengths, rows, rate_hz, window_s)
            for position, seq in zip(positions, built):
                sequences[position] = seq
    except EgodynError:
        for clip_id, rows in clips.items():
            with _naming(clip_id):
                _build(*_schema(rows), [len(rows)], rows, rate_hz, window_s)
        raise
    return list(zip(clips, sequences))


def rows_to_sequence(
    rows: list[dict], rate_hz: float = 10.0, window_s: float = 3.0
) -> StateSequence:
    """Build a StateSequence from one clip's rows, whatever their schema;
    a batch of one of ``rows_to_sequences``."""
    clip_id = str(rows[0].get("clip_id", DEFAULT_CLIP_ID)) if rows else DEFAULT_CLIP_ID
    return rows_to_sequences({clip_id: rows}, rate_hz, window_s)[0][1]


def sequence_to_rows(clip_id: str, seq: StateSequence) -> list[dict]:
    """One full-state row per sample, with ``x`` and ``y`` when ``seq`` has them."""
    names = _FULL_STATE_KEYS + (("x", "y") if seq.has_position() else ())
    columns = [getattr(seq, name).tolist() for name in names]
    return [{"clip_id": clip_id, **dict(zip(names, values))} for values in zip(*columns)]


def read_source_manifest(path: str | Path) -> dict[str, str]:
    """clip_id -> source mapping from a CSV with ``clip_id`` and ``source``
    columns; a missing column, a row with more or fewer fields than the
    header, or a second row for a clip is a ``ConfigError``."""
    sources = {}
    with _utf8(path), Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = _csv_reader(path, handle)
        for column in ("clip_id", "source"):
            if column not in (reader.fieldnames or ()):
                raise ConfigError(f"{path}: source manifest has no {column!r} column")
        for row in reader:
            if None in row or None in row.values():  # csv's marks of a long or short row
                more = "more" if None in row else "fewer"
                raise ConfigError(f"{path}:{reader.line_num}: {more} fields than the header")
            clip_id = row["clip_id"]
            if clip_id in sources:
                raise ConfigError(
                    f"{path}:{reader.line_num}: clip {clip_id!r} has a second source row"
                )
            sources[clip_id] = row["source"]
    return sources


def read_predictions(path: str | Path) -> list[dict]:
    """Prediction rows: clip_id, question_id, and response text.

    Rows may instead carry a pre-parsed label under ``parsed``; an
    optional ``model`` field, a string, tags multi-model files.
    """
    rows = read_jsonl(path)
    for index, row in enumerate(rows):
        if "clip_id" not in row or "question_id" not in row or (
            "response" not in row and "parsed" not in row
        ):
            fault = _row_fault(row, ("clip_id", "question_id"))
            fault = fault or "row lacks field 'response' or 'parsed'"
            raise ConfigError(f"{path}:{_row_line(path, index)}: {fault}")
        if "model" in row and not isinstance(row["model"], str):
            raise ConfigError(f"{path}:{_row_line(path, index)}: field 'model' holds "
                              f"{json_kind(row['model'])}, not a string")
    return rows


def write_manifest(
    out_dir: str | Path,
    command: str,
    config: Mapping[str, Any],
    inputs: Mapping[str, str | Path],
    outputs: Mapping[str, str | Path],
) -> Path:
    """Record config and content hashes of a run next to its outputs."""
    config_text = json.dumps(config, sort_keys=True, ensure_ascii=False)
    manifest = {
        "command": command,
        "config": json.loads(config_text),
        "config_sha256": sha256_text(config_text),
        "inputs": {
            name: {"path": str(path), "sha256": sha256_file(path)}
            for name, path in sorted(inputs.items())
        },
        "outputs": {
            name: {"path": str(path), "sha256": sha256_file(path)}
            for name, path in sorted(outputs.items())
        },
        "version": __version__,
    }
    path = Path(out_dir) / "manifest.json"
    write_json(path, manifest)
    return path
