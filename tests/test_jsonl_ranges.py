"""``io.read_jsonl`` over a byte range, and where ``io.clip_boundary`` cuts
a trajectory file.

For every line start ``s`` of a JSONL file, the rows of bytes ``[0, s)``
followed by those of ``[s, end)`` are the rows of the whole file, whatever
its line ends (``\\n``, ``\\r\\n``, a lone ``\\r``), blank or whitespace-only
lines, non-ASCII strings or a missing final newline. ``clip_boundary``
returns such a line start after the middle byte, at a change of clip, or
None when the file has no ``\\n`` after its middle.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn import io

# Text a UTF-8 file can hold: no lone surrogates.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_ROW = st.fixed_dictionaries(
    {"clip_id": _TEXT | st.integers(-5, 5), "t": st.floats(allow_nan=False)},
    optional={"note": _TEXT},
)
_LINE = st.one_of(_ROW.map(io.json_text), st.sampled_from(["", " ", "\t", " \t  "]))
_FILE = st.tuples(
    st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12),
    st.one_of(st.just(""), _LINE),  # a last line without a line end
)


def _write(tmp_path, lines) -> tuple:
    body, last = lines
    data = ("".join(line + end for line, end in body) + last).encode("utf-8")
    path = tmp_path / "rows.jsonl"
    path.write_bytes(data)
    return path, data


def _line_starts(data: bytes) -> list[int]:
    """0 and every offset just past a ``\\n``, or past a ``\\r`` that no
    ``\\n`` follows."""
    return [0] + [
        i + 1 for i, byte in enumerate(data)
        if byte == 0x0A or (byte == 0x0D and data[i + 1:i + 2] != b"\n")
    ]


@settings(max_examples=150, deadline=None)
@given(lines=_FILE)
def test_two_ranges_read_the_whole_file(tmp_path_factory, lines):
    path, data = _write(tmp_path_factory.mktemp("ranges"), lines)
    whole = io.read_jsonl(path)
    for start in _line_starts(data):
        assert io.read_jsonl(path, 0, start) + io.read_jsonl(path, start) == whole, start
        assert io.read_jsonl(path, start, len(data)) == io.read_jsonl(path, start)


@settings(max_examples=150, deadline=None)
@given(lines=_FILE)
def test_clip_boundary_is_a_change_of_clip_after_the_middle(tmp_path_factory, lines):
    path, data = _write(tmp_path_factory.mktemp("boundary"), lines)
    split = io.clip_boundary(path)
    if b"\n" not in data[max(len(data) // 2 - 1, 0):]:
        assert split is None
    if split is None:
        return
    assert split >= len(data) // 2 and data[split - 1:split] == b"\n"
    first, second = io.read_jsonl(path, 0, split), io.read_jsonl(path, split)
    assert first + second == io.read_jsonl(path)
    before = data[data.rfind(b"\n", 0, split - 1) + 1:split]
    after = data[split:].split(b"\n", 1)[0]
    assert json.loads(before) == first[-1] and json.loads(after) == second[0]
    assert str(first[-1]["clip_id"]) != str(second[0]["clip_id"])


def _pose_rows(clip_id):
    return [{"clip_id": clip_id, "t": i / 10.0, "x": float(i), "y": 0.0, "heading": 0.0}
            for i in range(31)]


@pytest.mark.parametrize(
    "name,text",
    [("empty.jsonl", ""),
     ("one_clip.jsonl", "".join(io.json_text(r) + "\n" for r in _pose_rows("a"))),
     ("no_ids.jsonl", "".join(io.json_text({**r, "clip_id": 1}) + "\n" for r in _pose_rows("a"))),
     ("lone_cr.jsonl", "".join(io.json_text(r) + "\r" for r in _pose_rows("a") + _pose_rows("b"))),
     ("rows.csv", "clip_id,t\n" + "".join(f"{c},{i}\n" for c in "ab" for i in range(31)))],
)
def test_files_without_a_boundary_are_not_cut(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    assert io.clip_boundary(path) is None


def test_a_number_id_is_the_clip_of_its_string(tmp_path):
    """``7`` and ``"7"`` are one clip, as ``read_trajectory_clips`` groups
    them, so no cut falls between them; the first ``"8"`` row starts the cut."""
    rows = [{**row, "clip_id": 7} for row in _pose_rows("a")]
    rows += _pose_rows("7") + _pose_rows("8")
    path = tmp_path / "rows.jsonl"
    io.write_jsonl(path, rows)
    data = path.read_bytes()
    assert io.clip_boundary(path) == data.index(b'"clip_id": "8"') - 1
