"""Fuzz the trajectory reader through the ``label`` command.

JSONL and CSV files mix valid pose, rate and full-state clips with
spoiled fields: absent, strings (numeric ones too), booleans, integers too
large for a float, NaN and +/-1e308 (in one row or in every row of a clip,
so that a derivation or a summary overflows), and with timestamps out of
order, spans shorter than the window, array or integer ids and rows that
are not contiguous. ``label`` stages clips by schema; it must exit 0 when
every clip passes, and otherwise exit 2 with the message of the reference
below, which stages, derives and summarizes the clips one by one. It must
never raise.
"""

from __future__ import annotations

import contextlib
import csv
import math
from io import StringIO

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn import io
from egodyn.cli import main
from egodyn.errors import ConfigError, EgodynError
from egodyn.kinematics import (
    StateSequence,
    derive_pose_batch,
    derive_rate_batch,
    resample_pose_log,
    resample_rate_log,
    summarize_batch,
)

FIELDS = {
    "pose": ("x", "y", "heading"),
    "rate": ("v", "omega"),
    "state": ("v", "a", "j", "omega", "theta"),
}
BAD = [None, "left", "5.5", True, 10**400, math.nan, 1e308, -1e308]  # None: field absent
FAULTS = ["order", "span", "array_id", "integer_id"]


# --- one-by-one reference -------------------------------------------------


def stage_alone(rows):
    """One clip's schema and its states or grid channels, checked alone."""
    keys = set(rows[0])
    if {"t", "v", "a", "j", "omega", "theta"} <= keys:
        names = ("t", "v", "a", "j", "omega", "theta") + (("x", "y") if {"x", "y"} <= keys else ())
        return "state", StateSequence(**{name: io._channel(rows, name) for name in names})
    if {"t", "x", "y", "heading"} <= keys:
        channels = [io._channel(rows, name) for name in ("t", "x", "y", "heading")]
        return "pose", resample_pose_log(*channels, 10.0, 3.0)
    if {"t", "v", "omega"} <= keys:
        channels = [io._channel(rows, name) for name in ("t", "v", "omega")]
        return "rate", resample_rate_log(*channels, 10.0, 3.0)
    raise ConfigError(
        "trajectory rows must carry (t,x,y,heading), (t,v,omega), or the "
        f"full state chain; got fields {sorted(keys)}"
    )


def one_by_one(path):
    """label's stderr for ``path``, or None when it must succeed.

    Every clip is staged alone in input order, so a staging error names
    the first failing clip. Then the gridded clips of each schema, the
    schemas in order of first appearance, are derived alone in input
    order, and the derived clips are checked alone in input order. Last,
    every clip is summarized alone in input order.
    """
    try:
        gridded: dict[str, list] = {}
        states = {}
        for clip_id, rows in io.read_trajectory_clips(path).items():
            with io._naming(clip_id):
                schema, staged = stage_alone(rows)
            if schema != "state":
                gridded.setdefault(schema, []).append((clip_id, staged))
            states[clip_id] = staged
        derived = {}
        for schema, grids in gridded.items():
            derive = {"pose": derive_pose_batch, "rate": derive_rate_batch}[schema]
            for clip_id, grid in grids:
                with io._naming(clip_id):
                    derived[clip_id] = derive(*(channel[None] for channel in grid))
        for clip_id in states:
            if clip_id in derived:
                with io._naming(clip_id):
                    states[clip_id] = derived[clip_id].sequence(0)
        for clip_id, seq in states.items():
            summarize_batch([seq], clip_ids=[clip_id])
    except EgodynError as exc:
        return f"egodyn label: {exc}\n"
    return None


# --- files ----------------------------------------------------------------


@st.composite
def trajectory_rows(draw):
    rows = []
    for c in range(draw(st.integers(1, 4))):
        schema = draw(st.sampled_from(sorted(FIELDS)))
        count = draw(st.sampled_from([31, 36]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        t = draw(st.sampled_from([0.0, 7.3])) + np.arange(count) / 10.0
        clip = [{"clip_id": f"c{c}", "t": ti} for ti in t.tolist()]
        for name in FIELDS[schema]:
            values = rng.normal(0.0, 2.0, count)
            for row, value in zip(clip, (np.abs(values) if name == "v" else values).tolist()):
                row[name] = value
        fault = draw(st.sampled_from(FAULTS + [None] * 8))
        if fault == "order":
            clip[3]["t"], clip[4]["t"] = clip[4]["t"], clip[3]["t"]
        elif fault == "span":
            del clip[20:]
        elif fault == "array_id":
            clip[draw(st.integers(0, len(clip) - 1))]["clip_id"] = [f"c{c}"]
        elif fault == "integer_id":
            for row in clip:
                row["clip_id"] = c
        if draw(st.integers(0, 2)) == 0:  # spoil one field, in one row or in all of them
            name = draw(st.sampled_from(("t",) + FIELDS[schema]))
            value = draw(st.sampled_from(BAD))
            for row in clip if draw(st.booleans()) else [draw(st.sampled_from(clip))]:
                if value is None:
                    del row[name]
                else:
                    row[name] = value
        rows.extend(clip)
    if draw(st.integers(0, 5)) == 0:  # a clip's first row moved to the end of the file
        rows.append(rows.pop(0))
    return rows


def write_csv(path, rows):
    header = list(dict.fromkeys(key for row in rows for key in row))
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, header)
        writer.writeheader()
        writer.writerows(rows)


@settings(max_examples=100, deadline=None)
@given(rows=trajectory_rows(), suffix=st.sampled_from([".jsonl", ".csv"]))
def test_label_exits_0_or_2_with_the_one_by_one_message(tmp_path_factory, rows, suffix):
    where = tmp_path_factory.mktemp("fuzz")
    path = where / f"trajectories{suffix}"
    if suffix == ".csv":
        write_csv(path, rows)
    else:
        io.write_jsonl(path, rows)
    io.write_json(where / "config.json", {"input": str(path), "out": str(where / "out")})
    err = StringIO()
    with contextlib.redirect_stderr(err):
        status = main(["label", "--config", str(where / "config.json")])
    expected = one_by_one(path)
    if expected is None:
        assert status == 0, err.getvalue()
    else:
        assert (status, err.getvalue()) == (2, expected)
