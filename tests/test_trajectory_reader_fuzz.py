"""Fuzz the trajectory reader through the ``label`` command.

JSONL and CSV files mix valid pose, rate and full-state clips with
spoiled fields: absent, strings (numeric ones too), booleans, integers too
large for a float, NaN and +/-1e308 (in one row or in every row of a clip,
so that a derivation or a summary overflows), and with timestamps out of
order, spans shorter than the window, array or integer ids and rows that
are not contiguous. ``label`` builds clips by schema; it must exit 0 when
every clip passes, and otherwise exit 2 with the message of the reference
below, which builds (stages, derives and checks), then summarizes, then
labels the clips one by one, in input order. It must never raise.
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
    PoseSample,
    StateSequence,
    derive_states,
    derive_states_from_rates,
    resample_pose_log,
    resample_rate_log,
    summarize_batch,
)
from egodyn.oracle import label_batch
from egodyn.thresholds import ThresholdConfig

FIELDS = {
    "pose": ("x", "y", "heading"),
    "rate": ("v", "omega"),
    "state": ("v", "a", "j", "omega", "theta"),
}
BAD = [None, "left", "5.5", True, 10**400, math.nan, 1e308, -1e308]  # None: field absent
FAULTS = ["order", "span", "array_id", "integer_id"]


# --- one-by-one reference -------------------------------------------------


def build_alone(rows):
    """One clip's StateSequence, staged, derived and checked alone."""
    keys = set(rows[0])
    if {"t", "v", "a", "j", "omega", "theta"} <= keys:
        names = ("t", "v", "a", "j", "omega", "theta") + (("x", "y") if {"x", "y"} <= keys else ())
        return StateSequence(**{name: io._channel(rows, name) for name in names})
    if {"t", "x", "y", "heading"} <= keys:
        channels = [io._channel(rows, name) for name in ("t", "x", "y", "heading")]
        grid = resample_pose_log(*channels, 10.0, 3.0)
        return derive_states([PoseSample(*sample) for sample in zip(*grid)])
    if {"t", "v", "omega"} <= keys:
        channels = [io._channel(rows, name) for name in ("t", "v", "omega")]
        return derive_states_from_rates(*resample_rate_log(*channels, 10.0, 3.0))
    raise ConfigError(
        "trajectory rows must carry (t,x,y,heading), (t,v,omega), or the "
        f"full state chain; got fields {sorted(keys)}"
    )


def one_by_one(path):
    """label's stderr for ``path``, or None when it must succeed.

    One pass builds every clip alone in input order, so the first clip
    that fails to stage, derive or check is named whatever its schema.
    Then every clip is summarized alone in input order, and then labeled
    alone in input order.
    """
    try:
        states = {}
        for clip_id, rows in io.read_trajectory_clips(path).items():
            with io._naming(clip_id):
                states[clip_id] = build_alone(rows)
        summaries = [summarize_batch([seq], clip_ids=[clip_id])
                     for clip_id, seq in states.items()]
        for (clip_id, seq), summary in zip(states.items(), summaries):
            label_batch([seq], summary, ThresholdConfig(), [clip_id])
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
