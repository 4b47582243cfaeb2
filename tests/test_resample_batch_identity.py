"""Batched resampling gives every log the bytes it gets alone from np.interp.

``resample_pose_log`` and ``resample_rate_log`` take G logs of any
sample counts laid end to end, with their ``lengths``, and check, grid
and interpolate all of them at once. The reference below is the per-log
computation written out with the grid formula, ``np.unwrap`` and
``np.interp`` on one log at a time; equality is exact (``tobytes``).
The logs cover uneven spacing, logs denser (50 Hz, 151 samples) and
sparser than the 10 Hz grid, grid points equal to input timestamps, a
grid end past the last timestamp but within the span tolerance,
timestamps near the Unix epoch (1.7e9 s), and batches whose logs share
a sample count or not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn import io
from egodyn.kinematics import (
    derive_pose_batch,
    derive_rate_batch,
    resample_pose_log,
    resample_rate_log,
)

RATE_HZ, WINDOW_S = 10.0, 3.0
CHANNELS = ("t", "v", "a", "j", "omega", "theta", "x", "y")


# --- per-log reference ----------------------------------------------------


def reference_grid(t):
    return t[0] + np.arange(int(round(WINDOW_S * RATE_HZ)) + 1) / RATE_HZ


def reference_pose(t, x, y, heading):
    grid = reference_grid(t)
    wrapped = np.pi - np.mod(np.pi - np.interp(grid, t, np.unwrap(heading)), 2.0 * np.pi)
    return grid, np.interp(grid, t, x), np.interp(grid, t, y), wrapped


def reference_rate(t, v, omega):
    grid = reference_grid(t)
    return grid, np.interp(grid, t, v), np.interp(grid, t, omega)


def as_bytes(channels):
    return [np.asarray(c).tobytes() for c in channels]


# --- logs -----------------------------------------------------------------

KINDS = ("uneven", "short_end", "aligned", "dense")


def timestamps(kind, t0, count, rng):
    """``count`` strictly increasing timestamps from ``t0`` covering the window."""
    if kind == "dense":  # 50 Hz
        return t0 + np.arange(count) / 50.0
    if kind == "aligned":  # every grid point, and random points between them
        while True:
            extra = t0 + rng.uniform(0.0, WINDOW_S, count - 31)
            t = np.unique(np.concatenate([reference_grid(np.array([t0])), extra]))
            if t.size == count:
                return t
    steps = rng.uniform(0.2, 1.0, count - 1)
    span = WINDOW_S + (rng.uniform(0.0, 1.0) if kind == "uneven" else 0.0)
    t = t0 + np.concatenate([[0.0], np.cumsum(steps)]) * span / steps.sum()
    if kind == "short_end":  # 1 to 3 ulps short of the grid end: within the tolerance
        t[-1] = t0 + WINDOW_S
        for _ in range(rng.integers(1, 4)):
            t[-1] = np.nextafter(t[-1], -np.inf)
    return t


def kinds_for(count):
    return [k for k in KINDS if (k != "aligned" or count >= 31) and (k != "dense" or count == 151)]


starts = st.one_of(st.floats(0.0, 5e4), st.sampled_from([0.0, 13.7, 1.7e9, 1.7e9 + 0.123]))
counts = st.sampled_from([4, 17, 31, 40, 151])


@st.composite
def log_batch(draw):
    """G logs, each its own sample count, start and kind: a list of
    timestamp arrays and a list of (4, n) value arrays."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = draw(st.one_of(st.none(), counts))  # one count for every log, or each its own
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    ts, values = [], []
    for _ in range(draw(st.integers(1, 6))):
        count = shared or draw(counts)
        ts.append(timestamps(draw(st.sampled_from(kinds_for(count))), draw(starts), count, rng))
        values.append(rng.normal(0.0, 1.0, (4, count)) * scale * [[1.0], [1.0], [3.0], [1.0]])
    return ts, values  # heading (row 2) steps that cross +/-pi


def end_to_end(ts, values):
    """The logs laid end to end: t, the four value channels and the lengths."""
    return np.concatenate(ts), np.concatenate(values, axis=1), [t.size for t in ts]


@settings(max_examples=150, deadline=None)
@given(log_batch())
def test_pose_batch_equals_np_interp_per_log(batch):
    ts, values = batch
    t, (x, y, heading, _), lengths = end_to_end(ts, values)
    resampled = resample_pose_log(t, x, y, heading, RATE_HZ, WINDOW_S, lengths)
    assert all(c.shape == (len(ts), 31) for c in resampled)
    for i, (ti, (xi, yi, hi, _)) in enumerate(zip(ts, values)):
        expected = as_bytes(reference_pose(ti, xi, yi, hi))
        assert as_bytes(c[i] for c in resampled) == expected, i
        assert as_bytes(resample_pose_log(ti, xi, yi, hi, RATE_HZ, WINDOW_S)) == expected, i


@settings(max_examples=150, deadline=None)
@given(log_batch())
def test_rate_batch_equals_np_interp_per_log(batch):
    ts, values = batch
    t, (v, omega, _, _), lengths = end_to_end(ts, values)
    resampled = resample_rate_log(t, v, omega, RATE_HZ, WINDOW_S, lengths)
    for i, (ti, (vi, oi, _, _)) in enumerate(zip(ts, values)):
        expected = as_bytes(reference_rate(ti, vi, oi))
        assert as_bytes(c[i] for c in resampled) == expected, i
        assert as_bytes(resample_rate_log(ti, vi, oi, RATE_HZ, WINDOW_S)) == expected, i


def test_lengths_must_cover_the_samples():
    t = np.arange(62) / 10.0
    for lengths in ([31], [31, 30], []):
        with pytest.raises(ValueError, match="lengths"):
            resample_rate_log(t, t, t, RATE_HZ, WINDOW_S, lengths)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(counts, st.sampled_from(["pose", "rate", "state"]), starts,
                          st.integers(0, 2**32 - 1)), min_size=1, max_size=8))
def test_mixed_row_counts_in_one_call_equal_each_log_alone(logs):
    """Clips of several row counts and all three schemas, staged in one
    call, get the states of their reference grid derived alone, or, for
    full-state clips, their own channels."""
    clips, expected = {}, []
    for k, (count, schema, t0, seed) in enumerate(logs):
        rng = np.random.default_rng(seed)
        if schema == "state":
            channels = dict(zip(CHANNELS, rng.normal(0.0, 1.0, (8, count))))
            channels["t"] = t0 + np.arange(count) / RATE_HZ
            channels["v"] = np.abs(channels["v"])
            if k % 2:  # with and without positions
                del channels["x"], channels["y"]
            clips[f"c{k}"] = [{"clip_id": f"c{k}", **dict(zip(channels, row))}
                              for row in zip(*(c.tolist() for c in channels.values()))]
            expected.append(as_bytes(channels.get(name, np.array([])) for name in CHANNELS))
            continue
        t = timestamps(rng.choice(kinds_for(count)), t0, count, rng)
        a, b, c = rng.normal(0.0, 1.0, (3, count))
        if schema == "pose":
            names, grid, derive = ("x", "y", "heading"), reference_pose(t, a, b, c), derive_pose_batch
        else:
            a = np.abs(a)
            names, grid, derive = ("v", "omega"), reference_rate(t, a, b), derive_rate_batch
        clips[f"c{k}"] = [{"clip_id": f"c{k}", "t": ti, **dict(zip(names, values))}
                          for ti, *values in zip(t.tolist(), a.tolist(), b.tolist(), c.tolist())]
        seq = derive(*(channel[None] for channel in grid))[0]
        expected.append(as_bytes(getattr(seq, name) for name in CHANNELS))
    staged = io.rows_to_sequences(clips, RATE_HZ, WINDOW_S)
    assert [clip_id for clip_id, _ in staged] == list(clips)
    for (clip_id, seq), reference in zip(staged, expected):
        channels = (getattr(seq, name) for name in CHANNELS)
        got = (np.array([]) if channel is None else channel for channel in channels)
        assert as_bytes(got) == reference, clip_id
