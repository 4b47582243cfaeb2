"""Batched derivation and summaries give every clip the floats it gets alone.

Equality is exact (``tobytes``), never ``approx``: the batch path stacks
clips into (N, n) arrays and runs each step along the last axis, which
must reproduce the per-clip floats bit for bit. The reference functions
below are the per-clip computation written out with the scalar
Savitzky-Golay reference (``savgol_reference``), ``np.gradient`` and
``np.percentile`` called on one row at a time.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRID, make_seq
from egodyn import io
from egodyn.errors import EgodynError, WindowTooLarge
from egodyn.kinematics import (
    KinematicSummary,
    PoseSample,
    StateSequence,
    _sequences,
    derive_pose_batch,
    derive_rate_batch,
    derive_states,
    derive_states_from_rates,
    resample_pose_log,
    resample_rate_log,
    smooth_savgol,
    summarize,
    summarize_batch,
    summary_rows,
)
from egodyn.synth import generate_suite
from savgol_reference import savgol_reference

CHANNELS = ("t", "v", "a", "j", "omega", "theta", "x", "y")
NOISE = {"v": 0.05, "a": 0.018, "j": 0.125, "omega": 0.004, "theta": 0.0026}


# --- per-clip reference ---------------------------------------------------


def _smooth(values):
    return savgol_reference(values, 7, 2)


def reference_pose_states(t, x, y, heading):
    dt = float(t[1] - t[0])
    grad = lambda values: np.gradient(values, dt, edge_order=2)  # noqa: E731
    x = _smooth(x)
    y = _smooth(y)
    theta = _smooth(np.unwrap(heading))
    v = np.maximum(_smooth(np.hypot(grad(x), grad(y))), 0.0)
    a = _smooth(grad(v))
    return StateSequence(t=t, v=v, a=a, j=grad(a), omega=grad(theta), theta=theta, x=x, y=y)


def reference_rate_states(t, v, omega):
    dt = float(t[1] - t[0])
    grad = lambda values: np.gradient(values, dt, edge_order=2)  # noqa: E731
    v = np.maximum(_smooth(v), 0.0)
    a = _smooth(grad(v))
    theta = np.concatenate([[0.0], np.cumsum((omega[1:] + omega[:-1]) * 0.5 * dt)])
    vx, vy = v * np.cos(theta), v * np.sin(theta)
    x = np.concatenate([[0.0], np.cumsum((vx[1:] + vx[:-1]) * 0.5 * dt)])
    y = np.concatenate([[0.0], np.cumsum((vy[1:] + vy[:-1]) * 0.5 * dt)])
    return StateSequence(t=t, v=v, a=a, j=grad(a), omega=omega, theta=theta, x=x, y=y)


def reference_summary(seq, heading_mode):
    theta_u = np.unwrap(seq.theta)
    if heading_mode == "net":
        heading_change = float(abs(theta_u[-1] - theta_u[0]))
    else:
        heading_change = float(np.sum(np.abs(np.diff(theta_u))))
    abs_jerk = np.abs(seq.j)
    pct = {
        name: {f"p{q}": float(np.percentile(values, q)) for q in (25, 50, 75)}
        for name, values in (("accel", seq.a), ("abs_jerk", abs_jerk))
    }
    return dict(
        max_speed=float(np.max(seq.v)),
        mean_speed=float(np.mean(seq.v)),
        min_accel=float(np.min(seq.a)),
        max_accel=float(np.max(seq.a)),
        mean_accel=float(np.mean(seq.a)),
        max_abs_jerk=float(np.max(abs_jerk)),
        mean_abs_jerk=float(np.mean(abs_jerk)),
        max_abs_yaw_rate=float(np.max(np.abs(seq.omega))),
        max_lat_accel=float(np.max(seq.v * np.abs(seq.omega))),
        total_heading_change=heading_change,
        percentiles=pct,
    )


# --- byte views -------------------------------------------------------------


def seq_bytes(seq):
    return [getattr(seq, name).tobytes() for name in CHANNELS]


def summary_bytes(summary):
    """The floats of a summary row (``dataclasses.asdict`` of a summary)."""
    doc = dict(summary)
    pct = doc.pop("percentiles")
    values = list(doc.values()) + [pct[k][p] for k in sorted(pct) for p in sorted(pct[k])]
    return np.array(values, dtype=float).tobytes()


def summary_shapes(n):
    """The shape of every ``summarize_batch`` column for n clips."""
    stats = [f.name for f in dataclasses.fields(KinematicSummary) if f.name != "percentiles"]
    return {**{name: (n,) for name in stats}, "accel": (n, 3), "abs_jerk": (n, 3)}


def clip_summaries_text(path, clip_ids, rows):
    io.write_jsonl(path, [{"clip_id": c, "summary": row} for c, row in zip(clip_ids, rows)])
    return path.read_bytes()


# --- inputs -----------------------------------------------------------------


def edge_value_clips():
    """Clips whose summaries hold -0.0, 5e-324 (the least subnormal) and
    1e308 (near the largest float) without overflowing."""
    spike = np.zeros(GRID.size)
    spike[3] = 1e308
    return [
        make_seq(v=0.0, a=-0.0, j=-0.0, omega=-0.0),
        make_seq(v=5e-324, a=5e-324, j=-5e-324, omega=5e-324),
        make_seq(v=spike, a=-spike, j=spike, omega=0.0),
    ]


def raw_logs(count, seed, noise):
    """Pose and rate logs from a synth suite, each clip at its own start time.

    Start times differ, so the resampled grids ``t0 + arange(n) / rate``
    differ in the last ulp of their spacing from clip to clip; headings
    are turned by a different angle per clip, so they cover the circle.
    """
    suite = generate_suite(count, seed=seed, noise_std=NOISE if noise else None)
    poses, rates = [], []
    for k, clip in enumerate(suite):
        seq = clip.seq
        t = 13.7 + 0.37 * k + seq.t
        heading = np.pi - np.mod(np.pi - (seq.theta + 1.3 * k), 2.0 * np.pi)
        poses.append((t, seq.x, seq.y, heading))
        rates.append((t, seq.v, seq.omega))
    return poses, rates


def stack(grids):
    return [np.array(column) for column in zip(*grids)]


def pose_grids(poses):
    return [resample_pose_log(*log, 10.0, 3.0) for log in poses]


def rate_grids(rates):
    return [resample_rate_log(*log, 10.0, 3.0) for log in rates]


def distinct_spacings(grids):
    return {float(grid[0][1] - grid[0][0]) for grid in grids}


@pytest.mark.parametrize("noise", [False, True], ids=["clean", "noisy"])
class TestDerivationBatch:
    def test_pose_batch_equals_batches_of_one_and_reference(self, noise):
        poses, _ = raw_logs(44, seed=21, noise=noise)
        grids = pose_grids(poses)
        assert len(distinct_spacings(grids)) > 1
        batch = derive_pose_batch(*stack(grids))
        for i, grid in enumerate(grids):
            alone = derive_pose_batch(*(c[None] for c in grid))[0]
            samples = [PoseSample(*row) for row in zip(*(c.tolist() for c in grid))]
            expected = seq_bytes(reference_pose_states(*grid))
            assert seq_bytes(batch[i]) == seq_bytes(alone) == expected
            assert seq_bytes(derive_states(samples)) == expected

    def test_rate_batch_equals_batches_of_one_and_reference(self, noise):
        _, rates = raw_logs(44, seed=22, noise=noise)
        grids = rate_grids(rates)
        assert len(distinct_spacings(grids)) > 1
        batch = derive_rate_batch(*stack(grids))
        for i, grid in enumerate(grids):
            alone = derive_rate_batch(*(c[None] for c in grid))[0]
            expected = seq_bytes(reference_rate_states(*grid))
            assert seq_bytes(batch[i]) == seq_bytes(alone) == expected
            assert seq_bytes(derive_states_from_rates(*grid)) == expected

    @pytest.mark.parametrize("mode", ["net", "sum"])
    def test_summary_batch_equals_batches_of_one_and_reference(self, tmp_path, noise, mode):
        """Columns, their rows and the rows' JSON Lines bytes equal those of
        every clip alone and of the reference, over mixed sample counts,
        extreme values and numeric clip ids; and for no clips."""
        poses, rates = raw_logs(30, seed=23, noise=noise)
        seqs = [c.seq for c in generate_suite(30, seed=24, noise_std=NOISE if noise else None)]
        pose_batch = derive_pose_batch(*stack(pose_grids(poses)))
        rate_batch = derive_rate_batch(*stack(rate_grids(rates)))
        seqs += pose_batch + rate_batch
        # two more sample counts, interleaved with the 31-sample clips
        seqs.insert(5, derive_states_from_rates(*resample_rate_log(*rates[0], 10.0, 2.5)))
        seqs.insert(50, derive_states_from_rates(*resample_rate_log(*rates[1], 5.0, 3.0)))
        seqs[7:7] = edge_value_clips()
        clip_ids = [k if k % 2 else k / 4 for k in range(len(seqs))]  # numeric ids
        columns = summarize_batch(seqs, mode, clip_ids)
        assert {key: column.shape for key, column in columns.items()} == summary_shapes(len(seqs))
        rows = summary_rows(columns)
        assert len(rows) == len(seqs)
        alone = [dataclasses.asdict(summarize(seq, mode)) for seq in seqs]
        for seq, row, one in zip(seqs, rows, alone):
            assert row == one
            assert summary_bytes(row) == summary_bytes(one) == summary_bytes(
                reference_summary(seq, mode))
        # the clip_summaries.jsonl text of the rows is that of the clips alone
        text = clip_summaries_text(tmp_path / "batch.jsonl", clip_ids, rows)
        assert text == clip_summaries_text(tmp_path / "alone.jsonl", clip_ids, alone)
        assert text == "".join(
            json.dumps({"clip_id": clip_id, "summary": one}, sort_keys=True, ensure_ascii=False)
            + "\n" for clip_id, one in zip(clip_ids, alone)).encode("utf-8")
        assert all(token in text for token in (b"-0.0", b"5e-324", b"1e+308"))
        # no clips: every column, with no rows
        columns = summarize_batch([], mode, [])
        assert {key: column.shape for key, column in columns.items()} == summary_shapes(0)
        assert summary_rows(columns) == []


@pytest.mark.parametrize(
    "fault", ["x_nan", "j_inf", "negative_v", "grid", "grid_beside_an_epoch_row", "one_sample"])
def test_sequences_check_the_batch_as_sequence_checks_a_row(fault):
    """Channels whose row 1 fails a StateSequence check: ``_sequences``
    of the batch raises what ``StateSequence`` of row 1 raises."""
    t = np.tile(np.arange(31) / 10.0, (3, 1))
    channels = {name: np.zeros((3, 31)) for name in ("v", "a", "j", "omega", "theta", "x", "y")}
    if fault == "x_nan":
        channels["x"][1, 4] = np.nan
    elif fault == "j_inf":
        channels["j"][1, 30] = np.inf
    elif fault == "negative_v":
        channels["v"][1, 0] = -1e-300
    elif fault == "grid":
        t[1, 7] += 1e-6
    elif fault == "grid_beside_an_epoch_row":  # row 0 may deviate by 9.5e-7 s, row 1 may not
        t[0] += 1.7e9
        t[1, 7] += 5e-7
    else:
        t, channels = t[:, :1], {name: c[:, :1] for name, c in channels.items()}
    batch = [t] + [channels[name] for name in CHANNELS[1:]]
    with pytest.raises(EgodynError) as alone:
        StateSequence(*(channel[1] for channel in batch))
    with pytest.raises(type(alone.value)) as together:
        _sequences(*batch)
    assert str(together.value) == str(alone.value)


def _mixed_clips(poses, rates, suite):
    """clip id -> rows, cycling pose, rate and full-state clips."""
    clips = {}
    for k, ((t, x, y, h), (_, v, w), clip) in enumerate(zip(poses, rates, suite)):
        kind = k % 3
        if kind == 0:
            rows = [{"t": a, "x": b, "y": c, "heading": d} for a, b, c, d in zip(t, x, y, h)]
        elif kind == 1:
            rows = [{"t": a, "v": b, "omega": c} for a, b, c in zip(t, v, w)]
        else:
            rows = io.sequence_to_rows(clip.clip_id, clip.seq)
        clips[f"clip_{k:03d}"] = [{**row, "clip_id": f"clip_{k:03d}"} for row in rows]
    return clips


@pytest.mark.parametrize("noise", [False, True], ids=["clean", "noisy"])
def test_mixed_schema_file_equals_clip_by_clip(tmp_path, noise):
    poses, rates = raw_logs(36, seed=25, noise=noise)
    suite = generate_suite(36, seed=26, noise_std=NOISE if noise else None)
    path = tmp_path / "mixed.jsonl"
    io.write_jsonl(path, [row for rows in _mixed_clips(poses, rates, suite).values() for row in rows])
    clips = io.read_trajectory_clips(path)
    batch = io.rows_to_sequences(clips)
    assert [clip_id for clip_id, _ in batch] == list(clips)
    for (clip_id, seq), rows in zip(batch, clips.values()):
        assert seq_bytes(seq) == seq_bytes(io.rows_to_sequence(rows)), clip_id


@st.composite
def raw_clip(draw):
    """One raw log: irregular timestamps covering >= 3 s from any start."""
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(4, 40))
    start = draw(st.one_of(st.floats(0.0, 5e4), st.sampled_from([0.1, 0.3, 1.7, 1e4 / 3])))
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.2, 1.0, count - 1)
    t = start + np.concatenate([[0.0], np.cumsum(steps)]) * (3.0 + rng.uniform(0, 1)) / steps.sum()
    values = rng.normal(0.0, 1.0, (4, count)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    return t, values


def _rows(clip_id, **channels):
    names = list(channels)
    return [
        {"clip_id": clip_id, **dict(zip(names, values))}
        for values in zip(*(np.asarray(channels[n]).tolist() for n in names))
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(raw_clip(), st.sampled_from(["pose", "rate", "state"])),
             min_size=1, max_size=6),
    st.sampled_from(["net", "sum"]),
)
def test_hypothesis_mixed_clips_equal_clip_by_clip(logs, mode):
    clips, expected = {}, []
    for k, ((t, (x, y, heading, omega)), schema) in enumerate(logs):
        clip_id = f"clip_{k}"
        v = np.abs(x)
        if schema == "pose":
            reference = reference_pose_states(*resample_pose_log(t, x, y, heading, 10.0, 3.0))
            clips[clip_id] = _rows(clip_id, t=t, x=x, y=y, heading=heading)
        elif schema == "rate":
            reference = reference_rate_states(*resample_rate_log(t, v, omega, 10.0, 3.0))
            clips[clip_id] = _rows(clip_id, t=t, v=v, omega=omega)
        else:
            reference = reference_rate_states(*resample_rate_log(t, v, omega, 10.0, 3.0))
            clips[clip_id] = io.sequence_to_rows(clip_id, reference)
        expected.append(seq_bytes(reference))
    batch = io.rows_to_sequences(clips)
    for (_, seq), rows, reference in zip(batch, clips.values(), expected):
        assert seq_bytes(seq) == seq_bytes(io.rows_to_sequence(rows)) == reference
    seqs = [seq for _, seq in batch]
    for seq, summary in zip(seqs, summary_rows(summarize_batch(seqs, mode))):
        assert summary_bytes(summary) == summary_bytes(reference_summary(seq, mode))


def test_one_ulp_spacing_difference_keeps_each_clip_exact():
    base = 0.1
    starts = [base, np.nextafter(base, 1.0), np.nextafter(base, 0.0), 1e4 / 3]
    rng = np.random.default_rng(5)
    grids = [resample_rate_log(s + np.arange(31) / 10.0, 5.0 + rng.normal(0, 1, 31),
                               rng.normal(0, 0.1, 31), 10.0, 3.0) for s in starts]
    assert len(distinct_spacings(grids)) > 1
    batch = derive_rate_batch(*stack(grids))
    for i, grid in enumerate(grids):
        assert seq_bytes(batch[i]) == seq_bytes(reference_rate_states(*grid))


def test_smooth_savgol_window_checks_the_sample_axis():
    with pytest.raises(WindowTooLarge):
        smooth_savgol(np.zeros((4, 5)), 7, 2)
    assert smooth_savgol(np.zeros((3, 31)), 7, 2).shape == (3, 31)
