"""Prompt-text serializers for trajectory context.

Four modes: ``summary`` renders 8 clip-level scalars, ``timeseries``
renders the dynamic channels at N evenly spaced timesteps, ``coordinates``
renders zero-centered waypoints with heading, and ``full`` concatenates
the timeseries and coordinates blocks over identical timestep rows.

Numeric formatting follows the channel, not the block: speeds one
decimal, accelerations and jerk two, yaw rates and headings three. The
km/h figure next to max speed is rounded to the nearest integer.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingChannels
from .kinematics import StateSequence

ENCODING_MODES = ("summary", "timeseries", "coordinates", "full")


def _fmt(value: float, decimals: int) -> str:
    text = f"{value:.{decimals}f}"
    if float(text) == 0.0:
        text = text.lstrip("-")  # never render negative zero
    return text


def _row(values, decimals: int) -> str:
    return ", ".join(_fmt(float(v), decimals) for v in values)


def _summary_block(summary: dict[str, float]) -> str:
    kmh = round(summary["max_speed"] * 3.6)
    fields = [
        f"max_speed = {_fmt(summary['max_speed'], 1)} m/s ({kmh}km/h)",
        f"mean_speed = {_fmt(summary['mean_speed'], 1)} m/s",
        f"min_accel = {_fmt(summary['min_accel'], 2)} m/s²",
        f"max_yaw_rate = {_fmt(summary['max_abs_yaw_rate'], 3)} rad/s",
        f"max_jerk = {_fmt(summary['max_abs_jerk'], 2)} m/s³",
        f"mean_jerk = {_fmt(summary['mean_abs_jerk'], 2)} m/s³",
        f"max_lat_accel = {_fmt(summary['max_lat_accel'], 2)} m/s²",
        f"heading_change = {_fmt(summary['total_heading_change'], 3)} rad",
    ]
    return "Vehicle dynamics: " + ", ".join(fields) + "."


def _sample_times(seq: StateSequence, n_steps: int) -> np.ndarray:
    return np.linspace(seq.t[0], seq.t[-1], n_steps)


def _timeseries_block(seq: StateSequence, n_steps: int) -> str:
    ts = _sample_times(seq, n_steps)
    rel = ts - ts[0]
    lines = [
        f"Vehicle dynamics ({n_steps} time-steps over {seq.duration:.1f}s):",
        "t(s): " + _row(rel, 2),
        "speed (m/s): " + _row(np.interp(ts, seq.t, seq.v), 1),
        "accel (m/s²): " + _row(np.interp(ts, seq.t, seq.a), 2),
        "yaw_rate (rad/s): " + _row(np.interp(ts, seq.t, seq.omega), 3),
        "jerk (m/s³): " + _row(np.interp(ts, seq.t, seq.j), 2),
    ]
    return "\n".join(lines)


def _coordinates_block(seq: StateSequence, n_steps: int) -> str:
    if not seq.has_position():
        raise MissingChannels("coordinates encoding needs x and y channels")
    ts = _sample_times(seq, n_steps)
    rel = ts - ts[0]
    x = np.interp(ts, seq.t, seq.x)
    y = np.interp(ts, seq.t, seq.y)
    lines = [
        f"Vehicle trajectory ({n_steps} waypoints over {seq.duration:.1f}s, metres):",
        "t(s): " + _row(rel, 2),
        "x(m): " + _row(x - x[0], 1),
        "y(m): " + _row(y - y[0], 1),
        "heading (rad): " + _row(np.interp(ts, seq.t, seq.theta), 3),
    ]
    return "\n".join(lines)


def encode_trajectory(
    seq: StateSequence,
    summary: dict[str, float],
    mode: str,
    n_steps: int = 10,
) -> str:
    """Render one clip's trajectory context in the requested mode; ``summary``
    is the clip's row of ``kinematics.summary_rows``."""
    if mode not in ENCODING_MODES:
        raise ValueError(f"unknown encoding mode {mode!r}")
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    if mode == "summary":
        return _summary_block(summary)
    if mode == "timeseries":
        return _timeseries_block(seq, n_steps)
    if mode == "coordinates":
        return _coordinates_block(seq, n_steps)
    return _timeseries_block(seq, n_steps) + "\n\n" + _coordinates_block(seq, n_steps)
