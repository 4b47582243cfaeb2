from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import make_seq
from egodyn.encodings import encode_trajectory
from egodyn.errors import MissingChannels
from egodyn.kinematics import summarize
from egodyn.synth import ManeuverSpec, generate


def summary_of(seq):
    """The clip's summary as the mapping ``encode_trajectory`` reads."""
    return dataclasses.asdict(summarize(seq))


def seq_with_positions(v0=8.2):
    seq, _ = generate(ManeuverSpec("constant_speed", {"v0": v0}))
    return seq


class TestSummaryEncoding:
    def test_zero_motion_renders_zeroes(self):
        seq = make_seq()
        text = encode_trajectory(seq, summary_of(seq), "summary")
        assert text.startswith("Vehicle dynamics: ")
        assert "max_speed = 0.0 m/s (0km/h)" in text
        assert "mean_speed = 0.0 m/s" in text
        assert "min_accel = 0.00 m/s²" in text
        assert "max_yaw_rate = 0.000 rad/s" in text
        assert "max_jerk = 0.00 m/s³" in text
        assert "mean_jerk = 0.00 m/s³" in text
        assert "max_lat_accel = 0.00 m/s²" in text
        assert "heading_change = 0.000 rad" in text
        assert "-0.0" not in text

    def test_kmh_is_rounded_integer(self):
        seq = make_seq(v=8.2)
        text = encode_trajectory(seq, summary_of(seq), "summary")
        assert "max_speed = 8.2 m/s (30km/h)" in text


class TestCoordinateEncoding:
    def test_first_waypoint_zero_centered(self):
        seq = seq_with_positions()
        text = encode_trajectory(seq, summary_of(seq), "coordinates")
        x_row = next(line for line in text.splitlines() if line.startswith("x(m):"))
        y_row = next(line for line in text.splitlines() if line.startswith("y(m):"))
        assert x_row.split(":")[1].strip().split(",")[0].strip() == "0.0"
        assert y_row.split(":")[1].strip().split(",")[0].strip() == "0.0"

    def test_missing_positions_raise(self):
        seq = make_seq(v=5.0)  # no x/y channels
        with pytest.raises(MissingChannels):
            encode_trajectory(seq, summary_of(seq), "coordinates")


class TestTimeseriesEncoding:
    def test_rows_and_steps(self):
        seq = seq_with_positions()
        text = encode_trajectory(seq, summary_of(seq), "timeseries", n_steps=10)
        lines = text.splitlines()
        assert lines[0] == "Vehicle dynamics (10 time-steps over 3.0s):"
        assert lines[1].startswith("t(s): 0.00, 0.33, 0.67, 1.00")
        for prefix in ("speed (m/s):", "accel (m/s²):", "yaw_rate (rad/s):",
                       "jerk (m/s³):"):
            assert any(line.startswith(prefix) for line in lines)
        assert all(len(line.split(": ")[1].split(", ")) == 10 for line in lines[1:])


class TestFullEncoding:
    def test_full_is_both_blocks_on_shared_rows(self):
        seq = seq_with_positions()
        summary = summary_of(seq)
        full = encode_trajectory(seq, summary, "full", n_steps=10)
        ts = encode_trajectory(seq, summary, "timeseries", n_steps=10)
        coords = encode_trajectory(seq, summary, "coordinates", n_steps=10)
        assert full == ts + "\n\n" + coords
        t_rows = [line for line in full.splitlines() if line.startswith("t(s):")]
        assert len(t_rows) == 2
        assert t_rows[0] == t_rows[1]


class TestValidation:
    def test_unknown_mode(self):
        seq = make_seq()
        with pytest.raises(ValueError):
            encode_trajectory(seq, summary_of(seq), "hologram")

    def test_min_steps(self):
        seq = make_seq()
        with pytest.raises(ValueError):
            encode_trajectory(seq, summary_of(seq), "timeseries", n_steps=1)
