from __future__ import annotations

import json

import numpy as np
import pytest

from egodyn.errors import ImplausibleSpec
from egodyn.oracle import label_all
from egodyn.questions import ANSWER_SPACES
from egodyn.synth import (
    GRID_SAMPLES,
    ManeuverSpec,
    SuiteClip,
    TEMPLATE_NAMES,
    generate,
    generate_suite,
)
from egodyn.thresholds import ThresholdConfig


class TestGenerate:
    def test_constant_speed_expectations(self):
        seq, expected = generate(ManeuverSpec("constant_speed", {"v0": 10.0}))
        assert seq.n == GRID_SAMPLES
        assert expected["turn_direction"] == "straight"
        assert expected["braking_intensity"] == "none"
        assert expected["speed_regime"] == "urban"
        assert expected["driving_smoothness"] == "smooth"
        assert expected["speed_trend"] == "steady"
        assert expected["mean_speed_low"] == "no"
        assert expected["heading_change"] == "no"
        assert expected["extreme_maneuver"] == "no"
        assert expected["motion_axis"] == "none"
        assert expected["lateral_accel"] == "no"
        assert expected["stop_and_go"] == "no"
        assert expected["brake_then_turn"] == "no"
        assert expected["speed_peak_half"] == "no_peak"
        assert expected["contrastive_halves"] == "similar"

    def test_brake_profile_expectations(self):
        spec = ManeuverSpec(
            "brake_profile",
            {"v0": 12.0, "accel": -2.0, "t_start": 1.0, "t_end": 3.0},
        )
        seq, expected = generate(spec)
        assert expected["braking_intensity"] == "emergency"
        assert expected["speed_trend"] == "decelerating"
        assert float(np.min(seq.a)) == pytest.approx(-2.0)

    def test_arc_turn_expectations(self):
        seq, expected = generate(
            ManeuverSpec("arc_turn", {"v0": 10.0, "yaw_rate": 0.25})
        )
        assert expected["turn_direction"] == "left"
        assert expected["lateral_accel"] == "yes"  # 2.5 m/s^2
        assert expected["heading_change"] == "yes"  # 0.75 rad
        assert float(seq.theta[-1]) == pytest.approx(0.75)

    def test_arc_accepts_radius(self):
        seq, expected = generate(ManeuverSpec("arc_turn", {"v0": 10.0, "radius": 40.0}))
        assert float(seq.omega[0]) == pytest.approx(0.25)
        assert expected["turn_direction"] == "left"

    def test_lane_change_returns_heading(self):
        seq, expected = generate(
            ManeuverSpec("lane_change", {"v0": 10.0, "yaw_amp": 0.3})
        )
        assert expected["turn_direction"] == "left"
        assert expected["heading_change"] == "no"
        assert float(seq.theta[-1]) == pytest.approx(0.0, abs=1e-9)

    def test_noise_is_seeded_and_post_label(self):
        spec = ManeuverSpec(
            "constant_speed", {"v0": 10.0}, seed=5, noise_std={"v": 0.05}
        )
        seq_a, expected_a = generate(spec)
        seq_b, expected_b = generate(spec)
        np.testing.assert_array_equal(seq_a.v, seq_b.v)
        assert expected_a == expected_b
        assert not np.allclose(seq_a.v, 10.0)  # noise landed on the channel


class TestPlausibility:
    def test_overspeed_rejected(self):
        with pytest.raises(ImplausibleSpec):
            generate(ManeuverSpec("constant_speed", {"v0": 50.0}))

    def test_negative_speed_rejected(self):
        with pytest.raises(ImplausibleSpec):
            generate(ManeuverSpec("constant_accel", {"v0": 1.0, "accel": -2.0}))

    def test_hard_accel_rejected(self):
        with pytest.raises(ImplausibleSpec):
            generate(
                ManeuverSpec(
                    "composite",
                    {"v0": 20.0, "segments": [{"duration": 3.0, "accel": -11.0}]},
                )
            )

    def test_yaw_bound_rejected(self):
        with pytest.raises(ImplausibleSpec):
            generate(ManeuverSpec("arc_turn", {"v0": 5.0, "yaw_rate": 1.5}))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ImplausibleSpec):
            ManeuverSpec("warp_drive", {})

    def test_segments_must_span_window(self):
        with pytest.raises(ImplausibleSpec):
            generate(
                ManeuverSpec(
                    "composite", {"v0": 5.0, "segments": [{"duration": 2.0}]}
                )
            )


def _suite_payload(suite: list[SuiteClip]) -> str:
    return json.dumps(
        [
            {
                "clip_id": clip.clip_id,
                "template": clip.template,
                "expected": clip.expected,
                "v": clip.seq.v.tolist(),
                "omega": clip.seq.omega.tolist(),
            }
            for clip in suite
        ],
        sort_keys=True,
    )


class TestSuite:
    def test_seeded_suite_is_byte_identical(self):
        assert _suite_payload(generate_suite(40, seed=3)) == _suite_payload(
            generate_suite(40, seed=3)
        )

    def test_full_class_coverage_at_100(self):
        suite = generate_suite(100, seed=3)
        seen = {q: set() for q in ANSWER_SPACES}
        for clip in suite:
            for question, answer in clip.expected.items():
                seen[question].add(answer)
        for question, space in ANSWER_SPACES.items():
            assert seen[question] == set(space), question

    def test_oracle_matches_expected_at_zero_noise(self):
        cfg = ThresholdConfig()
        for clip in generate_suite(120, seed=9):
            answers = {r.question_id: r.answer for r in label_all(clip.seq, cfg=cfg)}
            assert answers == clip.expected, (
                clip.clip_id,
                clip.template,
            )

    def test_noise_robustness(self):
        cfg = ThresholdConfig()
        noise = {"v": 0.05, "a": 0.018, "j": 0.125, "omega": 0.004, "theta": 0.0026}
        suite = generate_suite(200, seed=13, noise_std=noise)
        agree = 0
        total = 0
        for clip in suite:
            got = {r.question_id: r.answer for r in label_all(clip.seq, cfg=cfg)}
            for question in ANSWER_SPACES:
                total += 1
                agree += got[question] == clip.expected[question]
        assert agree / total >= 0.95

    def test_sequences_satisfy_invariants(self):
        for clip in generate_suite(60, seed=1):
            assert clip.seq.n == GRID_SAMPLES
            assert np.all(clip.seq.v >= 0)
            assert np.all(np.isfinite(clip.seq.v))
            assert np.max(np.abs(clip.seq.a)) <= 10.0 + 1e-9
            assert np.max(np.abs(clip.seq.omega)) <= 1.0 + 1e-9

    def test_regime_mix_weights_later_draws(self):
        mix = {"cruise_urban": 1.0}
        suite = generate_suite(len(TEMPLATE_NAMES) + 10, seed=2, regime_mix=mix)
        tail = suite[len(TEMPLATE_NAMES):]
        assert all(clip.template == "cruise_urban" for clip in tail)

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            generate_suite(5, seed=0, regime_mix={"hyperspace": 1.0})
