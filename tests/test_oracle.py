from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import make_seq, random_seq
from egodyn import oracle
from egodyn.errors import ConfigError
from egodyn.kinematics import summarize, summarize_batch
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER
from egodyn.thresholds import ThresholdConfig, calibrate_thresholds


def label(question, seq, cfg):
    return {r.question_id: r.answer for r in oracle.label_all(seq, summarize(seq), cfg)}[question]


class TestTurnDirection:
    def test_left_just_past_deadzone(self, cfg):
        assert label("turn_direction", make_seq(omega=0.05), cfg) == "left"

    def test_zero_yaw_is_straight(self, cfg):
        assert label("turn_direction", make_seq(), cfg) == "straight"

    def test_right(self, cfg):
        assert label("turn_direction", make_seq(omega=-0.10), cfg) == "right"

    def test_sign_comes_from_peak_sample(self, cfg):
        omega = np.full(31, 0.03)
        omega[20] = -0.2  # largest magnitude is negative
        assert label("turn_direction", make_seq(omega=omega), cfg) == "right"


class TestBrakingIntensity:
    @pytest.mark.parametrize(
        "min_a,expected",
        [(-2.0, "emergency"), (-1.0, "moderate"), (0.1, "none"), (-0.5, "low"),
         (-1.59, "moderate"), (-0.18, "none")],
    )
    def test_buckets(self, cfg, min_a, expected):
        a = np.zeros(31)
        a[15] = min_a
        assert label("braking_intensity", make_seq(a=a), cfg) == expected


class TestSpeedRegime:
    @pytest.mark.parametrize(
        "max_v,expected",
        [(0.3, "stopped"), (14.0, "highway"), (0.0, "stopped"), (3.0, "slow"),
         (13.0, "urban"), (13.9, "highway"), (0.5, "slow")],
    )
    def test_buckets(self, cfg, max_v, expected):
        assert label("speed_regime", make_seq(v=max_v), cfg) == expected


class TestSmoothness:
    @pytest.mark.parametrize(
        "jerk,expected",
        [(1.0, "smooth"), (1.5, "moderate"), (0.0, "smooth"), (1.25, "smooth"),
         (2.15, "moderate"), (3.0, "aggressive")],
    )
    def test_buckets(self, cfg, jerk, expected):
        assert label("driving_smoothness", make_seq(j=jerk), cfg) == expected


class TestSpeedTrend:
    @pytest.mark.parametrize(
        "mean_a,expected",
        [(0.3, "accelerating"), (0.0, "steady"), (-0.26, "decelerating"),
         (0.25, "steady"), (-0.25, "steady")],
    )
    def test_deadzone(self, cfg, mean_a, expected):
        assert label("speed_trend", make_seq(a=mean_a), cfg) == expected


class TestMeanSpeedLow:
    @pytest.mark.parametrize(
        "mean_v,expected", [(4.9, "yes"), (5.0, "no"), (0.0, "yes")]
    )
    def test_strict_below(self, cfg, mean_v, expected):
        assert label("mean_speed_low", make_seq(v=mean_v), cfg) == expected


class TestHeadingChange:
    @pytest.mark.parametrize(
        "delta,expected", [(0.30, "yes"), (0.0, "no"), (0.2618, "no")]
    )
    def test_strict_exceeds(self, cfg, delta, expected):
        theta = np.linspace(0.0, delta, 31)
        assert label("heading_change", make_seq(theta=theta), cfg) == expected


class TestExtremeManeuver:
    def test_jerk_branch(self, cfg):
        j = np.zeros(31)
        j[4] = 25.0
        assert label("extreme_maneuver", make_seq(j=j), cfg) == "yes"

    def test_accel_branch(self, cfg):
        a = np.zeros(31)
        a[4] = -4.0
        assert label("extreme_maneuver", make_seq(a=a), cfg) == "yes"

    def test_quiescent(self, cfg):
        assert label("extreme_maneuver", make_seq(), cfg) == "no"


class TestLateralAccel:
    def test_product_over_threshold(self, cfg):
        assert label("lateral_accel", make_seq(v=10.0, omega=0.25), cfg) == "yes"

    def test_no_yaw(self, cfg):
        assert label("lateral_accel", make_seq(v=10.0), cfg) == "no"

    def test_pointwise_product_not_extrema_product(self, cfg):
        assert label("lateral_accel", make_seq(v=20.0, omega=0.09), cfg) == "no"


class TestStopAndGo:
    def test_stop_then_move(self, cfg):
        assert label("stop_and_go", make_seq(v=np.linspace(0.2, 3.0, 31)), cfg) == "yes"

    def test_constant_speed(self, cfg):
        assert label("stop_and_go", make_seq(v=10.0), cfg) == "no"

    def test_move_then_stop_is_not_stop_and_go(self, cfg):
        assert label("stop_and_go", make_seq(v=np.linspace(3.0, 0.2, 31)), cfg) == "no"

    def test_bidirectional_flag(self):
        cfg = ThresholdConfig(stop_go_bidirectional=True)
        assert label("stop_and_go", make_seq(v=np.linspace(3.0, 0.2, 31)), cfg) == "yes"


class TestBrakeThenTurn:
    def test_brake_then_turn(self, cfg):
        a = np.zeros(31)
        a[5] = -1.6  # t = 0.5 s
        omega = np.zeros(31)
        omega[20] = 0.12  # t = 2.0 s
        assert label("brake_then_turn", make_seq(a=a, omega=omega), cfg) == "yes"

    def test_turn_before_brake(self, cfg):
        a = np.zeros(31)
        a[20] = -1.6
        omega = np.zeros(31)
        omega[5] = 0.12
        assert label("brake_then_turn", make_seq(a=a, omega=omega), cfg) == "no"

    def test_flat_clip(self, cfg):
        assert label("brake_then_turn", make_seq(), cfg) == "no"

    def test_same_sample_does_not_count(self, cfg):
        a = np.zeros(31)
        omega = np.zeros(31)
        a[15] = -1.6
        omega[15] = 0.12
        assert label("brake_then_turn", make_seq(a=a, omega=omega), cfg) == "no"


class TestMotionAxis:
    def test_quiescent_is_none(self, cfg):
        assert label("motion_axis", make_seq(), cfg) == "none"

    def test_longitudinal(self, cfg):
        assert label("motion_axis", make_seq(a=0.5), cfg) == "longitudinal"

    def test_lateral(self, cfg):
        assert label("motion_axis", make_seq(v=10.0, omega=0.3), cfg) == "lateral"


class TestSpeedPeakHalf:
    def test_ramp_peaks_in_second_half(self, cfg):
        v = np.linspace(2.0, 6.0, 31)
        assert label("speed_peak_half", make_seq(v=v), cfg) == "second_half"

    def test_constant_has_no_peak(self, cfg):
        assert label("speed_peak_half", make_seq(v=7.0), cfg) == "no_peak"

    def test_early_peak(self, cfg):
        v = np.full(31, 5.0)
        v[3] = 6.0
        assert label("speed_peak_half", make_seq(v=v), cfg) == "first_half"

    def test_midpoint_belongs_to_first_half(self, cfg):
        v = np.full(31, 5.0)
        v[15] = 6.0
        assert label("speed_peak_half", make_seq(v=v), cfg) == "first_half"


class TestContrastiveHalves:
    def test_jerk_in_second_half(self, cfg):
        j = np.concatenate([np.zeros(16), np.full(15, 3.0)])
        assert label("contrastive_halves", make_seq(j=j), cfg) == "second_half"

    def test_zero_jerk_is_similar(self, cfg):
        assert label("contrastive_halves", make_seq(), cfg) == "similar"

    def test_within_relative_band(self, cfg):
        j = np.concatenate([np.full(16, 2.0), np.full(15, 2.1)])
        assert label("contrastive_halves", make_seq(j=j), cfg) == "similar"


QUIESCENT_EXPECTED = {
    "turn_direction": "straight",
    "braking_intensity": "none",
    "speed_regime": "stopped",
    "driving_smoothness": "smooth",
    "speed_trend": "steady",
    "mean_speed_low": "yes",
    "heading_change": "no",
    "extreme_maneuver": "no",
    "motion_axis": "none",
    "lateral_accel": "no",
    "stop_and_go": "no",
    "brake_then_turn": "no",
    "speed_peak_half": "no_peak",
    "contrastive_halves": "similar",
}


class TestLabelAll:
    def test_quiescent_fourteen_tuple(self, cfg):
        records = oracle.label_all(make_seq(), cfg=cfg, clip_id="zero")
        assert [r.question_id for r in records] == list(QUESTION_ORDER)
        assert {r.question_id: r.answer for r in records} == QUIESCENT_EXPECTED

    def test_records_carry_traceability(self, cfg):
        for record in oracle.label_all(make_seq(v=8.0, omega=0.2), cfg=cfg):
            assert record.rule_name
            assert record.rule_params
            assert record.evidence

    def test_determinism_byte_identical(self, cfg):
        seq = make_seq(v=8.0, omega=0.2, a=-0.4)

        def dump():
            records = oracle.label_all(seq, cfg=cfg, clip_id="c")
            return json.dumps([r.to_dict() for r in records], sort_keys=True)

        assert dump() == dump()

    def test_answer_space_closure_on_random_clips(self, cfg):
        rng = np.random.default_rng(5)
        for _ in range(100):
            for record in oracle.label_all(random_seq(rng), cfg=cfg):
                assert record.answer in ANSWER_SPACES[record.question_id]

    def test_serialization_round_trip(self, cfg):
        records = oracle.label_all(make_seq(v=8.0), cfg=cfg, clip_id="c")
        for record in records:
            clone = oracle.QARecord(**json.loads(json.dumps(record.to_dict())))
            assert clone == record


class TestThresholdProperties:
    def test_raising_emergency_magnitude_only_demotes(self, cfg):
        stricter = dataclasses.replace(cfg, brake_emergency=-2.2)
        rng = np.random.default_rng(11)
        for _ in range(100):
            seq = random_seq(rng)
            loose = label("braking_intensity", seq, cfg)
            strict = label("braking_intensity", seq, stricter)
            if strict == "emergency":
                assert loose == "emergency"

    def test_speed_scale_covariance(self, cfg):
        rng = np.random.default_rng(13)
        k = 3.7
        scaled_cfg = dataclasses.replace(
            cfg,
            speed_stopped=cfg.speed_stopped * k,
            speed_slow=cfg.speed_slow * k,
            speed_urban=cfg.speed_urban * k,
        )
        for _ in range(50):
            seq = random_seq(rng)
            scaled_seq = make_seq(v=seq.v * k, a=seq.a, j=seq.j, omega=seq.omega)
            assert label("speed_regime", seq, cfg) == label(
                "speed_regime", scaled_seq, scaled_cfg
            )

    def test_alpha_scales_decisions(self, cfg):
        seq = make_seq(omega=0.05)  # left at alpha=1, inside deadzone at alpha=1.5
        assert label("turn_direction", seq, cfg) == "left"
        widened = cfg.with_alpha(1.5)
        assert label("turn_direction", seq, widened) == "straight"

    def test_alpha_scales_negative_thresholds_in_magnitude(self, cfg):
        scaled = cfg.with_alpha(0.5).scaled()
        assert scaled.brake_emergency == pytest.approx(-0.795)
        assert scaled.alpha == 1.0


class TestThresholdConfig:
    def test_defaults_round_trip(self, tmp_path, cfg):
        path = tmp_path / "thresholds.json"
        cfg.to_json(path)
        assert ThresholdConfig.from_json(path) == cfg

    def test_ordering_violations_raise(self):
        with pytest.raises(ConfigError):
            ThresholdConfig(brake_emergency=-0.5)
        with pytest.raises(ConfigError):
            ThresholdConfig(speed_slow=0.1)
        with pytest.raises(ConfigError):
            ThresholdConfig(alpha=0.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ThresholdConfig.from_dict({"bogus": 1.0})

    @pytest.mark.parametrize(
        "fields",
        [{"turn_deadzone": math.nan}, {"alpha": math.inf}, {"turn_deadzone": True},
         {"btt_yaw": "0.1"}, {"stop_go_bidirectional": 1}, {"trend_deadzone": 0.0},
         {"lat_accel_high": -2.0}],
    )
    def test_invalid_field_values_raise(self, fields):
        with pytest.raises(ConfigError):
            ThresholdConfig(**fields)


class TestCalibration:
    def test_percentile_recalibration(self):
        rng = np.random.default_rng(17)
        seqs = []
        min_accels = rng.uniform(-4.0, -0.1, 200)
        mean_jerks = rng.uniform(0.2, 4.0, 200)
        for min_a, mean_j in zip(min_accels, mean_jerks):
            a = np.zeros(31)
            a[10] = min_a
            j = np.full(31, mean_j)
            seqs.append(make_seq(a=a, j=j))
        calibrated = calibrate_thresholds(summarize_batch(seqs))
        assert calibrated.brake_emergency == pytest.approx(np.percentile(min_accels, 25))
        assert calibrated.brake_moderate == pytest.approx(np.percentile(min_accels, 50))
        assert calibrated.brake_low == pytest.approx(np.percentile(min_accels, 75))
        assert calibrated.jerk_smooth == pytest.approx(np.percentile(mean_jerks, 50))
        assert calibrated.jerk_moderate == pytest.approx(np.percentile(mean_jerks, 75))
        # untouched physics-anchored values
        assert calibrated.turn_deadzone == 0.04
        assert calibrated.lat_accel_high == 2.0

    def test_degenerate_corpus_rejected(self):
        seq = make_seq(a=np.full(31, 0.5), j=1.0)
        with pytest.raises(ConfigError):
            calibrate_thresholds(summarize_batch([seq] * 5))
