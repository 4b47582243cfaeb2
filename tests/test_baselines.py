from __future__ import annotations

import numpy as np
import pytest

from egodyn.baselines import (
    FLOW_DEFAULT,
    VO_DEFAULT,
    VO_LEARNED,
    FlowProxySeries,
    FlowThresholds,
    OdomProxySeries,
    OdomThresholds,
    flow_answers,
    synth_proxies,
    vo_answers,
)
from egodyn.errors import EmptySeries
from egodyn.oracle import label_all
from egodyn.questions import GEOMETRIC_SUBSET
from egodyn.synth import ManeuverSpec, generate
from egodyn.thresholds import ThresholdConfig


def flow_series(s_turn, s_exp=None, m_mag=None):
    s_turn = np.asarray(s_turn, dtype=float)
    n = s_turn.size
    return FlowProxySeries(
        t=np.arange(n, dtype=float),
        s_turn=s_turn,
        s_exp=np.zeros(n) if s_exp is None else np.asarray(s_exp, dtype=float),
        m_mag=np.full(n, 5.0) if m_mag is None else np.asarray(m_mag, dtype=float),
    )


def odom_series(theta_deg, m_disp=None):
    theta = np.asarray(theta_deg, dtype=float)
    n = theta.size
    return OdomProxySeries(
        t=np.arange(n, dtype=float),
        m_disp=np.full(n, 5.0) if m_disp is None else np.asarray(m_disp, dtype=float),
        theta_deg=theta,
    )


def answers(records):
    return {r.question_id: r.answer for r in records}


class TestFlowAnswers:
    def test_mean_turn_score_left(self):
        got = answers(flow_answers(flow_series([0.06] * 10)))
        assert got["turn_direction"] == "left"

    def test_all_zero_series(self):
        series = flow_series([0.0] * 10, m_mag=[0.0] * 10)
        got = answers(flow_answers(series))
        assert got == {
            "turn_direction": "straight",
            "speed_trend": "steady",
            "lateral_accel": "no",
            "heading_change": "no",
            "stop_and_go": "no",
            "brake_then_turn": "no",
        }

    def test_contraction_then_turn(self):
        s_exp = [-0.25] * 5 + [0.0] * 5
        s_turn = [0.0] * 5 + [0.08] * 5
        got = answers(flow_answers(flow_series(s_turn, s_exp=s_exp)))
        assert got["brake_then_turn"] == "yes"

    def test_turn_before_contraction_is_no(self):
        s_turn = [0.08] * 5 + [0.0] * 5
        s_exp = [0.0] * 5 + [-0.25] * 5
        got = answers(flow_answers(flow_series(s_turn, s_exp=s_exp)))
        assert got["brake_then_turn"] == "no"

    def test_magnitude_transition_is_stop_and_go(self):
        m = [0.1] * 4 + [2.0] * 4
        got = answers(flow_answers(flow_series([0.0] * 8, m_mag=m)))
        assert got["stop_and_go"] == "yes"

    def test_subset_restriction(self):
        records = flow_answers(flow_series([0.0] * 6))
        assert tuple(r.question_id for r in records) == GEOMETRIC_SUBSET


class TestVoAnswers:
    def test_mean_and_peak_yaw_left(self):
        got = answers(vo_answers(odom_series([0.2, 0.0, 0.0, 0.0])))
        assert got["turn_direction"] == "left"

    def test_peak_condition_required(self):
        # mean yaw over threshold but no sample beyond the peak bound
        got = answers(vo_answers(odom_series([0.05] * 8)))
        assert got["turn_direction"] == "straight"

    def test_constant_displacement_is_steady(self):
        got = answers(vo_answers(odom_series([0.0] * 8, m_disp=[3.0] * 8)))
        assert got["speed_trend"] == "steady"

    def test_displacement_transition_is_stop_and_go(self):
        got = answers(vo_answers(odom_series([0.0] * 6, m_disp=[0.4] * 3 + [2.5] * 3)))
        assert got["stop_and_go"] == "yes"

    def test_drop_then_yaw_is_brake_then_turn(self):
        m = [6.0, 6.0, 2.0, 2.0, 2.0, 2.0]
        theta = [0.0, 0.0, 0.0, 0.2, 0.2, 0.0]
        got = answers(vo_answers(odom_series(theta, m_disp=m)))
        assert got["brake_then_turn"] == "yes"

    def test_near_zero_displacement_guard(self):
        m = [0.4, 0.4, 0.05, 0.05, 0.05, 0.05]
        theta = [0.0, 0.0, 0.0, 0.2, 0.2, 0.0]
        got = answers(vo_answers(odom_series(theta, m_disp=m)))
        assert got["brake_then_turn"] == "no"

    def test_subset_restriction(self):
        records = vo_answers(odom_series([0.0] * 6))
        assert tuple(r.question_id for r in records) == GEOMETRIC_SUBSET

    def test_displacement_slope_is_the_least_squares_slope(self):
        """The closed form agrees with ``np.polyfit`` to within rounding,
        on proxy times of any start, epoch seconds included."""
        rng = np.random.default_rng(12)
        for t0 in (0.0, 0.05, 13.7, 1.7e9):
            for n in (2, 3, 30):
                t = t0 + np.sort(rng.uniform(0.0, 3.0, n))
                m = rng.uniform(0.0, 20.0, n)
                record = vo_answers(OdomProxySeries(t=t, m_disp=m, theta_deg=np.zeros(n)))[1]
                slope = record.evidence["displacement_slope"]
                reference = np.polyfit(t - t0, m, 1)[0]
                assert slope == pytest.approx(reference, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("t", [[0.5], [1.0, 1.0, 1.0]], ids=["one_sample", "equal_times"])
    def test_displacement_slope_without_time_spread_is_zero(self, t):
        n = len(t)
        series = OdomProxySeries(t=np.array(t), m_disp=np.arange(1.0, n + 1), theta_deg=np.zeros(n))
        record = vo_answers(series)[1]
        assert record.evidence == {"displacement_slope": 0.0}
        assert record.answer == "steady"

    def test_learned_threshold_set_differs(self):
        series = odom_series([0.3] * 8)
        assert answers(vo_answers(series, VO_DEFAULT))["turn_direction"] == "left"
        assert answers(vo_answers(series, VO_LEARNED))["turn_direction"] == "straight"


class TestThresholdInvariants:
    def test_flow_defaults(self):
        assert (FLOW_DEFAULT.turn, FLOW_DEFAULT.exp, FLOW_DEFAULT.lat,
                FLOW_DEFAULT.head, FLOW_DEFAULT.stop, FLOW_DEFAULT.move) == (
            0.05, 0.2, 1.5, 3.0, 0.3, 1.5)

    def test_vo_defaults(self):
        assert (VO_DEFAULT.yaw, VO_DEFAULT.peak, VO_DEFAULT.stop, VO_DEFAULT.move,
                VO_DEFAULT.trend, VO_DEFAULT.head, VO_DEFAULT.lat,
                VO_DEFAULT.brake) == (0.03, 0.15, 0.5, 2.0, 0.3, 1.5, 0.8, 0.4)

    def test_vo_learned_defaults(self):
        assert (VO_LEARNED.yaw, VO_LEARNED.peak, VO_LEARNED.stop, VO_LEARNED.move,
                VO_LEARNED.trend, VO_LEARNED.head, VO_LEARNED.lat,
                VO_LEARNED.brake) == (0.5, 1.0, 0.15, 0.5, 0.05, 5.0, 2.0, 0.3)

    def test_stop_below_move_enforced(self):
        with pytest.raises(ValueError):
            FlowThresholds(stop=2.0, move=1.0)
        with pytest.raises(ValueError):
            OdomThresholds(stop=3.0, move=1.0)

    def test_empty_series_rejected(self):
        with pytest.raises(EmptySeries):
            FlowProxySeries(
                t=np.array([]), s_turn=np.array([]), s_exp=np.array([]),
                m_mag=np.array([]),
            )


# Fixture family with decision margins in both rule systems, so the
# proxy heuristics and the kinematic rules must agree on all six
# geometric questions. Oscillating or marginal maneuvers (lane changes,
# short low-speed turns) are structurally outside this family.
AGREEMENT_SPECS = {
    "cruise": ManeuverSpec("constant_speed", {"v0": 10.0}),
    "drift": ManeuverSpec("arc_turn", {"v0": 8.0, "yaw_rate": 0.004}),
    "arc_left_small": ManeuverSpec("arc_turn", {"v0": 5.0, "yaw_rate": 0.2}),
    "arc_right_small": ManeuverSpec("arc_turn", {"v0": 5.0, "yaw_rate": -0.2}),
    "arc_left_big": ManeuverSpec("arc_turn", {"v0": 10.0, "yaw_rate": 0.4}),
    "arc_right_big": ManeuverSpec("arc_turn", {"v0": 10.0, "yaw_rate": -0.4}),
    "accel_ramp": ManeuverSpec("constant_accel", {"v0": 8.0, "accel": 0.6}),
    "decel_ramp": ManeuverSpec("constant_accel", {"v0": 9.0, "accel": -0.6}),
    "stopgo_ramp": ManeuverSpec(
        "stop_and_go", {"v_low": 0.2, "v_high": 4.6, "t_go": 1.0, "accel": 2.3}
    ),
    "brake_stop_turn": ManeuverSpec(
        "composite",
        {
            "v0": 6.5,
            "segments": [
                {"duration": 0.2},
                {"duration": 0.65, "accel": -10.0},
                {"duration": 0.6},
                {"duration": 0.1, "accel": 8.0},
                {"duration": 0.9, "omega": 0.7},
                {"duration": 0.55, "accel": 3.7 / 0.55},
            ],
        },
    ),
}


class TestZeroNoiseAgreement:
    @pytest.mark.parametrize("name", sorted(AGREEMENT_SPECS))
    def test_flow_and_vo_match_oracle(self, name):
        seq, _ = generate(AGREEMENT_SPECS[name])
        oracle_ans = {r.question_id: r.answer for r in label_all(seq, cfg=ThresholdConfig())}
        flow, odom = synth_proxies(seq, noise_level=0.0)
        flow_got = answers(flow_answers(flow, FLOW_DEFAULT))
        vo_got = answers(vo_answers(odom, VO_DEFAULT))
        for question in GEOMETRIC_SUBSET:
            assert flow_got[question] == oracle_ans[question], (name, question)
            assert vo_got[question] == oracle_ans[question], (name, question)


class TestSynthProxies:
    def test_zero_motion_zero_proxies(self):
        seq, _ = generate(ManeuverSpec("constant_speed", {"v0": 0.0}))
        flow, odom = synth_proxies(seq)
        np.testing.assert_array_equal(flow.s_turn, 0.0)
        np.testing.assert_array_equal(flow.s_exp, 0.0)
        np.testing.assert_array_equal(flow.m_mag, 0.0)
        np.testing.assert_array_equal(odom.theta_deg, 0.0)
        np.testing.assert_array_equal(odom.m_disp, 0.0)

    def test_seeded_noise_reproducible(self):
        seq, _ = generate(ManeuverSpec("constant_speed", {"v0": 10.0}))
        flow_a, odom_a = synth_proxies(seq, noise_level=0.5, seed=7)
        flow_b, odom_b = synth_proxies(seq, noise_level=0.5, seed=7)
        np.testing.assert_array_equal(flow_a.s_turn, flow_b.s_turn)
        np.testing.assert_array_equal(odom_a.m_disp, odom_b.m_disp)

    def test_frame_subsampling(self):
        seq, _ = generate(ManeuverSpec("constant_speed", {"v0": 10.0}))
        flow, _ = synth_proxies(seq, n_frames=10)
        assert flow.t.size == 9


class TestScaleAndOrderSensitivity:
    def test_scaling_up_never_flips_yes_to_no(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n = 12
            series = flow_series(
                rng.normal(0, 1.0, n),
                s_exp=rng.normal(0, 0.5, n),
                m_mag=np.abs(rng.normal(2.0, 1.0, n)),
            )
            k = rng.uniform(1.0, 4.0)
            scaled = FlowProxySeries(
                t=series.t, s_turn=k * series.s_turn,
                s_exp=series.s_exp, m_mag=series.m_mag,
            )
            base = answers(flow_answers(series))
            boosted = answers(flow_answers(scaled))
            for question in ("lateral_accel", "heading_change"):
                if base[question] == "yes":
                    assert boosted[question] == "yes"

    def test_reversing_series_changes_temporal_answers(self):
        m = np.array([0.1, 0.1, 0.1, 2.0, 2.0, 2.0])
        forward = flow_series([0.0] * 6, m_mag=m)
        backward = flow_series([0.0] * 6, m_mag=m[::-1])
        assert answers(flow_answers(forward))["stop_and_go"] == "yes"
        assert answers(flow_answers(backward))["stop_and_go"] == "no"

        theta = np.array([0.0, 0.0, 0.0, 0.2, 0.2, 0.2])
        disp = np.array([6.0, 6.0, 2.0, 2.0, 2.0, 2.0])
        fwd = odom_series(theta, m_disp=disp)
        bwd = odom_series(theta[::-1], m_disp=disp[::-1])
        assert answers(vo_answers(fwd))["brake_then_turn"] == "yes"
        assert answers(vo_answers(bwd))["brake_then_turn"] == "no"
