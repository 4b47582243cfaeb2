"""Heuristic semantic mappings over precomputed motion-proxy signals.

Two proxy families are supported: optical-flow style series (turn score,
expansion score, motion magnitude per frame pair) and odometry style
series (displacement magnitude and yaw estimate per frame pair). Both are
restricted to the six questions answerable from qualitative motion alone:
turn direction, speed trend, lateral acceleration, heading change,
stop-and-go, and brake-then-turn.

Pixel-level extraction is out of scope; series arrive from files or from
``synth_proxies``, which maps ground-truth kinematics onto the proxy
scales so the decision thresholds line up with the oracle's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries, InvalidTrajectory
from .oracle import QARecord, ordered_pair


@dataclass(frozen=True)
class FlowProxySeries:
    """Per-frame-pair flow proxies: rotation, radial expansion, magnitude."""

    t: np.ndarray
    s_turn: np.ndarray
    s_exp: np.ndarray
    m_mag: np.ndarray

    def __post_init__(self) -> None:
        sizes = {self.t.size, self.s_turn.size, self.s_exp.size, self.m_mag.size}
        if len(sizes) != 1:
            raise InvalidTrajectory("flow proxy channels must have equal length")
        if self.t.size == 0:
            raise EmptySeries("flow proxy series is empty")
        if np.any(self.m_mag < 0):
            raise InvalidTrajectory("motion magnitude 'm_mag' must be non-negative")


@dataclass(frozen=True)
class OdomProxySeries:
    """Per-frame-pair odometry proxies: displacement and yaw (degrees)."""

    t: np.ndarray
    m_disp: np.ndarray
    theta_deg: np.ndarray

    def __post_init__(self) -> None:
        sizes = {self.t.size, self.m_disp.size, self.theta_deg.size}
        if len(sizes) != 1:
            raise InvalidTrajectory("odometry proxy channels must have equal length")
        if self.t.size == 0:
            raise EmptySeries("odometry proxy series is empty")
        if np.any(self.m_disp < 0):
            raise InvalidTrajectory("displacement magnitude 'm_disp' must be non-negative")


@dataclass(frozen=True)
class FlowThresholds:
    turn: float = 0.05
    exp: float = 0.2
    lat: float = 1.5
    head: float = 3.0
    stop: float = 0.3
    move: float = 1.5

    def __post_init__(self) -> None:
        if min(self.turn, self.exp, self.lat, self.head, self.stop, self.move) <= 0:
            raise ValueError("flow thresholds must be positive")
        if not self.stop < self.move:
            raise ValueError("stop threshold must sit below move threshold")


@dataclass(frozen=True)
class OdomThresholds:
    yaw: float = 0.03
    peak: float = 0.15
    stop: float = 0.5
    move: float = 2.0
    trend: float = 0.3
    head: float = 1.5
    lat: float = 0.8
    brake: float = 0.4

    def __post_init__(self) -> None:
        values = (
            self.yaw, self.peak, self.stop, self.move,
            self.trend, self.head, self.lat, self.brake,
        )
        if min(values) <= 0:
            raise ValueError("odometry thresholds must be positive")
        if not self.stop < self.move:
            raise ValueError("stop threshold must sit below move threshold")


FLOW_DEFAULT = FlowThresholds()
VO_DEFAULT = OdomThresholds()
# Recalibrated set for learned odometry backends operating on a different
# displacement/yaw scale space.
VO_LEARNED = OdomThresholds(
    yaw=0.5, peak=1.0, stop=0.15, move=0.5, trend=0.05, head=5.0, lat=2.0, brake=0.3
)

BASELINE_THRESHOLD_SETS = {
    "flow": FLOW_DEFAULT,
    "vo": VO_DEFAULT,
    "vo_learned": VO_LEARNED,
}


def flow_answers(
    series: FlowProxySeries, th: FlowThresholds = FLOW_DEFAULT, clip_id: str = ""
) -> list[QARecord]:
    """Answer the six geometric questions from flow-style proxies."""
    mean_turn = float(np.mean(series.s_turn))
    mean_exp = float(np.mean(series.s_exp))
    max_abs_turn = float(np.max(np.abs(series.s_turn)))
    sum_abs_turn = float(np.sum(np.abs(series.s_turn)))

    if mean_turn > th.turn:
        turn = "left"
    elif mean_turn < -th.turn:
        turn = "right"
    else:
        turn = "straight"

    if mean_exp > th.exp:
        trend = "accelerating"
    elif mean_exp < -th.exp:
        trend = "decelerating"
    else:
        trend = "steady"

    lateral = "yes" if max_abs_turn > th.lat else "no"
    heading = "yes" if sum_abs_turn > th.head else "no"
    stop_go = ordered_pair(series.m_mag < th.stop, series.m_mag > th.move)
    brake_turn = ordered_pair(
        series.s_exp < -th.exp, np.abs(series.s_turn) > th.turn
    )

    params = {
        "turn": th.turn, "exp": th.exp, "lat": th.lat,
        "head": th.head, "stop": th.stop, "move": th.move,
    }
    return [
        QARecord(clip_id, "turn_direction", turn, "flow_mean_turn_score",
                 params, {"mean_turn_score": mean_turn}),
        QARecord(clip_id, "speed_trend", trend, "flow_mean_expansion",
                 params, {"mean_expansion": mean_exp}),
        QARecord(clip_id, "lateral_accel", lateral, "flow_peak_turn_score",
                 params, {"max_abs_turn_score": max_abs_turn}),
        QARecord(clip_id, "heading_change", heading, "flow_turn_score_sum",
                 params, {"sum_abs_turn_score": sum_abs_turn}),
        QARecord(clip_id, "stop_and_go", "yes" if stop_go else "no",
                 "flow_magnitude_transition", params,
                 {"min_magnitude": float(np.min(series.m_mag)),
                  "max_magnitude": float(np.max(series.m_mag))}),
        QARecord(clip_id, "brake_then_turn", "yes" if brake_turn else "no",
                 "flow_contraction_then_turn", params,
                 {"min_expansion": float(np.min(series.s_exp)),
                  "max_abs_turn_score": max_abs_turn}),
    ]


def vo_answers(
    series: OdomProxySeries, th: OdomThresholds = VO_DEFAULT, clip_id: str = ""
) -> list[QARecord]:
    """Answer the six geometric questions from odometry-style proxies."""
    mean_yaw = float(np.mean(series.theta_deg))
    peak_yaw = float(np.max(np.abs(series.theta_deg)))
    sum_abs_yaw = float(np.sum(np.abs(series.theta_deg)))
    mean_disp = float(np.mean(series.m_disp))

    if mean_yaw > th.yaw and peak_yaw > th.peak:
        turn = "left"
    elif mean_yaw < -th.yaw and peak_yaw > th.peak:
        turn = "right"
    else:
        turn = "straight"

    # Least-squares slope of displacement over time, in closed form; 0
    # without two distinct timestamps.
    t = series.t - np.mean(series.t)
    spread = float(np.sum(t * t))
    slope = float(np.sum(t * (series.m_disp - mean_disp))) / spread if spread > 0 else 0.0
    if slope > th.trend:
        trend = "accelerating"
    elif slope < -th.trend:
        trend = "decelerating"
    else:
        trend = "steady"

    lateral = "yes" if peak_yaw > th.lat else "no"
    heading = "yes" if sum_abs_yaw > th.head else "no"
    stop_go = ordered_pair(series.m_disp < th.stop, series.m_disp > th.move)

    # Braking shows as a step drop between consecutive displacement
    # samples exceeding the fraction-of-mean threshold; degenerate
    # near-zero displacement clips are excluded by the absolute guard.
    drop = th.brake * mean_disp
    drops = np.zeros(series.m_disp.size, dtype=bool)
    drops[1:] = series.m_disp[1:] < (series.m_disp[:-1] - drop)
    brake_turn = mean_disp > 0.5 and ordered_pair(
        drops, np.abs(series.theta_deg) > th.yaw
    )

    params = {
        "yaw": th.yaw, "peak": th.peak, "stop": th.stop, "move": th.move,
        "trend": th.trend, "head": th.head, "lat": th.lat, "brake": th.brake,
    }
    return [
        QARecord(clip_id, "turn_direction", turn, "odom_mean_and_peak_yaw",
                 params, {"mean_yaw_deg": mean_yaw, "peak_abs_yaw_deg": peak_yaw}),
        QARecord(clip_id, "speed_trend", trend, "odom_displacement_slope",
                 params, {"displacement_slope": slope}),
        QARecord(clip_id, "lateral_accel", lateral, "odom_peak_yaw",
                 params, {"peak_abs_yaw_deg": peak_yaw}),
        QARecord(clip_id, "heading_change", heading, "odom_yaw_sum",
                 params, {"sum_abs_yaw_deg": sum_abs_yaw}),
        QARecord(clip_id, "stop_and_go", "yes" if stop_go else "no",
                 "odom_displacement_transition", params,
                 {"min_displacement": float(np.min(series.m_disp)),
                  "max_displacement": float(np.max(series.m_disp))}),
        QARecord(clip_id, "brake_then_turn", "yes" if brake_turn else "no",
                 "odom_drop_then_yaw", params,
                 {"mean_displacement": mean_disp, "drop_threshold": drop}),
    ]


# Calibration constants tying proxy scales to the kinematic thresholds:
# the flow turn score carries 1.25 units per rad/s so the 0.05 turn bound
# maps onto the 0.04 rad/s deadzone, and 0.75 units per m^2/s^2 of
# lateral acceleration so the 1.5 peak bound maps onto 2.0 m/s^2;
# expansion carries 0.8 per m/s^2 (0.2 <-> 0.25) and magnitude is affine
# in speed with 0.5 m/s -> 0.3 and 2.0 m/s -> 1.5. Odometry yaw carries
# 0.75 deg-units per rad/s (0.03 <-> 0.04) and 0.4 per lateral unit
# (0.8 <-> 2.0); displacement is speed itself (0.5 <-> 0.5, 2.0 <-> 2.0).
_FLOW_TURN_PER_YAW = 1.25
_FLOW_TURN_PER_LAT = 0.75
_FLOW_EXP_PER_ACCEL = 0.8
_FLOW_MAG_SLOPE = 0.8
_FLOW_MAG_OFFSET = -0.1
_VO_YAW_PER_YAW = 0.75
_VO_YAW_PER_LAT = 0.4


def synth_proxies(
    seq,
    noise_level: float = 0.0,
    seed: int = 0,
    n_frames: int | None = None,
) -> tuple[FlowProxySeries, OdomProxySeries]:
    """Derive proxy series from ground-truth kinematics.

    By default one proxy value is emitted per consecutive grid-sample
    pair, matching extractors that process every camera frame; pass a
    smaller ``n_frames`` to mimic subsampled frame rates. Each frame pair
    carries the mean of the endpoint kinematics. ``noise_level`` scales
    seeded Gaussian noise expressed in units of each channel's own
    threshold.
    """
    if n_frames is None:
        n_frames = int(seq.t.size)
    if n_frames < 2:
        raise ValueError("need at least 2 frames for one pair")
    frame_t = np.linspace(seq.t[0], seq.t[-1], n_frames)
    v = np.interp(frame_t, seq.t, seq.v)
    a = np.interp(frame_t, seq.t, seq.a)
    w = np.interp(frame_t, seq.t, seq.omega)

    pair_t = frame_t[1:]
    v_p = 0.5 * (v[1:] + v[:-1])
    a_p = 0.5 * (a[1:] + a[:-1])
    w_p = 0.5 * (w[1:] + w[:-1])

    turn_mag = np.maximum(
        _FLOW_TURN_PER_YAW * np.abs(w_p), _FLOW_TURN_PER_LAT * v_p * np.abs(w_p)
    )
    s_turn = np.sign(w_p) * turn_mag
    s_exp = _FLOW_EXP_PER_ACCEL * a_p
    m_mag = np.maximum(_FLOW_MAG_SLOPE * v_p + _FLOW_MAG_OFFSET, 0.0)

    yaw_mag = np.maximum(
        _VO_YAW_PER_YAW * np.abs(w_p), _VO_YAW_PER_LAT * v_p * np.abs(w_p)
    )
    theta_deg = np.sign(w_p) * yaw_mag
    m_disp = v_p.copy()

    if noise_level > 0:
        rng = np.random.default_rng(seed)
        s_turn = s_turn + rng.normal(0, noise_level * FLOW_DEFAULT.turn, s_turn.shape)
        s_exp = s_exp + rng.normal(0, noise_level * FLOW_DEFAULT.exp, s_exp.shape)
        m_mag = np.maximum(
            m_mag + rng.normal(0, noise_level * FLOW_DEFAULT.stop, m_mag.shape), 0.0
        )
        theta_deg = theta_deg + rng.normal(
            0, noise_level * VO_DEFAULT.yaw, theta_deg.shape
        )
        m_disp = np.maximum(
            m_disp + rng.normal(0, noise_level * VO_DEFAULT.stop, m_disp.shape), 0.0
        )

    flow = FlowProxySeries(t=pair_t, s_turn=s_turn, s_exp=s_exp, m_mag=m_mag)
    odom = OdomProxySeries(t=pair_t, m_disp=m_disp, theta_deg=theta_deg)
    return flow, odom
