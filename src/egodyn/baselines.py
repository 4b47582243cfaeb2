"""Heuristic semantic mappings over precomputed motion-proxy signals.

Two proxy families are supported: optical-flow style series (turn score,
expansion score, motion magnitude per frame pair) and odometry style
series (displacement magnitude and yaw estimate per frame pair). Both are
restricted to the six questions answerable from qualitative motion alone:
turn direction, speed trend, lateral acceleration, heading change,
stop-and-go, and brake-then-turn.

``label_proxies`` labels many clips of one family the way the oracle
does: the series are stacked by sample count, each family's reducer gives
evidence columns and one condition list per question, ``oracle.decide``
turns those into answer codes, and ``oracle.label_lines`` builds the rows,
as JSON Lines text, from the family's rule table. ``flow_answers`` and
``vo_answers`` are batches of one, read back as QARecords.

Pixel-level extraction is out of scope; series arrive from files or from
``synth_proxies``, which maps ground-truth kinematics onto the proxy
scales so the decision thresholds line up with the oracle's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySeries, InvalidTrajectory
from .kinematics import reduce_stacks, sample_count_stacks
from .oracle import QARecord, decide, label_lines, ordered_pair, read_records


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


# question -> (rule name, evidence columns recorded), in GEOMETRIC_SUBSET
# order; every row's parameters are the family's whole threshold set.
FLOW_RULES: dict[str, tuple[str, tuple[str, ...]]] = {
    "turn_direction": ("flow_mean_turn_score", ("mean_turn_score",)),
    "speed_trend": ("flow_mean_expansion", ("mean_expansion",)),
    "lateral_accel": ("flow_peak_turn_score", ("max_abs_turn_score",)),
    "heading_change": ("flow_turn_score_sum", ("sum_abs_turn_score",)),
    "stop_and_go": ("flow_magnitude_transition", ("min_magnitude", "max_magnitude")),
    "brake_then_turn": ("flow_contraction_then_turn", ("min_expansion", "max_abs_turn_score")),
}
ODOM_RULES: dict[str, tuple[str, tuple[str, ...]]] = {
    "turn_direction": ("odom_mean_and_peak_yaw", ("mean_yaw_deg", "peak_abs_yaw_deg")),
    "speed_trend": ("odom_displacement_slope", ("displacement_slope",)),
    "lateral_accel": ("odom_peak_yaw", ("peak_abs_yaw_deg",)),
    "heading_change": ("odom_yaw_sum", ("sum_abs_yaw_deg",)),
    "stop_and_go": ("odom_displacement_transition", ("min_displacement", "max_displacement")),
    "brake_then_turn": ("odom_drop_then_yaw", ("mean_displacement", "drop_threshold")),
}


def _flow_reduce(th: FlowThresholds, s_turn, s_exp, m_mag):
    """Evidence columns and per-question conditions of (m, n) flow proxies."""
    abs_turn = np.abs(s_turn)
    turn, exp = np.mean(s_turn, axis=-1), np.mean(s_exp, axis=-1)
    peak, total = np.max(abs_turn, axis=-1), np.sum(abs_turn, axis=-1)
    evidence = {
        "mean_turn_score": turn, "mean_expansion": exp, "min_expansion": np.min(s_exp, axis=-1),
        "max_abs_turn_score": peak, "sum_abs_turn_score": total,
        "min_magnitude": np.min(m_mag, axis=-1), "max_magnitude": np.max(m_mag, axis=-1),
    }
    return evidence, [
        [turn > th.turn, turn < -th.turn],
        [exp > th.exp, exp < -th.exp],
        [peak > th.lat],
        [total > th.head],
        [ordered_pair(m_mag < th.stop, m_mag > th.move)],
        [ordered_pair(s_exp < -th.exp, abs_turn > th.turn)],
    ]


def _odom_reduce(th: OdomThresholds, t, m_disp, theta_deg):
    """Evidence columns and per-question conditions of (m, n) odometry proxies."""
    abs_yaw = np.abs(theta_deg)
    yaw, peak = np.mean(theta_deg, axis=-1), np.max(abs_yaw, axis=-1)
    total, mean_disp = np.sum(abs_yaw, axis=-1), np.mean(m_disp, axis=-1)
    # Least-squares slope of displacement over time, in closed form; 0
    # without two distinct timestamps.
    t = t - np.mean(t, axis=-1, keepdims=True)
    spread = np.sum(t * t, axis=-1)
    slope = np.divide(np.sum(t * (m_disp - mean_disp[:, None]), axis=-1), spread,
                      out=np.zeros_like(spread), where=spread > 0)
    # Braking shows as a step drop between consecutive displacement
    # samples exceeding the fraction-of-mean threshold; degenerate
    # near-zero displacement clips are excluded by the absolute guard.
    drop = th.brake * mean_disp
    drops = np.zeros(m_disp.shape, dtype=bool)
    drops[:, 1:] = m_disp[:, 1:] < (m_disp[:, :-1] - drop[:, None])
    evidence = {
        "mean_yaw_deg": yaw, "peak_abs_yaw_deg": peak, "sum_abs_yaw_deg": total,
        "displacement_slope": slope, "mean_displacement": mean_disp, "drop_threshold": drop,
        "min_displacement": np.min(m_disp, axis=-1), "max_displacement": np.max(m_disp, axis=-1),
    }
    return evidence, [
        [(yaw > th.yaw) & (peak > th.peak), (yaw < -th.yaw) & (peak > th.peak)],
        [slope > th.trend, slope < -th.trend],
        [peak > th.lat],
        [total > th.head],
        [ordered_pair(m_disp < th.stop, m_disp > th.move)],
        [(mean_disp > 0.5) & ordered_pair(drops, abs_yaw > th.yaw)],
    ]


_FAMILIES = {  # threshold type -> (rule table, proxy channels, stack reducer)
    FlowThresholds: (FLOW_RULES, ("s_turn", "s_exp", "m_mag"), _flow_reduce),
    OdomThresholds: (ODOM_RULES, ("t", "m_disp", "theta_deg"), _odom_reduce),
}


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, not warned
def label_proxies(
    clip_ids: Sequence[str], series: Sequence, th: FlowThresholds | OdomThresholds
) -> str:
    """The JSON Lines text of the label rows of the six geometric questions
    for many clips of the proxy family of ``th``, clip by clip in
    ``GEOMETRIC_SUBSET`` order (see ``oracle.label_lines``).

    Raises:
        InvalidTrajectory: some evidence is not finite (a statistic of
            finite proxies overflows); names the first such clip.
    """
    if not series:
        return ""
    rules, channels, reduce = _FAMILIES[type(th)]

    def decide_stack(*stack):
        evidence, conditions = reduce(th, *stack)
        return {**evidence, "codes": decide(conditions)}

    evidence = reduce_stacks(sample_count_stacks(series, channels), decide_stack)
    codes = evidence.pop("codes")
    finite = np.logical_and.reduce([np.isfinite(column) for column in evidence.values()])
    if not finite.all():
        raise InvalidTrajectory(
            f"clip {clip_ids[int(np.argmin(finite))]!r}: proxy statistics overflow: "
            "an evidence value is not finite"
        )
    table = {question: (rule, vars(th), names) for question, (rule, names) in rules.items()}
    return label_lines(clip_ids, codes, evidence, table)


def flow_answers(
    series: FlowProxySeries, th: FlowThresholds = FLOW_DEFAULT, clip_id: str = ""
) -> list[QARecord]:
    """Answer the six geometric questions from flow proxies; one clip of ``label_proxies``."""
    return read_records(label_proxies([clip_id], [series], th))


def vo_answers(
    series: OdomProxySeries, th: OdomThresholds = VO_DEFAULT, clip_id: str = ""
) -> list[QARecord]:
    """Answer the six geometric questions from odometry proxies; one clip of ``label_proxies``."""
    return read_records(label_proxies([clip_id], [series], th))


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
