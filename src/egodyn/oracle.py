"""Deterministic labeling rules mapping kinematics to semantic answers.

Each rule takes (StateSequence, KinematicSummary, ThresholdConfig) and
returns a QARecord carrying the answer, the rule that produced it, the
exact (alpha-scaled) parameters applied, and the kinematic evidence used,
so every label is auditable after the fact.

Sign convention: positive yaw rate is a left (counter-clockwise) turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import KinematicSummary, StateSequence, half_split_index, summarize
from .questions import QUESTION_ORDER, answer_code
from .thresholds import ThresholdConfig


@dataclass(frozen=True)
class QARecord:
    """One answered question with full rule traceability."""

    clip_id: str
    question_id: str
    answer: str
    rule_name: str
    rule_params: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        answer_code(self.clip_id, self.question_id, self.answer)
        if not self.evidence:
            raise ValueError("evidence must not be empty")

    def to_dict(self) -> dict:
        return {
            "clip_id": self.clip_id,
            "question_id": self.question_id,
            "answer": self.answer,
            "rule_name": self.rule_name,
            "rule_params": dict(self.rule_params),
            "evidence": dict(self.evidence),
        }


def label_turn_direction(seq, summary, cfg, clip_id=""):
    """Signed yaw-rate peak against the +/- deadzone."""
    eff = cfg.scaled()
    idx = int(np.argmax(np.abs(seq.omega)))
    peak = float(seq.omega[idx])
    if peak > eff.turn_deadzone:
        answer = "left"
    elif peak < -eff.turn_deadzone:
        answer = "right"
    else:
        answer = "straight"
    return QARecord(
        clip_id,
        "turn_direction",
        answer,
        "peak_yaw_rate_deadzone",
        {"turn_deadzone": eff.turn_deadzone, "alpha": cfg.alpha},
        {"peak_yaw_rate": peak, "max_abs_yaw_rate": abs(peak)},
    )


def label_braking_intensity(seq, summary, cfg, clip_id=""):
    """Minimum longitudinal acceleration bucketed into four classes."""
    eff = cfg.scaled()
    m = summary.min_accel
    if m < eff.brake_emergency:
        answer = "emergency"
    elif m < eff.brake_moderate:
        answer = "moderate"
    elif m < eff.brake_low:
        answer = "low"
    else:
        answer = "none"
    return QARecord(
        clip_id,
        "braking_intensity",
        answer,
        "min_accel_buckets",
        {
            "brake_emergency": eff.brake_emergency,
            "brake_moderate": eff.brake_moderate,
            "brake_low": eff.brake_low,
            "alpha": cfg.alpha,
        },
        {"min_accel": m},
    )


def label_speed_regime(seq, summary, cfg, clip_id=""):
    """Maximum speed bucketed into stopped/slow/urban/highway."""
    eff = cfg.scaled()
    m = summary.max_speed
    if m < eff.speed_stopped:
        answer = "stopped"
    elif m < eff.speed_slow:
        answer = "slow"
    elif m < eff.speed_urban:
        answer = "urban"
    else:
        answer = "highway"
    return QARecord(
        clip_id,
        "speed_regime",
        answer,
        "max_speed_buckets",
        {
            "speed_stopped": eff.speed_stopped,
            "speed_slow": eff.speed_slow,
            "speed_urban": eff.speed_urban,
            "alpha": cfg.alpha,
        },
        {"max_speed": m},
    )


def label_driving_smoothness(seq, summary, cfg, clip_id=""):
    """Mean absolute jerk bucketed into smooth/moderate/aggressive."""
    eff = cfg.scaled()
    m = summary.mean_abs_jerk
    if m <= eff.jerk_smooth:
        answer = "smooth"
    elif m <= eff.jerk_moderate:
        answer = "moderate"
    else:
        answer = "aggressive"
    return QARecord(
        clip_id,
        "driving_smoothness",
        answer,
        "mean_abs_jerk_buckets",
        {
            "jerk_smooth": eff.jerk_smooth,
            "jerk_moderate": eff.jerk_moderate,
            "alpha": cfg.alpha,
        },
        {"mean_abs_jerk": m},
    )


def label_speed_trend(seq, summary, cfg, clip_id=""):
    """Mean acceleration against the +/- steady-state deadzone."""
    eff = cfg.scaled()
    m = summary.mean_accel
    if m > eff.trend_deadzone:
        answer = "accelerating"
    elif m < -eff.trend_deadzone:
        answer = "decelerating"
    else:
        answer = "steady"
    return QARecord(
        clip_id,
        "speed_trend",
        answer,
        "mean_accel_deadzone",
        {"trend_deadzone": eff.trend_deadzone, "alpha": cfg.alpha},
        {"mean_accel": m},
    )


def label_mean_speed_low(seq, summary, cfg, clip_id=""):
    eff = cfg.scaled()
    m = summary.mean_speed
    answer = "yes" if m < eff.mean_speed_low else "no"
    return QARecord(
        clip_id,
        "mean_speed_low",
        answer,
        "mean_speed_threshold",
        {"mean_speed_low": eff.mean_speed_low, "alpha": cfg.alpha},
        {"mean_speed": m},
    )


def label_heading_change(seq, summary, cfg, clip_id=""):
    eff = cfg.scaled()
    m = summary.total_heading_change
    answer = "yes" if m > eff.heading_change_min else "no"
    return QARecord(
        clip_id,
        "heading_change",
        answer,
        "total_heading_threshold",
        {
            "heading_change_min": eff.heading_change_min,
            "heading_total_mode": cfg.heading_total_mode,
            "alpha": cfg.alpha,
        },
        {"total_heading_change": m},
    )


def label_extreme_maneuver(seq, summary, cfg, clip_id=""):
    """Disjunction: jerk spike above limit OR acceleration below limit."""
    eff = cfg.scaled()
    jerk_hit = summary.max_abs_jerk > eff.extreme_jerk
    accel_hit = summary.min_accel < eff.extreme_accel
    answer = "yes" if (jerk_hit or accel_hit) else "no"
    return QARecord(
        clip_id,
        "extreme_maneuver",
        answer,
        "jerk_or_accel_extreme",
        {
            "extreme_jerk": eff.extreme_jerk,
            "extreme_accel": eff.extreme_accel,
            "alpha": cfg.alpha,
        },
        {"max_abs_jerk": summary.max_abs_jerk, "min_accel": summary.min_accel},
    )


def label_motion_axis(seq, summary, cfg, clip_id=""):
    """Dominant activity axis from threshold-normalized intensities.

    Longitudinal activity is |mean accel| over the trend deadzone, lateral
    activity is the lateral-acceleration peak over its threshold; below 1
    on both axes the clip has no dominant axis. Ties go longitudinal.
    """
    eff = cfg.scaled()
    lon = abs(summary.mean_accel) / eff.trend_deadzone
    lat = summary.max_lat_accel / eff.lat_accel_high
    if lon < 1.0 and lat < 1.0:
        answer = "none"
    elif lon >= lat:
        answer = "longitudinal"
    else:
        answer = "lateral"
    return QARecord(
        clip_id,
        "motion_axis",
        answer,
        "activity_ratio_dominance",
        {
            "trend_deadzone": eff.trend_deadzone,
            "lat_accel_high": eff.lat_accel_high,
            "alpha": cfg.alpha,
        },
        {
            "mean_accel": summary.mean_accel,
            "max_lat_accel": summary.max_lat_accel,
            "longitudinal_activity": lon,
            "lateral_activity": lat,
        },
    )


def label_lateral_accel(seq, summary, cfg, clip_id=""):
    """Per-sample peak of v * |omega| against the comfort limit."""
    eff = cfg.scaled()
    m = summary.max_lat_accel
    answer = "yes" if m > eff.lat_accel_high else "no"
    return QARecord(
        clip_id,
        "lateral_accel",
        answer,
        "peak_lat_accel_threshold",
        {"lat_accel_high": eff.lat_accel_high, "alpha": cfg.alpha},
        {"max_lat_accel": m},
    )


def label_stop_and_go(seq, summary, cfg, clip_id=""):
    """Ordered stopped-then-moving transition scan over the speed channel.

    With ``stop_go_bidirectional`` set, a moving-then-stopped transition
    also counts.
    """
    eff = cfg.scaled()
    v = seq.v
    stopped = v < eff.stopgo_stop
    moving = v > eff.stopgo_move
    hit = _ordered_pair_exists(stopped, moving)
    if not hit and cfg.stop_go_bidirectional:
        hit = _ordered_pair_exists(moving, stopped)
    return QARecord(
        clip_id,
        "stop_and_go",
        "yes" if hit else "no",
        "ordered_stop_to_move",
        {
            "stopgo_stop": eff.stopgo_stop,
            "stopgo_move": eff.stopgo_move,
            "bidirectional": cfg.stop_go_bidirectional,
            "alpha": cfg.alpha,
        },
        {"min_speed": float(np.min(v)), "max_speed": float(np.max(v))},
    )


def label_brake_then_turn(seq, summary, cfg, clip_id=""):
    """Braking event strictly followed in time by a turning event."""
    eff = cfg.scaled()
    braking = seq.a < eff.btt_brake
    turning = np.abs(seq.omega) > eff.btt_yaw
    hit = _ordered_pair_exists(braking, turning)
    return QARecord(
        clip_id,
        "brake_then_turn",
        "yes" if hit else "no",
        "ordered_brake_to_turn",
        {
            "btt_brake": eff.btt_brake,
            "btt_yaw": eff.btt_yaw,
            "alpha": cfg.alpha,
        },
        {
            "min_accel": float(np.min(seq.a)),
            "max_abs_yaw_rate": float(np.max(np.abs(seq.omega))),
        },
    )


def label_speed_peak_half(seq, summary, cfg, clip_id=""):
    """Half containing the earliest speed maximum; flat clips have no peak."""
    eff = cfg.scaled()
    v = seq.v
    spread = float(np.max(v) - np.min(v))
    mid = half_split_index(seq.n)
    if spread < eff.peak_epsilon:
        answer = "no_peak"
        peak_idx = -1
    else:
        peak_idx = int(np.argmax(v))
        answer = "first_half" if peak_idx <= mid else "second_half"
    return QARecord(
        clip_id,
        "speed_peak_half",
        answer,
        "argmax_half_split",
        {"peak_epsilon": eff.peak_epsilon, "alpha": cfg.alpha},
        {"speed_spread": spread, "peak_index": peak_idx, "mid_index": mid},
    )


def label_contrastive_halves(seq, summary, cfg, clip_id=""):
    """Which half is more dynamic, by mean absolute jerk per half."""
    eff = cfg.scaled()
    mid = half_split_index(seq.n)
    d1 = float(np.mean(np.abs(seq.j[: mid + 1])))
    d2 = float(np.mean(np.abs(seq.j[mid + 1 :])))
    band = max(eff.contrastive_rel_band * max(d1, d2), eff.contrastive_abs_band)
    if abs(d1 - d2) <= band:
        answer = "similar"
    else:
        answer = "first_half" if d1 > d2 else "second_half"
    return QARecord(
        clip_id,
        "contrastive_halves",
        answer,
        "half_jerk_contrast",
        {
            "contrastive_rel_band": eff.contrastive_rel_band,
            "contrastive_abs_band": eff.contrastive_abs_band,
            "alpha": cfg.alpha,
        },
        {"dynamism_first": d1, "dynamism_second": d2, "band": band},
    )


def _ordered_pair_exists(first_mask: np.ndarray, second_mask: np.ndarray) -> bool:
    """True when some index in first_mask strictly precedes one in second."""
    if not first_mask.any():
        return False
    start = int(np.argmax(first_mask))
    return bool(second_mask[start + 1 :].any())


_LABELERS = {
    "turn_direction": label_turn_direction,
    "braking_intensity": label_braking_intensity,
    "speed_regime": label_speed_regime,
    "driving_smoothness": label_driving_smoothness,
    "speed_trend": label_speed_trend,
    "mean_speed_low": label_mean_speed_low,
    "heading_change": label_heading_change,
    "extreme_maneuver": label_extreme_maneuver,
    "motion_axis": label_motion_axis,
    "lateral_accel": label_lateral_accel,
    "stop_and_go": label_stop_and_go,
    "brake_then_turn": label_brake_then_turn,
    "speed_peak_half": label_speed_peak_half,
    "contrastive_halves": label_contrastive_halves,
}


def label_all(
    seq: StateSequence,
    summary: KinematicSummary | None = None,
    cfg: ThresholdConfig | None = None,
    clip_id: str = "",
) -> list[QARecord]:
    """Answer all 14 questions for one clip, in canonical order."""
    cfg = cfg or ThresholdConfig()
    if summary is None:
        summary = summarize(seq, heading_mode=cfg.heading_total_mode)
    return [_LABELERS[q](seq, summary, cfg, clip_id) for q in QUESTION_ORDER]


def answers_of(records: list[QARecord]) -> dict[str, str]:
    """Collapse QARecords to a question -> answer mapping."""
    return {r.question_id: r.answer for r in records}
