"""Parametric 3-second maneuvers with analytically known kinematics.

Each maneuver kind builds its channels from closed forms on the 31-point
grid and also derives the expected answer to every question symbolically,
using its own literal threshold constants and plain-Python rule logic.
That expected path never touches the labeling oracle, so comparing the
two is a genuine cross-check rather than the oracle testing itself.

Maneuver profiles are piecewise: acceleration is linear within a segment
(constant jerk), yaw rate is constant within a segment. The lane-change
kind uses a sinusoidal yaw-rate pulse instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ImplausibleSpec
from .kinematics import StateSequence
from .questions import QUESTION_ORDER

GRID_RATE_HZ = 10.0
GRID_SAMPLES = 31  # 3 s inclusive of both endpoints

MAX_ABS_ACCEL = 10.0   # m/s^2
MAX_ABS_YAW = 1.0      # rad/s
MAX_SPEED = 45.0       # m/s

KINDS = (
    "constant_speed",
    "constant_accel",
    "brake_profile",
    "arc_turn",
    "lane_change",
    "stop_and_go",
    "brake_then_turn",
    "jerk_burst",
    "composite",
)


@dataclass(frozen=True)
class ManeuverSpec:
    """One maneuver: kind, kind-specific parameters, seed, channel noise."""

    kind: str
    params: Mapping[str, object]
    seed: int = 0
    noise_std: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ImplausibleSpec(f"unknown maneuver kind {self.kind!r}")


@dataclass(frozen=True)
class Segment:
    """Piecewise profile element: a(t) = accel + jerk * s, omega constant."""

    duration: float
    accel: float = 0.0
    jerk: float = 0.0
    omega: float = 0.0


def _grid() -> np.ndarray:
    return np.arange(GRID_SAMPLES) / GRID_RATE_HZ


def _channels_from_segments(v0: float, segments: Sequence[Segment]):
    total = sum(s.duration for s in segments)
    if abs(total - 3.0) > 1e-6:
        raise ImplausibleSpec(f"segments span {total:.3f} s, need 3.0 s")
    if any(s.duration <= 0 for s in segments):
        raise ImplausibleSpec("segment durations must be positive")

    starts = np.concatenate([[0.0], np.cumsum([s.duration for s in segments])])
    v_starts = [v0]
    th_starts = [0.0]
    for seg in segments:
        d = seg.duration
        v_starts.append(v_starts[-1] + seg.accel * d + seg.jerk * d * d / 2.0)
        th_starts.append(th_starts[-1] + seg.omega * d)

    t = _grid()
    v = np.empty_like(t)
    a = np.empty_like(t)
    j = np.empty_like(t)
    omega = np.empty_like(t)
    theta = np.empty_like(t)
    for i, ti in enumerate(t):
        k = int(np.searchsorted(starts, ti, side="right")) - 1
        k = min(k, len(segments) - 1)
        seg = segments[k]
        s = ti - starts[k]
        a[i] = seg.accel + seg.jerk * s
        j[i] = seg.jerk
        v[i] = v_starts[k] + seg.accel * s + seg.jerk * s * s / 2.0
        omega[i] = seg.omega
        theta[i] = th_starts[k] + seg.omega * s
    return t, v, a, j, omega, theta


def _lane_change_channels(v0: float, yaw_amp: float, period: float):
    t = _grid()
    w = 2.0 * math.pi / period
    omega = yaw_amp * np.sin(w * t)
    theta = (yaw_amp / w) * (1.0 - np.cos(w * t))
    v = np.full_like(t, v0)
    a = np.zeros_like(t)
    j = np.zeros_like(t)
    return t, v, a, j, omega, theta


def _build_channels(spec: ManeuverSpec):
    p = dict(spec.params)
    kind = spec.kind
    if kind == "constant_speed":
        return _channels_from_segments(p["v0"], [Segment(3.0)])
    if kind == "constant_accel":
        return _channels_from_segments(p["v0"], [Segment(3.0, accel=p["accel"])])
    if kind == "brake_profile":
        return _channels_from_segments(p["v0"], _brake_segments(p))
    if kind == "arc_turn":
        yaw = p.get("yaw_rate")
        if yaw is None:
            yaw = p["v0"] / p["radius"]
        return _channels_from_segments(p["v0"], [Segment(3.0, omega=yaw)])
    if kind == "lane_change":
        return _lane_change_channels(p["v0"], p["yaw_amp"], p.get("period", 3.0))
    if kind == "stop_and_go":
        ramp = (p["v_high"] - p["v_low"]) / p["accel"]
        rest = 3.0 - p["t_go"] - ramp
        if ramp <= 0 or rest <= 0:
            raise ImplausibleSpec("stop-and-go ramp does not fit the window")
        segs = [
            Segment(p["t_go"]),
            Segment(ramp, accel=p["accel"]),
            Segment(rest),
        ]
        return _channels_from_segments(p["v_low"], segs)
    if kind == "brake_then_turn":
        segs = [
            Segment(p["t_brake_start"]),
            Segment(p["t_brake_end"] - p["t_brake_start"], accel=p["brake_accel"]),
            Segment(p["t_turn_start"] - p["t_brake_end"]),
            Segment(p["t_turn_end"] - p["t_turn_start"], omega=p["yaw_rate"]),
        ]
        tail = 3.0 - p["t_turn_end"]
        if tail > 0:
            segs.append(Segment(tail))
        return _channels_from_segments(p["v0"], segs)
    if kind == "jerk_burst":
        return _channels_from_segments(p["v0"], _jerk_wave_segments(p))
    if kind == "composite":
        segs = [
            Segment(
                duration=s["duration"],
                accel=s.get("accel", 0.0),
                jerk=s.get("jerk", 0.0),
                omega=s.get("omega", 0.0),
            )
            for s in p["segments"]
        ]
        return _channels_from_segments(p.get("v0", 0.0), segs)
    raise ImplausibleSpec(f"unknown maneuver kind {kind!r}")


def _brake_segments(p: dict) -> list[Segment]:
    accel = p["accel"]
    t_start, t_end = p["t_start"], p["t_end"]
    ramp = p.get("ramp", 0.2)
    segs = [Segment(t_start)] if t_start > 0 else []
    segs.append(Segment(ramp, accel=0.0, jerk=accel / ramp))
    if t_end >= 3.0:
        hold = 3.0 - t_start - ramp
        segs.append(Segment(hold, accel=accel))
    else:
        hold = t_end - t_start - 2.0 * ramp
        if hold <= 0:
            raise ImplausibleSpec("braking window too short for the ramps")
        segs.append(Segment(hold, accel=accel))
        segs.append(Segment(ramp, accel=accel, jerk=-accel / ramp))
        if 3.0 - t_end > 0:
            segs.append(Segment(3.0 - t_end))
    return segs


def _jerk_wave_segments(p: dict) -> list[Segment]:
    """Zero-net-impulse jerk waves: a rises, swings negative, returns to 0."""
    amp = p["jerk_amp"]
    width = p.get("width", 0.1)
    cycles = int(p.get("cycles", 1))
    t_start = p["t_start"]
    segs = [Segment(t_start)] if t_start > 0 else []
    for _ in range(cycles):
        segs.append(Segment(width, accel=0.0, jerk=amp))
        segs.append(Segment(2.0 * width, accel=amp * width, jerk=-amp))
        segs.append(Segment(width, accel=-amp * width, jerk=amp))
    tail = 3.0 - t_start - cycles * 4.0 * width
    if tail < -1e-9:
        raise ImplausibleSpec("jerk waves do not fit the window")
    if tail > 0:
        segs.append(Segment(tail))
    return segs


def _check_plausibility(v, a, omega) -> None:
    if np.min(v) < -1e-9 or np.max(v) > MAX_SPEED:
        raise ImplausibleSpec(
            f"speed range [{np.min(v):.2f}, {np.max(v):.2f}] outside "
            f"[0, {MAX_SPEED}]"
        )
    if np.max(np.abs(a)) > MAX_ABS_ACCEL + 1e-9:
        raise ImplausibleSpec("acceleration magnitude exceeds 10 m/s^2")
    if np.max(np.abs(omega)) > MAX_ABS_YAW + 1e-9:
        raise ImplausibleSpec("yaw rate magnitude exceeds 1 rad/s")


# Literal nominal thresholds: this path deliberately does not import the
# engine's threshold configuration.
def expected_labels_from_channels(t, v, a, j, omega, theta) -> dict[str, str]:
    """Answer all 14 questions with plain-Python logic and literal bounds."""
    n = len(t)
    v = [float(x) for x in v]
    a = [float(x) for x in a]
    j = [float(x) for x in j]
    omega = [float(x) for x in omega]
    theta = [float(x) for x in theta]
    labels: dict[str, str] = {}

    peak_idx = 0
    for i in range(1, n):
        if abs(omega[i]) > abs(omega[peak_idx]):
            peak_idx = i
    w_peak = omega[peak_idx]
    if w_peak > 0.04:
        labels["turn_direction"] = "left"
    elif w_peak < -0.04:
        labels["turn_direction"] = "right"
    else:
        labels["turn_direction"] = "straight"

    min_a = min(a)
    if min_a < -1.59:
        labels["braking_intensity"] = "emergency"
    elif min_a < -0.89:
        labels["braking_intensity"] = "moderate"
    elif min_a < -0.18:
        labels["braking_intensity"] = "low"
    else:
        labels["braking_intensity"] = "none"

    max_v = max(v)
    if max_v < 0.5:
        labels["speed_regime"] = "stopped"
    elif max_v < 5.0:
        labels["speed_regime"] = "slow"
    elif max_v < 13.9:
        labels["speed_regime"] = "urban"
    else:
        labels["speed_regime"] = "highway"

    mean_abs_j = sum(abs(x) for x in j) / n
    if mean_abs_j <= 1.25:
        labels["driving_smoothness"] = "smooth"
    elif mean_abs_j <= 2.15:
        labels["driving_smoothness"] = "moderate"
    else:
        labels["driving_smoothness"] = "aggressive"

    mean_a = sum(a) / n
    if mean_a > 0.25:
        labels["speed_trend"] = "accelerating"
    elif mean_a < -0.25:
        labels["speed_trend"] = "decelerating"
    else:
        labels["speed_trend"] = "steady"

    mean_v = sum(v) / n
    labels["mean_speed_low"] = "yes" if mean_v < 5.0 else "no"

    heading_change = abs(theta[-1] - theta[0])
    labels["heading_change"] = "yes" if heading_change > 0.2618 else "no"

    max_abs_j = max(abs(x) for x in j)
    extreme = max_abs_j > 20.0 or min_a < -3.924
    labels["extreme_maneuver"] = "yes" if extreme else "no"

    max_lat = max(v[i] * abs(omega[i]) for i in range(n))
    lon_activity = abs(mean_a) / 0.25
    lat_activity = max_lat / 2.0
    if lon_activity < 1.0 and lat_activity < 1.0:
        labels["motion_axis"] = "none"
    elif lon_activity >= lat_activity:
        labels["motion_axis"] = "longitudinal"
    else:
        labels["motion_axis"] = "lateral"

    labels["lateral_accel"] = "yes" if max_lat > 2.0 else "no"

    seen_stopped = False
    stop_go = False
    for val in v:
        if seen_stopped and val > 2.0:
            stop_go = True
            break
        if val < 0.5:
            seen_stopped = True
    labels["stop_and_go"] = "yes" if stop_go else "no"

    braked = False
    brake_turn = False
    for i in range(n):
        if braked and abs(omega[i]) > 0.1:
            brake_turn = True
            break
        if a[i] < -1.5:
            braked = True
    labels["brake_then_turn"] = "yes" if brake_turn else "no"

    mid = (n - 1) // 2
    spread = max_v - min(v)
    if spread < 0.5:
        labels["speed_peak_half"] = "no_peak"
    else:
        arg = 0
        for i in range(1, n):
            if v[i] > v[arg]:
                arg = i
        labels["speed_peak_half"] = "first_half" if arg <= mid else "second_half"

    d1 = sum(abs(x) for x in j[: mid + 1]) / (mid + 1)
    d2 = sum(abs(x) for x in j[mid + 1 :]) / (n - mid - 1)
    band = max(0.15 * max(d1, d2), 0.1)
    if abs(d1 - d2) <= band:
        labels["contrastive_halves"] = "similar"
    elif d1 > d2:
        labels["contrastive_halves"] = "first_half"
    else:
        labels["contrastive_halves"] = "second_half"

    assert set(labels) == set(QUESTION_ORDER)
    return labels


def generate(spec: ManeuverSpec) -> tuple[StateSequence, dict[str, str]]:
    """Build one clip and its symbolically expected 14 answers.

    Noise (if configured) uses the maneuver's own seed and is applied
    after the expected labels are derived from the clean closed forms.
    """
    t, v, a, j, omega, theta = _build_channels(spec)
    _check_plausibility(v, a, omega)
    expected = expected_labels_from_channels(t, v, a, j, omega, theta)

    v = np.maximum(v, 0.0)
    if spec.noise_std:
        rng = np.random.default_rng(spec.seed)
        sigma = dict(spec.noise_std)
        v = np.maximum(v + rng.normal(0, sigma.get("v", 0.0), v.shape), 0.0)
        a = a + rng.normal(0, sigma.get("a", 0.0), a.shape)
        j = j + rng.normal(0, sigma.get("j", 0.0), j.shape)
        omega = omega + rng.normal(0, sigma.get("omega", 0.0), omega.shape)
        theta = theta + rng.normal(0, sigma.get("theta", 0.0), theta.shape)

    vx = v * np.cos(theta)
    vy = v * np.sin(theta)
    dt = 1.0 / GRID_RATE_HZ
    x = np.concatenate([[0.0], np.cumsum((vx[1:] + vx[:-1]) * 0.5 * dt)])
    y = np.concatenate([[0.0], np.cumsum((vy[1:] + vy[:-1]) * 0.5 * dt)])
    seq = StateSequence(t=t, v=v, a=a, j=j, omega=omega, theta=theta, x=x, y=y)
    return seq, expected


@dataclass(frozen=True)
class SuiteClip:
    clip_id: str
    template: str
    spec: ManeuverSpec
    seq: StateSequence
    expected: dict[str, str]


# Templates keep every sampled parameter at least 20% away from the
# thresholds that decide its labels, so small channel noise cannot flip
# the expected answers. Ranges are (lo, hi); scalars are fixed.
_TEMPLATES: tuple[tuple[str, str, dict], ...] = (
    ("cruise_urban", "constant_speed", {"v0": (7.0, 11.0)}),
    ("cruise_stopped", "constant_speed", {"v0": (0.05, 0.35)}),
    ("cruise_slow", "constant_speed", {"v0": (1.0, 3.9)}),
    ("cruise_highway", "constant_speed", {"v0": (17.0, 30.0)}),
    ("gentle_accel", "constant_accel", {"v0": (6.5, 8.0), "accel": (0.4, 0.9)}),
    ("gentle_decel", "constant_accel", {"v0": (9.0, 10.5), "accel": (-0.75, -0.45)}),
    (
        "brake_moderate",
        "brake_profile",
        {"v0": (8.5, 10.0), "accel": (-1.25, -1.1), "t_start": 0.5, "t_end": 2.5},
    ),
    (
        "brake_emergency",
        "brake_profile",
        {"v0": (17.5, 19.0), "accel": (-2.6, -2.2), "t_start": 0.5, "t_end": 3.0},
    ),
    (
        "brake_extreme",
        "brake_profile",
        {
            "v0": (20.0, 22.0),
            "accel": (-5.0, -4.8),
            "t_start": 1.0,
            "t_end": 3.0,
            "ramp": 0.4,
        },
    ),
    ("arc_left_mild", "arc_turn", {"v0": (6.0, 7.5), "yaw_rate": (0.15, 0.2)}),
    ("arc_right_mild", "arc_turn", {"v0": (6.0, 7.5), "yaw_rate": (-0.2, -0.15)}),
    ("arc_left_lateral", "arc_turn", {"v0": (9.0, 10.5), "yaw_rate": (0.27, 0.33)}),
    ("arc_right_lateral", "arc_turn", {"v0": (9.0, 10.5), "yaw_rate": (-0.33, -0.27)}),
    ("straight_drift", "arc_turn", {"v0": (7.0, 9.0), "yaw_rate": (-0.025, 0.025)}),
    ("lane_change", "lane_change", {"v0": (9.5, 11.0), "yaw_amp": (0.28, 0.33)}),
    (
        "stop_go",
        "stop_and_go",
        {
            "v_low": (0.1, 0.3),
            "v_high": (3.6, 4.0),
            "t_go": (0.8, 1.0),
            "accel": (2.0, 2.4),
        },
    ),
    (
        "brake_turn",
        "brake_then_turn",
        {
            "v0": (9.5, 11.0),
            "brake_accel": (-2.4, -2.0),
            "t_brake_start": 0.4,
            "t_brake_end": 1.4,
            "yaw_rate": (0.14, 0.17),
            "t_turn_start": 1.8,
            "t_turn_end": 2.9,
        },
    ),
    (
        "jerk_moderate",
        "jerk_burst",
        {"v0": (7.5, 9.0), "jerk_amp": (5.9, 6.6), "t_start": 1.2, "cycles": 2},
    ),
    (
        "jerk_aggressive",
        "jerk_burst",
        {"v0": (7.5, 9.0), "jerk_amp": (11.0, 12.0), "t_start": 0.4, "cycles": 2},
    ),
    (
        "jerk_extreme",
        "jerk_burst",
        {"v0": (8.0, 9.0), "jerk_amp": (26.0, 30.0), "t_start": 2.0, "cycles": 1},
    ),
    (
        "accel_to_highway",
        "constant_accel",
        {"v0": (13.0, 14.0), "accel": (1.3, 1.6)},
    ),
    ("slow_drift", "constant_accel", {"v0": (1.5, 2.0), "accel": (0.35, 0.45)}),
)

TEMPLATE_NAMES: tuple[str, ...] = tuple(name for name, _, _ in _TEMPLATES)


def _sample_params(rng: np.random.Generator, ranges: dict) -> dict:
    params = {}
    for key, value in ranges.items():
        if isinstance(value, tuple):
            lo, hi = value
            params[key] = float(rng.uniform(lo, hi))
        else:
            params[key] = value
    return params


def _mix_weights(regime_mix) -> tuple[list[str], np.ndarray]:
    """Template names of a non-empty ``regime_mix`` in sorted order, and
    their draw probabilities; an unusable mix is a ``ConfigError``."""
    if not isinstance(regime_mix, Mapping):
        raise ConfigError(
            f"regime_mix must map template names to weights, got {type(regime_mix).__name__}"
        )
    unknown = set(regime_mix) - set(TEMPLATE_NAMES)
    if unknown:
        raise ConfigError(f"unknown templates in regime_mix: {sorted(unknown)}")
    names = sorted(regime_mix)
    for name in names:
        weight = regime_mix[name]
        real = isinstance(weight, numbers.Real) and not isinstance(weight, bool)
        if not (real and 0 <= weight < math.inf):
            raise ConfigError(
                f"regime_mix weight of {name!r} must be a finite number >= 0, got {weight!r}"
            )
    weights = np.array([regime_mix[name] for name in names], dtype=float)
    if weights.sum() <= 0:
        raise ConfigError("regime_mix weights must not all be zero")
    return names, weights / weights.sum()


def generate_suite(
    count: int,
    seed: int = 0,
    regime_mix: Mapping[str, float] | None = None,
    noise_std: Mapping[str, float] | None = None,
) -> list[SuiteClip]:
    """Deterministic, seed-reproducible suite of labeled clips.

    The first pass cycles through every template so each answer class of
    each question is covered; with ``regime_mix`` given, clips beyond the
    first full cycle are drawn by the supplied per-template weights.
    """
    no_mix = regime_mix is None or regime_mix == {}
    mix_names, weights = (None, None) if no_mix else _mix_weights(regime_mix)
    rng = np.random.default_rng(seed)
    by_name = {name: (name, kind, ranges) for name, kind, ranges in _TEMPLATES}
    clips = []
    for i in range(count):
        if mix_names and i >= len(_TEMPLATES):
            name = mix_names[int(rng.choice(len(mix_names), p=weights))]
            template = by_name[name]
        else:
            template = _TEMPLATES[i % len(_TEMPLATES)]
        name, kind, ranges = template
        params = _sample_params(rng, ranges)
        spec = ManeuverSpec(
            kind,
            params,
            seed=int(rng.integers(0, 2**31 - 1)),
            noise_std=noise_std,
        )
        seq, expected = generate(spec)
        clips.append(SuiteClip(f"synth_{i:04d}", name, spec, seq, expected))
    return clips
