"""Calibrated decision thresholds for the labeling oracle.

All magnitudes are in SI units (m/s, m/s^2, m/s^3, rad, rad/s). ``alpha``
uniformly scales every numeric threshold; sign-carrying thresholds
(negative accelerations) scale in magnitude with their sign preserved.
Comparisons are strict in the quoted direction everywhere, so a value
sitting exactly on a boundary falls to the less extreme class.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .io import read_json, write_json

# The fields that are not numbers; with alpha, excluded from alpha scaling.
_FLAG_FIELDS = ("stop_go_bidirectional", "heading_total_mode")
_UNSCALED_FIELDS = {"alpha", *_FLAG_FIELDS}


def _finite_real(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer too large for a float
        return False


@dataclass(frozen=True)
class ThresholdConfig:
    """Every oracle threshold plus the perturbation factor ``alpha``.

    ``peak_epsilon``, ``contrastive_rel_band`` and ``contrastive_abs_band``
    back the three rules whose numeric boundaries are engine choices
    rather than calibrated values; they are carried here so runs remain
    fully reproducible from one serialized document.
    """

    turn_deadzone: float = 0.04          # rad/s
    brake_emergency: float = -1.59       # m/s^2
    brake_moderate: float = -0.89
    brake_low: float = -0.18
    speed_stopped: float = 0.5           # m/s
    speed_slow: float = 5.0
    speed_urban: float = 13.9
    jerk_smooth: float = 1.25            # m/s^3
    jerk_moderate: float = 2.15
    trend_deadzone: float = 0.25         # m/s^2
    lat_accel_high: float = 2.0          # m/s^2
    heading_change_min: float = 0.2618   # rad
    extreme_jerk: float = 20.0           # m/s^3
    extreme_accel: float = -3.924        # m/s^2
    stopgo_stop: float = 0.5             # m/s
    stopgo_move: float = 2.0
    btt_brake: float = -1.5              # m/s^2
    btt_yaw: float = 0.1                 # rad/s
    mean_speed_low: float = 5.0          # m/s
    peak_epsilon: float = 0.5            # m/s, speed range below which no peak
    contrastive_rel_band: float = 0.15   # relative similarity band
    contrastive_abs_band: float = 0.1    # m/s^3, absolute similarity floor
    alpha: float = 1.0
    stop_go_bidirectional: bool = False
    heading_total_mode: str = "net"      # "net" | "sum"

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name not in _FLAG_FIELDS and not _finite_real(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if not isinstance(self.stop_go_bidirectional, bool):
            raise ConfigError(
                f"stop_go_bidirectional must be true or false, got {self.stop_go_bidirectional!r}"
            )
        for name in ("trend_deadzone", "lat_accel_high"):  # motion_axis divides by them
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not (self.brake_emergency < self.brake_moderate < self.brake_low < 0):
            raise ConfigError("brake thresholds must be ordered and negative")
        if not (self.speed_stopped < self.speed_slow < self.speed_urban):
            raise ConfigError("speed regime thresholds must be increasing")
        if not (self.jerk_smooth < self.jerk_moderate):
            raise ConfigError("jerk thresholds must be increasing")
        if not (self.stopgo_stop < self.stopgo_move):
            raise ConfigError("stop-and-go thresholds must be increasing")
        if not self.alpha > 0:
            raise ConfigError("alpha must be a positive finite factor")
        if self.heading_total_mode not in ("net", "sum"):
            raise ConfigError("heading_total_mode must be 'net' or 'sum'")

    def scaled(self) -> "ThresholdConfig":
        """Thresholds with ``alpha`` applied uniformly; alpha resets to 1."""
        if self.alpha == 1.0:
            return self
        updates = {
            f.name: getattr(self, f.name) * self.alpha
            for f in dataclasses.fields(self)
            if f.name not in _UNSCALED_FIELDS
        }
        updates["alpha"] = 1.0
        return dataclasses.replace(self, **updates)

    def with_alpha(self, alpha: float) -> "ThresholdConfig":
        return dataclasses.replace(self, alpha=alpha)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ThresholdConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown threshold fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path: str | Path) -> "ThresholdConfig":
        """The thresholds of a JSON file; a ``ConfigError`` names the file."""
        data = read_json(path)
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def calibrate_thresholds(
    summaries: dict[str, np.ndarray], base: ThresholdConfig | None = None
) -> ThresholdConfig:
    """Re-derive the percentile-calibrated boundaries from a corpus's
    ``kinematics.summarize_batch`` columns.

    Braking buckets come from P25/P50/P75 of the per-clip minimum
    acceleration distribution (three boundaries for four classes). The
    two jerk boundaries come from P50/P75 of the per-clip mean absolute
    jerk: the aggressive class then covers roughly the top quartile of
    the corpus. Physics-anchored thresholds are left untouched.
    """
    base = base or ThresholdConfig()
    if not len(summaries["min_accel"]):
        raise ConfigError("calibration needs a non-empty corpus")
    brake = np.percentile(summaries["min_accel"], [25, 50, 75])
    jerk = np.percentile(summaries["mean_abs_jerk"], [50, 75])
    if not (brake[0] < brake[1] < brake[2] < 0):
        raise ConfigError(
            "degenerate braking distribution: percentiles are not ordered "
            "negative values"
        )
    if not (0 < jerk[0] < jerk[1]):
        raise ConfigError("degenerate jerk distribution")
    return dataclasses.replace(
        base,
        brake_emergency=float(brake[0]),
        brake_moderate=float(brake[1]),
        brake_low=float(brake[2]),
        jerk_smooth=float(jerk[0]),
        jerk_moderate=float(jerk[1]),
    )
