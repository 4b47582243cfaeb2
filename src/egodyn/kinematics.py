"""Kinematic state derivation from raw pose or rate logs.

Raw logs are resampled onto a uniform grid, smoothed, and differentiated
into the full state chain (speed, longitudinal acceleration, jerk, yaw
rate, heading). The default grid is a 3-second window at 10 Hz with
inclusive endpoints, i.e. 31 samples; sample 15 is the midpoint and
belongs to the first half wherever a clip is split in two.

Smoothing is least-squares polynomial (Savitzky-Golay) and is applied
before every differentiation stage: positions and heading, then speed,
then acceleration, each with window 7 and order 2 (``SAVGOL_WINDOW``,
``SAVGOL_ORDER``). Edge samples are filled from the polynomial fitted to
the terminal window (scipy's ``interp`` mode), which keeps the filter
exact on polynomials up to the fit order; differentiation uses
second-order central differences with second-order one-sided stencils at
the ends.

The filter weights are one table per (window, order): the least-squares
hat matrix, solved once in exact integer arithmetic and rounded once to
float (``_savgol_table``). Its centre row gives the interior weights, exactly
(-2, 3, 6, 7, 6, 3, -2) / 21 rounded for (7, 2), and its other rows give
the edge values. Each output is a sum of weight times sample added in
sample order, with numpy's elementwise multiply and add and no BLAS
call, so the derived bytes are the same on every machine and BLAS
kernel. scipy's ``savgol_filter`` computes the same filter with
``lstsq`` weights, which are not exact and move with the BLAS kernel; at
(7, 2) the two agree within 1e-14 of a row's largest sample. Importing
this module loads no scipy.

Derivation and summaries run on batches: the channels of N clips that
share a sample count are stacked into (N, n) arrays and every step runs
once per batch along the last, contiguous axis. Reductions along that
axis give each row the same floats as the clip computed alone, so the
per-clip functions are batches of one. Resampling takes G raw logs of
any lengths laid end to end in 1-D arrays: their grids are built and
checked at once, heading is unwrapped once per sample count, and each
log is interpolated with ``np.interp``, so every log gets the bytes it
gets alone. A derived batch comes back as checked StateSequences, views
into its (N, n) arrays, checked in one pass. A batch's checks fail when
any clip fails them; callers that must name the failing clip run each
clip alone, in input order, after a failure. Summaries stay columns
(``summarize_batch``) through labeling and calibration up to the written
rows (``summary_rows``); ``summarize`` gives one clip's ``KinematicSummary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    EvenWindow,
    InsufficientSpan,
    InvalidTrajectory,
    NonMonotonicTime,
    WindowTooLarge,
)

GRID_TOLERANCE_S = 1e-9
# A timestamp is off by up to half an ulp, so two spacings of a uniform grid
# can differ by two ulps of its largest timestamp. The grid checks forgive
# GRID_ULPS of them on top of GRID_TOLERANCE_S: 9.5e-7 s at Unix-epoch
# seconds (1.7e9 s), 1.8e-15 s below 4 s.
GRID_ULPS = 4.0
# Savitzky-Golay window and polynomial order of every smoothing stage.
SAVGOL_WINDOW, SAVGOL_ORDER = 7, 2

# Midpoint sample of an odd-length grid belongs to the first half.
def half_split_index(n: int) -> int:
    """Last index (inclusive) of the first half of an n-sample clip."""
    return (n - 1) // 2


@dataclass(frozen=True)
class PoseSample:
    """One raw pose log row: time, planar position, heading in radians."""

    t: float
    x: float
    y: float
    heading: float

    def __post_init__(self) -> None:
        for name in ("t", "x", "y", "heading"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidTrajectory(f"non-finite {name} in pose sample")


class StateSequence:
    """Time-aligned kinematic channels for one clip on a uniform grid.

    Channels: t (s), v (m/s, >= 0), a (m/s^2, longitudinal), j (m/s^3),
    omega (rad/s, positive = left), theta (rad, unwrapped). Planar x, y
    (m) are optional and only needed by the coordinate text encoding.
    """

    __slots__ = ("t", "v", "a", "j", "omega", "theta", "x", "y")

    def __init__(self, t, v, a, j, omega, theta, x=None, y=None):
        self.t = np.asarray(t, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.j = np.asarray(j, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        self.theta = np.asarray(theta, dtype=float)
        self.x = None if x is None else np.asarray(x, dtype=float)
        self.y = None if y is None else np.asarray(y, dtype=float)
        self._validate()

    @classmethod
    def _from_checked(cls, t, v, a, j, omega, theta, x, y) -> "StateSequence":
        """A sequence of float channels that ``_check_states`` has passed."""
        seq = cls.__new__(cls)
        seq.t, seq.v, seq.a, seq.j, seq.omega, seq.theta, seq.x, seq.y = (
            t, v, a, j, omega, theta, x, y)
        return seq

    def _validate(self) -> None:
        channels = [self.v, self.a, self.j, self.omega, self.theta]
        channels += [c for c in (self.x, self.y) if c is not None]
        # under 2 samples, _check_states says so before any length is compared
        if self.t.size >= 2 and any(c.size != self.t.size for c in channels):
            raise InvalidTrajectory("all channels must have equal length")
        _check_states(self.t, *channels)

    @property
    def n(self) -> int:
        return self.t.size

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])

    def has_position(self) -> bool:
        return self.x is not None and self.y is not None


@dataclass(frozen=True)
class KinematicSummary:
    """Clip-level aggregates of the state chain.

    ``max_lat_accel`` is the per-sample peak of v * |omega|;
    ``total_heading_change`` is the net unwrapped heading change by
    default (sum-of-absolute-increments available via ``summarize``).
    ``percentiles`` holds P25/P50/P75 of the braking-relevant channels
    (longitudinal acceleration and absolute jerk).
    """

    max_speed: float
    mean_speed: float
    min_accel: float
    max_accel: float
    mean_accel: float
    max_abs_jerk: float
    mean_abs_jerk: float
    max_abs_yaw_rate: float
    max_lat_accel: float
    total_heading_change: float
    percentiles: dict[str, dict[str, float]]


def _check_states(t: np.ndarray, v: np.ndarray, *channels: np.ndarray) -> None:
    """The checks of a StateSequence, on one clip's channels or on (N, n)
    rows of them, all of ``t``'s shape: at least 2 samples, every channel
    finite, a uniform grid, and ``v >= 0``."""
    if t.ndim == 0 or t.shape[-1] < 2:
        raise InvalidTrajectory("state sequence needs at least 2 samples")
    if not all(np.isfinite(c).all() for c in (t, v, *channels)):
        raise InvalidTrajectory("NaN/Inf in state sequence")
    _grid_spacing(t.reshape(-1, t.shape[-1]))
    if (v < 0).any():
        raise InvalidTrajectory("speed channel must be non-negative")


def _sequences(*channels: np.ndarray) -> list[StateSequence]:
    """The rows of (N, n) channels t, v, a, j, omega, theta, x, y as
    StateSequences (views), checked in one pass as ``StateSequence`` checks
    one; this fails when any row fails, and each row alone names which."""
    _check_states(*channels)
    return [StateSequence._from_checked(*row) for row in zip(*channels)]


def _wrap_angle(values: np.ndarray) -> np.ndarray:
    """Wrap radians into (-pi, pi]."""
    return np.pi - np.mod(np.pi - values, 2.0 * np.pi)


def _grid_spacing(t: np.ndarray) -> np.ndarray:
    """Sample spacing of each row of (N, n) uniform grids, as an (N, 1) column.

    Raises:
        NonMonotonicTime: a grid's timestamps do not strictly increase.
        InvalidTrajectory: a grid's spacing varies by more than 1e-9 s
            beyond the rounding of its timestamps (``GRID_ULPS``).
    """
    dts = np.diff(t, axis=-1)
    if np.any(dts <= 0):
        raise NonMonotonicTime("grid timestamps must strictly increase")
    deviation = np.abs(dts - dts[:, :1])
    if np.any(deviation > GRID_TOLERANCE_S):  # which grids near 0 s pass
        largest = np.abs(t).max(axis=-1, keepdims=True)
        if np.any(deviation > GRID_TOLERANCE_S + GRID_ULPS * np.spacing(largest)):
            raise InvalidTrajectory("grid spacing must be constant within 1e-9 s")
    return dts[:, :1]


def _log_bounds(lengths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The first and one-past-last sample of each of G logs laid end to end,
    log i holding ``lengths[i]`` samples."""
    lengths = np.asarray(lengths, dtype=np.intp)
    ends = np.cumsum(lengths)
    return ends - lengths, ends


def _by_length(lengths: Sequence[int]) -> Iterator[np.ndarray]:
    """The sample indices of the logs laid end to end that share a sample
    count n, as one (k, n) array per count."""
    starts, ends = _log_bounds(lengths)
    lengths = ends - starts
    order = np.argsort(lengths, kind="stable")
    for logs in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        yield starts[logs, None] + np.arange(lengths[logs[0]])


def _uniform_grid(
    t: np.ndarray, starts: np.ndarray, ends: np.ndarray, rate_hz: float, window_s: float
) -> np.ndarray:
    """The uniform grids of G raw logs laid end to end in ``t``, log i in
    ``t[starts[i]:ends[i]]``, as a (G, m) array: ``window_s`` from each
    log's first timestamp.

    Every check runs once over all logs and fails when any log fails it.
    """
    if rate_hz <= 0 or window_s <= 0:
        raise ValueError("rate_hz and window_s must be positive")
    if np.any(ends - starts < 2):
        raise InsufficientSpan("need at least 2 samples to resample")
    steps = np.diff(t)
    steps[ends[:-1] - 1] = np.inf  # from one log's last sample to the next log's first
    if np.any(steps <= 0):
        raise NonMonotonicTime("timestamps must strictly increase")
    first, last = t[starts], t[ends - 1]
    span = last - first
    short = span < (
        window_s - GRID_TOLERANCE_S - GRID_ULPS * np.spacing(np.maximum(abs(first), abs(last))))
    if short.any():
        span = float(span[short.argmax()])
        raise InsufficientSpan(
            f"log spans {span:.3f} s but window is {window_s:.3f} s "
            f"(short by {window_s - span:.3g} s)"
        )
    m = int(round(window_s * rate_hz)) + 1
    grid = first[:, None] + np.arange(m) / rate_hz
    # Timestamps whose ulp is near the spacing (1e15 s at 10 Hz, say) give
    # no uniform grid; reject it here rather than later at derivation.
    _grid_spacing(grid)
    return grid


def _resample(
    t: np.ndarray,
    channels: Sequence[np.ndarray],
    lengths: Sequence[int] | None,
    rate_hz: float,
    window_s: float,
    unwrap: Sequence[int] = (),
) -> list[np.ndarray]:
    """The grids, then each of ``channels`` interpolated onto them with
    ``np.interp``, for one log (``lengths`` None; 1-D results) or G logs
    laid end to end ((G, m) results). The channels at the indices
    ``unwrap`` are first unwrapped per log, as ``np.unwrap`` does."""
    t = np.asarray(t, dtype=float)
    channels = [np.asarray(c, dtype=float) for c in channels]
    counts = [t.size] if lengths is None else lengths
    starts, ends = _log_bounds(counts)
    if ends.size == 0 or ends[-1] != t.size:
        raise ValueError("lengths must be one or more sample counts adding up to t.size")
    grid = _uniform_grid(t, starts, ends, rate_hz, window_s)
    for k in unwrap:
        unwrapped = np.empty_like(channels[k])
        for samples in _by_length(counts):
            unwrapped[samples] = np.unwrap(channels[k][samples], axis=-1)
        channels[k] = unwrapped
    logs = list(map(slice, starts.tolist(), ends.tolist()))
    out = [grid] + [
        np.array([np.interp(g, t[log], c[log]) for g, log in zip(grid, logs)]) for c in channels
    ]
    return [c[0] for c in out] if lengths is None else out


def resample_pose_log(
    t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    rate_hz: float,
    window_s: float,
    lengths: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resample (t, x, y, heading) logs onto the uniform grid.

    Takes one log as 1-D arrays. With ``lengths``, the 1-D arrays hold G
    logs end to end, log i with ``lengths[i]`` samples; the grids of all of
    them are checked at once and the results are (G, m) arrays, one row per
    log, each with the bytes of that log resampled alone.
    Positions interpolate linearly; heading interpolates along the shortest
    arc so a 3.1 -> -3.1 rad pair passes through +/-pi, not through zero.
    Returns the grid, x, y and the heading wrapped into (-pi, pi].
    """
    grid, x, y, heading = _resample(t, (x, y, heading), lengths, rate_hz, window_s, unwrap=(2,))
    return grid, x, y, _wrap_angle(heading)


def resample_uniform(
    samples: list[PoseSample], rate_hz: float, window_s: float
) -> list[PoseSample]:
    """Resample a pose log onto a uniform grid covering exactly ``window_s``.

    The grid starts at the first timestamp and has round(window_s * rate_hz)
    + 1 samples (inclusive endpoints); see ``resample_pose_log``.

    Raises:
        NonMonotonicTime: timestamps are not strictly increasing.
        InsufficientSpan: the log covers less than ``window_s``.
    """
    grid, x, y, heading = resample_pose_log(
        np.array([s.t for s in samples], dtype=float),
        np.array([s.x for s in samples]),
        np.array([s.y for s in samples]),
        np.array([s.heading for s in samples]),
        rate_hz,
        window_s,
    )
    return [
        PoseSample(float(grid[i]), float(x[i]), float(y[i]), float(heading[i]))
        for i in range(grid.size)
    ]


def resample_rate_log(
    t: np.ndarray,
    v: np.ndarray,
    omega: np.ndarray,
    rate_hz: float,
    window_s: float,
    lengths: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resample (t, v, omega) logs onto the uniform grid; linear interp.

    Takes one log, or G logs end to end with ``lengths``, as
    ``resample_pose_log`` does.
    """
    return tuple(_resample(t, (v, omega), lengths, rate_hz, window_s))


@cache
def _savgol_table(window: int, poly_order: int) -> np.ndarray:
    """The least-squares hat matrix ``H = V (V^T V)^-1 V^T`` of the degree
    ``poly_order`` fit on the offsets 0..window-1, a read-only (window,
    window) array: row p holds the weights whose sum over a window of
    samples is the fitted polynomial's value at offset p.

    ``V`` is the Vandermonde matrix of the offsets, and the solve is exact,
    in integers: fraction-free (Bareiss) Gauss-Jordan elimination turns
    ``[V^T V | V^T]`` into ``[d I | d X]``, with ``d = det(V^T V)`` and
    ``X = (V^T V)^-1 V^T``, and every division in it is exact. Each entry
    of ``d H = V (d X)`` is divided by ``d`` once, which rounds it to the
    nearest float. No BLAS call is made, so the weights are the same on
    every machine.
    """
    degrees = range(poly_order + 1)
    vandermonde = [[i**k for k in degrees] for i in range(window)]
    rows = [
        [sum(v[a] * v[b] for v in vandermonde) for b in degrees] + [v[a] for v in vandermonde]
        for a in degrees
    ]
    previous = 1
    for k in degrees:  # the pivots are the leading minors of V^T V, all positive
        pivot = rows[k][k]
        for r in degrees:
            if r != k:
                factor = rows[r][k]
                rows[r] = [(pivot * x - factor * y) // previous for x, y in zip(rows[r], rows[k])]
        previous = pivot
    scaled = [row[poly_order + 1:] for row in rows]
    table = np.array(
        [[sum(v[k] * scaled[k][q] for k in degrees) / previous for q in range(window)]
         for v in vandermonde]
    )
    table.setflags(write=False)
    return table


def _weighted_sum(samples: Callable[[int], np.ndarray], weights: np.ndarray) -> np.ndarray:
    """``samples(0) * weights[0] + samples(1) * weights[1] + ...``, added
    left to right."""
    out = samples(0) * weights[0]
    for j in range(1, len(weights)):
        out = out + samples(j) * weights[j]
    return out


def smooth_savgol(values, window: int, poly_order: int) -> np.ndarray:
    """Least-squares polynomial smoothing along the last axis; same shape.

    Each sample that a whole window centres on is the centre row of
    ``_savgol_table`` applied to that window; the first and last
    ``window // 2`` samples are the other rows applied to the first and
    last window, i.e. the values of the polynomial fitted to it. Each
    output is the sum of weight times sample over its window, added in
    sample order. Exact (to machine precision) on polynomials of degree
    <= poly_order; a 2-D input smooths every row.
    """
    values = np.asarray(values, dtype=float)
    if window < 1 or window % 2 == 0:
        raise EvenWindow(f"window must be odd and positive, got {window}")
    if not 0 <= poly_order < window:
        raise ValueError("poly_order must satisfy 0 <= poly_order < window")
    n = values.shape[-1]
    if window > n:
        raise WindowTooLarge(f"window {window} exceeds signal length {n}")
    table, half = _savgol_table(window, poly_order), window // 2
    rows = values.reshape(-1, n)
    out = np.empty(rows.shape)
    out[:, :half] = _weighted_sum(lambda j: rows[:, j, None], table[:half].T)
    out[:, half:n - half] = _weighted_sum(lambda j: rows[:, j:j + n - window + 1], table[half])
    out[:, n - half:] = _weighted_sum(lambda j: rows[:, n - window + j, None], table[half + 1:].T)
    return out.reshape(values.shape)


def _gradient(values: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """``np.gradient(row, dt_row, edge_order=2)`` for every row at once.

    ``dt`` is an (N, 1) column. The expressions are numpy's for uniform
    spacing, so each row gets the same floats as its own call.
    """
    out = np.empty_like(values)
    out[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * dt)
    a, b, c = -1.5 / dt, 2.0 / dt, -0.5 / dt
    out[:, :1] = a * values[:, :1] + b * values[:, 1:2] + c * values[:, 2:3]
    a, b, c = 0.5 / dt, -2.0 / dt, 1.5 / dt
    out[:, -1:] = a * values[:, -3:-2] + b * values[:, -2:-1] + c * values[:, -1:]
    return out


def _derivation_spacing(t: np.ndarray) -> np.ndarray:
    """``_grid_spacing`` of grids long enough for second-order stencils."""
    if t.shape[-1] < 3:
        raise InvalidTrajectory("need at least 3 samples to differentiate")
    return _grid_spacing(t)


def _smooth(values: np.ndarray) -> np.ndarray:
    """One smoothing stage of the derivation; values so large that it, or
    an earlier stage, overflows are an ``InvalidTrajectory``."""
    if np.all(np.isfinite(values)):
        smoothed = smooth_savgol(values, SAVGOL_WINDOW, SAVGOL_ORDER)
        if np.all(np.isfinite(smoothed)):
            return smoothed
    raise InvalidTrajectory("state derivation overflows: a derived value is not finite")


def _speed_chain(v_raw, dt):
    """Smoothed non-negative speed, then acceleration and jerk from it."""
    v = np.maximum(_smooth(v_raw), 0.0)
    a = _smooth(_gradient(v, dt))
    return v, a, _gradient(a, dt)


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, not warned
def derive_pose_batch(
    t: np.ndarray, x: np.ndarray, y: np.ndarray, heading: np.ndarray
) -> list[StateSequence]:
    """Derive the state chain of N pose clips given as (N, n) grid arrays,
    as N checked StateSequences (see ``_sequences``).

    Speed comes from central differences of the smoothed positions,
    acceleration from the smoothed speed, jerk from the smoothed
    acceleration, and yaw rate from the smoothed unwrapped heading.
    """
    dt = _derivation_spacing(t)
    x = _smooth(x)
    y = _smooth(y)
    theta = _smooth(np.unwrap(heading, axis=-1))
    omega = _gradient(theta, dt)
    v, a, j = _speed_chain(np.hypot(_gradient(x, dt), _gradient(y, dt)), dt)
    return _sequences(t, v, a, j, omega, theta, x, y)


def _trapezoid_integral(rate: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of each row, starting at 0."""
    steps = np.cumsum((rate[:, 1:] + rate[:, :-1]) * 0.5 * dt, axis=-1)
    return np.concatenate([np.zeros((rate.shape[0], 1)), steps], axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def derive_rate_batch(t: np.ndarray, v: np.ndarray, omega: np.ndarray) -> list[StateSequence]:
    """Build the state chain of N clips from (N, n) t, v and omega arrays,
    as N checked StateSequences (see ``_sequences``).

    Acceleration and jerk are derived from the smoothed speed; heading is
    the running integral of the yaw rate and positions are integrated
    from speed and heading.
    """
    dt = _derivation_spacing(t)
    v, a, j = _speed_chain(v, dt)
    theta = _trapezoid_integral(omega, dt)
    x = _trapezoid_integral(v * np.cos(theta), dt)
    y = _trapezoid_integral(v * np.sin(theta), dt)
    return _sequences(t, v, a, j, omega, theta, x, y)


def derive_states(poses: list[PoseSample]) -> StateSequence:
    """Derive the full state chain of one clip from uniformly gridded poses;
    a batch of one of ``derive_pose_batch``."""

    def channel(name: str) -> np.ndarray:
        return np.array([[getattr(p, name) for p in poses]], dtype=float)

    return derive_pose_batch(channel("t"), channel("x"), channel("y"), channel("heading"))[0]


def derive_states_from_rates(t: np.ndarray, v: np.ndarray, omega: np.ndarray) -> StateSequence:
    """Build one clip's StateSequence from direct (t, v, omega) channels;
    a batch of one of ``derive_rate_batch``."""
    t, v, omega = (np.asarray(c, dtype=float)[None] for c in (t, v, omega))
    return derive_rate_batch(t, v, omega)[0]


_PERCENTILES = (25, 50, 75)
_PERCENTILE_KEYS = ("p25", "p50", "p75")
_SUMMARY_STATS = tuple(f.name for f in fields(KinematicSummary) if f.name != "percentiles")


def sample_count_stacks(
    seqs: Sequence[object], channels: Sequence[str],
) -> list[tuple[list[int], tuple[np.ndarray, ...]]]:
    """The clips of ``seqs`` stacked by the length of their first channel:
    per stack, the positions of its m clips in ``seqs`` and each of
    ``channels`` as an (m, n) array."""
    by_count: dict[int, list[int]] = {}
    for i, seq in enumerate(seqs):
        by_count.setdefault(len(getattr(seq, channels[0])), []).append(i)
    return [
        (members, tuple(np.array([getattr(seqs[i], name) for i in members]) for name in channels))
        for members in by_count.values()
    ]


def reduce_stacks(
    stacks: Sequence[tuple[list[int], tuple[np.ndarray, ...]]],
    reduce: Callable[..., dict[str, np.ndarray]],
) -> dict[str, np.ndarray]:
    """Columns of ``reduce`` over the clips of ``stacks``
    (``sample_count_stacks``), in input order: ``reduce`` gets a stack's
    arrays and returns columns whose first axis runs over its clips. No
    stacks give no columns."""
    count = sum(len(members) for members, _ in stacks)
    out: dict[str, np.ndarray] = {}
    for members, stacked in stacks:
        for key, column in reduce(*stacked).items():
            if key not in out:
                out[key] = np.empty((count,) + column.shape[1:], dtype=column.dtype)
            out[key][members] = column
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, not warned
def summarize_batch(
    seqs: Sequence[StateSequence], heading_mode: str = "net",
    clip_ids: Sequence[str] | None = None,
) -> dict[str, np.ndarray]:
    """Clip-level aggregates of many state sequences as columns, in input
    order, for any N (0 too): each ``KinematicSummary`` statistic (N,), and
    ``accel`` and ``abs_jerk`` (N, 3), their P25, P50 and P75.

    Clips are stacked by sample count and each stack is reduced in one
    pass along the sample axis. heading_mode "net" measures
    |theta_end - theta_start| on the unwrapped heading; "sum" accumulates
    |d theta| so oscillation also counts.

    Raises:
        InvalidTrajectory: some summary value is not finite (a statistic
            of finite channels overflows); names the first such clip, by
            its id in ``clip_ids`` or else by its position.
    """
    if heading_mode not in ("net", "sum"):
        raise ValueError("heading_mode must be 'net' or 'sum'")

    def reduce(v, a, j, omega, theta):
        theta_u = np.unwrap(theta, axis=-1)
        if heading_mode == "net":
            heading_change = np.abs(theta_u[:, -1] - theta_u[:, 0])
        else:
            heading_change = np.sum(np.abs(np.diff(theta_u, axis=-1)), axis=-1)
        abs_jerk = np.abs(j)
        return {
            "max_speed": np.max(v, axis=-1),
            "mean_speed": np.mean(v, axis=-1),
            "min_accel": np.min(a, axis=-1),
            "max_accel": np.max(a, axis=-1),
            "mean_accel": np.mean(a, axis=-1),
            "max_abs_jerk": np.max(abs_jerk, axis=-1),
            "mean_abs_jerk": np.mean(abs_jerk, axis=-1),
            "max_abs_yaw_rate": np.max(np.abs(omega), axis=-1),
            "max_lat_accel": np.max(v * np.abs(omega), axis=-1),
            "total_heading_change": heading_change,
            "accel": np.percentile(a, _PERCENTILES, axis=-1).T,
            "abs_jerk": np.percentile(abs_jerk, _PERCENTILES, axis=-1).T,
        }

    if not seqs:  # no stacks to reduce: one of 0 clips gives the empty columns
        return reduce(*np.empty((5, 0, 2)))
    columns = reduce_stacks(sample_count_stacks(seqs, ("v", "a", "j", "omega", "theta")), reduce)
    finite = np.logical_and.reduce(
        [np.isfinite(column).reshape(len(seqs), -1).all(axis=1) for column in columns.values()])
    if not np.all(finite):
        i = int(np.argmin(finite))
        clip = repr(clip_ids[i]) if clip_ids is not None else f"at position {i}"
        raise InvalidTrajectory(
            f"clip {clip}: summary statistics overflow: a summary value is not finite")
    return columns


def summary_rows(columns: dict[str, np.ndarray]) -> list[dict]:
    """Each clip's ``dataclasses.asdict(KinematicSummary)`` from ``summarize_batch``
    columns: the ``clip_summaries.jsonl`` rows and the ``summary`` prompt input."""
    stats = zip(*(columns[name].tolist() for name in _SUMMARY_STATS))
    return [
        {**dict(zip(_SUMMARY_STATS, values)), "percentiles": {
            "accel": dict(zip(_PERCENTILE_KEYS, accel)),
            "abs_jerk": dict(zip(_PERCENTILE_KEYS, abs_jerk))}}
        for values, accel, abs_jerk in zip(
            stats, columns["accel"].tolist(), columns["abs_jerk"].tolist())
    ]


def summarize(seq: StateSequence, heading_mode: str = "net") -> KinematicSummary:
    """Compute clip-level aggregates of one state sequence; a batch of one
    of ``summarize_batch``."""
    return KinematicSummary(**summary_rows(summarize_batch([seq], heading_mode))[0])


def _summary_columns(summary: KinematicSummary) -> dict[str, np.ndarray]:
    """One clip's summary statistics (no rule reads its percentiles) as columns."""
    return {name: np.array([getattr(summary, name)], dtype=float) for name in _SUMMARY_STATS}


def stratification_tags(seq, summary, thresholds) -> dict[str, bool]:
    """Binary curation tags of one clip: has_turn, has_braking,
    has_aggressive; a batch of one of ``oracle.tags_of``."""
    from . import oracle  # local import; oracle depends on this module

    codes, _ = oracle.label_batch([seq], _summary_columns(summary), thresholds)
    return oracle.tags_of(codes)[0]


def stratification_bin(tags: dict[str, bool]) -> int:
    """Map the three binary tags onto one of 8 kinematic bins (0..7)."""
    return (
        (1 if tags["has_turn"] else 0)
        | (2 if tags["has_braking"] else 0)
        | (4 if tags["has_aggressive"] else 0)
    )
