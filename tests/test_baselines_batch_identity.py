"""The batch baselines give the same rows as the per-clip heuristics they
replaced.

The reference below is ``flow_answers`` and ``vo_answers`` before
``label_proxies``: one clip at a time, each question decided with
``if``/``elif`` and each answer built as its own QARecord.
``baselines.label_proxies`` (and the per-clip wrappers over it) must
reproduce every row (answer, rule name, rule parameters and evidence) byte
for byte as JSON, and the wrappers with ``==`` on ``to_dict()``, on batches that mix
sample counts, under the shipped and random valid threshold sets.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn import baselines
from egodyn.baselines import (
    FLOW_DEFAULT,
    VO_DEFAULT,
    VO_LEARNED,
    FlowProxySeries,
    FlowThresholds,
    OdomProxySeries,
    OdomThresholds,
    synth_proxies,
)
from egodyn.oracle import QARecord, ordered_pair
from egodyn.synth import generate_suite

# --------------------------------------------------------------- reference


def ref_flow_answers(series, th=FLOW_DEFAULT, clip_id=""):
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


def ref_vo_answers(series, th=VO_DEFAULT, clip_id=""):
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


# ------------------------------------------------------------------- checks


def jsonl(rows) -> str:
    return "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)


def assert_same_rows(clip_ids, series, th):
    """``label_proxies`` on the whole batch gives the JSON text of the
    reference rows, and each per-clip wrapper gives the reference rows."""
    reference = ref_flow_answers if isinstance(th, FlowThresholds) else ref_vo_answers
    wrapper = baselines.flow_answers if isinstance(th, FlowThresholds) else baselines.vo_answers
    want = [r.to_dict() for c, s in zip(clip_ids, series) for r in reference(s, th, c)]
    assert baselines.label_proxies(clip_ids, series, th) == jsonl(want)
    assert [r.to_dict() for c, s in zip(clip_ids, series) for r in wrapper(s, th, c)] == want


def random_series(rng: np.random.Generator, n: int, odometry: bool):
    """Proxies that cross the default and learned thresholds; in half the
    clips every channel is rounded to steps of 0.05, which makes ties and
    values exactly on a threshold. A few clips have equal timestamps, and
    a few magnitudes alternate 1 and 0, a mean of exactly 0.5 at even n
    (the bound of the odometry brake guard)."""
    scale = rng.choice([0.02, 0.3, 2.0])
    t = np.sort(rng.uniform(0.0, 3.0, n)) + rng.choice([0.0, 1.7e9])
    if rng.random() < 0.1:
        t = np.full(n, t[0])
    a, b = rng.normal(0.0, scale, n), rng.normal(0.0, scale, n)
    mag = rng.uniform(0.0, 3.0, n) * rng.choice([0.2, 1.0, 3.0])
    if rng.random() < 0.5:
        a, b, mag = (np.round(x * 20) / 20 for x in (a, b, mag))
    if rng.random() < 0.15:
        mag = (np.arange(n) % 2 == 0).astype(float)
    if odometry:
        return OdomProxySeries(t=t, m_disp=mag, theta_deg=a)
    return FlowProxySeries(t=t, s_turn=a, s_exp=b, m_mag=mag)


positive = st.floats(0.01, 5.0)


@st.composite
def thresholds(draw, odometry: bool):
    """A shipped threshold set of the family, or a random valid one."""
    if draw(st.booleans()):
        return draw(st.sampled_from([VO_DEFAULT, VO_LEARNED] if odometry else [FLOW_DEFAULT]))
    stop, move = sorted(draw(st.lists(positive, min_size=2, max_size=2, unique=True)))
    if odometry:
        return OdomThresholds(draw(positive), draw(positive), stop, move, draw(positive),
                              draw(positive), draw(positive), draw(positive))
    return FlowThresholds(draw(positive), draw(positive), draw(positive), draw(positive),
                          stop, move)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(1, 40), st.integers(1, 40)).filter(lambda s: s[0] != s[1]),
    count=st.integers(0, 12),
    odometry=st.booleans(),
)
def test_batch_equals_per_clip_reference(data, seed, sizes, count, odometry):
    th = data.draw(thresholds(odometry))
    rng = np.random.default_rng(seed)
    series = [random_series(rng, sizes[k % 2], odometry) for k in range(count)]
    assert_same_rows([f"c{k}" for k in range(count)], series, th)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(1, 40), st.integers(1, 40)).filter(lambda s: s[0] != s[1]),
    count=st.integers(1, 12),
    odometry=st.booleans(),
)
def test_thresholds_on_feature_values(data, seed, sizes, count, odometry):
    """Each threshold placed exactly on a statistic of one clip of the
    batch, where strict and non-strict comparisons part, or at half or
    twice it."""
    rng = np.random.default_rng(seed)
    series = [random_series(rng, sizes[k % 2], odometry) for k in range(count)]
    clip = series[data.draw(st.integers(0, count - 1))]
    reference = ref_vo_answers if odometry else ref_flow_answers
    evidence = {k: abs(v) for r in reference(clip) for k, v in r.evidence.items()}

    def on(name):
        value = evidence[name]
        return value * data.draw(st.sampled_from([0.5, 1.0, 2.0])) if value > 0 else 1.0

    def stop_move(low, high):
        stop, move = sorted((on(low), on(high)))
        return stop, move if move > stop else 2 * stop

    if odometry:
        stop, move = stop_move("min_displacement", "max_displacement")
        th = OdomThresholds(on("mean_yaw_deg"), on("peak_abs_yaw_deg"), stop, move,
                            on("displacement_slope"), on("sum_abs_yaw_deg"),
                            on("peak_abs_yaw_deg"), data.draw(positive))
    else:
        stop, move = stop_move("min_magnitude", "max_magnitude")
        th = FlowThresholds(on("mean_turn_score"), on("mean_expansion"),
                            on("max_abs_turn_score"), on("sum_abs_turn_score"), stop, move)
    assert_same_rows([f"c{k}" for k in range(count)], series, th)


@pytest.mark.parametrize(
    "th", [FLOW_DEFAULT, VO_DEFAULT, VO_LEARNED], ids=["flow", "vo", "vo_learned"]
)
def test_synth_suite_equals_reference(th):
    """Proxies of synth clips at four frame counts and three noise levels."""
    pairs = [
        synth_proxies(clip.seq, noise_level=(0.0, 0.5, 1.5)[k % 3], seed=k,
                      n_frames=(None, 10, 16, 31)[k % 4])
        for k, clip in enumerate(generate_suite(72, seed=5))
    ]
    series = [flow if isinstance(th, FlowThresholds) else odom for flow, odom in pairs]
    assert_same_rows([f"synth_{k:04d}" for k in range(len(series))], series, th)
