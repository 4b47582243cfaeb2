"""The batch oracle gives the same records as the per-clip rules it replaced.

The reference below is the oracle before ``label_batch``: one hand-written
function per question, each building its own QARecord, and the ordered-pair
scan ``ref_ordered_pair_exists``. ``oracle.label_batch`` plus
``oracle.records`` must reproduce every record (answer, rule name, rule
parameters and evidence) with ``==`` on ``to_dict()`` and byte for byte as
JSON, on synth suites, on hypothesis clips of two sample counts in one
batch, on exhaustive ordered-pair masks, and with thresholds placed
exactly on feature values, where strict and non-strict comparisons part.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRID
from egodyn import cli, io, metrics, oracle
from egodyn.kinematics import StateSequence, half_split_index, summarize, summarize_batch
from egodyn.oracle import QARecord
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER, AnswerTable
from egodyn.synth import generate_suite
from egodyn.thresholds import ThresholdConfig

# --------------------------------------------------------------- reference


def ref_turn_direction(seq, summary, cfg, clip_id=""):
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


def ref_braking_intensity(seq, summary, cfg, clip_id=""):
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


def ref_speed_regime(seq, summary, cfg, clip_id=""):
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


def ref_driving_smoothness(seq, summary, cfg, clip_id=""):
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


def ref_speed_trend(seq, summary, cfg, clip_id=""):
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


def ref_mean_speed_low(seq, summary, cfg, clip_id=""):
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


def ref_heading_change(seq, summary, cfg, clip_id=""):
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


def ref_extreme_maneuver(seq, summary, cfg, clip_id=""):
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


def ref_motion_axis(seq, summary, cfg, clip_id=""):
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


def ref_lateral_accel(seq, summary, cfg, clip_id=""):
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


def ref_stop_and_go(seq, summary, cfg, clip_id=""):
    """Ordered stopped-then-moving transition scan over the speed channel.

    With ``stop_go_bidirectional`` set, a moving-then-stopped transition
    also counts.
    """
    eff = cfg.scaled()
    v = seq.v
    stopped = v < eff.stopgo_stop
    moving = v > eff.stopgo_move
    hit = ref_ordered_pair_exists(stopped, moving)
    if not hit and cfg.stop_go_bidirectional:
        hit = ref_ordered_pair_exists(moving, stopped)
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


def ref_brake_then_turn(seq, summary, cfg, clip_id=""):
    """Braking event strictly followed in time by a turning event."""
    eff = cfg.scaled()
    braking = seq.a < eff.btt_brake
    turning = np.abs(seq.omega) > eff.btt_yaw
    hit = ref_ordered_pair_exists(braking, turning)
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


def ref_speed_peak_half(seq, summary, cfg, clip_id=""):
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


def ref_contrastive_halves(seq, summary, cfg, clip_id=""):
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


def ref_ordered_pair_exists(first_mask, second_mask) -> bool:
    """True when some index in first_mask strictly precedes one in second."""
    if not first_mask.any():
        return False
    start = int(np.argmax(first_mask))
    return bool(second_mask[start + 1 :].any())


REF_LABELERS = {
    "turn_direction": ref_turn_direction,
    "braking_intensity": ref_braking_intensity,
    "speed_regime": ref_speed_regime,
    "driving_smoothness": ref_driving_smoothness,
    "speed_trend": ref_speed_trend,
    "mean_speed_low": ref_mean_speed_low,
    "heading_change": ref_heading_change,
    "extreme_maneuver": ref_extreme_maneuver,
    "motion_axis": ref_motion_axis,
    "lateral_accel": ref_lateral_accel,
    "stop_and_go": ref_stop_and_go,
    "brake_then_turn": ref_brake_then_turn,
    "speed_peak_half": ref_speed_peak_half,
    "contrastive_halves": ref_contrastive_halves,
}


def ref_label_all(seq, summary=None, cfg=None, clip_id=""):
    cfg = cfg or ThresholdConfig()
    if summary is None:
        summary = summarize(seq, heading_mode=cfg.heading_total_mode)
    return [REF_LABELERS[q](seq, summary, cfg, clip_id) for q in QUESTION_ORDER]


# ------------------------------------------------------------------- checks

NOISE = {"v": 0.05, "a": 0.018, "j": 0.125, "omega": 0.004, "theta": 0.0026}
ALPHAS = (0.5, 0.75, 0.93, 1.0, 1.25, 1.5)


def config(alpha=1.0, mode="net", bidirectional=False, **fields) -> ThresholdConfig:
    return ThresholdConfig(alpha=alpha, heading_total_mode=mode,
                           stop_go_bidirectional=bidirectional, **fields)


def jsonl(rows) -> str:
    return "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)


def assert_same_records(clips, cfg):
    """``label_batch`` and ``records`` on ``(clip_id, seq)`` pairs, in one
    batch, give the reference records of every clip."""
    clip_ids = [clip_id for clip_id, _ in clips]
    seqs = [seq for _, seq in clips]
    codes, evidence = oracle.label_batch(
        seqs, summarize_batch(seqs, heading_mode=cfg.heading_total_mode), cfg)
    summaries = [summarize(seq, heading_mode=cfg.heading_total_mode) for seq in seqs]
    got = [r.to_dict() for r in oracle.records(clip_ids, codes, evidence, cfg)]
    want = [
        r.to_dict()
        for clip_id, seq, summary in zip(clip_ids, seqs, summaries)
        for r in ref_label_all(seq, summary, cfg, clip_id)
    ]
    assert got == want
    assert jsonl(got) == jsonl(want)
    cells = ((r["clip_id"], r["question_id"], r["answer"]) for r in want)
    assert codes.dtype == np.intp
    assert np.array_equal(codes, AnswerTable.from_rows(cells).codes)


def random_clip(rng: np.random.Generator, n: int) -> StateSequence:
    """A clip whose channels cross the default thresholds; in half the
    clips every channel is rounded to steps of 0.5, which makes ties (two
    equal speed maxima, +/- yaw peaks of one size, a stop exactly at 0),
    and in a third the speed only falls (moving, then stopped)."""
    v = rng.uniform(0.0, 4.0, n) * rng.choice([1.0, 5.0])
    if rng.random() < 1 / 3:
        v = np.sort(v)[::-1]
    a = rng.normal(0.0, 1.5, n)
    j = rng.normal(0.0, 2.0, n) * rng.choice([0.2, 1.0])
    omega = rng.normal(0.0, 0.1, n)
    if rng.random() < 0.5:
        v, a, j, omega = (np.round(c * 2.0) / 2.0 for c in (v, a, j, omega))
    theta = np.concatenate([[0.0], np.cumsum((omega[1:] + omega[:-1]) * 0.05)])
    return StateSequence(np.arange(n) / 10.0, v, a, j, omega, theta)


@pytest.fixture(scope="module", params=["clean", "noisy"])
def suite(request):
    noise = NOISE if request.param == "noisy" else None
    return [(c.clip_id, c.seq) for c in generate_suite(90, seed=23, noise_std=noise)]


@pytest.mark.parametrize("alpha", [0.5, 0.93, 1.0, 1.5])
@pytest.mark.parametrize("mode", ["net", "sum"])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_synth_suites(suite, alpha, mode, bidirectional):
    assert_same_records(suite, config(alpha, mode, bidirectional))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(3, 40), st.integers(2, 40)),
    count=st.integers(1, 12),
    alpha=st.sampled_from(ALPHAS),
    mode=st.sampled_from(["net", "sum"]),
    bidirectional=st.booleans(),
)
def test_hypothesis_clips_of_two_sample_counts(seed, sizes, count, alpha, mode, bidirectional):
    rng = np.random.default_rng(seed)
    clips = [(f"c{k}", random_clip(rng, sizes[k % 2])) for k in range(count)]
    assert_same_records(clips, config(alpha, mode, bidirectional))


def ref_records(clip_ids, codes, evidence, cfg) -> list[QARecord]:
    """``oracle.records`` before its batch row builder: one QARecord per answer,
    each checked by ``QARecord.__post_init__``."""
    eff = cfg.scaled()
    params = {
        question: {**{name: getattr(eff, oracle._PARAM_FIELDS.get(name, name))
                      for name in fields},
                   "alpha": cfg.alpha}
        for question, (_, fields, _) in oracle.RULES.items()
    }
    columns = {name: column.tolist() for name, column in evidence.items()}
    out = []
    for i, (clip_id, row) in enumerate(zip(clip_ids, codes.tolist())):
        for question, code in zip(QUESTION_ORDER, row):
            rule, _, names = oracle.RULES[question]
            out.append(QARecord(
                clip_id, question, ANSWER_SPACES[question][code], rule,
                dict(params[question]), {name: columns[name][i] for name in names},
            ))
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(3, 40), st.integers(2, 40)),
    count=st.integers(0, 12),
    alpha=st.floats(0.25, 4.0),
    mode=st.sampled_from(["net", "sum"]),
    bidirectional=st.booleans(),
)
def test_label_lines_equal_record_dicts(seed, sizes, count, alpha, mode, bidirectional):
    """``label_lines`` gives the JSON bytes of each answer's
    ``QARecord(...).to_dict()``, and ``records`` reads them back with ``==``."""
    rng = np.random.default_rng(seed)
    clips = [(f"c{k}", random_clip(rng, sizes[k % 2])) for k in range(count)]
    cfg = config(alpha, mode, bidirectional)
    seqs = [seq for _, seq in clips]
    codes, evidence = oracle.label_batch(
        seqs, summarize_batch(seqs, heading_mode=mode), cfg)
    clip_ids = [clip_id for clip_id, _ in clips]
    got = oracle.label_lines(clip_ids, codes, evidence, oracle.rule_table(cfg))
    want = [r.to_dict() for r in ref_records(clip_ids, codes, evidence, cfg)]
    assert got == jsonl(want)
    assert [r.to_dict() for r in oracle.records(clip_ids, codes, evidence, cfg)] == want


@pytest.mark.parametrize("code", [-1, 3])
def test_label_lines_reject_a_code_outside_the_answer_space(code):
    """The check ``QARecord`` makes per record, made once for the batch."""
    seqs = [random_clip(np.random.default_rng(k), 31) for k in range(3)]
    cfg = config()
    codes, evidence = oracle.label_batch(seqs, summarize_batch(seqs), cfg)
    codes[1, QUESTION_ORDER.index("turn_direction")] = code
    with pytest.raises(ValueError, match=(
        f"^clip 'b', question 'turn_direction': answer code {code} is not in the answer space"
    )):
        oracle.label_lines(["a", "b", "c"], codes, evidence, oracle.rule_table(cfg))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ordered_pair_on_every_mask_pair(n):
    """Every pair of n-sample masks, all-false and last-index ones included,
    as one batch and one pair at a time."""
    masks = np.array(list(itertools.product([False, True], repeat=n)), dtype=bool)
    first = np.repeat(masks, len(masks), axis=0)
    second = np.tile(masks, (len(masks), 1))
    want = [ref_ordered_pair_exists(f, s) for f, s in zip(first, second)]
    assert oracle.ordered_pair(first, second).tolist() == want
    assert [bool(oracle.ordered_pair(f, s)) for f, s in zip(first, second)] == want


def test_ordered_pair_edge_masks():
    none = np.zeros(6, dtype=bool)
    last = np.eye(6, dtype=bool)[5]
    first = np.eye(6, dtype=bool)[0]
    assert not oracle.ordered_pair(none, ~none)
    assert not oracle.ordered_pair(last, ~none)  # nothing after the last sample
    assert not oracle.ordered_pair(first, first)  # the same sample does not count
    assert oracle.ordered_pair(first, last)


def _chain(x: float, count: int, position: int, step: float) -> list[float]:
    """``count`` increasing thresholds with the ``position``-th equal to x."""
    return [x + (i - position) * step for i in range(count)]


def on_feature_values(seq: StateSequence, position: int) -> ThresholdConfig:
    """Thresholds placed exactly on the clip's own feature values.

    Peak yaw on the deadzone, min accel, max speed and mean |jerk| on the
    ``position``-th boundary of their buckets, |mean accel| on the trend
    deadzone and the peak lateral acceleration on its limit (so the two
    activity ratios tie at 1), the speed spread on ``peak_epsilon``,
    |d1 - d2| on the contrastive band, and the stop/move, brake and yaw
    thresholds on sample values.
    """
    summary = summarize(seq)
    v, a, omega = seq.v, seq.a, seq.omega
    mid = half_split_index(seq.n)
    d1 = float(np.mean(np.abs(seq.j[: mid + 1])))
    d2 = float(np.mean(np.abs(seq.j[mid + 1 :])))
    fields = {
        "heading_change_min": summary.total_heading_change,
        "extreme_jerk": summary.max_abs_jerk,
        "extreme_accel": summary.min_accel,
        "mean_speed_low": summary.mean_speed,
        "peak_epsilon": float(np.max(v) - np.min(v)),
        "contrastive_rel_band": 0.0,
        "contrastive_abs_band": abs(d1 - d2),
        "btt_brake": float(a[seq.n // 3]),
        "btt_yaw": float(abs(omega[2 * seq.n // 3])),
    }
    peak = abs(float(omega[np.argmax(np.abs(omega))]))
    if peak > 0:
        fields["turn_deadzone"] = peak
    if summary.min_accel < 0:
        fields.update(zip(("brake_emergency", "brake_moderate", "brake_low"),
                          _chain(summary.min_accel, 3, position, -summary.min_accel / 4)))
    fields.update(zip(("speed_stopped", "speed_slow", "speed_urban"),
                      _chain(summary.max_speed, 3, position, 1.0)))
    fields.update(zip(("jerk_smooth", "jerk_moderate"),
                      _chain(summary.mean_abs_jerk, 2, min(position, 1), 0.5)))
    if summary.mean_accel != 0 and summary.max_lat_accel > 0:
        fields["trend_deadzone"] = abs(summary.mean_accel)
        fields["lat_accel_high"] = summary.max_lat_accel
    low, high = sorted((float(v[0]), float(v[mid])))
    if low < high:
        fields["stopgo_stop"], fields["stopgo_move"] = low, high
    return ThresholdConfig(**fields)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 40), position=st.integers(0, 2))
def test_thresholds_on_feature_values(seed, n, position):
    seq = random_clip(np.random.default_rng(seed), n)
    assert_same_records([("c", seq)], on_feature_values(seq, position))


def test_ties_of_the_feature_rules():
    """The boundary cases by construction: each lands on the less extreme
    class, and a tie of the two activity ratios goes longitudinal."""
    j = np.concatenate([np.full(16, 1.0), np.full(15, 1.5)])
    seq = StateSequence(GRID, np.full(31, 4.0), np.full(31, 0.5), j, np.full(31, 0.125),
                        np.arange(31) * 0.0125)
    cfg = ThresholdConfig(turn_deadzone=0.125, trend_deadzone=0.5, lat_accel_high=0.5,
                          speed_stopped=4.0, speed_slow=5.0, jerk_smooth=1.0, jerk_moderate=2.0,
                          contrastive_rel_band=0.0, contrastive_abs_band=0.5,
                          peak_epsilon=0.0)
    answers = {r.question_id: r.answer for r in oracle.label_all(seq, cfg=cfg)}
    assert answers["turn_direction"] == "straight"
    assert answers["motion_axis"] == "longitudinal"
    assert answers["speed_regime"] == "slow"
    assert answers["contrastive_halves"] == "similar"
    assert answers["speed_peak_half"] == "first_half"
    assert_same_records([("c", seq)], cfg)


def _reference_tags(seq, summary, cfg) -> dict[str, bool]:
    return {
        "has_turn": ref_turn_direction(seq, summary, cfg).answer != "straight",
        "has_braking": ref_braking_intensity(seq, summary, cfg).answer != "none",
        "has_aggressive": ref_driving_smoothness(seq, summary, cfg).answer == "aggressive"
        or ref_extreme_maneuver(seq, summary, cfg).answer == "yes",
    }


@pytest.mark.parametrize("mode", ["net", "sum"])
def test_label_command_writes_the_reference_bytes(tmp_path, monkeypatch, mode):
    """``label`` calls ``label_batch`` once, builds no QARecord and calls
    no ``dataclasses.asdict``, and writes the reference records, tags and
    summaries, byte for byte."""
    clips = [(c.clip_id, c.seq) for c in generate_suite(40, seed=8, noise_std=NOISE)]
    io.write_jsonl(tmp_path / "traj.jsonl",
                   [row for clip_id, seq in clips for row in io.sequence_to_rows(clip_id, seq)])
    cfg = config(0.93, mode, bidirectional=True)
    cfg.to_json(tmp_path / "thresholds.json")
    io.write_json(tmp_path / "config.json", {
        "input": str(tmp_path / "traj.jsonl"), "thresholds": str(tmp_path / "thresholds.json"),
        "out": str(tmp_path / "out")})
    calls = []
    monkeypatch.setattr(cli, "label_batch",
                        lambda *args: calls.append(1) or oracle.label_batch(*args))

    def no_records(*args, **kwargs):
        raise AssertionError("label built a QARecord or called dataclasses.asdict")

    monkeypatch.setattr(oracle, "QARecord", no_records)
    monkeypatch.setattr(dataclasses, "asdict", no_records)
    assert cli.main(["label", "--config", str(tmp_path / "config.json")]) == 0
    monkeypatch.undo()
    assert len(calls) == 1

    rows = io.read_trajectory_clips(tmp_path / "traj.jsonl")
    seqs = [seq for _, seq in io.rows_to_sequences(rows)]
    summaries = [summarize(seq, heading_mode=mode) for seq in seqs]
    want = [r.to_dict() for (clip_id, _), seq, summary in zip(clips, seqs, summaries)
            for r in ref_label_all(seq, summary, cfg, clip_id)]
    assert (tmp_path / "out" / "labels.jsonl").read_text() == jsonl(want)
    meta = io.read_jsonl(tmp_path / "out" / "clip_summaries.jsonl")
    assert [row["tags"] for row in meta] == [
        _reference_tags(seq, s, cfg) for seq, s in zip(seqs, summaries)]
    assert jsonl(row["summary"] for row in meta) == jsonl(
        dataclasses.asdict(s) for s in summaries)


def test_sweep_builds_no_records_and_labels_once_per_alpha(monkeypatch):
    """The sweep's truth comes from ``label_at`` codes alone, one call per
    distinct alpha on one ``rule_inputs`` of the clips, and scores as the
    reference records do."""
    suite = generate_suite(60, seed=4, noise_std=NOISE)
    clips = [(c.clip_id, c.seq) for c in suite]
    rng = np.random.default_rng(4)
    predictions = {
        name: AnswerTable.from_rows(
            ((c.clip_id, q, c.expected[q] if rng.random() > miss else "unparsed")
             for c in suite for q in QUESTION_ORDER), predicted=True)
        for name, miss in (("close", 0.1), ("far", 0.4))
    }
    cfg = config(1.0, "sum", bidirectional=True)
    alphas = [0.5, 0.93, 1.0, 1.5, 0.5]

    def no_records(*args, **kwargs):
        raise AssertionError("the sweep built a QARecord")

    calls, inputs = [], []
    monkeypatch.setattr(oracle, "QARecord", no_records)
    monkeypatch.setattr(metrics, "rule_inputs",
                        lambda *args: inputs.append(1) or oracle.rule_inputs(*args))
    monkeypatch.setattr(metrics, "label_at",
                        lambda *args: calls.append(args[1].alpha) or oracle.label_at(*args))
    results = metrics.sensitivity_sweep(clips, predictions, cfg, alphas)
    monkeypatch.undo()
    assert calls == [0.5, 0.93, 1.0, 1.5]
    assert len(inputs) == 1

    summaries = [summarize(seq, heading_mode="sum") for _, seq in clips]
    for result in results:
        scaled = cfg.with_alpha(result.alpha).scaled()
        truth = AnswerTable.from_rows(
            (r.clip_id, r.question_id, r.answer)
            for (clip_id, seq), summary in zip(clips, summaries)
            for r in ref_label_all(seq, summary, scaled, clip_id)
        )
        assert result.model_scores == {
            name: metrics.score_model(truth, preds) for name, preds in predictions.items()
        }
