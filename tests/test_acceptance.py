"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import GRID, answer_table, make_seq
from egodyn.balancer import PoolClip, balance, uniform_targets
from egodyn.baselines import (
    FLOW_DEFAULT,
    VO_DEFAULT,
    FlowProxySeries,
    OdomProxySeries,
    flow_answers,
    synth_proxies,
    vo_answers,
)
from egodyn.consistency import ClipConsistency, clip_consistency, pcov, wpcr
from egodyn.kinematics import PoseSample, derive_states, smooth_savgol
from egodyn.metrics import score_questions, sensitivity_sweep
from egodyn.oracle import label_all
from egodyn.parsing import UNPARSED, parse
from egodyn.questions import ANSWER_SPACES, GEOMETRIC_SUBSET, QUESTION_ORDER
from egodyn.report import parse_rate_report
from egodyn.synth import ManeuverSpec, generate, generate_suite
from egodyn.thresholds import ThresholdConfig

from test_baselines import AGREEMENT_SPECS


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")


def test_criterion_01_oracle_fidelity():
    start = time.perf_counter()
    suite = generate_suite(200, seed=101)
    cfg = ThresholdConfig()
    mismatches = []
    for clip in suite:
        records = label_all(clip.seq, cfg=cfg, clip_id=clip.clip_id)
        got = {r.question_id: r.answer for r in records}
        if got != clip.expected:
            mismatches.append(clip.clip_id)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 5.0
    report(1, "oracle matches symbolic labels on 200 clips", ok,
           f"{200 - len(mismatches)}/200 in {elapsed:.2f}s")
    assert not mismatches, mismatches
    assert elapsed < 5.0


NOMINAL_THRESHOLDS = {
    "turn_deadzone": 0.04,
    "brake_emergency": -1.59,
    "brake_moderate": -0.89,
    "brake_low": -0.18,
    "speed_stopped": 0.5,
    "speed_slow": 5.0,
    "speed_urban": 13.9,
    "jerk_smooth": 1.25,
    "jerk_moderate": 2.15,
    "trend_deadzone": 0.25,
    "lat_accel_high": 2.0,
    "heading_change_min": 0.2618,
    "extreme_jerk": 20.0,
    "extreme_accel": -3.924,
    "stopgo_stop": 0.5,
    "stopgo_move": 2.0,
    "btt_brake": -1.5,
    "btt_yaw": 0.1,
    "mean_speed_low": 5.0,
    "alpha": 1.0,
}


def test_criterion_02_threshold_reproduction(tmp_path):
    path = tmp_path / "thresholds.json"
    ThresholdConfig().to_json(path)
    serialized = json.loads(path.read_text())
    wrong = {
        key: (serialized[key], value)
        for key, value in NOMINAL_THRESHOLDS.items()
        if serialized[key] != value
    }
    report(2, "default thresholds equal the calibrated values exactly",
           not wrong, f"{len(NOMINAL_THRESHOLDS)} fields checked")
    assert not wrong, wrong


def test_criterion_03_wpcr_formula():
    hand_ok = (
        abs(wpcr([ClipConsistency("a", 4, 0, 0.4, (), ())]) - 0.4) < 1e-12
        and wpcr([ClipConsistency("a", 4, 1, 0.0, (), ())]) == 0.0
        and wpcr([ClipConsistency("a", 0, 0, 0.0, (), ())]) == 0.0
    )
    rng = np.random.default_rng(103)
    questions = [
        "turn_direction", "braking_intensity", "speed_regime", "mean_speed_low",
        "speed_trend", "heading_change", "lateral_accel", "stop_and_go",
        "brake_then_turn",
    ]
    clips = []
    for i in range(1000):
        answers = {
            q: ANSWER_SPACES[q][rng.integers(len(ANSWER_SPACES[q]))]
            for q in questions
        }
        clips.append(clip_consistency(f"c{i}", answers))
    bound_ok = wpcr(clips) <= pcov(clips) + 1e-12
    report(3, "WPCR hand cases and WPCR <= PCov on 1000 random answer sets",
           hand_ok and bound_ok,
           f"wpcr={wpcr(clips):.4f} pcov={pcov(clips):.4f}")
    assert hand_ok
    assert bound_ok


def test_criterion_04_oracle_self_consistency():
    cfg = ThresholdConfig()
    suite = generate_suite(200, seed=104)
    offenders = []
    for clip in suite:
        records = label_all(clip.seq, cfg=cfg, clip_id=clip.clip_id)
        answers = {r.question_id: r.answer for r in records}
        consistency = clip_consistency(clip.clip_id, answers)
        if consistency.violated:
            offenders.append((clip.clip_id, clip.template, consistency.violated_rules))
    for clip_id, template, rules in offenders:
        print(f"  self-consistency violation: {clip_id} ({template}) -> {rules}")
    report(4, "oracle answers incur zero rule violations on the suite",
           not offenders, "200 clips x 10 rules")
    assert not offenders, offenders


def _balanced_accuracy(question, pairs):
    """Balanced accuracy of one clip per (truth, prediction) pair, scored
    from the confusion counts of ``build_confusions``."""
    truth = {(f"c{i}", question): t for i, (t, _) in enumerate(pairs)}
    preds = {(f"c{i}", question): p for i, (_, p) in enumerate(pairs)}
    return score_questions(answer_table(truth), answer_table(preds))[1][question]["bacc"]


def test_criterion_05_balanced_accuracy_reproduction():
    pairs = [(truth, "steady") for truth in ("accelerating", "decelerating", "steady")
             for _ in range(10)]
    constant_ok = abs(_balanced_accuracy("speed_trend", pairs) - 1.0 / 3.0) < 1e-12

    rng = np.random.default_rng(105)
    random_ok = True
    details = []
    for k, question in ((2, "mean_speed_low"), (3, "speed_trend"), (4, "speed_regime")):
        space = ANSWER_SPACES[question][:k]
        pairs = []
        for _ in range(10_000):
            truth = space[rng.integers(k)]
            pred = space[rng.integers(k)]
            pairs.append((truth, pred))
        bacc = _balanced_accuracy(question, pairs)
        details.append(f"k={k}: {bacc:.3f}")
        random_ok = random_ok and abs(bacc - 1.0 / k) <= 0.03
    report(5, "balanced accuracy reproduces 1/k behavior",
           constant_ok and random_ok, "; ".join(details))
    assert constant_ok
    assert random_ok


# 50-case parser corpus: raw text, question id, expected label, expected stage.
PARSER_CORPUS = [
    ("left", "turn_direction", "left", "exact"),
    ("right", "turn_direction", "right", "exact"),
    ("straight", "turn_direction", "straight", "exact"),
    ("yes", "mean_speed_low", "yes", "exact"),
    ("no", "heading_change", "no", "exact"),
    ("emergency", "braking_intensity", "emergency", "exact"),
    ("first_half", "speed_peak_half", "first_half", "exact"),
    ("no_peak", "speed_peak_half", "no_peak", "exact"),
    ("  steady  ", "speed_trend", "steady", "exact"),
    ("AGGRESSIVE", "driving_smoothness", "aggressive", "exact"),
    ("first half", "speed_peak_half", "first_half", "underscore"),
    ("second half", "speed_peak_half", "second_half", "underscore"),
    ("no peak", "speed_peak_half", "no_peak", "underscore"),
    ("First-Half", "contrastive_halves", "first_half", "underscore"),
    (">>first_half<<", "speed_peak_half", "first_half", "underscore"),
    ("similar.", "contrastive_halves", "similar", "underscore"),
    ("Second  Half", "contrastive_halves", "second_half", "underscore"),
    ("stop-and-go? yes!", "stop_and_go", "yes", "substring"),
    ("I considered the options.\nleft", "turn_direction", "left", "last_line"),
    ("reasoning\nmore reasoning\nno", "lateral_accel", "no", "last_line"),
    ("let me think\nfirst half", "speed_peak_half", "first_half", "last_line"),
    ("analysis:\n\n  decelerating  ", "speed_trend", "decelerating", "last_line"),
    ("The first half was calm.\nsecond half", "contrastive_halves", "second_half",
     "last_line"),
    ("hmm\nNO PEAK", "speed_peak_half", "no_peak", "last_line"),
    ("scratch work\nmoderate", "braking_intensity", "moderate", "last_line"),
    ("thinking\nthinking\nsimilar!", "contrastive_halves", "similar", "last_line"),
    ("The answer is: yes", "extreme_maneuver", "yes", "substring"),
    ("Therefore: decelerating.", "speed_trend", "decelerating", "substring"),
    ("The vehicle is turning left.", "turn_direction", "left", "substring"),
    ("Answer: no_peak detected", "speed_peak_half", "no_peak", "substring"),
    ("The motion is primarily longitudinal here", "motion_axis", "longitudinal",
     "substring"),
    ("Final answer: straight ahead", "turn_direction", "straight", "substring"),
    ("Clearly accelerating throughout", "speed_trend", "accelerating", "substring"),
    ("Some reasoning first.\nSo the answer must be right.", "turn_direction",
     "right", "substring"),
    ("the braking is best described as moderate overall", "braking_intensity",
     "moderate", "substring"),
    ("It seems to be an emergency stop", "braking_intensity", "emergency",
     "substring"),
    ("peak occurs in the first half of the clip", "speed_peak_half", "first_half",
     "substring"),
    ("my answer: stopped", "speed_regime", "stopped", "substring"),
    ("", "mean_speed_low", UNPARSED, "none"),
    ("   \n  ", "mean_speed_low", UNPARSED, "none"),
    ("yes or no, hard to say", "mean_speed_low", UNPARSED, "none"),
    ("left or right", "turn_direction", UNPARSED, "none"),
    ("I cannot determine the motion from these frames", "stop_and_go", UNPARSED,
     "none"),
    ("The vehicle moves at a constant pace and the", "speed_trend", UNPARSED,
     "none"),
    ("eyes on the road", "extreme_maneuver", UNPARSED, "none"),
    ("maybe", "mean_speed_low", UNPARSED, "none"),
    ("both halves? first_half? second_half?", "contrastive_halves", UNPARSED,
     "none"),
    ("emergency moderate", "braking_intensity", UNPARSED, "none"),
    ("42", "mean_speed_low", UNPARSED, "none"),
    ("the situation is not clear at all", "braking_intensity", UNPARSED, "none"),
]


def test_criterion_06_parser_corpus():
    assert len(PARSER_CORPUS) == 50
    failures = []
    for raw, question, label, stage in PARSER_CORPUS:
        result = parse(raw, ANSWER_SPACES[question])
        if result.label != label or result.stage != stage:
            failures.append((raw, result.label, result.stage, label, stage))
    quoted_ok = (
        parse("first half", ANSWER_SPACES["speed_peak_half"]).label == "first_half"
        and parse("The answer is: yes", ("yes", "no")).label == "yes"
    )
    results = [parse("yes", ("yes", "no"))] * 943 + [
        parse("indeterminate", ("yes", "no"))
    ] * 57
    rate = parse_rate_report(
        [{"parsed": r.label, "stage": r.stage} for r in results])["default"]["parse_rate_percent"]
    rate_ok = rate == 94.3
    ok = not failures and quoted_ok and rate_ok
    report(6, "parser corpus and parsable-rate reproduction", ok,
           f"50/50 stage-exact, rate={rate}")
    assert quoted_ok
    assert rate_ok
    assert not failures, failures


def _max_deviation(clips, targets):
    worst = 0.0
    for question, classes in targets.items():
        for label, target in classes.items():
            freq = sum(1 for c in clips if c.answers[question] == label) / len(clips)
            worst = max(worst, abs(freq - target))
    return worst


def test_criterion_07_balancer_desk_scale_optimality():
    rng = np.random.default_rng(107)
    spaces = {"qa": ("a", "b"), "qb": ("x", "y", "z")}
    targets = uniform_targets(spaces)
    trials = 0
    violations = []
    while trials < 12:
        pool_size = int(rng.integers(8, 13))
        n = int(rng.integers(2, 7))
        pool = [
            PoolClip(
                f"c{i:02d}",
                "real",
                {q: cls[rng.integers(len(cls))] for q, cls in spaces.items()},
            )
            for i in range(pool_size)
        ]
        trials += 1
        selected = balance(pool, n, targets=targets)
        by_id = {c.clip_id: c for c in pool}
        greedy_dev = _max_deviation([by_id[c] for c in selected], targets)
        optimal = min(
            _max_deviation(list(combo), targets)
            for combo in itertools.combinations(pool, n)
        )
        if greedy_dev > optimal + 1.0 / n + 1e-9:
            violations.append((trials, greedy_dev, optimal, n))
        digest_a = hashlib.sha256(json.dumps(selected).encode()).hexdigest()
        digest_b = hashlib.sha256(
            json.dumps(balance(pool, n, targets=targets)).encode()
        ).hexdigest()
        if digest_a != digest_b:
            violations.append((trials, "nondeterministic"))
    report(7, "greedy balancing near-optimal at desk scale", not violations,
           f"{trials} exhaustive trials")
    assert not violations, violations


def test_criterion_08_sensitivity_sweep():
    start = time.perf_counter()
    suite = generate_suite(200, seed=108)
    cfg = ThresholdConfig()
    clips = [(clip.clip_id, clip.seq) for clip in suite]
    truth = {}
    for clip in suite:
        for rec in label_all(clip.seq, cfg=cfg, clip_id=clip.clip_id):
            truth[(clip.clip_id, rec.question_id)] = rec.answer

    rng = np.random.default_rng(1080)

    def noisy_agent(noise: float):
        preds = {}
        for key, answer in truth.items():
            if rng.random() < noise:
                space = ANSWER_SPACES[key[1]]
                others = [a for a in space if a != answer]
                preds[key] = others[int(rng.integers(len(others)))]
            else:
                preds[key] = answer
        return preds

    models = {
        "agent_clean": noisy_agent(0.0),
        "agent_noise10": noisy_agent(0.10),
        "agent_noise30": noisy_agent(0.30),
    }
    alphas = [0.5, 0.75, 1.0, 1.25, 1.5]
    results = sensitivity_sweep(
        clips, {m: answer_table(p) for m, p in models.items()}, cfg, alphas
    )
    elapsed = time.perf_counter() - start
    taus = {r.alpha: r.kendall_tau_vs_nominal for r in results}
    ok = all(t == pytest.approx(1.0) for t in taus.values()) and elapsed < 30.0
    report(8, "ranking stable (tau = 1.0) across the alpha sweep", ok,
           f"taus={sorted(taus.items())} in {elapsed:.1f}s")
    assert all(t == pytest.approx(1.0) for t in taus.values()), taus
    assert elapsed < 30.0


def test_criterion_09_baseline_mapping_fidelity():
    n = 9
    flow_left = flow_answers(
        FlowProxySeries(
            t=np.arange(n, dtype=float),
            s_turn=np.full(n, 0.06),
            s_exp=np.zeros(n),
            m_mag=np.full(n, 5.0),
        ),
        FLOW_DEFAULT,
    )
    worked_flow = {r.question_id: r.answer for r in flow_left}["turn_direction"] == "left"

    vo_left = vo_answers(
        OdomProxySeries(
            t=np.arange(4, dtype=float),
            m_disp=np.full(4, 5.0),
            theta_deg=np.array([0.2, 0.0, 0.0, 0.0]),
        ),
        VO_DEFAULT,
    )
    worked_vo = {r.question_id: r.answer for r in vo_left}["turn_direction"] == "left"

    vo_sag = vo_answers(
        OdomProxySeries(
            t=np.arange(6, dtype=float),
            m_disp=np.array([0.4, 0.4, 0.4, 2.5, 2.5, 2.5]),
            theta_deg=np.zeros(6),
        ),
        VO_DEFAULT,
    )
    worked_sag = {r.question_id: r.answer for r in vo_sag}["stop_and_go"] == "yes"

    cfg = ThresholdConfig()
    disagreements = []
    for name, spec in sorted(AGREEMENT_SPECS.items()):
        seq, _ = generate(spec)
        oracle_ans = {r.question_id: r.answer for r in label_all(seq, cfg=cfg)}
        flow, odom = synth_proxies(seq, noise_level=0.0)
        flow_ans = {r.question_id: r.answer for r in flow_answers(flow, FLOW_DEFAULT)}
        vo_ans = {r.question_id: r.answer for r in vo_answers(odom, VO_DEFAULT)}
        for question in GEOMETRIC_SUBSET:
            if flow_ans[question] != oracle_ans[question]:
                disagreements.append((name, "flow", question))
            if vo_ans[question] != oracle_ans[question]:
                disagreements.append((name, "vo", question))
    ok = worked_flow and worked_vo and worked_sag and not disagreements
    report(9, "baseline mappings reproduce worked examples and agree with oracle",
           ok, f"{len(AGREEMENT_SPECS)} fixtures x 6 questions x 2 baselines")
    assert worked_flow and worked_vo and worked_sag
    assert not disagreements, disagreements


def test_criterion_10_kinematics_numerics():
    failures = []
    times = GRID
    # straight line
    line = derive_states(
        [PoseSample(t, 10.0 * t, 0.0, 0.0) for t in times]
    )
    if not np.allclose(line.v, 10.0, rtol=0.02):
        failures.append("line speed")
    # circular arc at 10 m/s, radius 50 m
    w = 0.2
    arc = derive_states(
        [
            PoseSample(t, 50.0 * math.sin(w * t), 50.0 * (1 - math.cos(w * t)), w * t)
            for t in times
        ]
    )
    interior = slice(7, -7)
    if not np.allclose(arc.omega[interior], w, rtol=0.02):
        failures.append("arc yaw rate")
    if not np.allclose(arc.v[interior], 10.0, rtol=0.02):
        failures.append("arc speed")
    # constant acceleration
    accel = derive_states([PoseSample(t, t * t, 0.0, 0.0) for t in times])
    if not np.allclose(accel.a[interior], 2.0, rtol=0.02):
        failures.append("constant accel")
    # polynomial reproduction
    t = np.linspace(0.0, 3.0, 31)
    poly = 1.3 - 0.7 * t + 0.4 * t * t
    if not np.allclose(smooth_savgol(poly, 7, 2), poly, atol=1e-9):
        failures.append("polynomial reproduction")
    report(10, "analytic trajectories recovered within tolerance", not failures,
           "line/arc/accel at 2%, smoothing exact to 1e-9")
    assert not failures, failures
