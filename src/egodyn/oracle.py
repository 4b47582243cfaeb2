"""Deterministic labeling rules mapping kinematics to semantic answers.

``label_batch`` answers the 14 questions for many clips at once. It
computes every rule input once per clip, as columns along the batch, and
decides each question with array comparisons (``decide``) into an (N, 14)
matrix of answer codes (the codes of ``questions.AnswerTable``). It is two
steps: ``rule_inputs`` computes what no threshold changes, and
``label_at`` makes the comparisons at one alpha, so a sweep over alphas
computes the first once.
``label_lines`` turns codes and a rule table into the JSON Lines text of
the label rows, each with the answer, its rule, the exact (alpha-scaled)
parameters and the evidence used, so every label is auditable after the
fact; the per-clip ``QARecord`` APIs read that text back. The geometric
baselines decide and build their rows through the same two functions.

Sign convention: positive yaw rate is a left (counter-clockwise) turn.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import io
from .errors import InvalidTrajectory
from .kinematics import (KinematicSummary, StateSequence, _summary_columns, half_split_index,
                         reduce_stacks, sample_count_stacks, summarize_batch)
from .questions import ANSWER_SPACES, QUESTION_ORDER, answer_code
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


# question -> (rule name, ThresholdConfig fields recorded as rule parameters,
# evidence columns recorded); every record's parameters also hold "alpha".
RULES: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "turn_direction": ("peak_yaw_rate_deadzone", ("turn_deadzone",),
                       ("peak_yaw_rate", "max_abs_yaw_rate")),
    "braking_intensity": ("min_accel_buckets",
                          ("brake_emergency", "brake_moderate", "brake_low"), ("min_accel",)),
    "speed_regime": ("max_speed_buckets",
                     ("speed_stopped", "speed_slow", "speed_urban"), ("max_speed",)),
    "driving_smoothness": ("mean_abs_jerk_buckets",
                           ("jerk_smooth", "jerk_moderate"), ("mean_abs_jerk",)),
    "speed_trend": ("mean_accel_deadzone", ("trend_deadzone",), ("mean_accel",)),
    "mean_speed_low": ("mean_speed_threshold", ("mean_speed_low",), ("mean_speed",)),
    "heading_change": ("total_heading_threshold", ("heading_change_min", "heading_total_mode"),
                       ("total_heading_change",)),
    "extreme_maneuver": ("jerk_or_accel_extreme", ("extreme_jerk", "extreme_accel"),
                         ("max_abs_jerk", "min_accel")),
    "motion_axis": ("activity_ratio_dominance", ("trend_deadzone", "lat_accel_high"),
                    ("mean_accel", "max_lat_accel", "longitudinal_activity", "lateral_activity")),
    "lateral_accel": ("peak_lat_accel_threshold", ("lat_accel_high",), ("max_lat_accel",)),
    "stop_and_go": ("ordered_stop_to_move", ("stopgo_stop", "stopgo_move", "bidirectional"),
                    ("min_speed", "max_speed")),
    "brake_then_turn": ("ordered_brake_to_turn", ("btt_brake", "btt_yaw"),
                        ("min_accel", "max_abs_yaw_rate")),
    "speed_peak_half": ("argmax_half_split", ("peak_epsilon",),
                        ("speed_spread", "peak_index", "mid_index")),
    "contrastive_halves": ("half_jerk_contrast", ("contrastive_rel_band", "contrastive_abs_band"),
                           ("dynamism_first", "dynamism_second", "band")),
}
_PARAM_FIELDS = {"bidirectional": "stop_go_bidirectional"}  # parameter -> config field
_EVIDENCE = tuple(dict.fromkeys(name for _, _, names in RULES.values() for name in names))
_SUMMARY_EVIDENCE = sorted(set(_EVIDENCE) & set(KinematicSummary.__annotations__))


def ordered_pair(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Whether some True of ``first`` strictly precedes a True of ``second``,
    along the last axis: the first ``argmax`` of ``first``, then ``any`` of
    ``second`` after it."""
    start = np.argmax(first, axis=-1)
    after = np.arange(first.shape[-1]) > np.expand_dims(start, -1)
    return np.any(first, axis=-1) & np.any(second & after, axis=-1)


def decide(conditions: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """(N, Q) answer codes, per question from one condition per answer but the
    last: a clip gets the first answer whose condition holds, else the last."""
    return np.stack([np.select(held, range(len(held)), len(held)) for held in conditions], 1)


# The alpha-free rule inputs of N clips: (N,) columns, and per stack of
# clips that share a sample count, their positions and (m, n) v, a and |omega|.
RuleInputs = tuple[dict[str, np.ndarray], list[tuple[list[int], tuple[np.ndarray, ...]]]]


def rule_inputs(
    seqs: Sequence[StateSequence], summaries: Mapping[str, np.ndarray],
) -> RuleInputs:
    """What the rules read that no threshold changes, computed once for any
    number of alphas: the summary evidence of ``summaries``
    (``summarize_batch``), peak yaw rate, speed spread and argmax, the
    half-split jerk means, and the stacked channels of the ordered-pair
    rules."""
    stacks = sample_count_stacks(seqs, ("v", "a", "j", "omega"))

    def reduce(v, a, j, omega):
        abs_jerk = np.abs(j)
        mid = half_split_index(v.shape[-1])
        min_speed = np.min(v, axis=-1)
        return {
            "peak_yaw_rate": np.take_along_axis(
                omega, np.argmax(np.abs(omega), axis=-1)[:, None], axis=-1)[:, 0],
            "min_speed": min_speed,
            "speed_spread": np.max(v, axis=-1) - min_speed,
            "speed_argmax": np.argmax(v, axis=-1),
            "mid_index": np.full(len(v), mid),
            "dynamism_first": np.mean(abs_jerk[:, : mid + 1], axis=-1),
            "dynamism_second": np.mean(abs_jerk[:, mid + 1 :], axis=-1),
        }

    columns = reduce_stacks(stacks, reduce)
    columns.update((name, summaries[name]) for name in _SUMMARY_EVIDENCE)
    return columns, [(members, (v, a, np.abs(omega))) for members, (v, a, _, omega) in stacks]


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, not warned
def label_at(
    inputs: RuleInputs, cfg: ThresholdConfig, clip_ids: Sequence[str] | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Answer all 14 questions under ``cfg`` for the clips of ``inputs``
    (``rule_inputs``): every threshold comparison, at ``cfg.alpha``.

    Returns the (N, 14) ``intp`` answer codes, columns in ``QUESTION_ORDER``,
    and the rule inputs as columns, among them the evidence named in ``RULES``.

    Raises:
        InvalidTrajectory: some evidence value named in ``RULES`` is not
            finite (a ratio or band of finite summaries overflows under
            ``cfg``); names the first such clip, by its id in ``clip_ids``
            or else by its position.
    """
    columns, stacks = inputs
    if not stacks:
        return np.empty((0, len(QUESTION_ORDER)), dtype=np.intp), {}
    eff = cfg.scaled()

    def pairs(v, a, abs_omega):
        stopped, moving = v < eff.stopgo_stop, v > eff.stopgo_move
        return {
            "stop_to_move": ordered_pair(stopped, moving),
            "move_to_stop": ordered_pair(moving, stopped),
            "brake_to_turn": ordered_pair(a < eff.btt_brake, abs_omega > eff.btt_yaw),
        }

    ev = {**columns, **reduce_stacks(stacks, pairs)}
    peak, d1, d2 = ev["peak_yaw_rate"], ev["dynamism_first"], ev["dynamism_second"]
    lon = ev["longitudinal_activity"] = np.abs(ev["mean_accel"]) / eff.trend_deadzone
    lat = ev["lateral_activity"] = ev["max_lat_accel"] / eff.lat_accel_high
    band = ev["band"] = np.maximum(
        eff.contrastive_rel_band * np.maximum(d1, d2), eff.contrastive_abs_band)
    peaked = ev["speed_spread"] >= eff.peak_epsilon
    ev["peak_index"] = np.where(peaked, ev["speed_argmax"], -1)
    finite = np.logical_and.reduce([np.isfinite(ev[name]) for name in _EVIDENCE])
    if not np.all(finite):
        i = int(np.argmin(finite))
        name = next(name for name in _EVIDENCE if not np.isfinite(ev[name][i]))
        clip = repr(clip_ids[i]) if clip_ids is not None else f"at position {i}"
        raise InvalidTrajectory(
            f"clip {clip}: rule evidence overflows at alpha {cfg.alpha}: {name!r} is not finite")
    no_axis = (lon < 1.0) & (lat < 1.0)
    differ = np.abs(d1 - d2) > band
    min_accel, max_speed, jerk = ev["min_accel"], ev["max_speed"], ev["mean_abs_jerk"]
    mean_accel = ev["mean_accel"]
    stop_go = ev["stop_to_move"] | (eff.stop_go_bidirectional & ev["move_to_stop"])
    conditions = {
        "turn_direction": [peak > eff.turn_deadzone, peak < -eff.turn_deadzone],
        "braking_intensity": [min_accel < eff.brake_emergency,
                              min_accel < eff.brake_moderate, min_accel < eff.brake_low],
        "speed_regime": [max_speed < eff.speed_stopped, max_speed < eff.speed_slow,
                         max_speed < eff.speed_urban],
        "driving_smoothness": [jerk <= eff.jerk_smooth, jerk <= eff.jerk_moderate],
        "speed_trend": [mean_accel > eff.trend_deadzone, mean_accel < -eff.trend_deadzone],
        "mean_speed_low": [ev["mean_speed"] < eff.mean_speed_low],
        "heading_change": [ev["total_heading_change"] > eff.heading_change_min],
        "extreme_maneuver": [(ev["max_abs_jerk"] > eff.extreme_jerk)
                             | (min_accel < eff.extreme_accel)],
        "motion_axis": [~no_axis & (lon >= lat), ~no_axis],
        "lateral_accel": [ev["max_lat_accel"] > eff.lat_accel_high],
        "stop_and_go": [stop_go],
        "brake_then_turn": [ev["brake_to_turn"]],
        "speed_peak_half": [peaked & (ev["peak_index"] <= ev["mid_index"]), peaked],
        "contrastive_halves": [differ & (d1 > d2), differ],
    }
    return decide([conditions[question] for question in QUESTION_ORDER]), ev


def label_batch(
    seqs: Sequence[StateSequence], summaries: Mapping[str, np.ndarray], cfg: ThresholdConfig,
    clip_ids: Sequence[str] | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Answer all 14 questions for many clips, given their summary columns
    (``summarize_batch``) under ``cfg.heading_total_mode``: ``label_at`` of
    their ``rule_inputs``."""
    if not seqs:
        return np.empty((0, len(QUESTION_ORDER)), dtype=np.intp), {}
    return label_at(rule_inputs(seqs, summaries), cfg, clip_ids)


def rule_table(cfg: ThresholdConfig) -> dict[str, tuple[str, dict, tuple[str, ...]]]:
    """question -> (rule name, its parameters under ``cfg``, evidence names)."""
    eff = cfg.scaled()
    table = {}
    for question, (rule, fields, names) in RULES.items():  # in QUESTION_ORDER
        params = {name: getattr(eff, _PARAM_FIELDS.get(name, name)) for name in fields}
        table[question] = (rule, {**params, "alpha": cfg.alpha}, names)
    return table


def _column_texts(column: np.ndarray) -> list[str]:
    """The JSON text of each value of an evidence column: ``float.__repr__``
    for a finite float column, which is what the encoder writes for a finite
    float; the encoder itself for any other column (``NaN``, ``Infinity``,
    ints, bools)."""
    values = column.tolist()
    if column.dtype.kind == "f" and np.isfinite(column).all():
        return list(map(float.__repr__, values))
    return [io.json_text(value) for value in values]


def label_lines(
    clip_ids: Sequence[str], codes: np.ndarray, evidence: dict[str, np.ndarray],
    table: dict[str, tuple[str, dict, tuple[str, ...]]],
) -> str:
    """The JSON Lines text of every answer's ``QARecord.to_dict()``, as
    ``json.dumps(row, sort_keys=True, ensure_ascii=False)`` writes it, clip
    by clip in the order of ``table`` (as ``rule_table``), whose k-th
    question is column k of ``codes``.

    Each question is one ``%`` template: its evidence keys, sorted, and its
    constant tail (question, rule and parameters) are encoded once. Each
    answer string and clip id is encoded once, and each evidence column
    once (see ``_column_texts``).

    ``QARecord``'s checks run once for the batch: every code is in its
    question's answer space and every question records some evidence.
    """
    if not len(codes):
        return ""
    ids = [io.json_text(clip_id) for clip_id in clip_ids]
    texts: dict[str, list[str]] = {}
    by_question = []
    for k, (question, (rule, params, names)) in enumerate(table.items()):
        space = ANSWER_SPACES[question]
        column = codes[:, k]
        outside = (column < 0) | (column >= len(space))
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(
                f"clip {clip_ids[i]!r}, question {question!r}: "
                f"answer code {int(column[i])} is not in the answer space"
            )
        if not names:
            raise ValueError("evidence must not be empty")
        keys = sorted(names)
        tail = io.json_text({"question_id": question, "rule_name": rule, "rule_params": params})
        fields = ", ".join(io.json_text(name).replace("%", "%%") + ": %s" for name in keys)
        template = (
            '{"answer": %s, "clip_id": %s, "evidence": {' + fields + "}, "
            + tail[1:].replace("%", "%%") + "\n"
        )
        for name in keys:
            if name not in texts:
                texts[name] = _column_texts(evidence[name])
        answers = [io.json_text(answer) for answer in space]
        by_question.append([
            template % values for values in zip(
                map(answers.__getitem__, column.tolist()), ids, *(texts[name] for name in keys))
        ])
    return "".join(itertools.chain.from_iterable(zip(*by_question)))


def read_records(text: str) -> list[QARecord]:
    """The QARecords of ``label_lines`` text, line by line."""
    return [QARecord(**json.loads(line)) for line in text.split("\n")[:-1]]


def records(
    clip_ids: Sequence[str], codes: np.ndarray, evidence: dict[str, np.ndarray],
    cfg: ThresholdConfig,
) -> list[QARecord]:
    """QARecords of ``label_batch`` output, clip by clip in ``QUESTION_ORDER``."""
    return read_records(label_lines(clip_ids, codes, evidence, rule_table(cfg)))


def tags_of(codes: np.ndarray) -> list[dict[str, bool]]:
    """Binary curation tags per row of answer codes: has_turn, has_braking,
    has_aggressive.

    Defined through the labeling rules so the tags can never drift from
    the labels: a clip has a turn iff its turn label is not straight, has
    braking iff braking intensity is not none, and is aggressive iff the
    smoothness label is aggressive or the extreme-maneuver answer is yes.
    """

    def is_(question: str, answer: str) -> np.ndarray:
        code = ANSWER_SPACES[question].index(answer)
        return codes[:, QUESTION_ORDER.index(question)] == code

    tags = {
        "has_turn": ~is_("turn_direction", "straight"),
        "has_braking": ~is_("braking_intensity", "none"),
        "has_aggressive": is_("driving_smoothness", "aggressive") | is_("extreme_maneuver", "yes"),
    }
    return [dict(zip(tags, row)) for row in zip(*(c.tolist() for c in tags.values()))]


def label_all(
    seq: StateSequence,
    summary: KinematicSummary | None = None,
    cfg: ThresholdConfig | None = None,
    clip_id: str = "",
) -> list[QARecord]:
    """Answer all 14 questions for one clip, in canonical order; a batch
    of one of ``label_batch``."""
    cfg = cfg or ThresholdConfig()
    columns = (summarize_batch([seq], cfg.heading_total_mode) if summary is None
               else _summary_columns(summary))
    codes, evidence = label_batch([seq], columns, cfg, [clip_id])
    return records([clip_id], codes, evidence, cfg)
