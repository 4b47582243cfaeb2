"""Evaluation report assembly: parsing, scoring, and consistency in one pass."""

from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import consistency, metrics, parsing
from .errors import ConfigError, NoGroundTruth
from .questions import ANSWER_SPACES, NO_ANSWER, AnswerTable, answer_code


def parse_predictions(rows: Sequence[Mapping]) -> list[dict]:
    """Attach parsed label and stage to raw prediction rows.

    A pre-parsed label must pass ``questions.answer_code``, and every
    ``question_id`` must be one of the 14, or ``ConfigError`` is raised
    naming the clip.
    """
    out = []
    for row in rows:
        enriched = dict(row)
        if "parsed" in row and "response" not in row:
            answer_code(row["clip_id"], row["question_id"], row["parsed"], predicted=True)
            enriched.setdefault("stage", "external")
        else:
            space = ANSWER_SPACES.get(row["question_id"])
            if space is None:
                answer_code(row["clip_id"], row["question_id"], None)  # raises, naming the clip
            result = parsing.parse(str(row["response"]), space)
            enriched["parsed"] = result.label
            enriched["stage"] = result.stage
        out.append(enriched)
    return out


def _clip_order(clip_ids: tuple, truth_path: str) -> list[int]:
    """Indices of ``clip_ids`` in sorted id order.

    Raises:
        ConfigError: naming ``truth_path`` and two ids that cannot be
            ordered, as a JSON number and a string cannot.
    """
    try:
        return sorted(range(len(clip_ids)), key=clip_ids.__getitem__)
    except TypeError:
        for first, second in itertools.combinations(clip_ids, 2):
            try:
                first < second  # only whether it raises matters
            except TypeError:
                raise ConfigError(
                    f"{truth_path}: clip ids {first!r} and {second!r} cannot be ordered; "
                    "the clip ids of a truth file must be all strings or all numbers"
                ) from None
        raise


def build_evaluation_report(
    truth: AnswerTable, predictions: AnswerTable, truth_path: str
) -> dict:
    """Full per-question and aggregate report for one model, whose truth
    was read from ``truth_path``."""
    scores = metrics.score_questions(truth, predictions)
    per_question = {
        q: {**question_scores, "confusion": scores.tables[q].to_dict()}
        for q, question_scores in scores.per_question.items()
    }

    try:
        temporal_acc = metrics.temporal_accuracy(scores.tables)
        temporal_f1 = metrics.temporal_macro_f1(scores.tables)
    except NoGroundTruth:
        temporal_acc = None
        temporal_f1 = None

    answers = predictions.answers_on(truth)
    by_clip = _clip_order(truth.clip_ids, truth_path)
    per_clip = consistency.consistency_of(
        [truth.clip_ids[i] for i in by_clip], answers[by_clip]
    )

    total = int(np.count_nonzero(truth.codes != NO_ANSWER))
    parsed_count = int(np.count_nonzero(answers != NO_ANSWER))

    return {
        "per_question": per_question,
        "aggregate": {
            **scores.aggregate,
            "temporal_acc": temporal_acc,
            "temporal_f1": temporal_f1,
            "wpcr": consistency.wpcr(per_clip),
            "pcov": consistency.pcov(per_clip),
            "parsable_rate": 100.0 * parsed_count / total if total else 0.0,
        },
        "per_clip_consistency": [c.to_dict() for c in per_clip],
        "metadata": {
            "n_predictions": total,
            "n_clips": len(truth.clip_ids),
            "aggregation": "unweighted mean over questions",
            "temporal_f1_method": "macro-F1 over the pooled temporal confusion",
            "zero_truth_classes": "excluded from balanced accuracy and macro-F1",
            "unparsed_policy": "counted incorrect for every metric",
        },
    }


def parse_rate_report(parsed_rows: Sequence[Mapping]) -> dict:
    """Parsable-rate per model (rows without a model field pool together).

    ``parsed_rows`` are the output of ``parse_predictions``.
    """
    by_model: dict[str, list[Mapping]] = {}
    for row in parsed_rows:
        by_model.setdefault(str(row.get("model", "default")), []).append(row)
    report = {}
    for model, rows in sorted(by_model.items()):
        parsed = sum(1 for r in rows if r["parsed"] != parsing.UNPARSED)
        rate = 100.0 * parsed / len(rows)
        stages: dict[str, int] = {}
        for r in rows:
            stages[r["stage"]] = stages.get(r["stage"], 0) + 1
        report[model] = {
            "n": len(rows),
            "parsed": parsed,
            "parse_rate_percent": round(rate, 1),
            "stages": dict(sorted(stages.items())),
        }
    return report


def write_sweep_csv(path: str | Path, sweep_results) -> None:
    """Long-format plot data: one row per (alpha, model)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["alpha", "model", "bacc", "kendall_tau_vs_nominal"])
        for result in sweep_results:
            for model in sorted(result.model_scores):
                writer.writerow(
                    [
                        f"{result.alpha:g}",
                        model,
                        f"{result.model_scores[model]['bacc']:.6f}",
                        f"{result.kendall_tau_vs_nominal:.6f}",
                    ]
                )
