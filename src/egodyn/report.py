"""Evaluation report assembly: parsing, scoring, and consistency in one pass."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import consistency, metrics, parsing
from .errors import NoGroundTruth
from .questions import NO_ANSWER, AnswerTable, answer_code, answer_space


def parse_predictions(rows: Sequence[Mapping]) -> list[dict]:
    """Attach parsed label and stage to raw prediction rows.

    A pre-parsed label must pass ``questions.answer_code``, or
    ``ConfigError`` is raised.
    """
    out = []
    for row in rows:
        enriched = dict(row)
        if "parsed" in row and "response" not in row:
            answer_code(row["clip_id"], row["question_id"], row["parsed"], predicted=True)
            enriched.setdefault("stage", "external")
        else:
            result = parsing.parse(str(row["response"]), answer_space(row["question_id"]))
            enriched["parsed"] = result.label
            enriched["stage"] = result.stage
        out.append(enriched)
    return out


def build_evaluation_report(truth: AnswerTable, predictions: AnswerTable) -> dict:
    """Full per-question and aggregate report for one model."""
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
    by_clip = sorted(range(len(truth.clip_ids)), key=truth.clip_ids.__getitem__)
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
