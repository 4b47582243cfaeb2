"""Evaluation report assembly: parsing, scoring, and consistency in one pass."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence

from . import consistency, metrics, parsing
from .errors import ConfigError, NoGroundTruth
from .questions import QUESTION_ORDER, answer_space


def parse_predictions(rows: Sequence[Mapping]) -> list[dict]:
    """Attach parsed label and stage to raw prediction rows.

    A pre-parsed label must be in its question's answer space or
    ``unparsed``; anything else raises ``ConfigError``.
    """
    out = []
    for row in rows:
        enriched = dict(row)
        if "parsed" in row and "response" not in row:
            label = row["parsed"]
            if label != parsing.UNPARSED and label not in answer_space(row["question_id"]):
                raise ConfigError(
                    f"clip {row['clip_id']!r}, question {row['question_id']!r}: "
                    f"parsed label {label!r} is not in the answer space"
                )
            enriched.setdefault("stage", "external")
        else:
            result = parsing.parse(str(row["response"]), answer_space(row["question_id"]))
            enriched["parsed"] = result.label
            enriched["stage"] = result.stage
        out.append(enriched)
    return out


def prediction_map(parsed_rows: Sequence[Mapping]) -> metrics.PredictionMap:
    """(clip_id, question_id) -> parsed label, or None when unparsed.

    Raises ``ConfigError`` when two rows share a (clip_id, question_id).
    """
    preds: dict[tuple[str, str], str | None] = {}
    for row in parsed_rows:
        key, label = (row["clip_id"], row["question_id"]), row["parsed"]
        if key in preds:
            raise ConfigError(f"clip {key[0]!r}, question {key[1]!r}: two prediction rows")
        preds[key] = None if label == parsing.UNPARSED else label
    return preds


def build_evaluation_report(
    truth: Mapping[tuple[str, str], str], predictions: metrics.PredictionMap
) -> dict:
    """Full per-question and aggregate report for one model.

    ``truth`` maps (clip_id, question_id) to the ground-truth label and
    ``predictions`` maps the same keys to the parsed label or None.
    """
    scores = metrics.score_questions(truth, predictions)
    records = scores.records
    per_question = {
        q: {**question_scores, "confusion": scores.tables[q].to_dict()}
        for q, question_scores in scores.per_question.items()
    }

    try:
        temporal_acc = metrics.temporal_accuracy(records)
        temporal_f1 = metrics.temporal_macro_f1(records)
    except NoGroundTruth:
        temporal_acc = None
        temporal_f1 = None

    clip_ids = sorted({clip for clip, _ in truth})
    per_clip = []
    for clip_id in clip_ids:
        answers = {
            q: predictions.get((clip_id, q))
            for q in QUESTION_ORDER
            if (clip_id, q) in truth
        }
        per_clip.append(consistency.clip_consistency(clip_id, answers))

    total = len(records)
    parsed_count = sum(1 for r in records if r.prediction is not None)

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
            "n_clips": len(clip_ids),
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
