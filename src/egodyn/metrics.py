"""Correctness metrics and the threshold-perturbation sensitivity sweep.

Balanced accuracy is the mean of class-wise recalls over classes that
actually occur in the ground truth; unparsed predictions count as wrong
for every class, never as a class of their own. Ranking stability across
threshold perturbations is measured with Kendall's tau (tau-b for tied
scores) against the nominal (alpha = 1) ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import stats

from .errors import EmptySet, MismatchedModelSets, NoGroundTruth
from .kinematics import summarize_batch
from .oracle import label_all
from .questions import (
    ANSWER_SPACES,
    QUESTION_ORDER,
    TEMPORAL_QUESTIONS,
    UNPARSED,
    answer_space,
)
from .thresholds import ThresholdConfig


@dataclass
class ConfusionTable:
    """Truth x prediction counts for one question, plus an unparsed column.

    Rows are ground-truth classes in answer-space order; the extra final
    column counts predictions that did not parse to any label.
    """

    question_id: str
    labels: tuple[str, ...]
    counts: np.ndarray  # shape (k, k + 1), dtype int64

    @classmethod
    def empty(cls, question_id: str, labels: Sequence[str] | None = None):
        labels = tuple(labels if labels is not None else answer_space(question_id))
        return cls(question_id, labels, np.zeros((len(labels), len(labels) + 1), dtype=np.int64))

    def add(self, truth: str, prediction: str | None) -> None:
        row = self.labels.index(truth)
        if prediction is None or prediction == UNPARSED:
            col = len(self.labels)
        else:
            col = self.labels.index(prediction)
        self.counts[row, col] += 1

    def merge(self, other: "ConfusionTable") -> "ConfusionTable":
        if other.question_id != self.question_id or other.labels != self.labels:
            raise ValueError("cannot merge confusion tables of different shape")
        return ConfusionTable(self.question_id, self.labels, self.counts + other.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": self.counts[:, : len(self.labels)].tolist(),
            "unparsed": self.counts[:, len(self.labels)].tolist(),
        }


def accuracy(ct: ConfusionTable) -> float:
    """Raw accuracy; unparsed predictions are wrong."""
    total = ct.total
    if total == 0:
        raise NoGroundTruth(f"no records for {ct.question_id}")
    k = len(ct.labels)
    return float(np.trace(ct.counts[:, :k]) / total)


def balanced_accuracy(ct: ConfusionTable) -> float:
    """Mean of class-wise recalls over classes with ground-truth mass."""
    row_sums = ct.counts.sum(axis=1)
    present = row_sums > 0
    if not present.any():
        raise NoGroundTruth(f"no ground-truth instances for {ct.question_id}")
    k = len(ct.labels)
    diag = np.diag(ct.counts[:, :k])
    recalls = diag[present] / row_sums[present]
    return float(recalls.mean())


def macro_f1(ct: ConfusionTable) -> float:
    """Unweighted mean of per-class F1.

    Classes with neither ground-truth nor predicted mass are excluded;
    a zero precision+recall denominator yields F1 = 0 for that class.
    """
    k = len(ct.labels)
    matrix = ct.counts[:, :k]
    row_sums = ct.counts.sum(axis=1)
    col_sums = matrix.sum(axis=0)
    if not (row_sums > 0).any():
        raise NoGroundTruth(f"no ground-truth instances for {ct.question_id}")
    scores = []
    for c in range(k):
        if row_sums[c] == 0 and col_sums[c] == 0:
            continue
        tp = matrix[c, c]
        denom = row_sums[c] + col_sums[c]
        scores.append(2.0 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


@dataclass(frozen=True)
class EvalRecord:
    """One scored prediction: question, truth label, parsed label or None."""

    clip_id: str
    question_id: str
    truth: str
    prediction: str | None


def build_confusions(records: Iterable[EvalRecord]) -> dict[str, ConfusionTable]:
    tables: dict[str, ConfusionTable] = {}
    for rec in records:
        table = tables.get(rec.question_id)
        if table is None:
            table = ConfusionTable.empty(rec.question_id)
            tables[rec.question_id] = table
        table.add(rec.truth, rec.prediction)
    return tables


def _temporal_subset(records: Iterable[EvalRecord]) -> list[EvalRecord]:
    return [r for r in records if r.question_id in TEMPORAL_QUESTIONS]


def temporal_accuracy(records: Iterable[EvalRecord]) -> float:
    """Accuracy over the event-ordering questions only."""
    subset = _temporal_subset(records)
    if not subset:
        raise NoGroundTruth("no temporal records")
    hits = sum(1 for r in subset if r.prediction == r.truth)
    return hits / len(subset)


def _pooled_temporal_labels() -> tuple[str, ...]:
    labels: list[str] = []
    for q in TEMPORAL_QUESTIONS:
        for lbl in ANSWER_SPACES[q]:
            if lbl not in labels:
                labels.append(lbl)
    return tuple(labels)


def temporal_macro_f1(records: Iterable[EvalRecord]) -> float:
    """Macro-F1 over the pooled confusion table of the temporal questions."""
    subset = _temporal_subset(records)
    if not subset:
        raise NoGroundTruth("no temporal records")
    pooled = ConfusionTable.empty("temporal_pooled", _pooled_temporal_labels())
    for rec in subset:
        pooled.add(rec.truth, rec.prediction)
    return macro_f1(pooled)


def kendall_tau(ranking_a: Sequence[str], ranking_b: Sequence[str]) -> float:
    """Rank correlation between two orderings of the same model set."""
    if set(ranking_a) != set(ranking_b) or len(ranking_a) != len(set(ranking_a)):
        raise MismatchedModelSets("rankings must cover the same models exactly once")
    n = len(ranking_a)
    if n <= 1:
        return 1.0
    pos_b = {model: i for i, model in enumerate(ranking_b)}
    x = np.arange(n)
    y = np.array([pos_b[m] for m in ranking_a])
    return float(stats.kendalltau(x, y).correlation)


def kendall_tau_scores(
    scores_a: Mapping[str, float], scores_b: Mapping[str, float]
) -> float:
    """tau-b between two score assignments over the same models.

    Identical score vectors correlate perfectly by definition; a vector
    with zero variance against a differing one carries no ranking
    information and scores 0.
    """
    if set(scores_a) != set(scores_b):
        raise MismatchedModelSets("score maps must cover the same models")
    models = sorted(scores_a)
    if len(models) <= 1:
        return 1.0
    a = np.array([scores_a[m] for m in models])
    b = np.array([scores_b[m] for m in models])
    if np.array_equal(a, b):
        return 1.0
    if np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0
    return float(stats.kendalltau(a, b).correlation)


@dataclass(frozen=True)
class SweepResult:
    """Metrics for every model at one perturbation factor."""

    alpha: float
    model_scores: dict[str, dict[str, float]]
    ranking: tuple[str, ...]
    kendall_tau_vs_nominal: float

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "model_scores": {
                m: dict(self.model_scores[m]) for m in sorted(self.model_scores)
            },
            "ranking": list(self.ranking),
            "kendall_tau_vs_nominal": self.kendall_tau_vs_nominal,
        }


PredictionMap = Mapping[tuple[str, str], str | None]


@dataclass(frozen=True)
class ModelScores:
    """One model scored against the truth, question by question."""

    records: list[EvalRecord]
    tables: dict[str, ConfusionTable]
    per_question: dict[str, dict[str, float]]
    aggregate: dict[str, float]


def score_questions(
    truth: Mapping[tuple[str, str], str], predictions: PredictionMap
) -> ModelScores:
    """Accuracy/balanced accuracy/macro-F1 per question and their means.

    Aggregates are unweighted means of the per-question metrics over the
    questions present in the ground truth, taken in ``QUESTION_ORDER``.
    """
    records = [
        EvalRecord(clip, q, label, predictions.get((clip, q)))
        for (clip, q), label in truth.items()
    ]
    tables = build_confusions(records)
    per_question = {
        q: {
            "acc": accuracy(tables[q]),
            "bacc": balanced_accuracy(tables[q]),
            "f1": macro_f1(tables[q]),
        }
        for q in QUESTION_ORDER
        if q in tables
    }
    if not per_question:
        raise NoGroundTruth("no scorable questions in the truth set")
    aggregate = {
        name: float(np.mean([scores[name] for scores in per_question.values()]))
        for name in ("acc", "bacc", "f1")
    }
    return ModelScores(records, tables, per_question, aggregate)


def score_model(
    truth: Mapping[tuple[str, str], str], predictions: PredictionMap
) -> dict[str, float]:
    """Aggregate accuracy/balanced accuracy/macro-F1 for one model."""
    return score_questions(truth, predictions).aggregate


def _rank_models(scores: Mapping[str, Mapping[str, float]]) -> tuple[str, ...]:
    return tuple(sorted(scores, key=lambda m: (-scores[m]["bacc"], m)))


def sensitivity_sweep(
    clips: Sequence[tuple[str, object]],
    model_predictions: Mapping[str, PredictionMap],
    cfg: ThresholdConfig,
    alphas: Sequence[float],
) -> list[SweepResult]:
    """Relabel and rescore the whole benchmark at each alpha.

    ``clips`` pairs clip ids with their StateSequence. The alpha list must
    contain the nominal factor 1.0, which anchors the tau comparison.
    Models are ranked by aggregate balanced accuracy. Clips are summarized
    once (summaries do not depend on alpha); thresholds scale once per alpha.
    """
    alphas = list(alphas)
    if not alphas or any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if 1.0 not in alphas:
        raise ValueError("alpha list must include the nominal factor 1.0")
    if not model_predictions:
        raise EmptySet("sensitivity sweep needs at least one model")

    summaries = summarize_batch(
        [seq for _, seq in clips], heading_mode=cfg.heading_total_mode
    )
    summarized = [
        (clip_id, seq, summary) for (clip_id, seq), summary in zip(clips, summaries)
    ]

    def truth_at(alpha: float) -> dict[tuple[str, str], str]:
        scaled = cfg.with_alpha(cfg.alpha * alpha).scaled()
        out: dict[tuple[str, str], str] = {}
        for clip_id, seq, summary in summarized:
            for rec in label_all(seq, summary, scaled, clip_id):
                out[(clip_id, rec.question_id)] = rec.answer
        return out

    nominal_truth = truth_at(1.0)
    nominal_scores = {
        model: score_model(nominal_truth, preds)
        for model, preds in model_predictions.items()
    }
    nominal_bacc = {m: s["bacc"] for m, s in nominal_scores.items()}

    results = []
    for alpha in alphas:
        if alpha == 1.0:
            scores = nominal_scores
        else:
            truth = truth_at(alpha)
            scores = {
                model: score_model(truth, preds)
                for model, preds in model_predictions.items()
            }
        bacc = {m: s["bacc"] for m, s in scores.items()}
        results.append(
            SweepResult(
                alpha=alpha,
                model_scores=scores,
                ranking=_rank_models(scores),
                kendall_tau_vs_nominal=kendall_tau_scores(nominal_bacc, bacc),
            )
        )
    return results
