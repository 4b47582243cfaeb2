"""Correctness metrics and the threshold-perturbation sensitivity sweep.

Balanced accuracy is the mean of class-wise recalls over classes that
actually occur in the ground truth; unparsed predictions count as wrong
for every class, never as a class of their own. Ranking stability across
threshold perturbations is measured with Kendall's tau (tau-b for tied
scores) against the nominal (alpha = 1) ranking.

A score has one representation: a question's (k, k + 1) int64 confusion
counts, rows in answer-space order and the unparsed column last. The
scorer takes M models at once: their answer codes on the truth clips are
stacked as (M, N, 14), one ``np.bincount`` per question gives every
model's counts, and ``_rates`` computes accuracy, balanced accuracy and
macro-F1 on the (M, k, k + 1) counts with the float operations of one
table. ``sensitivity_sweep`` stacks the truth of every alpha as well, so
one ``np.bincount`` per question counts every alpha and model;
``score_questions`` (``evaluate``'s report) and ``score_model`` are the
case M = 1, and the temporal scores are ``_rates`` of the temporal
questions' counts pooled by label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptySet, MismatchedModelSets, NoGroundTruth
from .kinematics import summarize_batch
from .oracle import label_at, rule_inputs
from .questions import (
    ANSWER_SPACES,
    NO_ANSWER,
    QUESTION_ORDER,
    TEMPORAL_QUESTIONS,
    AnswerTable,
)
from .thresholds import ThresholdConfig


def _rates(counts: np.ndarray) -> np.ndarray:
    """Accuracy, balanced accuracy and macro-F1 of (M, k, k + 1) counts, as
    a (3, M) array: one confusion table per model, rows in answer-space
    order, the unparsed column last.

    Each value takes the float operations of a table alone: a class left
    out of a mean adds ``+0.0`` to a sum of ``k`` terms, and numpy sums
    fewer than 8 terms in order, so ``k`` must be below 8 (every answer
    space, and the pooled temporal table, has at most 4 labels). Every
    model's table must hold a truth row.
    """
    k = counts.shape[1]
    matrix = counts[:, :, :k]
    diag = np.diagonal(matrix, axis1=1, axis2=2)
    row_sums = counts.sum(axis=2)
    col_sums = matrix.sum(axis=1)
    acc = diag.sum(axis=1) / row_sums.sum(axis=1)
    # recall over classes with truth; unparsed predictions are wrong
    present = row_sums > 0
    recalls = np.where(present, diag / np.maximum(row_sums, 1), 0.0)
    bacc = recalls.sum(axis=1) / present.sum(axis=1)
    # F1 over classes with truth or predictions
    scored = present | (col_sums > 0)
    f1 = np.where(scored, 2.0 * diag / np.maximum(row_sums + col_sums, 1), 0.0)
    return np.stack([acc, bacc, f1.sum(axis=1) / scored.sum(axis=1)])


def _confusion_counts(truth: np.ndarray, answers: np.ndarray) -> dict[str, np.ndarray]:
    """(M, k, k + 1) counts of each question answered in the (N, 14)
    ``truth`` codes, for the (M, N, 14) codes of M models on its clips: one
    ``np.bincount`` per question over (model, truth, prediction). A
    prediction without an answer counts in the unparsed column.

    A (T, N, 14) ``truth``, T tables of the same clips, gives (T, M, k,
    k + 1) counts in the same one ``np.bincount`` per question. A table
    without truth for a question that another table answers gets counts
    without a truth row, which ``_rates`` cannot score; the oracle's
    tables answer every question."""
    lead, models = truth.shape[:-2], len(answers)
    pairs = np.arange(int(np.prod(lead)) * models).reshape(*lead, models, 1)
    counts = {}
    for j, question in enumerate(QUESTION_ORDER):
        present = truth[..., j] != NO_ANSWER
        if not present.any():
            continue
        k = len(ANSWER_SPACES[question])
        pred = answers[:, :, j]
        pred = np.where(pred == NO_ANSWER, k, pred)
        cells = (pairs * k + truth[..., None, :, j]) * (k + 1) + pred
        cells = cells[np.broadcast_to(present[..., None, :], cells.shape)]
        size = pairs.size * k * (k + 1)
        counts[question] = np.bincount(cells, minlength=size).reshape(*lead, models, k, k + 1)
    return counts


def build_confusions(truth: AnswerTable, predictions: AnswerTable) -> dict[str, np.ndarray]:
    """The (k, k + 1) counts of each question answered in ``truth``.

    A prediction without an answer counts in the unparsed column.
    """
    counts = _confusion_counts(truth.codes, predictions.answers_on(truth)[None])
    return {q: c[0] for q, c in counts.items()}


def confusion_json(question: str, counts: np.ndarray) -> dict:
    """The (k, k + 1) ``counts`` of ``question`` as the report's confusion:
    its labels, the truth x prediction matrix and the unparsed column."""
    k = len(ANSWER_SPACES[question])
    return {
        "labels": list(ANSWER_SPACES[question]),
        "matrix": counts[:, :k].tolist(),
        "unparsed": counts[:, k].tolist(),
    }


# the labels of the temporal questions, each once, in first-seen order
_POOLED_TEMPORAL_LABELS = tuple(
    dict.fromkeys(label for q in TEMPORAL_QUESTIONS for label in ANSWER_SPACES[q])
)


def temporal_scores(counts: Mapping[str, np.ndarray]) -> tuple[float, float]:
    """Accuracy and macro-F1 of the event-ordering questions: the rates of
    their (k, k + 1) ``counts`` pooled by label into one table.

    Raises:
        NoGroundTruth: when no temporal question is answered.
    """
    temporal = [q for q in TEMPORAL_QUESTIONS if q in counts]
    if not temporal:
        raise NoGroundTruth("no temporal records")
    k = len(_POOLED_TEMPORAL_LABELS)
    pooled = np.zeros((k, k + 1), dtype=np.int64)
    for q in temporal:
        rows = [_POOLED_TEMPORAL_LABELS.index(label) for label in ANSWER_SPACES[q]]
        pooled[np.ix_(rows, rows + [k])] += counts[q]
    acc, _, f1 = _rates(pooled[None])[:, 0]
    return float(acc), float(f1)


def kendall_tau_scores(
    scores_a: Mapping[str, float], scores_b: Mapping[str, float]
) -> float:
    """tau-b between two score assignments over the same models.

    Identical score vectors correlate perfectly by definition; a vector
    with zero variance against a differing one carries no ranking
    information and scores 0. Otherwise tau-b is scipy's ``kendalltau``
    expression on the integer pair counts, so the float is the same.
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
    upper = np.triu_indices(len(models), k=1)
    sign_a = np.sign(a[:, None] - a[None, :])[upper]
    sign_b = np.sign(b[:, None] - b[None, :])[upper]
    con_minus_dis = int(np.sum(sign_a * sign_b))
    tot = len(models) * (len(models) - 1) // 2
    a_ties, b_ties = int(np.sum(sign_a == 0)), int(np.sum(sign_b == 0))
    tau = con_minus_dis / np.sqrt(tot - a_ties) / np.sqrt(tot - b_ties)
    return float(min(1.0, max(-1.0, tau)))


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


_METRICS = ("acc", "bacc", "f1")


def _scores(counts: Mapping[str, np.ndarray]) -> tuple[dict[str, np.ndarray], list[dict]]:
    """The (3, M) rates of each question's (M, k, k + 1) ``counts`` and, per
    model, their unweighted means over those questions: one ``np.mean`` per
    model and metric, as pairwise summation groups 8 or more terms by
    their count."""
    if not counts:
        raise NoGroundTruth("no scorable questions in the truth set")
    rates = {q: _rates(c) for q, c in counts.items()}
    by_question = np.stack(list(rates.values()), axis=-1)  # (3, M, questions)
    aggregate = [
        {name: float(np.mean(by_question[i, m])) for i, name in enumerate(_METRICS)}
        for m in range(by_question.shape[1])
    ]
    return rates, aggregate


def score_questions(
    truth: AnswerTable, predictions: AnswerTable
) -> tuple[dict[str, np.ndarray], dict[str, dict[str, float]], dict[str, float]]:
    """The ``build_confusions`` counts, the accuracy/balanced accuracy/
    macro-F1 of each question and their means.

    Aggregates are unweighted means of the per-question metrics over the
    questions present in the ground truth, taken in ``QUESTION_ORDER``.
    """
    counts = build_confusions(truth, predictions)
    rates, aggregate = _scores({q: c[None] for q, c in counts.items()})
    per_question = {
        q: {name: float(value) for name, value in zip(_METRICS, r[:, 0])}
        for q, r in rates.items()
    }
    return counts, per_question, aggregate[0]


def score_model(truth: AnswerTable, predictions: AnswerTable) -> dict[str, float]:
    """Aggregate accuracy/balanced accuracy/macro-F1 for one model."""
    return score_questions(truth, predictions)[2]


def _rank_models(scores: Mapping[str, Mapping[str, float]]) -> tuple[str, ...]:
    return tuple(sorted(scores, key=lambda m: (-scores[m]["bacc"], m)))


def sensitivity_sweep(
    clips: Sequence[tuple[str, object]],
    model_predictions: Mapping[str, AnswerTable],
    cfg: ThresholdConfig,
    alphas: Sequence[float],
) -> list[SweepResult]:
    """Relabel and rescore the whole benchmark at each alpha.

    ``clips`` pairs clip ids with their StateSequence. The alpha list must
    contain the nominal factor 1.0, which anchors the tau comparison.
    Models are ranked by aggregate balanced accuracy. Clips are summarized
    once, as columns, and so are the other rule inputs (``rule_inputs``;
    none depends on alpha); each model's answers are put in clip order
    once. Each distinct alpha is one ``label_at`` call, whose codes are its
    truth table, and every alpha and model is scored at once: one
    ``np.bincount`` per question.
    """
    alphas = list(alphas)
    if not alphas or any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if 1.0 not in alphas:
        raise ValueError("alpha list must include the nominal factor 1.0")
    if not model_predictions:
        raise EmptySet("sensitivity sweep needs at least one model")

    clip_ids = tuple(clip_id for clip_id, _ in clips)
    seqs = [seq for _, seq in clips]
    columns = summarize_batch(seqs, cfg.heading_total_mode, clip_ids)
    models = list(model_predictions)
    answers = np.stack([model_predictions[m].on_clips(clip_ids) for m in models])
    inputs = rule_inputs(seqs, columns)
    distinct = list(dict.fromkeys(alphas))
    truth = np.stack([
        label_at(inputs, cfg.with_alpha(cfg.alpha * alpha), clip_ids)[0] for alpha in distinct])
    counts = _confusion_counts(truth, answers)
    aggregate = _scores({q: c.reshape(-1, *c.shape[2:]) for q, c in counts.items()})[1]
    scores = {
        alpha: dict(zip(models, aggregate[t * len(models):(t + 1) * len(models)]))
        for t, alpha in enumerate(distinct)
    }
    nominal_bacc = {m: s["bacc"] for m, s in scores[1.0].items()}
    return [
        SweepResult(
            alpha=alpha,
            model_scores=scores[alpha],
            ranking=_rank_models(scores[alpha]),
            kendall_tau_vs_nominal=kendall_tau_scores(
                nominal_bacc, {m: s["bacc"] for m, s in scores[alpha].items()}
            ),
        )
        for alpha in alphas
    ]
