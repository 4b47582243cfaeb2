"""Evaluation report assembly: prediction codes, scoring, and consistency.

``prediction_codes`` is the one pass from prediction rows to answer
codes: it parses each free-text row once through the cascade of
``parsing`` and checks each pre-parsed label, so ``sweep`` and
``evaluate`` build their prediction tables with
``AnswerTable.from_codes`` and ``parse`` and ``evaluate`` write the same
``parsed`` and ``stage`` fields. It keeps columns, not rows, so it folds
rows as ``io.iter_jsonl`` decodes them.

``build_evaluation_report`` reads every score of the report, the
confusion matrices, the per-question and aggregate scores and the
temporal ones, from the confusion counts of ``metrics.score_questions``.

The two outputs that grow with the input are written as text, byte for
byte what the dict encoders of ``io`` write: ``_parsed_line`` builds a
row of the known keys from pieces encoded once, and the report's
per-clip consistency block is built from the rule matrices of
``consistency.consistency_of``, one object text per outcome pattern.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import consistency, io, metrics, parsing
from .errors import ConfigError, NoGroundTruth
from .questions import ANSWER_SPACES, NO_ANSWER, QUESTION_ORDER, UNPARSED, AnswerTable, answer_code

_encode_string = json.encoder.c_encode_basestring  # what io._encode writes for a str


def _question(clip_id, question_id) -> tuple:
    """What the pass needs for one question: its column, its labels with
    ``unparsed`` last (so code ``NO_ANSWER`` indexes it) and its parse
    tables."""
    space = ANSWER_SPACES.get(question_id)
    if space is None:
        answer_code(clip_id, question_id, None)  # raises, naming the clip
    return QUESTION_ORDER.index(question_id), space + (UNPARSED,), parsing.tables(space)


class CodedPredictions(NamedTuple):
    """Prediction rows as columns: item ``i`` of each is of row ``i``."""

    ids: list  # clip ids
    columns: list[int]  # QUESTION_ORDER columns
    codes: list[int]  # answer codes
    models: list  # ``model`` fields, ``default`` where a row has none
    stages: list  # with ``fill``: the stage that gave each label
    lines: list[str]  # with ``fill``: the ``parsed_predictions.jsonl`` lines


def prediction_codes(rows: Iterable[dict], fill: bool = False) -> CodedPredictions:
    """The clip id, ``QUESTION_ORDER`` column, answer code and model of each
    prediction row, in one pass that may read ``rows`` as they are decoded.
    A row with ``response`` is parsed from it, which must be a JSON string;
    a row with only ``parsed`` must carry a label of its question's answer
    space or ``unparsed``.

    With ``fill``, each row gains its parsed label and stage in place
    (``external`` for a pre-parsed row, unless it carries a ``stage``) and
    its line of ``parsed_predictions.jsonl`` is rendered (``_parsed_line``).

    Raises:
        ConfigError: naming the clip, for an unknown question id, a label
            outside the answer space or a ``response`` that is not a string;
            for a pre-parsed row whose ``stage`` is not a string.
        KeyError: for a row without ``clip_id``, ``question_id``, or
            ``response`` or ``parsed``.
        TypeError: for a ``question_id`` that cannot be a key.
    """
    parse_code = parsing.parse_code  # looked up per call: tests count its calls
    questions: dict = {}
    pieces = _Pieces()
    coded = CodedPredictions([], [], [], [], [], [])
    ids, columns, codes, models, stages, lines = coded
    for row in rows:
        clip_id, question_id = row["clip_id"], row["question_id"]
        question = questions.get(question_id)
        if question is None:
            question = questions[question_id] = _question(clip_id, question_id)
        column, labels, tables = question
        if "response" in row:
            raw = row["response"]
            if not isinstance(raw, str):
                raise ConfigError(f"clip {clip_id!r}: field 'response' holds "
                                  f"{io.json_kind(raw)}, not a string")
            code, stage = parse_code(raw, tables)
            if fill:
                row["parsed"] = labels[code]
                row["stage"] = stage
        else:
            code = answer_code(clip_id, question_id, row["parsed"], predicted=True)
            stage = row.get("stage", "external")
            if type(stage) is not str:  # the line is named by the caller, as for 'model'
                raise ConfigError(f"field 'stage' holds {io.json_kind(stage)}, not a string")
            if fill:
                row["stage"] = stage
        ids.append(clip_id)
        columns.append(column)
        codes.append(code)
        models.append(row.get("model", "default"))
        if fill:
            stages.append(stage)
            lines.append(_parsed_line(row, pieces))
    return coded


def parse_predictions(rows: Sequence[dict]) -> Sequence[dict]:
    """``rows``, each with its parsed label and stage filled in place by
    ``prediction_codes``, which also raises as that says."""
    prediction_codes(rows, fill=True)
    return rows


class _Pieces(dict):
    """String -> its JSON text, encoded on first use. Only strings are keys,
    so a value that is not a string misses and raises ``KeyError`` (or
    ``TypeError`` when it cannot be a key)."""

    def __missing__(self, value):
        if type(value) is not str:
            raise KeyError(value)
        text = self[value] = _encode_string(value)
        return text


def _parsed_line(row: Mapping, pieces: _Pieces) -> str:
    """The line that ``io.write_jsonl`` writes for ``row``, filled by
    ``prediction_codes``.

    A row whose keys are ``clip_id``, ``question_id``, ``parsed`` and
    ``stage``, and ``response`` and ``model`` if it has them, and whose
    values are strings is built as text: its question id, label, stage and
    model are encoded once per run (``pieces``), and its clip id and
    response once per row. Every other row goes through ``io.json_text``.
    """
    try:
        head, size = _encode_string(row["clip_id"]), 4
        if "model" in row:
            head, size = f'{head}, "model": {pieces[row["model"]]}', 5
        tail = pieces[row["question_id"]]
        if "response" in row:
            tail, size = f'{tail}, "response": {_encode_string(row["response"])}', size + 1
        if len(row) == size:
            return (f'{{"clip_id": {head}, "parsed": {pieces[row["parsed"]]}, '
                    f'"question_id": {tail}, "stage": {pieces[row["stage"]]}}}\n')
    except (KeyError, TypeError):
        pass
    return io.json_text(row) + "\n"


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


# The per-clip block is written as text and put in place of this string,
# which no other value of the report can hold.
_PER_CLIP = "\0per_clip_consistency"


def _rule_list(rule_ids: Sequence[str]) -> str:
    """Rule ids as ``io.write_json`` writes a list at depth 3 of a document."""
    if not rule_ids:
        return "[]"
    return "[\n" + ",\n".join("        " + _encode_string(r) for r in rule_ids) + "\n      ]"


def _per_clip_text(clip_ids: Sequence, triggered: np.ndarray, violated: np.ndarray) -> str:
    """The ``per_clip_consistency`` list of ``ClipConsistency.to_dict()``
    objects, one per clip of ``consistency_of``'s matrices, as
    ``io.write_json`` writes it at depth 1 of a document.

    Clips with one pattern of rule outcomes differ only in their id, so
    the rest of an object is built once per pattern.
    """
    if not len(clip_ids):
        return "[]"
    outcomes = np.hstack([triggered, violated])
    codes = outcomes @ (1 << np.arange(outcomes.shape[1]))
    tails = {}
    for code, clip in zip(*(a.tolist() for a in np.unique(codes, return_index=True))):
        c = consistency.outcome(None, triggered[clip].tolist(), violated[clip].tolist())
        tails[code] = (f'\n      "contribution": {float.__repr__(c.contribution)},'
                       f'\n      "triggered": {_rule_list(c.triggered_rules)},'
                       f'\n      "violated": {_rule_list(c.violated_rules)}\n    }}')
    return "[\n" + ",\n".join(
        f'    {{\n      "clip_id": {io.json_text(clip_id)},{tails[code]}'
        for clip_id, code in zip(clip_ids, codes.tolist())
    ) + "\n  ]"


def build_evaluation_report(
    truth: AnswerTable, predictions: AnswerTable, truth_path: str
) -> str:
    """The text of ``report.json``, the full per-question and aggregate
    report for one model, whose truth was read from ``truth_path``.

    The text is what ``io.write_json`` writes for the report as a dict
    whose ``per_clip_consistency`` holds each clip's
    ``ClipConsistency.to_dict()``; that block is built as text from the
    rule matrices and put in its sorted place in the document.
    """
    counts, per_question, aggregate = metrics.score_questions(truth, predictions)
    for q, question_scores in per_question.items():
        question_scores["confusion"] = metrics.confusion_json(q, counts[q])
    try:
        temporal_acc, temporal_f1 = metrics.temporal_scores(counts)
    except NoGroundTruth:
        temporal_acc = temporal_f1 = None

    answers = predictions.answers_on(truth)
    by_clip = _clip_order(truth.clip_ids, truth_path)
    triggered, violated = consistency.consistency_of(answers[by_clip])
    wpcr, pcov = consistency.rates(triggered, violated)

    total = int(np.count_nonzero(truth.codes != NO_ANSWER))
    parsed_count = int(np.count_nonzero(answers != NO_ANSWER))

    doc = {
        "per_question": per_question,
        "aggregate": {
            **aggregate,
            "temporal_acc": temporal_acc,
            "temporal_f1": temporal_f1,
            "wpcr": wpcr,
            "pcov": pcov,
            "parsable_rate": 100.0 * parsed_count / total if total else 0.0,
        },
        "per_clip_consistency": _PER_CLIP,
        "metadata": {
            "n_predictions": total,
            "n_clips": len(truth.clip_ids),
            "aggregation": "unweighted mean over questions",
            "temporal_f1_method": "macro-F1 over the pooled temporal confusion",
            "zero_truth_classes": "excluded from balanced accuracy and macro-F1",
            "unparsed_policy": "counted incorrect for every metric",
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
    block = _per_clip_text([truth.clip_ids[i] for i in by_clip], triggered, violated)
    return text.replace(_encode_string(_PER_CLIP), block, 1) + "\n"


def parse_rate_report(parsed_rows: Iterable[Mapping]) -> dict:
    """``parse_rates`` of rows filled by ``prediction_codes``."""
    rows = list(parsed_rows)
    return parse_rates([str(row.get("model", "default")) for row in rows],
                       [row["parsed"] != UNPARSED for row in rows], [row["stage"] for row in rows])


def parse_rates(models: Sequence[str], parsed: Sequence[bool], stages: Sequence) -> dict:
    """Parsable-rate per model, of rows given as columns: row ``i`` is of
    model ``models[i]`` (``default`` for rows without a model field), was
    parsed if ``parsed[i]`` and got its label at stage ``stages[i]``."""
    by_model: dict[str, list[int]] = {}
    for index, model in enumerate(models):
        by_model.setdefault(model, []).append(index)
    report = {}
    for model, rows in sorted(by_model.items()):
        count = sum(1 for i in rows if parsed[i])
        counts: dict = {}
        for i in rows:
            counts[stages[i]] = counts.get(stages[i], 0) + 1
        report[model] = {
            "n": len(rows),
            "parsed": count,
            "parse_rate_percent": round(100.0 * count / len(rows), 1),
            "stages": dict(sorted(counts.items())),
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
