"""``evaluate`` and ``sweep`` write the same bytes as the dict path.

The reference below is the scoring path that ``questions.AnswerTable``
replaced, kept here as the oracle: truth and predictions as
``{(clip_id, question_id): label}`` dicts, one ``EvalRecord`` per truth
cell, confusion tables filled one cell at a time and scored with the
plain formulas of ``metrics_reference``, and the consistency rules
evaluated clip by clip on string answers. Both paths run through ``cli.main`` into the same
output directory, and every output file, the manifest included, must be
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn import cli, consistency, io, metrics, report
from egodyn.errors import ConfigError, NoGroundTruth
from egodyn.kinematics import summarize
from egodyn.oracle import label_all
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER, TEMPORAL_QUESTIONS, UNPARSED
from egodyn.synth import generate_suite
from metrics_reference import ref_accuracy, ref_balanced_accuracy, ref_macro_f1

# --------------------------------------------------------------- reference


@dataclass(frozen=True)
class EvalRecord:
    clip_id: str
    question_id: str
    truth: str
    prediction: str | None


def ref_read_truth(path) -> dict[tuple[str, str], str]:
    truth = {}
    for row in io.read_jsonl(path):
        clip_id, question, label = row["clip_id"], row["question_id"], row["answer"]
        if label not in ANSWER_SPACES[question]:
            raise ConfigError(f"clip {clip_id!r}: truth answer {label!r}")
        if (clip_id, question) in truth:
            raise ConfigError(f"clip {clip_id!r}, question {question!r}: two truth rows")
        truth[(clip_id, question)] = label
    return truth


def ref_prediction_map(parsed_rows) -> dict[tuple[str, str], str | None]:
    preds = {}
    for row in parsed_rows:
        key, label = (row["clip_id"], row["question_id"]), row["parsed"]
        if key in preds:
            raise ConfigError(f"clip {key[0]!r}, question {key[1]!r}: two prediction rows")
        preds[key] = None if label == UNPARSED else label
    return preds


def ref_add(table, labels, truth, prediction) -> None:
    """Count one (truth, prediction) cell of the (k, k + 1) ``table`` over
    ``labels``; a prediction of ``None`` goes to the unparsed column."""
    column = len(labels) if prediction is None else labels.index(prediction)
    table[labels.index(truth), column] += 1


def ref_confusions(records) -> dict[str, np.ndarray]:
    tables = {}
    for rec in records:
        if rec.question_id not in tables:
            k = len(ANSWER_SPACES[rec.question_id])
            tables[rec.question_id] = np.zeros((k, k + 1), dtype=np.int64)
        ref_add(tables[rec.question_id], ANSWER_SPACES[rec.question_id],
                rec.truth, rec.prediction)
    return tables


def ref_confusion_dict(question, table) -> dict:
    labels = ANSWER_SPACES[question]
    return {"labels": list(labels), "matrix": table[:, : len(labels)].tolist(),
            "unparsed": table[:, len(labels)].tolist()}


def ref_score_questions(truth, predictions):
    records = [
        EvalRecord(clip, q, label, predictions.get((clip, q)))
        for (clip, q), label in truth.items()
    ]
    tables = ref_confusions(records)
    per_question = {
        q: {
            "acc": ref_accuracy(tables[q]),
            "bacc": ref_balanced_accuracy(tables[q]),
            "f1": ref_macro_f1(tables[q]),
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
    return records, tables, per_question, aggregate


def ref_temporal(records) -> tuple[float | None, float | None]:
    subset = [r for r in records if r.question_id in TEMPORAL_QUESTIONS]
    if not subset:
        return None, None
    accuracy = sum(1 for r in subset if r.prediction == r.truth) / len(subset)
    labels = []
    for q in TEMPORAL_QUESTIONS:
        labels += [label for label in ANSWER_SPACES[q] if label not in labels]
    pooled = np.zeros((len(labels), len(labels) + 1), dtype=np.int64)
    for rec in subset:
        ref_add(pooled, labels, rec.truth, rec.prediction)
    return accuracy, ref_macro_f1(pooled)


def ref_holds(condition, value) -> bool:
    return (value == condition.label) if condition.op == "eq" else (value != condition.label)


def ref_clip_consistency(clip_id, answers) -> consistency.ClipConsistency:
    def answer(question):
        value = answers.get(question)
        return None if value is None or value == UNPARSED else value

    trig, viol = [], []
    for rule in consistency.RULES_V1:
        a_val = answer(rule.antecedent.question)
        if a_val is None or not ref_holds(rule.antecedent, a_val):
            continue
        trig.append(rule.rule_id)
        c_val = answer(rule.consequent.question)
        if c_val is None or not ref_holds(rule.consequent, c_val):
            viol.append(rule.rule_id)
    t, v = len(trig), len(viol)
    contribution = t / len(consistency.RULES_V1) if (v == 0 and t > 0) else 0.0
    return consistency.ClipConsistency(clip_id, t, v, contribution, tuple(trig), tuple(viol))


def ref_evaluation_report(truth, predictions) -> dict:
    records, tables, per_question, aggregate = ref_score_questions(truth, predictions)
    temporal_acc, temporal_f1 = ref_temporal(records)
    clip_ids = sorted({clip for clip, _ in truth})
    per_clip = [
        ref_clip_consistency(
            clip_id,
            {q: predictions.get((clip_id, q)) for q in QUESTION_ORDER if (clip_id, q) in truth},
        )
        for clip_id in clip_ids
    ]
    total = len(records)
    parsed_count = sum(1 for r in records if r.prediction is not None)
    return {
        "per_question": {
            q: {**scores, "confusion": ref_confusion_dict(q, tables[q])}
            for q, scores in per_question.items()
        },
        "aggregate": {
            **aggregate,
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


def ref_cmd_evaluate(cfg):
    truth = ref_read_truth(cfg.params["truth"])
    parsed = report.parse_predictions(io.read_predictions(cfg.params["predictions"]))
    doc = ref_evaluation_report(truth, ref_prediction_map(parsed))
    out = cfg.out_dir
    io.write_json(out / "report.json", doc)
    io.write_jsonl(out / "parsed_predictions.jsonl", parsed)
    return {
        "report": out / "report.json",
        "parsed_predictions": out / "parsed_predictions.jsonl",
    }


def ref_sweep(clips, model_predictions, cfg, alphas) -> list[metrics.SweepResult]:
    summaries = [summarize(seq, heading_mode=cfg.heading_total_mode) for _, seq in clips]

    def scores_at(alpha):
        scaled = cfg.with_alpha(cfg.alpha * alpha).scaled()
        truth = {
            (clip_id, rec.question_id): rec.answer
            for (clip_id, seq), summary in zip(clips, summaries)
            for rec in label_all(seq, summary, scaled, clip_id)
        }
        return {
            model: ref_score_questions(truth, preds)[3]
            for model, preds in model_predictions.items()
        }

    nominal_bacc = {m: s["bacc"] for m, s in scores_at(1.0).items()}
    results = []
    for alpha in alphas:
        scores = scores_at(alpha)
        bacc = {m: s["bacc"] for m, s in scores.items()}
        results.append(
            metrics.SweepResult(
                alpha=alpha,
                model_scores=scores,
                ranking=tuple(sorted(scores, key=lambda m: (-scores[m]["bacc"], m))),
                kendall_tau_vs_nominal=metrics.kendall_tau_scores(nominal_bacc, bacc),
            )
        )
    return results


def ref_cmd_sweep(cfg):
    clips = cli._load_clips(cfg, key="trajectories")
    alphas = [float(a) for a in (cfg.alphas or cfg.params.get("alphas"))]
    model_predictions = {
        model: ref_prediction_map(report.parse_predictions(io.read_predictions(path)))
        for model, path in cfg.params["predictions"].items()
    }
    results = ref_sweep(clips, model_predictions, cli._load_thresholds(cfg), alphas)
    out = cfg.out_dir
    io.write_json(out / "sweep.json", {"results": [r.to_dict() for r in results]})
    report.write_sweep_csv(out / "sweep.csv", results)
    return {"sweep": out / "sweep.json", "sweep_csv": out / "sweep.csv"}


# ------------------------------------------------------------- comparison


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def assert_same_bytes(command, config_path, out_dir, reference):
    argv = [command, "--config", str(config_path)]
    assert cli.main(argv) == 0
    shipped = _outputs(out_dir)
    with mock.patch.dict(cli._RUNNERS, {command: reference}):
        assert cli.main(argv) == 0
    assert _outputs(out_dir) == shipped


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("identity")


PREDICTION_KINDS = ("absent", "text", "parsed", "unparsed_text", "unparsed")


def _prediction_row(clip_id, question, kind, label):
    """One prediction row: free text, pre-parsed, or unparsed either way."""
    row = {"clip_id": clip_id, "question_id": question}
    if kind == "text":
        row["response"] = f"Let me see.\nThe answer is {label}."
    elif kind == "parsed":
        row["parsed"] = label
    elif kind == "unparsed_text":
        row["response"] = "I cannot tell."
    else:
        row["parsed"] = UNPARSED
    return row


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def prediction_rows(rng, clip_ids):
    """Rows for the given clips and two clips outside them, in random order.

    Cells and labels come from a seeded generator, not from hypothesis
    draws, so every label is equally likely (hypothesis favours the first).
    """
    rows = []
    for clip_id in [*clip_ids, "extra_a", "extra_b"]:
        for question in QUESTION_ORDER:
            kind = _pick(rng, PREDICTION_KINDS)
            if kind != "absent":
                label = _pick(rng, ANSWER_SPACES[question])
                rows.append(_prediction_row(clip_id, question, kind, label))
    return [rows[i] for i in rng.permutation(len(rows))]


seeds = st.integers(0, 2**32 - 1)


@st.composite
def evaluate_inputs(draw):
    """Partial truth (sometimes without temporal questions) and predictions."""
    rng = np.random.default_rng(draw(seeds))
    clip_ids = [f"c{i}" for i in range(draw(st.integers(1, 12)))]
    questions = [
        q for q in QUESTION_ORDER if not (q in TEMPORAL_QUESTIONS and draw(st.booleans()))
    ]
    share = draw(st.sampled_from([0.3, 0.75, 1.0]))  # of the cells with a truth row
    truth = [
        {"clip_id": clip_id, "question_id": q, "answer": _pick(rng, ANSWER_SPACES[q])}
        for clip_id in clip_ids
        for q in questions
        if rng.random() < share
    ]
    if not truth:
        truth = [{"clip_id": "c0", "question_id": "turn_direction", "answer": "left"}]
    truth = [truth[i] for i in rng.permutation(len(truth))]
    return truth, prediction_rows(rng, clip_ids)


@settings(max_examples=60, deadline=None)
@given(evaluate_inputs())
def test_evaluate_equals_reference(workdir, inputs):
    truth, predictions = inputs
    io.write_jsonl(workdir / "truth.jsonl", truth)
    io.write_jsonl(workdir / "predictions.jsonl", predictions)
    config = workdir / "evaluate.json"
    io.write_json(config, {"truth": str(workdir / "truth.jsonl"),
                           "predictions": str(workdir / "predictions.jsonl"),
                           "out": str(workdir / "evaluate")})
    assert_same_bytes("evaluate", config, workdir / "evaluate", ref_cmd_evaluate)


@pytest.fixture(scope="module")
def trajectories(workdir):
    suite = generate_suite(8, seed=61)
    path = workdir / "trajectories.jsonl"
    io.write_jsonl(path, [row for c in suite for row in io.sequence_to_rows(c.clip_id, c.seq)])
    return path, [c.clip_id for c in suite]


@pytest.mark.parametrize("heading_mode", ["net", "sum"])
@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_sweep_equals_reference(workdir, trajectories, heading_mode, seed):
    path, clip_ids = trajectories
    rng = np.random.default_rng(seed)
    thresholds = workdir / f"thresholds_{heading_mode}.json"
    io.write_json(thresholds, {"heading_total_mode": heading_mode})
    models = {}
    for model in ("m1", "m2", "m3"):
        models[model] = workdir / f"{model}.jsonl"
        io.write_jsonl(models[model], prediction_rows(rng, clip_ids))
    config = workdir / f"sweep_{heading_mode}.json"
    io.write_json(config, {"trajectories": str(path), "thresholds": str(thresholds),
                           "predictions": {m: str(p) for m, p in models.items()},
                           "alphas": [0.5, 0.75, 1.0, 1.25, 1.5],
                           "out": str(workdir / f"sweep_{heading_mode}")})
    assert_same_bytes("sweep", config, workdir / f"sweep_{heading_mode}", ref_cmd_sweep)
