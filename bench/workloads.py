"""Seeded inputs and output checks for the benchmark workloads.

Every workload is built from ``egodyn.synth.generate_suite`` and written
as plain files; the engine only ever sees those files. Each workload puts
a different module on the critical path:

- ``label_traj``: ``label --encoding summary`` on pose and rate rows. The
  only workload that resamples and runs the Savitzky-Golay derivation
  chain, and the write-heavy use of ``oracle`` (every ``QARecord`` with
  its evidence) and ``io``.
- ``sweep_state``: ``sweep`` over full-state rows, which skip derivation,
  so a ``kinematics`` derivation change must not move it. It relabels the
  corpus once per alpha and reads only the answers: the read-heavy use of
  ``oracle`` and ``thresholds``. Four free-text models with known noise
  levels make the expected ranking known.
- ``evaluate_text``: ``evaluate`` on free-text responses with a fixed mix
  of parser stages and a known share of wrong labels. No kinematics or
  oracle work: ``parsing``, ``metrics``, ``consistency``, ``report`` and
  large JSONL reads and writes.
- ``balance_pool``: ``balance`` on a pool skewed toward cruise templates,
  as real logs are, with a cap on one source. The only workload that
  reaches ``balancer``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from egodyn import parsing
from egodyn.io import sequence_to_rows
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER
from egodyn.synth import TEMPLATE_NAMES, generate_suite

# Clips per workload input. The command on each takes 0.6 to 2 seconds on
# a 2-core x86 machine, about as long as the interpreter start-up and
# imports that precede it, so one measured run holds several commands and
# reports their median: on a shared host single commands vary by a
# quarter.
SIZES = {
    "label_traj": 400,
    "sweep_state": 250,
    "evaluate_text": 2000,
    "balance_pool": 1500,
}

STAGES = (parsing.STAGE_EXACT, parsing.STAGE_UNDERSCORE, parsing.STAGE_LAST_LINE,
          parsing.STAGE_SUBSTRING, parsing.STAGE_NONE)
STAGE_MIX = (0.40, 0.20, 0.15, 0.15, 0.10)
EVAL_WRONG_SHARE = 0.2
MODEL_NOISE = {"noise00": 0.0, "noise10": 0.10, "noise20": 0.20, "noise35": 0.35}
SWEEP_ALPHAS = (0.5, 0.75, 1.0, 1.25, 1.5)
BALANCE_SHARE = 10        # select one clip in this many
CRUISE_TENTHS = 5         # tenths of the pool added as extra cruise clips
SIM_TENTHS = 3            # tenths of each template from the capped source
SIM_CAP_SHARE = 0.1       # cap on that source, as a share of the selection


@dataclass
class Workload:
    """One generated workload: CLI arguments plus what to check."""

    name: str
    clips: int
    rows: int  # free-text prediction rows in the input (0 when none)
    argv: list[str]
    check: Callable[[Path], list[str]]


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True))
            handle.write("\n")


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _respond(label: str, stage: str) -> str:
    """Free text that the parse cascade resolves to ``label`` at ``stage``."""
    words = label.replace("_", " ")
    if stage == "exact":
        return label
    if stage == "underscore":
        return words.title() + "."
    if stage == "last_line":
        return "Looking at the speed and yaw traces.\n" + label
    if stage == "substring":
        return "Answer: " + words
    return "I cannot tell from this clip."


def _responses(rng, suite, wrong_share: float, model: str | None = None):
    """Prediction rows for every (clip, question), with their bookkeeping."""
    n = len(suite) * len(QUESTION_ORDER)
    stages = rng.choice(len(STAGES), size=n, p=STAGE_MIX)
    wrong = rng.random(n) < wrong_share
    picks = rng.integers(0, 1 << 30, size=n)
    rows = []
    stage_counts = dict.fromkeys(STAGES, 0)
    correct = dict.fromkeys(QUESTION_ORDER, 0)
    k = 0
    for clip in suite:
        for question in QUESTION_ORDER:
            truth = clip.expected[question]
            label = truth
            if wrong[k]:
                others = [c for c in ANSWER_SPACES[question] if c != truth]
                label = others[int(picks[k]) % len(others)]
            stage = STAGES[stages[k]]
            stage_counts[stage] += 1
            if stage != "none" and label == truth:
                correct[question] += 1
            row = {
                "clip_id": clip.clip_id,
                "question_id": question,
                "response": _respond(label, stage),
            }
            if model is not None:
                row["model"] = model
            rows.append(row)
            k += 1
    return rows, {"stages": stage_counts, "correct": correct}


def _truth_rows(suite) -> list[dict]:
    return [
        {"clip_id": c.clip_id, "question_id": q, "answer": c.expected[q]}
        for c in suite
        for q in QUESTION_ORDER
    ]


def _config(work: Path, params: dict) -> list[str]:
    path = work / "inputs" / "config.json"
    path.write_text(json.dumps(params, sort_keys=True), encoding="utf-8")
    return ["--config", "inputs/config.json", "--out", "out"]


def _manifest_problems(work: Path) -> list[str]:
    manifest = json.loads((work / "out" / "manifest.json").read_text("utf-8"))
    problems = []
    for kind in ("inputs", "outputs"):
        for name, entry in manifest[kind].items():
            digest = hashlib.sha256((work / entry["path"]).read_bytes()).hexdigest()
            if digest != entry["sha256"]:
                problems.append(f"manifest {kind}.{name} hash does not match")
    return problems


def build_label_traj(work: Path, seed: int, clips: int) -> Workload:
    suite = generate_suite(clips, seed=seed)
    rows = []
    for i, clip in enumerate(suite):
        seq = clip.seq
        for k in range(seq.n):
            t = float(seq.t[k])
            if i % 2 == 0:
                rows.append({"clip_id": clip.clip_id, "t": t, "x": float(seq.x[k]),
                             "y": float(seq.y[k]), "heading": float(seq.theta[k])})
            else:
                rows.append({"clip_id": clip.clip_id, "t": t, "v": float(seq.v[k]),
                             "omega": float(seq.omega[k])})
    _write_jsonl(work / "inputs" / "trajectories.jsonl", rows)
    argv = ["label"] + _config(
        work, {"input": "inputs/trajectories.jsonl", "encoding": "summary"}
    )
    ids = [c.clip_id for c in suite]

    def check(work: Path) -> list[str]:
        out = work / "out"
        problems = _manifest_problems(work)
        labels = _read_jsonl(out / "labels.jsonl")
        if len(labels) != len(QUESTION_ORDER) * len(ids):
            return problems + [f"labels.jsonl has {len(labels)} rows"]
        for k, row in enumerate(labels):
            clip_id = ids[k // len(QUESTION_ORDER)]
            question = QUESTION_ORDER[k % len(QUESTION_ORDER)]
            if (row["clip_id"], row["question_id"]) != (clip_id, question):
                problems.append(f"labels.jsonl row {k} out of canonical order")
                break
            if row["answer"] not in ANSWER_SPACES[question] or not row["evidence"]:
                problems.append(f"labels.jsonl row {k} is not a valid record")
                break
        for name in ("clip_summaries.jsonl", "prompts.jsonl"):
            if [r["clip_id"] for r in _read_jsonl(out / name)] != ids:
                problems.append(f"{name} does not list every clip in order")
        return problems

    return Workload("label_traj", clips, 0, argv, check)


def build_sweep_state(work: Path, seed: int, clips: int) -> Workload:
    suite = generate_suite(clips, seed=seed)
    rows = [r for c in suite for r in sequence_to_rows(c.clip_id, c.seq)]
    _write_jsonl(work / "inputs" / "trajectories.jsonl", rows)
    rng = np.random.default_rng([seed, 1])
    predictions = {}
    for model, noise in MODEL_NOISE.items():
        pred_rows, _ = _responses(rng, suite, noise, model)
        path = f"inputs/pred_{model}.jsonl"
        _write_jsonl(work / path, pred_rows)
        predictions[model] = path
    argv = ["sweep"] + _config(work, {
        "trajectories": "inputs/trajectories.jsonl",
        "predictions": predictions,
        "alphas": list(SWEEP_ALPHAS),
    })
    # Less noise must rank higher at every alpha.
    expected_ranking = sorted(MODEL_NOISE, key=MODEL_NOISE.get)

    def check(work: Path) -> list[str]:
        problems = _manifest_problems(work)
        doc = json.loads((work / "out" / "sweep.json").read_text("utf-8"))
        results = doc["results"]
        if [r["alpha"] for r in results] != list(SWEEP_ALPHAS):
            return problems + ["sweep.json alphas differ from the request"]
        for r in results:
            if r["kendall_tau_vs_nominal"] != 1.0:
                problems.append(f"tau {r['kendall_tau_vs_nominal']} at alpha {r['alpha']}")
            if r["ranking"] != expected_ranking:
                problems.append(f"ranking {r['ranking']} at alpha {r['alpha']}")
        return problems

    return Workload("sweep_state", clips, len(MODEL_NOISE) * len(QUESTION_ORDER) * clips,
                    argv, check)


def build_evaluate_text(work: Path, seed: int, clips: int) -> Workload:
    suite = generate_suite(clips, seed=seed)
    _write_jsonl(work / "inputs" / "truth.jsonl", _truth_rows(suite))
    rng = np.random.default_rng([seed, 2])
    pred_rows, book = _responses(rng, suite, EVAL_WRONG_SHARE)
    _write_jsonl(work / "inputs" / "predictions.jsonl", pred_rows)
    argv = ["evaluate"] + _config(
        work, {"truth": "inputs/truth.jsonl", "predictions": "inputs/predictions.jsonl"}
    )
    total = len(pred_rows)
    parsable_rate = 100.0 * (total - book["stages"]["none"]) / total
    acc = sum(book["correct"][q] / clips for q in QUESTION_ORDER) / len(QUESTION_ORDER)

    def check(work: Path) -> list[str]:
        out = work / "out"
        problems = _manifest_problems(work)
        aggregate = json.loads((out / "report.json").read_text("utf-8"))["aggregate"]
        if not math.isclose(aggregate["parsable_rate"], parsable_rate, rel_tol=1e-9):
            problems.append(f"parsable_rate {aggregate['parsable_rate']} != {parsable_rate}")
        if not math.isclose(aggregate["acc"], acc, rel_tol=1e-9):
            problems.append(f"acc {aggregate['acc']} != {acc}")
        stages = dict.fromkeys(STAGES, 0)
        for row in _read_jsonl(out / "parsed_predictions.jsonl"):
            stages[row["stage"]] += 1
        if stages != book["stages"]:
            problems.append(f"parse stages {stages} != {book['stages']}")
        return problems

    return Workload("evaluate_text", clips, total, argv, check)


def _skewed_pool(clips: int, seed: int) -> list:
    """A pool skewed toward the cruise templates, in a fixed template order.

    The balancer gives ties to the earlier clip, so its work depends on
    the order of the answers in the pool: over ten shuffled orders its
    ``helpfulness`` calls took two values 18% apart, and with random
    template draws they spread further. So every template count and the
    template at every position are the same for all seeds. The seed draws
    only the clips' parameters, which ``balance`` does not read: its input
    is the same for every seed. One part of the pool cycles through all
    templates, and each cruise template adds a suite of its own (whose
    first full cycle covers every template).
    """
    cruise = [name for name in TEMPLATE_NAMES if name.startswith("cruise_")]
    per_cruise = clips * CRUISE_TENTHS // 10 // len(cruise)
    pool = list(generate_suite(clips - per_cruise * len(cruise), seed=seed))
    for k, name in enumerate(cruise):
        pool += generate_suite(per_cruise, seed=seed * 100 + k + 1, regime_mix={name: 1.0})
    order = np.random.default_rng(0).permutation(len(pool))
    return [pool[i] for i in order]


def build_balance_pool(work: Path, seed: int, clips: int) -> Workload:
    pool = _skewed_pool(clips, seed)
    ids = [f"pool_{i:05d}" for i in range(clips)]
    _write_jsonl(work / "inputs" / "labels.jsonl", [
        {"clip_id": clip_id, "question_id": q, "answer": clip.expected[q]}
        for clip_id, clip in zip(ids, pool)
        for q in QUESTION_ORDER
    ])
    # The capped source holds the same share of every template.
    seen = dict.fromkeys(TEMPLATE_NAMES, 0)
    source = {}
    for clip_id, clip in zip(ids, pool):
        source[clip_id] = "sim" if seen[clip.template] % 10 < SIM_TENTHS else "real"
        seen[clip.template] += 1
    with (work / "inputs" / "sources.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "source"])
        writer.writerows(source.items())
    n = clips // BALANCE_SHARE
    cap = max(1, int(n * SIM_CAP_SHARE))
    argv = ["balance"] + _config(work, {
        "labels": "inputs/labels.jsonl",
        "sources": "inputs/sources.csv",
        "n": n,
        "caps": {"sim": cap},
    })

    def check(work: Path) -> list[str]:
        problems = _manifest_problems(work)
        doc = json.loads((work / "out" / "selected_clips.json").read_text("utf-8"))
        selected = doc["selected"]
        if len(selected) != n or len(set(selected)) != n:
            problems.append(f"{len(set(selected))} unique of {len(selected)} selected, need {n}")
        if not set(selected) <= set(source):
            problems.append("selection holds ids outside the pool")
        sims = sum(1 for cid in selected if source.get(cid) == "sim")
        if sims > cap:
            problems.append(f"{sims} sim clips selected over the cap of {cap}")
        return problems

    return Workload("balance_pool", clips, 0, argv, check)


BUILDERS = {
    "label_traj": build_label_traj,
    "sweep_state": build_sweep_state,
    "evaluate_text": build_evaluate_text,
    "balance_pool": build_balance_pool,
}


def build(name: str, work: Path, seed: int, clips: int | None = None) -> Workload:
    """Write the inputs of workload ``name`` under ``work/inputs``."""
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](work, seed, clips or SIZES[name])
