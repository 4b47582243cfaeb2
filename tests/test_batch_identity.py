"""Commands write the same bytes whether clips are batched or taken one by one.

``label --encoding summary``, ``sweep`` and ``calibrate-thresholds`` run
through ``cli.main`` twice on one corpus that mixes pose, rate and
full-state clips (and two sample counts): once as shipped, and once with
ingest and summaries done clip by clip, through the per-clip wrapper
``io.rows_to_sequence`` and ``kinematics.summarize_batch`` of one clip.
Every output file, the manifest included, must be byte-identical between
the two runs. The batch commands build no per-clip ``KinematicSummary``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from egodyn import cli, io, metrics
from egodyn.kinematics import KinematicSummary, summarize, summarize_batch
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER
from egodyn.synth import generate_suite

NOISE = {"v": 0.05, "a": 0.018, "j": 0.125, "omega": 0.004, "theta": 0.0026}


def _corpus_rows(count: int, seed: int) -> list[dict]:
    """Rows of ``count`` clips cycling pose, rate and full-state schemas."""
    suite = generate_suite(count, seed=seed, noise_std=NOISE)
    rows = []
    for k, clip in enumerate(suite):
        seq, clip_id = clip.seq, clip.clip_id
        t = (4.1 + 0.37 * k + seq.t).tolist()
        heading = (np.pi - np.mod(np.pi - (seq.theta + 1.3 * k), 2.0 * np.pi)).tolist()
        if k % 3 == 0:
            rows += [
                {"clip_id": clip_id, "t": t[i], "x": x, "y": y, "heading": heading[i]}
                for i, (x, y) in enumerate(zip(seq.x.tolist(), seq.y.tolist()))
            ]
        elif k % 3 == 1:
            rows += [
                {"clip_id": clip_id, "t": t[i], "v": v, "omega": w}
                for i, (v, w) in enumerate(zip(seq.v.tolist(), seq.omega.tolist()))
            ]
        elif k % 9 == 5:
            # a full-state clip on a shorter grid: its own summary batch
            short = io.rows_to_sequence(
                [{"t": t[i], "v": v, "omega": w}
                 for i, (v, w) in enumerate(zip(seq.v.tolist(), seq.omega.tolist()))],
                10.0,
                2.5,
            )
            rows += io.sequence_to_rows(clip_id, short)
        else:
            rows += io.sequence_to_rows(clip_id, seq)
    return rows


def _prediction_rows(labels: list[dict], every: int) -> list[dict]:
    """The labels as free-text answers, with every ``every``-th one wrong."""
    rows = []
    for k, row in enumerate(labels):
        answer = row["answer"]
        if k % every == 0:
            answer = next(a for a in ANSWER_SPACES[row["question_id"]] if a != answer)
        rows.append({"clip_id": row["clip_id"], "question_id": row["question_id"],
                     "response": f"Answer: {answer}"})
    return rows


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    io.write_jsonl(root / "trajectories.jsonl", _corpus_rows(45, seed=31))
    assert cli.main(["label", "--config", _config(root, "nominal", {
        "input": str(root / "trajectories.jsonl")})]) == 0
    labels = io.read_jsonl(root / "nominal" / "labels.jsonl")
    assert len(labels) == 45 * len(QUESTION_ORDER)
    for name, every in (("close", 7), ("far", 3)):
        io.write_jsonl(root / f"{name}.jsonl", _prediction_rows(labels, every))
    return root


def _config(root, name, params) -> str:
    path = root / f"{name}.json"
    io.write_json(path, {**params, "out": str(root / name)})
    return str(path)


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def patch_clip_by_clip(monkeypatch) -> dict[str, int]:
    """Replace the batched ingest and summaries with per-clip loops, on one
    CPU, so that ``label`` counts every clip in this process."""
    calls = {"rows_to_sequence": 0, "summarize": 0}

    def load_clips(cfg, key="input", start=0, end=None):
        rate = float(cfg.params.get("rate_hz", 10.0))
        window = float(cfg.params.get("window_s", 3.0))
        out = []
        for clip_id, rows in io.read_trajectory_clips(cfg.params[key], start, end).items():
            calls["rows_to_sequence"] += 1
            out.append((clip_id, io.rows_to_sequence(rows, rate, window)))
        return out

    def summarize_each(seqs, heading_mode="net", clip_ids=None):  # ids name an overflow
        calls["summarize"] += len(seqs)
        alone = [summarize_batch([seq], heading_mode) for seq in seqs]
        return {key: np.concatenate([columns[key] for columns in alone]) for key in alone[0]}

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli, "_load_clips", load_clips)
    monkeypatch.setattr(cli, "summarize_batch", summarize_each)
    monkeypatch.setattr(metrics, "summarize_batch", summarize_each)
    return calls


@pytest.mark.parametrize("heading_mode", ["net", "sum"])
@pytest.mark.parametrize("command", ["label", "sweep", "calibrate-thresholds"])
def test_batched_outputs_equal_clip_by_clip(corpus, monkeypatch, command, heading_mode):
    thresholds = corpus / f"thresholds_{heading_mode}.json"
    io.write_json(thresholds, {"heading_total_mode": heading_mode})
    traj = str(corpus / "trajectories.jsonl")
    params = {
        "label": {"input": traj, "encoding": "summary"},
        "sweep": {"trajectories": traj, "alphas": [0.5, 0.8, 1.0, 1.3],
                  "predictions": {m: str(corpus / f"{m}.jsonl") for m in ("close", "far")}},
        "calibrate-thresholds": {"input": traj},
    }[command]
    name = f"{command}_{heading_mode}"
    argv = [command, "--config",
            _config(corpus, name, {**params, "thresholds": str(thresholds)})]

    assert cli.main(argv) == 0
    batched = _outputs(corpus / name)
    calls = patch_clip_by_clip(monkeypatch)
    assert cli.main(argv) == 0
    assert calls["rows_to_sequence"] == 45 and calls["summarize"] == 45
    assert _outputs(corpus / name) == batched


def test_batch_commands_build_no_kinematic_summary(corpus, monkeypatch):
    """``label``, ``sweep``, ``calibrate-thresholds`` and ``synth`` keep
    their summaries as columns; only the per-clip ``summarize`` builds a
    ``KinematicSummary``, one per call."""
    built = []
    init = KinematicSummary.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(KinematicSummary, "__init__", counting_init)
    traj = str(corpus / "trajectories.jsonl")
    runs = {
        "label": {"input": traj, "encoding": "summary"},
        "sweep": {"trajectories": traj, "alphas": [0.8, 1.0, 1.3],
                  "predictions": {m: str(corpus / f"{m}.jsonl") for m in ("close", "far")}},
        "calibrate-thresholds": {"input": traj},
        "synth": {"count": 6, "encoding": "summary"},
    }
    for command, params in runs.items():
        assert cli.main([command, "--config", _config(corpus, f"built_{command}", params)]) == 0
    assert (corpus / "built_synth" / "prompts.jsonl").stat().st_size > 0
    assert built == []
    summarize(generate_suite(1, seed=3)[0].seq)
    assert len(built) == 1
