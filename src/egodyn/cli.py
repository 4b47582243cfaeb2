"""Command-line front end.

Usage: ``egodyn <command> --config <path> [--alpha ...] [--encoding ...]
[--seed N] [--out DIR]``. Commands read a JSON config document; the
command-line flags override the matching config fields. Every run writes
a ``manifest.json`` with content hashes of the config, inputs, and
outputs so results can be verified and reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import balancer, baselines, io, metrics, report
from .encodings import ENCODING_MODES, encode_trajectory
from .errors import ConfigError, EgodynError
from .kinematics import stratification_bin, summarize_batch
from .oracle import label_batch, records, tags_of
from .questions import QUESTION_ORDER, AnswerTable
from .synth import generate_suite
from .thresholds import ThresholdConfig, calibrate_thresholds

COMMANDS = (
    "label",
    "balance",
    "evaluate",
    "sweep",
    "parse",
    "baseline",
    "synth",
    "calibrate-thresholds",
)

# Config keys that name input files; a dict value maps names to paths.
_INPUT_KEYS = ("input", "truth", "predictions", "trajectories", "proxies", "labels",
               "sources", "thresholds")


def _input_paths(params: dict) -> dict[str, str]:
    """Input files of a config as ``key`` (or ``key.<name>``) -> path."""
    paths = {}
    for key in _INPUT_KEYS:
        value = params.get(key)
        if isinstance(value, str):
            paths[key] = value
        elif isinstance(value, dict):
            paths.update(
                (f"{key}.{name}", path)
                for name, path in value.items()
                if isinstance(path, str)
            )
    return paths


@dataclass
class RunConfig:
    """Merged command configuration (config file plus CLI overrides)."""

    command: str
    params: dict = field(default_factory=dict)
    out_dir: Path = Path("egodyn_out")
    seed: int | None = None
    alphas: list[float] | None = None
    encoding: str | None = None

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        for name, path in _input_paths(self.params).items():
            if not Path(path).exists():
                raise ConfigError(f"{name} path does not exist: {path}")
        if self.command == "sweep" and 1.0 not in (self.alphas or ()):
            raise ConfigError("sweep alpha list must include 1.0")
        if self.encoding is not None and self.encoding not in ENCODING_MODES:
            raise ConfigError(f"unknown encoding mode {self.encoding!r}")


def _load_thresholds(cfg: RunConfig) -> ThresholdConfig:
    path = cfg.params.get("thresholds")
    return ThresholdConfig.from_json(path) if path else ThresholdConfig()


def _positive(key: str, value) -> float:
    """``value`` of ``key`` as a finite positive float; else ``ConfigError``."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not (math.isfinite(number) and number > 0):
        raise ConfigError(f"{key} must be a finite positive number, got {value!r}")
    return number


def _integer(key: str, value, minimum: int) -> int:
    """``value`` of ``key`` as a JSON integer of at least ``minimum``; else
    ``ConfigError``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _load_clips(cfg: RunConfig, key: str = "input"):
    path = cfg.params[key]
    rate = _positive("rate_hz", cfg.params.get("rate_hz", 10.0))
    window = _positive("window_s", cfg.params.get("window_s", 3.0))
    return io.rows_to_sequences(io.read_trajectory_clips(path), rate, window)


def _write_prompts(cfg: RunConfig, summarized, out_dir: Path) -> Path:
    n_steps = _integer("encoding_steps", cfg.params.get("encoding_steps", 10), 2)
    rows = [
        {
            "clip_id": clip_id,
            "mode": cfg.encoding,
            "text": encode_trajectory(seq, summary, cfg.encoding, n_steps),
        }
        for clip_id, seq, summary in summarized
    ]
    path = out_dir / "prompts.jsonl"
    io.write_jsonl(path, rows)
    return path


def _cmd_label(cfg: RunConfig) -> dict[str, Path]:
    thresholds = _load_thresholds(cfg)
    clips = _load_clips(cfg)
    clip_ids = [clip_id for clip_id, _ in clips]
    seqs = [seq for _, seq in clips]
    summaries = summarize_batch(seqs, heading_mode=thresholds.heading_total_mode)
    codes, evidence = label_batch(seqs, summaries, thresholds)
    meta_rows = [
        {
            "clip_id": clip_id,
            "summary": summary.as_dict(),
            "tags": tags,
            "stratification_bin": stratification_bin(tags),
        }
        for clip_id, summary, tags in zip(clip_ids, summaries, tags_of(codes))
    ]
    out = cfg.out_dir
    outputs = {}
    io.write_jsonl(
        out / "labels.jsonl",
        (r.to_dict() for r in records(clip_ids, codes, evidence, thresholds)),
    )
    outputs["labels"] = out / "labels.jsonl"
    io.write_jsonl(out / "clip_summaries.jsonl", meta_rows)
    outputs["clip_summaries"] = out / "clip_summaries.jsonl"
    if cfg.encoding:
        outputs["prompts"] = _write_prompts(cfg, zip(clip_ids, seqs, summaries), out)
    return outputs


def _cmd_synth(cfg: RunConfig) -> dict[str, Path]:
    count = _integer("count", cfg.params.get("count", 100), 0)
    seed = _integer("seed", 0 if cfg.seed is None else cfg.seed, 0)
    mix = cfg.params.get("regime_mix")
    suite = generate_suite(count, seed=seed, regime_mix=mix)
    out = cfg.out_dir
    traj_rows = []
    label_rows = []
    for clip in suite:
        traj_rows.extend(io.sequence_to_rows(clip.clip_id, clip.seq))
        for question in QUESTION_ORDER:
            label_rows.append(
                {
                    "clip_id": clip.clip_id,
                    "question_id": question,
                    "answer": clip.expected[question],
                    "template": clip.template,
                }
            )
    outputs = {}
    io.write_jsonl(out / "trajectories.jsonl", traj_rows)
    outputs["trajectories"] = out / "trajectories.jsonl"
    io.write_jsonl(out / "expected_labels.jsonl", label_rows)
    outputs["expected_labels"] = out / "expected_labels.jsonl"
    if cfg.encoding:
        summaries = summarize_batch([c.seq for c in suite])
        outputs["prompts"] = _write_prompts(
            cfg, [(c.clip_id, c.seq, s) for c, s in zip(suite, summaries)], out
        )
    return outputs


def _answer_table(rows, field: str, predicted: bool = False) -> AnswerTable:
    return AnswerTable.from_rows(
        ((row["clip_id"], row["question_id"], row[field]) for row in rows), predicted
    )


def _cmd_evaluate(cfg: RunConfig) -> dict[str, Path]:
    truth = _answer_table(io.read_jsonl(cfg.params["truth"]), "answer")
    rows = io.read_predictions(cfg.params["predictions"])
    parsed = report.parse_predictions(rows)
    doc = report.build_evaluation_report(
        truth, _answer_table(parsed, "parsed", predicted=True)
    )
    out = cfg.out_dir
    io.write_json(out / "report.json", doc)
    io.write_jsonl(out / "parsed_predictions.jsonl", parsed)
    return {
        "report": out / "report.json",
        "parsed_predictions": out / "parsed_predictions.jsonl",
    }


def _cmd_sweep(cfg: RunConfig) -> dict[str, Path]:
    thresholds = _load_thresholds(cfg)
    sequences = _load_clips(cfg, key="trajectories")
    pred_spec = cfg.params["predictions"]
    if not isinstance(pred_spec, dict):
        raise ConfigError("sweep predictions must map model name -> file path")
    model_predictions = {}
    for model, path in pred_spec.items():
        parsed = report.parse_predictions(io.read_predictions(path))
        model_predictions[model] = _answer_table(parsed, "parsed", predicted=True)
    results = metrics.sensitivity_sweep(sequences, model_predictions, thresholds, cfg.alphas)
    out = cfg.out_dir
    io.write_json(out / "sweep.json", {"results": [r.to_dict() for r in results]})
    report.write_sweep_csv(out / "sweep.csv", results)
    return {"sweep": out / "sweep.json", "sweep_csv": out / "sweep.csv"}


def _cmd_parse(cfg: RunConfig) -> dict[str, Path]:
    rows = io.read_predictions(cfg.params["predictions"])
    parsed = report.parse_predictions(rows)
    rates = report.parse_rate_report(parsed)
    out = cfg.out_dir
    io.write_jsonl(out / "parsed_predictions.jsonl", parsed)
    io.write_json(out / "parse_report.json", rates)
    return {
        "parsed_predictions": out / "parsed_predictions.jsonl",
        "parse_report": out / "parse_report.json",
    }


def _cmd_baseline(cfg: RunConfig) -> dict[str, Path]:
    kind = cfg.params.get("kind", "flow")
    if kind not in baselines.BASELINE_THRESHOLD_SETS:
        raise ConfigError("baseline kind must be one of flow|vo|vo_learned")
    thresholds = baselines.BASELINE_THRESHOLD_SETS[kind]
    clips = io.read_trajectory_clips(cfg.params["proxies"])
    import numpy as np

    rows = []
    for clip_id, clip_rows in clips.items():
        keys = set(clip_rows[0])
        t = np.array([r["t"] for r in clip_rows], dtype=float)
        if {"s_turn", "s_exp", "m_mag"} <= keys:
            series = baselines.FlowProxySeries(
                t=t,
                s_turn=np.array([r["s_turn"] for r in clip_rows], dtype=float),
                s_exp=np.array([r["s_exp"] for r in clip_rows], dtype=float),
                m_mag=np.array([r["m_mag"] for r in clip_rows], dtype=float),
            )
            if kind != "flow":
                raise ConfigError("flow proxy rows require kind=flow")
            records = baselines.flow_answers(series, thresholds, clip_id)
        elif {"m_disp", "theta_deg"} <= keys:
            series = baselines.OdomProxySeries(
                t=t,
                m_disp=np.array([r["m_disp"] for r in clip_rows], dtype=float),
                theta_deg=np.array([r["theta_deg"] for r in clip_rows], dtype=float),
            )
            if kind == "flow":
                raise ConfigError("odometry proxy rows require kind=vo|vo_learned")
            records = baselines.vo_answers(series, thresholds, clip_id)
        else:
            raise ConfigError(
                "proxy rows must carry (t,s_turn,s_exp,m_mag) or (t,m_disp,theta_deg)"
            )
        rows.extend(r.to_dict() for r in records)
    out = cfg.out_dir
    io.write_jsonl(out / "baseline_labels.jsonl", rows)
    return {"baseline_labels": out / "baseline_labels.jsonl"}


def _cmd_balance(cfg: RunConfig) -> dict[str, Path]:
    answers: dict[str, dict[str, str]] = {}
    for row in io.read_jsonl(cfg.params["labels"]):
        clip_id, question = row["clip_id"], row["question_id"]
        clip_answers = answers.setdefault(clip_id, {})
        if question in clip_answers:
            raise ConfigError(f"clip {clip_id!r}, question {question!r}: two labels rows")
        clip_answers[question] = row["answer"]
    sources = (
        io.read_source_manifest(cfg.params["sources"])
        if cfg.params.get("sources")
        else {}
    )
    pool = [
        balancer.PoolClip(clip_id, sources.get(clip_id, "real"), clip_answers)
        for clip_id, clip_answers in answers.items()
    ]
    caps = cfg.params.get("caps") or None
    if caps is not None and not isinstance(caps, dict):
        raise ConfigError("caps must map source names to integers")
    selected_ids = balancer.balance(pool, cfg.params["n"], caps=caps)
    by_id = {clip.clip_id: clip for clip in pool}
    selected = [by_id[cid] for cid in selected_ids]
    out = cfg.out_dir
    io.write_json(out / "selected_clips.json", {"selected": selected_ids})
    io.write_json(
        out / "imbalance_report.json", balancer.imbalance_report(selected)
    )
    return {
        "selected_clips": out / "selected_clips.json",
        "imbalance_report": out / "imbalance_report.json",
    }


def _cmd_calibrate(cfg: RunConfig) -> dict[str, Path]:
    base = _load_thresholds(cfg)
    sequences = _load_clips(cfg)
    summaries = summarize_batch([seq for _, seq in sequences])
    calibrated = calibrate_thresholds(summaries, base)
    out = cfg.out_dir
    calibrated.to_json(out / "thresholds.json")
    return {"thresholds": out / "thresholds.json"}


_RUNNERS = {
    "label": _cmd_label,
    "balance": _cmd_balance,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "parse": _cmd_parse,
    "baseline": _cmd_baseline,
    "synth": _cmd_synth,
    "calibrate-thresholds": _cmd_calibrate,
}


def run(cfg: RunConfig) -> int:
    """Dispatch one command and write its manifest; returns exit status."""
    cfg.validate()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _RUNNERS[cfg.command](cfg)

    manifest_config = {
        "command": cfg.command,
        "params": cfg.params,
        "seed": cfg.seed,
        "alphas": cfg.alphas,
        "encoding": cfg.encoding,
    }
    io.write_manifest(
        cfg.out_dir, cfg.command, manifest_config, _input_paths(cfg.params), outputs
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egodyn",
        description="Deterministic ego-motion semantics engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        cmd = sub.add_parser(command)
        cmd.add_argument("--config", help="JSON config document for the command")
        cmd.add_argument(
            "--alpha",
            help="comma-separated perturbation factors, e.g. 0.5,0.75,1.0",
        )
        cmd.add_argument("--encoding", choices=ENCODING_MODES)
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--out", help="output directory")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    params = io.read_json(args.config) if args.config else {}
    out_dir = Path(args.out or params.get("out", "egodyn_out"))
    alphas = None
    if args.alpha:
        alphas = [a for a in args.alpha.split(",") if a.strip()]
    elif params.get("alphas"):
        alphas = params["alphas"]
        if not isinstance(alphas, list):
            raise ConfigError(f"alphas must be a list of numbers, got {alphas!r}")
    if alphas is not None:
        alphas = [_positive("alpha", a) for a in alphas]
    return RunConfig(
        command=args.command,
        params=params,
        out_dir=out_dir,
        seed=args.seed if args.seed is not None else params.get("seed"),
        alphas=alphas,
        encoding=args.encoding or params.get("encoding"),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except (EgodynError, FileNotFoundError, KeyError) as exc:
        print(f"egodyn {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
