"""Command-line front end.

Usage: ``egodyn <command> --config <path> [--out DIR]``, plus ``--alpha
...`` on ``sweep``, ``--encoding ...`` on ``label`` and ``synth``, and
``--seed N`` on ``synth``. Commands read a JSON config document whose keys
``COMMAND_KEYS`` lists per command; the command-line flags override the
matching config fields. Every run writes
a ``manifest.json`` with content hashes of the config, inputs, and
outputs so results can be verified and reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import pickle
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import balancer, baselines, io, metrics, report
from .encodings import ENCODING_MODES, encode_trajectory
from .errors import ConfigError, EgodynError, MissingChannels
from .kinematics import stratification_bin, summarize_batch, summary_rows
from .oracle import label_batch, label_lines, rule_table, tags_of
from .questions import QUESTION_ORDER, AnswerTable
from .synth import generate_suite
from .thresholds import ThresholdConfig, calibrate_thresholds

# command -> (required config keys, optional config keys); a command reads
# these and no others. The "Command configs" table of docs/formats.md is
# the same table.
_TRAJECTORY_OPTIONS = ("thresholds", "rate_hz", "window_s", "out")
COMMAND_KEYS = {
    "label": (("input",), _TRAJECTORY_OPTIONS + ("encoding", "encoding_steps")),
    "synth": ((), ("count", "seed", "regime_mix", "out", "encoding", "encoding_steps")),
    "evaluate": (("truth", "predictions"), ("out",)),
    "sweep": (("trajectories", "predictions", "alphas"), _TRAJECTORY_OPTIONS),
    "parse": (("predictions",), ("out",)),
    "baseline": (("proxies",), ("kind", "out")),
    "balance": (("labels", "n"), ("sources", "caps", "out")),
    "calibrate-thresholds": (("input",), _TRAJECTORY_OPTIONS),
}

# Config keys that name input files: each a path, except that the
# ``predictions`` of ``sweep`` maps model names to paths.
_INPUT_KEYS = ("input", "truth", "predictions", "trajectories", "proxies", "labels",
               "sources", "thresholds")

# The largest sizes a config may ask for: far larger ones fit in no memory,
# and failed with a traceback or ran until memory ran out.
_MAX_COUNT = 100_000  # synth clips
_MAX_ENCODING_STEPS = 10_000
_MAX_GRID_STEPS = 100_000  # rate_hz * window_s, the steps of a clip's grid


def _input_paths(command: str, params: dict) -> dict[str, str]:
    """Input files of a config as ``key`` (or ``key.<name>``) -> path; a
    value that is not a path string (or, for ``sweep``'s ``predictions``,
    a map of them) is a ``ConfigError``."""
    paths = {}
    for key in _INPUT_KEYS:
        if key not in params:
            continue
        value = params[key]
        if command == "sweep" and key == "predictions":
            if not isinstance(value, dict) or not all(
                isinstance(path, str) for path in value.values()
            ):
                raise ConfigError("sweep predictions must map model name -> file path")
            paths.update((f"{key}.{name}", path) for name, path in value.items())
        elif isinstance(value, str):
            paths[key] = value
        else:
            raise ConfigError(f"{key} must be a file path string, got {value!r}")
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
        if self.command not in COMMAND_KEYS:
            raise ConfigError(f"unknown command {self.command!r}")
        required, optional = COMMAND_KEYS[self.command]
        unknown = sorted(set(self.params).difference(required, optional))
        if unknown:
            raise ConfigError(
                f"{self.command} does not read config key(s) {unknown}; "
                f"it reads {list(required + optional)}"
            )
        for key in required:
            if key not in self.params and not (key == "alphas" and self.alphas):
                hint = " (or --alpha)" if key == "alphas" else ""
                raise ConfigError(f"{self.command} config lacks required key {key!r}{hint}")
        for name, path in _input_paths(self.command, self.params).items():
            if not Path(path).is_file():
                raise ConfigError(f"{name} path is not an existing file: {path!r}")
        if self.command == "sweep" and 1.0 not in (self.alphas or ()):
            raise ConfigError("sweep alpha list must include 1.0")
        if self.encoding is not None and self.encoding not in ENCODING_MODES:
            raise ConfigError(f"unknown encoding mode {self.encoding!r}")
        if "encoding_steps" in self.params:
            _integer("encoding_steps", self.params["encoding_steps"], 2, _MAX_ENCODING_STEPS)


def _load_thresholds(cfg: RunConfig) -> ThresholdConfig:
    path = cfg.params.get("thresholds")
    return ThresholdConfig.from_json(path) if path else ThresholdConfig()


def _positive(key: str, value) -> float:
    """``value`` of ``key`` as a finite positive float; else ``ConfigError``."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float
        number = math.nan
    if not (math.isfinite(number) and number > 0):
        raise ConfigError(f"{key} must be a finite positive number, got {value!r}")
    return number


def _integer(key: str, value, minimum: int, maximum: float = math.inf) -> int:
    """``value`` of ``key`` as a JSON integer from ``minimum`` to
    ``maximum``; else ``ConfigError``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    if value > maximum:
        raise ConfigError(f"{key} must be at most {maximum}, got {value}")
    return value


def _load_clips(cfg: RunConfig, key: str = "input", start: int = 0, end: int | None = None):
    """The ``(clip_id, seq)`` clips of the trajectory file ``cfg.params[key]``,
    or of its bytes from ``start`` to ``end`` (``io.read_jsonl``)."""
    path = cfg.params[key]
    rate = _positive("rate_hz", cfg.params.get("rate_hz", 10.0))
    window = _positive("window_s", cfg.params.get("window_s", 3.0))
    if rate * window > _MAX_GRID_STEPS:
        raise ConfigError(
            f"rate_hz * window_s must be at most {_MAX_GRID_STEPS}, got {rate!r} * {window!r}")
    return io.rows_to_sequences(io.read_trajectory_clips(path, start, end), rate, window)


def _check_positions(cfg: RunConfig, clips) -> None:
    """Raise ``MissingChannels`` naming the first of the ``(clip_id, seq)``
    ``clips`` without ``x`` and ``y`` when ``cfg.encoding`` renders them."""
    if cfg.encoding in ("coordinates", "full"):
        for clip_id, seq in clips:
            if not seq.has_position():
                raise MissingChannels(
                    f"clip {clip_id!r}: {cfg.encoding} encoding needs x and y channels")


def _prompt_lines(cfg: RunConfig, summarized) -> str:
    """The ``prompts.jsonl`` text of the ``(clip_id, seq, summary)`` clips."""
    n_steps = cfg.params.get("encoding_steps", 10)  # checked by RunConfig.validate
    return io.jsonl_text(
        {
            "clip_id": clip_id,
            "mode": cfg.encoding,
            "text": encode_trajectory(seq, summary, cfg.encoding, n_steps),
        }
        for clip_id, seq, summary in summarized
    )


def _label_clips(
    cfg: RunConfig, thresholds: ThresholdConfig, start: int = 0, end: int | None = None,
) -> tuple[list[str], str, str, str]:
    """``label``'s work on the clips of the input, or of its bytes from
    ``start`` to ``end``: their ids and the text of their ``labels.jsonl``,
    ``clip_summaries.jsonl`` and ``prompts.jsonl`` lines (no prompts
    without ``cfg.encoding``)."""
    clips = _load_clips(cfg, start=start, end=end)
    _check_positions(cfg, clips)
    clip_ids = [clip_id for clip_id, _ in clips]
    seqs = [seq for _, seq in clips]
    columns = summarize_batch(seqs, thresholds.heading_total_mode, clip_ids)
    codes, ev = label_batch(seqs, columns, thresholds, clip_ids)
    summaries = summary_rows(columns)
    meta = io.jsonl_text(
        {"clip_id": clip_id, "summary": summary, "tags": tags,
         "stratification_bin": stratification_bin(tags)}
        for clip_id, summary, tags in zip(clip_ids, summaries, tags_of(codes))
    )
    prompts = _prompt_lines(cfg, zip(clip_ids, seqs, summaries)) if cfg.encoding else ""
    return clip_ids, label_lines(clip_ids, codes, ev, rule_table(thresholds)), meta, prompts


def _split_label(cfg: RunConfig, thresholds: ThresholdConfig):
    """The ``_label_clips`` of the input's two parts, cut at
    ``io.clip_boundary``: a forked child labels the second while the
    command labels the first. None where ``_in_child`` would not fork, the
    input is not cut, either part fails or a clip has rows in both."""
    if not _forks():
        return None
    try:
        split = io.clip_boundary(cfg.params["input"])
        if split is None:
            return None
        with _in_child(_label_clips, cfg, thresholds, split) as collect:
            first, second = _label_clips(cfg, thresholds, 0, split), collect()
    except Exception:  # whatever it is, labeling the whole input names it
        return None
    return [first, second] if set(first[0]).isdisjoint(second[0]) else None


def _cmd_label(cfg: RunConfig) -> dict[str, Path]:
    """Label the input's clips, in two parts at once where it can
    (``_split_label``), else in one, which names any fault as on one CPU."""
    thresholds = _load_thresholds(cfg)
    parts = _split_label(cfg, thresholds) or [_label_clips(cfg, thresholds)]
    out = cfg.out_dir
    outputs = {"labels": out / "labels.jsonl", "clip_summaries": out / "clip_summaries.jsonl"}
    if cfg.encoding:
        outputs["prompts"] = out / "prompts.jsonl"
    for k, path in enumerate(outputs.values(), 1):  # text k of each part
        with path.open("w", encoding="utf-8") as handle:
            for part in parts:
                handle.write(part[k])
    return outputs


def _cmd_synth(cfg: RunConfig) -> dict[str, Path]:
    count = _integer("count", cfg.params.get("count", 100), 0, _MAX_COUNT)
    seed = _integer("seed", 0 if cfg.seed is None else cfg.seed, 0)
    suite = generate_suite(count, seed=seed, regime_mix=cfg.params.get("regime_mix"))
    out = cfg.out_dir
    outputs = {
        "trajectories": out / "trajectories.jsonl",
        "expected_labels": out / "expected_labels.jsonl",
    }
    io.write_jsonl(outputs["trajectories"], [
        row for clip in suite for row in io.sequence_to_rows(clip.clip_id, clip.seq)
    ])
    io.write_jsonl(outputs["expected_labels"], [
        {"clip_id": clip.clip_id, "question_id": question,
         "answer": clip.expected[question], "template": clip.template}
        for clip in suite
        for question in QUESTION_ORDER
    ])
    if cfg.encoding:
        summaries = summary_rows(summarize_batch([c.seq for c in suite]))
        outputs["prompts"] = out / "prompts.jsonl"
        outputs["prompts"].write_text(_prompt_lines(
            cfg, [(c.clip_id, c.seq, s) for c, s in zip(suite, summaries)]), encoding="utf-8")
    return outputs


def _checked_rows(path: str, rows: list[dict], check, *fields: str):
    """``check(rows)``, where row ``i`` of ``rows`` is row ``i`` of ``path``.

    A ``ConfigError`` of ``check`` (an unknown question id, a label outside
    the answer space) is raised again with the ``<path>:<line>:`` of the
    first row that fails alone; rows are searched only after a failure.
    Rows that cannot be keyed fail as ``io.keyed_rows`` says.
    """
    with io.keyed_rows(path, rows, *fields):
        try:
            return check(rows)
        except ConfigError:
            for index, row in enumerate(rows):
                try:
                    check([row])
                except ConfigError as exc:
                    raise ConfigError(f"{path}:{io._row_line(path, index)}: {exc}") from None
            raise


def _forks() -> bool:
    """Whether ``_in_child`` forks: the process may run on two or more CPUs
    (``os.sched_getaffinity`` exists only where ``os.fork`` does)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) >= 2


@contextmanager
def _in_child(fn, *args, first: bool = False):
    """Run ``fn(*args)`` in a forked child while the block runs.

    The block gets ``collect``, which waits for the child and returns what
    ``fn`` returned, or raises what it raised; both come back pickled
    through a pipe. Where the process may run on one CPU only, or cannot
    fork (``_forks``), there is no child: ``fn`` runs inline where the
    command's serial order puts it, before the block if ``first``, else
    when ``collect`` is called. A command whose block and ``collect``
    follow that order writes the same bytes, raises the same first error
    and holds the same data at once either way. A child that has not been collected
    when the block ends, say on an error or an interrupt, is killed and
    reaped. ``fn`` must call no BLAS routine: the child has no copy of
    OpenBLAS's worker threads.
    """
    if not _forks():
        if first:
            value = fn(*args)
            yield lambda: value
        else:
            yield lambda: fn(*args)
        return
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                data = pickle.dumps((True, fn(*args)), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            with open(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)  # no atexit handlers, no flush of the parent's buffers
    os.close(write)
    pipe = open(read, "rb")
    waited = False

    def collect():
        nonlocal waited
        data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        waited = True
        if not data:
            raise RuntimeError(f"{fn.__name__} ended without a result (wait status {status})")
        done, value = pickle.loads(data)
        if done:
            return value
        raise value

    try:
        yield collect
    finally:
        pipe.close()
        if not waited:
            from signal import SIGKILL

            with suppress(ProcessLookupError):
                os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _truth_table(path: str) -> AnswerTable:
    """The table of the truth rows of ``path``."""

    def table(rows):
        return AnswerTable.from_rows(
            (row["clip_id"], row["question_id"], row["answer"]) for row in rows
        )

    return _checked_rows(path, io.read_jsonl(path), table, "answer")


def _prediction_table(path: str, fill: bool = False) -> tuple[list[dict], AnswerTable]:
    """The prediction rows of ``path`` and their table, in one pass of
    ``report.prediction_codes``; with ``fill``, each row gains its parsed
    label and stage. Row faults are named before two rows for one cell."""
    rows = io.read_predictions(path)
    columns, codes = _checked_rows(
        path, rows, lambda rows: report.prediction_codes(rows, fill))
    with io.keyed_rows(path, rows):
        table = AnswerTable.from_codes(
            [row["clip_id"] for row in rows], columns, codes, predicted=True)
    return rows, table


def _prediction_tables(paths: list[str]) -> list[AnswerTable]:
    return [_prediction_table(path)[1] for path in paths]


def _cmd_evaluate(cfg: RunConfig) -> dict[str, Path]:
    truth_path, predictions_path = cfg.params["truth"], cfg.params["predictions"]
    with _in_child(_truth_table, truth_path, first=True) as collect_truth:
        try:
            parsed, predictions = _prediction_table(predictions_path, fill=True)
        except Exception:
            collect_truth()  # an error of the truth, read first, comes first
            raise
        truth = collect_truth()
    text = report.build_evaluation_report(truth, predictions, truth_path)
    out = cfg.out_dir
    (out / "report.json").write_text(text, encoding="utf-8")
    report.write_parsed_predictions(out / "parsed_predictions.jsonl", parsed)
    return {
        "report": out / "report.json",
        "parsed_predictions": out / "parsed_predictions.jsonl",
    }


def _cmd_sweep(cfg: RunConfig) -> dict[str, Path]:
    thresholds = _load_thresholds(cfg)
    predictions = cfg.params["predictions"]
    paths = list(predictions.values())
    with _in_child(_prediction_tables, paths[1:]) as collect_rest:
        sequences = _load_clips(cfg, key="trajectories")
        tables = _prediction_tables(paths[:1]) + collect_rest()
    model_predictions = dict(zip(predictions, tables))
    results = metrics.sensitivity_sweep(sequences, model_predictions, thresholds, cfg.alphas)
    out = cfg.out_dir
    io.write_json(out / "sweep.json", {"results": [r.to_dict() for r in results]})
    report.write_sweep_csv(out / "sweep.csv", results)
    return {"sweep": out / "sweep.json", "sweep_csv": out / "sweep.csv"}


def _cmd_parse(cfg: RunConfig) -> dict[str, Path]:
    path = cfg.params["predictions"]
    parsed = _checked_rows(path, io.read_predictions(path), report.parse_predictions)
    with io.keyed_rows(path, parsed):
        for row in parsed:
            hash(row["clip_id"])  # an array or object id raises TypeError
    rates = report.parse_rate_report(parsed)
    out = cfg.out_dir
    report.write_parsed_predictions(out / "parsed_predictions.jsonl", parsed)
    io.write_json(out / "parse_report.json", rates)
    return {
        "parsed_predictions": out / "parsed_predictions.jsonl",
        "parse_report": out / "parse_report.json",
    }


def _cmd_baseline(cfg: RunConfig) -> dict[str, Path]:
    kind = cfg.params.get("kind", "flow")
    if not isinstance(kind, str) or kind not in baselines.BASELINE_THRESHOLD_SETS:
        raise ConfigError("baseline kind must be one of flow|vo|vo_learned")
    thresholds = baselines.BASELINE_THRESHOLD_SETS[kind]
    series = {}
    for clip_id, clip_rows in io.read_trajectory_clips(cfg.params["proxies"]).items():
        keys = set(clip_rows[0])
        with io._naming(clip_id):
            if {"s_turn", "s_exp", "m_mag"} <= keys:
                if kind != "flow":
                    raise ConfigError("flow proxy rows require kind=flow")
                series_type = baselines.FlowProxySeries
            elif {"m_disp", "theta_deg"} <= keys:
                if kind == "flow":
                    raise ConfigError("odometry proxy rows require kind=vo|vo_learned")
                series_type = baselines.OdomProxySeries
            else:
                raise ConfigError(
                    "proxy rows must carry (t,s_turn,s_exp,m_mag) or (t,m_disp,theta_deg)"
                )
            series[clip_id] = series_type(
                *(io._channel(clip_rows, f.name) for f in fields(series_type))
            )
    out = cfg.out_dir
    text = baselines.label_proxies(list(series), list(series.values()), thresholds)
    (out / "baseline_labels.jsonl").write_text(text, encoding="utf-8")
    return {"baseline_labels": out / "baseline_labels.jsonl"}


def _cmd_balance(cfg: RunConfig) -> dict[str, Path]:
    answers: dict[str, dict[str, str]] = {}
    labels = cfg.params["labels"]
    rows = io.read_jsonl(labels)
    with io.keyed_rows(labels, rows, "answer"):
        for row in rows:
            clip_id, question = row["clip_id"], row["question_id"]
            clip_answers = answers.get(clip_id)
            if clip_answers is None:  # not setdefault: it would build a dict per row
                clip_answers = answers[clip_id] = {}
            if question in clip_answers:
                raise ConfigError(f"clip {clip_id!r}, question {question!r}: two labels rows")
            clip_answers[question] = row["answer"]
    unknown = set().union(*answers.values()).difference(QUESTION_ORDER)
    if unknown:  # searched for its row only now: the loop above stays lean
        index, row = next((i, r) for i, r in enumerate(rows) if r["question_id"] in unknown)
        raise ConfigError(f"{labels}:{io._row_line(labels, index)}: clip {row['clip_id']!r}: "
                          f"unknown question id {row['question_id']!r}")
    sources = (
        io.read_source_manifest(cfg.params["sources"])
        if cfg.params.get("sources")
        else {}
    )
    pool = [
        balancer.PoolClip(clip_id, sources.get(clip_id, "real"), clip_answers)
        for clip_id, clip_answers in answers.items()
    ]
    caps = cfg.params.get("caps")
    if caps is not None and not isinstance(caps, dict):
        raise ConfigError("caps must map source names to integers")
    selected_ids = balancer.balance(pool, cfg.params["n"], caps=caps or None)
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
    calibrated = calibrate_thresholds(summarize_batch(
        [seq for _, seq in sequences], clip_ids=[clip_id for clip_id, _ in sequences]), base)
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
        cfg.out_dir, cfg.command, manifest_config, _input_paths(cfg.command, cfg.params),
        outputs,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egodyn",
        description="Deterministic ego-motion semantics engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (required, optional) in COMMAND_KEYS.items():
        cmd = sub.add_parser(command)
        cmd.set_defaults(alpha=None, encoding=None, seed=None)
        cmd.add_argument("--config", help="JSON config document for the command")
        # a flag overrides a config key, so a command has it only if it reads the key
        keys = required + optional
        if "alphas" in keys:
            cmd.add_argument(
                "--alpha", help="comma-separated perturbation factors, e.g. 0.5,0.75,1.0"
            )
        if "encoding" in keys:
            cmd.add_argument("--encoding", choices=ENCODING_MODES)
        if "seed" in keys:
            cmd.add_argument("--seed", type=int)
        cmd.add_argument("--out", help="output directory")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    params = io.read_json(args.config) if args.config else {}
    out_dir = args.out or params.get("out", "egodyn_out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out must be a directory path string, got {out_dir!r}")
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
        out_dir=Path(out_dir),
        seed=args.seed if args.seed is not None else params.get("seed"),
        alphas=alphas,
        encoding=args.encoding or params.get("encoding"),
    )


def main(argv: list[str] | None = None) -> int:
    # The objects left by the imports live as long as the process, so a
    # full collection during the command would walk them all for nothing:
    # freeze them for the command, unless the caller froze its own heap.
    # Young garbage, such as an earlier command's, is collected first, and
    # the parser is built after the freeze, so neither is held frozen.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.collect(1)
        gc.freeze()
    try:
        args = build_parser().parse_args(argv)
        try:
            return run(config_from_args(args))
        except (EgodynError, FileNotFoundError, KeyError) as exc:
            print(f"egodyn {args.command}: {exc}", file=sys.stderr)
            return 2
    finally:
        if freeze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
