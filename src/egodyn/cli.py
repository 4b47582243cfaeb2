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
import itertools
import math
import os
import pickle
import sys
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

from . import balancer, baselines, io, metrics, report
from .encodings import ENCODING_MODES, encode_trajectory
from .errors import ConfigError, EgodynError, MissingChannels
from .kinematics import stratification_bin, summarize_batch, summary_rows
from .oracle import label_batch, label_lines, rule_table, tags_of
from .questions import NO_ANSWER, QUESTION_ORDER, AnswerTable
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

# evaluate cuts its predictions file into this many parts for _job_queue:
# enough that the two processes end close together although the child
# builds the truth table first.
_CHUNKS = 16
# A job index in _job_queue's pipe is this many bytes, and the whole queue
# is written before the fork, so it must fit in one page: the least a
# pipe holds.
_INDEX_BYTES = 2
_MAX_JOBS = 4096 // _INDEX_BYTES


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


def _cmd_label(cfg: RunConfig) -> dict[str, Path]:
    """Label the input's clips, in two parts at once where it can (a JSONL
    input cut at ``io.clip_boundary``, on two CPUs), else in one, which
    names any fault as on one CPU; so does a clip with rows in both parts."""
    thresholds = _load_thresholds(cfg)
    cut = io.clip_boundary(cfg.params["input"]) if _forks() else None
    halves = [(0, cut), (cut, None)] if cut else []
    jobs = [partial(_label_clips, cfg, thresholds, start, end) for start, end in halves]
    out = cfg.out_dir
    outputs = {"labels": out / "labels.jsonl", "clip_summaries": out / "clip_summaries.jsonl"}
    if cfg.encoding:
        outputs["prompts"] = out / "prompts.jsonl"
    with _job_queue(jobs) as collect:
        parts = collect()
        if parts is None or not set(parts[0][0]).isdisjoint(parts[1][0]):
            parts = [_label_clips(cfg, thresholds)]
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


def _streamed(path: str, fold, name_fault):
    """``fold(rows)``, where ``rows`` streams the rows of ``path`` as they
    are decoded (``io.iter_jsonl``), so no row outlives its line.

    When the fold raises, whatever it raises, the stream is closed and
    ``name_fault()`` reads the file again as a list and runs the checks of
    that list, which raise what reading it whole always raised: a read
    fault anywhere in the file before any row fault, and the first row
    fault by its line. Should they find none, the fold's error is raised.
    """
    rows = io.iter_jsonl(path)
    try:
        return fold(rows)
    except Exception:
        rows.close()  # before the file is opened again
        name_fault()
        raise
    finally:
        rows.close()


def _forks() -> bool:
    """Whether ``_job_queue`` forks: the process may run on two or more CPUs
    (``os.sched_getaffinity`` exists only where ``os.fork`` does)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) >= 2


def _take(queue: int) -> int | None:
    """The next job index of the ``_job_queue`` pipe ``queue``; None once
    it is empty. Every index was written before the fork and one read takes
    all of an index, so the two processes never take one twice."""
    data = os.read(queue, _INDEX_BYTES)
    return int.from_bytes(data, "big") if data else None


def _kill(pid: int) -> None:
    from signal import SIGKILL

    with suppress(ProcessLookupError):
        os.kill(pid, SIGKILL)


@contextmanager
def _job_queue(jobs: list):
    """Share ``jobs``, callables without arguments, between the command
    and one forked child.

    The block gets ``collect``, which runs the command's share of the jobs
    and returns the result of every job in job order; or None where there
    is no child, or where a job failed in either process, and the command
    then runs its serial path, which names the first fault as on one CPU.
    The child runs job 0 first and the command job 1; then each process
    takes one index at a time from a pipe of the other indices, written
    before the fork, until it is empty. The command's share thus never
    shrinks to nothing while its block works before ``collect``, as
    ``sweep``'s does: it would then wait for the child, and its time would
    follow the other CPU's speed from run to run. A child whose job fails
    empties the queue, so that the command stops after its current job; a
    command whose job fails kills the child. The child's results come back
    pickled through a second pipe.

    There is no child where there is no job or more than ``_MAX_JOBS``, or
    where the process may run on one CPU only, or cannot fork (``_forks``).
    The child is reaped when the block ends, so the command need not wait
    for its exit; if the command has not collected its results by then,
    say on an error or an interrupt, it is killed first. Jobs must call no
    BLAS routine: the child has no copy of OpenBLAS's worker threads.
    """
    if not (0 < len(jobs) <= _MAX_JOBS and _forks()):
        yield lambda: None
        return
    queue, write = os.pipe()
    with open(write, "wb") as handle:
        handle.write(b"".join(index.to_bytes(_INDEX_BYTES, "big") for index in range(2, len(jobs))))
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            done = {}
            try:
                for index in itertools.chain([0], iter(partial(_take, queue), None)):
                    done[index] = jobs[index]()
                data = pickle.dumps(done, pickle.HIGHEST_PROTOCOL)
            except BaseException:  # the command runs its serial path
                while _take(queue) is not None:
                    pass
                data = b""
            with open(write, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)  # no atexit handlers, no flush of the parent's buffers
    os.close(write)
    pipe = open(read, "rb")
    collected = False

    def collect():
        nonlocal collected
        results = {}
        try:
            own = range(1, min(2, len(jobs)))  # job 1, where there is one
            for index in itertools.chain(own, iter(partial(_take, queue), None)):
                results[index] = jobs[index]()
        except Exception:
            _kill(pid)
            return None
        data = pipe.read()  # until the child exits
        collected = True
        if not data:
            return None
        results.update(pickle.loads(data))
        return [results[index] for index in range(len(jobs))]

    try:
        yield collect
    finally:
        pipe.close()
        os.close(queue)
        if not collected:
            _kill(pid)
        os.waitpid(pid, 0)


def _truth_table(path: str) -> AnswerTable:
    """The table of the truth rows of ``path``, built as they are decoded."""

    def table(rows):
        return AnswerTable.from_rows(
            (row["clip_id"], row["question_id"], row["answer"]) for row in rows
        )

    return _streamed(path, table, lambda: _checked_rows(path, io.read_jsonl(path), table, "answer"))


def _coded(rows, fill: bool) -> report.CodedPredictions:
    """``report.prediction_codes`` of prediction ``rows``; a ``model`` that
    is not a string raises ``ConfigError``."""
    coded = report.prediction_codes(rows, fill)
    if not set(map(type, coded.models)) <= {str}:
        raise ConfigError("a row's field 'model' is not a string")  # named by read_predictions
    return coded


def _name_prediction_fault(path: str, finish) -> None:
    """Raise the first fault of the prediction file ``path``, read as a
    list: as ``io.read_predictions`` names it, then ``report.prediction_codes``
    and ``finish`` of the coded rows."""
    rows = io.read_predictions(path)
    coded = _checked_rows(path, rows, report.prediction_codes)
    with io.keyed_rows(path, rows):
        finish(coded)


def _coded_predictions(path: str, fill: bool, finish):
    """The prediction rows of ``path``, coded (``_coded``) as they are
    decoded, and ``finish`` of them; with ``fill``, the coded rows carry
    their ``parsed_predictions.jsonl`` lines. A fault is named by
    ``_name_prediction_fault``."""

    def fold(rows):
        coded = _coded(rows, fill)
        return coded, finish(coded)

    return _streamed(path, fold, lambda: _name_prediction_fault(path, finish))


def _answer_table(coded: report.CodedPredictions) -> AnswerTable:
    return AnswerTable.from_codes(coded.ids, coded.columns, coded.codes, predicted=True)


def _prediction_table(path: str) -> AnswerTable:
    """The table of the prediction rows of ``path``. Row faults are named
    before two rows for one cell."""
    return _coded_predictions(path, False, _answer_table)[1]


def _coded_chunk(path: str, start: int, end: int | None) -> report.CodedPredictions:
    """``_coded`` of the prediction rows of the bytes of ``path`` from
    ``start`` to ``end``, filled, with their lines joined as one."""
    with closing(io.iter_jsonl(path, start, end)) as rows:
        coded = _coded(rows, True)
    return coded._replace(lines=["".join(coded.lines)])


def _write_lines(path: Path, lines: list[str]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.writelines(lines)


def _cmd_evaluate(cfg: RunConfig) -> dict[str, Path]:
    """Score the predictions against the truth. On two CPUs a forked child
    builds the truth table, and both processes code the parts of the
    predictions file (``_CHUNKS``); where that fails, the truth and then
    the whole predictions file are read, which names the first fault."""
    truth_path, predictions_path = cfg.params["truth"], cfg.params["predictions"]
    jobs = [partial(_truth_table, truth_path)] + [
        partial(_coded_chunk, predictions_path, start, end)
        for start, end in io.line_spans(predictions_path, _CHUNKS)]
    out = cfg.out_dir
    with _job_queue(jobs) as collect:
        results = collect()
        if results is None:
            truth = _truth_table(truth_path)
            coded, predictions = _coded_predictions(predictions_path, True, _answer_table)
        else:
            truth, *chunks = results
            coded = report.CodedPredictions(*(
                list(itertools.chain.from_iterable(column)) for column in zip(*chunks)))
            try:
                predictions = _answer_table(coded)
            except Exception:
                _name_prediction_fault(predictions_path, _answer_table)
                raise
        text = report.build_evaluation_report(truth, predictions, truth_path)
        (out / "report.json").write_text(text, encoding="utf-8")
        _write_lines(out / "parsed_predictions.jsonl", coded.lines)
    return {
        "report": out / "report.json",
        "parsed_predictions": out / "parsed_predictions.jsonl",
    }


def _cmd_sweep(cfg: RunConfig) -> dict[str, Path]:
    """Sweep the alphas. On two CPUs a forked child builds the models'
    tables while the command reads the trajectories and then builds the
    second model's table and any the child has not taken; where a table
    fails, all of them are built in config order."""
    thresholds = _load_thresholds(cfg)
    predictions = cfg.params["predictions"]
    jobs = [partial(_prediction_table, path) for path in predictions.values()]
    out = cfg.out_dir
    with _job_queue(jobs) as collect:
        sequences = _load_clips(cfg, key="trajectories")
        tables = collect() or [job() for job in jobs]
        results = metrics.sensitivity_sweep(
            sequences, dict(zip(predictions, tables)), thresholds, cfg.alphas)
        io.write_json(out / "sweep.json", {"results": [r.to_dict() for r in results]})
        report.write_sweep_csv(out / "sweep.csv", results)
    return {"sweep": out / "sweep.json", "sweep_csv": out / "sweep.csv"}


def _cmd_parse(cfg: RunConfig) -> dict[str, Path]:
    path = cfg.params["predictions"]
    # every clip id must be a key, as in evaluate: an array or object raises TypeError
    coded, _ = _coded_predictions(path, True, lambda coded: set(coded.ids))
    rates = report.parse_rates(
        coded.models, [code != NO_ANSWER for code in coded.codes], coded.stages)
    out = cfg.out_dir
    _write_lines(out / "parsed_predictions.jsonl", coded.lines)
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


def _clip_answers(rows) -> dict[str, dict[str, str]]:
    """Each clip's answer per question, from label rows; a second row for
    one question of a clip is a ``ConfigError``, and a row that cannot be
    keyed raises ``KeyError`` or ``TypeError``."""
    answers: dict[str, dict[str, str]] = {}
    for row in rows:
        clip_id, question = row["clip_id"], row["question_id"]
        clip_answers = answers.get(clip_id)
        if clip_answers is None:  # not setdefault: it would build a dict per row
            clip_answers = answers[clip_id] = {}
        if question in clip_answers:
            raise ConfigError(f"clip {clip_id!r}, question {question!r}: two labels rows")
        clip_answers[question] = row["answer"]
    return answers


def _unknown_questions(answers: dict[str, dict[str, str]]) -> set:
    return set().union(*answers.values()).difference(QUESTION_ORDER)


def _label_answers(labels: str) -> dict[str, dict[str, str]]:
    """``_clip_answers`` of the rows of ``labels``, grouped as they are
    decoded. A question id that is not in ``QUESTION_ORDER`` is searched
    for its row only after the grouping, so the loop stays lean."""

    def fold(rows):
        answers = _clip_answers(rows)
        if _unknown_questions(answers):
            raise ConfigError("unknown question id")  # named below
        return answers

    def name_fault():
        rows = io.read_jsonl(labels)
        with io.keyed_rows(labels, rows, "answer"):
            answers = _clip_answers(rows)
        unknown = _unknown_questions(answers)
        if unknown:
            index, row = next((i, r) for i, r in enumerate(rows) if r["question_id"] in unknown)
            raise ConfigError(f"{labels}:{io._row_line(labels, index)}: clip "
                              f"{row['clip_id']!r}: unknown question id {row['question_id']!r}")

    return _streamed(labels, fold, name_fault)


def _cmd_balance(cfg: RunConfig) -> dict[str, Path]:
    answers = _label_answers(cfg.params["labels"])
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
