"""egodyn benchmark: CLI commands on seeded synthetic corpora.

Usage, from the repository root::

    python3 bench/run.py --workload label_traj --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client. Each command runs in a fresh
``python3`` process, one at a time, because users of the CLI pay
interpreter start-up and imports on every call. ``EGODYN_THREADS`` is
removed from the child's environment, so the default serial program is
measured. Inputs are generated from ``--seed`` before timing starts (see
``workloads.py``), and commands repeat while the next one is expected to
end within ``--seconds`` (at least ``MIN_COMMANDS`` are run).

With ``--trace 0`` every command is untraced and the end-to-end metrics
are printed:

- ``clips_per_s``: clips in the input over the median wall time of
  ``egodyn.cli.main``, from entry to return;
- ``peak_rss_mb``: median peak resident memory of the command process;
- ``setup_s``: median time from process start until ``egodyn.cli`` is
  imported.

Both times are scaled to the host's speed by the reference work timed
next to each command (see ``reference.py``); the unscaled figures are
printed as ``clips_per_s_unscaled`` and ``setup_s_unscaled``.

With ``--trace 1`` untraced and traced commands alternate, and the
per-layer metrics (see ``METRICS.md``) come from the traced ones.

Every command's exit status and outputs are checked; failures count in
``failed`` of the last line, which is one JSON object. The SHA-256 of the
outputs is printed, so two commits can be compared byte for byte, and a
record with the environment is written under ``bench/_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
MIN_COMMANDS = 3
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    """Commit, library versions and machine, recorded with every result."""
    import numpy
    import scipy

    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:  # git is not installed
        git = None
    source = hashlib.sha256()
    for path in sorted((SRC / "egodyn").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": git.stdout.strip() if git and git.returncode == 0 else None,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def output_digest(out: Path) -> str:
    """SHA-256 over every output file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class Runner:
    """Starts command processes for one workload and checks their outputs."""

    def __init__(self, workload, work: Path, started: float):
        self.workload = workload
        self.work = work
        self.started = started
        self.env = {k: v for k, v in os.environ.items() if k != "EGODYN_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.digest = None
        self.attempted = 0
        self.failed = 0

    def command(self, spans: Path | None = None) -> dict | None:
        """Run the workload's command once in a child and check its outputs.

        Returns the child's report, or None if it did not finish. A failed
        check is counted in ``failed``; the report is still returned.
        """
        shutil.rmtree(self.work / "out", ignore_errors=True)
        self.attempted += 1
        report = self.spawn(spans)
        problems = ["no result"] if report is None else self.check()
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"bench: {self.workload.name}: {problem}", file=sys.stderr)
        return report

    def spawn(self, spans: Path | None) -> dict | None:
        result_path = self.work / "child.json"
        result_path.unlink(missing_ok=True)
        trace = ["--trace", str(spans)] if spans else []
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        cmd = [sys.executable, str(BENCH / "child.py"), repr(spawned), str(result_path),
               *trace, "--", *self.workload.argv]
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired:
            print(f"bench: command timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.exists():
            print(f"bench: command exited {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)
            return None
        report = json.loads(result_path.read_text(encoding="utf-8"))
        if not Path(report["module"]).resolve().is_relative_to(SRC):
            print(f"bench: egodyn imported from {report['module']}", file=sys.stderr)
            return None
        return report

    def check(self) -> list[str]:
        """Full checks on the first outputs; later outputs must be identical."""
        digest = output_digest(self.work / "out")
        if self.digest is None:
            problems = self.workload.check(self.work)
            if not problems:
                self.digest = digest
            return problems
        if digest != self.digest:
            return [f"outputs differ between runs: {digest} != {self.digest}"]
        return []


def per_layer(traced: list[dict], untraced: list[dict], workload,
              stages: tuple[str, ...]) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced reports; counts must repeat exactly."""
    problems = []
    first = traced[0]
    for other in traced[1:]:
        calls = {k: v["calls"] for k, v in other["spans"].items()}
        if calls != {k: v["calls"] for k, v in first["spans"].items()} \
                or other["counts"] != first["counts"]:
            problems.append("traced counts differ between runs")
    metrics = {}
    for name, row in first["spans"].items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        for field in ("s", "self_s"):
            value = statistics.median(r["spans"][name][field] for r in traced)
            metrics[f"{name}.{field}"] = (value, "s")
    counts = first["counts"]
    for name in ("io.read_trajectory_clips.rows", "io.read_jsonl.rows"):
        metrics[name] = (counts.get(name, 0), "count")
    metrics["io.write_jsonl.bytes"] = (counts.get("io.write_jsonl.bytes", 0), "bytes")
    for name in ("kinematics.summarize", "thresholds.scaled", "oracle.label_all"):
        metrics[f"{name}.calls_per_clip"] = (
            first["spans"][name]["calls"] / workload.clips, "1/clip")
    parses = first["spans"]["parsing.parse"]["calls"]
    metrics["parsing.parse.calls_per_row"] = (
        parses / workload.rows if workload.rows else 0.0, "1/row")
    for stage in stages:
        metrics[f"parsing.stage.{stage}"] = (counts.get(f"parsing.stage.{stage}", 0), "count")
    unparsed = counts.get("parsing.stage.none", 0)
    metrics["parsing.parsed_frac"] = ((parses - unparsed) / parses if parses else 0.0, "frac")
    overhead = (statistics.median(r["main_s"] for r in traced)
                - statistics.median(r["main_s"] for r in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, problems


def scaled(report: dict, key: str) -> float:
    """A time of the command process as if the reference work had taken
    ``REFERENCE_S`` next to it."""
    now = (report["reference_before_s"] + report["reference_after_s"]) / 2
    return report[key] * reference.REFERENCE_S / now


def end_to_end(reports: list[dict], workload) -> dict:
    main_s = statistics.median(scaled(r, "main_s") for r in reports)
    return {
        "clips_per_s": (workload.clips / main_s, "clips/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
        "setup_s": (statistics.median(scaled(r, "import_s") for r in reports), "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--clips", type=int, help="override the workload size (tests)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "egodyn" / "cli.py").is_file():
        return _fail(f"egodyn sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import egodyn.cli  # noqa: F401  compiles every module before the timed imports
    import workloads

    if args.workload not in workloads.BUILDERS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.BUILDERS)}")

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        t0 = time.monotonic()
        workload = workloads.build(args.workload, work, args.seed, args.clips)
        generate_s = time.monotonic() - t0
        runner = Runner(workload, work, started)

        untraced, traced = [], []
        spans = work / "spans.tsv" if args.trace else None
        loop_start = time.monotonic()
        round_s = 0.0
        while True:
            now = time.monotonic()
            # Stop before a further round would run past --seconds.
            if (runner.attempted >= MIN_COMMANDS
                    and now + round_s > loop_start + args.seconds):
                break
            if now - started > DEADLINE_S:
                break
            report = runner.command()
            if report is not None:
                untraced.append(report)
            if args.trace:
                report = runner.command(spans)
                if report is not None:
                    traced.append(report)
            round_s = time.monotonic() - now

        problems = []
        if not untraced or (args.trace and not traced):
            return _fail(f"{args.workload}: no command finished")
        if args.trace:
            metrics, problems = per_layer(traced, untraced, workload, workloads.STAGES)
        else:
            metrics = end_to_end(untraced, workload)
        for problem in problems:
            print(f"bench: {args.workload}: {problem}", file=sys.stderr)
        correct = runner.failed == 0 and not problems

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "clips": workload.clips,
            "generate_s": generate_s,
            "outputs_sha256": runner.digest,
            "environment": environment(),
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "commands": [{k: r[k] for k in ("import_s", "main_s", "peak_rss_mb",
                                            "reference_before_s", "reference_after_s")}
                         for r in untraced + traced],
        }
        if traced:
            record["spans"] = traced[-1]["spans"]
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        if spans is not None and spans.exists():
            shutil.move(spans, results / f"{stem}.spans.tsv")

        print(f"workload {args.workload} seed {args.seed}: {workload.clips} clips, "
              f"inputs generated in {generate_s:.2f} s")
        print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
        print(f"outputs_sha256 {runner.digest}")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value} {unit}")
        unscaled = workload.clips / statistics.median(r["main_s"] for r in untraced)
        print(f"clips_per_s_unscaled {unscaled} clips/s")
        print(f"setup_s_unscaled {statistics.median(r['import_s'] for r in untraced)} s")
        print(f"failed_frac {runner.failed / runner.attempted} frac")
        print(json.dumps({
            "correct": correct,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": record["metrics"],
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
