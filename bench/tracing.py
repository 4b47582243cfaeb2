"""Per-layer tracing of egodyn from outside the engine.

``install()`` wraps the public functions listed in ``TRACED`` with a
span recorder. A function imported by name into another module (for
example ``summarize`` into ``egodyn.oracle`` and ``egodyn.cli``) is a
separate binding there, so every loaded ``egodyn`` module is searched and
each binding of the original function object is replaced; otherwise the
calls made through those bindings would go uncounted.

Spans are kept in memory as flat arrays (name, parent, start, end) and
written out once, when the command has finished. Self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

# module -> public functions (and ``Class.method`` names) to wrap
TRACED = {
    "cli": ("main",),
    "io": (
        "read_trajectory_clips",
        "rows_to_sequence",
        "read_jsonl",
        "write_jsonl",
        "write_json",
        "read_predictions",
        "read_source_manifest",
        "write_manifest",
    ),
    "kinematics": (
        "resample_uniform",
        "resample_rate_log",
        "smooth_savgol",
        "derive_states",
        "derive_states_from_rates",
        "summarize",
        "stratification_tags",
    ),
    "thresholds": ("ThresholdConfig.scaled",),
    "oracle": ("label_all",),
    "encodings": ("encode_trajectory",),
    "parsing": ("parse",),
    "metrics": ("score_model", "build_confusions", "sensitivity_sweep"),
    "consistency": ("clip_consistency",),
    "report": ("parse_predictions", "build_evaluation_report", "write_sweep_csv"),
    "balancer": ("balance", "helpfulness", "worst_imbalance", "imbalance_report"),
}


def _span_name(module: str, qualname: str) -> str:
    # ``thresholds.scaled`` rather than ``thresholds.ThresholdConfig.scaled``
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


# Counts taken at a span boundary from the call's arguments and result.
def _rows_in_clips(args, result):
    return (("io.read_trajectory_clips.rows", sum(len(r) for r in result.values())),)


def _rows_read(args, result):
    return (("io.read_jsonl.rows", len(result)),)


def _bytes_written(args, result):
    return (("io.write_jsonl.bytes", os.path.getsize(args[0])),)


def _parse_stage(args, result):
    return (("parsing.stage." + result.stage, 1),)


COUNTERS = {
    "io.read_trajectory_clips": _rows_in_clips,
    "io.read_jsonl": _rows_read,
    "io.write_jsonl": _bytes_written,
    "parsing.parse": _parse_stage,
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        self.names.append(name)
        name_id = len(self.names) - 1
        counter = COUNTERS.get(name)
        stack = self._stack
        name_ids, parent, start, end = self.name_ids, self.parent, self.start, self.end
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_ids.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, result):
                    counts[key] = counts.get(key, 0) + amount
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every function in ``TRACED`` at each of its bindings."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "egodyn" or n.startswith("egodyn."))]
        for module_name, qualnames in TRACED.items():
            home = sys.modules[f"egodyn.{module_name}"]
            for qualname in qualnames:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = owner.__dict__[attr]
                wrapper = self.wrap(_span_name(module_name, qualname), original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_ids[i]]]
            row["calls"] += 1
            row["s"] += duration[i]
            row["self_s"] += duration[i] - child[i]
        return out

    def write_spans(self, path: str) -> None:
        """Write all spans as tab-separated ``name parent start end`` lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{self.names[self.name_ids[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\n"
                )
