"""Fixed reference work that measures how fast the host runs right now.

On a shared host the speed of one core drifts: on a 2-core Xeon VM a
fixed pure-Python loop took from 0.23 s to 0.43 s within minutes, with
no steal time (its CPU time moved with its wall time), and a whole
command's time moved with it. A run of the benchmark lasts seconds, so
its median alone reads whichever level the host was at. Each command
process therefore times ``work()`` just before and just after the
command, and the command's time is scaled by ``REFERENCE_S`` over the
mean of the two. (The other core's speed does not follow this core's:
reference work run there during the command did not correlate with it.)

``work()`` uses no egodyn code, so a change to the program cannot move
it. Its mix follows the program's own: JSON rows encoded and decoded,
many small numpy and Savitzky-Golay calls on 3-second clips, and
per-clip dict lookups and method calls in plain Python. It allocates
little, so it does not raise the command's peak memory.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy.signal import savgol_filter

# Seconds ``work()`` typically took on a 2-core Xeon VM; scaled times read
# as if the command had run on a host that does the work this fast.
REFERENCE_S = 0.4

ROWS = 14000
CLIPS = 260
SAMPLES = 31  # one 3-second clip at 10 Hz
QUESTIONS = [f"q{k:02d}" for k in range(14)]
CLASSES = ("accelerate", "decelerate", "steady", "left", "right")
POOL = 600
STEPS = 60


class _Counts:
    def __init__(self):
        self.counts = {q: {} for q in QUESTIONS}
        self.total = 0

    def frequency(self, question: str, label: str) -> float:
        if self.total == 0:
            return 0.0
        return self.counts[question].get(label, 0) / self.total

    def add(self, answers: dict) -> None:
        for question, label in answers.items():
            row = self.counts[question]
            row[label] = row.get(label, 0) + 1
        self.total += 1


def work() -> float:
    """Run the fixed reference work once; return a checksum of it."""
    total = 0.0
    for i in range(ROWS):
        line = json.dumps({"clip_id": f"clip_{i:06d}", "t": i * 0.1,
                           "v": float(i % 97), "question_id": "speed_trend"},
                          sort_keys=True)
        row = json.loads(line)
        total += row["v"] + len(row["clip_id"].split("_")[1])
    t = np.linspace(0.0, 3.0, SAMPLES)
    for k in range(CLIPS):
        v = np.sin(t * (1.0 + k % 7)) + 0.01 * k
        smooth = savgol_filter(v, 9, 2, mode="interp")
        a = np.gradient(smooth, t)
        total += float(np.abs(a).max()) + float(np.diff(smooth).mean())
    pool = [{q: CLASSES[(i * 7 + k * 3) % 5] for k, q in enumerate(QUESTIONS)}
            for i in range(POOL)]
    counts = _Counts()
    for step in range(STEPS):
        for answers in pool:
            for question, label in answers.items():
                deficit = 0.2 - counts.frequency(question, label)
                if deficit > 0:
                    total += deficit
        counts.add(pool[step])
    return total


def timed() -> float:
    """Seconds one ``work()`` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
