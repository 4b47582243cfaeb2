"""Greedy multi-objective selection of a balanced benchmark subset.

Selection repeatedly finds the (question, class) pair with the largest
deficit against its target frequency, filters the unselected pool to
clips that answer that class (falling back to all cap-satisfying clips if
none do), and among those picks the clip whose answers fill the most
deficit mass across the remaining questions. Ties break lexicographically
for (question, class) and by pool order for clips, so identical pools
produce identical selections.

The pool is encoded once as an (N, Q) matrix of answer codes: a clip's
code for question ``q`` is the index of its answer in ``targets[q]``, in
``targets`` iteration order. Class counts are one int array over every
(question, class) pair and per-source counts one int array over the
sources, so a greedy step is a few array operations over the whole pool:
the deficit vector, its first ``argmax`` in sorted (question, class)
order, a candidate mask, and the candidates' scores.

Frequencies are maintained as integer counts and divided on demand, which
keeps the incremental state exactly equal to a from-scratch recount.

A score is a float sum whose last bits decide ties between clips, so it
is built by adding one question column at a time in ``targets`` order,
the order of a scalar loop over the questions. A reduction along the
question axis (``np.sum(axis=1)``) sums pairwise and can round
differently.
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InfeasibleCaps, InvalidBalanceInput, PoolExhausted
from .questions import ANSWER_SPACES

Targets = Mapping[str, Mapping[str, float]]


def uniform_targets(
    spaces: Mapping[str, Sequence[str]] | None = None,
) -> dict[str, dict[str, float]]:
    """Target frequency 1/|classes| for every class of every question."""
    spaces = spaces if spaces is not None else ANSWER_SPACES
    return {
        q: {c: 1.0 / len(classes) for c in classes} for q, classes in spaces.items()
    }


@dataclass(frozen=True)
class PoolClip:
    """A candidate benchmark clip: id, provenance, and its full answer set."""

    clip_id: str
    source: str
    answers: Mapping[str, str]


class _Layout:
    """Every (question, class) pair of a targets mapping, as flat arrays.

    Pair ``offsets[q] + code`` is class ``code`` of question ``q``, both
    counted in ``targets`` iteration order.
    """

    def __init__(self, targets: Targets):
        self.questions = list(targets)
        self._codes = [
            {label: code for code, label in enumerate(targets[q])}
            for q in self.questions
        ]
        sizes = [len(codes) for codes in self._codes]
        self.offsets = np.cumsum([0] + sizes, dtype=np.intp)[:-1]
        self.pairs = [(q, label) for q in self.questions for label in targets[q]]
        self.index = {pair: k for k, pair in enumerate(self.pairs)}
        self.target = np.array([targets[q][label] for q, label in self.pairs], dtype=float)
        if not np.isfinite(self.target).all():
            raise InvalidBalanceInput("target frequencies must be finite")
        self.question_of = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
        # flat pair indices in sorted (question, class) order
        self.ranked = np.array(
            [self.index[q, label] for q in sorted(targets) for label in sorted(targets[q])],
            dtype=np.intp,
        )

    def encode(self, pool: Sequence[PoolClip]) -> np.ndarray:
        """(N, Q) answer codes of ``pool``, validated in the same pass.

        Raises:
            InvalidBalanceInput: a clip id repeats, a clip lacks an
                answer, or an answer is not a class of its question.
        """
        columns = list(zip(self.questions, self._codes))
        rows = []
        for clip in pool:
            try:
                rows.append([codes[clip.answers[q]] for q, codes in columns])
            except (KeyError, TypeError):  # TypeError: an unhashable answer
                self._check_answers(clip)
                raise
        ids = Counter(clip.clip_id for clip in pool)
        if len(ids) < len(pool):
            repeated = next(clip_id for clip_id, count in ids.items() if count > 1)
            raise InvalidBalanceInput(f"clip {repeated!r} is in the pool twice")
        return np.array(rows, dtype=np.intp).reshape(len(pool), len(columns))

    def _check_answers(self, clip: PoolClip) -> None:
        for question, codes in zip(self.questions, self._codes):
            answer = clip.answers.get(question)
            if answer is None:
                raise InvalidBalanceInput(
                    f"clip {clip.clip_id!r} has no answer for {question!r}"
                )
            if answer not in list(codes):  # a list compares without hashing
                raise InvalidBalanceInput(
                    f"clip {clip.clip_id!r}: answer {answer!r} is not a class of {question!r}"
                )

    def deficits(self, counts: np.ndarray, m: int) -> np.ndarray:
        """``target - count / m`` per pair; every frequency is 0.0 while ``m`` is 0."""
        return self.target - counts / m if m else self.target

    def worst(self, deficit: np.ndarray) -> int:
        """Flat index of the largest deficit, the first in sorted order on a tie."""
        return int(self.ranked[np.argmax(deficit[self.ranked])])

    def scores(self, flat_codes: np.ndarray, deficit: np.ndarray, skip: int) -> np.ndarray:
        """Positive deficit each row of flat pair indices fills, summed one
        question at a time in ``targets`` order over every question but
        ``skip``."""
        gain = np.where(deficit > 0, deficit, 0.0)[flat_codes]
        total = np.zeros(len(flat_codes))
        for q in range(len(self.questions)):
            if q != skip:
                total += gain[:, q]
        return total


@dataclass
class BalanceState:
    """Running selection with count-based class frequencies.

    ``counts`` holds one int per (question, class) pair of ``targets``,
    indexed as in ``layout``.
    """

    targets: Targets
    selected: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.layout = _Layout(self.targets)
        self.counts = np.zeros(len(self.layout.pairs), dtype=np.int64)

    def frequency(self, question: str, label: str) -> float:
        n = len(self.selected)
        k = self.layout.index.get((question, label))
        if n == 0 or k is None:
            return 0.0
        return int(self.counts[k]) / n

    def add(self, clip: PoolClip) -> None:
        self.counts[self.layout.encode([clip])[0] + self.layout.offsets] += 1
        self.selected.append(clip.clip_id)


def _state_layout(state: BalanceState, targets: Targets) -> _Layout:
    if targets != state.targets:
        raise ValueError("targets must be the targets of the state")
    return state.layout


def worst_imbalance(state: BalanceState, targets: Targets) -> tuple[str, str]:
    """(question, class) with the largest target-minus-empirical deficit."""
    layout = _state_layout(state, targets)
    return layout.pairs[layout.worst(layout.deficits(state.counts, len(state.selected)))]


def helpfulness(
    clip: PoolClip, state: BalanceState, targets: Targets, q_worst: str
) -> float:
    """Sum of positive deficits this clip's answers would help fill,
    over every question except the one already being targeted."""
    layout = _state_layout(state, targets)
    flat_codes = layout.encode([clip]) + layout.offsets
    deficit = layout.deficits(state.counts, len(state.selected))
    skip = layout.questions.index(q_worst) if q_worst in layout.questions else -1
    return float(layout.scores(flat_codes, deficit, skip)[0])


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise InvalidBalanceInput(f"{name} must be a non-negative integer, got {value!r}")


def balance(
    pool: Sequence[PoolClip],
    n: int,
    caps: Mapping[str, int] | None = None,
    targets: Targets | None = None,
) -> list[str]:
    """Select ``n`` clip ids approaching the target class frequencies.

    ``caps`` limits selected clips per source; sources absent from the
    mapping are unlimited.

    Raises:
        InvalidBalanceInput: the pool repeats a clip id or holds a clip
            without a valid answer to every target question, or ``n`` or
            a cap is not a non-negative integer.
        PoolExhausted: fewer than ``n`` clips are available.
        InfeasibleCaps: the caps admit fewer than ``n`` selections.
    """
    targets = targets if targets is not None else uniform_targets()
    layout = _Layout(targets)
    flat_codes = layout.encode(pool) + layout.offsets
    _check_count("n", n)
    if len(pool) < n:
        raise PoolExhausted(f"pool has {len(pool)} clips, need {n}")
    source_index: dict[str, int] = {}
    source = np.array(
        [source_index.setdefault(clip.source, len(source_index)) for clip in pool],
        dtype=np.intp,
    )
    if caps is not None:
        for name, cap in caps.items():
            _check_count(f"cap of source {name!r}", cap)
        per_source = np.bincount(source, minlength=len(source_index)).tolist()
        admissible = sum(
            min(count, caps.get(src, count))
            for src, count in zip(source_index, per_source)
        )
        if admissible < n:
            raise InfeasibleCaps(
                f"caps admit at most {admissible} clips, need {n}"
            )

    if n == len(pool):
        return [clip.clip_id for clip in pool]

    # No source count reaches n inside the loop, so n stands for "no cap".
    caps = caps or {}
    limit = np.array([min(caps.get(src, n), n) for src in source_index], dtype=np.int64)
    counts = np.zeros(len(layout.pairs), dtype=np.int64)
    taken = np.zeros(len(source_index), dtype=np.int64)
    unchosen = np.ones(len(pool), dtype=bool)
    selected: list[int] = []
    for m in range(n):
        deficit = layout.deficits(counts, m)
        worst = layout.worst(deficit)
        q_worst = layout.question_of[worst]
        open_clips = unchosen & (taken < limit)[source]
        candidates = np.flatnonzero(open_clips & (flat_codes[:, q_worst] == worst))
        if not candidates.size:
            candidates = np.flatnonzero(open_clips)
        if not candidates.size:
            raise PoolExhausted("no cap-satisfying clips remain")
        scores = layout.scores(flat_codes[candidates], deficit, q_worst)
        best = int(candidates[np.argmax(scores)])  # first in pool order on a tie
        unchosen[best] = False
        counts[flat_codes[best]] += 1
        taken[source[best]] += 1
        selected.append(best)
    return [pool[i].clip_id for i in selected]


def imbalance_report(
    selected: Sequence[PoolClip], targets: Targets | None = None
) -> dict[str, dict]:
    """Per-question deviation table for the final selection."""
    targets = targets if targets is not None else uniform_targets()
    n = len(selected)
    report: dict[str, dict] = {}
    for question, classes in targets.items():
        freq = {c: 0.0 for c in classes}
        for clip in selected:
            freq[clip.answers[question]] += 1.0
        if n > 0:
            freq = {c: count / n for c, count in freq.items()}
        max_dev = max(abs(freq[c] - classes[c]) for c in classes)
        report[question] = {"max_abs_deviation": max_dev, "freq": freq}
    return report
