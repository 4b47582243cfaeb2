"""``balance`` selects exactly what the scalar greedy loop selects.

The reference below is the dict-based greedy loop that the (N, Q)
answer-code form replaced, kept here as the oracle. Selections are
compared with ``==``, and the ``balance`` command's outputs byte for
byte; the public ``worst_imbalance`` and ``helpfulness`` must return the
reference's values exactly, not approximately, because the last bits of
a score decide ties between clips.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egodyn import io
from egodyn.balancer import (
    BalanceState,
    PoolClip,
    balance,
    helpfulness,
    imbalance_report,
    uniform_targets,
    worst_imbalance,
)
from egodyn.cli import main
from egodyn.errors import InfeasibleCaps, PoolExhausted
from egodyn.questions import ANSWER_SPACES, QUESTION_ORDER
from egodyn.synth import TEMPLATE_NAMES, generate_suite

SOURCES = ("real", "sim", "aux")


class RefState:
    def __init__(self, targets):
        self.selected = []
        self.counts = {q: {c: 0 for c in classes} for q, classes in targets.items()}
        self.source_counts = {}

    def frequency(self, question, label):
        n = len(self.selected)
        if n == 0:
            return 0.0
        return self.counts[question].get(label, 0) / n

    def add(self, clip):
        self.selected.append(clip.clip_id)
        for q in self.counts:
            label = clip.answers[q]
            self.counts[q][label] = self.counts[q].get(label, 0) + 1
        self.source_counts[clip.source] = self.source_counts.get(clip.source, 0) + 1


def ref_worst_imbalance(state, targets):
    best = None
    best_deficit = -float("inf")
    for question in sorted(targets):
        for label in sorted(targets[question]):
            deficit = targets[question][label] - state.frequency(question, label)
            if deficit > best_deficit:
                best_deficit = deficit
                best = (question, label)
    return best


def ref_helpfulness(clip, state, targets, q_worst):
    score = 0.0
    for question in targets:
        if question == q_worst:
            continue
        label = clip.answers[question]
        deficit = targets[question].get(label, 0.0) - state.frequency(question, label)
        if deficit > 0:
            score += deficit
    return score


def ref_balance(pool, n, caps=None, targets=None):
    targets = targets if targets is not None else uniform_targets()
    if len(pool) < n:
        raise PoolExhausted
    if caps is not None:
        per_source = {}
        for clip in pool:
            per_source[clip.source] = per_source.get(clip.source, 0) + 1
        if sum(min(k, caps.get(s, k)) for s, k in per_source.items()) < n:
            raise InfeasibleCaps
    if n == len(pool):
        return [clip.clip_id for clip in pool]
    state = RefState(targets)
    chosen = set()

    def cap_ok(clip):
        if caps is None or clip.source not in caps:
            return True
        return state.source_counts.get(clip.source, 0) < caps[clip.source]

    while len(state.selected) < n:
        q_worst, c_worst = ref_worst_imbalance(state, targets)
        open_clips = [c for c in pool if c.clip_id not in chosen and cap_ok(c)]
        candidates = [c for c in open_clips if c.answers[q_worst] == c_worst] or open_clips
        best_clip, best_score = None, -float("inf")
        for clip in candidates:
            score = ref_helpfulness(clip, state, targets, q_worst)
            if score > best_score:
                best_clip, best_score = clip, score
        state.add(best_clip)
        chosen.add(best_clip.clip_id)
    return list(state.selected)


@st.composite
def balance_cases(draw):
    """A pool answering a few questions, custom targets over a subset of
    them in a drawn (unsorted) order, optional caps, and a size ``n``.

    Answers come from a drawn subset of each question's classes, so the
    worst class often has no clip and the fallback path runs; with
    ``same`` every clip answers alike, so every score ties.
    """
    answered = draw(
        st.lists(st.sampled_from(QUESTION_ORDER), min_size=1, max_size=14, unique=True)
    )
    targets = {}
    present = {}
    for q in answered[: draw(st.integers(1, len(answered)))]:
        classes = draw(
            st.lists(st.sampled_from(ANSWER_SPACES[q]), min_size=1, unique=True)
        )
        weights = draw(
            st.lists(st.integers(0, 5), min_size=len(classes), max_size=len(classes))
        )
        total = sum(weights) or 1
        targets[q] = {c: w / total for c, w in zip(classes, weights)}
        present[q] = draw(st.lists(st.sampled_from(classes), min_size=1, unique=True))
    for q in answered:
        present.setdefault(q, list(ANSWER_SPACES[q]))

    def answers():
        return {q: draw(st.sampled_from(present[q])) for q in answered}

    size = draw(st.integers(0, 24))
    same = draw(st.booleans())
    first = answers()
    pool = [
        PoolClip(f"c{i:02d}", draw(st.sampled_from(SOURCES)), first if same else answers())
        for i in range(size)
    ]
    caps = draw(st.none() | st.dictionaries(st.sampled_from(SOURCES), st.integers(0, 8)))
    n = draw(st.sampled_from([0, size]) | st.integers(0, size))
    return pool, n, caps, targets


@settings(max_examples=300, deadline=None)
@given(balance_cases())
def test_selection_equals_reference(case):
    pool, n, caps, targets = case
    try:
        expected = ref_balance(pool, n, caps, targets)
    except (PoolExhausted, InfeasibleCaps) as exc:
        with pytest.raises(type(exc)):
            balance(pool, n, caps=caps, targets=targets)
        return
    assert balance(pool, n, caps=caps, targets=targets) == expected


@settings(max_examples=100, deadline=None)
@given(balance_cases())
def test_public_steps_equal_reference(case):
    """``worst_imbalance`` and ``helpfulness`` after every add."""
    pool, _, _, targets = case
    state, ref = BalanceState(targets=targets), RefState(targets)
    for added in [None, *pool]:
        if added is not None:
            state.add(added)
            ref.add(added)
        q_worst, c_worst = worst_imbalance(state, targets)
        assert (q_worst, c_worst) == ref_worst_imbalance(ref, targets)
        assert state.frequency(q_worst, c_worst) == ref.frequency(q_worst, c_worst)
        for clip in pool:
            assert helpfulness(clip, state, targets, q_worst) == ref_helpfulness(
                clip, ref, targets, q_worst
            )


@pytest.fixture(scope="module")
def cruise_pool():
    """1,500 suite clips, drawn eight times as often from the cruise
    templates, with every third clip from a capped ``sim`` source."""
    mix = {name: 8.0 if name.startswith("cruise_") else 1.0 for name in TEMPLATE_NAMES}
    suite = generate_suite(1500, seed=5, regime_mix=mix)
    return [
        PoolClip(c.clip_id, "sim" if i % 3 == 0 else "real", c.expected)
        for i, c in enumerate(suite)
    ]


CRUISE_N, CRUISE_CAPS = 150, {"sim": 15}


def test_cruise_skewed_suite_equals_reference(cruise_pool):
    assert balance(cruise_pool, CRUISE_N, caps=CRUISE_CAPS) == ref_balance(
        cruise_pool, CRUISE_N, CRUISE_CAPS
    )


def test_cli_outputs_equal_reference_bytes(cruise_pool, tmp_path):
    labels = tmp_path / "labels.jsonl"
    io.write_jsonl(
        labels,
        [
            {"clip_id": c.clip_id, "question_id": q, "answer": c.answers[q]}
            for c in cruise_pool
            for q in QUESTION_ORDER
        ],
    )
    sources = tmp_path / "sources.csv"
    sources.write_text(
        "clip_id,source\n" + "".join(f"{c.clip_id},{c.source}\n" for c in cruise_pool)
    )
    config = tmp_path / "config.json"
    io.write_json(
        config,
        {"labels": str(labels), "sources": str(sources), "n": CRUISE_N, "caps": CRUISE_CAPS},
    )
    out = tmp_path / "out"
    assert main(["balance", "--config", str(config), "--out", str(out)]) == 0

    expected = tmp_path / "expected"
    expected.mkdir()
    ids = ref_balance(cruise_pool, CRUISE_N, CRUISE_CAPS)
    by_id = {c.clip_id: c for c in cruise_pool}
    io.write_json(expected / "selected_clips.json", {"selected": ids})
    io.write_json(
        expected / "imbalance_report.json", imbalance_report([by_id[i] for i in ids])
    )
    for name in ("selected_clips.json", "imbalance_report.json"):
        assert (out / name).read_bytes() == (expected / name).read_bytes()
