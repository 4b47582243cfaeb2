from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from egodyn.balancer import (
    BalanceState,
    PoolClip,
    balance,
    helpfulness,
    imbalance_report,
    uniform_targets,
    worst_imbalance,
)
from egodyn.errors import InfeasibleCaps, InvalidBalanceInput, PoolExhausted

BINARY = {"q": ("yes", "no")}


def clip(clip_id, answers, source="real"):
    return PoolClip(clip_id, source, answers)


def binary_pool():
    return [
        clip("c1", {"q": "yes"}),
        clip("c2", {"q": "yes"}),
        clip("c3", {"q": "no"}),
        clip("c4", {"q": "no"}),
    ]


class TestWorstImbalance:
    def test_empty_selection_lexicographic(self):
        targets = uniform_targets(BINARY)
        state = BalanceState(targets=targets)
        # both classes at deficit 0.5; "no" < "yes" lexicographically
        assert worst_imbalance(state, targets) == ("q", "no")

    def test_uniform_state_returns_lexicographic_first(self):
        targets = uniform_targets(BINARY)
        state = BalanceState(targets=targets)
        state.add(clip("c1", {"q": "yes"}))
        state.add(clip("c2", {"q": "no"}))
        assert worst_imbalance(state, targets) == ("q", "no")

    def test_three_class_deficit(self):
        targets = uniform_targets({"q": ("a", "b", "c")})
        state = BalanceState(targets=targets)
        state.add(clip("c1", {"q": "a"}))
        state.add(clip("c2", {"q": "b"}))
        assert worst_imbalance(state, targets) == ("q", "c")


class TestHelpfulness:
    def test_overrepresented_answers_score_zero(self):
        targets = uniform_targets({"q1": ("yes", "no"), "q2": ("yes", "no")})
        state = BalanceState(targets=targets)
        state.add(clip("c1", {"q1": "yes", "q2": "yes"}))
        candidate = clip("c2", {"q1": "yes", "q2": "yes"})
        assert helpfulness(candidate, state, targets, "q1") == 0.0

    def test_sums_positive_deficits(self):
        targets = {
            "q1": {"yes": 0.5, "no": 0.5},
            "q2": {"yes": 0.6, "no": 0.4},
            "q3": {"yes": 0.7, "no": 0.3},
        }
        state = BalanceState(targets=targets)
        state.add(clip("c1", {"q1": "yes", "q2": "no", "q3": "no"}))
        # candidate fills q2 deficit (0.6) and q3 deficit (0.7)
        candidate = clip("c2", {"q1": "no", "q2": "yes", "q3": "yes"})
        assert helpfulness(candidate, state, targets, "q1") == pytest.approx(1.3)

    def test_single_question_pool_scores_zero(self):
        targets = uniform_targets(BINARY)
        state = BalanceState(targets=targets)
        assert helpfulness(clip("c", {"q": "yes"}), state, targets, "q") == 0.0


class TestBalance:
    def test_binary_pool_selects_one_of_each(self):
        selected = balance(binary_pool(), 2, targets=uniform_targets(BINARY))
        answers = {cid: next(c.answers["q"] for c in binary_pool() if c.clip_id == cid)
                   for cid in selected}
        assert sorted(answers.values()) == ["no", "yes"]

    def test_full_pool_in_pool_order(self):
        pool = binary_pool()
        assert balance(pool, 4, targets=uniform_targets(BINARY)) == [
            "c1", "c2", "c3", "c4",
        ]

    def test_caps_force_source_mix(self):
        pool = [
            clip("r1", {"q": "yes"}, "real"),
            clip("r2", {"q": "no"}, "real"),
            clip("r3", {"q": "no"}, "real"),
            clip("s1", {"q": "yes"}, "sim"),
        ]
        selected = balance(
            pool, 2, caps={"real": 1, "sim": 1}, targets=uniform_targets(BINARY)
        )
        sources = {cid[0] for cid in selected}
        assert sources == {"r", "s"}

    def test_determinism(self):
        rng = np.random.default_rng(4)
        pool = [
            clip(f"c{i}", {"q": rng.choice(["yes", "no"])}, rng.choice(["real", "sim"]))
            for i in range(20)
        ]
        targets = uniform_targets(BINARY)
        assert balance(pool, 10, targets=targets) == balance(pool, 10, targets=targets)

    def test_cap_compliance_never_violated(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pool = [
                clip(
                    f"c{i}",
                    {"q": rng.choice(["yes", "no"])},
                    rng.choice(["real", "sim"]),
                )
                for i in range(12)
            ]
            caps = {"real": 4, "sim": 4}
            try:
                selected = balance(pool, 8, caps=caps, targets=uniform_targets(BINARY))
            except InfeasibleCaps:
                continue
            by_id = {c.clip_id: c for c in pool}
            for source in caps:
                count = sum(1 for cid in selected if by_id[cid].source == source)
                assert count <= caps[source]

    def test_pool_exhausted(self):
        with pytest.raises(PoolExhausted):
            balance(binary_pool(), 5, targets=uniform_targets(BINARY))

    def test_infeasible_caps(self):
        with pytest.raises(InfeasibleCaps):
            balance(
                binary_pool(), 3, caps={"real": 2}, targets=uniform_targets(BINARY)
            )

    def test_fallback_when_no_clip_answers_worst_class(self):
        pool = [clip(f"c{i}", {"q": "yes"}) for i in range(4)]
        selected = balance(pool, 2, targets=uniform_targets(BINARY))
        assert len(selected) == 2

    def test_incomplete_answers_rejected(self):
        pool = [clip("c1", {})]
        with pytest.raises(ValueError):
            balance(pool, 1, targets=uniform_targets(BINARY))



class TestRejectedInputs:
    @pytest.mark.parametrize(
        "answers,message",
        [({}, "no answer for 'q'"), ({"q": "maybe"}, "'maybe' is not a class"),
         ({"q": ["yes"]}, "['yes'] is not a class")],
    )
    def test_answer_set(self, answers, message):
        with pytest.raises(InvalidBalanceInput, match=re.escape(message)):
            balance([clip("c1", {"q": "no"}), clip("c2", answers)], 1,
                    targets=uniform_targets(BINARY))

    def test_repeated_clip_id(self):
        pool = binary_pool() + [clip("c2", {"q": "no"})]
        with pytest.raises(InvalidBalanceInput, match="'c2' is in the pool twice"):
            balance(pool, 1, targets=uniform_targets(BINARY))

    @pytest.mark.parametrize(
        "n,caps,name",
        [(-1, None, "n"), (1.0, None, "n"), (True, None, "n"),
         (1, {"real": -1}, "cap of source 'real'"), (1, {"real": 0.5}, "cap of source 'real'")],
    )
    def test_size_and_caps(self, n, caps, name):
        with pytest.raises(InvalidBalanceInput, match=f"^{name} must be a non-negative integer"):
            balance(binary_pool(), n, caps=caps, targets=uniform_targets(BINARY))

    def test_non_finite_target(self):
        with pytest.raises(InvalidBalanceInput, match="finite"):
            balance(binary_pool(), 1, targets={"q": {"yes": float("nan"), "no": 0.5}})

class TestBookkeeping:
    def test_incremental_counts_match_recount(self):
        rng = np.random.default_rng(21)
        spaces = {"q1": ("a", "b", "c"), "q2": ("yes", "no")}
        targets = uniform_targets(spaces)
        pool = [
            clip(
                f"c{i}",
                {q: classes[rng.integers(len(classes))] for q, classes in spaces.items()},
            )
            for i in range(15)
        ]
        state = BalanceState(targets=targets)
        by_id = {c.clip_id: c for c in pool}
        for cid in balance(pool, 10, targets=targets):
            state.add(by_id[cid])
        for question, classes in spaces.items():
            for label in classes:
                recount = sum(
                    1 for cid in state.selected if by_id[cid].answers[question] == label
                ) / len(state.selected)
                assert state.frequency(question, label) == pytest.approx(
                    recount, abs=1e-12
                )


class TestImbalanceReport:
    def test_uniform_selection_reports_zero(self):
        targets = uniform_targets(BINARY)
        selected = [clip("c1", {"q": "yes"}), clip("c2", {"q": "no"})]
        report = imbalance_report(selected, targets)
        assert report["q"]["max_abs_deviation"] == pytest.approx(0.0)

    def test_single_clip_binary_deviation(self):
        report = imbalance_report([clip("c1", {"q": "yes"})], uniform_targets(BINARY))
        assert report["q"]["max_abs_deviation"] == pytest.approx(0.5)

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(31)
        selected = [
            clip(f"c{i}", {"q": rng.choice(["yes", "no"])}) for i in range(9)
        ]
        report = imbalance_report(selected, uniform_targets(BINARY))
        assert sum(report["q"]["freq"].values()) == pytest.approx(1.0)


def exhaustive_best_deviation(pool, n, targets, caps=None):
    """Minimum max-deviation over every cap-respecting subset of size n."""
    best = float("inf")
    for combo in itertools.combinations(pool, n):
        if caps:
            counts: dict[str, int] = {}
            for c in combo:
                counts[c.source] = counts.get(c.source, 0) + 1
            if any(counts.get(src, 0) > cap for src, cap in caps.items()):
                continue
        worst = 0.0
        for question, classes in targets.items():
            for label, target in classes.items():
                freq = sum(1 for c in combo if c.answers[question] == label) / n
                worst = max(worst, abs(freq - target))
        best = min(best, worst)
    return best


def selection_deviation(pool, selected_ids, targets):
    by_id = {c.clip_id: c for c in pool}
    combo = [by_id[cid] for cid in selected_ids]
    worst = 0.0
    for question, classes in targets.items():
        for label, target in classes.items():
            freq = sum(1 for c in combo if c.answers[question] == label) / len(combo)
            worst = max(worst, abs(freq - target))
    return worst


class TestNearOptimality:
    def test_greedy_close_to_exhaustive_on_small_pools(self):
        rng = np.random.default_rng(41)
        spaces = {"q1": ("a", "b"), "q2": ("x", "y", "z")}
        targets = uniform_targets(spaces)
        for trial in range(15):
            pool = [
                clip(
                    f"c{i}",
                    {
                        q: classes[rng.integers(len(classes))]
                        for q, classes in spaces.items()
                    },
                )
                for i in range(10)
            ]
            n = int(rng.integers(2, 7))
            selected = balance(pool, n, targets=targets)
            greedy = selection_deviation(pool, selected, targets)
            optimal = exhaustive_best_deviation(pool, n, targets)
            assert greedy <= optimal + 1.0 / n + 1e-9
