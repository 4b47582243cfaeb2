from __future__ import annotations

import json

import numpy as np
import pytest

from egodyn.kinematics import StateSequence
from egodyn.questions import ANSWER_SPACES, AnswerTable
from egodyn.thresholds import ThresholdConfig

GRID = np.arange(31) / 10.0


def make_seq(v=0.0, a=0.0, j=0.0, omega=0.0, theta=None, x=None, y=None):
    """StateSequence on the 31-point grid; scalars broadcast to channels."""

    def chan(value):
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            return np.full(GRID.size, float(arr))
        return arr.copy()

    v, a, j, omega = chan(v), chan(a), chan(j), chan(omega)
    if theta is None:
        theta = np.concatenate([[0.0], np.cumsum((omega[1:] + omega[:-1]) * 0.05)])
    else:
        theta = chan(theta)
    return StateSequence(t=GRID, v=v, a=a, j=j, omega=omega, theta=theta, x=x, y=y)


def random_seq(rng: np.random.Generator) -> StateSequence:
    """A plausibility-bounded random clip for property tests."""
    v0 = rng.uniform(0.0, 20.0)
    v = np.clip(v0 + np.cumsum(rng.normal(0, 0.3, GRID.size)), 0.0, 45.0)
    a = rng.normal(0, 1.5, GRID.size)
    j = rng.normal(0, 3.0, GRID.size)
    omega = rng.normal(0, 0.15, GRID.size)
    theta = np.concatenate([[0.0], np.cumsum((omega[1:] + omega[:-1]) * 0.05)])
    return StateSequence(t=GRID, v=v, a=a, j=j, omega=omega, theta=theta)


def answer_table(cells, predicted=False) -> AnswerTable:
    """AnswerTable of a ``{(clip_id, question_id): label}`` mapping."""
    return AnswerTable.from_rows(
        ((clip_id, question, label) for (clip_id, question), label in cells.items()),
        predicted,
    )


@pytest.fixture
def cfg() -> ThresholdConfig:
    return ThresholdConfig()


def ref_label_rows(clip_ids, codes, evidence, table) -> list[dict]:
    """The dict row builder that ``oracle.label_lines`` replaced: each
    answer's ``QARecord.to_dict()``, clip by clip in the order of ``table``,
    with its checks (an answer code outside the answer space, a question
    without evidence). ``json.dumps`` of these rows is the reference for
    the text ``label_lines`` builds."""
    if not len(codes):
        return []
    columns = {name: column.tolist() for name, column in evidence.items()}
    by_question = []
    for k, (question, (rule, params, names)) in enumerate(table.items()):
        space = ANSWER_SPACES[question]
        column = codes[:, k]
        outside = (column < 0) | (column >= len(space))
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(
                f"clip {clip_ids[i]!r}, question {question!r}: "
                f"answer code {int(column[i])} is not in the answer space"
            )
        if not names:
            raise ValueError("evidence must not be empty")
        by_question.append([
            {"clip_id": clip_id, "question_id": question, "answer": space[code],
             "rule_name": rule, "rule_params": dict(params), "evidence": dict(zip(names, values))}
            for clip_id, code, values in zip(
                clip_ids, column.tolist(), zip(*(columns[name] for name in names)))
        ])
    return [row for clip_rows in zip(*by_question) for row in clip_rows]


def jsonl(rows) -> str:
    """``json.dumps(row, sort_keys=True, ensure_ascii=False)`` of each row, one per line."""
    return "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)
