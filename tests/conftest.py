from __future__ import annotations

import numpy as np
import pytest

from egodyn.kinematics import StateSequence
from egodyn.questions import AnswerTable
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
