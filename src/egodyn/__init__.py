"""Deterministic ego-motion semantics engine.

Converts vehicle state logs into physically grounded QA labels, scores
free-text answers for semantic correctness and physics consistency,
balances benchmark pools, and audits threshold sensitivity.
"""

__version__ = "0.1.0"

from .errors import EgodynError
from .kinematics import (
    KinematicSummary,
    PoseSample,
    StateSequence,
    derive_states,
    derive_states_from_rates,
    resample_uniform,
    smooth_savgol,
    summarize,
    stratification_tags,
)
from .oracle import QARecord, label_all
from .questions import ANSWER_SPACES, QUESTION_ORDER, UNPARSED
from .thresholds import ThresholdConfig, calibrate_thresholds

__all__ = [
    "ANSWER_SPACES",
    "EgodynError",
    "KinematicSummary",
    "PoseSample",
    "QARecord",
    "QUESTION_ORDER",
    "StateSequence",
    "ThresholdConfig",
    "UNPARSED",
    "__version__",
    "calibrate_thresholds",
    "derive_states",
    "derive_states_from_rates",
    "label_all",
    "resample_uniform",
    "smooth_savgol",
    "stratification_tags",
    "summarize",
]
