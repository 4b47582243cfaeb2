"""Exception types shared across the engine."""


class EgodynError(Exception):
    """Base class for all engine errors."""


class NonMonotonicTime(EgodynError):
    """Timestamps in a log are not strictly increasing."""


class InsufficientSpan(EgodynError):
    """Log does not cover the requested resampling window."""


class InvalidTrajectory(EgodynError, ValueError):
    """Trajectory rows or state channels hold values the engine cannot use."""


class WindowTooLarge(EgodynError):
    """Smoothing window exceeds the signal length."""


class EvenWindow(EgodynError):
    """Smoothing window must be odd."""


class EmptySet(EgodynError):
    """An aggregate was requested over an empty clip set."""


class NoGroundTruth(EgodynError):
    """A metric was requested on a table with no ground-truth mass."""


class MismatchedModelSets(EgodynError):
    """Two rankings do not cover the same models."""


class InfeasibleCaps(EgodynError):
    """Per-source caps cannot accommodate the requested selection size."""


class PoolExhausted(EgodynError):
    """The candidate pool ran out before the target size was reached."""


class InvalidBalanceInput(EgodynError, ValueError):
    """A balance pool, size or cap the selection cannot use."""


class EmptySeries(EgodynError):
    """A proxy series with no frame pairs was provided."""


class MissingChannels(EgodynError):
    """An encoding requires channels the sequence does not carry."""


class ImplausibleSpec(EgodynError):
    """Maneuver parameters fall outside passenger-car plausibility bounds."""


class ConfigError(EgodynError, ValueError):
    """Invalid run or threshold configuration."""
