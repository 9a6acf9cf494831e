"""Exception types raised across the pipeline.

Every error that callers are expected to catch has its own class; generic
ValueError/TypeError are reserved for programming mistakes.
"""


class ScenePretextError(Exception):
    """Base class for all library errors."""


class AllZeroCounts(ScenePretextError):
    """A category table contains no observations at all."""


class DimensionMismatch(ScenePretextError):
    """Array or table dimensions are mutually inconsistent."""


class EmptyDistribution(ScenePretextError):
    """A distribution has no support to sample from."""


class PlacementFailure(ScenePretextError):
    """Rejection sampling could not place an object within the retry budget."""


class UnknownCategory(ScenePretextError):
    """No asset recipe exists for the requested category id."""


class DegenerateObject(ScenePretextError):
    """An object has too few points for the requested operation."""


class TooFewPoints(ScenePretextError):
    """A point set is smaller than the requested sample size."""


class NonFiniteInput(ScenePretextError):
    """An input array contains NaN or infinity."""


class EmptyBatch(ScenePretextError):
    """A loss batch contains no scene pairs."""


class EmptySet(ScenePretextError):
    """A point set that must be nonempty is empty."""


class CorruptManifest(ScenePretextError):
    """A pair manifest is missing files or fails validation."""
