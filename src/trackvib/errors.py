"""Exception types raised by the trackvib processing chain.

Plain invalid arguments (bad factor, cutoff above Nyquist, mismatched
rates...) raise the builtin ValueError. The classes below mark data-dependent
failures a caller may want to catch and handle individually; all derive from
TrackVibError. The CLI exits 1 on a TrackVibError, ValueError or OSError;
any other exception is a bug and propagates.
"""


class TrackVibError(Exception):
    """Base class for data-dependent processing failures."""


class GapTooLargeError(TrackVibError):
    """A gap in a record exceeds the bridgeable size: between its blocks,
    or before its first block, when it starts later than the records read
    with it."""


class TooShortError(TrackVibError):
    """Input series is too short for the requested operation."""


class NoValidSpeedError(TrackVibError):
    """No valid speed sample could be derived from the delay estimates."""


class InsufficientDataError(TrackVibError):
    """Fewer valid window pairs than required for a comparison."""


class UndefinedCorrelationError(TrackVibError):
    """Correlation undefined (zero variance on one side)."""


class NoOverlapError(TrackVibError):
    """Window sequences share no overlapping span."""


class PlanTooShortError(TrackVibError):
    """Speed plan ends before the simulated run covers the profile."""


class MissingChannelError(TrackVibError):
    """A channel required by the processing stage is absent."""


class MixedLocationError(TrackVibError):
    """One set of records holds more than one sensor location."""


class FormatError(TrackVibError):
    """A file does not conform to its declared format."""
