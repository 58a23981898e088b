"""Exception hierarchy: every package error is catchable as TrackVibError."""

import inspect

import trackvib.errors as errors_mod
from trackvib.errors import TrackVibError


def test_all_errors_derive_from_base():
    classes = [obj for _, obj in inspect.getmembers(errors_mod, inspect.isclass)
               if issubclass(obj, Exception) and obj is not TrackVibError]
    assert sorted(cls.__name__ for cls in classes) == [
        "FormatError", "GapTooLargeError", "InsufficientDataError",
        "MissingChannelError", "MixedLocationError", "NoOverlapError",
        "NoValidSpeedError",
        "PlanTooShortError", "TooShortError", "UndefinedCorrelationError"]
    for cls in classes:
        assert issubclass(cls, TrackVibError), cls.__name__


def test_base_is_not_valueerror():
    # invalid arguments use builtin ValueError; data failures must not
    assert not issubclass(TrackVibError, ValueError)
