"""The package's public surface: what ``from trackvib import *`` gives."""

import trackvib

REMOVED = ("align_to_reference", "highpass", "spectrum", "SpectralSeries",
           "haversine_m", "AlignmentSeries", "ChordSpec",
           "AlignmentFailedError")


def test_all_names_resolve_and_removed_names_stay_out():
    missing = [name for name in trackvib.__all__
               if not hasattr(trackvib, name)]
    assert missing == []
    assert len(set(trackvib.__all__)) == len(trackvib.__all__)
    assert [name for name in REMOVED
            if name in trackvib.__all__ or hasattr(trackvib, name)] == []
