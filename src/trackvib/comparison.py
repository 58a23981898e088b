"""Windowed comparison of an estimated alignment against a reference one.

Works on the per-window summary values (windowed_max output), never on raw
samples: recording-car data and on-board estimates are not phase-accurate at
sample level, but their exceedance statistics over 100 m / 20 m windows are
comparable after co-registration to within an integer number of windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (InsufficientDataError, NoOverlapError,
                     UndefinedCorrelationError)
from .geometry import WindowedStats

MIN_COMMON_WINDOWS = 3
# window values whose spread is within this fraction of their magnitude are
# flat: the spread is rounding, and a line fitted to it means nothing
FLAT_REL_TOL = 1e-9


@dataclass(frozen=True)
class ComparisonReport:
    """Agreement metrics between matched window values."""

    pearson_r: float
    slope: float
    intercept: float
    n_windows: int
    window_starts_m: np.ndarray
    estimated: np.ndarray
    reference: np.ndarray
    residuals: np.ndarray
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "pearson_r": self.pearson_r,
            "slope": self.slope,
            "intercept": self.intercept,
            "n_windows": self.n_windows,
            "metadata": dict(self.metadata),
            "per_window": [
                {"window_start_m": float(s), "estimated": float(e),
                 "reference": float(r), "residual": float(d)}
                for s, e, r, d in zip(self.window_starts_m, self.estimated,
                                      self.reference, self.residuals)
            ],
        }


def _usable_pairs(est: WindowedStats, ref: WindowedStats):
    """Indices into est and ref of the windows both cover and both can use.

    Both sequences step by window_m, so window i of est is window i + k of
    ref. Raises ValueError unless window length and grid phase agree.
    """
    if est.window_m != ref.window_m:
        raise ValueError(f"window lengths differ: {est.window_m} vs {ref.window_m}")
    phase = (est.starts_m[0] - ref.starts_m[0]) / est.window_m
    if abs(phase - round(phase)) > 1e-6:
        raise ValueError("window sequences are not aligned to the same grid")
    k = int(round(phase))
    ei = np.arange(max(0, -k), min(len(est), len(ref) - k))
    ei = ei[est.usable[ei] & ref.usable[ei + k]]
    return ei, ei + k


def _common_windows(est: WindowedStats, ref: WindowedStats):
    """_usable_pairs, or NoOverlapError, InsufficientDataError or
    UndefinedCorrelationError for none, too few or flat (FLAT_REL_TOL)
    common windows."""
    ei, ri = _usable_pairs(est, ref)
    if ei.size == 0:
        raise NoOverlapError("window sequences do not overlap")
    if ei.size < MIN_COMMON_WINDOWS:
        raise InsufficientDataError(f"only {ei.size} common valid windows, "
                                    f"need {MIN_COMMON_WINDOWS}")
    if _flat(est.values[ei]) or _flat(ref.values[ri]):
        raise UndefinedCorrelationError("no variance beyond rounding on one "
                                        "side, correlation undefined")
    return ei, ri


def _flat(values: np.ndarray) -> bool:
    return np.ptp(values) <= FLAT_REL_TOL * np.max(np.abs(values))


def correlate(est: WindowedStats, ref: WindowedStats,
              metadata: dict | None = None) -> ComparisonReport:
    """Pearson r plus least-squares slope/intercept of est against ref.

    Pairs windows by identical start position, drops pairs where either side
    is unusable, and requires at least 3 surviving pairs. The fitted line is
    estimated = slope * reference + intercept; residuals are per-window
    deviations from it.
    """
    ei, ri = _common_windows(est, ref)
    e, r = est.values[ei], ref.values[ri]
    pearson = float(np.corrcoef(e, r)[0, 1])
    slope, intercept = np.polyfit(r, e, 1)
    residuals = e - (slope * r + intercept)
    return ComparisonReport(pearson, float(slope), float(intercept), ei.size,
                            est.starts_m[ei].copy(), e.copy(), r.copy(),
                            residuals, metadata or {})


def coregister(est: WindowedStats, ref: WindowedStats,
               max_shift_m: float = 0.0):
    """Shift est by an integer number of windows to best match ref.

    Tries every shift k with |k * window_m| <= max_shift_m, keeps the one
    maximizing the Pearson r of the matched pairs (ties go to the smallest
    |shift|), and returns (est_shifted, ref, applied_shift_m). k = 0 is always
    a candidate, so co-registration never worsens an already valid alignment.
    If no shift leaves MIN_COMMON_WINDOWS usable pairs, NoOverlapError says
    how many the best-covered shift leaves.
    """
    if not 0 <= max_shift_m < np.inf:
        raise ValueError(f"max_shift_m of {max_shift_m} m must be finite "
                         f"and >= 0")
    k_max = int(np.floor(max_shift_m / est.window_m + 1e-9))
    best, undefined, most = None, None, 0    # most: usable pairs at any shift
    for k in sorted(range(-k_max, k_max + 1), key=lambda k: (abs(k), k)):
        shifted = replace(est, starts_m=est.starts_m + k * est.window_m)
        most = max(most, _usable_pairs(shifted, ref)[0].size)
        try:
            ei, ri = _common_windows(shifted, ref)
        except UndefinedCorrelationError as exc:
            undefined = exc
            continue
        except (NoOverlapError, InsufficientDataError):
            continue
        score = float(np.corrcoef(shifted.values[ei], ref.values[ri])[0, 1])
        # 1e-9 guard so float jitter cannot beat the smallest-|shift| rule
        if best is None or score > best[0] + 1e-9:
            best = (score, k, shifted)
    if best is None:
        raise undefined or NoOverlapError(
            f"the tables share at most {most} usable windows of {est.window_m:g} "
            f"m at any shift within +/-{max_shift_m:g} m; compare needs "
            f"{MIN_COMMON_WINDOWS}, and a shorter --window gives more")
    _, k, shifted = best
    return shifted, ref, k * est.window_m
