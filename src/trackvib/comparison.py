"""Windowed comparison of an estimated alignment against a reference one.

Works on the per-window summary values (windowed_max output), never on raw
samples: recording-car data and on-board estimates are not phase-accurate at
sample level, but their exceedance statistics over 100 m / 20 m windows are
comparable after co-registration to within an integer number of windows.

coregister scores every shift of k windows with |k * window_m| <=
max_shift_m in one array pass: for each shift at once, the usable pairs,
their count, both sides' flatness (FLAT_REL_TOL) and a masked Pearson r,
in batches of at most _BATCH_FLOATS pair values. The best r wins, but a
shift beats one with a smaller |k| only by more than 1e-9, so ties go to
the smaller |shift|, then to the negative one. The reported r, slope and
intercept are correlate's, from np.corrcoef and np.polyfit on the chosen
shift's pairs.
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
_FLAT_MESSAGE = "no variance beyond rounding on one side, correlation undefined"
# pair values (side x shift x window) in one batch of coregister's shifts:
# 512 KB of float64, so a wide search keeps a bounded working set
_BATCH_FLOATS = 1 << 16


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


def _offset(est: WindowedStats, ref: WindowedStats) -> int:
    """k such that window i of est starts where window i + k of ref does.

    Both sequences step by window_m. Raises ValueError unless window length
    and grid phase agree.
    """
    if est.window_m != ref.window_m:
        raise ValueError(f"window lengths differ: {est.window_m} vs {ref.window_m}")
    phase = (est.starts_m[0] - ref.starts_m[0]) / est.window_m
    if abs(phase - round(phase)) > 1e-6:
        raise ValueError("window sequences are not aligned to the same grid")
    return int(round(phase))


def _usable_pairs(est: WindowedStats, ref: WindowedStats):
    """Indices into est and ref of the windows both cover and both can use."""
    k = _offset(est, ref)
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
        raise UndefinedCorrelationError(_FLAT_MESSAGE)
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


def _shift_scores(est: WindowedStats, ref: WindowedStats, lags: np.ndarray):
    """Usable-pair counts, flatness and Pearson r at each of lags, a run of
    consecutive integers.

    At lag s, window i of est pairs with window i + s of ref. Returns
    (counts, flat, score), one entry per lag: flat marks lags where either
    side's pairs are flat within FLAT_REL_TOL (or there are none), and
    score is the Pearson r of the pairs, meaningful only where counts >=
    MIN_COMMON_WINDOWS and not flat. The lags are scored in batches of at
    most _BATCH_FLOATS pair values, so the working set does not grow with
    the number of lags.
    """
    n = len(est)
    # ref padded by n windows each side: lag s reads ref window i + s at
    # padded index i + s + n
    pad, off = np.full(n, np.nan), np.zeros(n, dtype=bool)
    values = np.concatenate((pad, ref.values, pad))
    ok = np.concatenate((off, ref.usable, off))
    e_ok = est.usable
    counts = np.zeros(lags.size, dtype=int)
    flat = np.ones(lags.size, dtype=bool)
    score = np.zeros(lags.size)
    grid = n + np.arange(n)
    step = max(1, _BATCH_FLOATS // (2 * n))
    for b in range(0, lags.size, step):
        out = slice(b, b + step)
        j = lags[out, None] + grid
        mask = e_ok & ok[j]
        # both sides of each lag's pairs: (side, lag, window)
        x = np.empty((2, *j.shape))
        x[0] = est.values
        x[1] = values[j]
        m = mask.sum(axis=1)
        counts[out] = m
        hi = x.max(axis=2, where=mask, initial=-np.inf)
        lo = x.min(axis=2, where=mask, initial=np.inf)
        # _flat per side: the largest |value| is one of the two extremes
        flat[out] = (hi - lo <= FLAT_REL_TOL
                     * np.maximum(np.abs(hi), np.abs(lo))).any(axis=0)
        mean = x.sum(axis=2, where=mask, keepdims=True) / np.maximum(m, 1)[:, None]
        dev = np.where(mask, x - mean, 0.0)
        sxx, syy = np.einsum("kij,kij->ki", dev, dev)
        with np.errstate(divide="ignore", invalid="ignore"):
            score[out] = np.einsum("ij,ij->i", *dev) / np.sqrt(sxx * syy)
    return counts, flat, score


def coregister(est: WindowedStats, ref: WindowedStats,
               max_shift_m: float = 0.0):
    """Shift est by an integer number of windows to best match ref.

    Scores every shift k with |k * window_m| <= max_shift_m in one array
    pass and keeps the one maximizing the Pearson r of the matched pairs.
    Shifts are taken in (|k|, k) order, and a later one wins only by more
    than 1e-9, so ties go to the smallest |shift|, then to the negative
    one. Returns (est_shifted, ref, applied_shift_m). k = 0 is always a
    candidate, so co-registration never worsens an already valid alignment.
    If no shift leaves MIN_COMMON_WINDOWS usable pairs, NoOverlapError says
    how many the best-covered shift leaves; if every shift that does is
    flat on one side (FLAT_REL_TOL), UndefinedCorrelationError.
    """
    if not 0 <= max_shift_m < np.inf:
        raise ValueError(f"max_shift_m of {max_shift_m} m must be finite "
                         f"and >= 0")
    k_max = int(np.floor(max_shift_m / est.window_m + 1e-9))
    offset = _offset(est, ref)
    # shift k pairs window i of est with window i + offset + k of ref; only
    # the shifts below leave any overlap, the others pair nothing
    ks = np.arange(max(-k_max, 1 - len(est) - offset),
                   min(k_max, len(ref) - offset - 1) + 1)
    counts, flat, score = _shift_scores(est, ref, ks + offset)
    enough = counts >= MIN_COMMON_WINDOWS
    usable = enough & ~flat
    order = np.lexsort((ks, np.abs(ks)))
    order = order[usable[order]]
    best = None
    for k, r in zip(ks[order].tolist(), score[order].tolist()):
        # 1e-9 guard so float jitter cannot beat the smallest-|shift| rule
        if best is None or r > best[1] + 1e-9:
            best = (k, r)
    if best is None:
        if enough.any():
            raise UndefinedCorrelationError(_FLAT_MESSAGE)
        raise NoOverlapError(
            f"the tables share at most {counts.max(initial=0)} usable windows "
            f"of {est.window_m:g} m at any shift within +/-{max_shift_m:g} m; "
            f"compare needs {MIN_COMMON_WINDOWS}, and a shorter --window "
            f"gives more")
    shift_m = best[0] * est.window_m
    return replace(est, starts_m=est.starts_m + shift_m), ref, shift_m
