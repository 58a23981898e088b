"""Speed over ground from two displacement signals a wheelbase apart.

The rear sensor sees the same track as the front one, delayed by
wheelbase / speed. estimate_delay finds the delay of each evaluation window
as the argmax of the windowed cross correlation between the two
displacement records, refined to sub-sample resolution with a parabolic
fit; estimate_speed interpolates the windows' delays onto the samples once.

The windows are correlated in batches: one real FFT of each window's back
segment and front window, zero-padded to a 5-smooth length that no product
wraps around, one inverse of their cross spectra, and the argmax, quality,
edge test and parabola for the whole batch at once. A batch holds as many
windows as keep its float64 working set near _BATCH_FLOATS, so memory does
not grow with the record beyond the window rows. The 5-smooth length is
timeseries.next_fast_len, so that no command loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NoValidSpeedError
from .layout import DEFAULT_WHEELBASE_M, published
from .timeseries import TimeSeries, next_fast_len

DEFAULT_WINDOW_SAMPLES = 960          # 3.75 s at 256 Hz
QUALITY_THRESHOLD = 0.3               # normalized correlation peak
SPEED_BOUNDS = (1.0, 40.0)            # m/s kept as valid speed
# float64 working set of one batch of delay windows (1 MB): 16 windows at
# the default window and lag range, which fit a core's L2 cache
_BATCH_FLOATS = 1 << 17


def delay_bounds(wheelbase_m: float) -> tuple[float, float]:
    """The delays of a wheelbase at the fastest and the slowest speed of
    SPEED_BOUNDS: (0.0625, 2.5) s at 2.5 m."""
    return wheelbase_m / SPEED_BOUNDS[1], wheelbase_m / SPEED_BOUNDS[0]


DEFAULT_DELAY_BOUNDS_S = delay_bounds(DEFAULT_WHEELBASE_M)


@dataclass(frozen=True)
class DelayEstimate:
    """Delay between the front and back sensor per evaluation window: its
    center (a sample index), delay (NaN where the window had no usable
    correlation peak, valid=False) and normalized correlation peak, and
    the length of the record the windows were taken from."""

    centers: np.ndarray
    delays_s: np.ndarray
    peak_quality: np.ndarray
    valid: np.ndarray
    n_samples: int
    sample_rate_hz: float


@dataclass(frozen=True)
class SpeedProfile:
    """Per-sample speed over ground; valid=False marks interpolated samples."""

    speeds_mps: np.ndarray
    sample_rate_hz: float
    valid: np.ndarray


def estimate_delay(front: TimeSeries, back: TimeSeries,
                   window_samples: int = DEFAULT_WINDOW_SAMPLES,
                   delay_bounds_s: tuple[float, float] = DEFAULT_DELAY_BOUNDS_S,
                   stride: int | None = None) -> DelayEstimate:
    """Windowed cross-correlation delay of back relative to front.

    Windows of ``window_samples`` are evaluated every ``stride`` samples
    (default window/4), each row of the result one window. A window is
    invalid when its normalized correlation peak is below QUALITY_THRESHOLD
    or sits on the edge of the searched lag range (the true delay then lies
    outside ``delay_bounds_s``, which must satisfy 0 < min < max: back
    trails front).

    Each window's correlation over the searched lags is
    irfft(rfft(back segment) conj(rfft(front window))) at
    next_fast_len(window + lag range), for a batch of windows at a time
    (see module docstring); the batch is bounded by _BATCH_FLOATS, not by
    the record.
    """
    if front.sample_rate_hz != back.sample_rate_hz:
        raise ValueError("front and back must share the sample rate")
    if len(front) != len(back):
        raise ValueError("front and back must have equal length")
    n = len(front)
    fs = front.sample_rate_hz
    if not 2 <= window_samples <= n:
        raise ValueError(f"window_samples {window_samples} not in [2, {n}]")
    t_min, t_max = delay_bounds_s
    if not 0 < t_min < t_max:
        raise ValueError(f"delay bounds {t_min:g} .. {t_max:g} s: need 0 < min < max")
    lag_lo, lag_hi = int(np.ceil(t_min * fs)), int(np.floor(t_max * fs))
    if lag_lo > lag_hi:
        raise ValueError("delay bounds contain no integer sample lag")

    half = window_samples // 2
    if stride is None:
        stride = max(1, window_samples // 4)
    n_lo = half
    # inclusive: the last center whose back window at lag_hi fits the record
    n_hi = n - (window_samples - half) - lag_hi
    if n_hi < n_lo:
        need = window_samples + lag_hi
        raise ValueError(f"records of {n} samples too short for window + lag "
                         f"range (need at least {need})")
    centers = np.arange(n_lo, n_hi + 1, stride)

    span = lag_hi - lag_lo + 1                  # lags searched
    nfft = next_fast_len(window_samples + span - 1)
    # a window holds its back segment, its front window, two spectra of
    # nfft + 2 floats and its correlation: about 5 nfft floats
    batch = max(1, _BATCH_FLOATS // (5 * nfft))
    fronts = sliding_window_view(front.samples, window_samples)
    backs = sliding_window_view(back.samples, window_samples + span - 1)
    c_delay = np.zeros(centers.size)
    c_quality = np.zeros(centers.size)
    c_valid = np.zeros(centers.size, dtype=bool)
    for lo in range(0, centers.size, batch):
        start = centers[lo:lo + batch] - half
        fw = fronts[start]
        bs = backs[start + lag_lo]
        # corr[:, j] = sum_i bs[:, i + j] fw[:, i]: no product wraps, as
        # nfft >= bs's length
        corr = np.fft.irfft(np.fft.rfft(bs, nfft) * np.fft.rfft(fw, nfft).conj(),
                            nfft)[:, :span]
        rows = np.arange(start.size)
        j = np.argmax(corr, axis=1)
        c0 = corr[rows, j]
        bw = sliding_window_view(bs, window_samples, axis=1)[rows, j]
        denom = (np.sqrt(np.einsum("ij,ij->i", fw, fw))
                 * np.sqrt(np.einsum("ij,ij->i", bw, bw)))
        quality = np.divide(c0, denom, out=np.zeros(rows.size), where=denom > 0)
        np.clip(quality, 0.0, 1.0, out=quality)
        ok = (j > 0) & (j < span - 1) & (quality >= QUALITY_THRESHOLD)
        cm = corr[rows, np.maximum(j - 1, 0)]
        cp = corr[rows, np.minimum(j + 1, span - 1)]
        curv = cm - 2.0 * c0 + cp
        offset = np.divide(0.5 * (cm - cp), curv, out=np.zeros(rows.size),
                           where=curv != 0.0)
        c_delay[lo:lo + batch] = np.clip((lag_lo + j + offset) / fs, t_min, t_max)
        c_quality[lo:lo + batch] = quality
        c_valid[lo:lo + batch] = ok

    c_delay[~c_valid] = np.nan
    return DelayEstimate(centers, c_delay, c_quality, c_valid, n, fs)


def estimate_speed(delays: DelayEstimate, wheelbase_m: float) -> SpeedProfile:
    """Speed = wheelbase / delay at every sample of the delays' record.

    The valid windows whose speed lies within SPEED_BOUNDS are kept, and
    each sample's delay is interpolated between the kept windows around it
    (held past the first and last): a gap is bridged by the delays on
    either side. A sample is valid when the windows on both sides of it
    are kept. The speed is rounded to the published resolution of a .trc
    (layout.published), as speed.csv holds it. Raises NoValidSpeedError
    when no window is kept.
    """
    if not wheelbase_m > 0:
        raise ValueError(f"wheelbase_m must be > 0, got {wheelbase_m}")
    s_min, s_max = SPEED_BOUNDS
    kept = delays.valid.copy()
    v = wheelbase_m / delays.delays_s[kept]
    kept[kept] = (v >= s_min) & (v <= s_max)
    if not kept.any():
        raise NoValidSpeedError("no delay window yielded a speed within bounds")
    samples = np.arange(delays.n_samples)
    speeds = wheelbase_m / np.interp(samples, delays.centers[kept],
                                     delays.delays_s[kept])
    # sample i lies between the centers right - 1 and right
    right = np.searchsorted(delays.centers, samples)
    valid = kept[np.maximum(right - 1, 0)] & kept[np.minimum(right, kept.size - 1)]
    return SpeedProfile(published(speeds), delays.sample_rate_hz, valid)
