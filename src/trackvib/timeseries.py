"""Time-domain containers and the sampled-signal operations of the chain.

All heavy filtering is done by masking the DFT of the record. Each filter
pads the record its own way, then hands it to one helper, apply_mask, which
takes the record's real DFT, multiplies it by a real zero-phase mask and
transforms it back; the filter trims the padding off the result. The padded
record reaches apply_mask as two arrays, the record and a tail to follow
it, so that a filter whose padding is short next to the record need not
copy the record to pad it. Transition bands are raised cosines one octave
wide, geometrically centered on the cutoff, so the passband gain is exactly
1 and the stopband exactly 0.

Padding differs by operation. The decimation low-pass has gain <= 1, so a
2 s even-symmetric reflection is enough. Its padded length L is the factor
times a 5-smooth length (next_fast_len of ceil((n + 4 s)/factor)):
the reflection on the right goes on until the record reaches L, because a
record of arbitrary length padded by exactly 2 s can have a large prime
factor (522 241 = 367 x 1423) and an FFT ~15x slower. The padding stays a
reflection, not zeros: zeros would pull a constant record toward 0 at both
ends. The padded record is rotated so that its first sample sits at index
0 of the transform: the record itself, then a tail of the right extension
and the reversed left 2 s. The filter is circular, so the rotation moves
nothing but the samples' indices, and the record is never copied.

Decimation transforms and inverts only the band it keeps. Its mask is 0 at
and above the new Nyquist, so the full-length spectrum is zero outside the
first L/(2 factor) + 1 bins and their mirror images. Samples 0, factor,
2 factor, ... of the full-length inverse then equal 1/factor times the
inverse, at length L/factor, of those first bins alone: keeping every
factor-th sample folds the spectrum onto L/factor bins, and every bin that
would fold onto another is zero. Those first bins come from the factor
polyphase components x[p::factor], each a real FFT of length L/factor:
bin k is sum_p exp(-2 pi i k p / L) X_p[k] (decimation in time, pruned to
the kept band), summed by Horner's rule one component at a time. The
components are gathered from the record and the tail a group of rows at a
time, as many as hold, with their spectra, no more floats than half the
record (2 of 10 on a 400 s record at 2560 Hz), and each group is
transformed by one 2-D rfft. No spectrum of length L, and no padded
record, is ever held.

The double integration mask amplifies the transition band by up to
~0.15/cutoff_hz^2, which turns the slope discontinuity a reflection leaves
at the record edge into low-frequency wander across the whole record (~60%
amplitude error on a plain 5 Hz sine). Integration therefore extends the
record by linear prediction (Burg) so oscillations continue coherently,
fades the extensions with a smooth taper, and only then applies the mask.
Each extension is its recurrence y[i] = -sum_j a[j] y[i-1-j], one dot
product per predicted sample. Its Python steps are paid once for a whole
stack of extensions: burg_extensions fits each of a run's records at both
ends and steps all those rows together, one matmul per predicted sample,
each row's dot product the one it would be alone. On a noise-free record
the Burg stages past the rounding level would put poles on the unit
circle, and any two summation orders would part from the first predicted
sample on; the fit therefore stops once its prediction error power falls
to a floor (_burg_coefficients). A clamp at 4x the record's peak still
bounds what a diverging extension (nearly coincident poles) can do to the
integral.

The package computes its 5-smooth lengths itself (next_fast_len), so this
module imports no scipy, and no command loads any.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import GapTooLargeError

KIND_ACCELERATION = "acceleration"
KIND_DISPLACEMENT = "displacement"

# seconds of even-symmetric reflection prepended/appended before decimation
EDGE_PAD_S = 2.0

# predictive-extension parameters for the integration mask
INTEGRATION_PAD_S = 4.0
_AR_FIT_S = 8.0
_AR_ORDER = 32
# Burg stops at an even order once its prediction error power is at most
# this share of the segment's: the stages past it fit rounding, not signal
_BURG_ERROR_FLOOR = 1e-16


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar signal.

    Parameters
    ----------
    samples : np.ndarray
        Signal values, coerced to float64. Treated as immutable.
    sample_rate_hz : float
        Sampling rate, > 0.
    start_time_s : float
        Time of the first sample.
    channel_id : str
        Free-form channel label, e.g. ``"bogie-front-left-vertical"``.
    kind : str
        Either ``"acceleration"`` (m/s^2) or ``"displacement"`` (m).
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0
    channel_id: str = ""
    kind: str = KIND_ACCELERATION

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if not (self.sample_rate_hz > 0):
            raise ValueError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        if self.kind not in (KIND_ACCELERATION, KIND_DISPLACEMENT):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def end_time_s(self) -> float:
        """Start time of a hypothetical next block."""
        return self.start_time_s + self.samples.size / self.sample_rate_hz


def _raised_cosine_step(f: np.ndarray, f_lo: float, f_hi: float) -> np.ndarray:
    """Smooth 0 -> 1 step: 0 below f_lo, 1 above f_hi, raised cosine between."""
    out = np.zeros_like(f)
    out[f >= f_hi] = 1.0
    band = (f > f_lo) & (f < f_hi)
    out[band] = 0.5 * (1.0 - np.cos(np.pi * (f[band] - f_lo) / (f_hi - f_lo)))
    return out


def _highpass_mask(f: np.ndarray, cutoff_hz: float) -> np.ndarray:
    # one octave transition, geometrically centered: [c/sqrt2, c*sqrt2]
    return _raised_cosine_step(f, cutoff_hz / np.sqrt(2.0), cutoff_hz * np.sqrt(2.0))


@functools.cache
def _fast_lengths(bits: int) -> tuple[int, ...]:
    """Every 2^a 3^b 5^c <= 2^bits, ascending."""
    top = 1 << bits
    out = []
    p5 = 1
    while p5 <= top:
        p35 = p5
        while p35 <= top:
            out.extend(p35 << a for a in range((top // p35).bit_length()))
            p35 *= 3
        p5 *= 5
    return tuple(sorted(out))


def next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, for n >= 1: a length whose real FFT
    has no prime factor above 5, as scipy.fft.next_fast_len(n, real=True).
    It is looked up among the 5-smooth numbers up to the power of 2 >= n."""
    lengths = _fast_lengths((n - 1).bit_length())
    return lengths[bisect.bisect_left(lengths, n)]


def apply_mask(record: np.ndarray, sample_rate_hz: float, mask_of_f,
               step: int = 1, tail: np.ndarray | None = None) -> np.ndarray:
    """rfft, multiply by mask(f), irfft; every step-th sample of the result.

    The one spectral filter of the package; callers pad before and trim after.
    The padded signal is the record followed by the tail, of length L; it
    is never built. step must divide L, and mask_of_f must be 0 at and above
    sample_rate_hz / (2 step): only the bins below that frequency are
    computed, masked and inverted, at length L // step. They are built from
    the rffts of the step polyphase components, padded[p::step], each
    gathered from the record and the tail, combined by Horner's rule in
    w = exp(-2 pi i k / L) (see module docstring). The components are
    transformed a group at a time, one 2-D rfft per group: the group's rows
    and their spectra hold no more floats than half the record. With step 1
    the one component is the padded signal, transformed whole, and the
    inverse runs at length L.
    """
    tail = np.empty(0) if tail is None else tail
    n = record.size
    length = n + tail.size
    if step < 1 or length % step:
        raise ValueError(f"step {step} does not divide the padded length "
                         f"{length}")
    size = length // step
    if step == 1:           # the one component is the padded record itself
        bins = np.fft.rfft(np.concatenate((record, tail)) if tail.size
                           else record)
    else:
        w = np.exp(np.arange(size // 2 + 1) * (-2j * np.pi / length))
        group = max(1, n // (4 * size + 4))
        bins = None
        for top in range(step, 0, -group):
            rows = np.empty((min(group, top), size))
            for i, p in enumerate(range(top - len(rows), top)):
                head = max(0, -(-(n - p) // step))   # from the record
                rows[i, :head] = record[p::step]
                rows[i, head:] = tail[p + head * step - n::step]
            spectra = np.fft.rfft(rows)
            del rows            # neither outlives its group
            for i in range(len(spectra) - 1, -1, -1):
                if bins is None:
                    bins = spectra[i].copy()
                else:
                    bins *= w
                    bins += spectra[i]
            del spectra
    # the first bins.size values of np.fft.rfftfreq(length, 1 / sample_rate_hz)
    f = np.arange(bins.size) * (1.0 / (length * (1.0 / sample_rate_hz)))
    bins *= mask_of_f(f)
    out = np.fft.irfft(bins, n=size)
    out /= step
    return out


def decimate(ts: TimeSeries, factor: int) -> TimeSeries:
    """Reduce the sample rate by an integer factor with anti-alias filtering.

    A zero-phase low-pass (flat to 0.8x the new Nyquist, raised-cosine roll-off
    reaching 0 at the new Nyquist) is applied before keeping every
    ``factor``-th sample; floor(n/factor) samples survive.

    The record is reflected evenly, 2 s on the left and on the right up to
    the padded length L = factor x next_fast_len(ceil((n + 4 s) / factor)),
    so the FFT never runs at a length with a large prime factor. Reflection,
    unlike zero padding, keeps the filter's context continuous at the ends:
    a constant record comes out exact to its first and last sample. What
    lies beyond the 2 s reaches the kept samples only through the tail of
    the filter's impulse response, a few 1e-7 of the peak at most.

    Only the kept samples are computed, and the padded record is never
    copied. It is taken rotated left by the 2 s, so that the record's first
    sample is index 0 of the transform: the record itself, then a short
    tail of its right extension and its reversed left 2 s. apply_mask
    gathers the polyphase components from the two, and inverts the first
    L/(2 factor) + 1 bins at length L/factor. The mask is 0 from the new
    Nyquist up, so that short inverse, divided by the factor, is exactly
    every factor-th sample of the full-length one.
    """
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"decimation factor must be a positive integer, got {factor!r}")
    factor = int(factor)
    if factor == 1:
        return ts
    count = ts.samples.size // factor
    if count == 0:
        raise ValueError(f"record of {ts.samples.size} samples too short to decimate by {factor}")
    n = ts.samples.size
    nyq_new = ts.sample_rate_hz / (2.0 * factor)
    pad = min(int(round(EDGE_PAD_S * ts.sample_rate_hz)), n - 1)
    length = factor * next_fast_len(-(-(n + 2 * pad) // factor))
    # indices n, n + 1, ... into the even reflection, whose period is 2 (n - 1)
    k = np.arange(n, length - pad) % (2 * n - 2)
    right = ts.samples[np.minimum(k, 2 * n - 2 - k)]
    tail = np.concatenate((right, ts.samples[pad:0:-1]))
    filtered = apply_mask(
        ts.samples, ts.sample_rate_hz,
        lambda f: 1.0 - _raised_cosine_step(f, 0.8 * nyq_new, nyq_new), factor,
        tail)
    return replace(ts, samples=filtered[:count], sample_rate_hz=ts.sample_rate_hz / factor)


def _burg_coefficients(x: np.ndarray, order: int) -> np.ndarray:
    """Burg AR coefficients a such that x[i] ~= -sum_j a[j] x[i-1-j].

    Burg's recursion keeps every reflection coefficient in [-1, 1], so the
    resulting predictor is stable even on short or nearly constant segments.
    It stops, leaving the higher coefficients 0, at the first even order
    whose mean forward and backward prediction error power is at most
    _BURG_ERROR_FLOOR of the segment's power (order 0 on a constant
    segment). On a noise-free record the stages past that point fit
    rounding: their poles crowd the unit circle and the extension grows
    with the summation order. The order is even because a record of tones
    has its poles in conjugate pairs; an odd order leaves one real pole,
    which on a noise-free record extends as a drift that the integration
    amplifies. Sensor noise holds a measured record far above the floor.
    """
    f = x.astype(np.float64).copy()
    b = f.copy()
    a = np.zeros(order)
    floor = _BURG_ERROR_FLOOR * np.dot(f, f) / f.size
    for m in range(order):
        ff = f[1:]
        bb = b[:-1]
        den = np.dot(ff, ff) + np.dot(bb, bb)
        if m % 2 == 0 and den <= 2 * ff.size * floor:
            break
        k = -2.0 * np.dot(ff, bb) / den if den > 0.0 else 0.0
        prev = a[:m].copy()
        a[m] = k
        if m:
            a[:m] = prev + k * prev[::-1]
        f, b = ff + k * bb, bb + k * ff
    return a


def _predict_forward(rows: np.ndarray, count: int, order: int,
                     fit: int) -> np.ndarray:
    """Continue each row of a 2-D stack past its last sample by `count`
    linear predictions.

    Each row gets its own Burg fit, on its last `fit` samples less their
    mean mu, and its own recurrence y[i] = -sum_j a[j] y[i-1-j], started
    from its last `order` samples less mu; mu is added back. All rows step
    together. The predictions are written right to left after each row's
    history, newest first, so the `order` values a step reads are the
    contiguous slice to its right, and one matmul per step takes every
    row's dot product with its own coefficients: a dot product per row, the
    one that row would get alone.
    """
    neg = np.empty((len(rows), order, 1))      # -a of each row
    y = np.empty((len(rows), count + order))
    mus = np.empty((len(rows), 1))
    for r, row in enumerate(rows):
        seg = row[-min(fit, row.size):]
        mus[r] = mu = seg.mean()
        neg[r, :, 0] = -_burg_coefficients(seg - mu, order)
        y[r, count:] = (row[-order:] - mu)[::-1]
    for i in range(count - 1, -1, -1):
        np.matmul(y[:, None, i + 1:i + 1 + order], neg, out=y[:, i:i + 1, None])
    return y[:, count - 1::-1] + mus


def burg_extensions(records: list[TimeSeries]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (backward, forward) extensions that double_integrate fades in,
    for each record: INTEGRATION_PAD_S of Burg prediction past either end
    of the record less its mean, the backward one in time order, not yet
    clamped.

    The records must share their length and sample rate. All of them are
    predicted in one stack of two rows per record, so the Python steps of
    the recurrence are paid once; a row holds only the end samples that
    its fit (_AR_FIT_S) and its history read, the first ones reversed.
    """
    if not records:
        return []
    n, fs = len(records[0]), records[0].sample_rate_hz
    if any(len(ts) != n or ts.sample_rate_hz != fs for ts in records):
        raise ValueError("burg_extensions needs records of one length and "
                         "sample rate")
    pad = max(int(round(INTEGRATION_PAD_S * fs)), 1)
    order = max(1, min(_AR_ORDER, n - 1))
    fit = int(round(_AR_FIT_S * fs))
    width = min(n, max(fit, order))
    rows = np.empty((2 * len(records), width))
    for r, ts in enumerate(records):
        mean = ts.samples.mean()
        rows[2 * r] = ts.samples[-width:] - mean
        rows[2 * r + 1] = ts.samples[width - 1::-1] - mean
    ext = _predict_forward(rows, pad, order, fit)
    return [(ext[2 * r + 1, ::-1], ext[2 * r]) for r in range(len(records))]


def _smooth_ramp(count: int) -> np.ndarray:
    """C-infinity 0 -> 1 fade (Planck taper); spectrally quieter than a cosine."""
    u = np.arange(count) / count
    inner = (u > 0.0) & (u < 1.0)
    z = np.zeros(count)
    z[inner] = 1.0 / u[inner] - 1.0 / (1.0 - u[inner])
    out = np.zeros(count)
    out[inner] = 1.0 / (1.0 + np.exp(np.clip(z[inner], -700.0, 700.0)))
    return out


def double_integrate(ts: TimeSeries, cutoff_hz: float,
                     extension: tuple | None = None) -> TimeSeries:
    """Acceleration -> displacement via division of the DFT by (j 2 pi f)^2.

    A one-octave raised-cosine high-pass is applied inside the same DFT,
    and the DC bin is zeroed, so the unbounded 1/f^2 amplification
    never touches the sub-cutoff band. sin(2 pi f0 t) maps to
    -sin(2 pi f0 t)/(2 pi f0)^2 for f0 comfortably above the cutoff.

    The record is extended on both sides by Burg linear prediction and the
    extensions faded to zero before the DFT (see module docstring); output
    samples within a few seconds of either end still carry elevated error,
    since no method can know the motion outside the record. extension is
    ts's (backward, forward) pair from burg_extensions, for a caller that
    predicts many records' at once; without it they are predicted here.
    """
    if ts.kind != KIND_ACCELERATION:
        raise ValueError(f"double_integrate expects acceleration input, got kind={ts.kind!r}")
    nyquist = ts.sample_rate_hz / 2.0
    if not (0.0 < cutoff_hz < nyquist):
        raise ValueError(f"cutoff {cutoff_hz} Hz outside (0, {nyquist}) Hz")

    fs = ts.sample_rate_hz
    x = ts.samples - ts.samples.mean()    # DC is masked out regardless
    n = x.size
    bwd, fwd = burg_extensions([ts])[0] if extension is None else extension
    pad = fwd.size
    padded = np.concatenate([bwd, x, fwd])
    # a diverging predictor would dominate the masked spectrum; clamp it
    # (the record itself lies within the clamp)
    lim = 4.0 * max(float(np.max(np.abs(x))), np.finfo(float).tiny)
    np.clip(padded, -lim, lim, out=padded)
    ramp = _smooth_ramp(pad)
    padded[:pad] *= ramp
    padded[-pad:] *= ramp[::-1]

    def mask(f):
        m = _highpass_mask(f, cutoff_hz)
        with np.errstate(divide="ignore", invalid="ignore"):
            # division by (j 2 pi f)^2 = -(2 pi f)^2
            return np.where(f > 0.0, -m / (2.0 * np.pi * f) ** 2, 0.0)

    out = apply_mask(padded, fs, mask)[pad:pad + n]
    return replace(ts, samples=out, kind=KIND_DISPLACEMENT)


def merge_records(parts: list[TimeSeries]) -> TimeSeries:
    """Concatenate contiguous record blocks into one series.

    Blocks must share rate, channel and kind and be ordered by start time.
    Gaps of one or two samples are bridged by linear interpolation between the
    neighboring samples; larger gaps raise GapTooLargeError naming the
    boundary. Overlapping blocks are rejected.
    """
    if not parts:
        raise ValueError("merge_records needs at least one block")
    first = parts[0]
    for p in parts[1:]:
        for name in ("sample_rate_hz", "channel_id", "kind"):
            if getattr(p, name) != getattr(first, name):
                raise ValueError(f"blocks disagree on {name}")
    fs = first.sample_rate_hz

    pieces = [parts[0].samples]
    for prev, nxt in zip(parts, parts[1:]):
        gap = int(round((nxt.start_time_s - prev.end_time_s) * fs))
        if gap < 0:
            raise ValueError(
                f"blocks overlap at t={nxt.start_time_s:.6f} s on {first.channel_id!r}")
        if gap > 2:
            raise GapTooLargeError(
                f"{gap}-sample gap (max 2) at t={prev.end_time_s:.6f} s "
                f"on channel {first.channel_id!r}")
        if gap:
            a, b = pieces[-1][-1], nxt.samples[0]
            frac = np.arange(1, gap + 1) / (gap + 1)
            pieces.append(a + frac * (b - a))
        pieces.append(nxt.samples)
    return replace(first, samples=np.concatenate(pieces))
