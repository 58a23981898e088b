"""End-to-end processing: record blocks in, track geometry out.

Stage order: merge -> decimate to the working rate -> double integration
(cutoff from the chord unless overridden) -> speed from front/back cross
correlation at SPEED_CUTOFF_HZ, held at its settle zone's edge samples (or
from an external time table) -> distance axis -> spatial resampling, the
settle zones and standstill masked -> chord alignment, rounded to the
published .trc resolution -> windowed maxima.
The front sensor's displacement is the geometry estimate; the back one
exists for the speed estimator. Only the records a job reads are merged
and decimated, so a fault in any other record does not touch the run; they
are merged and decimated one at a time, so only one raw record need be held.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from . import comparison
from .errors import (GapTooLargeError, InsufficientDataError,
                     MissingChannelError, MixedLocationError, NoOverlapError,
                     TooShortError, UndefinedCorrelationError)
from .fileio import TrcData
from .geometry import MODE_MAX_ABS, chord_alignment, select_cutoff, windowed_max
from .layout import (AXES, DEFAULT_WHEELBASE_M, SIDES, SPEED_COLUMN,
                     TRC_SPACING_M, channel_id, column_name, parse_channel_id,
                     published)
from .spatial import (DistanceAxis, SpatialSeries, build_distance_axis, moving,
                      resample_to_space)
from .speed import SpeedProfile, delay_bounds, estimate_delay, estimate_speed
from .timeseries import (TimeSeries, burg_extensions, decimate,
                         double_integrate, merge_records)

WORKING_RATE_HZ = 256.0
# The speed estimator integrates at the 10 m chord's cutoff, whatever the
# chords or the cutoff of the geometry jobs, so they do not move the speed.
SPEED_CUTOFF_HZ = select_cutoff(10.0)

# High-pass warm-up: displacement this close to a record end still carries
# the integrator's settle transient and must not be reported as geometry,
# nor read by the speed estimator.
SETTLE_PERIODS = 1.5

# why compare_trc skips a column it cannot compare
_SKIP_REASONS = {UndefinedCorrelationError: "windows have no variance",
                 NoOverlapError: "too few comparable windows",
                 InsufficientDataError: "too few comparable windows"}


@dataclass(frozen=True)
class ProcessOptions:
    """What a caller chooses. The working rate, grid spacing and grid
    origin are fixed: WORKING_RATE_HZ, TRC_SPACING_M and 0 m. The delay
    search covers speed.SPEED_BOUNDS at wheelbase_m."""

    chords_m: tuple = (10.0, 35.0)
    lateral_chords_m: tuple = (10.0,)
    cutoff_hz: float | None = None        # override select_cutoff
    window_m: float = 100.0
    wheelbase_m: float = DEFAULT_WHEELBASE_M


@dataclass
class ProcessResult:
    speed: SpeedProfile
    axis: DistanceAxis
    alignments: dict = field(default_factory=dict)   # column -> SpatialSeries (mm)
    maxima: dict = field(default_factory=dict)       # column -> WindowedStats
    params: dict = field(default_factory=dict)
    # record id -> seconds cut from its end to the shortest record read
    cut_s: dict = field(default_factory=dict)

    def to_trc(self) -> TrcData:
        if not self.alignments:
            raise MissingChannelError("nothing was processed")
        first = next(iter(self.alignments.values()))
        grid = first.positions()
        # the grid's speed is published too: it interpolates published speeds
        columns = {SPEED_COLUMN: published(np.interp(
            grid, self.axis.positions_m, self.speed.speeds_mps))}
        for name, series in self.alignments.items():
            columns[name] = series.values
        return TrcData(grid, columns, dict(self.params))


def _column_keys(chords_m, lateral_chords_m) -> list:
    """(chord_m, side, axis) of each geometry column, in table order."""
    return [(d, side, axis)
            for chords, axis in zip((chords_m, lateral_chords_m), AXES)
            for d in chords for side in SIDES]


def _prepare(channels: Mapping, cid: str) -> TimeSeries:
    """Look a record up, merge its blocks and decimate it to the working
    rate. The blocks are dropped once merged, so decimate runs beside one
    raw copy of the record."""
    ts = channels[cid]
    ts = merge_records(list(ts)) if isinstance(ts, (list, tuple)) else ts
    factor = ts.sample_rate_hz / WORKING_RATE_HZ
    if abs(factor - round(factor)) > 1e-9:
        raise ValueError(f"rate {ts.sample_rate_hz} Hz of {cid!r} is no "
                         f"integer multiple of {WORKING_RATE_HZ} Hz")
    return decimate(ts, int(round(factor)))


def _settled(n: int, cutoff_hz: float) -> np.ndarray:
    """Mask of the n samples, at the working rate, outside the integrator's
    settle zone: the first and last SETTLE_PERIODS/cutoff seconds have no
    filter context. The zone is capped at a quarter of the record so short
    runs keep an interior."""
    i = min(int(round(SETTLE_PERIODS / cutoff_hz * WORKING_RATE_HZ)), n // 4)
    ok = np.ones(n, dtype=bool)
    ok[:i] = ok[n - i:] = False
    return ok


def _speed_from_table(times_s, speeds_mps, n: int) -> SpeedProfile:
    """A (time_s, speed_mps) table, time 0 at the first record sample,
    interpolated onto the n samples at the working rate. Raises
    TooShortError unless the table spans all of them."""
    t = np.arange(n) / WORKING_RATE_HZ
    if not (times_s[0] <= t[0] and times_s[-1] >= t[-1]):
        raise TooShortError(f"speed table spans {times_s[0]:g} .. "
                            f"{times_s[-1]:g} s, the records span "
                            f"{t[0]:g} .. {t[-1]:g} s")
    return SpeedProfile(np.interp(t, times_s, speeds_mps), WORKING_RATE_HZ,
                        np.ones(n, dtype=bool))


@dataclass(frozen=True)
class RecordPlan:
    """The records a run reads, and what it does with them."""

    jobs: list       # (chord_m, side, axis, front record id) per geometry column
    pair: tuple      # (front, back) vertical ids for the speed estimator, or ()
    read: list       # sorted ids of every record a job or the pair reads


def plan_records(channel_ids, opts: ProcessOptions = ProcessOptions(),
                 speed_given: bool = False) -> RecordPlan:
    """Which of the channel ids a run reads, of one sensor location (else
    MixedLocationError). The jobs read the front vertical and lateral record
    of each rail and, unless speed_given, the front and back vertical
    record of the first side with both; MissingChannelError if there is no
    job or no such pair."""
    locations = sorted({parse_channel_id(cid)["location"] for cid in channel_ids})
    if len(locations) > 1:
        raise MixedLocationError(f"records from more than one sensor "
                                 f"location: {', '.join(locations)}")

    def present(position: str, side: str, axis: str) -> str | None:
        """The id of that record at the set's location, if handed in."""
        cid = channel_id(*locations, position, side, axis) if locations else None
        return cid if cid in channel_ids else None

    jobs = [(d, side, axis, cid)
            for d, side, axis in _column_keys(opts.chords_m, opts.lateral_chords_m)
            if (cid := present("front", side, axis))]
    if not jobs:
        raise MissingChannelError("no front vertical or lateral channel found")
    pairs = [(present("front", s, "vertical"), present("back", s, "vertical"))
             for s in SIDES]
    pair = () if speed_given else next(filter(all, pairs), None)
    if pair is None:
        raise MissingChannelError("speed estimation needs front and back "
                                  "vertical records on at least one side")
    return RecordPlan(jobs, pair, sorted({cid for *_, cid in jobs} | set(pair)))


def process_records(channels: Mapping, opts: ProcessOptions = ProcessOptions(),
                    speed_override: tuple | None = None) -> ProcessResult:
    """Run the full chain on merged or block-listed channel records.

    channels: a mapping of channel_id -> TimeSeries or list of block
    TimeSeries; the run reads the records plan_records names. It looks each
    of them up once, merges and decimates it, and drops the blocks when
    decimate returns, so with a mapping that reads a record when it is
    looked up (as cmd_process's does) one raw record is held at a time.
    speed_override is a (time_s, speed_mps) pair of arrays, as
    fileio.read_speed returns it, with time 0 at the first record sample;
    it replaces the estimated speed, and must span every record sample
    after decimation, or TooShortError is raised.
    The records read must start within half a sample of each other, or
    GapTooLargeError is raised. Every record is cut to the shortest one;
    the result's cut_s names each record cut, with the seconds it lost.
    """
    plan = plan_records(channels.keys(), opts, speed_override is not None)
    cutoffs = {d: select_cutoff(d) if opts.cutoff_hz is None else opts.cutoff_hz
               for d in (*opts.chords_m, *opts.lateral_chords_m)}
    prepared = {cid: _prepare(channels, cid) for cid in plan.read}
    starts = {cid: ts.start_time_s for cid, ts in prepared.items()}
    if max(starts.values()) - min(starts.values()) > 0.5 / WORKING_RATE_HZ:
        raise GapTooLargeError("records start at different times: " + ", ".join(
            f"{cid} at {t:g} s" for cid, t in starts.items()))
    n = min(len(ts) for ts in prepared.values())
    records = {cid: replace(ts, samples=ts.samples[:n]) if len(ts) > n else ts
               for cid, ts in prepared.items()}

    # each record's Burg extensions serve every cutoff it is integrated at,
    # and all records' are predicted in one stack
    extensions = dict(zip(records, burg_extensions(list(records.values()))))
    # the speed estimator and the geometry jobs share each integration
    integrated: dict = {}

    def displacement(cid: str, cutoff: float) -> TimeSeries:
        if (cid, cutoff) not in integrated:
            integrated[(cid, cutoff)] = double_integrate(records[cid], cutoff,
                                                         extensions[cid])
        return integrated[(cid, cutoff)]

    if speed_override is not None:
        speed = _speed_from_table(*speed_override, n)
    else:
        front, back = (displacement(cid, SPEED_CUTOFF_HZ) for cid in plan.pair)
        delay = estimate_delay(front, back,
                               delay_bounds_s=delay_bounds(opts.wheelbase_m))
        estimated = estimate_speed(delay, opts.wheelbase_m)
        # held over the settle zone at its edge samples, as the geometry is masked
        settled = _settled(n, SPEED_CUTOFF_HZ)
        held = np.clip(np.arange(n), *np.flatnonzero(settled)[[0, -1]])
        speed = SpeedProfile(estimated.speeds_mps[held], WORKING_RATE_HZ,
                             estimated.valid & settled)

    axis = build_distance_axis(speed)

    params = {
        "channels": plan.read,
        "chords_m": list(opts.chords_m),
        "lateral_chords_m": list(opts.lateral_chords_m),
        "cutoff_hz": opts.cutoff_hz,
        "window_m": opts.window_m,
        "wheelbase_m": opts.wheelbase_m,
        "grid_spacing_m": TRC_SPACING_M,
        "working_rate_hz": WORKING_RATE_HZ,
        "speed_source": "external" if speed_override is not None else "estimated",
    }
    cut_s = {cid: (len(ts) - n) / WORKING_RATE_HZ
             for cid, ts in prepared.items() if len(ts) > n}
    result = ProcessResult(speed, axis, params=params, cut_s=cut_s)

    going = moving(speed)
    for d, side, axis_name, cid in plan.jobs:
        z_space = resample_to_space(displacement(cid, cutoffs[d]), axis,
                                    _settled(n, cutoffs[d]) & going)
        z_mm = replace(z_space, values=z_space.values * 1e3)
        aligned = chord_alignment(z_mm, d)
        # windows.csv and estimated.trc hold the published values
        aligned = replace(aligned, values=published(aligned.values))
        column = column_name(d, side, axis_name)
        result.alignments[column] = aligned
        result.maxima[column] = windowed_max(aligned, opts.window_m)
    return result


def chord_ground_truth(profile, sim) -> TrcData:
    """Reference geometry table straight from a synthetic profile, for the
    chords of the default ProcessOptions.

    Applies the same chord arithmetic to the known rail shapes, so the
    only differences from a processed run are the estimation steps.
    """
    columns = {}
    for d, side, axis in _column_keys(ProcessOptions.chords_m,
                                      ProcessOptions.lateral_chords_m):
        series = profile.spatial_series(side, axis)
        columns[column_name(d, side, axis)] = published(
            chord_alignment(series, d).values)
    grid = profile.spatial_series(SIDES[0]).positions()
    x_front = next(pos for cid, pos in sim.wheel_positions.items()
                   if parse_channel_id(cid)["position"] == "front")
    columns[SPEED_COLUMN] = published(np.interp(grid, x_front, sim.speeds_mps))
    return TrcData(grid, columns, {"source": "synthesizer"})


def compare_trc(est: TrcData, ref: TrcData,
                window_m: float = ProcessOptions.window_m,
                max_shift_m: float = 0.0, skipped: dict | None = None) -> dict:
    """Windowed comparison per common geometry column.

    Both tables are cropped to a shared start so the tumbling windows line
    up, then co-registered within +/- max_shift_m and correlated. Returns
    column -> (ComparisonReport, applied_shift_m). Columns that cannot be
    compared (no window variance, or too few usable windows after masking)
    are skipped rather than failing the run; pass a dict as `skipped` to
    collect column -> reason. Raises only if no column is comparable.
    """
    common = [c for c in est.geometry_columns() if c in ref.columns]
    if not common:
        raise MissingChannelError(
            "tables share no geometry column: estimated has "
            f"{', '.join(est.geometry_columns()) or 'none'}, reference has "
            f"{', '.join(ref.geometry_columns()) or 'none'}")
    out = {}
    first_error = None
    # the .trc reader refuses any step but TRC_SPACING_M
    start = max(est.distance_m[0], ref.distance_m[0])

    def crop(trc: TrcData, column: str) -> SpatialSeries:
        skip = int(round((start - trc.distance_m[0]) / TRC_SPACING_M))
        return SpatialSeries(trc.columns[column][skip:], float(start))

    for column in common:
        wa = windowed_max(crop(est, column), window_m)
        wb = windowed_max(crop(ref, column), window_m)
        try:
            wa, wb, shift = comparison.coregister(wa, wb, max_shift_m)
            report = comparison.correlate(wa, wb, metadata={
                "column": column, "window_m": window_m,
                "applied_shift_m": shift, "mode": MODE_MAX_ABS,
            })
        except tuple(_SKIP_REASONS) as exc:
            if skipped is not None:
                skipped[column] = _SKIP_REASONS[type(exc)]
            first_error = first_error or exc
            continue
        out[column] = (report, shift)
    if not out:
        raise first_error
    return out
