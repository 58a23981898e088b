"""File formats: record blocks, CSV tables, JSON configs, GeoJSON.

Record block: one UTF-8 JSON header line (sorted keys, ends with newline)
followed by the raw little-endian float64 payload. Byte-identical for
identical inputs. A header field of the wrong shape, or samples that make
no TimeSeries, raise FormatError naming the path and the field.

Table: every CSV the package writes or reads (.trc geometry, windows.csv,
speed.csv, compare_*.csv) has one layout, written by write_table and read
by read_table. First come '# key: <json>' comment lines in a given order,
then one header row of column names, then one row per sample. Every float
cell is byte-identical to repr of its value, so a write/read cycle is
bit-exact and invalid samples read 'nan'. Flags are written as 0/1. Rows
are formatted in blocks of _BLOCK_ROWS, each by one numpy pass into a
byte matrix, so a write holds one block of text. A float column whose
values in a block are all NaN or decimals of at most 8 places below 10**7
is fixed-point: the published columns, the 256 Hz clock, the 0.25 m grid
and the window bounds. Its cells get repr's text from the integer digits
of the value times 10**8 (see _fixed_point); any other float block goes
through repr. A read takes the comments and the header row in Python and
has np.loadtxt parse the rows straight from the file. The columns of a
.trc table, and how they are named, are set in layout.

Published resolution: the geometry and speed columns of a .trc, the
estimated speed of speed.csv and the residuals of a compare report are
rounded to TRC_DECIMALS decimals (1e-6 mm, 1e-6 m/s) by layout.published,
where they are made, not by a writer, so any TrcData still writes and
reads back bit for bit. Digits below 1e-6 mm are float64 rounding noise;
without them a cell holds at most 9 significant digits below 1 m, about
half the text, np.loadtxt parses it about 3x faster, and the writer takes
the fixed-point path. speed.csv
holds the very speed a run's distance axis was built from, so read back
with --speed-file it rebuilds that axis, and so the geometry, exactly. An
external speed table is not rounded; its cells are written through repr.

Simulate config and survey polyline: JSON checked against the shapes below;
a misfit raises FormatError naming the path, and in a config the field.
"""

from __future__ import annotations

import json
import math
import mmap
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .geometry import WindowedStats
from .layout import (AXES, COLUMN_PREFIXES, GEOMETRY_COLUMN, SENSOR_SPECS,
                     SPEED_COLUMN, TRC_SPACING_M, column_name)
from .timeseries import KIND_ACCELERATION, KIND_DISPLACEMENT, TimeSeries

_UNITS = {KIND_ACCELERATION: "m/s^2", KIND_DISPLACEMENT: "m"}
EARTH_RADIUS_M = 6371000.0


# ---------------------------------------------------------------- JSON shapes

# Shape tests of JSON values: each returns whether its value has the shape.

def _number(v) -> bool:
    return type(v) is int or isinstance(v, float) and math.isfinite(v)


def _pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_number, v))


def _array(fits, least: int = 0):
    return lambda v: isinstance(v, list) and len(v) >= least and all(map(fits, v))


def _object(fields: dict, optional: tuple = ()):
    """An object with the keys of fields (key -> test), bar optional ones."""
    return lambda v: (isinstance(v, dict)
                      and fields.keys() - set(optional) <= v.keys() <= fields.keys()
                      and all(fields[k](x) for k, x in v.items()))


# ---------------------------------------------------------------- records

def write_record(path, ts: TimeSeries, sensor: dict | None = None,
                 params: dict | None = None) -> None:
    header = {
        "channel_id": ts.channel_id,
        "kind": ts.kind,
        "n_samples": int(len(ts)),
        "sample_rate_hz": ts.sample_rate_hz,
        "start_time_s": ts.start_time_s,
        "units": _UNITS[ts.kind],
    }
    if sensor:
        header["sensor"] = sensor
    if params:
        header["params"] = params
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(ts.samples, dtype="<f8").tobytes())


# the header fields read_record reads: field -> (shape test, the shape in words)
_RECORD_HEADER = {
    "channel_id": (lambda v: isinstance(v, str), "a string"),
    "kind": (lambda v: isinstance(v, str) and v in _UNITS,
             f"one of {', '.join(_UNITS)}"),
    "n_samples": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "sample_rate_hz": (lambda v: _number(v) and v > 0, "a number > 0"),
    "start_time_s": (_number, "a finite number"),
    "units": (lambda v: isinstance(v, str), "a string"),
}


def _record_header(line: bytes, path) -> dict:
    """The header of a record block from its first line, checked."""
    if not line.endswith(b"\n"):
        raise FormatError(f"{path}: no header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header must be a JSON object")
    for key, (fits, shape) in _RECORD_HEADER.items():
        if key not in header:
            raise FormatError(f"{path}: header missing {key!r}")
        if not fits(header[key]):
            raise FormatError(f"{path}: header {key!r} must be {shape}, "
                              f"got {header[key]!r}")
    if header["units"] != _UNITS[header["kind"]]:
        raise FormatError(f"{path}: units {header['units']!r} do not match "
                          f"kind {header['kind']!r}")
    return header


def read_record_header(path) -> dict:
    """The checked header of a record block; its samples stay unread."""
    with open(path, "rb") as fh:
        return _record_header(fh.readline(), path)


def read_record(path) -> tuple[TimeSeries, dict]:
    """A record block and its checked header. The block's samples are a
    read-only view of the payload bytes, not a copy of them."""
    with open(path, "rb") as fh:
        header = _record_header(fh.readline(), path)
        payload = fh.read()
    if len(payload) != 8 * header["n_samples"]:
        raise FormatError(f"{path}: header claims {header['n_samples']} samples "
                          f"but payload holds {len(payload) // 8}")
    try:
        ts = TimeSeries(np.frombuffer(payload, dtype="<f8"),
                        header["sample_rate_hz"], header["start_time_s"],
                        header["channel_id"], header["kind"])
    except ValueError as exc:     # no samples, or a sample not finite
        raise FormatError(f"{path}: {exc}") from exc
    return ts, header


# ---------------------------------------------------------------- tables

# rows formatted and written at a time: the text of one block is all a
# table write holds, whatever the length of the table
_BLOCK_ROWS = 4096
_BLANK_LINE = re.compile(rb"\n\r?\n")     # a line end, then an empty line

# Fixed-point cells. A float v nearest k / 10**8, k an integer, with
# |v| < 10**7 is a decimal of at most 15 significant digits, so it is its
# own shortest round trip: repr writes those digits, positionally unless
# 0 < |v| < 1e-4. Its cell is built from the 7 integer and 8 fraction
# digits of k, looked up a few at a time in digit tables that hold leading
# and trailing zeros as NUL bytes, which the write drops. The field:
#   bytes 0-3: sign, integer digits 1-3    4-7: integer digits 4-7
#   bytes 8-11: ".", fraction digits 1-3   12-19: fraction digits 4-8,
#                                                 NUL, NUL, ","
# Each of the two middle words has a table with its zeros stripped, for
# when the digits beyond it are all zero, then one with all its digits;
# the first word has one table per sign.
_SCALE = 1e8
# the largest fixed-point |v|. fmin puts NaN, inf and any larger |v| here,
# and then rint(|v| * 10**8) / 10**8 == _FIXED_MAX < |v| fails the test
_FIXED_MAX = (10 ** 15 - 1) / 10 ** 8
_FIELD = 20                 # bytes of a fixed-point cell
_JSON = json.JSONEncoder(sort_keys=True).encode     # of a comment value


def _digits(width: int, strip: str = "", zero: bool = True) -> np.ndarray:
    """(10**width, width) bytes: the digits of 0 .. 10**width - 1, zero
    padded, with their leading (strip="lead") or trailing (strip="trail")
    zeros NUL; 0 keeps one "0" if zero."""
    digits = (np.indices((10,) * width, np.uint8).reshape(width, -1).T
              + np.uint8(ord("0")))
    nonzero = digits != ord("0")
    if strip == "lead":
        keep = np.logical_or.accumulate(nonzero, axis=1)
        keep[0, -1] = zero
    elif strip == "trail":
        keep = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
        keep[0, 0] = zero
    else:
        return digits
    return digits * keep


def _table(*parts, dtype=np.uint32) -> np.ndarray:
    """Words of the rows of digit tables side by side, a str part being a
    byte repeated on every row."""
    n = max(len(p) for p in parts if isinstance(p, np.ndarray))
    rows = np.hstack([np.full((n, 1), ord(p), np.uint8) if isinstance(p, str)
                      else p for p in parts])
    return np.ascontiguousarray(rows).view(dtype).ravel()


_INT_HI = np.concatenate([_table("\0", _digits(3, "lead", False)),
                          _table("-", _digits(3, "lead", False))])
_INT_LO = np.concatenate([_table(_digits(4, "lead")), _table(_digits(4))])
_FRAC_HI = np.concatenate([_table(".", _digits(3, "trail")),
                           _table(".", _digits(3))])
_FRAC_LO = _table(_digits(5, "trail", False), "\0", "\0", ",", dtype=np.uint64)
_NAN = np.frombuffer(b"nan".ljust(_FIELD - 1, b"\0") + b",", np.uint32)
_FLAGS = np.frombuffer(b"0,1,", np.uint8).reshape(2, 2)     # a bool cell


def _fixed_point(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-point fields of the columns of x (m, n), as (m, n,
    _FIELD) bytes, and which columns are fixed-point: every value NaN or
    rint(|v| * 10**8) / 10**8 == |v| <= _FIXED_MAX. The fields of the other
    columns mean nothing."""
    nan = np.isnan(x)
    ax = np.abs(x)
    k = np.rint(np.fmin(ax, _FIXED_MAX) * _SCALE)    # whole, < 10**15
    q = k / _SCALE
    fixed = ((q == ax) | nan).all(axis=1)
    # the integer part is exact: any fraction is >= 1e-8, and the rounding
    # of q is below 1e-9
    w = q.astype(np.int32)
    w_hi, w_lo = np.divmod(w, 10_000)
    f_hi, f_lo = np.divmod((k - w * _SCALE).astype(np.int32), 100_000)
    out = np.empty(x.shape + (5,), np.uint32)
    out[..., 0] = _INT_HI[w_hi + 1000 * np.signbit(x)]
    out[..., 1] = _INT_LO[w_lo + 10_000 * (w_hi > 0)]
    out[..., 2] = _FRAC_HI[f_hi + 1000 * (f_lo > 0)]
    out[..., 3:] = _FRAC_LO[f_lo].view(np.uint32).reshape(x.shape + (2,))
    out[nan] = _NAN
    # repr writes 0 < |v| < 1e-4 in exponent form
    small = (k < 10_000) & (k > 0)
    if small.any():
        for i, j in zip(*np.nonzero(small & fixed[:, None])):
            text = repr(float(x[i, j])).encode().ljust(_FIELD - 1, b"\0") + b","
            out[i, j] = np.frombuffer(text, np.uint32)
    return out.view(np.uint8).reshape(x.shape + (_FIELD,)), fixed


def _padded(cells: np.ndarray) -> np.ndarray:
    """The bytes cells (n,) as (n, itemsize + 1) bytes, the last one ","."""
    width = cells.dtype.itemsize
    out = np.full((cells.size, width + 1), ord(","), np.uint8)
    out[:, :width] = cells.view(np.uint8).reshape(cells.size, width)
    return out


def _column(values) -> np.ndarray:
    """values as the array its cells are written from: bool, text or float."""
    a = np.asarray(values)
    if a.dtype == bool or a.dtype.kind == "U":
        return a
    return a.astype(float, copy=False)


def _block(arrays: list, lo: int, hi: int) -> bytes:
    """The text of rows lo .. hi of columns converted by _column.

    Each column gives a byte matrix, per row one cell of text, NUL-padded
    and ended by ","; the matrices side by side, the last "," of each row
    made a line end and the NULs dropped, are the text. A bool cell is 0
    or 1, a text cell its UTF-8, and a float cell its fixed-point field,
    or its repr in a column whose block holds a value not fixed-point."""
    parts = [a[lo:hi] for a in arrays]
    floats = [j for j, a in enumerate(parts) if a.dtype.kind == "f"]
    if floats:
        fields, fixed = _fixed_point(np.array([parts[j] for j in floats]))
        for j, cells, ok in zip(floats, fields, fixed.tolist()):
            if ok:
                parts[j] = cells
    for j, a in enumerate(parts):
        kind = a.dtype.kind
        if kind == "b":
            parts[j] = _FLAGS[a.view(np.uint8)]
        elif kind == "U":
            parts[j] = _padded(np.char.encode(a, "utf-8"))
        elif kind == "f":
            parts[j] = _padded(np.array(list(map(repr, a.tolist())), dtype=bytes))
    rows = np.concatenate(parts, axis=1)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def write_table(path, columns: dict, comments: dict | None = None) -> None:
    """Write a table: comments (key -> JSON value, in the given order),
    then the header row, then the rows of columns (name -> 1-D values of
    equal length; bool columns become 0/1, text columns stay as they are,
    all others are written as the repr of their floats).

    Columns of unequal length raise ValueError before the file is opened.
    Rows are formatted and written _BLOCK_ROWS at a time (_block).
    """
    arrays = [_column(values) for values in columns.values()]
    lengths = [len(a) for a in arrays]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path}: columns differ in length: " + ", ".join(
            f"{name} {n}" for name, n in zip(columns, lengths)))
    head = [f"# {key}: {_JSON(value)}\n" for key, value in (comments or {}).items()]
    with open(path, "wb") as fh:
        fh.write(("".join(head) + ",".join(columns) + "\n").encode("utf-8"))
        for lo in range(0, max(lengths, default=0), _BLOCK_ROWS):
            fh.write(_block(arrays, lo, lo + _BLOCK_ROWS))


def read_table(path, leading: tuple, dtype=float) -> tuple[dict, dict, int]:
    """Comments, columns (name -> 1-D array of dtype) and the file line of
    the first data row of a table whose header row starts with ``leading``.

    Comment values that are not JSON are kept as text. Only the comments
    and the header row are read here; np.loadtxt parses the rows from the
    file, after a scan of its bytes for a blank line between rows.
    """
    comments: dict = {}
    with open(path, "rb") as fh:
        for i, raw in enumerate(fh):
            line = raw.decode("utf-8").rstrip("\r\n")
            if line.startswith("#"):
                key, sep, value = line[1:].partition(":")
                if sep:
                    try:
                        comments[key.strip()] = json.loads(value)
                    except json.JSONDecodeError:
                        comments[key.strip()] = value.strip()
            elif line.strip():
                break
        else:
            raise FormatError(f"{path}: no header row")
        names = [n.strip() for n in line.split(",")]
        if names[:len(leading)] != list(leading):
            raise FormatError(f"{path}:{i + 1}: header must start with "
                              f"{','.join(leading)}, got {line!r}")
        body = fh.tell()
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as text:
            end = len(text)     # the rows end at the last byte not white space
            while end > body and text[end - 1:end].isspace():
                end -= 1
            if end == body:
                raise FormatError(f"{path}: no data rows")
            # the scan starts at the header's line end, so that a blank
            # first row is found too
            blank = _BLANK_LINE.search(text, body - 1, end)
            if blank:
                line_no = i + 2 + text[body:blank.start() + 1].count(b"\n")
                raise FormatError(f"{path}:{line_no}: blank line between "
                                  f"data rows")
            # lines of spaces after the last row are not rows
            max_rows = (text[body:end].count(b"\n") + 1
                        if b"\n" in text[end:].rstrip(b"\r\n") else None)
    try:
        rows = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                          skiprows=i + 1, max_rows=max_rows,
                          encoding="utf-8", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if rows.shape[1] != len(names):
        raise FormatError(f"{path}: header names {len(names)} columns, rows "
                          f"hold {rows.shape[1]}")
    return comments, dict(zip(names, rows.T)), i + 2


# ---------------------------------------------------------------- trc

@dataclass
class TrcData:
    """Columnar track-geometry table on the fixed 0.25 m grid."""

    distance_m: np.ndarray
    columns: dict = field(default_factory=dict)   # name -> np.ndarray
    metadata: dict = field(default_factory=dict)

    def geometry_columns(self) -> list[str]:
        return [c for c in self.columns if GEOMETRY_COLUMN.match(c)]


def _check_trc(trc: TrcData, origin: str) -> None:
    d = np.asarray(trc.distance_m, dtype=float)
    if d.ndim != 1 or d.size < 2:
        raise FormatError(f"{origin}: need at least two distance rows")
    if not np.isfinite(d).all():
        bad = int(np.argmin(np.isfinite(d)))
        raise FormatError(f"{origin}: distance must be finite (row {bad} "
                          f"is {d[bad]!r})")
    step = np.diff(d)
    if np.any(np.abs(step - TRC_SPACING_M) > 1e-12):
        bad = int(np.argmax(np.abs(step - TRC_SPACING_M) > 1e-12))
        raise FormatError(f"{origin}: distance must increase by exactly "
                          f"{TRC_SPACING_M} m (row {bad + 1} steps {step[bad]!r})")
    for name, col in trc.columns.items():
        if np.asarray(col).shape != d.shape:
            raise FormatError(f"{origin}: column {name!r} length differs from "
                              f"distance_m")
        if name == SPEED_COLUMN:
            continue
        m = GEOMETRY_COLUMN.match(name)
        if not m:
            raise FormatError(f"{origin}: unrecognized column {name!r}")
        prefix, chord, side = m.groups()
        canonical = column_name(float(chord), side, AXES[COLUMN_PREFIXES.index(prefix)])
        if name != canonical:
            raise FormatError(f"{origin}: column {name!r} must be spelled "
                              f"{canonical!r}")


def write_trc(path, trc: TrcData) -> None:
    _check_trc(trc, str(path))
    write_table(path, {"distance_m": trc.distance_m, **trc.columns},
                {key: trc.metadata[key] for key in sorted(trc.metadata)})


def read_trc(path) -> TrcData:
    comments, columns, _ = read_table(path, ("distance_m",))
    trc = TrcData(columns.pop("distance_m"), columns, comments)
    _check_trc(trc, str(path))
    return trc


# ---------------------------------------------------------------- reports

def write_report_json(path, reports: dict) -> None:
    """reports: column name -> ComparisonReport."""
    payload = {name: rep.to_dict() for name, rep in reports.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_report_csv(path, report) -> None:
    comments = {"pearson_r": report.pearson_r, "slope": report.slope,
                "intercept": report.intercept, "n_windows": report.n_windows}
    comments.update(sorted(report.metadata.items()))
    write_table(path, {"window_start_m": report.window_starts_m,
                       "estimated": report.estimated,
                       "reference": report.reference,
                       "residual": report.residuals}, comments)


# ---------------------------------------------------------------- windows

_WINDOWS_HEADER = ("column", "window_start_m", "window_end_m", "value_mm",
                   "valid_fraction")


def write_windows(path, stats_by_column: dict, params: dict | None = None) -> None:
    """Long-format table of windowed maxima, one row per (column, window)."""
    stats = stats_by_column.values()

    def joined(attr: str) -> np.ndarray:
        return np.concatenate([np.empty(0)] + [getattr(s, attr) for s in stats])

    labels = [c for c, s in stats_by_column.items() for _ in range(len(s))]
    values = [joined(a) for a in ("starts_m", "ends_m", "values", "valid_fraction")]
    write_table(path, dict(zip(_WINDOWS_HEADER, [labels] + values)),
                {"params": params} if params else None)


def read_windows(path, column: str):
    """Rebuild the WindowedStats of one column from a windows table."""
    # str objects: np.loadtxt reads dtype=str through them, then sizes and
    # copies them into a fixed-width array, about 2 ms a call at any size
    _, columns, _ = read_table(path, _WINDOWS_HEADER, dtype=object)
    mine = columns["column"] == column
    if not mine.any():
        raise FormatError(f"{path}: no rows for column {column!r}")
    try:
        starts, ends, values, fractions = (columns[name][mine].astype(float)
                                           for name in _WINDOWS_HEADER[1:])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not (np.isfinite(starts) & np.isfinite(ends)).all():
        raise FormatError(f"{path}: window bounds of {column!r} must be finite")
    if not ((fractions >= 0) & (fractions <= 1)).all():
        raise FormatError(f"{path}: valid_fraction of {column!r} must be "
                          "finite and within [0, 1]")
    widths = ends - starts
    if np.any(np.abs(widths - widths[0]) > 1e-9):
        raise FormatError(f"{path}: window lengths differ for {column!r}")
    return WindowedStats(float(widths[0]), starts, values, fractions)


# ---------------------------------------------------------------- speed

def write_speed(path, speed, source: str) -> None:
    """speed.csv: time_s, speed_mps and valid of a SpeedProfile."""
    times = np.arange(speed.speeds_mps.size) / speed.sample_rate_hz
    write_table(path, {"time_s": times, SPEED_COLUMN: speed.speeds_mps,
                       "valid": np.asarray(speed.valid, dtype=bool)},
                {"params": source})


def read_speed(path) -> tuple[np.ndarray, np.ndarray]:
    """Times and speeds of a speed table such as speed.csv. Further columns
    are ignored. Each row needs a finite time, later than the row before,
    and a finite speed >= 0."""
    _, columns, first_line = read_table(path, ("time_s", SPEED_COLUMN))
    times, speeds = columns["time_s"], columns[SPEED_COLUMN]
    if times.size < 2:
        raise FormatError(f"{path}: need at least two time,speed rows")
    ok = np.isfinite(times) & np.isfinite(speeds) & (speeds >= 0)
    ok[1:] &= times[1:] > times[:-1]
    bad = np.flatnonzero(~ok)
    if bad.size:
        k = int(bad[0])
        raise FormatError(f"{path}:{first_line + k}: need a finite time later "
                          f"than the row before and a finite speed >= 0, got "
                          f"{float(times[k])!r} s, {float(speeds[k])!r} m/s")
    return times, speeds


# ---------------------------------------------------------------- config, polyline

_POLYLINE = _array(_pair, least=2)
_PROFILES = (
    _object({"type": lambda t: t == "noise", "band_cycles_per_m": _pair,
             "rms_mm": _number}),
    _object({"type": lambda t: t == "sines", "components": _array(_object(
        {"nu": _number, "amplitude_mm": _number, "phase": _number}, ("phase",)))}),
)
_PROFILE_SPEC = (lambda v: any(fits(v) for fits in _PROFILES),
                 "a noise or a sines profile spec")
# the simulate config: field -> (shape test, the shape in words)
_SIMULATE_CONFIG = {
    "length_m": (lambda v: _number(v) and v > 0, "a number > 0"),
    "profile": _PROFILE_SPEC,
    "lateral_profile": _PROFILE_SPEC,
    "speed_plan": (_array(lambda k: _pair(k) and k[1] >= 0, least=2),
                   "two or more [time_s, speed_mps >= 0] knots"),
    "impulses": (_array(_object(dict.fromkeys(
        ("position_m", "amplitude_g", "duration_ms"), _number))),
        "a list of {position_m, amplitude_g, duration_ms}"),
    "sensor": (lambda v: isinstance(v, str) and v in SENSOR_SPECS,
               f"one of {', '.join(SENSOR_SPECS)}"),
    "seed": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "geo_polyline": (_POLYLINE, "two or more [lat, lon] pairs"),
}
_REQUIRED = ("length_m", "profile", "speed_plan")


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def load_config(path) -> dict:
    """The simulate config in a JSON file, as parsed. A field it does not
    know, a missing required field or a field of the wrong shape raises
    FormatError naming the field; value ranges are the synthesizer's."""
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise FormatError(f"{path}: top level must be an object")
    for key in [*cfg, *_REQUIRED]:
        if key not in _SIMULATE_CONFIG:
            raise FormatError(f"{path}: unknown field {key!r} (fields: "
                              f"{', '.join(_SIMULATE_CONFIG)})")
        if key not in cfg:
            raise FormatError(f"{path}: missing field {key!r}")
        fits, shape = _SIMULATE_CONFIG[key]
        if not fits(cfg[key]):
            raise FormatError(f"{path}: field {key!r} must be {shape}")
    return cfg


def read_polyline(path) -> list:
    """(lat, lon) vertices of a survey polyline file: a JSON array of two or
    more [lat, lon] pairs, as write_polyline writes it, or a GeoJSON
    LineString geometry or Feature, whose coordinates are [lon, lat]."""
    data = _read_json(path)
    lon_lat = isinstance(data, dict)
    if lon_lat:
        geometry = data.get("geometry", data)
        data = geometry.get("coordinates") if isinstance(geometry, dict) else None
    if not _POLYLINE(data):
        raise FormatError(f"{path}: need two or more [lat, lon] pairs or a "
                          f"GeoJSON LineString")
    return [(b, a) if lon_lat else (a, b) for a, b in data]


def write_polyline(path, points) -> None:
    """(lat, lon) vertices as the JSON array read_polyline reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([list(p) for p in points], fh)
        fh.write("\n")


# ---------------------------------------------------------------- geojson

def _polyline_arcs(polyline) -> np.ndarray:
    """Cumulative arc length (m) along a sequence of (lat, lon) vertices."""
    pts = np.asarray(polyline, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("polyline must be a sequence of at least two "
                         "(lat, lon) pairs")
    lat = np.radians(pts[:, 0])
    lon = np.radians(pts[:, 1])
    dlat = np.diff(lat)
    dlon = np.diff(lon)
    a = (np.sin(dlat / 2) ** 2
         + np.cos(lat[:-1]) * np.cos(lat[1:]) * np.sin(dlon / 2) ** 2)
    seg = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))
    return np.concatenate(([0.0], np.cumsum(seg)))


def _locate(polyline, arcs: np.ndarray, s: float) -> list[float]:
    """[lon, lat] at arc position s by linear interpolation."""
    pts = np.asarray(polyline, dtype=float)
    i = int(np.clip(np.searchsorted(arcs, s, side="right") - 1, 0, arcs.size - 2))
    seg_len = arcs[i + 1] - arcs[i]
    f = (s - arcs[i]) / seg_len if seg_len > 0 else 0.0
    lat = pts[i, 0] + f * (pts[i + 1, 0] - pts[i, 0])
    lon = pts[i, 1] + f * (pts[i + 1, 1] - pts[i, 1])
    return [float(lon), float(lat)]


def export_geojson(stats, polyline, thresholds, column: str = "",
                   metadata: dict | None = None) -> dict:
    """FeatureCollection with one LineString feature per window.

    Window [start, end) in track meters is mapped to the same arc-length
    interval along the (lat, lon) polyline. severity counts how many of the
    ascending thresholds the window value reaches; unusable windows carry
    value null and severity null. Every window must start on the polyline
    and every usable window end on it, or ValueError is raised; an unusable
    window past its end (such as one opened for a lone trailing grid point)
    is drawn up to the end, and keeps its nominal window_end_m. A threshold
    that is not finite raises ValueError.
    """
    arcs = _polyline_arcs(polyline)
    thresholds = [float(t) for t in thresholds]
    for t in thresholds:
        if not math.isfinite(t):
            raise ValueError(f"severity threshold {t!r} is not finite")
    thresholds.sort()
    pts = np.asarray(polyline, dtype=float)
    features = []
    usable = stats.usable
    reach = max(np.max(stats.starts_m, initial=-np.inf),
                np.max(stats.ends_m[usable], initial=-np.inf))
    if reach - arcs[-1] > 1e-6:
        raise ValueError(f"polyline is {arcs[-1]:.1f} m long but windows "
                         f"reach {reach:.1f} m")
    for k in range(len(stats)):
        s0 = float(stats.starts_m[k])
        s1 = float(stats.ends_m[k])
        drawn = s1 if usable[k] else min(s1, float(arcs[-1]))
        inner = np.flatnonzero((arcs > s0) & (arcs < drawn))
        coords = ([_locate(pts, arcs, s0)]
                  + [[float(pts[i, 1]), float(pts[i, 0])] for i in inner]
                  + [_locate(pts, arcs, drawn)])
        value = float(stats.values[k]) if usable[k] else None
        severity = sum(value >= t for t in thresholds) if usable[k] else None
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": coords},
            "properties": {
                "column": column,
                "window_start_m": s0,
                "window_end_m": s1,
                "value_mm": value,
                "valid_fraction": float(stats.valid_fraction[k]),
                "severity": severity,
            },
        })
    out = {"type": "FeatureCollection", "features": features}
    if metadata:
        out["metadata"] = dict(metadata)
    return out


def write_geojson(path, collection: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(collection, fh, indent=2, allow_nan=False)
        fh.write("\n")

