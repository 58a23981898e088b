"""File formats: record blocks, TRC-style geometry CSV, reports, GeoJSON.

Record block: one UTF-8 JSON header line (sorted keys, ends with newline)
followed by the raw little-endian float64 payload. Byte-identical for
identical inputs.

TRC-style CSV: '# key: json' comment lines carrying metadata and the full
parameter set, a header row, then one row per 0.25 m grid point. Floats are
written with repr so a read/write cycle is bit-exact; invalid samples are
'nan'. Geometry columns are named like VA10_left_mm / HA10_right_mm; any
chord length matching that pattern round-trips.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .timeseries import KIND_ACCELERATION, KIND_DISPLACEMENT, TimeSeries

TRC_SPACING_M = 0.25
_UNITS = {KIND_ACCELERATION: "m/s^2", KIND_DISPLACEMENT: "m"}
_GEOM_COLUMN = re.compile(r"^(VA|HA)(\d+(?:\.\d+)?)_(left|right)_mm$")
EARTH_RADIUS_M = 6371000.0


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


def read_record(path) -> tuple[TimeSeries, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: no header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad header: {exc}") from exc
    for key in ("channel_id", "kind", "n_samples", "sample_rate_hz",
                "start_time_s", "units"):
        if key not in header:
            raise FormatError(f"{path}: header missing {key!r}")
    if header["units"] != _UNITS.get(header["kind"]):
        raise FormatError(f"{path}: units {header['units']!r} do not match "
                          f"kind {header['kind']!r}")
    payload = raw[nl + 1:]
    if len(payload) != 8 * header["n_samples"]:
        raise FormatError(f"{path}: header claims {header['n_samples']} samples "
                          f"but payload holds {len(payload) // 8}")
    samples = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    ts = TimeSeries(samples, header["sample_rate_hz"], header["start_time_s"],
                    header["channel_id"], header["kind"])
    return ts, header


# ---------------------------------------------------------------- trc csv

@dataclass
class TrcData:
    """Columnar track-geometry table on the fixed 0.25 m grid."""

    distance_m: np.ndarray
    columns: dict = field(default_factory=dict)   # name -> np.ndarray
    metadata: dict = field(default_factory=dict)

    def geometry_columns(self) -> list[str]:
        return [c for c in self.columns if _GEOM_COLUMN.match(c)]


def _check_trc(trc: TrcData, origin: str) -> None:
    d = np.asarray(trc.distance_m, dtype=float)
    if d.ndim != 1 or d.size < 2:
        raise FormatError(f"{origin}: need at least two distance rows")
    step = np.diff(d)
    if np.any(np.abs(step - TRC_SPACING_M) > 1e-12):
        bad = int(np.argmax(np.abs(step - TRC_SPACING_M) > 1e-12))
        raise FormatError(f"{origin}: distance must increase by exactly "
                          f"{TRC_SPACING_M} m (row {bad + 1} steps {step[bad]!r})")
    for name, col in trc.columns.items():
        if np.asarray(col).shape != d.shape:
            raise FormatError(f"{origin}: column {name!r} length differs from "
                              f"distance_m")
        if name != "speed_mps" and not _GEOM_COLUMN.match(name):
            raise FormatError(f"{origin}: unrecognized column {name!r}")


def write_trc(path, trc: TrcData) -> None:
    _check_trc(trc, str(path))
    names = ["distance_m"] + list(trc.columns)
    cols = [np.asarray(trc.distance_m, dtype=float)]
    cols += [np.asarray(trc.columns[n], dtype=float) for n in trc.columns]
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(trc.metadata):
            fh.write(f"# {key}: {json.dumps(trc.metadata[key], sort_keys=True)}\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_trc(path) -> TrcData:
    metadata: dict = {}
    names: list[str] | None = None
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, sep, value = body.partition(":")
                if sep:
                    try:
                        metadata[key.strip()] = json.loads(value.strip())
                    except json.JSONDecodeError:
                        metadata[key.strip()] = value.strip()
                continue
            parts = line.split(",")
            if names is None:
                names = [p.strip() for p in parts]
                if names[0] != "distance_m":
                    raise FormatError(f"{path}:{lineno}: first column must be "
                                      f"distance_m, got {names[0]!r}")
                continue
            if len(parts) != len(names):
                raise FormatError(f"{path}:{lineno}: expected {len(names)} "
                                  f"fields, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if names is None or not rows:
        raise FormatError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    trc = TrcData(data[:, 0],
                  {n: data[:, i] for i, n in enumerate(names) if i > 0},
                  metadata)
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# pearson_r: {report.pearson_r!r}\n")
        fh.write(f"# slope: {report.slope!r}\n")
        fh.write(f"# intercept: {report.intercept!r}\n")
        fh.write(f"# n_windows: {report.n_windows}\n")
        for key in sorted(report.metadata):
            fh.write(f"# {key}: {json.dumps(report.metadata[key], sort_keys=True)}\n")
        fh.write("window_start_m,estimated,reference,residual\n")
        for s, e, r, d in zip(report.window_starts_m, report.estimated,
                              report.reference, report.residuals):
            fh.write(f"{float(s)!r},{float(e)!r},{float(r)!r},{float(d)!r}\n")


# ---------------------------------------------------------------- windows

def write_windows(path, stats_by_column: dict, params: dict | None = None) -> None:
    """Long-format CSV of windowed maxima, one row per (column, window)."""
    with open(path, "w", encoding="utf-8") as fh:
        if params:
            fh.write(f"# params: {json.dumps(params, sort_keys=True)}\n")
        fh.write("column,window_start_m,window_end_m,value_mm,valid_fraction\n")
        for column, stats in stats_by_column.items():
            for s, e, v, f in zip(stats.starts_m, stats.ends_m, stats.values,
                                  stats.valid_fraction):
                fh.write(f"{column},{float(s)!r},{float(e)!r},"
                         f"{float(v)!r},{float(f)!r}\n")


def read_windows(path, column: str):
    """Rebuild the WindowedStats of one column from a windows CSV."""
    from .geometry import WindowedStats

    starts, ends, values, fractions = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                header_seen = True
                if line.split(",")[0] != "column":
                    raise FormatError(f"{path}:{lineno}: not a windows CSV")
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise FormatError(f"{path}:{lineno}: expected 5 fields")
            if parts[0] != column:
                continue
            try:
                starts.append(float(parts[1]))
                ends.append(float(parts[2]))
                values.append(float(parts[3]))
                fractions.append(float(parts[4]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if not starts:
        raise FormatError(f"{path}: no rows for column {column!r}")
    widths = np.asarray(ends) - np.asarray(starts)
    if np.any(np.abs(widths - widths[0]) > 1e-9):
        raise FormatError(f"{path}: window lengths differ for {column!r}")
    return WindowedStats(float(widths[0]), np.asarray(starts),
                         np.asarray(values), np.asarray(fractions))


# ---------------------------------------------------------------- config

def load_config(path) -> dict:
    """Parse and structurally validate a simulation config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise FormatError(f"{path}: top level must be an object")

    def need(key, types, check=None, what=""):
        if key not in cfg:
            raise FormatError(f"{path}: missing field {key!r}")
        value = cfg[key]
        if not isinstance(value, types):
            raise FormatError(f"{path}: field {key!r} has wrong type")
        if check is not None and not check(value):
            raise FormatError(f"{path}: field {key!r}: {what}")
        return value

    need("length_m", (int, float), lambda v: v > 0, "must be > 0")
    profile = need("profile", dict)
    if profile.get("type") not in ("noise", "sines"):
        raise FormatError(f"{path}: profile.type must be 'noise' or 'sines'")
    plan = need("speed_plan", list, lambda v: len(v) >= 2,
                "needs at least two [time_s, speed_mps] knots")
    for i, knot in enumerate(plan):
        if (not isinstance(knot, list) or len(knot) != 2
                or not all(isinstance(x, (int, float)) for x in knot)):
            raise FormatError(f"{path}: speed_plan[{i}] must be [time_s, speed_mps]")
        if knot[1] < 0:
            raise FormatError(f"{path}: speed_plan[{i}]: speed must be >= 0")
    for i, ev in enumerate(cfg.get("impulses", [])):
        for key in ("position_m", "amplitude_g", "duration_ms"):
            if key not in ev:
                raise FormatError(f"{path}: impulses[{i}] missing {key!r}")
    sensor = cfg.get("sensor")
    if isinstance(sensor, str):
        from .synthesizer import SENSOR_SPECS
        if sensor not in SENSOR_SPECS:
            raise FormatError(f"{path}: unknown sensor {sensor!r} (one of "
                              f"{sorted(SENSOR_SPECS)})")
    return cfg


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
    value null and severity null.
    """
    arcs = _polyline_arcs(polyline)
    thresholds = sorted(float(t) for t in thresholds)
    pts = np.asarray(polyline, dtype=float)
    features = []
    if len(stats) and stats.ends_m[-1] - arcs[-1] > 1e-6:
        raise ValueError(f"polyline is {arcs[-1]:.1f} m long but windows "
                         f"reach {stats.ends_m[-1]:.1f} m")
    for k in range(len(stats)):
        s0 = float(stats.starts_m[k])
        s1 = float(stats.ends_m[k])
        inner = np.flatnonzero((arcs > s0) & (arcs < s1))
        coords = ([_locate(pts, arcs, s0)]
                  + [[float(pts[i, 1]), float(pts[i, 0])] for i in inner]
                  + [_locate(pts, arcs, s1)])
        usable = bool(stats.usable[k])
        value = float(stats.values[k]) if usable else None
        severity = sum(value >= t for t in thresholds) if usable else None
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

