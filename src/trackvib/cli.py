"""Command line front end.

    trackvib simulate --config run.json --out rundir [--seed N]
    trackvib process --records rundir --out outdir [--chord D] [--cutoff HZ]
                     [--window M] [--wheelbase M] [--speed-file CSV]
    trackvib compare --estimated est.trc --reference ref.trc --out outdir
                     [--window M] [--max-shift M]
    trackvib export-geojson --windows windows.csv --column NAME
                     --polyline line.json --out map.geojson
                     [--thresholds A,B,...]

Exit codes: 0 success, 1 data error (a TrackVibError, ValueError or OSError:
unreadable or inconsistent inputs, processing failures), 2 usage error (bad
flags or arguments). Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Mapping
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import fileio, pipeline
from .errors import TrackVibError
from .geometry import REFERENCE_LOW_SPEED_MPS
from .layout import G, SENSOR_SPECS
from .pipeline import chord_ground_truth
from .synthesizer import ImpulseEvent, SimConfig, simulate_blocks, synth_profile
# bench/tracing.py traces these stages under their names here as well
from .synthesizer import add_impulses, add_sensor_noise, simulate_run  # noqa: F401

EXIT_OK = 0
EXIT_DATA = 1

BLOCK_S = 10.0      # length of a simulated .rec block


def _seed(text: str) -> int:
    """The --seed flag: an integer >= 0, as the config's seed field."""
    seed = int(text) if text.isdecimal() else -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


def _wheelbase(text: str) -> float:
    """The --wheelbase flag: a finite length in m > 0."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def cmd_simulate(args) -> int:
    """Write the run's 10 s .rec blocks one block of all channels at a time,
    then ground_truth.trc, config_used.json and, with a geo_polyline,
    polyline.json. Each block is written and dropped before the next is
    simulated, and nothing held grows with the recording (simulate_blocks).
    The summary line names each channel with samples clipped at the
    sensor's range, and how many."""
    cfg = fileio.load_config(args.config)
    seed = cfg.get("seed", 0) if args.seed is None else args.seed
    profile = synth_profile(cfg["length_m"], cfg["profile"], seed=seed,
                            lateral_spec=cfg.get("lateral_profile"))
    sensor = SENSOR_SPECS.get(cfg.get("sensor"))
    events = [ImpulseEvent(**e) for e in cfg.get("impulses", [])]
    sim_config = SimConfig(cfg["speed_plan"], seed=seed,
                           sensor_location=sensor.location if sensor else "bogie")
    n_block = int(round(BLOCK_S * sim_config.sample_rate_hz))
    run, blocks = simulate_blocks(profile, sim_config, n_block, events, sensor)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_echo = dict(cfg, seed=seed)
    sensor_meta = asdict(sensor) if sensor else None
    clipped: dict[str, int] = {}
    n_blocks = 0
    for b, block in enumerate(blocks):
        for cid, (ts, n_clipped) in sorted(block.items()):
            fileio.write_record(out / f"{cid}_b{b:04d}.rec", ts,
                                sensor=sensor_meta, params={"config": cfg_echo})
            clipped[cid] = clipped.get(cid, 0) + n_clipped
        n_blocks = b + 1
        del block, ts                   # before the next block is simulated

    truth = chord_ground_truth(profile, run)
    truth.metadata["config"] = cfg_echo
    fileio.write_trc(out / "ground_truth.trc", truth)
    with open(out / "config_used.json", "w", encoding="utf-8") as fh:
        json.dump(cfg_echo, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if "geo_polyline" in cfg:
        fileio.write_polyline(out / "polyline.json", cfg["geo_polyline"])
    hit = [f"{cid} {k}" for cid, k in clipped.items() if k]
    print(f"wrote {len(clipped)} channels x {n_blocks} blocks to {out}"
          + (f"; clipped samples: {', '.join(hit)}" if hit else ""))
    return EXIT_OK


def _clipped(ts, header: dict) -> int:
    """Samples of a record block at or beyond its header's sensor range,
    +/- sensor.range_g * G, where add_sensor_noise clips; 0 if the header
    gives no range."""
    sensor = header.get("sensor")
    range_g = sensor.get("range_g") if isinstance(sensor, dict) else None
    if type(range_g) not in (int, float) or not range_g > 0:
        return 0
    return int(np.count_nonzero(np.abs(ts.samples) >= range_g * G))


class _RecordFiles(Mapping):
    """Record id -> its blocks, read from their files only when looked up.

    Built from every block's checked header; a lookup reads the record's
    blocks in header start-time order and sets `clipped[id]` to their
    samples at the sensor's range (_clipped). process_records looks up each
    record it reads once and drops its blocks when decimate returns, so one
    raw record is held at a time, and a record no job reads is never loaded.
    """

    def __init__(self, paths):
        self._paths: dict[str, list] = {}
        headers = {p: fileio.read_record_header(p) for p in paths}
        # stable: blocks that start together stay in the order of paths
        for p in sorted(headers, key=lambda p: headers[p]["start_time_s"]):
            self._paths.setdefault(headers[p]["channel_id"], []).append(p)
        self.clipped: dict[str, int] = {}

    def __getitem__(self, cid: str) -> list:
        blocks, clipped = [], 0
        for p in self._paths[cid]:
            ts, header = fileio.read_record(p)
            blocks.append(ts)
            clipped += _clipped(ts, header)
        self.clipped[cid] = clipped
        return blocks

    def __contains__(self, cid) -> bool:
        return cid in self._paths          # without reading the record

    def __iter__(self):
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


def cmd_process(args) -> int:
    """Estimate the geometry of the records and write estimated.trc,
    windows.csv and speed.csv. Every block's header is checked first; the
    records the run reads are then loaded one at a time (_RecordFiles). The
    summary line names each record cut to the shortest one, and each record
    read with samples at its sensor's range (_clipped), which are used as
    they are."""
    root = Path(args.records)
    paths = sorted(root.glob("*.rec"))
    if not paths:
        raise TrackVibError(f"no .rec files in {root}")
    opts = pipeline.ProcessOptions(cutoff_hz=args.cutoff, window_m=args.window,
                                   wheelbase_m=args.wheelbase)
    if args.chord is not None:
        opts = replace(opts, chords_m=(args.chord,),
                       lateral_chords_m=(args.chord,))
    speed_override = (fileio.read_speed(args.speed_file)
                      if args.speed_file else None)
    records = _RecordFiles(paths)
    result = pipeline.process_records(records, opts, speed_override)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_trc(out / "estimated.trc", result.to_trc())
    fileio.write_windows(out / "windows.csv", result.maxima,
                         params=result.params)
    fileio.write_speed(out / "speed.csv", result.speed,
                       result.params["speed_source"])
    first = next(iter(result.alignments.values()))
    cut = [f"{cid} {s:.2f} s" for cid, s in result.cut_s.items()]
    hit = [f"{cid} {k}" for cid, k in sorted(records.clipped.items()) if k]
    print(f"processed {len(result.params['channels'])} of {len(records)} "
          f"channels -> {len(result.alignments)} geometry columns on "
          f"{len(first)} grid points, output in {out}"
          + (f"; cut to the shortest record: {', '.join(cut)}" if cut else "")
          + (f"; clipped samples: {', '.join(hit)}" if hit else ""))
    return EXIT_OK


def cmd_compare(args) -> int:
    est = fileio.read_trc(args.estimated)
    ref = fileio.read_trc(args.reference)
    skipped: dict = {}
    results = pipeline.compare_trc(est, ref, window_m=args.window,
                                   max_shift_m=args.max_shift, skipped=skipped)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_report_json(out / "compare.json",
                             {c: rep for c, (rep, _) in results.items()})
    for column, (report, shift) in results.items():
        fileio.write_report_csv(out / f"compare_{column}.csv", report)
        print(f"{column}: r={report.pearson_r:.3f} slope={report.slope:.3f} "
              f"intercept={report.intercept:.3f} n={report.n_windows} "
              f"shift={shift:g} m")
    for column, reason in skipped.items():
        print(f"{column}: skipped ({reason})")
    return EXIT_OK


def cmd_export_geojson(args) -> int:
    stats = fileio.read_windows(args.windows, args.column)
    polyline = fileio.read_polyline(args.polyline)
    thresholds = ([float(t) for t in args.thresholds.split(",") if t]
                  if args.thresholds else [])
    collection = fileio.export_geojson(stats, polyline, thresholds,
                                       column=args.column,
                                       metadata={"source": str(args.windows)})
    fileio.write_geojson(args.out, collection)
    print(f"wrote {len(collection['features'])} features to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackvib",
        description="Track geometry from on-board vibration records.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=None,
                   help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    defaults = pipeline.ProcessOptions()
    p = sub.add_parser("process", help="estimate geometry from record blocks")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--chord", type=float, default=None,
                   help="chord length in m (default: "
                   + " and ".join(f"{d:g}" for d in defaults.chords_m) + ")")
    p.add_argument("--cutoff", type=float, default=None,
                   help="integration high-pass cutoff in Hz (default: "
                   f"{REFERENCE_LOW_SPEED_MPS:g} m/s / chord)")
    p.add_argument("--window", type=float, default=defaults.window_m,
                   help="maxima window in m (default %(default)g)")
    p.add_argument("--wheelbase", type=_wheelbase, default=defaults.wheelbase_m,
                   help="front-to-back sensor spacing in m (default %(default)g)")
    p.add_argument("--speed-file", default=None,
                   help="CSV with header row time_s,speed_mps[,...] bypassing "
                   "the speed estimator, e.g. the speed.csv of an earlier "
                   "process run; time_s counts from the first record sample "
                   "and must span the records")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("compare", help="compare two geometry tables")
    p.add_argument("--estimated", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=float, default=defaults.window_m)
    p.add_argument("--max-shift", type=float, default=0.0,
                   help="co-registration search range in m")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export-geojson", help="map windowed maxima to GeoJSON")
    p.add_argument("--windows", required=True, help="windows.csv from process")
    p.add_argument("--column", required=True)
    p.add_argument("--polyline", required=True,
                   help="JSON [[lat,lon],...] or GeoJSON LineString")
    p.add_argument("--thresholds", default="",
                   help="comma-separated ascending severity thresholds (mm)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_geojson)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrackVibError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
