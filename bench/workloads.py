"""Workload definitions and input generation for the benchmark.

Each workload leaves a run directory holding what `trackvib simulate` would
have written: 8 channels of `.rec` blocks, `ground_truth.trc` and a survey
`polyline.json`. The package only ever sees these files.

urban-2km and mainline-10km are built from a lattice-periodic profile
(every wavenumber is k / PERIOD_M), so one simulated PERIOD_M period, tiled,
is the record of the whole track at constant speed. Sensor noise is added
after tiling, so it does not repeat. stop-go-400m writes a config and runs
`trackvib simulate` on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from trackvib import cli, fileio, pipeline, synthesizer

PERIOD_M = 500.0
SAMPLE_RATE_HZ = 2560.0
BLOCK_S = 10.0
WHEELBASE_M = 2.5
SENSOR = "bogie_mems"
BAND_CYCLES_PER_M = (0.02, 0.5)
# survey polylines run this far past the track end; see README.md
POLYLINE_EXTRA_M = 200.0
POLYLINE_VERTEX_M = 250.0
POLYLINE_START = (50.0, 8.0)          # (lat, lon), heading due north
EARTH_RADIUS_M = 6371000.0
# tiled records must match a direct simulation to this share of their peak
SEAM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    length_m: float
    speed_mps: float | None        # constant speed; None: set-up runs `simulate`
    vertical_rms_mm: float
    lateral_rms_mm: float | None
    expected_samples: int | None   # per channel, as a direct simulation produces them
    polyline_m: float              # survey polyline length


WORKLOADS = {w.name: w for w in (
    Workload("urban-2km", 2000.0, 10.0, 3.0, None, 512_001,
             2000.0 + POLYLINE_EXTRA_M),
    Workload("mainline-10km", 10000.0, 25.0, 3.0, 2.0, 1_024_001,
             10000.0 + POLYLINE_EXTRA_M),
    # the standstill overshoot has carried the distance axis 300 m past the
    # track end; 2400 m covers the 40 m/s speed bound over the 57 s record
    Workload("stop-go-400m", 400.0, None, 3.0, None, None, 2400.0),
)}

STOP_GO_PLAN = [[0, 3], [15, 12], [17, 12], [25, 0], [35, 0], [43, 12], [200, 12]]
STOP_GO_IMPULSE = {"position_m": 300.0, "amplitude_g": 20.0, "duration_ms": 4.0}


def polyline(total: float) -> list:
    """Straight survey line of `total` metres, due north."""
    n = int(math.ceil(total / POLYLINE_VERTEX_M))
    lat0, lon0 = POLYLINE_START
    arcs = np.linspace(0.0, total, n + 1)
    return [[lat0 + math.degrees(s / EARTH_RADIUS_M), lon0] for s in arcs]


def lattice_spec(rng: np.random.Generator, rms_mm: float) -> dict:
    """`sines` profile spec on every k / PERIOD_M wavenumber inside the band.

    Equal amplitudes and phases drawn from rng, as the package's `noise`
    profile draws them; over one period the RMS is exactly rms_mm.
    """
    lo, hi = (int(round(b * PERIOD_M)) for b in BAND_CYCLES_PER_M)
    ks = np.arange(lo, hi + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, ks.size)
    amp = rms_mm * math.sqrt(2.0 / ks.size)
    return {"type": "sines", "components": [
        {"nu": float(k) / PERIOD_M, "amplitude_mm": amp, "phase": float(p)}
        for k, p in zip(ks, phases)]}


def sim_config(speed_mps: float, length_m: float, seed: int):
    t_end = length_m / speed_mps + 1.0
    return synthesizer.SimConfig(speed_plan=((0.0, speed_mps), (t_end, speed_mps)),
                                 sample_rate_hz=SAMPLE_RATE_HZ,
                                 wheelbase_m=WHEELBASE_M, seed=seed,
                                 sensor_location="bogie")


def period_samples(speed_mps: float) -> int:
    n = PERIOD_M / speed_mps * SAMPLE_RATE_HZ
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"{PERIOD_M} m at {speed_mps} m/s is no whole number "
                         f"of samples")
    return int(round(n))


def _tile(samples: np.ndarray, per_period: int, reps: int) -> np.ndarray:
    """reps periods of samples[:per_period], closed by the first sample."""
    return np.concatenate([np.tile(samples[:per_period], reps), samples[:1]])


def tiled_run(specs: tuple, speed_mps: float, length_m: float, seed: int):
    """Profile and clean records of length_m, tiled from one simulated period.

    Returns (TrackProfile, SimResult, seam), both over length_m. seam is the
    largest mismatch, as a share of the channel peak, between the sample
    that closes the simulated period and the period's first sample; lattice
    periodicity makes them equal.
    """
    vertical, lateral = specs
    reps = length_m / PERIOD_M
    if abs(reps - round(reps)) > 1e-9:
        raise ValueError(f"track length {length_m} m is no whole number of periods")
    reps = int(round(reps))
    n_p = period_samples(speed_mps)
    period = synthesizer.synth_profile(PERIOD_M, vertical, seed=seed,
                                       lateral_spec=lateral)
    sim = synthesizer.simulate_run(period, sim_config(speed_mps, PERIOD_M, seed))
    channels = {}
    seam = 0.0
    for cid, ts in sim.channels.items():
        if len(ts) != n_p + 1:
            raise ValueError(f"{cid}: period simulated {len(ts)} samples, "
                             f"expected {n_p + 1}")
        s = ts.samples
        peak = float(np.max(np.abs(s)))
        if peak > 0:
            seam = max(seam, abs(float(s[n_p] - s[0])) / peak)
        channels[cid] = replace(ts, samples=_tile(s, n_p, reps))
    n = reps * n_p + 1
    x_front = np.arange(n) * (speed_mps / SAMPLE_RATE_HZ)
    wheel_positions = {cid: (x_front if "-front-" in cid else x_front - WHEELBASE_M)
                       for cid in channels}
    full_sim = synthesizer.SimResult(channels, wheel_positions,
                                     np.full(n, speed_mps),
                                     sim_config(speed_mps, length_m, seed))
    m = len(period.z_left) - 1
    profile = replace(period, length_m=float(length_m),
                      **{f: _tile(getattr(period, f), m, reps)
                         for f in ("z_left", "z_right", "y_left", "y_right")})
    return profile, full_sim, seam


def _write_blocks(out: Path, sim, seed: int, params: dict) -> None:
    """Noise, then 10 s `.rec` blocks named as `trackvib simulate` names them."""
    sensor = synthesizer.SENSOR_SPECS[SENSOR]
    sensor_meta = {"name": sensor.name, "location": sensor.location,
                   "range_g": sensor.range_g,
                   "noise_floor_ug_sqrthz": sensor.noise_floor_ug_sqrthz}
    n_block = int(round(BLOCK_S * SAMPLE_RATE_HZ))
    for cid, ts in sorted(sim.channels.items()):
        ts, _ = synthesizer.add_sensor_noise(ts, sensor, seed)
        for k in range(0, len(ts), n_block):
            block = replace(ts, samples=ts.samples[k:k + n_block],
                            start_time_s=k / SAMPLE_RATE_HZ)
            fileio.write_record(out / f"{cid}_b{k // n_block:04d}.rec", block,
                                sensor=sensor_meta, params=params)


def stop_go_config(seed: int) -> dict:
    w = WORKLOADS["stop-go-400m"]
    return {
        "length_m": w.length_m,
        "profile": {"type": "noise", "band_cycles_per_m": list(BAND_CYCLES_PER_M),
                    "rms_mm": w.vertical_rms_mm},
        "speed_plan": STOP_GO_PLAN,
        "impulses": [STOP_GO_IMPULSE],
        "sensor": SENSOR,
        "seed": int(seed),
        "geo_polyline": polyline(w.polyline_m),
    }


def set_up(workload: Workload, seed: int, run_dir: Path) -> None:
    """Write the workload's inputs into a fresh run_dir."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    if workload.speed_mps is None:
        config = run_dir / "config.json"
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(stop_go_config(seed), fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--config", str(config), "--out", str(run_dir)])
        if code != 0:
            raise ValueError(f"trackvib simulate exited {code}: {err.getvalue().strip()}")
        return

    rng = np.random.default_rng(seed)
    vertical = lattice_spec(rng, workload.vertical_rms_mm)
    lateral = (lattice_spec(rng, workload.lateral_rms_mm)
               if workload.lateral_rms_mm else None)
    line = polyline(workload.polyline_m)
    profile, sim, seam = tiled_run((vertical, lateral), workload.speed_mps,
                                   workload.length_m, seed)
    n = len(next(iter(sim.channels.values())))
    if n != workload.expected_samples:
        raise ValueError(f"{workload.name}: {n} samples per channel, expected "
                         f"{workload.expected_samples}")
    if seam > SEAM_TOLERANCE:
        raise ValueError(f"{workload.name}: period seam mismatch {seam:.3g} of peak")
    _write_blocks(run_dir, sim, seed, {"workload": workload.name, "seed": int(seed)})
    truth = pipeline.chord_ground_truth(profile, sim)
    truth.metadata["workload"] = workload.name
    fileio.write_trc(run_dir / "ground_truth.trc", truth)
    with open(run_dir / "polyline.json", "w", encoding="utf-8") as fh:
        json.dump(line, fh)
        fh.write("\n")


def true_chainage(workload: Workload, t_s: float) -> float:
    """Front-wheel chainage at time t_s, integrated from the speed plan."""
    if workload.speed_mps is not None:
        return workload.speed_mps * t_s
    knots = np.asarray(STOP_GO_PLAN, dtype=float)
    t, v = knots[:, 0], knots[:, 1]
    x = 0.0
    for (t0, v0), (t1, v1) in zip(zip(t, v), zip(t[1:], v[1:])):
        if t_s <= t0:
            break
        h = min(t_s, t1) - t0
        slope = (v1 - v0) / (t1 - t0) if t1 > t0 else 0.0
        x += v0 * h + 0.5 * slope * h * h
    return x
