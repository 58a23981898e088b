"""Whole-system acceptance suite.

Each test checks one headline property of the toolkit at a fixed tolerance
and records a PASS/FAIL line for the run summary (see conftest.py):

1. geometry recovered through the full pipeline on a rough 2 km track
2. the spatial geometry estimate does not depend on driving speed
3. speed recovery across a piecewise-constant 5/10/15 m/s plan
4. chord response nulls and the factor-4 power ratio at the response peak
5. reference values of the cutoff selection rule
6. absolute displacement amplitude out of the double integrator
7. axlebox impulses inflate local maxima; bogie-attenuated ones do not
8. exactness batch: brute-force equivalences, closed forms, bit-level IO
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import welch

from trackvib.comparison import correlate
from trackvib.fileio import TrcData, read_record, read_trc, write_record, \
    write_trc
from trackvib.geometry import WindowedStats, chord_alignment, \
    select_cutoff, windowed_max
from trackvib.layout import G, SENSOR_SPECS
from trackvib.pipeline import ProcessOptions, chord_ground_truth, \
    compare_trc, process_records
from trackvib.spatial import SpatialSeries
from trackvib.speed import estimate_delay, estimate_speed
from trackvib.synthesizer import ImpulseEvent, SimConfig, add_impulses, \
    add_sensor_noise, simulate_run, synth_profile
from trackvib.timeseries import TimeSeries, decimate, double_integrate

DX = 0.25


def rough_spec(rms_mm: float) -> dict:
    return {"type": "noise", "band_cycles_per_m": (0.02, 0.5),
            "rms_mm": rms_mm}


def true_speed(sim):
    """Ground-truth speed at the 256 Hz working rate, as a (time_s,
    speed_mps) table."""
    n = len(sim.channels["bogie-front-left-vertical"])
    v = sim.speeds_mps[::10][: n // 10]
    return np.arange(v.size) / 256.0, v


@pytest.fixture(scope="module")
def track_2km():
    return synth_profile(2000.0, rough_spec(3.0), seed=7)


def test_01_end_to_end_geometry_round_trip(track_2km, criterion):
    sim = simulate_run(track_2km, SimConfig(
        speed_plan=((0.0, 10.0), (220.0, 10.0)), seed=7))
    channels = {cid: add_sensor_noise(ts, SENSOR_SPECS["bogie_mems"], seed=7)[0]
                for cid, ts in sim.channels.items()}
    truth = chord_ground_truth(track_2km, sim)

    t0 = time.perf_counter()
    result = process_records(channels)
    reports = compare_trc(result.to_trc(), truth, max_shift_m=300.0)
    elapsed = time.perf_counter() - t0

    rails = ("VA10_left_mm", "VA10_right_mm")
    worst_r = min(reports[c][0].pearson_r for c in rails)
    worst_shift = max(abs(reports[c][1]) for c in rails)
    ok = worst_r >= 0.90 and worst_shift <= 100.0 and elapsed <= 30.0
    criterion("1 end-to-end round trip", ok,
              f"VA10 r >= {worst_r:.3f}, |shift| <= {worst_shift:g} m, "
              f"{elapsed:.1f} s")


def test_02_speed_invariance_of_geometry(track_2km, criterion):
    # one fixed integration cutoff for both runs so that only the speed
    # handling differs between them
    def traverse(plan):
        sim = simulate_run(track_2km, SimConfig(speed_plan=plan, seed=7))
        return process_records(sim.channels, ProcessOptions(cutoff_hz=0.1),
                               speed_override=true_speed(sim))

    slow = traverse(((0.0, 5.0), (420.0, 5.0)))
    ramp = traverse(((0.0, 3.0), (60.0, 20.0), (200.0, 20.0)))

    worst = 0.0
    for col in ("VA10_left_mm", "VA10_right_mm"):
        a, b = slow.alignments[col], ramp.alignments[col]
        assert abs(a.start_m - b.start_m) < 1e-9
        n = min(len(a), len(b))
        ok = a.valid[:n] & b.valid[:n]
        diff = a.values[:n][ok] - b.values[:n][ok]
        ratio = float(np.sqrt(np.mean(diff ** 2)
                              / np.mean(a.values[:n][ok] ** 2)))
        worst = max(worst, ratio)
    criterion("2 speed invariance", worst <= 0.10,
              f"5 m/s vs 3->20 m/s VA10 RMS disagreement {worst:.1%} <= 10%")


def test_03_speed_recovery_piecewise_plan(criterion):
    profile = synth_profile(1000.0, rough_spec(3.0), seed=13)
    plan = ((0.0, 5.0), (40.0, 5.0), (44.0, 10.0), (84.0, 10.0),
            (88.0, 15.0), (140.0, 15.0))
    sim = simulate_run(profile, SimConfig(speed_plan=plan, seed=13))

    zf = double_integrate(
        decimate(sim.channels["bogie-front-left-vertical"], 10), 0.3)
    zb = double_integrate(
        decimate(sim.channels["bogie-back-left-vertical"], 10), 0.3)
    speed = estimate_speed(estimate_delay(zf, zb, 960, (0.0625, 2.5)), 2.5)

    truth = sim.speeds_mps[::10][: speed.speeds_mps.size]
    frac = float(np.mean(np.abs(speed.speeds_mps - truth) / truth <= 0.05))
    criterion("3 speed recovery", frac >= 0.90,
              f"{frac:.1%} of samples within 5% over 5/10/15 m/s plateaus")


def spatial_psd(series):
    """Welch spatial PSD of the longest finite run of a series: Hann
    windows of 512 samples (128 m), 50 % overlap, density scaling."""
    finite = np.concatenate(([False], series.valid, [False]))
    edges = np.flatnonzero(np.diff(finite.astype(np.int8)))
    lo, hi = max(zip(edges[::2], edges[1::2]), key=lambda r: r[1] - r[0])
    return welch(series.values[lo:hi], fs=1.0 / DX, window="hann",
                 nperseg=512, noverlap=256, detrend="constant",
                 scaling="density")


def test_04_chord_nulls_and_power_ratio(criterion):
    worst_null = 0.0
    worst_db_err = 0.0
    for d in (10.0, 35.0):
        x = DX * np.arange(int(40 * d / DX))
        for k in (1, 2, 3):
            z = SpatialSeries(np.sin(2 * np.pi * (2 * k / d) * x), 0.0)
            out = chord_alignment(z, d)
            worst_null = max(worst_null, float(np.nanmax(np.abs(out.values))))
        # at the response peak nu = 1/d the amplitude gain is 2, power 4
        z = SpatialSeries(np.sin(2 * np.pi * (1.0 / d) * x), 0.0)
        out = chord_alignment(z, d)
        (nu_in, p_in), (nu_out, p_out) = spatial_psd(z), spatial_psd(out)
        ki = int(np.argmin(np.abs(nu_in - 1.0 / d)))
        ko = int(np.argmin(np.abs(nu_out - 1.0 / d)))
        db = 10.0 * np.log10(p_out[ko] / p_in[ki])
        worst_db_err = max(worst_db_err, abs(db - 10.0 * np.log10(4.0)))
    ok = worst_null < 1e-9 and worst_db_err <= 1.0
    criterion("4 chord response", ok,
              f"nulls <= {worst_null:.1e} mm, peak ratio off 6.02 dB by "
              f"{worst_db_err:.2f} dB")


def test_05_cutoff_rule(criterion):
    ok = select_cutoff(10.0) == 0.3 and select_cutoff(35.0) == 0.1
    criterion("5 cutoff rule", ok,
              f"10 m -> {select_cutoff(10.0)} Hz, "
              f"35 m -> {select_cutoff(35.0)} Hz")


def test_06_integration_amplitude(criterion):
    fs = 256.0
    t = np.arange(int(10.0 * fs)) / fs
    z = double_integrate(TimeSeries(np.sin(2 * np.pi * 5.0 * t), fs), 0.3)
    amp = float(np.max(np.abs(z.samples)))
    expected = 1.0 / (2 * np.pi * 5.0) ** 2
    err = abs(amp - expected) / expected
    criterion("6 integration amplitude", err <= 0.01,
              f"unit 5 Hz sine -> {amp:.5e} m vs {expected:.5e} m, "
              f"off by {err:.2%}")


def test_07_impulse_locality(criterion):
    profile = synth_profile(600.0, rough_spec(0.12), seed=21)
    sim = simulate_run(profile, SimConfig(
        speed_plan=((0.0, 10.0), (70.0, 10.0)), seed=21))
    cid = "bogie-front-left-vertical"
    override = true_speed(sim)
    event = ImpulseEvent(position_m=350.0, amplitude_g=150.0, duration_ms=5.0)

    def va10_max_at_event(scale=None, range_g=None):
        channels = dict(sim.channels)
        if scale is not None:
            scaled = replace(event, amplitude_g=event.amplitude_g * scale)
            hit = add_impulses(channels[cid], [scaled],
                               sim.wheel_positions[cid])
            # the scenario stays inside the sensor range either way, so
            # clipping never softens the comparison
            assert float(np.max(np.abs(hit.samples))) < range_g * G
            channels[cid] = hit
        stats = process_records(channels,
                                speed_override=override).maxima["VA10_left_mm"]
        k = int(np.flatnonzero((stats.starts_m <= event.position_m)
                               & (event.position_m < stats.ends_m))[0])
        return float(stats.values[k])

    clean = va10_max_at_event()
    axle = va10_max_at_event(1.0, SENSOR_SPECS["axlebox_mems"].range_g)
    bogie = va10_max_at_event(10.0 / 150.0, SENSOR_SPECS["bogie_mems"].range_g)

    ratio = axle / clean
    change = abs(bogie - clean) / clean
    ok = ratio >= 5.0 and change < 0.5
    criterion("7 impulse locality", ok,
              f"150 g at axlebox inflates x{ratio:.1f} >= 5; attenuated to "
              f"10 g at bogie changes {change:.1%} < 50%")


def test_08_exactness_batch(criterion, tmp_path):
    checks = {}

    # tumbling-window maxima against a literal scan
    rng = np.random.default_rng(5)
    vals = rng.normal(size=1601)
    vals[rng.integers(0, vals.size, 40)] = np.nan
    series = SpatialSeries(vals, 37.5)
    stats = windowed_max(series, 100.0)
    pos = series.start_m + DX * np.arange(vals.size)
    brute = []
    for s in stats.starts_m:
        sel = (pos >= s - 1e-9) & (pos < s + 100.0 - 1e-9) & series.valid
        brute.append(np.max(np.abs(vals[sel])) if sel.any() else np.nan)
    checks["window max == scan"] = bool(
        np.allclose(stats.values, brute, equal_nan=True, atol=0.0))

    # a parabola x^2 has the closed-form chord value -d^2/4
    quad_ok = True
    for d in (10.0, 35.0):
        x = DX * np.arange(int(20 * d / DX))
        out = chord_alignment(SpatialSeries(x ** 2, 0.0), d)
        good = out.values[out.valid]
        quad_ok &= bool(np.max(np.abs(good + d * d / 4.0)) < 1e-9)
    checks["parabola chord == -d^2/4"] = quad_ok

    # correlation ignores affine rescaling of either side
    starts = 100.0 * np.arange(12.0)
    ones = np.ones(12)
    wa = rng.normal(size=12)
    wb = 0.6 * wa + rng.normal(scale=0.3, size=12)
    r0 = correlate(WindowedStats(100.0, starts, wa, ones),
                   WindowedStats(100.0, starts, wb, ones)).pearson_r
    r1 = correlate(WindowedStats(100.0, starts, 3.0 * wa - 7.0, ones),
                   WindowedStats(100.0, starts, wb, ones)).pearson_r
    checks["correlation affine-invariant"] = abs(r0 - r1) < 1e-12

    # file formats reproduce themselves byte for byte
    ts = TimeSeries(rng.normal(size=4096), 2560.0, 1.5,
                    "bogie-front-left-vertical")
    p1, p2 = tmp_path / "a.rec", tmp_path / "b.rec"
    write_record(p1, ts, sensor={"name": "bogie_mems"})
    back, header = read_record(p1)
    write_record(p2, back, sensor=header.get("sensor"))
    rec_ok = p1.read_bytes() == p2.read_bytes()

    grid = DX * np.arange(40)
    col = rng.normal(size=40)
    col[:3] = np.nan
    trc = TrcData(grid, {"VA10_left_mm": col, "speed_mps": np.full(40, 8.0)},
                  {"run": "x"})
    t1, t2 = tmp_path / "a.trc", tmp_path / "b.trc"
    write_trc(t1, trc)
    write_trc(t2, read_trc(t1))
    checks["round trips byte-exact"] = rec_ok and (t1.read_bytes()
                                                   == t2.read_bytes())

    # the whole synthesis chain reruns bit-identically from one seed
    def sample_run(seed):
        prof = synth_profile(200.0, rough_spec(1.0), seed=seed)
        sim = simulate_run(prof, SimConfig(
            speed_plan=((0.0, 10.0), (25.0, 10.0)), seed=seed))
        noisy, _ = add_sensor_noise(sim.channels["bogie-front-left-vertical"],
                                    SENSOR_SPECS["bogie_mems"], seed=seed)
        return noisy.samples

    a, b, other = sample_run(3), sample_run(3), sample_run(4)
    checks["seeded reruns identical"] = bool(np.array_equal(a, b)) \
        and not np.array_equal(a, other)

    failing = [name for name, good in checks.items() if not good]
    criterion("8 exactness batch", not failing,
              "; ".join(checks) if not failing
              else "failing: " + "; ".join(failing))
