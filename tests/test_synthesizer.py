"""Synthetic profiles and simulated sensor records against analytic oracles."""

import numpy as np
import pytest

from trackvib import synthesizer
from trackvib.errors import PlanTooShortError
from trackvib.synthesizer import (SENSOR_SPECS, G, ImpulseEvent, SensorSpec,
                                  SimConfig, TrackProfile, add_impulses,
                                  add_sensor_noise, profile_spatial_series,
                                  simulate_run, synth_profile)
from trackvib.timeseries import TimeSeries

SINE_SPEC = {"type": "sines",
             "components": [{"nu": 0.05, "amplitude_mm": 5.0, "phase": 0.3}]}
NOISE_SPEC = {"type": "noise", "band_cycles_per_m": (0.02, 0.5), "rms_mm": 3.0}
THREE_SINES = {"type": "sines", "components": [
    {"nu": 0.05, "amplitude_mm": 2.0, "phase": 0.3},
    {"nu": 0.13, "amplitude_mm": 1.0, "phase": 2.1},
    {"nu": 0.41, "amplitude_mm": 0.5, "phase": -1.2}]}
# 10 cycles/m is MAX_NU_CYCLES_PER_M: a node's Taylor step reaches pi/2 rad
FINE_SINE = {"type": "sines", "components": [
    {"nu": 10.0, "amplitude_mm": 0.2, "phase": 0.7},
    {"nu": 0.05, "amplitude_mm": 2.0, "phase": 0.3}]}
# from rest, ramp, cruise, brake to a 5 s stop, restart
STOP_START_PLAN = ((0.0, 0.0), (10.0, 12.0), (15.0, 12.0), (20.0, 0.0),
                   (25.0, 0.0), (30.0, 8.0), (80.0, 8.0))


def constant_run(v=10.0, t_end=15.0, **kw):
    return SimConfig(speed_plan=((0.0, v), (t_end, v)), **kw)


class TestSynthProfile:
    def test_exact_sine(self):
        p = synth_profile(100.0, SINE_SPEC)
        x = p.spacing_m * np.arange(len(p.z_left))
        oracle = 5.0 * np.sin(2 * np.pi * 0.05 * x + 0.3)
        assert np.allclose(p.z_left, oracle, atol=1e-9)
        assert np.array_equal(p.z_left, p.z_right)
        assert np.all(p.y_left == 0.0)

    def test_noise_rms_hits_target(self):
        p = synth_profile(2000.0, NOISE_SPEC, seed=1)
        rms_l = np.sqrt(np.mean(p.z_left ** 2))
        rms_r = np.sqrt(np.mean(p.z_right ** 2))
        assert rms_l == pytest.approx(3.0, rel=1e-9)
        assert rms_r == pytest.approx(3.0, rel=0.10)

    def test_left_right_correlation(self):
        p = synth_profile(2000.0, NOISE_SPEC, seed=2)
        r = np.corrcoef(p.z_left, p.z_right)[0, 1]
        assert r == pytest.approx(0.7, abs=0.12)

    def test_seed_determinism(self):
        a = synth_profile(500.0, NOISE_SPEC, seed=3)
        b = synth_profile(500.0, NOISE_SPEC, seed=3)
        c = synth_profile(500.0, NOISE_SPEC, seed=4)
        assert np.array_equal(a.z_left, b.z_left)
        assert not np.array_equal(a.z_left, c.z_left)

    def test_lateral_spec_feeds_y_channels(self):
        p = synth_profile(500.0, SINE_SPEC, lateral_spec=NOISE_SPEC, seed=5)
        assert np.sqrt(np.mean(p.y_left ** 2)) == pytest.approx(3.0, rel=1e-9)
        assert not np.array_equal(p.y_left, p.z_left)

    def test_deviation_bound_enforced(self):
        big = {"type": "sines",
               "components": [{"nu": 0.05, "amplitude_mm": 60.0}]}
        with pytest.raises(ValueError):
            synth_profile(100.0, big)

    def test_bad_band_rejected(self):
        with pytest.raises(ValueError):
            synth_profile(100.0, {"type": "noise",
                                  "band_cycles_per_m": (0.5, 0.02),
                                  "rms_mm": 1.0})

    def test_spatial_series_export(self):
        p = synth_profile(100.0, SINE_SPEC)
        s = profile_spatial_series(p, "left", "vertical")
        assert s.spacing_m == 0.25
        assert s.start_m == 0.0
        oracle = 5.0 * np.sin(2 * np.pi * 0.05 * s.positions() + 0.3)
        assert np.allclose(s.values, oracle, atol=1e-9)


class TestSimulateRun:
    def test_channel_inventory(self):
        p = synth_profile(100.0, SINE_SPEC)
        sim = simulate_run(p, constant_run())
        expected = {f"bogie-{pos}-{side}-{axis}"
                    for pos in ("front", "back")
                    for side in ("left", "right")
                    for axis in ("vertical", "lateral")}
        assert set(sim.channels) == expected
        n = len(sim.channels["bogie-front-left-vertical"])
        assert all(len(ts) == n for ts in sim.channels.values())
        assert sim.speeds_mps.size == n

    def test_chain_rule_amplitude(self):
        # nu = 0.05 at 10 m/s shows up at 0.5 Hz with amplitude
        # (2 pi 0.5)^2 * 5 mm = 49.35 mm/s^2
        p = synth_profile(200.0, SINE_SPEC)
        sim = simulate_run(p, constant_run(t_end=25.0))
        acc = sim.channels["bogie-front-left-vertical"].samples
        expected = (2 * np.pi * 0.5) ** 2 * 5e-3
        assert expected == pytest.approx(49.35e-3, rel=1e-3)
        assert np.max(np.abs(acc)) == pytest.approx(expected, rel=1e-3)
        # dominant frequency 0.5 Hz
        spec = np.abs(np.fft.rfft(acc))
        f = np.fft.rfftfreq(acc.size, 1 / 2560.0)
        assert f[np.argmax(spec)] == pytest.approx(0.5, abs=0.05)

    def test_flat_profile_silent(self):
        p = synth_profile(100.0, {"type": "sines", "components": []})
        for cfg in (constant_run(), SimConfig(speed_plan=STOP_START_PLAN)):
            sim = simulate_run(p, cfg)
            for ts in sim.channels.values():
                assert np.all(ts.samples == 0.0)

    def test_back_wheel_is_delayed_front(self):
        p = synth_profile(200.0, SINE_SPEC)
        sim = simulate_run(p, constant_run(t_end=25.0))
        front = sim.channels["bogie-front-left-vertical"].samples
        back = sim.channels["bogie-back-left-vertical"].samples
        lag = int(round(0.25 * 2560))   # wheelbase 2.5 m at 10 m/s
        scale = np.max(np.abs(front))
        assert np.allclose(back[lag:], front[:-lag], atol=1e-9 * scale)

    def test_plan_must_start_at_zero(self):
        # np.interp would hold the first speed before the first knot while
        # dv/dt took the first segment's slope
        with pytest.raises(ValueError, match="first knot is at t = 5.0 s"):
            SimConfig(speed_plan=((5.0, 10.0), (50.0, 12.0)))
        with pytest.raises(ValueError, match="t = -1.0 s"):
            SimConfig(speed_plan=((-1.0, 10.0), (50.0, 12.0)))

    def test_plan_too_short(self):
        p = synth_profile(200.0, SINE_SPEC)
        with pytest.raises(PlanTooShortError):
            simulate_run(p, SimConfig(speed_plan=((0.0, 10.0), (5.0, 10.0))))

    def test_run_covers_profile(self):
        p = synth_profile(100.0, SINE_SPEC)
        sim = simulate_run(p, constant_run())
        x = sim.wheel_positions["bogie-front-left-vertical"]
        assert x[-1] >= 100.0
        assert x[0] == 0.0

    def test_speed_ramp_follows_plan(self):
        p = synth_profile(300.0, SINE_SPEC)
        cfg = SimConfig(speed_plan=((0.0, 5.0), (20.0, 15.0), (40.0, 15.0)))
        sim = simulate_run(p, cfg)
        fs = cfg.sample_rate_hz
        assert sim.speeds_mps[0] == pytest.approx(5.0)
        assert sim.speeds_mps[int(10 * fs)] == pytest.approx(10.0, rel=1e-3)

    def test_lateral_disturbance_only_on_lateral(self):
        p = synth_profile(150.0, SINE_SPEC)
        quiet = simulate_run(p, constant_run(seed=6))
        noisy = simulate_run(p, constant_run(
            seed=6, lateral_disturbance={"rms_mps2": 0.2, "band_hz": (1.0, 40.0)}))
        lat = noisy.channels["bogie-front-left-lateral"].samples
        assert np.std(lat) == pytest.approx(0.2, rel=0.05)
        vert_q = quiet.channels["bogie-front-left-vertical"].samples
        vert_n = noisy.channels["bogie-front-left-vertical"].samples
        assert np.array_equal(vert_q, vert_n)


def reference_acceleration(comps, xw, v, dvdt, chunk=8192):
    """Chain-rule acceleration of one channel, straight from its component
    table: sin and cos of 2 pi nu x + phi evaluated per channel."""
    out = np.zeros(xw.size)
    if comps.size == 0:
        return out
    w = 2.0 * np.pi * comps[:, 0]
    amp_m = comps[:, 1] * 1e-3
    for lo in range(0, xw.size, chunk):
        hi = min(lo + chunk, xw.size)
        args = np.outer(xw[lo:hi], w) + comps[:, 2]
        out[lo:hi] = (-(v[lo:hi] ** 2) * (np.sin(args) @ (amp_m * w * w))
                      + dvdt[lo:hi] * (np.cos(args) @ (amp_m * w)))
    return out


def assert_channels_match_reference(profile, cfg):
    """Every channel within 1e-11 x its peak of reference_acceleration and
    every wheel position exact; returns the trajectory's v and dv/dt."""
    sim = simulate_run(profile, cfg)
    _, v, dvdt, x_front = synthesizer._trajectory(cfg, profile.length_m)
    assert np.array_equal(sim.speeds_mps, v)
    for cid, ts in sim.channels.items():
        _, pos, side, axis = cid.split("-")
        xw = x_front if pos == "front" else x_front - cfg.wheelbase_m
        assert np.array_equal(sim.wheel_positions[cid], xw)
        ref = reference_acceleration(profile.components[f"{axis}-{side}"],
                                     xw, v, dvdt)
        peak = np.max(np.abs(ref))
        assert peak > 0
        assert np.max(np.abs(ts.samples - ref)) <= 1e-11 * peak, cid
    return v, dvdt


def reference_rail(comps, x):
    """sum_j A_j sin(2 pi nu_j x + phi_j), one component at a time."""
    out = np.zeros(x.size)
    for nu, amp, phase in comps:
        out += amp * np.sin(2.0 * np.pi * nu * x + phase)
    return out


class _CountingNumpy:
    """numpy, except that sin and cos count the elements they are given."""

    def __init__(self):
        self.trig_elements = 0
        self.basis_elements = 0     # of 2-D arguments: a basis, not phases
        self.basis_calls = 0        # sin calls on a basis: one per chunk

    def __getattr__(self, name):
        return getattr(np, name)

    def _count(self, a):
        self.trig_elements += np.size(a)
        if np.ndim(a) == 2:
            self.basis_elements += np.size(a)

    def sin(self, a, *args, **kwargs):
        self._count(a)
        self.basis_calls += np.ndim(a) == 2
        return np.sin(a, *args, **kwargs)

    def cos(self, a, *args, **kwargs):
        self._count(a)
        return np.cos(a, *args, **kwargs)


class TestSharedBasis:
    """The one sin/cos basis against the per-channel, per-component sums."""

    @pytest.fixture(scope="class")
    def profile(self):
        return synth_profile(300.0, NOISE_SPEC, seed=8, lateral_spec=THREE_SINES)

    def test_channels_match_per_channel_reference(self, profile):
        # varying speed, a stop and a restart: the back wheel's phase shift
        # must hold where the wheels are not a fixed time apart
        v, dvdt = assert_channels_match_reference(
            profile, SimConfig(speed_plan=STOP_START_PLAN, seed=8))
        assert np.any(v == 0.0) and np.any(dvdt > 0) and np.any(dvdt < 0)

    def test_rails_match_component_sums(self, profile):
        fine = synth_profile(120.0, FINE_SINE, seed=12, lateral_spec=NOISE_SPEC)
        for p in (profile, fine):
            x = p.spacing_m * np.arange(len(p.z_left))
            for side in ("left", "right"):
                for axis in ("vertical", "lateral"):
                    ref = reference_rail(p.components[f"{axis}-{side}"], x)
                    got = p.channel(side, axis)
                    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_each_wavenumber_evaluated_once_per_sample(self, monkeypatch):
        # noise rails: the right rail reuses every left wavenumber, and the
        # back wheel is the front one shifted by the wheelbase, so a
        # per-channel kernel evaluates three times the distinct columns here
        profile = synth_profile(200.0, NOISE_SPEC, seed=9)
        cfg = SimConfig(speed_plan=((0, 3), (15, 12), (17, 12), (25, 0),
                                    (35, 0), (43, 12), (200, 12)))
        counting = _CountingNumpy()
        monkeypatch.setattr(synthesizer, "np", counting)
        sim = simulate_run(profile, cfg)
        n = sim.speeds_mps.size
        tables = list(profile.components.values())
        k_unique = np.unique(np.concatenate([c[:, 0] for c in tables])).size
        k_rows = sum(c.shape[0] for c in tables)
        assert k_unique == 2 * profile.components["vertical-left"].shape[0]
        assert counting.trig_elements <= 2 * n * k_unique + 16 * k_rows


class TestKernelEdgeCases:
    """Channels against the per-component chain-rule formula, where the
    kernel's node spacing, order or input is at its limits."""

    @pytest.mark.parametrize("spec, lateral, cfg", [
        (FINE_SINE, THREE_SINES, constant_run(v=10.0, t_end=13.0)),
        # 0.078 m per sample: most nodes are never visited
        (NOISE_SPEC, FINE_SINE, SimConfig(speed_plan=((0.0, 40.0), (4.0, 40.0)),
                                          sample_rate_hz=512.0)),
        # from rest, a stop and a restart: runs of equal positions
        (FINE_SINE, NOISE_SPEC, SimConfig(speed_plan=(
            (0.0, 0.0), (5.0, 8.0), (8.0, 8.0), (12.0, 0.0), (16.0, 0.0),
            (20.0, 8.0), (40.0, 8.0)))),
    ], ids=["10-cycles-per-m", "40-mps-sparse-samples", "stop-and-restart"])
    def test_channels_match_reference(self, spec, lateral, cfg):
        assert_channels_match_reference(
            synth_profile(120.0, spec, seed=12, lateral_spec=lateral), cfg)

    def test_decreasing_positions_refused(self):
        x = np.array([0.0, 0.1, 0.3, 0.2, 0.4])
        w = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            list(synthesizer._basis_sums(x, w, np.ones((4, 1))))

    def test_trig_count_independent_of_sample_rate(self, monkeypatch):
        # sin and cos are evaluated per node, PROFILE_SPACING_M apart, and
        # a node is counted again at most once per chunk boundary
        profile = synth_profile(200.0, NOISE_SPEC, seed=9)
        k = np.unique(np.concatenate(
            [c[:, 0] for c in profile.components.values()])).size
        counts = []
        for fs in (2560.0, 5120.0):
            counting = _CountingNumpy()
            monkeypatch.setattr(synthesizer, "np", counting)
            sim = simulate_run(profile, SimConfig(
                speed_plan=((0, 3), (15, 12), (17, 12), (25, 0), (35, 0),
                            (43, 12), (200, 12)), sample_rate_hz=fs))
            monkeypatch.undo()
            x = sim.wheel_positions["bogie-front-left-vertical"]
            nodes = np.unique(np.rint(x / synthesizer.PROFILE_SPACING_M)).size
            assert counting.basis_calls > 0
            assert counting.basis_elements <= 2 * k * (nodes + counting.basis_calls)
            counts.append(counting.basis_elements)
        assert counts[1] <= 1.05 * counts[0]


class TestAddImpulses:
    def doublet_setup(self, amp_g=150.0, dur_ms=5.0, fs=2560.0, v=10.0):
        n = int(round(10.0 * fs))
        pos = v * np.arange(1, n + 1) / fs
        ts = TimeSeries(np.zeros(n), fs, kind="acceleration")
        ev = ImpulseEvent(position_m=50.0, amplitude_g=amp_g, duration_ms=dur_ms)
        return add_impulses(ts, [ev], pos), fs

    def test_zero_net_area(self):
        out, fs = self.doublet_setup()
        assert abs(np.sum(out.samples) / fs) < 1e-6 * np.max(np.abs(out.samples))

    def test_peak_amplitude(self):
        out, _ = self.doublet_setup()
        assert np.max(out.samples) == pytest.approx(150.0 * G, rel=0.02)
        assert np.min(out.samples) == pytest.approx(-150.0 * G, rel=0.02)

    def test_displacement_step_quarter_a_t_squared(self):
        # double time integral of the doublet settles at amp * T^2 / 8
        out, fs = self.doublet_setup()
        v = np.cumsum(out.samples) / fs
        z = np.cumsum(v) / fs
        step = 150.0 * G * (5e-3) ** 2 / 8.0
        assert z[-1] == pytest.approx(step, rel=0.05)

    def test_uncrossed_event_skipped(self):
        n = 2560
        pos = 10.0 * np.arange(1, n + 1) / 2560.0   # covers 10 m only
        ts = TimeSeries(np.zeros(n), 2560.0, kind="acceleration")
        out = add_impulses(ts, [ImpulseEvent(500.0, 150.0, 5.0)], pos)
        assert np.all(out.samples == 0.0)

    def test_scale_factor(self):
        out_full, _ = self.doublet_setup()
        n = len(out_full)
        pos = 10.0 * np.arange(1, n + 1) / 2560.0
        ts = TimeSeries(np.zeros(n), 2560.0, kind="acceleration")
        scaled = add_impulses(ts, [ImpulseEvent(50.0, 150.0, 5.0)], pos,
                              amplitude_scale=1.0 / 15.0)
        assert np.max(scaled.samples) == pytest.approx(10.0 * G, rel=0.02)

    def test_length_mismatch(self):
        ts = TimeSeries(np.zeros(100), 2560.0, kind="acceleration")
        with pytest.raises(ValueError):
            add_impulses(ts, [], np.zeros(50))


class TestAddSensorNoise:
    def test_bogie_mems_sigma(self):
        spec = SENSOR_SPECS["bogie_mems"]
        # 300 ug/sqrt(Hz) white over the 1280 Hz one-sided band
        oracle = 300e-6 * G * np.sqrt(2560.0 / 2.0)
        assert spec.noise_sigma(2560.0) == pytest.approx(oracle, rel=1e-12)
        ts = TimeSeries(np.zeros(200_000), 2560.0, channel_id="c")
        noisy, clipped = add_sensor_noise(ts, spec, seed=1)
        assert np.std(noisy.samples) == pytest.approx(oracle, rel=0.02)
        assert not clipped.any()

    def test_determinism_and_channel_separation(self):
        spec = SENSOR_SPECS["bogie_mems"]
        a = TimeSeries(np.zeros(1000), 2560.0, channel_id="ch-a")
        b = TimeSeries(np.zeros(1000), 2560.0, channel_id="ch-b")
        n1, _ = add_sensor_noise(a, spec, seed=7)
        n2, _ = add_sensor_noise(a, spec, seed=7)
        n3, _ = add_sensor_noise(b, spec, seed=7)
        assert np.array_equal(n1.samples, n2.samples)
        assert not np.array_equal(n1.samples, n3.samples)

    def test_clipping_mask(self):
        tight = SensorSpec("test", "bogie", range_g=1e-7,
                           noise_floor_ug_sqrthz=1e6)
        ts = TimeSeries(np.zeros(1000), 2560.0, channel_id="c")
        noisy, clipped = add_sensor_noise(ts, tight, seed=1)
        limit = 1e-7 * G
        assert np.max(np.abs(noisy.samples)) <= limit + 1e-15
        assert clipped.mean() > 0.9

    def test_catalog_covers_all_locations(self):
        locs = {s.location for s in SENSOR_SPECS.values()}
        assert locs == {"carbody", "bogie", "axlebox"}
        assert SENSOR_SPECS["axlebox_mems"].range_g == 200.0
