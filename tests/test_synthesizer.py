"""Synthetic profiles and simulated sensor records against analytic oracles."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from trackvib import synthesizer
from trackvib.errors import PlanTooShortError
from trackvib.layout import SENSOR_SPECS, G, SensorSpec
from trackvib.synthesizer import (PROFILE_SPACING_M, ImpulseEvent, SimConfig,
                                  TrackProfile, add_impulses, add_sensor_noise,
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
# the same within 120 m: braking at 8-12 s, stopped at 12-16 s
SHORT_STOP_PLAN = ((0.0, 0.0), (5.0, 8.0), (8.0, 8.0), (12.0, 0.0), (16.0, 0.0),
                   (20.0, 8.0), (40.0, 8.0))


def constant_run(v=10.0, t_end=15.0, **kw):
    return SimConfig(speed_plan=((0.0, v), (t_end, v)), **kw)


class TestSynthProfile:
    def test_exact_sine(self):
        p = synth_profile(100.0, SINE_SPEC)
        x = PROFILE_SPACING_M * np.arange(len(p.z_left))
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
        s = p.spatial_series("left", "vertical")
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

    @pytest.mark.parametrize("plan", [(), ((0.0, 10.0),)], ids=["empty", "one-knot"])
    def test_plan_needs_two_knots(self, plan):
        with pytest.raises(ValueError, match="two knots"):
            SimConfig(speed_plan=plan)

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
    """Every channel of a rail with components within 1e-11 x its peak of
    reference_acceleration, every channel of a rail without exactly +0.0,
    and every wheel position exact; returns the trajectory's v and dv/dt."""
    sim = simulate_run(profile, cfg)
    v, dvdt, x_front = synthesizer._trajectory(cfg, profile.length_m)
    assert np.array_equal(sim.speeds_mps, v)
    for cid, ts in sim.channels.items():
        _, pos, side, axis = cid.split("-")
        xw = x_front if pos == "front" else x_front - cfg.wheelbase_m
        assert np.array_equal(sim.wheel_positions[cid], xw)
        comps = profile.components[f"{axis}-{side}"]
        if not comps.size:
            assert np.all(ts.samples == 0.0) and not np.any(np.signbit(ts.samples)), cid
            continue
        ref = reference_acceleration(comps, xw, v, dvdt)
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
        # sin calls on a basis: per _basis_sums call the offset table once,
        # then the anchors once per chunk
        self.basis_calls = 0

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
    """The one node basis against the per-channel, per-component sums."""

    @pytest.fixture(scope="class")
    def profile(self):
        return synth_profile(300.0, NOISE_SPEC, seed=8, lateral_spec=THREE_SINES)

    def test_channels_match_per_channel_reference(self, profile):
        # varying speed, a stop and a restart: each wheel's samples, gathered
        # from the distinct positions of both, must hold where the wheels
        # are not a fixed time apart
        v, dvdt = assert_channels_match_reference(
            profile, SimConfig(speed_plan=STOP_START_PLAN, seed=8))
        assert np.any(v == 0.0) and np.any(dvdt > 0) and np.any(dvdt < 0)

    def test_rails_match_component_sums(self, profile):
        fine = synth_profile(120.0, FINE_SINE, seed=12, lateral_spec=NOISE_SPEC)
        for p in (profile, fine):
            x = PROFILE_SPACING_M * np.arange(len(p.z_left))
            for side in ("left", "right"):
                for axis in ("vertical", "lateral"):
                    ref = reference_rail(p.components[f"{axis}-{side}"], x)
                    got = p.channel(side, axis)
                    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_each_wavenumber_evaluated_once_per_sample(self, monkeypatch):
        # noise rails: the right rail reuses every left wavenumber, and both
        # wheels share one basis at their distinct positions, so sin and
        # cos see each distinct wavenumber, not each component row
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

    def test_basis_built_from_anchor_and_offset_tables(self, monkeypatch):
        # sin and cos of each anchor, ANGLE_BLOCK nodes apart, and of the
        # ANGLE_BLOCK offsets; a chunk boundary may split an anchor's run
        profile = synth_profile(200.0, NOISE_SPEC, seed=9)
        cfg = SimConfig(speed_plan=((0, 3), (15, 12), (17, 12), (25, 0),
                                    (35, 0), (43, 12), (200, 12)))
        counting = _CountingNumpy()
        monkeypatch.setattr(synthesizer, "np", counting)
        sim = simulate_run(profile, cfg)
        monkeypatch.undo()
        k = np.unique(np.concatenate(
            [c[:, 0] for c in profile.components.values()])).size
        x = sim.wheel_positions["bogie-front-left-vertical"]
        nodes = np.unique(np.rint(x / synthesizer.PROFILE_SPACING_M)).size
        block = synthesizer.ANGLE_BLOCK
        bound = 2 * k * (nodes / block + block + counting.basis_calls)
        assert counting.basis_calls >= 2
        assert counting.basis_elements <= bound
        assert bound <= 2 * k * nodes / 10


class TestKernelEdgeCases:
    """Channels against the per-component chain-rule formula, where the
    kernel's node spacing, order or input is at its limits."""

    @pytest.mark.parametrize("spec, lateral, cfg", [
        (FINE_SINE, THREE_SINES, constant_run(v=10.0, t_end=13.0)),
        # 0.078 m per sample: most nodes are never visited
        (NOISE_SPEC, FINE_SINE, SimConfig(speed_plan=((0.0, 40.0), (4.0, 40.0)),
                                          sample_rate_hz=512.0)),
        # from rest, a stop and a restart: runs of equal positions
        (FINE_SINE, NOISE_SPEC, SimConfig(speed_plan=SHORT_STOP_PLAN)),
        # a wheelbase off the node grid: the back wheel's positions are
        # none of the front wheel's
        (NOISE_SPEC, THREE_SINES, SimConfig(speed_plan=SHORT_STOP_PLAN,
                                            wheelbase_m=2.53)),
        # no lateral profile: the lateral channels are +0.0, braking too
        (NOISE_SPEC, None, SimConfig(speed_plan=SHORT_STOP_PLAN)),
    ], ids=["10-cycles-per-m", "40-mps-sparse-samples", "stop-and-restart",
            "wheelbase-off-node-grid", "no-lateral-profile"])
    def test_channels_match_reference(self, spec, lateral, cfg):
        assert_channels_match_reference(
            synth_profile(120.0, spec, seed=12, lateral_spec=lateral), cfg)

    @pytest.mark.parametrize("lateral, cfg", [
        (None, SimConfig(speed_plan=SHORT_STOP_PLAN)),
        (THREE_SINES, constant_run(t_end=13.0))],
        ids=["stop-start-no-lateral", "constant-speed-with-lateral"])
    def test_one_kernel_call_at_distinct_positions(self, monkeypatch, lateral, cfg):
        # per rail with components a v^2 z'' column, and a dv/dt z' column
        # only where the speed varies, at each distinct wheel position once
        calls = []
        basis_sums = synthesizer._basis_sums

        def recording(x, w, weights):
            calls.append((x.size, weights.shape[1]))
            return basis_sums(x, w, weights)

        profile = synth_profile(120.0, NOISE_SPEC, seed=12, lateral_spec=lateral)
        monkeypatch.setattr(synthesizer, "_basis_sums", recording)
        sim = simulate_run(profile, cfg)
        _, dvdt, x_front = synthesizer._trajectory(cfg, profile.length_m)
        positions = np.unique(np.concatenate([x_front, x_front - cfg.wheelbase_m]))
        rails = sum(c.size > 0 for c in profile.components.values())
        assert rails == (4 if lateral else 2)
        assert calls == [(positions.size, rails * (2 if np.any(dvdt) else 1))]
        assert positions.size < 2 * x_front.size
        assert len(sim.channels) == 8

    def test_decreasing_positions_refused(self):
        x = np.array([0.0, 0.1, 0.3, 0.2, 0.4])
        w = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            list(synthesizer._basis_sums(x, w, np.ones((4, 1))))

    @pytest.mark.parametrize("x", [
        # 9990-10000 m at 25 m/s and 2560 Hz, with a 0.2 s stop
        np.sort(np.concatenate([9990.0 + np.arange(1025) * 25.0 / 2560.0,
                                np.full(512, 9995.0)])),
        # from below 0, where a node's anchor is floored, to above it
        -8.0 + np.arange(1229) / 102.4],
        ids=["near-10-km", "negative-positions"])
    def test_basis_sums_at_large_and_negative_positions(self, monkeypatch, x):
        # against sin and cos of every component in long double; the
        # chunks are made small so that runs cross chunk and anchor bounds
        rng = np.random.default_rng(3)
        w = 2.0 * np.pi * np.sort(rng.uniform(0.02, 0.5, 192))
        weights = rng.normal(size=(2 * w.size, 3))
        monkeypatch.setattr(synthesizer, "CHUNK_FLOATS", 1 << 16)
        got = np.empty((x.size, 3))
        chunks = 0
        for lo, hi, sums in synthesizer._basis_sums(x, w, weights):
            got[lo:hi] = sums
            chunks += 1
        assert chunks >= 3
        node = np.rint(x / synthesizer.PROFILE_SPACING_M)
        assert np.unique(node // synthesizer.ANGLE_BLOCK).size >= 3
        arg = np.multiply.outer(x.astype(np.longdouble), w.astype(np.longdouble))
        ref = np.sin(arg) @ weights[:w.size] + np.cos(arg) @ weights[w.size:]
        err = np.max(np.abs(got - ref), axis=0)
        assert np.all(err <= 1e-11 * np.max(np.abs(ref), axis=0))

    def test_taylor_order_from_actual_node_offset(self, monkeypatch):
        # synth_profile's rail samples sit on their nodes: one Taylor block;
        # simulate_run's wheel positions fall between nodes and keep the
        # order of a step of up to h / 2 (J = 10 at 0.5 cycles/m)
        orders = []
        taylor_weights = synthesizer._taylor_weights

        def recording(w, weights, order):
            orders.append(order)
            return taylor_weights(w, weights, order)

        monkeypatch.setattr(synthesizer, "_taylor_weights", recording)
        profile = synth_profile(120.0, NOISE_SPEC, seed=9)
        assert orders == [1]
        simulate_run(profile, constant_run(t_end=13.0))
        assert orders == [1, 10]
        assert synthesizer._taylor_order(2 * np.pi * 0.5,
                                         synthesizer.PROFILE_SPACING_M / 2) == 10

    def test_trig_count_independent_of_sample_rate(self, monkeypatch):
        # sin and cos are evaluated per anchor and offset of the node
        # lattice, and an anchor again at most once per chunk boundary
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


class TestTrajectory:
    """The sampled speed plan of a run."""

    @pytest.mark.parametrize("plan", [
        STOP_START_PLAN, SHORT_STOP_PLAN,
        # a speed step: two knots at 4 s, which is a sample time
        ((0.0, 5.0), (4.0, 5.0), (4.0, 9.0), (30.0, 9.0))],
        ids=["stop-start", "short-stop", "speed-step"])
    def test_samples_follow_the_plan(self, plan):
        # dv/dt is the slope of the plan segment each sample time falls in,
        # the later one at a knot; x is the trapezoid sum of v
        cfg = SimConfig(speed_plan=plan)
        v, dvdt, x = synthesizer._trajectory(cfg, 150.0)
        fs = cfg.sample_rate_hz
        t = np.arange(x.size) / fs
        kt, kv = np.array(plan).T
        assert np.array_equal(v, np.interp(t, kt, kv))
        seg = np.clip(np.searchsorted(kt, t, side="right") - 1, 0, kt.size - 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(np.diff(kt) > 0, np.diff(kv) / np.diff(kt), 0.0)
        assert np.array_equal(dvdt, slope[seg])
        steps = 0.5 * (v[1:] + v[:-1]) / fs
        assert np.allclose(x, np.concatenate(([0.0], np.cumsum(steps))),
                           rtol=0, atol=1e-9)
        assert x[-2] < 150.0 <= x[-1]

    def test_peak_memory_per_sample(self):
        # speed, dv/dt and position are returned, 24 B a sample; the time
        # axis is gone before the position's running sum needs its own
        # temporary
        profile = synth_profile(2000.0, SINE_SPEC)
        cfg = SimConfig(speed_plan=STOP_START_PLAN[:-1] + ((300.0, 8.0),))
        tracemalloc.start()
        try:
            traj = synthesizer.Trajectory.of(profile, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) > 500_000
        assert peak <= 32 * len(traj)


class TestBlocks:
    """simulate_run on blocks of Trajectory.of against the whole run."""

    def test_blocks_match_whole_run(self):
        # a stop and a restart, and a block length that leaves a short last
        # block
        profile = synth_profile(120.0, NOISE_SPEC, seed=12, lateral_spec=THREE_SINES)
        cfg = SimConfig(speed_plan=SHORT_STOP_PLAN, seed=3)
        whole = simulate_run(profile, cfg)
        traj = synthesizer.Trajectory.of(profile, cfg)
        n, step = len(traj), 7000
        assert n % step
        for k0 in range(0, n, step):
            block = simulate_run(profile, cfg, traj.block(k0, k0 + step))
            assert np.array_equal(block.speeds_mps, whole.speeds_mps[k0:k0 + step])
            for cid, ts in block.channels.items():
                ref = whole.channels[cid].samples
                assert ts.start_time_s == k0 / cfg.sample_rate_hz
                assert np.array_equal(block.wheel_positions[cid],
                                      whole.wheel_positions[cid][k0:k0 + step])
                assert np.max(np.abs(ts.samples - ref[k0:k0 + step])) \
                    <= 1e-15 * np.max(np.abs(ref)), cid

    @pytest.mark.parametrize("splits", [[1], [25600, 51200], [3, 4, 1000, 99999]],
                             ids=["one-sample", "whole-blocks", "uneven"])
    def test_noise_drawn_in_blocks_is_the_whole_draw(self, splits):
        # add_sensor_noise carries one generator per channel across blocks:
        # standard_normal drawn in parts must be the one whole draw
        whole = synthesizer._channel_rng(4, "c").standard_normal(145_815)
        rng = synthesizer._channel_rng(4, "c")
        parts = [rng.standard_normal(b - a)
                 for a, b in zip([0] + splits, splits + [whole.size])]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_stretch_gets_the_whole_runs_doublet(self):
        # add_impulses times a record from its start: a stretch of the run
        # gets the run's doublet bit for bit, and so does the noise drawn
        # from a generator carried over from the samples before it
        fs, n, k0 = 2560.0, 30000, 12345
        pos = 7.0 * np.arange(n) / fs
        ts = TimeSeries(np.sin(np.arange(n) / 50.0), fs, channel_id="c")
        events = [ImpulseEvent(24.0, 30.0, 4.0), ImpulseEvent(40.0, 5.0, 6.0)]
        whole = add_impulses(ts, events, pos)
        stretch = add_impulses(replace(ts, samples=ts.samples[k0:], start_time_s=k0 / fs),
                               events, pos[k0:])
        assert np.array_equal(stretch.samples, whole.samples[k0:])
        spec = SENSOR_SPECS["bogie_mems"]
        noisy, _ = add_sensor_noise(whole, spec, seed=6)
        rng = synthesizer._channel_rng(6, "c")
        add_sensor_noise(replace(whole, samples=whole.samples[:k0]), spec, rng)
        rest, _ = add_sensor_noise(stretch, spec, rng)
        assert np.array_equal(rest.samples, noisy.samples[k0:])


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
        event = ImpulseEvent(50.0, 150.0, 5.0)
        scaled = add_impulses(
            ts, [replace(event, amplitude_g=event.amplitude_g / 15.0)], pos)
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

    def test_matches_its_formula(self):
        # a record that clips at both ends, noise from the channel's stream
        spec = SENSOR_SPECS["bogie_mems"]
        limit = spec.range_g * G
        s = np.linspace(-1.5 * limit, 1.5 * limit, 5001)
        ts = TimeSeries(s, 2560.0, channel_id="bogie-front-left-vertical")
        before = s.copy()
        noisy, clipped = add_sensor_noise(ts, spec, seed=3)
        z = synthesizer._channel_rng(3, ts.channel_id).standard_normal(s.size)
        sigma = spec.noise_sigma(2560.0)
        reference = np.clip(s + sigma * z, -limit, limit)
        assert np.array_equal(noisy.samples.view(np.int64),
                              reference.view(np.int64))
        assert np.array_equal(clipped, np.abs(s + sigma * z) > limit)
        assert clipped[0] and clipped[-1] and not clipped[s.size // 2]
        assert np.array_equal(s.view(np.int64), before.view(np.int64))

    def test_catalog_covers_all_locations(self):
        locs = {s.location for s in SENSOR_SPECS.values()}
        assert locs == {"carbody", "bogie", "axlebox"}
        assert SENSOR_SPECS["axlebox_mems"].range_g == 200.0
