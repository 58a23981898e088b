"""Synthetic track profiles, simulated sensor records, and sensor noise.

Profiles are sums of spatial sinusoids (either given explicitly or drawn
randomly inside a band and scaled to a target RMS), stored both sampled on a
fine grid and as component tables. simulate_run evaluates the acceleration a
wheel-mounted sensor would see analytically per component,

    a(t) = -(2 pi nu v(t))^2 A sin(2 pi nu x(t) + phi)
           + 2 pi nu dv/dt A cos(2 pi nu x(t) + phi),

so the simulated records contain no interpolation or differentiation error
and can serve as ground truth for the processing chain.

One sin/cos basis serves every channel. For the distinct angular
wavenumbers w of all component tables, S = sin(x w) and C = cos(x w) span
every sum of shifted sinusoids as a weighted sum of their columns:

    sin(w x + phi) = S cos(phi) + C sin(phi)
    cos(w x + phi) = C cos(phi) - S sin(phi)

The back wheel sits at x - wheelbase, which is the front wheel with every
phase shifted to phi - w wheelbase, and a noise profile's right rail
reuses every left wavenumber; so one product of [S | C] with a small
weight matrix gives the v^2 sin and dv/dt cos sums of all eight channels.
synth_profile samples its rails through the same kernel.

The basis is evaluated only at the nodes g h, h = PROFILE_SPACING_M (half a
wavelength at MAX_NU_CYCLES_PER_M), not at every sample. A weighted column
g(x) = sum a sin(w x) + b cos(w x) has the derivative weights
(a, b) -> (-b w, a w), so one product of the node basis with the rotated,
1/m!-scaled weights gives the Taylor coefficients g^(m)(node) / m!, m < J.
Each sample x is then a Horner polynomial in its offset d = x - g h from
the nearest node, |d| <= h / 2. With r = w_max h / 2 <= pi / 2, a
component's Taylor remainder is at most r^J / J! of its amplitude, and J is
the smallest order with r^J / J! <= TAYLOR_REMAINDER (J = 10 at
0.5 cycles/m, 23 at 10 cycles/m). The records are as exact as a per-sample
basis, at one sin/cos per node instead of per sample.

Impulse events model wheel/rail defects: a bipolar raised-cosine doublet in
acceleration (positive raised-cosine over the first half-duration, negative
over the second). The doublet has zero net area - a wheel crossing a defect
keeps following the rail, so it picks up no permanent vertical velocity - but
a nonzero first moment, which double-integrates into a displacement step and
reproduces the unrealistically large apparent geometry that impulsive axle
noise causes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import PlanTooShortError
from .spatial import TRC_SPACING_M, SpatialSeries
from .timeseries import KIND_ACCELERATION, TimeSeries

G = 9.81
DEFAULT_SAMPLE_RATE_HZ = 2560.0
DEFAULT_WHEELBASE_M = 2.5
PROFILE_SPACING_M = 0.05        # half a wavelength at MAX_NU_CYCLES_PER_M
LR_CORRELATION = 0.7            # of a noise profile's left and right rails
DEVIATION_BOUND_MM = 50.0       # synth_profile refuses larger deviations
MAX_NU_CYCLES_PER_M = 10.0
MAX_NOISE_COMPONENTS = 384
CHUNK_FLOATS = 1 << 20          # float64 working set of one basis chunk (8 MB)
TAYLOR_REMAINDER = 1e-17        # bound on a node polynomial's relative remainder

SIDES = ("left", "right")
POSITIONS = ("front", "back")
AXES = ("vertical", "lateral")


@dataclass(frozen=True)
class SensorSpec:
    """Accelerometer model: clipping range and white noise floor."""

    name: str
    location: str            # carbody | bogie | axlebox
    range_g: float
    noise_floor_ug_sqrthz: float

    def noise_sigma(self, sample_rate_hz: float) -> float:
        """Std dev in m/s^2 of the noise floor sampled at the given rate."""
        return self.noise_floor_ug_sqrthz * 1e-6 * G * np.sqrt(sample_rate_hz / 2.0)


SENSOR_SPECS = {
    "carbody_mems": SensorSpec("carbody_mems", "carbody", 3.0, 150.0),
    "bogie_mems": SensorSpec("bogie_mems", "bogie", 16.0, 300.0),
    "axlebox_mems": SensorSpec("axlebox_mems", "axlebox", 200.0, 2700.0),
    "carbody_iepe": SensorSpec("carbody_iepe", "carbody", 50.0, 3.0),
    "bogie_iepe": SensorSpec("bogie_iepe", "bogie", 50.0, 3.0),
    "axlebox_iepe": SensorSpec("axlebox_iepe", "axlebox", 500.0, 16.0),
}


@dataclass(frozen=True)
class ImpulseEvent:
    position_m: float
    amplitude_g: float
    duration_ms: float


@dataclass(frozen=True)
class TrackProfile:
    """Left/right vertical (z) and lateral (y) deviations in mm.

    Channel arrays are sampled every spacing_m over [0, length_m]; components
    maps each channel to an (n, 3) array of rows (nu, amplitude_mm, phase)
    whose sum reproduces the sampled array exactly.
    """

    length_m: float
    spacing_m: float
    z_left: np.ndarray
    z_right: np.ndarray
    y_left: np.ndarray
    y_right: np.ndarray
    components: dict

    def channel(self, side: str, axis: str) -> np.ndarray:
        return getattr(self, ("z_" if axis == "vertical" else "y_") + side)


@dataclass(frozen=True)
class SimConfig:
    """Kinematic run description: when, how fast, and what goes wrong."""

    speed_plan: tuple            # ((time_s, speed_mps), ...) from t = 0, linear
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    wheelbase_m: float = DEFAULT_WHEELBASE_M
    lateral_disturbance: dict | None = None   # {"rms_mps2":…, "band_hz": (lo,hi)}
    seed: int = 0
    sensor_location: str = "bogie"

    def __post_init__(self):
        plan = tuple((float(t), float(v)) for t, v in self.speed_plan)
        if len(plan) < 1:
            raise ValueError("speed plan needs at least one knot")
        if plan[0][0] != 0.0:
            raise ValueError(f"speed plan must start at t = 0 s; its first "
                             f"knot is at t = {plan[0][0]} s")
        times = [t for t, _ in plan]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("speed plan times must be non-decreasing")
        if any(v < 0 for _, v in plan):
            raise ValueError("speed plan speeds must be non-negative")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be > 0")
        if not self.wheelbase_m > 0:
            raise ValueError("wheelbase_m must be > 0")
        object.__setattr__(self, "speed_plan", plan)


@dataclass(frozen=True)
class SimResult:
    """Clean (noise-free) simulated records plus the kinematic truth."""

    channels: dict               # channel_id -> TimeSeries
    wheel_positions: dict        # channel_id -> positions of that wheel (m)
    speeds_mps: np.ndarray
    config: SimConfig


def _channel_rng(seed: int, channel_id: str) -> np.random.Generator:
    # stable per-channel stream: master seed + crc of the channel name
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(channel_id.encode())]))


def _taylor_order(w_max: float) -> int:
    """Smallest J with r^J / J! <= TAYLOR_REMAINDER, r = w_max h / 2: the
    relative remainder of a degree J - 1 Taylor step of at most h / 2."""
    r = 0.5 * w_max * PROFILE_SPACING_M
    order, term = 0, 1.0
    while term > TAYLOR_REMAINDER:
        order += 1
        term *= r / order
    return order


def _taylor_weights(w: np.ndarray, weights: np.ndarray, order: int) -> np.ndarray:
    """Weights on [sin(x w) | cos(x w)] of g^(m) / m!, m < order, for each
    column g of weights; block m holds columns m ncol .. (m + 1) ncol."""
    k = w.size
    a, b = weights[:k], weights[k:]
    blocks = [weights]
    for m in range(1, order):
        # d/dx (a sin(w x) + b cos(w x)) = -b w sin(w x) + a w cos(w x)
        a, b = -b * w[:, None] / m, a * w[:, None] / m
        blocks.append(np.vstack([a, b]))
    return np.hstack(blocks)


def _basis_sums(x: np.ndarray, w: np.ndarray, weights: np.ndarray):
    """Yield (lo, hi, [sin(x w) | cos(x w)] @ weights) over chunks of x.

    w holds k distinct angular wavenumbers and weights has 2k rows, the
    first k for the sin block. x must be non-decreasing. sin and cos are
    evaluated once per chunk and node that x visits, whatever the sample
    rate or the number of weight columns; a chunk's working set stays near
    CHUNK_FLOATS float64 values.
    """
    if np.any(np.diff(x) < 0):
        raise ValueError("sample positions must be non-decreasing")
    k, ncol = w.size, weights.shape[1]
    order = _taylor_order(w.max() if k else 0.0)
    taylor = _taylor_weights(w, weights, order)
    g = np.rint(x / PROFILE_SPACING_M)          # nearest node of each sample
    opens = np.diff(g, prepend=g[:1] - 1) != 0  # sample i is the first on its node
    # working set: per node its argument, basis and coefficients; per
    # sample its offset, gathered row and sums
    cost = ((3 * k + order * ncol) * np.cumsum(opens)
            + (3 * ncol + 2) * np.arange(1, x.size + 1))
    bounds = np.flatnonzero(np.diff(cost // CHUNK_FLOATS, prepend=-1, append=-1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        first = np.union1d(0, np.flatnonzero(opens[lo:hi]))
        node_x = g[lo + first] * PROFILE_SPACING_M
        arg = np.multiply.outer(node_x, w)
        basis = np.empty((first.size, 2 * k))
        np.sin(arg, out=basis[:, :k])
        np.cos(arg, out=basis[:, k:])
        coef = (basis @ taylor).reshape(first.size, order, ncol)
        node = np.repeat(np.arange(first.size), np.diff(first, append=hi - lo))
        delta = (x[lo:hi] - node_x[node])[:, None]
        sums = coef[node, order - 1]
        for m in range(order - 2, -1, -1):      # Horner in delta
            sums *= delta
            sums += coef[node, m]
        yield lo, hi, sums


def _sine_weights(w: np.ndarray, wj: np.ndarray, amp: np.ndarray,
                  phase: np.ndarray) -> np.ndarray:
    """Weights on [sin(x w) | cos(x w)] whose product is
    sum_j amp_j sin(wj_j x + phase_j); every wj_j must be in w."""
    idx = np.searchsorted(w, wj)
    col = np.zeros(2 * w.size)
    np.add.at(col, idx, amp * np.cos(phase))
    np.add.at(col, w.size + idx, amp * np.sin(phase))
    return col


def _angular(tables) -> np.ndarray:
    """Distinct angular wavenumbers of the component tables, sorted."""
    return np.unique(np.concatenate([2.0 * np.pi * c[:, 0] for c in tables]))


def _sine_sums(x: np.ndarray, tables) -> np.ndarray:
    """Row i is sum_j A_j sin(2 pi nu_j x + phi_j) over the (nu, A, phi)
    rows of tables[i]; all tables share one basis."""
    w = _angular(tables)
    weights = np.column_stack([
        _sine_weights(w, 2.0 * np.pi * c[:, 0], c[:, 1], c[:, 2]) for c in tables])
    out = np.empty((len(tables), x.size))
    for lo, hi, sums in _basis_sums(x, w, weights):
        out[:, lo:hi] = sums.T
    return out


def _noise_components(rng: np.random.Generator, band, rms_mm: float,
                      length_m: float) -> np.ndarray:
    """Random in-band sinusoids with equal amplitudes rms_mm * sqrt(2 / n);
    synth_profile scales them so the sampled profile hits rms_mm exactly."""
    lo, hi = band
    if not 0.0 < lo < hi <= MAX_NU_CYCLES_PER_M:
        raise ValueError(f"band must lie within (0, {MAX_NU_CYCLES_PER_M}] "
                         f"cycles/m, got {band}")
    n = int(round((hi - lo) * length_m))
    n = int(np.clip(n, 16, MAX_NOISE_COMPONENTS))
    nu = np.sort(rng.uniform(lo, hi, n))
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    amp = np.full(n, rms_mm * np.sqrt(2.0 / n))
    return np.column_stack([nu, amp, phase])


def synth_profile(length_m: float, spec: dict, seed: int = 0,
                  lateral_spec: dict | None = None) -> TrackProfile:
    """Generate a track profile from a spectral description.

    spec is either
      {"type": "sines", "components": [{"nu":…, "amplitude_mm":…, "phase":…}]}
    for an exact deterministic sum (applied to both rails), or
      {"type": "noise", "band_cycles_per_m": (lo, hi), "rms_mm": r}
    for band-limited random roughness with left/right correlation
    LR_CORRELATION. ``lateral_spec`` (same shape) feeds the y channels;
    without it they are zero. The rails are sampled every PROFILE_SPACING_M,
    and a deviation beyond DEVIATION_BOUND_MM raises ValueError. Same seed,
    same profile; different seed, different roughness.
    """
    if not length_m > 0:
        raise ValueError("length_m must be > 0")
    n_grid = int(round(length_m / PROFILE_SPACING_M)) + 1
    grid_x = PROFILE_SPACING_M * np.arange(n_grid)

    def build(axis_spec: dict | None, axis: str):
        """Component tables of the left and right rail, and the rails."""
        if axis_spec is None:
            zeros = np.zeros((0, 3))
            return {"left": zeros, "right": zeros}, {
                "left": np.zeros(n_grid), "right": np.zeros(n_grid)}
        kind = axis_spec.get("type")
        if kind == "sines":
            rows = [(c["nu"], c["amplitude_mm"], c.get("phase", 0.0))
                    for c in axis_spec["components"]]
            comps = np.asarray(rows, dtype=float).reshape(-1, 3)
            if np.any(comps[:, 0] <= 0) or np.any(comps[:, 0] > MAX_NU_CYCLES_PER_M):
                raise ValueError(f"sinusoid nu outside (0, {MAX_NU_CYCLES_PER_M}] "
                                 f"cycles/m")
            (rail,) = _sine_sums(grid_x, [comps])
            return {"left": comps, "right": comps.copy()}, {
                "left": rail, "right": rail.copy()}
        if kind == "noise":
            band = tuple(axis_spec["band_cycles_per_m"])
            rms = float(axis_spec["rms_mm"])
            if not rms >= 0:
                raise ValueError("rms_mm must be >= 0")
            rng = _channel_rng(seed, f"profile-{axis}")
            left = _noise_components(rng, band, rms, length_m)
            indep = _noise_components(rng, band, rms, length_m)
            # both draws through one basis, each scaled to hit rms exactly;
            # the right rail mixes them, so it needs no basis of its own
            raw = _sine_sums(grid_x, [left, indep])
            for comps, rail in zip((left, indep), raw):
                realized = np.sqrt(np.mean(rail ** 2))
                if realized > 0:
                    comps[:, 1] *= rms / realized
                    rail *= rms / realized
            rho, rho_c = LR_CORRELATION, np.sqrt(1.0 - LR_CORRELATION ** 2)
            right = np.vstack([left * [1.0, rho, 1.0], indep * [1.0, rho_c, 1.0]])
            return {"left": left, "right": right}, {
                "left": raw[0], "right": rho * raw[0] + rho_c * raw[1]}
        raise ValueError(f"unknown profile spec type {kind!r}")

    components = {}
    sampled = {}
    for axis, axis_spec in (("vertical", spec), ("lateral", lateral_spec)):
        tables, rails = build(axis_spec, axis)
        for side in SIDES:
            components[f"{axis}-{side}"] = tables[side]
            sampled[f"{axis}-{side}"] = rails[side]

    worst = max(np.max(np.abs(v)) if v.size else 0.0 for v in sampled.values())
    if worst > DEVIATION_BOUND_MM:
        raise ValueError(f"profile deviation {worst:.1f} mm exceeds bound "
                         f"{DEVIATION_BOUND_MM} mm")
    return TrackProfile(float(length_m), PROFILE_SPACING_M,
                        sampled["vertical-left"], sampled["vertical-right"],
                        sampled["lateral-left"], sampled["lateral-right"],
                        components)


def profile_spatial_series(profile: TrackProfile, side: str,
                           axis: str = "vertical") -> SpatialSeries:
    """Ground-truth profile as a SpatialSeries in mm on the TRC_SPACING_M grid."""
    step = TRC_SPACING_M / profile.spacing_m
    if abs(step - round(step)) > 1e-9:
        raise ValueError(f"grid step {TRC_SPACING_M} m is not a multiple of "
                         f"the profile grid {profile.spacing_m} m")
    values = profile.channel(side, axis)[::int(round(step))]
    return SpatialSeries(values, TRC_SPACING_M, 0.0, units="mm")


def _plan_arrays(config: SimConfig):
    t = np.array([k[0] for k in config.speed_plan])
    v = np.array([k[1] for k in config.speed_plan])
    return t, v


def _trajectory(config: SimConfig, length_m: float):
    """Sampled speed, acceleration dv/dt and front-wheel position, ending at
    the first sample at or past length_m. Raises PlanTooShortError if the
    plan runs out first."""
    fs = config.sample_rate_hz
    kt, kv = _plan_arrays(config)
    # analytic distance at the knots to size the sample arrays up front
    knot_x = np.concatenate(([0.0], np.cumsum(0.5 * (kv[1:] + kv[:-1]) * np.diff(kt))))
    if knot_x[-1] < length_m:
        raise PlanTooShortError(
            f"speed plan ends at t={kt[-1]} s with the front wheel at "
            f"{knot_x[-1]:.1f} m of {length_m} m")
    seg = int(np.searchsorted(knot_x, length_m, side="right")) - 1
    seg = min(seg, kt.size - 2)
    need = length_m - knot_x[seg]
    v0 = kv[seg]
    seg_dt = kt[seg + 1] - kt[seg]
    slope = (kv[seg + 1] - kv[seg]) / seg_dt if seg_dt > 0 else 0.0
    if slope != 0.0:
        tau = (np.sqrt(max(v0 * v0 + 2.0 * slope * need, 0.0)) - v0) / slope
    else:
        tau = need / v0 if v0 > 0 else seg_dt
    t_reach = min(kt[seg] + tau, kt[-1])
    n = int(np.ceil(t_reach * fs - 1e-9)) + 1
    n = min(n, int(np.floor(kt[-1] * fs + 1e-9)) + 1)
    t = np.arange(n) / fs
    v = np.interp(t, kt, kv)
    dt = 1.0 / fs
    x = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dt)))
    stop = min(int(np.searchsorted(x, length_m)) + 1, n)
    t, v, x = t[:stop], v[:stop], x[:stop]
    # dv/dt: slope of the active plan segment
    if kt.size > 1:
        seg = np.clip(np.searchsorted(kt, t, side="right") - 1, 0, kt.size - 2)
        seg_dt = kt[seg + 1] - kt[seg]
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = np.where(seg_dt > 0, (kv[seg + 1] - kv[seg]) / seg_dt, 0.0)
    else:
        slopes = np.zeros_like(t)
    return t, v, slopes, x


def _band_noise(rng: np.random.Generator, n: int, fs: float, rms: float,
                band_hz) -> np.ndarray:
    """Band-limited Gaussian noise via spectral masking, scaled to rms."""
    spec = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, 1.0 / fs)
    lo, hi = band_hz
    spec[(f < lo) | (f > hi)] = 0.0
    x = np.fft.irfft(spec, n=n)
    std = x.std()
    return x * (rms / std) if std > 0 else x


def simulate_run(profile: TrackProfile, config: SimConfig) -> SimResult:
    """Noise-free accelerations for front/back, left/right, vertical/lateral.

    Channel ids follow ``{location}-{front|back}-{side}-{axis}``. The back
    wheel trails the front one by the wheelbase, so at constant speed its
    record is the front record delayed by wheelbase/speed. Impulse events and
    sensor noise are separate stages (add_impulses, add_sensor_noise).
    """
    _, v, dvdt, x_front = _trajectory(config, profile.length_m)
    loc = config.sensor_location
    keys = [(pos, side, axis) for pos in POSITIONS for side in SIDES for axis in AXES]
    # per channel, weights of its v^2 sin sum and of its dv/dt cos sum (a
    # sin sum with every phase advanced by pi/2); the back wheel is the
    # front one with every phase shifted by -w wheelbase
    w = _angular(profile.components.values())
    weights = []
    for pos, side, axis in keys:
        comps = profile.components[f"{axis}-{side}"]
        wj = 2.0 * np.pi * comps[:, 0]
        amp_m = comps[:, 1] * 1e-3          # mm -> m
        phase = comps[:, 2] - (0.0 if pos == "front" else wj * config.wheelbase_m)
        weights += [_sine_weights(w, wj, amp_m * wj * wj, phase),
                    _sine_weights(w, wj, amp_m * wj, phase + 0.5 * np.pi)]
    accs = np.empty((len(keys), x_front.size))
    v2 = v * v
    for lo, hi, sums in _basis_sums(x_front, w, np.column_stack(weights)):
        accs[:, lo:hi] = (dvdt[lo:hi, None] * sums[:, 1::2]
                          - v2[lo:hi, None] * sums[:, 0::2]).T

    channels: dict[str, TimeSeries] = {}
    wheel_positions: dict[str, np.ndarray] = {}
    x_back = x_front - config.wheelbase_m
    for (pos, side, axis), acc in zip(keys, accs):
        cid = f"{loc}-{pos}-{side}-{axis}"
        if axis == "lateral" and config.lateral_disturbance:
            d = config.lateral_disturbance
            rng = _channel_rng(config.seed, f"lateral-disturbance-{cid}")
            acc = acc + _band_noise(rng, acc.size, config.sample_rate_hz,
                                    float(d["rms_mps2"]), tuple(d["band_hz"]))
        channels[cid] = TimeSeries(acc, config.sample_rate_hz, 0.0,
                                   cid, KIND_ACCELERATION)
        wheel_positions[cid] = x_front if pos == "front" else x_back
    return SimResult(channels, wheel_positions, v, config)


def add_impulses(ts: TimeSeries, events, wheel_positions_m: np.ndarray,
                 amplitude_scale: float = 1.0) -> TimeSeries:
    """Add the bipolar raised-cosine doublet of each crossed event.

    Events whose position the wheel never reaches are skipped. The doublet
    peaks at +/- amplitude_g * 9.81 * amplitude_scale and spans duration_ms
    centered on the crossing instant.
    """
    if wheel_positions_m.size != len(ts):
        raise ValueError("wheel positions must match the record length")
    fs = ts.sample_rate_hz
    t = np.arange(len(ts)) / fs
    out = ts.samples.copy()
    for ev in events:
        pos = wheel_positions_m
        if ev.position_m < pos[0] or ev.position_m > pos[-1]:
            continue
        t0 = float(np.interp(ev.position_m, pos, t))
        amp = ev.amplitude_g * G * amplitude_scale
        half = ev.duration_ms * 1e-3 / 2.0
        rel = t - t0
        lead = (rel >= -half) & (rel < 0.0)
        trail = (rel >= 0.0) & (rel <= half)
        out[lead] += amp * 0.5 * (1.0 - np.cos(2.0 * np.pi * (rel[lead] + half) / half))
        out[trail] -= amp * 0.5 * (1.0 - np.cos(2.0 * np.pi * rel[trail] / half))
    return replace(ts, samples=out)


def add_sensor_noise(ts: TimeSeries, spec: SensorSpec, seed: int = 0):
    """White sensor-floor noise plus range clipping.

    Returns (noisy_series, clipped_mask): sigma is the noise floor scaled by
    sqrt(fs/2), the clip limit is +/- range_g * 9.81, and the mask marks every
    sample that hit it. The noise stream is derived from seed + channel id,
    so channels never share a stream and reruns are identical.
    """
    rng = _channel_rng(seed, ts.channel_id)
    sigma = spec.noise_sigma(ts.sample_rate_hz)
    noisy = ts.samples + sigma * rng.standard_normal(len(ts))
    limit = spec.range_g * G
    clipped = np.abs(noisy) > limit
    return replace(ts, samples=np.clip(noisy, -limit, limit)), clipped
