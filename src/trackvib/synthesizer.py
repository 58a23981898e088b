"""Synthetic track profiles, simulated sensor records, and sensor noise.

Profiles are sums of spatial sinusoids (either given explicitly or drawn
randomly inside a band and scaled to a target RMS), stored both sampled on a
fine grid and as component tables. simulate_run evaluates the acceleration a
wheel-mounted sensor would see analytically per component,

    a(t) = -(2 pi nu v(t))^2 A sin(2 pi nu x(t) + phi)
           + 2 pi nu dv/dt A cos(2 pi nu x(t) + phi),

so the simulated records contain no interpolation or differentiation error
and can serve as ground truth for the processing chain.

One node basis serves every channel. For the distinct angular wavenumbers
w of all component tables, the columns of exp(i x w) = cos(x w) + i sin(x w)
span every sum of shifted sinusoids:

    sin(w x + phi) = sin(x w) cos(phi) + cos(x w) sin(phi)

A wheel on rail z sees a(t) = v^2 z''(x) + dv/dt z'(x), so simulate_run
weights the basis with one z'' column per rail that has components, and
one z' column more only when dv/dt is non-zero somewhere; a rail without
components gives +0.0 and never enters the kernel. Both wheels ride the
same rails, so the columns are evaluated once at the distinct positions of
the front and the back wheel, and each channel gathers its samples back
from them. synth_profile samples the rails of both axes through the same
kernel, in one call.

The basis is evaluated only at the nodes g h, h = PROFILE_SPACING_M (half a
wavelength at MAX_NU_CYCLES_PER_M), not at every sample. A weighted column
g(x) = sum a sin(w x) + b cos(w x) has the derivative weights
(a, b) -> (-b w, a w), so one product of the node basis with the rotated,
1/m!-scaled weights gives the Taylor coefficients g^(m)(node) / m!, m < J.
Each sample x is then a Horner polynomial in its offset d = x - g h from
the nearest node, |d| <= h / 2. With r = w_max max|d| <= pi / 2, a
component's Taylor remainder is at most r^J / J! of its amplitude, and J is
the smallest order with r^J / J! <= TAYLOR_REMAINDER (J = 10 at
0.5 cycles/m, 23 at 10 cycles/m, when some |d| is h / 2; J = 1 when every
sample sits on its node, as synth_profile's do).

Nor is sin/cos evaluated at every node. A node g = a B + j, B = ANGLE_BLOCK
and 0 <= j < B, is its anchor a B plus an offset, and

    exp(i w g h) = exp(i w a B h) exp(i w j h)

builds the complex node basis with one complex product per element from a
table of exp(i w j h), j < B, made once per call, and exp(i w a B h) at
each anchor, whose argument is the exact integer a B times h. That is one
sin/cos per B nodes, plus the B offsets. The basis's float64 view
interleaves cos and sin, and meets the Taylor weights interleaved the same
way. The error grows with |w x|, as the rounding of a per-node argument
w g h does. Against a long double per-component sum at 0.02-0.5 cycles/m it
measured 4.9e-13 of the peak on a direct 2 km run (2.7e-13 with a sin/cos
per node), and 2.3e-12 (1.5e-12) on 9990-10000 m.

A run is simulated a block of samples at a time (simulate_blocks, which
`trackvib simulate` uses with 10 s blocks), and nothing it holds grows
with the recording. The Trajectory, per sample the speed, dv/dt and
front-wheel position (24 B), is built a block at a time too
(_trajectory_blocks): v and dv/dt follow from the sample time, and x
carries the trapezoid sum on from the previous block's last sample, so
each block is the whole run's slice bit for bit. Held per block: its
trajectory, the distinct wheel positions and the node basis of
simulate_run, the eight channels and the sensor noise (one generator per
channel, carried across blocks, whose draws in parts are the whole draw).
Held for the run, and following the track: the samples that bracket each
point of the TRC_SPACING_M grid, which the ground truth's speed is
interpolated from, and each event's doublet (placed once from the samples
that bracket its crossing, and split where it straddles a block bound).
simulate_run(profile, config) is the one block that spans the run, and
add_impulses and add_sensor_noise are the same stages on a whole record.

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
from .layout import (AXES, DEFAULT_WHEELBASE_M, G, POSITIONS, SIDES,
                     TRC_SPACING_M, SensorSpec, channel_id, parse_channel_id)
# bench/workloads.py reads SENSOR_SPECS here
from .layout import SENSOR_SPECS  # noqa: F401
from .spatial import SpatialSeries
from .timeseries import KIND_ACCELERATION, TimeSeries

DEFAULT_SAMPLE_RATE_HZ = 2560.0
PROFILE_SPACING_M = 0.05        # half a wavelength at MAX_NU_CYCLES_PER_M
LR_CORRELATION = 0.7            # of a noise profile's left and right rails
DEVIATION_BOUND_MM = 50.0       # synth_profile refuses larger deviations
MAX_NU_CYCLES_PER_M = 10.0
MAX_NOISE_COMPONENTS = 384
CHUNK_FLOATS = 1 << 18          # float64 working set of one basis chunk (2 MB)
TRAJECTORY_BLOCK = 1 << 14      # samples per block of a whole-run trajectory
TAYLOR_REMAINDER = 1e-17        # bound on a node polynomial's relative remainder
ANGLE_BLOCK = 64                # nodes per anchor of the angle-addition tables


@dataclass(frozen=True)
class ImpulseEvent:
    position_m: float
    amplitude_g: float
    duration_ms: float

    def __post_init__(self):
        if not self.duration_ms > 0:
            raise ValueError(f"impulse duration_ms must be > 0, got "
                             f"{self.duration_ms}")


@dataclass(frozen=True)
class TrackProfile:
    """Left/right vertical (z) and lateral (y) deviations in mm.

    Channel arrays are sampled every PROFILE_SPACING_M over [0, length_m];
    components maps each channel to an (n, 3) array of rows (nu,
    amplitude_mm, phase) whose sum reproduces the sampled array exactly.
    """

    length_m: float
    z_left: np.ndarray
    z_right: np.ndarray
    y_left: np.ndarray
    y_right: np.ndarray
    components: dict

    def channel(self, side: str, axis: str) -> np.ndarray:
        return getattr(self, ("z_" if axis == "vertical" else "y_") + side)

    def spatial_series(self, side: str, axis: str = "vertical") -> SpatialSeries:
        """Ground-truth profile as a SpatialSeries in mm on the TRC_SPACING_M grid."""
        values = self.channel(side, axis)[::round(TRC_SPACING_M / PROFILE_SPACING_M)]
        return SpatialSeries(values, 0.0)


@dataclass(frozen=True)
class SimConfig:
    """Kinematic run description: when, how fast, and what goes wrong."""

    speed_plan: tuple            # ((time_s, speed_mps), ...) from t = 0, linear
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    wheelbase_m: float = DEFAULT_WHEELBASE_M
    seed: int = 0
    sensor_location: str = "bogie"

    def __post_init__(self):
        plan = tuple((float(t), float(v)) for t, v in self.speed_plan)
        if len(plan) < 2:
            raise ValueError("speed plan needs at least two knots")
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


def _taylor_order(w_max: float, reach: float) -> int:
    """Smallest J with r^J / J! <= TAYLOR_REMAINDER, r = w_max reach: the
    relative remainder of a degree J - 1 Taylor step of at most reach."""
    r = w_max * reach
    order, term = 0, 1.0
    while term > TAYLOR_REMAINDER:
        order += 1
        term *= r / order
    return order


def _taylor_weights(w: np.ndarray, weights: np.ndarray, order: int) -> np.ndarray:
    """Weights of g^(m) / m!, m < order, for each column g of weights, as
    rows m ncol .. (m + 1) ncol against the node basis's float64 view,
    whose columns interleave cos(x w_j) and sin(x w_j)."""
    k, ncol = w.size, weights.shape[1]
    # g = a sin(w x) + b cos(w x) is Re(conj(u) exp(i w x)) with u = b + i a,
    # and d/dx multiplies u by -i w
    u = np.empty((order, ncol, k), dtype=complex)
    u[0].real, u[0].imag = weights[k:].T, weights[:k].T
    for m in range(1, order):
        np.multiply(u[m - 1], -1j * (w / m), out=u[m])
    return u.view(np.float64).reshape(order * ncol, 2 * k)


def _phasors(arg: np.ndarray) -> np.ndarray:
    """exp(i arg), from one cos and one sin of arg."""
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _basis_sums(x: np.ndarray, w: np.ndarray, weights: np.ndarray):
    """Iterator of (lo, hi, [sin(x w) | cos(x w)] @ weights) over chunks of x.

    w holds k distinct angular wavenumbers and weights has 2k rows, the
    first k for the sin block. x must be non-decreasing. The node basis is
    complex, exp(i w g h), and sin and cos are evaluated for ANGLE_BLOCK
    offsets per call and once per anchor that x visits (a chunk that
    starts on the previous chunk's last anchor takes its phasors), whatever
    the sample rate, the chunking or the number of weight columns; a
    chunk's working set stays near CHUNK_FLOATS float64 values. Each block
    is the (hi - lo, ncol) transpose of a C-contiguous array, so its
    columns are contiguous.
    """
    if np.any(np.diff(x) < 0):
        raise ValueError("sample positions must be non-decreasing")
    k, ncol = w.size, weights.shape[1]
    g = np.rint(x / PROFILE_SPACING_M)          # nearest node of each sample
    # samples on their nodes, as synth_profile's, need no higher term
    reach = np.max(np.abs(x - g * PROFILE_SPACING_M), initial=0.0)
    order = _taylor_order(w.max() if k else 0.0, reach)
    taylor = _taylor_weights(w, weights, order)
    opens = np.diff(g, prepend=g[:1] - 1) != 0  # sample i is the first on its node
    # working set: per node its complex basis (2k floats), k floats of slack
    # and its order tables; per sample its node, node position and offset,
    # its sums, a repeated table row and the caller's gathers from the sums.
    # The slack holds a chunk's basis to at most 2/3 of CHUNK_FLOATS: glibc
    # raises its mmap and trim thresholds to the largest block freed, and
    # the peak RSS and timings of later stages in the process follow them.
    # At 2 MB a chunk frees at most a 1.3 MB basis (5.5 MB at 8 MB).
    cost = ((3 * k + order * ncol) * np.cumsum(opens)
            + (3 * ncol + 3) * np.arange(1, x.size + 1))
    bounds = np.flatnonzero(np.diff(cost // CHUNK_FLOATS, prepend=-1, append=-1))
    del cost
    opens[bounds[:-1]] = True           # a chunk's first sample opens its node
    # node g = a ANGLE_BLOCK + j: exp(i w j h), j < ANGLE_BLOCK
    offsets = _phasors(np.multiply.outer(PROFILE_SPACING_M * np.arange(ANGLE_BLOCK), w))

    def chunks():
        last = (None, None)     # the previous chunk's last anchor, its phasors
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sums, last = _node_polynomials(x[lo:hi], g[lo:hi], opens[lo:hi], w,
                                           offsets, taylor, order, last)
            yield lo, hi, sums.T

    return chunks()


def _node_polynomials(x: np.ndarray, g: np.ndarray, opens: np.ndarray,
                      w: np.ndarray, offsets: np.ndarray, taylor: np.ndarray,
                      order: int, last: tuple):
    """(ncol, x.size) sums of one chunk of _basis_sums, and the chunk's last
    anchor with its phasors: each sample x a Horner polynomial in its
    offset from its node g (opens marks the first sample on each), whose
    coefficients are the node basis times taylor. last is the previous
    chunk's last anchor and phasors, which a chunk that starts on the same
    anchor takes instead of evaluating it again."""
    k = w.size
    first = np.flatnonzero(opens)
    node_g = g[first]
    node_x = node_g * PROFILE_SPACING_M
    anchor, offset = np.divmod(node_g, ANGLE_BLOCK)
    runs = np.flatnonzero(np.diff(anchor, prepend=anchor[0] - 1))
    carried = int(anchor[0] == last[0])
    # the exact integer a ANGLE_BLOCK times h: an anchor node is g h
    anchors = _phasors(np.multiply.outer(
        (anchor[runs[carried:]] * ANGLE_BLOCK) * PROFILE_SPACING_M, w))
    if carried:
        anchors = np.concatenate((last[1][None], anchors))
    offset = offset.astype(np.intp)
    # exp(i w g h) = exp(i w a B h) exp(i w j h), one product per element
    basis = np.empty((first.size, k), dtype=complex)
    for r0, r1, at_anchor in zip(runs, np.append(runs[1:], first.size), anchors):
        np.multiply(offsets[offset[r0:r1]], at_anchor, out=basis[r0:r1])
    # tables[m] is the contiguous (ncol, nodes) table of g^(m)(node) / m!
    tables = (taylor @ basis.view(np.float64).T).reshape(order, -1, first.size)
    del basis
    # a node's samples are a run of x: its row entries repeat over the run
    run = np.diff(first, append=x.size)
    delta = x - np.repeat(node_x, run)
    sums = np.repeat(tables[order - 1], run, axis=1)
    for m in range(order - 2, -1, -1):          # Horner in delta
        sums *= delta
        sums += np.repeat(tables[m], run, axis=1)
    return sums, (anchor[-1], anchors[-1].copy())


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

    def draws(axis_spec: dict | None, axis: str) -> list:
        """Component tables the rails of an axis are built from: one for
        sines, the left rail's and an independent draw for noise."""
        if axis_spec is None:
            return []
        kind = axis_spec.get("type")
        if kind == "sines":
            rows = [(c["nu"], c["amplitude_mm"], c.get("phase", 0.0))
                    for c in axis_spec["components"]]
            comps = np.asarray(rows, dtype=float).reshape(-1, 3)
            if np.any(comps[:, 0] <= 0) or np.any(comps[:, 0] > MAX_NU_CYCLES_PER_M):
                raise ValueError(f"sinusoid nu outside (0, {MAX_NU_CYCLES_PER_M}] "
                                 f"cycles/m")
            return [comps]
        if kind == "noise":
            band = tuple(axis_spec["band_cycles_per_m"])
            rms = float(axis_spec["rms_mm"])
            if not rms >= 0:
                raise ValueError("rms_mm must be >= 0")
            rng = _channel_rng(seed, f"profile-{axis}")
            return [_noise_components(rng, band, rms, length_m) for _ in range(2)]
        raise ValueError(f"unknown profile spec type {kind!r}")

    axes = (("vertical", spec), ("lateral", lateral_spec))
    drawn = {axis: draws(axis_spec, axis) for axis, axis_spec in axes}
    # the tables of both axes through one basis
    raw = iter(_sine_sums(grid_x, [c for tables in drawn.values() for c in tables]))
    components = {}
    sampled = {}
    for axis, axis_spec in axes:
        tables = drawn[axis]
        rails = [next(raw) for _ in tables]
        if not tables:
            left = right = np.zeros((0, 3))
            z_left, z_right = np.zeros(n_grid), np.zeros(n_grid)
        elif axis_spec["type"] == "sines":
            (left,), (z_left,) = tables, rails
            right, z_right = left.copy(), z_left.copy()
        else:
            # each draw scaled to hit rms exactly; the right rail mixes
            # them, so it needs no basis of its own
            rms = float(axis_spec["rms_mm"])
            for comps, rail in zip(tables, rails):
                realized = np.sqrt(np.mean(rail ** 2))
                if realized > 0:
                    comps[:, 1] *= rms / realized
                    rail *= rms / realized
            rho, rho_c = LR_CORRELATION, np.sqrt(1.0 - LR_CORRELATION ** 2)
            left, indep = tables
            right = np.vstack([left * [1.0, rho, 1.0], indep * [1.0, rho_c, 1.0]])
            z_left, z_right = rails[0], rho * rails[0] + rho_c * rails[1]
        for side, comps, rail in (("left", left, z_left), ("right", right, z_right)):
            components[f"{axis}-{side}"] = comps
            sampled[f"{axis}-{side}"] = rail

    worst = max(np.max(np.abs(v)) if v.size else 0.0 for v in sampled.values())
    if worst > DEVIATION_BOUND_MM:
        raise ValueError(f"profile deviation {worst:.1f} mm exceeds bound "
                         f"{DEVIATION_BOUND_MM} mm")
    return TrackProfile(float(length_m),
                        sampled["vertical-left"], sampled["vertical-right"],
                        sampled["lateral-left"], sampled["lateral-right"],
                        components)


def _sample_plan(config: SimConfig, length_m: float):
    """(n, knot times, knot speeds, knot slopes): n bounds the samples of a
    run of length_m, and segment j of the plan has dv/dt slopes[j] (a
    zero-length segment steps, slope 0). Raises PlanTooShortError if the
    plan runs out before length_m."""
    fs = config.sample_rate_hz
    kt, kv = np.array(config.speed_plan).T
    # analytic distance at the knots to size the run up front
    knot_x = np.concatenate(([0.0], np.cumsum(0.5 * (kv[1:] + kv[:-1]) * np.diff(kt))))
    if knot_x[-1] < length_m:
        raise PlanTooShortError(
            f"speed plan ends at t={kt[-1]} s with the front wheel at "
            f"{knot_x[-1]:.1f} m of {length_m} m")
    knot_dt = np.diff(kt)
    with np.errstate(divide="ignore", invalid="ignore"):
        knot_slope = np.where(knot_dt > 0, np.diff(kv) / knot_dt, 0.0)
    seg = int(np.searchsorted(knot_x, length_m, side="right")) - 1
    seg = min(seg, kt.size - 2)
    need = length_m - knot_x[seg]
    v0 = kv[seg]
    slope = knot_slope[seg]
    if slope != 0.0:
        tau = (np.sqrt(max(v0 * v0 + 2.0 * slope * need, 0.0)) - v0) / slope
    else:
        tau = need / v0 if v0 > 0 else knot_dt[seg]
    t_reach = min(kt[seg] + tau, kt[-1])
    # the first sample at or past t_reach and a spare one: there, the
    # sampled trapezoid sum can fall a rounding short of length_m
    n = int(np.ceil(t_reach * fs - 1e-9)) + 2
    n = min(n, int(np.floor(kt[-1] * fs + 1e-9)) + 1)
    return n, kt, kv, knot_slope


def _trajectory_blocks(config: SimConfig, length_m: float, block_samples: int):
    """Iterator of the run's Trajectory, block_samples samples a block,
    ending at the first sample at or past length_m. Raises
    PlanTooShortError before it is iterated if the plan runs out first.

    v and dv/dt are functions of the sample time alone. dv/dt is the slope
    of the active plan segment: segment j holds the samples from the first
    at or past knot j to the first at or past knot j + 1, so the samples
    before knot 1 are the first segment's, and those from the last knot on
    the last segment's. x is the running trapezoid sum of v, carried from
    one block's last sample into the next, so every block is the same
    slice of the whole run's sum, bit for bit.
    """
    n, kt, kv, knot_slope = _sample_plan(config, length_m)
    fs = config.sample_rate_hz

    def blocks():
        v_last = x_last = 0.0
        for k0 in range(0, n, block_samples):
            t = np.arange(k0, min(k0 + block_samples, n)) / fs
            v = np.interp(t, kt, kv)
            # the block's first sample at or past each inner knot
            opens = np.searchsorted(t, kt[1:-1])
            dvdt = np.repeat(knot_slope, np.diff(opens, prepend=0, append=t.size))
            del t
            # step[i] takes sample k0 + i - 1 to k0 + i; the first block's
            # sample 0 is at 0 m, a later block's starts from x_last
            step = np.empty(v.size)
            step[0] = v[0] + v_last if k0 else 0.0
            np.add(v[1:], v[:-1], out=step[1:])
            step *= 0.5
            step *= 1.0 / fs
            step[0] += x_last
            x = np.cumsum(step, out=step)
            stop = int(np.searchsorted(x, length_m)) + 1
            if stop <= x.size:
                yield Trajectory(v[:stop], dvdt[:stop], x[:stop], k0)
                return
            v_last, x_last = v[-1], x[-1]
            yield Trajectory(v, dvdt, x, k0)
            del v, dvdt, x, step            # before the next block is built

    return blocks()


def _trajectory(config: SimConfig, length_m: float):
    """Sampled speed, acceleration dv/dt and front-wheel position of the
    whole run: the blocks of _trajectory_blocks, concatenated into three
    arrays sized up front."""
    n, _, _, _ = _sample_plan(config, length_m)
    whole = np.empty((3, n))
    stop = 0
    for block in _trajectory_blocks(config, length_m, TRAJECTORY_BLOCK):
        stop = block.start + len(block)
        for row, part in zip(whole, (block.v, block.dvdt, block.x_front)):
            row[block.start:stop] = part
    return whole[0, :stop], whole[1, :stop], whole[2, :stop]


def _distinct(x: np.ndarray):
    """Sorted distinct values of x and, per element, its index among them.
    A stable sort merges the sorted runs x is made of in linear time."""
    order = np.argsort(x, kind="stable")
    ranked = x[order]
    opens = np.empty(x.size, dtype=bool)
    opens[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=opens[1:])
    distinct = ranked[opens]
    del ranked                                  # before the index is built
    ids = np.cumsum(opens, dtype=np.int32)      # half of intp: runs are < 2**31
    ids -= 1
    index = np.empty(x.size, dtype=np.int32)
    index[order] = ids
    return distinct, index


@dataclass(frozen=True)
class Trajectory:
    """Per sample of a run, or of a block of it, the speed, dv/dt and
    front-wheel position (24 B). start is the run's index of sample 0."""

    v: np.ndarray
    dvdt: np.ndarray
    x_front: np.ndarray
    start: int = 0

    @classmethod
    def of(cls, profile: TrackProfile, config: SimConfig) -> Trajectory:
        """The whole run's trajectory. Raises PlanTooShortError if the plan
        ends before the profile."""
        return cls(*_trajectory(config, profile.length_m))

    def __len__(self) -> int:
        return self.x_front.size


def simulate_run(profile: TrackProfile, config: SimConfig,
                 trajectory: Trajectory | None = None) -> SimResult:
    """Noise-free accelerations for front/back, left/right, vertical/lateral.

    Channel ids are channel_id(location, position, side, axis). The back
    wheel trails the front one by the wheelbase, so at constant speed its
    record is the front record delayed by wheelbase/speed. A wheel on rail
    z sees v^2 z''(x) + dv/dt z'(x): one _basis_sums call evaluates z'' of
    each rail with components, and z' only where the speed varies, at the
    distinct positions of both wheels, and each channel gathers its wheel's
    samples from them. A rail without components gives +0.0. Impulse
    events and sensor noise are separate stages (add_impulses,
    add_sensor_noise).

    trajectory, a block of the run's trajectory (_trajectory_blocks),
    limits the run to its samples: the records, positions and speeds then
    start at its start, and only the block's samples are ever held.
    Without it the block spans the run.
    """
    traj = Trajectory.of(profile, config) if trajectory is None else trajectory
    v, dvdt, x_front = traj.v, traj.dvdt, traj.x_front
    n = x_front.size
    loc = config.sensor_location
    keys = [(pos, side, axis) for pos in POSITIONS for side in SIDES for axis in AXES]
    rail_tables = [profile.components[f"{axis}-{side}"]
                   for side in SIDES for axis in AXES]
    rails = [q for q, comps in enumerate(rail_tables) if comps.size]
    # accs[p, q]: wheel POSITIONS[p] on rail q; a rail without components stays +0.0
    accs = np.zeros((len(POSITIONS), len(rail_tables), n))
    if rails:
        tables = [rail_tables[q] for q in rails]
        w = _angular(tables)
        varying = bool(np.any(dvdt))
        # per rail the weights of z'' = sum -A w^2 sin(w x + phi) and, where
        # the speed varies, of z' = sum A w sin(w x + phi + pi/2)
        curvature, slope = [], []
        for comps in tables:
            wj = 2.0 * np.pi * comps[:, 0]
            amp_m = comps[:, 1] * 1e-3          # mm -> m
            curvature.append(_sine_weights(w, wj, -amp_m * wj * wj, comps[:, 2]))
            if varying:
                slope.append(_sine_weights(w, wj, amp_m * wj,
                                           comps[:, 2] + 0.5 * np.pi))
        x, index = _distinct(np.concatenate([x_front, x_front - config.wheelbase_m]))
        wheels = index[:n], index[n:]       # per sample of the front, back wheel
        for lo, hi, sums in _basis_sums(x, w, np.column_stack(curvature + slope)):
            for p, wheel in enumerate(wheels):
                # the wheel's samples at positions lo .. hi of x: per rail
                # z'' and then z' of each
                a, b = np.searchsorted(wheel, (lo, hi))
                at = np.take(sums.T, wheel[a:b] - lo, axis=1)
                acc = np.square(v[a:b]) * at[:len(rails)]
                if varying:
                    acc += dvdt[a:b] * at[len(rails):]
                accs[p, rails, a:b] = acc

    channels: dict[str, TimeSeries] = {}
    wheel_positions: dict[str, np.ndarray] = {}
    x_back = x_front - config.wheelbase_m
    start_s = traj.start / config.sample_rate_hz
    for (pos, side, axis), acc in zip(keys, accs.reshape(-1, n)):
        cid = channel_id(loc, pos, side, axis)
        channels[cid] = TimeSeries(acc, config.sample_rate_hz, start_s,
                                   cid, KIND_ACCELERATION)
        wheel_positions[cid] = x_front if pos == "front" else x_back
    return SimResult(channels, wheel_positions, v, config)


def simulate_blocks(profile: TrackProfile, config: SimConfig, block_samples: int,
                    events=(), sensor: SensorSpec | None = None):
    """The run's records with impulses and sensor noise, a block of
    block_samples at a time.

    Returns (run, blocks). run is the SimResult that chord_ground_truth
    reads: no channels, and the front wheels' positions and the speed at
    the samples that bracket each point of the profile's TRC_SPACING_M
    grid (_brackets), so that np.interp at those points gives what it
    gives on the whole run. blocks yields, per block, channel id -> (TimeSeries, clipped
    count): simulate_run on the block, then on the vertical channels the
    block's part of each event's doublet, then the sensor's noise and
    clipping (add_sensor_noise, whose clipped samples are counted; 0
    without a sensor). Each block equals the same slice of
    add_sensor_noise(add_impulses(simulate_run(profile, config), ...), ...):
    each doublet is taken once, from the run's positions around its
    crossing, so one that straddles a block bound is split, and each
    channel draws its noise from one generator across blocks.

    The trajectory is built a block at a time, twice: here, for the
    samples around the grid points and the events (a doublet can start a
    block before the one its crossing falls in), and again under the
    blocks. Each block is dropped before the next is built, so what is
    held follows the track, not the recording: those samples and the
    doublets. The plan is checked before this returns.
    """
    fs = config.sample_rate_hz
    grid = profile.spatial_series(SIDES[0]).positions()
    crossings = np.sort(np.array([ev.position_m for ev in events], dtype=float))
    reach = max((_reach(ev, fs) for ev in events), default=0)
    # (wheel, queries, reach): the truth's speed, then each wheel's events
    looks = [("front", grid, 0)] + [(pos, crossings, reach)
                                    for pos in POSITIONS if events]
    parts: list = [[] for _ in looks]
    for traj in _trajectory_blocks(config, profile.length_m, block_samples):
        for part, (pos, queries, r) in zip(parts, looks):
            x = traj.x_front if pos == "front" else traj.x_front - config.wheelbase_m
            i = _brackets(x, queries, r)
            part.append((traj.start + i, x[i], traj.v[i]))
    (index, x_front, v), *wheels = [[np.concatenate(c) for c in zip(*p)]
                                    for p in parts]
    doublets = {pos: _doublets(events, index_w, x_w, index[-1] + 1, fs)
                for (pos, _, _), (index_w, x_w, _) in zip(looks[1:], wheels)}
    front = {channel_id(config.sensor_location, "front", side, axis): x_front
             for side in SIDES for axis in AXES}
    run = SimResult({}, front, v, config)

    def blocks():
        rngs: dict = {}
        for traj in _trajectory_blocks(config, profile.length_m, block_samples):
            yield _impulses_and_noise(simulate_run(profile, config, traj),
                                      traj.start, doublets, sensor, rngs)
            del traj                        # before the next block is built

    return run, blocks()


def _brackets(x: np.ndarray, queries: np.ndarray, reach: int = 0) -> np.ndarray:
    """Indices of the samples of x, non-decreasing, within reach samples of
    the pair that brackets a query: for each query q, the last sample at
    or before q and the sample after it. x's first and last reach + 1
    samples are kept too.

    np.interp at q reads only the bracketing pair, so it gives the same at
    every query on these samples as on x. When x is a block of a run, the
    blocks' samples together hold each query's bracketing pair and the
    reach samples to either side of it, across block bounds too.
    """
    # a query before x[0] or past x[-1] is bracketed in another block, or
    # at x's first or last sample
    inside = queries[np.searchsorted(queries, x[0]):
                     np.searchsorted(queries, x[-1], side="right")]
    last = np.searchsorted(x, inside, side="right") - 1
    near = np.add.outer(last, np.arange(-reach, reach + 2)).ravel()
    ends = np.r_[:reach + 1, x.size - reach - 1:x.size]
    return np.unique(np.clip(np.concatenate((ends, near)), 0, x.size - 1))


def _reach(ev: ImpulseEvent, fs: float) -> int:
    """Samples to either side of its crossing that an event's doublet is
    placed on: half its duration and one more."""
    return int(np.ceil(ev.duration_ms * 1e-3 / 2.0 * fs)) + 1


def _doublets(events, index: np.ndarray, x: np.ndarray, n: int, fs: float) -> list:
    """(a, d) per event that a wheel crosses: d is its doublet on run
    samples a .. a + d.size, as add_impulses adds it to a silent record of
    the run's n samples. index and x are run samples and their positions:
    the run's first and last, and each event's window (_brackets with
    _reach)."""
    out = []
    for ev in events:
        if not x[0] <= ev.position_m <= x[-1]:
            continue
        # the samples that bracket the crossing, and those within half the
        # duration of it
        j = int(index[np.searchsorted(x, ev.position_m, side="right") - 1])
        reach = _reach(ev, fs)
        a, b = max(j - reach, 0), min(j + reach + 2, n)
        lo, hi = np.searchsorted(index, (a, b))
        silent = TimeSeries(np.zeros(b - a), fs, a / fs)
        out.append((a, add_impulses(silent, [ev], x[lo:hi]).samples))
    return out


def _impulses_and_noise(sim: SimResult, k0: int, doublets: dict,
                        sensor: SensorSpec | None, rngs: dict) -> dict:
    """Channel id -> (TimeSeries, clipped count) of one block of
    simulate_blocks, which starts at run sample k0."""
    out = {}
    for cid, ts in sim.channels.items():
        parts = parse_channel_id(cid)
        if parts["axis"] == "vertical":
            for a, d in doublets.get(parts["position"], ()):
                lo, hi = max(a, k0), min(a + d.size, k0 + len(ts))
                if lo < hi:
                    ts.samples[lo - k0:hi - k0] += d[lo - a:hi - a]
        clipped = 0
        if sensor:
            if cid not in rngs:
                rngs[cid] = _channel_rng(sim.config.seed, cid)
            ts, mask = add_sensor_noise(ts, sensor, rngs[cid])
            clipped = int(np.count_nonzero(mask))
        out[cid] = (ts, clipped)
    return out


def add_impulses(ts: TimeSeries, events, wheel_positions_m: np.ndarray) -> TimeSeries:
    """Add the bipolar raised-cosine doublet of each crossed event.

    Events whose position the wheel never reaches are skipped. The doublet
    peaks at +/- amplitude_g * 9.81 and spans duration_ms
    centered on the crossing instant. The record's sample times are
    np.arange(k0, k0 + len(ts)) / fs, k0 = start_time_s * fs, so a stretch
    of a run gets the doublet the whole run gets, rounding included.
    """
    if wheel_positions_m.size != len(ts):
        raise ValueError("wheel positions must match the record length")
    fs = ts.sample_rate_hz
    k0 = int(round(ts.start_time_s * fs))
    t = np.arange(k0, k0 + len(ts)) / fs
    out = ts.samples.copy()
    for ev in events:
        pos = wheel_positions_m
        if ev.position_m < pos[0] or ev.position_m > pos[-1]:
            continue
        t0 = float(np.interp(ev.position_m, pos, t))
        amp = ev.amplitude_g * G
        half = ev.duration_ms * 1e-3 / 2.0
        rel = t - t0
        lead = (rel >= -half) & (rel < 0.0)
        trail = (rel >= 0.0) & (rel <= half)
        out[lead] += amp * 0.5 * (1.0 - np.cos(2.0 * np.pi * (rel[lead] + half) / half))
        out[trail] -= amp * 0.5 * (1.0 - np.cos(2.0 * np.pi * rel[trail] / half))
    return replace(ts, samples=out)


def add_sensor_noise(ts: TimeSeries, spec: SensorSpec,
                     seed: int | np.random.Generator = 0):
    """White sensor-floor noise plus range clipping.

    Returns (noisy_series, clipped_mask): sigma is the noise floor scaled by
    sqrt(fs/2), the clip limit is +/- range_g * 9.81, and the mask marks every
    sample that hit it. The noise stream is derived from seed + channel id,
    so channels never share a stream and reruns are identical. A Generator
    as seed is drawn from as it stands: one per channel, carried from block
    to block, gives each block its slice of the whole record's noise.
    """
    rng = (seed if isinstance(seed, np.random.Generator)
           else _channel_rng(seed, ts.channel_id))
    sigma = spec.noise_sigma(ts.sample_rate_hz)
    limit = spec.range_g * G
    # the noisy record is built in the noise buffer: one full-length array
    noisy = rng.standard_normal(len(ts))
    noisy *= sigma
    noisy += ts.samples
    clipped = (noisy > limit) | (noisy < -limit)
    np.clip(noisy, -limit, limit, out=noisy)
    return replace(ts, samples=noisy), clipped
