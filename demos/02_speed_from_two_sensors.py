"""Speed without GPS: the back wheel sees what the front wheel saw.

Two sensors on the same rail, one wheelbase apart, produce the same
displacement signal shifted by wheelbase/speed. Cross-correlating short
windows of the two integrated records recovers that delay, and with it the
speed, sample by sample.
"""

import numpy as np

from trackvib.layout import DEFAULT_WHEELBASE_M
from trackvib.speed import delay_bounds, estimate_delay, estimate_speed
from trackvib.synthesizer import SimConfig, simulate_run, synth_profile
from trackvib.timeseries import decimate, double_integrate

profile = synth_profile(
    800.0, {"type": "noise", "band_cycles_per_m": (0.02, 0.5), "rms_mm": 3.0},
    seed=42)

# drive 10 m/s, brake to 6, accelerate to 14
plan = ((0.0, 10.0), (25.0, 10.0), (35.0, 6.0), (50.0, 6.0),
        (65.0, 14.0), (120.0, 14.0))
sim = simulate_run(profile, SimConfig(speed_plan=plan, seed=42))

front = decimate(sim.channels["bogie-front-left-vertical"], 10)
back = decimate(sim.channels["bogie-back-left-vertical"], 10)
zf = double_integrate(front, 0.3)
zb = double_integrate(back, 0.3)

delays = estimate_delay(zf, zb, window_samples=960,
                        delay_bounds_s=delay_bounds(DEFAULT_WHEELBASE_M))
speed = estimate_speed(delays, wheelbase_m=DEFAULT_WHEELBASE_M)

truth = sim.speeds_mps[::10][: speed.speeds_mps.size]
err = np.abs(speed.speeds_mps - truth) / truth
print(f"samples: {speed.speeds_mps.size}, "
      f"flagged valid: {speed.valid.mean():.1%}")
print(f"median speed error: {np.median(err):.2%}")
print(f"within 5% of truth: {(err <= 0.05).mean():.1%} of samples")
for frac in (0.15, 0.5, 0.85):
    i = int(frac * speed.speeds_mps.size)
    print(f"  t={i / 256.0:5.1f} s  estimated {speed.speeds_mps[i]:5.2f} m/s"
          f"   true {truth[i]:5.2f} m/s")
