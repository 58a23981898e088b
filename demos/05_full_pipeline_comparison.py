"""The whole chain against ground truth.

Synthesize a rough 800 m track, drive over it with bogie-grade sensor
noise, run the full processing chain (no access to the true speed), and
correlate the resulting 100 m windowed maxima against the chord values
computed directly from the known profile. This is the same experiment the
acceptance suite runs at 2 km.
"""

import numpy as np

from trackvib.layout import SENSOR_SPECS
from trackvib.pipeline import chord_ground_truth, compare_trc, \
    process_records
from trackvib.synthesizer import SimConfig, add_sensor_noise, simulate_run, \
    synth_profile

profile = synth_profile(
    800.0, {"type": "noise", "band_cycles_per_m": (0.02, 0.5), "rms_mm": 3.0},
    seed=11)
sim = simulate_run(profile, SimConfig(speed_plan=((0.0, 10.0), (90.0, 10.0)),
                                      seed=11))
channels = {cid: add_sensor_noise(ts, SENSOR_SPECS["bogie_mems"], seed=11)[0]
            for cid, ts in sim.channels.items()}

result = process_records(channels)
v = result.speed.speeds_mps
print(f"estimated speed: median {np.median(v):.2f} m/s "
      f"(true 10.00), {result.speed.valid.mean():.0%} valid")

estimated = result.to_trc()
truth = chord_ground_truth(profile, sim)

skipped: dict = {}
reports = compare_trc(estimated, truth, max_shift_m=100.0, skipped=skipped)
print(f"{'column':<16} {'r':>6} {'slope':>6} {'shift':>6} {'windows':>8}")
for column, (rep, shift) in reports.items():
    print(f"{column:<16} {rep.pearson_r:>6.3f} {rep.slope:>6.3f} "
          f"{shift:>5.0f}m {rep.n_windows:>8}")
for column, reason in skipped.items():
    print(f"{column:<16} skipped: {reason}")
