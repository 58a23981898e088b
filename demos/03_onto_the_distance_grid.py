"""Time series to track chainage.

Track geometry lives in the distance domain, so every time sample gets a
position (the running integral of speed) and the signal is interpolated
onto a fixed 0.25 m grid. A crawl below 0.5 m/s in the middle of the run
produces no usable spatial information: moving() marks it in the speed,
and grid points inside that stretch come back NaN.
"""

import numpy as np

from trackvib.layout import TRC_SPACING_M
from trackvib.spatial import build_distance_axis, moving, resample_to_space
from trackvib.speed import SpeedProfile
from trackvib.timeseries import TimeSeries

FS = 256.0

# 60 s drive dropping to a 6 s crawl at 0.3 m/s in the middle
t = np.arange(int(60 * FS)) / FS
v = np.where((t > 25.0) & (t < 31.0), 0.3, 8.0)
speed = SpeedProfile(v, FS, valid=np.ones(t.size, bool))

axis = build_distance_axis(speed)
print(f"start {axis.positions_m[0]:.2f} m, "
      f"end {axis.positions_m[-1]:.2f} m, "
      f"travelled {axis.positions_m[-1] - axis.positions_m[0]:.1f} m")

# a 25 m wavelength in space, expressed through the position of each sample
signal = TimeSeries(np.sin(2 * np.pi * axis.positions_m / 25.0), FS,
                    kind="displacement")
grid = resample_to_space(signal, axis, moving(speed))

print(f"grid: {len(grid)} points from {grid.start_m:.2f} m "
      f"every {TRC_SPACING_M} m")
print(f"invalid grid points (the crawl): {(~grid.valid).sum()} "
      f"around {grid.positions()[~grid.valid].mean():.1f} m")

ideal = np.sin(2 * np.pi * grid.positions() / 25.0)
err = np.abs(grid.values - ideal)[grid.valid].max()
print(f"worst interpolation error on valid points: {err:.2e}")
