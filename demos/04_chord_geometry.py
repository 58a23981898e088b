"""What a chord measurement can and cannot see.

The mid-chord value z(x) - (z(x-d/2) + z(x+d/2))/2 is blind to wavelengths
of d/2, d/4, ... and doubles wavelengths of d, 3d, ... This script walks the
response of the 10 m and 35 m chords, shows the matching integration cutoff
choice, and confirms the factor-4 power ratio at the response peak.
"""

import numpy as np

from trackvib.geometry import chord_alignment, select_cutoff, \
    transfer_function
from trackvib.spatial import SpatialSeries

DX = 0.25

for d in (10.0, 35.0):
    print(f"--- {d:g} m chord ---")
    print(f"integration cutoff at 3 m/s survey speed: "
          f"{select_cutoff(d):g} Hz")

    x = DX * np.arange(int(40 * d / DX))
    for label, nu in (("blind", 2.0 / d), ("doubled", 1.0 / d)):
        z = SpatialSeries(np.sin(2 * np.pi * nu * x), 0.0)
        out = chord_alignment(z, d)
        peak = np.nanmax(np.abs(out.values))
        gain = transfer_function(d, np.array([nu]))[0]
        print(f"  nu={nu:.4f} c/m ({label}): measured peak {peak:.3f}, "
              f"transfer {gain:.3f}")

    z = SpatialSeries(np.sin(2 * np.pi * x / d), 0.0)
    out = chord_alignment(z, d)
    # the power of a tone is its mean square; both series span whole
    # periods of d (the output loses one chord, d, of NaN ends)
    ratio = np.nanmean(out.values ** 2) / np.mean(z.values ** 2)
    print(f"  power ratio at nu=1/d: {ratio:.2f} "
          f"({10 * np.log10(ratio):.2f} dB, expected 6.02 dB)")
