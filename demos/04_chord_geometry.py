"""What a chord measurement can and cannot see.

The mid-chord value z(x) - (z(x-d/2) + z(x+d/2))/2 is blind to wavelengths
of d/2, d/4, ... and doubles wavelengths of d, 3d, ... This script walks the
response of the 10 m and 35 m chords, shows the matching integration cutoff
choice, and confirms the factor-4 power ratio at the response peak.
"""

import numpy as np

from trackvib.geometry import chord_alignment, psd_spatial, select_cutoff, \
    transfer_function
from trackvib.spatial import SpatialSeries

DX = 0.25

for d in (10.0, 35.0):
    print(f"--- {d:g} m chord ---")
    print(f"integration cutoff at 3 m/s survey speed: "
          f"{select_cutoff(d):g} Hz")

    x = DX * np.arange(int(40 * d / DX))
    for label, nu in (("blind", 2.0 / d), ("doubled", 1.0 / d)):
        z = SpatialSeries(np.sin(2 * np.pi * nu * x), DX, 0.0)
        out = chord_alignment(z, d)
        peak = np.nanmax(np.abs(out.values))
        gain = transfer_function(d, np.array([nu]))[0]
        print(f"  nu={nu:.4f} c/m ({label}): measured peak {peak:.3f}, "
              f"transfer {gain:.3f}")

    z = SpatialSeries(np.sin(2 * np.pi * x / d), DX, 0.0)
    out = chord_alignment(z, d)
    p_in, p_out = psd_spatial(z), psd_spatial(out)
    k = int(np.argmin(np.abs(p_in.nu_axis - 1.0 / d)))
    ratio = p_out.density[k] / p_in.density[k]
    print(f"  PSD ratio at nu=1/d: {ratio:.2f} "
          f"({10 * np.log10(ratio):.2f} dB, expected 6.02 dB)")
