"""Windowed maxima as a colour-ready GeoJSON map.

Each 100 m window becomes a LineString along the survey polyline with its
maximum value and a severity grade (how many alert thresholds it crosses).
The output opens directly in any GeoJSON viewer.
"""

import json
import tempfile
from pathlib import Path

from trackvib.fileio import export_geojson, write_geojson
from trackvib.pipeline import process_records
from trackvib.synthesizer import SimConfig, simulate_run, synth_profile

profile = synth_profile(
    700.0, {"type": "noise", "band_cycles_per_m": (0.02, 0.5), "rms_mm": 4.0},
    seed=2)
sim = simulate_run(profile, SimConfig(speed_plan=((0.0, 10.0), (80.0, 10.0)),
                                      seed=2))
# the true speed as a (time_s, speed_mps) table: the plan's own knots
truth = tuple(zip(*sim.config.speed_plan))
stats = process_records(sim.channels,
                        speed_override=truth).maxima["VA10_left_mm"]

# a gently curving 700 m survey line, (lat, lon) vertices
polyline = [(47.000, 8.000), (47.002, 8.003), (47.004, 8.005),
            (47.0065, 8.006)]

collection = export_geojson(stats, polyline, thresholds=(12.0, 16.0),
                            column="VA10_left_mm")
out = Path(tempfile.mkdtemp()) / "severity_map.geojson"
write_geojson(out, collection)

print(f"wrote {len(collection['features'])} window features to {out}")
for f in collection["features"][:5]:
    p = f["properties"]
    value = ("unusable" if p["value_mm"] is None
             else f"{p['value_mm']:.2f} mm")
    print(f"  {p['window_start_m']:>6.1f}-{p['window_end_m']:<6.1f} m  "
          f"{value:>10}  severity {p['severity']}")
print(json.dumps(collection["features"][2]["geometry"])[:100] + " ...")
