#!/usr/bin/env python3
"""Check the benchmark's input generator against direct simulation.

    python3 bench/check_inputs.py [--seed N]

For each tiled workload: the records and the profile tiled from one
simulated period must equal a direct `simulate_run` and `synth_profile`
over two periods within SEAM_TOLERANCE of their peak, and the tiled sample
count over the whole track must be the count a direct simulation of the
whole track produces.
Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from trackvib import synthesizer  # noqa: E402


def check(workload, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    vertical = wl.lattice_spec(rng, workload.vertical_rms_mm)
    lateral = (wl.lattice_spec(rng, workload.lateral_rms_mm)
               if workload.lateral_rms_mm else None)
    problems = []

    length = 2 * wl.PERIOD_M
    tiled_profile, tiled, seam = wl.tiled_run((vertical, lateral),
                                              workload.speed_mps, length, seed)
    profile = synthesizer.synth_profile(length, vertical, seed=seed,
                                        lateral_spec=lateral)
    direct = synthesizer.simulate_run(
        profile, wl.sim_config(workload.speed_mps, length, seed))
    pairs = [(cid, tiled.channels[cid].samples, ts.samples)
             for cid, ts in direct.channels.items()]
    pairs += [(f"profile {f}", getattr(tiled_profile, f), getattr(profile, f))
              for f in ("z_left", "z_right", "y_left", "y_right")]
    worst = 0.0
    for what, a, b in pairs:
        if a.size != b.size:
            problems.append(f"{what}: tiled {a.size} samples, direct {b.size}")
            continue
        peak = float(np.max(np.abs(b)))
        if peak > 0:
            worst = max(worst, float(np.max(np.abs(a - b))) / peak)
    print(f"{workload.name}: two periods, tiled vs direct records and profile: "
          f"max error {worst:.3g} of peak (seam {seam:.3g})")
    if worst > wl.SEAM_TOLERANCE:
        problems.append(f"tiled inputs differ from direct by {worst:.3g} of peak")

    # sample count of a direct run over the whole track: a profile without
    # components simulates zeros, so only the trajectory costs anything
    flat = synthesizer.synth_profile(workload.length_m, {"type": "sines",
                                                         "components": []})
    sim = synthesizer.simulate_run(
        flat, wl.sim_config(workload.speed_mps, workload.length_m, seed))
    n_direct = len(next(iter(sim.channels.values())))
    reps = int(round(workload.length_m / wl.PERIOD_M))
    n_tiled = reps * wl.period_samples(workload.speed_mps) + 1
    print(f"{workload.name}: {n_tiled} tiled samples per channel, direct run "
          f"{n_direct}, expected {workload.expected_samples}")
    if not n_tiled == n_direct == workload.expected_samples:
        problems.append(f"sample counts differ: tiled {n_tiled}, direct "
                        f"{n_direct}, expected {workload.expected_samples}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    problems = []
    for workload in wl.WORKLOADS.values():
        if workload.speed_mps is not None:
            problems += [f"{workload.name}: {p}" for p in check(workload, args.seed)]
    for p in problems:
        print(f"FAIL {p}")
    print("ok" if not problems else f"{len(problems)} check(s) failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
