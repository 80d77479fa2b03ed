#!/usr/bin/env python3
"""One-at-a-time sensitivity sweeps over every system parameter.

Reproduces the sensitivity structure of the study: optics MTF, SNR,
jitter, clock phases, and subarray shift, plus the optics x SNR grid.
"""

import argparse

import numpy as np

from srlab.montecarlo import sweep, sweep_grid
from srlab.scenario import Scenario

SWEEPS = [
    ("optics_mtf", [0.10, 0.20, 0.30, 0.40, 0.50]),
    ("snr", [30.0, 45.0, 60.0, 80.0, 100.0]),
    ("jitter", [0.10, 0.15, 0.20]),
    ("clock_phase", [1, 2, 4]),
    ("subarray_shift", [0.1, 0.2, 0.3, 0.4, 0.5]),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds-per-value", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    scenario = Scenario()
    for name, values in SWEEPS:
        result = sweep(name, values, scenario,
                       seeds_per_value=args.seeds_per_value,
                       master_seed=args.seed, threads=args.threads)
        print(f"{name}:")
        for value, mean in zip(result.values, result.mean_resolution_m):
            shown = f"{mean:.3f} m" if mean is not None else "not resolved"
            print(f"  {value:8.3g} -> {shown}")

    grid = sweep_grid("optics_mtf", [0.10, 0.30, 0.50],
                      "snr", [30.0, 60.0, 100.0], scenario,
                      seeds_per_value=args.seeds_per_value,
                      master_seed=args.seed, threads=args.threads)
    print("optics x snr grid (m):")
    print(np.round(grid, 3))


if __name__ == "__main__":
    main()
