#!/usr/bin/env python3
"""One-at-a-time sensitivity sweeps over every system parameter.

Reproduces the sensitivity structure of the study: optics MTF, SNR,
jitter, clock phases, and subarray shift, plus the optics x SNR grid.
Each sweep prints its axes and its mean resolutions in metres, shaped
like the axes (NaN where no trial in the cell resolved).
"""

import argparse

import numpy as np

from srlab.montecarlo import sweep
from srlab.scenario import Scenario

SWEEPS = [
    [("optics_mtf", [0.10, 0.20, 0.30, 0.40, 0.50])],
    [("snr", [30.0, 45.0, 60.0, 80.0, 100.0])],
    [("jitter", [0.10, 0.15, 0.20])],
    [("clock_phase", [1, 2, 4])],
    [("subarray_shift", [0.1, 0.2, 0.3, 0.4, 0.5])],
    [("optics_mtf", [0.10, 0.30, 0.50]), ("snr", [30.0, 60.0, 100.0])],
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds-per-value", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    scenario = Scenario()
    for axes in SWEEPS:
        result = sweep(axes, scenario, seeds_per_value=args.seeds_per_value,
                       master_seed=args.seed, threads=args.threads)
        print(" x ".join(f"{name} {values}" for name, values in result.axes) + " (m):")
        print(np.round(result.mean_resolution_m, 3))


if __name__ == "__main__":
    main()
