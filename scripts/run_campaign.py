#!/usr/bin/env python3
"""Run the desk-scale Monte Carlo campaign and print the histogram.

200 trials by default; pass --trials 25000 for the full-scale study (it
is embarrassingly parallel, so add --threads on a bigger machine).
"""

import argparse
import sys

from srlab.montecarlo import ParameterSpec, run_campaign
from srlab.scenario import Scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--bin-width", type=float, default=0.05)
    args = parser.parse_args()

    def progress(done, total):
        print(f"\r{done}/{total} trials", end="", file=sys.stderr, flush=True)

    campaign = run_campaign(ParameterSpec(), Scenario(), args.trials,
                            args.seed, bin_width_m=args.bin_width,
                            threads=args.threads, progress=progress)
    print(file=sys.stderr)

    peak = campaign.counts.max()
    for left, count in zip(campaign.bin_edges[:-1], campaign.counts):
        bar = "#" * round(40 * count / peak)
        print(f"{left:5.2f}-{left + campaign.bin_width_m:.2f} m  {count:4d}  {bar}")
    print(f"\ntrials:   {len(campaign.trials)} ({campaign.n_resolved} resolved, "
          f"{campaign.n_failed} failed)")
    print(f"mode:     {campaign.mode_m:.3f} m")
    print(f"mean:     {campaign.mean_m:.3f} m")
    print(f"p10/p90:  {campaign.p10_m:.3f} / {campaign.p90_m:.3f} m")


if __name__ == "__main__":
    main()
