"""Set-up probe: what a fresh srlab process pays before its first trial.

Imports numpy, scipy and srlab from the checkout's src/, builds the
pinned campaign scenario and rasterizes its target, then exits.
run.py times it from launch to exit and reports the median as setup_s.
"""

import hostenv

hostenv.pin_blas_threads()

import numpy  # noqa: E402,F401
import scipy.ndimage  # noqa: E402,F401

import inputs  # noqa: E402

srlab = hostenv.import_srlab()
scenario = inputs.scenario(srlab, inputs.CAMPAIGN_SOLVER)
target = srlab.generate_spoke_target(scenario.star, scenario.grid_size)
if target.shape != inputs.GRID:
    raise SystemExit(f"target shape {target.shape} != {inputs.GRID}")
