"""Dual-subarray push-broom imaging chain laboratory.

Simulates the staggered-subarray acquisition of a spoke test target,
reconstructs the HR image by MAP super-resolution with a bilateral-TV
prior, measures the achieved resolution against the noise-equivalent
modulation, and runs Monte Carlo sensitivity campaigns over the system
parameters.
"""

from .grid import check_image, read_image, read_pgm, write_pgm
from .metrology import (ResolutionReport, RingFit, crossing_frequency,
                        frequency_to_resolution, measure_resolution, nem,
                        ring_modulation)
from .montecarlo import (CampaignResult, ParameterDistribution, ParameterSpec,
                         SweepResult, TrialResult, run_campaign, run_trial,
                         sample_parameters, sweep)
from .mtf import (GeometryConstants, footprint_mtf, jitter_mtf, optics_mtf,
                  sampling_mtf, smear_mtf, system_otf)
from .scenario import Scenario, ScenarioConfig, load_config
from .simulator import (Observation, SystemParams, add_noise,
                        render_blurred_scene, simulate_observations,
                        subarray_observations)
from .solver import (SolverConfig, SrResult, adjoint_model, bicubic_upsample,
                     btv_gradient, btv_penalty, forward_model, super_resolve)
from .target import StarSpec, generate_spoke_target

__version__ = "0.1.0"
