"""Golden outputs: fixed seeds must give the same results to 1e-9 relative.

The values were recorded before the Monte Carlo engine and the solver
defaults were consolidated; any refactor of the trial pipeline, the
task plans or the defaults must reproduce them unchanged, at one worker
and at two.  The sector values were recorded before sectors got ring
tables of their own.
"""

import pytest

from srlab.metrology import SECTOR_COUNT, measure_resolution
from srlab.montecarlo import ParameterSpec, run_campaign, run_trial, sweep
from srlab.scenario import Scenario
from srlab.seeding import child_seed
from srlab.simulator import SystemParams

from test_metrology import _reconstruction

REL = 1e-9

# run_trial(SystemParams(), Scenario(), child_seed(500, j)), j = 0..4
NOMINAL_RESOLUTIONS = [1.5909302471957385, 1.5914360136194223, 1.5896457676931042,
                       1.59196447247703, 1.5906108308040248]

# measure_resolution(..., sector=k) on the seed-42 reconstruction of
# Scenario() at SystemParams(), k = 0..7
SECTOR_RESOLUTIONS = [1.6308013169780726, 1.5512423501818966, 1.5564617353929102,
                      1.636971106226086, 1.6306914479052017, 1.5604688128780566,
                      1.5643489416836078, 1.6331216659719103]

# run_campaign(ParameterSpec(), tiny_scenario, n_trials=6, master_seed=5)
CAMPAIGN_TRIALS = [(4306970560664876850, 1.8632644133851615),
                   (12117518156052553219, 1.647833688239102),
                   (16868097848356383376, 1.5139977287385709),
                   (471450922708169230, 1.499517826646267),
                   (846629972033225943, 1.5111415601926677),
                   (2455563696501805745, 1.5654832151924316)]
CAMPAIGN_MODE = 1.525
CAMPAIGN_COUNTS = [1, 2, 1, 1, 0, 0, 0, 0, 1]

# sweep([("clock_phase", [1, 2, 4])], tiny_scenario, seeds_per_value=2, master_seed=4)
SWEEP_RESOLUTIONS = [[1.5199932254146145, 1.520858789976326],
                     [1.497908238205167, 1.4990531552085158],
                     [1.492144935595622, 1.493355052309691]]
SWEEP_MEANS = [1.52042600769547, 1.4984806967068414, 1.4927499939526565]

# sweep([("optics_mtf", [0.1, 0.5]), ("snr", [30.0, 100.0])], tiny_scenario,
#       seeds_per_value=2, master_seed=4).mean_resolution_m
GRID = [[1.9011641444391691, 1.5984179169064094],
        [1.565032396600408, 1.391105459564952]]


def test_golden_nominal_trials(scenario):
    assert scenario == Scenario()
    got = [run_trial(SystemParams(), scenario, child_seed(500, j)).resolution_m
           for j in range(5)]
    assert got == pytest.approx(NOMINAL_RESOLUTIONS, rel=REL)


def test_golden_sector_resolutions(scenario, nominal_params):
    star = scenario.star
    image = _reconstruction(scenario, nominal_params)
    got = [measure_resolution(image, star.center, star.cycles, scenario.nem_signal,
                              nominal_params.noise_sigma, star.outer_radius,
                              n_rings=scenario.n_rings, sector=k).resolution_m
           for k in range(SECTOR_COUNT)]
    assert got == pytest.approx(SECTOR_RESOLUTIONS, rel=REL)


@pytest.mark.parametrize("threads", [1, 2])
def test_golden_campaign(tiny_scenario, threads):
    camp = run_campaign(ParameterSpec(), tiny_scenario, n_trials=6, master_seed=5,
                        threads=threads)
    assert [t.seed for t in camp.trials] == [s for s, _ in CAMPAIGN_TRIALS]
    assert [t.resolution_m for t in camp.trials] == \
        pytest.approx([r for _, r in CAMPAIGN_TRIALS], rel=REL)
    assert camp.mode_m == pytest.approx(CAMPAIGN_MODE, rel=REL)
    assert camp.counts.tolist() == CAMPAIGN_COUNTS
    assert (camp.n_resolved, camp.n_failed) == (6, 0)


@pytest.mark.parametrize("threads", [1, 2])
def test_golden_sweep(tiny_scenario, threads):
    result = sweep([("clock_phase", [1, 2, 4])], tiny_scenario, seeds_per_value=2,
                   master_seed=4, threads=threads)
    assert [[t.seed for t in group] for group in result.trials] == \
        [[child_seed(4, 0), child_seed(4, 1)]] * 3
    for group, expected in zip(result.trials, SWEEP_RESOLUTIONS):
        assert [t.resolution_m for t in group] == pytest.approx(expected, rel=REL)
    assert result.mean_resolution_m == pytest.approx(SWEEP_MEANS, rel=REL)


@pytest.mark.parametrize("threads", [1, 2])
def test_golden_two_axis_sweep(tiny_scenario, threads):
    grid = sweep([("optics_mtf", [0.1, 0.5]), ("snr", [30.0, 100.0])], tiny_scenario,
                 seeds_per_value=2, master_seed=4, threads=threads).mean_resolution_m
    assert grid.tolist() == [pytest.approx(row, rel=REL) for row in GRID]
