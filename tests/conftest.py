import hypothesis
import numpy as np
import pytest

from srlab import SolverConfig, StarSpec, SystemParams, generate_spoke_target
from srlab.scenario import Scenario

hypothesis.settings.register_profile(
    "srlab", max_examples=25, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("srlab")


@pytest.fixture(scope="session")
def scenario():
    return Scenario()


@pytest.fixture(scope="session")
def tiny_scenario():
    """Small, fast scenario for campaign plumbing tests."""
    star = StarSpec(cycles=64, outer_radius=40.0, inner_radius=4.0,
                    center=(64.0, 64.0), supersample=2)
    solver = SolverConfig(lam=0.25, max_iters=3, rel_tol=1e-9)
    return Scenario(star=star, grid_size=(128, 128), solver=solver, n_rings=20)


@pytest.fixture(scope="session")
def star_target(scenario):
    """The desk-scale star target on the HR grid."""
    return generate_spoke_target(scenario.star, scenario.grid_size)


@pytest.fixture(scope="session")
def nominal_params():
    return SystemParams()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
