from __future__ import annotations

import pytest

from hgnids import simulate

DESK_SEED = 42


@pytest.fixture(scope="session")
def desk_data():
    return simulate.make_desk_dataset(seed=DESK_SEED)


@pytest.fixture(scope="session")
def desk_adv(desk_data):
    return simulate.make_desk_adversarial(desk_data, seed=DESK_SEED)


@pytest.fixture(scope="session")
def case5_run(desk_data, desk_adv):
    cfg = simulate.desk_case_config(5, seed=DESK_SEED, threshold=2)
    scorecard, artifacts = simulate.run_simulation(cfg, desk_data, desk_adv)
    return cfg, scorecard, artifacts


@pytest.fixture(scope="session")
def case5_baseline_run(desk_data, desk_adv):
    cfg = simulate.desk_case_config(5, seed=DESK_SEED, threshold=2)
    scorecard, artifacts = simulate.run_simulation(cfg, desk_data, desk_adv, baseline=True)
    return cfg, scorecard, artifacts
