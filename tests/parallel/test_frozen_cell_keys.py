"""Frozen cell keys: the cache identity of a few reference cells.

``frozen_cell_keys.json`` holds the :func:`~repro.parallel.cache.cell_key`
digest of each cell built by :func:`_reference_tasks` at 16 cores: a stock
od-rl cell, a stock pid cell, an od-rl cell under a fault campaign and an
od-rl cell under the watchdog.  A digest that moves orphans every cached
result of that shape, so these may change only together with
``CACHE_SALT``.  The file is test data, not a fixture to regenerate.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.faults import FaultCampaign
from repro.manycore import default_system
from repro.parallel.cache import CACHE_SALT
from repro.sim.runner import build_suite_tasks, standard_controllers
from repro.workloads import mixed_workload

FROZEN = Path(__file__).with_name("frozen_cell_keys.json")
N_CORES = 16
N_EPOCHS = 120


def _reference_tasks() -> Dict[str, object]:
    """``{name: CellTask}`` of the frozen cells."""
    cfg = default_system(n_cores=N_CORES)
    workloads = {"mixed": mixed_workload(N_CORES, seed=0)}
    lineup = standard_controllers(seed=0)
    campaign = FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.05, seed=3)
    grids = {
        "od-rl": ("od-rl", {}),
        "pid": ("pid", {}),
        "od-rl-faults": ("od-rl", {"faults": campaign}),
        "od-rl-watchdog": ("od-rl", {"watchdog": True, "checkpoint_period": 20}),
    }
    tasks = {}
    for name, (controller, sim_kwargs) in grids.items():
        _, (task,) = build_suite_tasks(
            cfg,
            workloads,
            {controller: lineup[controller]},
            N_EPOCHS,
            sim_kwargs=sim_kwargs,
        )
        tasks[name] = task
    return tasks


def test_salt_is_the_frozen_one():
    assert json.loads(FROZEN.read_text())["salt"] == CACHE_SALT


@pytest.mark.parametrize("name", ["od-rl", "pid", "od-rl-faults", "od-rl-watchdog"])
def test_cell_key_is_frozen(name):
    frozen = json.loads(FROZEN.read_text())["keys"]
    assert _reference_tasks()[name].key == frozen[name]
