"""Property-based tests for the batched backend.

Two invariant families:

* stack → step → unstack is the identity: an :class:`EpochKernel` row is
  bit-identical to an independent serial :class:`ManyCoreChip` driven by
  the same level sequence, for every draw of budgets, seeds, fault
  campaigns and (possibly out-of-range) level commands.
* a cell's identity is independent of its batch arrangement: its result
  bits do not change with batch neighbours or position, and its cache
  key (``stable_hash``-based ``cell_key``) never sees the batch at all —
  a cache warmed under one arrangement replays under any other.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultCampaign
from repro.kernel import EpochKernel
from repro.manycore import default_system
from repro.manycore.chip import ManyCoreChip
from repro.parallel import (
    CellTask,
    ResultCache,
    RunCell,
    assert_trace_equal,
    execute_cells,
)
from repro.parallel.cache import cell_key
from repro.sim import standard_controllers
from repro.workloads import mixed_workload

N_CORES = 4
N_LEVELS = 3
MAX_RUNS = 4
MAX_EPOCHS = 6

BASE_CFG = default_system(
    n_cores=N_CORES, n_levels=N_LEVELS, budget_fraction=0.6
)


def _field_bits(value):
    """A bit-exact comparison key for an observation field."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return value


class TestStackRoundTrip:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_batch_rows_match_independent_serial_chips(self, data):
        n_runs = data.draw(st.integers(1, MAX_RUNS), label="n_runs")
        n_epochs = data.draw(st.integers(1, MAX_EPOCHS), label="n_epochs")
        fracs = data.draw(
            st.lists(
                st.floats(0.4, 1.2), min_size=n_runs, max_size=n_runs
            ),
            label="budget fractions",
        )
        seeds = data.draw(
            st.lists(
                st.integers(0, 999), min_size=n_runs, max_size=n_runs
            ),
            label="workload seeds",
        )
        faulted = data.draw(
            st.lists(st.booleans(), min_size=n_runs, max_size=n_runs),
            label="faulted",
        )
        # Deliberately include out-of-range commands: the plant clamps
        # them, and the clamp must be identical on the stacked arrays.
        levels = np.array(
            data.draw(
                st.lists(
                    st.integers(-1, N_LEVELS),
                    min_size=n_epochs * n_runs * N_CORES,
                    max_size=n_epochs * n_runs * N_CORES,
                ),
                label="levels",
            )
        ).reshape(n_epochs, n_runs, N_CORES)

        cfgs = [BASE_CFG.with_budget(BASE_CFG.power_budget * f) for f in fracs]
        workloads = [mixed_workload(N_CORES, seed=s) for s in seeds]
        campaigns = [
            FaultCampaign.random(N_CORES, n_epochs, rate=0.3, seed=s)
            if use
            else None
            for use, s in zip(faulted, seeds)
        ]
        batch = EpochKernel(cfgs, workloads, n_epochs=n_epochs, faults=campaigns)
        serial = [
            ManyCoreChip(cfg, wl, faults=campaign)
            for cfg, wl, campaign in zip(cfgs, workloads, campaigns)
        ]
        for e in range(n_epochs):
            bobs = batch.step(levels[e])
            for r, chip in enumerate(serial):
                sobs = chip.step(levels[e, r])
                brow = bobs.row(r)
                for f in dataclasses.fields(sobs):
                    assert _field_bits(getattr(brow, f.name)) == _field_bits(
                        getattr(sobs, f.name)
                    ), f"epoch {e} run {r} field {f.name} diverged"


def _odrl_task(lineup_seed, frac, workload, name):
    cfg = BASE_CFG.with_budget(BASE_CFG.power_budget * frac)
    factory = standard_controllers(seed=lineup_seed)["od-rl"]
    cell = RunCell(
        controller=name,
        workload=workload.name,
        budget=cfg.power_budget,
        seed=lineup_seed,
        n_epochs=8,
    )
    return CellTask(cell, cfg, workload, factory, {})


class TestArrangementInvariance:
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_cell_result_invariant_to_neighbours_and_position(self, data):
        workload = mixed_workload(N_CORES, seed=0)
        target = _odrl_task(0, 0.6, workload, "target")
        (reference,) = execute_cells([target], jobs=1)

        n_neighbours = data.draw(st.integers(0, 3), label="n_neighbours")
        neighbours = [
            _odrl_task(
                data.draw(st.integers(1, 99), label=f"seed[{i}]"),
                data.draw(st.floats(0.4, 1.0), label=f"frac[{i}]"),
                workload,
                f"neighbour-{i}",
            )
            for i in range(n_neighbours)
        ]
        position = data.draw(
            st.integers(0, n_neighbours), label="position"
        )
        tasks = neighbours[:position] + [target] + neighbours[position:]
        results = execute_cells(tasks, jobs=1, batch=True)
        assert_trace_equal(
            reference,
            results[position],
            context=f"target at {position} of {len(tasks)}",
        )

    @given(
        seed=st.integers(0, 99),
        frac=st.floats(0.4, 1.0),
        position=st.integers(0, 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_cell_key_never_sees_the_batch(self, seed, frac, position):
        # ``cell_key`` takes no batch arguments at all; rebuilding the
        # same task in different arrangements must hash identically.
        workload = mixed_workload(N_CORES, seed=0)
        task = _odrl_task(seed, frac, workload, "target")
        key = cell_key(
            task.cell, task.cfg, task.workload, task.factory, task.sim_kwargs
        )
        clone = _odrl_task(seed, frac, workload, "target")
        assert (
            cell_key(
                clone.cell,
                clone.cfg,
                clone.workload,
                clone.factory,
                clone.sim_kwargs,
            )
            == key
        )

    def test_cache_warmed_by_one_arrangement_replays_under_another(
        self, tmp_path
    ):
        workload = mixed_workload(N_CORES, seed=0)
        target = _odrl_task(0, 0.6, workload, "target")
        neighbours = [
            _odrl_task(s, f, workload, f"n-{s}")
            for s, f in ((1, 0.5), (2, 0.8))
        ]
        cache = ResultCache(tmp_path)
        batched = execute_cells(
            neighbours + [target], jobs=1, cache=cache, batch=True
        )
        (alone,) = execute_cells([target], jobs=1, cache=cache)
        assert cache.hits == 1
        assert_trace_equal(
            batched[-1], alone, context="batch-warmed solo replay"
        )
