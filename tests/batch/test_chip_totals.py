"""DET002 regression: a stacked EpochKernel mirrors the serial energy/instruction totals.

The batched backend historically skipped the ``total_energy`` /
``total_instructions`` accumulators because the batch simulator computes
results from the per-epoch series instead.  The parity analyzer flags
that asymmetry: any future code path reading chip totals would diverge
between backends.  These tests pin the fix — per-run accumulation with
the serial ``float(np.sum(...))`` arithmetic, bit for bit.
"""

import numpy as np

from repro.faults import FaultCampaign
from repro.kernel import EpochKernel
from repro.manycore import ManyCoreChip, default_system
from repro.workloads import mixed_workload

N_CORES = 8
N_EPOCHS = 12
N_RUNS = 3


def _build(campaigns=None):
    cfgs = [
        default_system(n_cores=N_CORES, n_levels=4, budget_fraction=f)
        for f in (0.5, 0.6, 0.8)
    ]
    workloads = [mixed_workload(N_CORES, seed=s) for s in (0, 1, 2)]
    batch = EpochKernel(cfgs, workloads, faults=campaigns)
    serial = [
        ManyCoreChip(cfg, wl, faults=c)
        for cfg, wl, c in zip(cfgs, workloads, campaigns or [None] * N_RUNS)
    ]
    return batch, serial


def test_totals_start_at_zero():
    batch, _ = _build()
    assert batch.total_energy.shape == (N_RUNS,)
    assert batch.total_instructions.shape == (N_RUNS,)
    assert np.all(batch.total_energy == 0.0)
    assert np.all(batch.total_instructions == 0.0)


def test_totals_bit_identical_to_serial():
    batch, serial = _build()
    rng = np.random.default_rng(7)
    for _ in range(N_EPOCHS):
        levels = rng.integers(0, 4, size=(N_RUNS, N_CORES))
        batch.step(levels)
        for r, chip in enumerate(serial):
            chip.step(levels[r])
    for r, chip in enumerate(serial):
        assert batch.total_energy[r].hex() == float(chip.total_energy).hex()
        assert (
            batch.total_instructions[r].hex()
            == float(chip.total_instructions).hex()
        )


def test_totals_bit_identical_under_faults():
    campaigns = [
        FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.3, seed=s)
        for s in (10, 11, 12)
    ]
    batch, serial = _build(campaigns)
    rng = np.random.default_rng(8)
    for _ in range(N_EPOCHS):
        levels = rng.integers(0, 4, size=(N_RUNS, N_CORES))
        batch.step(levels)
        for r, chip in enumerate(serial):
            chip.step(levels[r])
    for r, chip in enumerate(serial):
        assert batch.total_energy[r].hex() == float(chip.total_energy).hex()
        assert (
            batch.total_instructions[r].hex()
            == float(chip.total_instructions).hex()
        )
