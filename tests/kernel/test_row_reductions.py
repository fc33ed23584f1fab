"""The row-reduction rule of the bit-identity contract.

The kernel and the batch policies reduce ``(n_runs, n_cores)`` stacks
with ``a.sum(axis=1)`` / ``a.max(axis=1)`` where the serial code reduces
one run's ``(n_cores,)`` vector with ``float(np.sum(row))`` /
``np.max(row)``.  That is only sound if numpy reduces each row of a
C-contiguous float64 stack in the same pairwise order as the 1-D array.
These tests pin it, bit for bit, across the pairwise-summation block
edges (numpy unrolls by 8 and recurses above 128 elements) and on
inputs with infinities and NaNs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.epoch import EpochKernel
from repro.manycore import default_system
from repro.workloads import mixed_workload

CORE_COUNTS = (*range(1, 10), 127, 128, 129, 255, 256, 257, 1024)
SPECIALS = (np.inf, -np.inf, np.nan)


@st.composite
def _stacks(draw):
    n_runs = draw(st.integers(1, 33), label="n_runs")
    n_cores = draw(st.sampled_from(CORE_COUNTS), label="n_cores")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    # Mixed signs and magnitudes, so a different association order would
    # round differently.
    stack = rng.standard_normal((n_runs, n_cores)) * 10.0 ** rng.integers(
        -8, 9, (n_runs, n_cores)
    )
    n_special = draw(st.integers(0, 4), label="n_special")
    for _ in range(n_special):
        r = draw(st.integers(0, n_runs - 1))
        c = draw(st.integers(0, n_cores - 1))
        stack[r, c] = draw(st.sampled_from(SPECIALS))
    return np.ascontiguousarray(stack)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestRowReductions:
    @settings(max_examples=300, deadline=None)
    @given(_stacks())
    def test_axis1_sum_matches_per_row_sum(self, stack):
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN
            per_row = [float(np.sum(stack[r])) for r in range(stack.shape[0])]
            stacked = stack.sum(axis=1)
        assert _bits(stacked) == _bits(per_row)

    @settings(max_examples=300, deadline=None)
    @given(_stacks())
    def test_axis1_max_matches_per_row_max(self, stack):
        per_row = [np.max(stack[r]) for r in range(stack.shape[0])]
        assert _bits(stack.max(axis=1)) == _bits(per_row)


class TestKernelRowSums:
    def test_observation_sums_are_the_serial_row_sums(self):
        n_cores, n_runs = 9, 5
        cfg = default_system(n_cores=n_cores, n_levels=4, budget_fraction=0.6)
        workload = mixed_workload(n_cores, seed=2)
        kernel = EpochKernel([cfg] * n_runs, [workload] * n_runs)
        rng = np.random.default_rng(0)
        for _ in range(6):
            obs = kernel.step(rng.integers(0, cfg.n_levels, (n_runs, n_cores)))
            for r in range(n_runs):
                row = obs.row(r)
                assert obs.chip_power[r] == row.chip_power
                assert obs.chip_instructions[r] == row.chip_instructions
