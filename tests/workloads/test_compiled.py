"""Tests of the compiled phase table behind ``Workload.sample``.

A workload compiles its sequences once into one padded array table;
``Workload.sample`` and ``Workload.sample_into``, which the kernel's block
lookup calls for every run, both read it.  These tests hold it to the
per-core ``phase_at`` bisect on a realistic workload, in closed loop, and
under its argument checks.
"""

import numpy as np
import pytest

from repro.workloads import mixed_workload

from tests.workloads.helpers import ReferenceWorkload, reference_sample


@pytest.fixture
def source():
    return mixed_workload(8, seed=4)


def assert_sample_equal(workload, t, n_cores):
    mem, comp = workload.sample(t, n_cores)
    ref_mem, ref_comp = reference_sample(workload, t, n_cores)
    assert np.array_equal(mem, ref_mem)
    assert np.array_equal(comp, ref_comp)


class TestEquivalence:
    def test_exact_on_grid(self, source):
        t = 0.0
        for _ in range(200):
            assert_sample_equal(source, t, 8)
            t += 1e-3

    def test_exact_off_grid(self, source):
        for t in (13.37e-3 + 4.2e-4, 0.1234567, 0.0999999):
            assert_sample_equal(source, t, 8)

    def test_exact_past_cycle(self, source):
        longest = max(seq.total_duration for seq in source.sequences)
        for t in (longest, 2.5 * longest, 40.0):
            assert_sample_equal(source, t, 8)

    def test_exact_at_other_core_counts(self, source):
        for n_cores in (1, 4, 8, 9, 64):
            assert_sample_equal(source, 0.0123, n_cores)

    def test_simulation_identical(self, source):
        # A full closed-loop run must be bit-identical to one sampled per
        # core through the bisect.
        from repro.core import ODRLController
        from repro.manycore import default_system
        from repro.sim import run_controller

        cfg = default_system(n_cores=8)
        a = run_controller(cfg, source, ODRLController(cfg, seed=1), 200)
        b = run_controller(
            cfg, ReferenceWorkload(source), ODRLController(cfg, seed=1), 200
        )
        assert np.array_equal(a.chip_power, b.chip_power)
        assert np.array_equal(a.chip_instructions, b.chip_instructions)


class TestPerformance:
    def test_grid_lookup_faster_than_source(self):
        import time

        source = mixed_workload(64, seed=4)
        reference = ReferenceWorkload(source)
        source.sample(0.0, 64)  # compiles the table
        t0 = time.perf_counter()
        for e in range(500):
            reference.sample(e * 1e-3, 64)
        slow = time.perf_counter() - t0
        t0 = time.perf_counter()
        for e in range(500):
            source.sample(e * 1e-3, 64)
        fast = time.perf_counter() - t0
        assert fast < slow

    def test_returns_copies(self, source):
        m1, c1 = source.sample(0.0, 8)
        m1[:] = -1
        c1[:] = -1
        m2, c2 = source.sample(0.0, 8)
        assert np.all(m2 >= 0)
        assert np.all(c2 >= 0)


class TestValidation:
    def test_rejects_bad_args(self, source):
        with pytest.raises(ValueError, match="time"):
            source.sample(-1e-3, 8)
        with pytest.raises(ValueError, match="n_cores"):
            source.sample(0.0, 0)
        with pytest.raises(ValueError, match="n_cores"):
            source.sample(-1e-3, -1)
        out = np.empty((2, 8))
        with pytest.raises(ValueError, match="times"):
            source.sample_into(np.array([0.0, -1e-3]), out, out.copy())

    def test_preserves_name_and_sequences(self, source):
        sequences = source.sequences
        source.sample(0.0, 8)
        assert source.name == "mixed"
        assert source.sequences is sequences
        assert len(source) == 8
