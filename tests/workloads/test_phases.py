"""Tests for repro.workloads.phases."""

import numpy as np
import pytest

from repro.workloads import CorePhaseSequence, Phase, Workload, mixed_workload

from tests.workloads.helpers import reference_sample


def seq(*durations):
    return CorePhaseSequence(
        [Phase(duration=d, mem_intensity=0.001 * i, compute_intensity=0.5) for i, d in enumerate(durations)]
    )


class TestPhase:
    def test_valid(self):
        p = Phase(duration=0.01, mem_intensity=0.005, compute_intensity=0.7)
        assert p.duration == 0.01

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Phase(duration=0.0, mem_intensity=0.0, compute_intensity=0.5)

    def test_rejects_negative_mem(self):
        with pytest.raises(ValueError, match="mem_intensity"):
            Phase(duration=0.1, mem_intensity=-0.01, compute_intensity=0.5)

    def test_rejects_out_of_range_compute(self):
        with pytest.raises(ValueError, match="compute_intensity"):
            Phase(duration=0.1, mem_intensity=0.0, compute_intensity=1.2)

    def test_frozen(self):
        p = Phase(duration=0.1, mem_intensity=0.0, compute_intensity=0.5)
        with pytest.raises(AttributeError):
            p.duration = 0.2


class TestCorePhaseSequence:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            CorePhaseSequence([])

    def test_total_duration(self):
        s = seq(0.1, 0.2, 0.3)
        assert s.total_duration == pytest.approx(0.6)
        assert len(s) == 3

    def test_phase_lookup_within_pass(self):
        s = seq(0.1, 0.2, 0.3)
        assert s.phase_at(0.05) is s.phases[0]
        assert s.phase_at(0.15) is s.phases[1]
        assert s.phase_at(0.45) is s.phases[2]

    def test_boundary_belongs_to_next_phase(self):
        s = seq(0.1, 0.2)
        assert s.phase_at(0.1) is s.phases[1]

    def test_cyclic_wraparound(self):
        # Binary-exact durations so the wrap point is numerically crisp.
        s = seq(0.25, 0.5)
        assert s.phase_at(0.75) is s.phases[0]  # exact wrap
        assert s.phase_at(0.85) is s.phases[0]
        assert s.phase_at(1.1) is s.phases[1]
        assert s.phase_at(7.6) is s.phases[0]  # 7.6 % 0.75 = 0.1

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time"):
            seq(0.1).phase_at(-1.0)

    def test_single_phase_always_active(self):
        s = seq(0.5)
        for t in (0.0, 0.25, 0.5, 10.0):
            assert s.phase_at(t) is s.phases[0]


class TestWorkload:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            Workload([])

    def test_round_robin_tiling(self):
        s0, s1 = seq(0.1), seq(0.2)
        w = Workload([s0, s1])
        assert w.sequence_for_core(0) is s0
        assert w.sequence_for_core(1) is s1
        assert w.sequence_for_core(2) is s0
        assert w.sequence_for_core(5) is s1

    def test_rejects_negative_core(self):
        with pytest.raises(ValueError, match="core index"):
            Workload([seq(0.1)]).sequence_for_core(-1)

    def test_sample_shapes_and_values(self):
        phases = [
            Phase(duration=1.0, mem_intensity=0.01, compute_intensity=0.3),
            Phase(duration=1.0, mem_intensity=0.02, compute_intensity=0.8),
        ]
        w = Workload([CorePhaseSequence([p]) for p in phases])
        mem, comp = w.sample(0.0, 4)
        assert mem.shape == comp.shape == (4,)
        assert np.allclose(mem, [0.01, 0.02, 0.01, 0.02])
        assert np.allclose(comp, [0.3, 0.8, 0.3, 0.8])

    def test_sample_rejects_nonpositive_cores(self):
        with pytest.raises(ValueError, match="n_cores"):
            Workload([seq(0.1)]).sample(0.0, 0)

    def test_len_and_name(self):
        w = Workload([seq(0.1), seq(0.2)], name="demo")
        assert len(w) == 2
        assert w.name == "demo"


def values_seq(*durations):
    """Like :func:`seq`, with distinct mem and compute values per phase."""
    return CorePhaseSequence(
        [
            Phase(duration=d, mem_intensity=0.001 * (i + 1), compute_intensity=0.1 * (i + 1))
            for i, d in enumerate(durations)
        ]
    )


def edge_workload():
    """Sequences of 1 to 4 phases, binary-exact and whole-millisecond."""
    return Workload(
        [
            values_seq(0.25, 0.5),
            values_seq(0.004, 0.003),
            values_seq(0.5),
            values_seq(0.001, 0.002, 0.004, 0.0015),
        ]
    )


def assert_matches_reference(workload, t, n_cores):
    mem, comp = workload.sample(t, n_cores)
    ref_mem, ref_comp = reference_sample(workload, t, n_cores)
    assert np.array_equal(mem, ref_mem), (t, n_cores)
    assert np.array_equal(comp, ref_comp), (t, n_cores)


class TestVectorizedSample:
    """``Workload.sample`` against the per-core ``phase_at`` bisect."""

    @pytest.mark.parametrize("n_cores", [1, 2, 4, 5, 11, 64])
    def test_more_and_fewer_cores_than_sequences(self, n_cores):
        w = edge_workload()
        t = 0.0
        for _ in range(300):
            assert_matches_reference(w, t, n_cores)
            t += 1e-3

    def test_on_cumulative_ends(self):
        w = edge_workload()
        for s in w.sequences:
            end = 0.0
            for p in s.phases:
                end += p.duration
                assert_matches_reference(w, end, 4)
                assert_matches_reference(w, np.nextafter(end, 0.0), 4)

    def test_on_multiples_of_the_cycle_total(self):
        # The exact wrap point that phase_at's ``idx >= len`` clamp guards.
        w = edge_workload()
        for s in w.sequences:
            for k in (1, 2, 3, 1000):
                assert_matches_reference(w, k * s.total_duration, 8)

    def test_single_phase_sequences(self):
        w = Workload([values_seq(0.5), values_seq(0.003)])
        for t in (0.0, 0.003, 0.25, 0.5, 10.0, 1e6):
            assert_matches_reference(w, t, 3)

    def test_around_a_million_epochs(self):
        for w in (edge_workload(), mixed_workload(16, seed=5)):
            t = 1e3  # 10**6 epochs of 1 ms
            for _ in range(50):
                assert_matches_reference(w, t, 16)
                t += 1e-3
            for t in (1e6 * 1e-3 + 0.5, 999.999, 1000.0005):
                assert_matches_reference(w, t, 16)

    def test_rejects_negative_time_and_nonpositive_cores(self):
        w = edge_workload()
        with pytest.raises(ValueError, match="time"):
            w.sample(-1e-9, 4)
        with pytest.raises(ValueError, match="n_cores"):
            w.sample(0.0, 0)
        with pytest.raises(ValueError, match="n_cores"):
            w.sample(0.0, -3)

    def test_returned_arrays_are_fresh_and_writable(self):
        w = edge_workload()
        mem, comp = w.sample(0.1, 8)
        ref_mem, ref_comp = reference_sample(w, 0.1, 8)
        mem *= 2.0
        comp[:] = -1.0
        again_mem, again_comp = w.sample(0.1, 8)
        assert np.array_equal(again_mem, ref_mem)
        assert np.array_equal(again_comp, ref_comp)

    def test_phase_table_is_read_only(self):
        w = edge_workload()
        w.sample(0.0, 4)
        table = w._phase_table()
        for array in (table.ends, table.totals, table.stops, table.mem, table.comp):
            assert not array.flags.writeable


class TestSampleIntoBudget:
    """One block refill keeps every temporary it makes, numpy's own
    buffers included, within ``_CHUNK_BYTES`` plus one ``(n_cores,)`` index
    row, whatever the core count and however the block is laid out."""

    @pytest.mark.parametrize(
        "n_cores, n_sequences", [(16, 16), (64, 64), (256, 256), (64, 3)]
    )
    @pytest.mark.parametrize("layout", ["rows", "block-slice"])
    def test_peak_stays_within_the_chunk_budget(self, n_cores, n_sequences, layout):
        import tracemalloc

        from repro.workloads.phases import _CHUNK_BYTES

        sequences = mixed_workload(n_sequences, seed=0).sequences
        w = Workload(sequences, name="budget")
        times = np.arange(64) * 1e-3
        if layout == "rows":
            mem, comp = np.empty((64, n_cores)), np.empty((64, n_cores))
        else:
            # The kernel's layout: one workload's slice of a shared block.
            mem, comp = np.empty((64, 2, n_cores))[:, 1], np.empty((64, 2, n_cores))[:, 1]
        w.sample_into(times[:1], mem[:1], comp[:1])  # compile the phase table
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            w.sample_into(times, mem, comp)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= _CHUNK_BYTES + 8 * n_cores
        for e, t in enumerate(times):
            ref_mem, ref_comp = w.sample(t, n_cores)
            assert np.array_equal(mem[e], ref_mem) and np.array_equal(comp[e], ref_comp)
