"""Property-based tests: workload phase lookup and trace round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    CorePhaseSequence,
    Phase,
    Workload,
    workload_from_dict,
    workload_to_dict,
)

phases_strategy = st.lists(
    st.builds(
        Phase,
        duration=st.floats(1e-3, 1.0, allow_nan=False),
        mem_intensity=st.floats(0.0, 0.03, allow_nan=False),
        compute_intensity=st.floats(0.0, 1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


@given(phases_strategy, st.floats(0.0, 50.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_phase_at_total_function(phases, t):
    """phase_at is defined for every non-negative time and returns a member."""
    seq = CorePhaseSequence(phases)
    p = seq.phase_at(t)
    assert p in seq.phases


@given(phases_strategy, st.floats(0.0, 10.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_phase_at_periodic(phases, t):
    from hypothesis import assume

    seq = CorePhaseSequence(phases)
    # Periodicity is exact except within float rounding of a phase
    # boundary, where (t + T) % T can land on the other side of the edge.
    wrapped = t % seq.total_duration
    cumulative = 0.0
    for p in seq.phases:
        cumulative += p.duration
        assume(abs(wrapped - cumulative) > 1e-6)
    assume(wrapped > 1e-6)
    assert seq.phase_at(t) is seq.phase_at(t + seq.total_duration)


@given(phases_strategy)
@settings(max_examples=100, deadline=None)
def test_durations_partition_the_cycle(phases):
    """Sampling just inside each cumulative boundary hits each phase in order."""
    seq = CorePhaseSequence(phases)
    cumulative = 0.0
    for expected in seq.phases:
        probe = cumulative + expected.duration * 0.5
        assert seq.phase_at(probe) is expected
        cumulative += expected.duration


@given(st.lists(phases_strategy, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_trace_round_trip(core_phase_lists):
    w = Workload([CorePhaseSequence(ps) for ps in core_phase_lists], name="prop")
    w2 = workload_from_dict(workload_to_dict(w))
    assert w2.name == w.name
    assert len(w2) == len(w)
    for sa, sb in zip(w.sequences, w2.sequences):
        assert len(sa) == len(sb)
        for pa, pb in zip(sa.phases, sb.phases):
            assert pa.duration == pb.duration
            assert pa.mem_intensity == pb.mem_intensity
            assert pa.compute_intensity == pb.compute_intensity


@given(st.lists(phases_strategy, min_size=1, max_size=3), st.integers(1, 12),
       st.floats(0.0, 5.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_sample_matches_per_core_lookup(core_phase_lists, n_cores, t):
    w = Workload([CorePhaseSequence(ps) for ps in core_phase_lists])
    mem, comp = w.sample(t, n_cores)
    for i in range(n_cores):
        p = w.sequence_for_core(i).phase_at(t)
        assert mem[i] == p.mem_intensity
        assert comp[i] == p.compute_intensity
