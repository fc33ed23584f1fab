"""Workload substrate: phase traces, synthetic generators, named suite."""

from repro.workloads.phases import CorePhaseSequence, Phase, Workload
from repro.workloads.profile import (
    WorkloadProfile,
    characterize,
    generate_from_profile,
)
from repro.workloads.suite import (
    benchmark_names,
    make_benchmark,
    make_suite,
    mixed_workload,
)
from repro.workloads.synthetic import (
    bursty_sequence,
    compute_bound_sequence,
    memory_bound_sequence,
    phased_sequence,
    random_mix_sequence,
)
from repro.workloads.trace_io import (
    load_workload,
    save_workload,
    workload_from_dict,
    workload_to_dict,
)

__all__ = [
    "CorePhaseSequence",
    "WorkloadProfile",
    "characterize",
    "generate_from_profile",
    "Phase",
    "Workload",
    "benchmark_names",
    "make_benchmark",
    "make_suite",
    "mixed_workload",
    "bursty_sequence",
    "compute_bound_sequence",
    "memory_bound_sequence",
    "phased_sequence",
    "random_mix_sequence",
    "load_workload",
    "save_workload",
    "workload_from_dict",
    "workload_to_dict",
]
