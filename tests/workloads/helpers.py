"""The per-core phase lookup the vectorized ``Workload.sample`` must equal."""

from typing import Tuple

import numpy as np

from repro.workloads import Workload


def reference_sample(
    workload: Workload, t: float, n_cores: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``sequence_for_core(i).phase_at(t)`` for every core, one bisect each."""
    mem = np.empty(n_cores)
    comp = np.empty(n_cores)
    for i in range(n_cores):
        phase = workload.sequence_for_core(i).phase_at(t)
        mem[i] = phase.mem_intensity
        comp[i] = phase.compute_intensity
    return mem, comp


class ReferenceWorkload(Workload):
    """A workload sampled through :func:`reference_sample`."""

    def __init__(self, workload: Workload) -> None:
        super().__init__(workload.sequences, name=workload.name)

    def sample(self, t: float, n_cores: int) -> Tuple[np.ndarray, np.ndarray]:
        return reference_sample(self, t, n_cores)

    def sample_into(
        self, times: np.ndarray, mem: np.ndarray, comp: np.ndarray
    ) -> None:
        # The kernel looks phases up a block of epochs at a time.
        for e, t in enumerate(times):
            mem[e], comp[e] = reference_sample(self, float(t), mem.shape[1])
