"""The array-native epoch kernel every execution backend is a view over.

:class:`~repro.kernel.epoch.EpochKernel` owns the canonical
``(n_runs, n_cores)`` epoch step — power, thermal, phase, sensor, and
fault advance.  The serial chip (:class:`repro.manycore.chip.ManyCoreChip`)
is an ``n_runs=1`` view, and :mod:`repro.batch` builds one kernel per
stack of cells, as the engine does for every cell.  Both drive their kernel through the one
control loop, :func:`repro.sim.simulator.run_stack`.  The batch policies
that decide for a stack live in :mod:`repro.kernel.policies`; they are
*not* imported here because they pull in the controller layer, which
imports this package's views.

The bit-identity contract — every backend produces bit-for-bit the traces
of the ``n_runs=1`` view — is pinned by ``tests/golden/`` and the
backend-conformance suite in ``tests/kernel/``; the DET002 analyzer
checks that the views stay thin (see ``docs/static-analysis.md``).
"""

from repro.kernel.epoch import EpochKernel, EpochObservation, KernelObservation

__all__ = [
    "EpochKernel",
    "EpochObservation",
    "KernelObservation",
]
