"""Batched tensor simulation backend.

Stacks N independent run cells — controller × workload × seed × budget —
into one ``(n_runs, n_cores, ...)`` epoch kernel so a single NumPy epoch
step advances every run at once, with results **bit-identical** to the
serial path (the golden-trace and ``tests/batch/`` differential suites
are the referee).  The stack runs through the same control loop as a
serial run (:func:`repro.sim.simulator.run_stack`); this package holds
what is batch-specific: the compatibility gate, the planner that groups
cells into stacks, and the stacked run itself.  Exposed as the third
execution backend beside serial and ``jobs=`` via
``run_suite(..., batch=True)``, ``GridOptions(batch=...)`` and the CLI
``--batch`` flag; see ``docs/batch.md`` for the stacking rules and
fallback semantics.
"""

from repro.batch.simulator import (
    batch_unsupported_reason,
    plan_batches,
    simulate_batch,
)

__all__ = [
    "batch_unsupported_reason",
    "plan_batches",
    "simulate_batch",
]
