"""Stacked simulation of run cells.

Stacks N independent run cells — controller × workload × seed × budget —
into one ``(n_runs, n_cores, ...)`` epoch kernel so a single NumPy epoch
step advances every run at once, with results **bit-identical** to the
serial path (the golden-trace and ``tests/batch/`` differential suites
are the referee).  The stack runs through the same control loop and
policy choice as a serial run (:func:`repro.sim.simulator.run_stack`,
:func:`repro.kernel.policies.build_batch_policy`); this package holds
the planner that groups cells into stacks and the stacked run itself,
which is how the engine runs every cell, one per stack by default and
planned stacks with ``run_suite(..., batch=True)``,
``GridOptions(batch=...)`` or the CLI ``--batch`` flag, at any ``jobs``;
see ``docs/batch.md`` for the stacking rules and batch-error semantics.
"""

from repro.batch.simulator import plan_batches, simulate_batch

__all__ = ["plan_batches", "simulate_batch"]
