"""Batched tensor simulation backend.

Stacks N independent run cells — controller × workload × seed × budget —
into one ``(n_runs, n_cores, ...)`` tensor simulation so a single NumPy
epoch step advances every run at once, with results **bit-identical** to
the serial path (the golden-trace and ``tests/batch/`` differential
suites are the referee).  Exposed as the third execution backend beside
serial and ``jobs=`` via ``run_suite(..., batch=True)``,
``GridOptions(batch=...)`` and the CLI ``--batch`` flag; see
``docs/batch.md`` for the stacking rules and fallback semantics.
"""

from repro.batch.chip import BatchChip, BatchObservation
from repro.kernel.policies import (
    BatchCompatError,
    BatchMaxBIPS,
    BatchODRL,
    BatchPolicy,
    PerRunPolicy,
    build_batch_policy,
)
from repro.batch.simulator import (
    batch_unsupported_reason,
    plan_batches,
    simulate_batch,
)

__all__ = [
    "BatchChip",
    "BatchObservation",
    "BatchCompatError",
    "BatchPolicy",
    "BatchODRL",
    "BatchMaxBIPS",
    "PerRunPolicy",
    "build_batch_policy",
    "batch_unsupported_reason",
    "plan_batches",
    "simulate_batch",
]
