"""Parallel sharded execution of experiment grids, with result caching.

Public surface of the ``repro.parallel`` package:

* :class:`~repro.parallel.cells.RunCell` and the merge helpers — the
  pure grid bookkeeping;
* :func:`~repro.parallel.cache.cell_key`, :func:`~repro.parallel.cache.stable_hash`
  and :class:`~repro.parallel.cache.ResultCache` — content-addressed
  persistence of cell results;
* :func:`~repro.parallel.engine.execute_cells` /
  :func:`~repro.parallel.engine.execute_cells_report` with
  :class:`~repro.parallel.engine.CellTask` /
  :class:`~repro.parallel.engine.CellFailure` /
  :class:`~repro.parallel.engine.ExecutionReport` — the process-pool
  engine, with partial-results mode;
* :class:`~repro.parallel.retry.RetryPolicy` — transient/deterministic
  error classification and bounded, seeded backoff;
* :class:`~repro.parallel.chaos.ChaosPolicy` — seeded, deterministic
  infrastructure fault injection (worker crash/hang/transient errors,
  cache corruption, disk-full);
* :class:`~repro.parallel.journal.CampaignJournal` — append-only
  checkpoint log giving campaigns kill-and-resume;
* :func:`~repro.parallel.compare.trace_equal` /
  :func:`~repro.parallel.compare.assert_trace_equal` — the bit-level
  equality the determinism guarantee is stated in.

Most callers never touch these directly: :func:`repro.sim.runner.run_suite`
and :func:`repro.sim.runner.run_budget_sweep` accept ``jobs=`` / ``cache=``
and route through this package.  See ``docs/parallel.md``.
"""

from repro.parallel.cache import (
    CACHE_SALT,
    CacheAuditReport,
    CacheKeyError,
    CacheStats,
    ResultCache,
    cell_key,
    controller_fingerprint,
    stable_hash,
    workload_token,
)
from repro.parallel.chaos import ChaosPolicy, ChaosTransientError
from repro.parallel.cells import RunCell, merge_suite, merge_sweep
from repro.parallel.compare import assert_trace_equal, trace_equal
from repro.parallel.engine import (
    CellFailure,
    CellTask,
    ExecutionReport,
    ParallelExecutionError,
    execute_cells,
    execute_cells_report,
)
from repro.parallel.journal import CampaignJournal, JournalError, campaign_id
from repro.parallel.retry import (
    DETERMINISTIC,
    TRANSIENT,
    RetryPolicy,
)

__all__ = [
    "CACHE_SALT",
    "CacheAuditReport",
    "CacheKeyError",
    "CacheStats",
    "CampaignJournal",
    "CellFailure",
    "CellTask",
    "ChaosPolicy",
    "ChaosTransientError",
    "DETERMINISTIC",
    "ExecutionReport",
    "JournalError",
    "ParallelExecutionError",
    "ResultCache",
    "RetryPolicy",
    "RunCell",
    "TRANSIENT",
    "assert_trace_equal",
    "campaign_id",
    "cell_key",
    "controller_fingerprint",
    "execute_cells",
    "execute_cells_report",
    "merge_suite",
    "merge_sweep",
    "stable_hash",
    "trace_equal",
    "workload_token",
]
