"""Whole-program static analysis for the repo's determinism contracts.

Where :mod:`tools.lint` checks one file at a time, this package builds a
:class:`~tools.analyze.project.ProjectIndex` — every module, class,
function, import and call edge of the tree under analysis — and runs
cross-module analyzers over it:

========  ==========================================================
DET001    RNG dataflow: argless/literal-seed ``default_rng``, ad-hoc
          child-seed derivation, module-level shared streams
DET002    view thinness: serial views of the stacked backends must
          mutate nothing beyond their backend handle and draw no RNG
DET003    spawn safety: everything submitted to the process pool or
          bundled into a :class:`CellTask` must be module-level and
          picklable
DET004    cache-key purity: nothing wall-clock, process-local, or
          iteration-order dependent reachable from the fingerprint
          path
DET005    obs schema conformance: every literal ``emit``/``make_event``
          call matches the schema-v1 field lists in ``obs/events.py``
========  ==========================================================

Analyzers reuse the lint engine's :class:`~tools.lint.engine.Violation`
type and ``# noqa`` suppression; the file-level opt-out pragma is
``repro-analyze: skip-file`` (distinct from the lint pragma, so lint-rule
fixtures stay analyzable and vice versa).  Deliberate, justified findings
live in ``tools/analyze/baseline.json``.

Run ``python -m tools.analyze`` (defaults to ``src/repro``).
"""

from tools.analyze.engine import Analyzer, load_baseline, run_analyzers
from tools.analyze.project import ProjectIndex

__all__ = ["Analyzer", "ProjectIndex", "load_baseline", "run_analyzers"]
