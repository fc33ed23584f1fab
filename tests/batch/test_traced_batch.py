"""Traced cells batch, and their traces are the serial traces.

The serial and the batched backends run the same control loop, which
emits each row's events into that row's own recorder.  So for every cell
a ``batch=True`` traced run must produce, between the cell's engine
lifecycle events, exactly the events of the ``jobs=1`` traced run — run
manifest, epoch records, fault / sanitizer / watchdog / checkpoint
incidents and ``run_end`` totals — with only the wall-clock fields
(``decision_time``, ``phases``, ``timing``) and the recorder's ``seq``
stamps allowed to differ.  The scenarios cover the vectorized OD-RL and
MaxBIPS policies (including ``BatchODRL`` sanitizer incidents under
telemetry blackouts), per-run watchdog drivers with crash/restore, and
ragged stacks whose rows finish at different epochs.

A stack that raises mid-run is re-run one cell per stack; its partial
buffers are dropped, so each event still appears exactly once.  Whatever
the stacks, the engine emits every cell's events in task order.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.faults import FaultCampaign
from repro.faults.campaign import TelemetryBlackout
from repro.kernel.policies import BatchODRL
from repro.manycore import default_system
from repro.obs import BufferRecorder
from repro.parallel import CellTask, RunCell, execute_cells
from repro.sim import standard_controllers
from repro.workloads import mixed_workload

N_CORES = 4
N_EPOCHS = 12
CONTROLLERS = ("od-rl", "maxbips", "pid", "greedy-ascent")
BUDGET_FRACTIONS = (0.5, 0.7)

CFG = default_system(n_cores=N_CORES, n_levels=3, budget_fraction=0.6)
WORKLOAD = mixed_workload(N_CORES, seed=0)

#: wall-clock and sequencing fields, outside the bit-identity contract
VOLATILE = frozenset({"seq", "decision_time", "phases", "timing"})

#: events the engine emits about cells (everything else is a run event)
ENGINE_EVENTS = frozenset(
    {
        "cell_start",
        "cell_cached",
        "cell_batched",
        "cell_fallback",
        "cell_done",
        "cell_failed",
        "engine_summary",
    }
)

SCENARIOS = {
    "clean": {},
    "faults": {
        "faults": FaultCampaign.random(N_CORES, N_EPOCHS, rate=0.2, seed=2),
    },
    "watchdog": {
        "faults": FaultCampaign.random(
            N_CORES, N_EPOCHS, rate=0.2, seed=2, n_crashes=1
        ),
        "watchdog": True,
        "checkpoint_period": 3,
    },
    "ragged": {},
    "degradation": {
        "faults": FaultCampaign(
            N_CORES,
            blackouts=(
                TelemetryBlackout(2, 3),
                TelemetryBlackout(8, 1, ("power",)),
            ),
        ),
    },
}


def _tasks(scenario: str) -> List[CellTask]:
    lineup = standard_controllers(seed=0)
    tasks = []
    for name in CONTROLLERS:
        for k, fraction in enumerate(BUDGET_FRACTIONS):
            cfg = CFG.with_budget(CFG.power_budget * fraction / 0.6)
            # Ragged rows end at different epochs inside one stack.
            n_epochs = N_EPOCHS - 5 * k if scenario == "ragged" else N_EPOCHS
            cell = RunCell(
                controller=name,
                workload=WORKLOAD.name,
                budget=cfg.power_budget,
                seed=0,
                n_epochs=n_epochs,
            )
            tasks.append(
                CellTask(
                    cell, cfg, WORKLOAD, lineup[name],
                    dict(SCENARIOS[scenario]), trace=True,
                )
            )
    return tasks


def _per_cell_events(events) -> Dict[str, List[dict]]:
    """Each cell's run events — those since the previous cell settled —
    keyed by the cell the next ``cell_done`` names, minus volatile fields."""
    cells: Dict[str, List[dict]] = {}
    pending: List[dict] = []
    for event in events:
        if event["type"] == "cell_done":
            assert event["cell"] not in cells, f"{event['cell']} settled twice"
            cells[event["cell"]] = pending
            pending = []
        elif event["type"] not in ENGINE_EVENTS:
            pending.append({k: v for k, v in event.items() if k not in VOLATILE})
    assert not pending, f"run events after the last cell settled: {pending}"
    return cells


def _traced(tasks, **options):
    rec = BufferRecorder()
    execute_cells(tasks, jobs=1, recorder=rec, **options)
    return rec.events


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_batched_trace_matches_serial_trace(scenario):
    tasks = _tasks(scenario)
    serial = _per_cell_events(_traced(tasks))
    batched_events = _traced(tasks, batch=True)
    batched = _per_cell_events(batched_events)

    kinds = [e["type"] for e in batched_events]
    assert "cell_fallback" not in kinds
    assert kinds.count("cell_batched") == len(tasks)
    for task in tasks:
        label = task.cell.label()
        assert batched[label] == serial[label], f"{scenario}: {label}"
        run_ends = [e for e in batched[label] if e["type"] == "run_end"]
        assert [e["n_epochs"] for e in run_ends] == [task.cell.n_epochs]
    run_kinds = {e["type"] for cell in batched.values() for e in cell}
    if scenario == "degradation":
        assert "sanitizer" in run_kinds
    if scenario == "watchdog":
        assert {"watchdog", "checkpoint"} <= run_kinds


def test_group_raising_mid_run_leaves_each_event_once(monkeypatch):
    tasks = _tasks("faults")
    serial = _per_cell_events(_traced(tasks))

    decide = BatchODRL.decide
    calls = {"n": 0}

    def fail_mid_run(self, bobs, active=None):
        # Only stacks of several runs fail: the one-row re-runs succeed.
        if self.n_runs > 1:
            calls["n"] += 1
            if calls["n"] > N_EPOCHS // 2:
                raise RuntimeError("deliberate mid-run batch failure")
        return decide(self, bobs, active)

    monkeypatch.setattr(BatchODRL, "decide", fail_mid_run)
    events = _traced(tasks, batch=True)
    batched = _per_cell_events(events)

    assert calls["n"] > N_EPOCHS // 2  # the od-rl group did fail mid-run
    fallbacks = [e["cell"] for e in events if e["type"] == "cell_fallback"]
    assert fallbacks == [t.cell.label() for t in tasks if t.cell.controller == "od-rl"]
    for task in tasks:
        label = task.cell.label()
        assert batched[label] == serial[label], label
        assert [e["type"] for e in batched[label]].count("run_start") == 1


def _engine_trace(events, drop=frozenset()):
    """The trace minus ``drop``-typed events, volatile fields and the
    ``engine_summary`` counters."""
    kept = []
    for event in events:
        if event["type"] in drop:
            continue
        event = {k: v for k, v in event.items() if k not in VOLATILE}
        if event["type"] == "engine_summary":
            del event["counters"]
        kept.append(event)
    return kept


def test_interleaved_stacks_emit_in_task_order():
    # Controllers alternate in task order, so the plan's two stacks
    # interleave; the trace must still follow the task list.
    lineup = standard_controllers(seed=0)
    tasks = []
    for fraction in BUDGET_FRACTIONS:
        for name in ("od-rl", "pid"):
            cfg = CFG.with_budget(CFG.power_budget * fraction / 0.6)
            cell = RunCell(
                controller=name, workload=WORKLOAD.name, budget=cfg.power_budget,
                seed=0, n_epochs=N_EPOCHS,
            )
            tasks.append(CellTask(cell, cfg, WORKLOAD, lineup[name], {}, trace=True))
    batched = _traced(tasks, batch=True)
    sizes = [e["size"] for e in batched if e["type"] == "cell_batched"]
    assert sizes == [2, 2, 2, 2]
    assert _engine_trace(batched, {"cell_batched"}) == _engine_trace(_traced(tasks))
    done = [e["cell"] for e in batched if e["type"] == "cell_done"]
    assert done == [t.cell.label() for t in tasks]
