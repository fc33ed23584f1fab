"""One routing rule: a lone run decides through the same policy, whatever
its entry.

``run_controller`` (through ``simulate``) and the engine's one-row unit
``simulate_batch([task])`` both take their policy from
:func:`repro.kernel.policies.build_batch_policy`.  The golden traces pin
the values a run produces, not which code produced them, so these tests
spy on the policy each entry hands to ``run_stack``.  A lone stock OD-RL
or PID run must decide through the controller's own one-row ``stack``.
"""

from __future__ import annotations

import functools
import weakref

import pytest

import repro.batch.simulator as batch_simulator
import repro.sim.simulator as simulator
from repro.baselines import MaxBIPSController
from repro.batch import simulate_batch
from repro.kernel.epoch import EpochKernel
from repro.kernel.policies import (
    BatchGreedy,
    BatchMaxBIPS,
    BatchODRL,
    BatchPID,
    PerRunPolicy,
    build_batch_policy,
)
from repro.manycore import default_system
from repro.parallel.cells import RunCell
from repro.parallel.engine import CellTask
from repro.sim import run_controller
from repro.sim.runner import standard_controllers
from repro.workloads import mixed_workload

N_CORES = 4
N_EPOCHS = 3
CFG = default_system(n_cores=N_CORES, budget_fraction=0.6)
WORKLOAD = mixed_workload(N_CORES, seed=0)
LINEUP = standard_controllers(seed=0)

#: (case id, factory, simulation options)
CASES = [(name, factory, {}) for name, factory in LINEUP.items()]
CASES += [
    (f"{name}-watchdog", LINEUP[name], {"watchdog": True})
    for name in ("od-rl", "pid", "maxbips")
]
CASES += [
    ("od-rl-harvest", LINEUP["od-rl"], {"harvest": True}),
    (
        "maxbips-exhaustive",
        functools.partial(MaxBIPSController, method="exhaustive"),
        {},
    ),
]
#: the policy class of each case that decides through a vectorized policy;
#: every other case decides through PerRunPolicy
VECTORIZED = {
    "od-rl": BatchODRL,
    "pid": BatchPID,
    "greedy-ascent": BatchGreedy,
    "steepest-drop": BatchGreedy,
    "maxbips": BatchMaxBIPS,
}
#: the cases that must decide through the controller's own stack
OWN_STACK = {"od-rl", "pid"}


@pytest.fixture
def handed(monkeypatch):
    """``(policy class, is the lone driver's own stack)`` of every policy
    handed to ``run_stack``, by either entry."""
    seen = []
    real = simulator.run_stack

    def spy(kernel, policy, *args, **kwargs):
        own = getattr(policy.controllers[0], "stack", None) is policy
        seen.append((type(policy), own))
        return real(kernel, policy, *args, **kwargs)

    monkeypatch.setattr(simulator, "run_stack", spy)
    monkeypatch.setattr(batch_simulator, "run_stack", spy)
    return seen


@pytest.mark.parametrize("case, factory, options", CASES, ids=[c[0] for c in CASES])
def test_both_entries_hand_run_stack_the_same_policy(handed, case, factory, options):
    run_controller(CFG, WORKLOAD, factory(CFG), N_EPOCHS, **options)
    cell = RunCell(
        controller=case, workload=WORKLOAD.name, budget=None, seed=0, n_epochs=N_EPOCHS
    )
    simulate_batch([CellTask(cell, CFG, WORKLOAD, factory, options)])
    (serial, serial_own), (engine, engine_own) = handed
    assert serial is engine is VECTORIZED.get(case, PerRunPolicy)
    assert serial_own == engine_own == (case in OWN_STACK)


def test_a_lone_run_decides_through_the_controller_passed_in(handed):
    for name in sorted(OWN_STACK):
        controller = LINEUP[name](CFG)
        run_controller(CFG, WORKLOAD, controller, N_EPOCHS)
        stack = controller.stack
        assert stack.n_runs == 1
        assert handed.pop() == (type(stack), True)


def _closed_loop(policy, n_epochs):
    """Reset ``policy`` and run it ``n_epochs`` on a one-row kernel."""
    kernel = EpochKernel([CFG], [WORKLOAD])
    policy.reset()
    obs = None
    for _ in range(n_epochs):
        obs = kernel.step(policy.decide(obs))


@pytest.mark.parametrize("name", sorted(OWN_STACK))
def test_a_held_controller_keeps_its_stack_deciding(name):
    controller = LINEUP[name](CFG)
    policy = build_batch_policy([controller])
    assert policy is controller.stack
    _closed_loop(policy, N_EPOCHS)


@pytest.mark.parametrize("name", sorted(OWN_STACK))
def test_a_stack_whose_controller_is_gone_names_the_cause(name):
    """The stack holds its controller weakly, with no cycle: a temporary
    controller is freed as soon as the caller drops it (no collector pass
    runs here), and the stack's next read of it says what went wrong."""
    controller = LINEUP[name](CFG)
    alive = weakref.ref(controller)
    policy = build_batch_policy([controller])
    del controller
    assert alive() is None
    with pytest.raises(ReferenceError, match="keep a reference to the controller"):
        _closed_loop(policy, N_EPOCHS)
