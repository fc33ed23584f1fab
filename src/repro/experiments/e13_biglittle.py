"""E13 (extension) — heterogeneous (big.LITTLE) chips.

On a chip mixing big and little cores the budget question changes shape:
a watt on a big core buys more absolute throughput, but a watt on a little
core is often cheaper per instruction.  The experiment runs the controller
lineup on a 50/50 big.LITTLE chip (each controller given the core-type map,
which is platform knowledge) and reports throughput / compliance /
efficiency plus where OD-RL's reallocator sends the watts per core type.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.baselines import (
    GreedyAscentController,
    MaxBIPSController,
    PIDCappingController,
)
from repro.core import ODRLController
from repro.experiments.base import ExperimentResult
from repro.manycore.config import default_system
from repro.manycore.hetero import big_little_map
from repro.metrics.perf_metrics import energy_efficiency, throughput_bips
from repro.metrics.power_metrics import budget_utilization, over_budget_energy
from repro.metrics.report import format_table
from repro.sim.simulator import run_controller
from repro.workloads.suite import mixed_workload

__all__ = ["run_e13"]


def run_e13(
    n_cores: int = 64,
    n_epochs: int = 2000,
    budget_fraction: float = 0.35,
    big_fraction: float = 0.5,
    seed: int = 0,
) -> ExperimentResult:
    """Run E13: the controller lineup on a big.LITTLE chip.

    ``data['metrics'][controller]`` holds bips / utilization / obe_J /
    instr_per_J; ``data['allocation_by_type']`` records OD-RL's final mean
    budget share per core type.
    """
    if not (0 < big_fraction < 1):
        raise ValueError(f"big_fraction must be in (0, 1), got {big_fraction}")
    cfg = default_system(n_cores=n_cores, budget_fraction=budget_fraction)
    hetero = big_little_map(n_cores, big_fraction=big_fraction)
    workload = mixed_workload(n_cores, seed=seed)

    odrl = ODRLController(cfg, hetero=hetero, seed=seed)
    lineup = {
        "od-rl": odrl,
        "pid": PIDCappingController(cfg),
        "greedy-ascent": GreedyAscentController(cfg, hetero=hetero),
        "maxbips": MaxBIPSController(cfg, hetero=hetero),
    }
    metrics: Dict[str, Dict[str, float]] = {}
    for name, controller in lineup.items():
        result = run_controller(
            cfg, workload, controller, n_epochs, hetero=hetero
        )
        steady = result.tail(0.5)
        metrics[name] = {
            "bips": throughput_bips(steady),
            "utilization": budget_utilization(steady),
            "obe_J": over_budget_energy(steady),
            "instr_per_J": energy_efficiency(steady),
        }

    idx = hetero.type_indices()
    allocation_by_type = {
        type_name: float(np.mean(odrl.allocation[cores]))
        for type_name, cores in idx.items()
    }

    report = "\n\n".join(
        [
            format_table(
                metrics,
                ["bips", "utilization", "obe_J", "instr_per_J"],
                title=(
                    f"E13: big.LITTLE chip ({big_fraction:.0%} big), {n_cores} "
                    f"cores, budget {cfg.power_budget:.1f} W (steady state)"
                ),
                fmt="{:.4g}",
            ),
            format_table(
                {"od-rl mean share (W)": allocation_by_type},
                sorted(allocation_by_type),
                title="E13: OD-RL budget share per core type",
                fmt="{:.2f}",
            ),
        ]
    )
    return ExperimentResult(
        experiment_id="E13",
        title="Heterogeneous big.LITTLE chip (extension)",
        report=report,
        data={"metrics": metrics, "allocation_by_type": allocation_by_type},
    )
