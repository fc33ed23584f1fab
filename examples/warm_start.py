#!/usr/bin/env python3
"""Policy checkpointing: train once, deploy warm everywhere.

An on-line learner pays a warm-up transient after every cold start.  This
demo trains OD-RL, checkpoints the learned policy with
:func:`repro.core.save_policy`, then compares a cold-started controller
against a warm-started one on the early epochs of a fresh run — the warm
controller is at its steady operating point from epoch 0.

Run:
    python examples/warm_start.py
"""

import tempfile
from pathlib import Path

from repro import ManyCoreChip, ODRLController, default_system, mixed_workload
from repro.core import load_policy, save_policy
from repro.sim import run_controller, simulate


def early_metrics(result, budget, window=300):
    bips = result.chip_instructions[:window].sum() / (window * result.cfg.epoch_time) / 1e9
    util = result.chip_power[:window].mean() / budget
    return bips, util


def main() -> None:
    n_cores = 32
    cfg = default_system(n_cores=n_cores, budget_fraction=0.6)
    workload = mixed_workload(n_cores, seed=0)
    checkpoint = Path(tempfile.gettempdir()) / "odrl_policy.npz"

    print("Phase 1: train for 3000 epochs and checkpoint the policy...")
    trainer = ODRLController(cfg, seed=0)
    trained = run_controller(cfg, workload, trainer, n_epochs=3000)
    save_policy(trainer, checkpoint)
    steady_bips = trained.tail(0.3).mean_throughput / 1e9
    print(f"  steady throughput after training: {steady_bips:.2f} BIPS")
    print(f"  policy checkpointed to {checkpoint}")

    print("\nPhase 2: fresh chip, cold vs warm controller (first 300 epochs):")
    cold = ODRLController(cfg, seed=7)
    cold_result = run_controller(cfg, workload, cold, n_epochs=300)

    warm = ODRLController(cfg, seed=7)
    chip = ManyCoreChip(cfg, workload)
    chip.reset()
    warm.reset()
    load_policy(warm, checkpoint)
    warm_result = simulate(chip, warm, 300, reset=False)

    for label, result in (("cold start", cold_result), ("warm start", warm_result)):
        bips, util = early_metrics(result, cfg.power_budget)
        gap = 100 * (1 - bips / steady_bips)
        print(f"  {label}: {bips:6.2f} BIPS  util={util:5.1%}  "
              f"({gap:+5.1f}% vs trained steady state)")


if __name__ == "__main__":
    main()
