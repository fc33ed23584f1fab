"""Offline controllers in the standard lineup and the batched harness.

Warm-started controllers stack in ``BatchODRL``, which restores each
row's snapshot on reset — and the batched grid must stay bit-identical
to the serial loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernel.policies import BatchODRL, PerRunPolicy, build_batch_policy
from repro.manycore.config import default_system
from repro.offline import (
    linear_q,
    policy_from_training,
    save_offline_policy,
    train,
)
from repro.parallel import assert_trace_equal
from repro.sim.runner import (
    derive_controller_seeds,
    run_suite,
    standard_controllers,
)
from repro.workloads.suite import mixed_workload

from tests.offline.conftest import N_CORES

N_EPOCHS = 16


@pytest.fixture(scope="module")
def policies(replay_buffer, harvest_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("policies")
    warm = out / "warm.npz"
    lin = out / "linear.npz"
    save_offline_policy(
        policy_from_training(train(replay_buffer, trainer="cql"), harvest_cfg),
        warm,
    )
    save_offline_policy(
        policy_from_training(linear_q(replay_buffer), harvest_cfg), lin
    )
    return {"od-rl-warm": warm, "linear-q": lin}


class TestStandardControllers:
    def test_offline_members_appended(self, policies):
        lineup = standard_controllers(seed=0, offline=policies)
        assert "od-rl-warm" in lineup and "linear-q" in lineup
        cfg = default_system(n_cores=N_CORES, budget_fraction=0.6)
        warm = lineup["od-rl-warm"](cfg)
        assert warm.name == "od-rl-warm"
        linear = lineup["linear-q"](cfg)
        assert linear.name == "linear-q"
        # Warm controllers stack in the learner; linear-q decides per run.
        warm_group = [warm, lineup["od-rl-warm"](cfg)]
        assert isinstance(build_batch_policy(warm_group), BatchODRL)
        linear_group = [linear, lineup["linear-q"](cfg)]
        assert isinstance(build_batch_policy(linear_group), PerRunPolicy)

    def test_base_lineup_seeds_unchanged(self, policies):
        """Appending offline members must not re-seed the base lineup."""
        base = standard_controllers(seed=0)
        extended = standard_controllers(seed=0, offline=policies)
        for name, factory in base.items():
            assert extended[name].keywords == factory.keywords, name

    def test_seed_derivation_is_prefix_stable(self):
        short = derive_controller_seeds(0, ["od-rl", "centralized-rl"])
        longer = derive_controller_seeds(
            0, ["od-rl", "centralized-rl", "od-rl-warm"]
        )
        for name in short:
            assert longer[name] == short[name]

    def test_unknown_offline_name_rejected(self, policies):
        with pytest.raises(ValueError, match="unknown offline controller"):
            standard_controllers(offline={"dqn": policies["od-rl-warm"]})

    def test_policy_digest_fingerprints_factory(self, policies, tmp_path):
        lineup = standard_controllers(seed=0, offline=policies)
        factory = lineup["od-rl-warm"]
        # The digest rides in the partial's args → distinct policies give
        # distinct cache fingerprints.
        args = factory.args
        assert str(policies["od-rl-warm"]) in args
        assert any(len(str(a)) == 64 for a in args)

    def test_edited_policy_file_fails_construction(self, policies, tmp_path):
        import shutil

        moved = tmp_path / "edited.npz"
        shutil.copy(policies["od-rl-warm"], moved)
        lineup = standard_controllers(seed=0, offline={"od-rl-warm": moved})
        moved.write_bytes(moved.read_bytes() + b"x")
        cfg = default_system(n_cores=N_CORES, budget_fraction=0.6)
        with pytest.raises(ValueError, match="digest mismatch"):
            lineup["od-rl-warm"](cfg)


class TestBatchDifferential:
    def test_serial_and_batched_bit_identical(self, policies):
        cfg = default_system(n_cores=N_CORES, budget_fraction=0.6)
        workload = mixed_workload(N_CORES, seed=0)
        lineup = standard_controllers(seed=0, offline=policies)
        chosen = {
            name: lineup[name]
            for name in ("od-rl", "od-rl-warm", "linear-q")
        }
        serial = run_suite(cfg, {workload.name: workload}, chosen, N_EPOCHS)
        batched = run_suite(
            cfg, {workload.name: workload}, chosen, N_EPOCHS, batch=True
        )
        for name in chosen:
            assert_trace_equal(
                serial[name][workload.name],
                batched[name][workload.name],
                context=f"offline lineup serial vs batch[{name}]",
            )

    def test_warm_start_beats_cold_start_early(self, policies):
        # The warm controller's whole point: more instructions retired in
        # the early (learning) epochs on the same workload.
        cfg = default_system(n_cores=N_CORES, budget_fraction=0.6)
        workload = mixed_workload(N_CORES, seed=0)
        lineup = standard_controllers(seed=0, offline=policies)
        chosen = {name: lineup[name] for name in ("od-rl", "od-rl-warm")}
        results = run_suite(cfg, {workload.name: workload}, chosen, N_EPOCHS)
        cold = results["od-rl"][workload.name].chip_instructions.sum()
        warm = results["od-rl-warm"][workload.name].chip_instructions.sum()
        assert warm > cold
        assert np.isfinite(warm)
