"""policy_io v3 export: round trips, backward compat, warm-started boots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controller import ODRLController
from repro.core.policy_io import (
    SUPPORTED_VERSIONS,
    restore_snapshot,
    snapshot_policy,
)
from repro.offline import (
    build_linear_controller,
    build_warm_controller,
    linear_q,
    load_offline_policy,
    policy_file_digest,
    policy_from_training,
    save_offline_policy,
    train,
)
from repro.offline.warmstart import PROVENANCE_KEYS
from repro.sim.simulator import run_controller
from repro.workloads.suite import mixed_workload

from tests.offline.conftest import N_CORES


@pytest.fixture(scope="module")
def fqi_result(replay_buffer):
    return train(replay_buffer, trainer="fqi", seed=3)


@pytest.fixture(scope="module")
def linear_result(replay_buffer):
    return linear_q(replay_buffer, seed=3)


class TestPolicyFromTraining:
    def test_snapshot_layout(self, fqi_result, harvest_cfg, replay_buffer):
        snap = policy_from_training(fqi_result, harvest_cfg)
        assert int(snap["format_version"]) == SUPPORTED_VERSIONS[-1] == 3
        assert snap["q"].shape == (
            N_CORES, replay_buffer.n_states, replay_buffer.n_actions
        )
        assert snap["visits"].shape == snap["q"].shape
        # The pooled table is broadcast: every core gets the same prior.
        assert np.array_equal(snap["q"][0], snap["q"][-1])
        assert int(snap["step_count"]) == int(fqi_result.visits.sum())
        for key in PROVENANCE_KEYS:
            assert key in snap
        assert str(snap["offline_trainer"]) == "fqi"
        assert str(snap["offline_dataset_digest"]) == replay_buffer.digest

    def test_step_count_override(self, fqi_result, harvest_cfg):
        snap = policy_from_training(fqi_result, harvest_cfg, step_count=7)
        assert int(snap["step_count"]) == 7

    def test_linear_weights_ride_along(self, linear_result, harvest_cfg):
        snap = policy_from_training(linear_result, harvest_cfg)
        assert np.array_equal(snap["linear_weights"], linear_result.weights)

    def test_action_count_mismatch_rejected(self, fqi_result, harvest_cfg):
        with pytest.raises(ValueError, match="actions"):
            policy_from_training(fqi_result, harvest_cfg, action_mode="absolute")


class TestSaveLoadRoundTrip:
    def test_exact_equality_through_npz(
        self, linear_result, harvest_cfg, tmp_path
    ):
        snap = policy_from_training(linear_result, harvest_cfg)
        path = tmp_path / "policy.npz"
        save_offline_policy(snap, path)
        loaded = load_offline_policy(path)
        assert set(loaded) == set(snap)
        for key in snap:
            a, b = np.asarray(snap[key]), loaded[key]
            if a.dtype.kind == "f":
                # Exact float equality: .npz stores raw IEEE bytes.
                assert a.tobytes() == b.tobytes(), key
            else:
                assert np.array_equal(a, b), key

    def test_restore_into_controller_ignores_v3_extras(
        self, linear_result, harvest_cfg
    ):
        snap = policy_from_training(linear_result, harvest_cfg)
        controller = ODRLController(harvest_cfg)
        restore_snapshot(controller, snap)
        assert np.array_equal(controller.q, snap["q"])
        assert controller.step_count == int(snap["step_count"])

    def test_unsupported_version_rejected(
        self, fqi_result, harvest_cfg, tmp_path
    ):
        snap = policy_from_training(fqi_result, harvest_cfg)
        snap["format_version"] = np.array(99)
        path = tmp_path / "bad.npz"
        save_offline_policy(snap, path)
        with pytest.raises(ValueError, match="format version"):
            load_offline_policy(path)


class TestBackwardCompat:
    """v2 and v1 fixture files still load (satellite requirement)."""

    @pytest.fixture()
    def trained_controller(self, harvest_cfg):
        controller = ODRLController(harvest_cfg, seed=4)
        run_controller(
            harvest_cfg, mixed_workload(N_CORES, seed=4), controller, 15
        )
        return controller

    def _downgrade(self, snapshot, version):
        snap = dict(snapshot)
        snap["format_version"] = np.array(version)
        for key in PROVENANCE_KEYS + ("linear_weights",):
            snap.pop(key, None)
        if version < 2:
            for key in (
                "epoch", "window_ipc", "window_epochs", "window_over_epochs"
            ):
                snap.pop(key, None)
        return snap

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_fixture_loads(
        self, trained_controller, harvest_cfg, tmp_path, version
    ):
        snap = self._downgrade(snapshot_policy(trained_controller), version)
        path = tmp_path / f"v{version}.npz"
        save_offline_policy(snap, path)
        loaded = load_offline_policy(path)
        fresh = ODRLController(harvest_cfg)
        restore_snapshot(fresh, loaded)
        assert np.array_equal(fresh.q, trained_controller.q)
        if version >= 2:
            assert np.array_equal(
                fresh.checkpoint()["window_ipc"], trained_controller.checkpoint()["window_ipc"]
            )
        else:
            # v1 predates the window accumulators: fresh window.
            assert np.all(fresh.checkpoint()["window_ipc"] == 0.0)
            assert fresh.checkpoint()["window_epochs"] == 0

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_fixture_boots_warm_controller(
        self, trained_controller, harvest_cfg, tmp_path, version
    ):
        snap = self._downgrade(snapshot_policy(trained_controller), version)
        path = tmp_path / f"v{version}.npz"
        save_offline_policy(snap, path)
        warm = build_warm_controller(harvest_cfg, path)
        assert np.array_equal(warm.q, trained_controller.q)


class TestWarmController:
    def test_boot_and_name(self, fqi_result, harvest_cfg):
        snap = policy_from_training(fqi_result, harvest_cfg)
        warm = build_warm_controller(harvest_cfg, snap)
        assert warm.name == "od-rl-warm"
        assert np.array_equal(warm.q, snap["q"])

    def test_reset_reapplies_policy(self, fqi_result, harvest_cfg):
        snap = policy_from_training(fqi_result, harvest_cfg)
        warm = build_warm_controller(harvest_cfg, snap)
        run_controller(harvest_cfg, mixed_workload(N_CORES, seed=6), warm, 10)
        assert not np.array_equal(warm.q, snap["q"])  # it learned
        warm.reset()
        assert np.array_equal(warm.q, snap["q"])

    def test_digest_verification(self, fqi_result, harvest_cfg, tmp_path):
        snap = policy_from_training(fqi_result, harvest_cfg)
        path = tmp_path / "policy.npz"
        save_offline_policy(snap, path)
        digest = policy_file_digest(path)
        warm = build_warm_controller(harvest_cfg, path, expected_digest=digest)
        assert warm.name == "od-rl-warm"
        with pytest.raises(ValueError, match="digest mismatch"):
            build_warm_controller(
                harvest_cfg, path, expected_digest="0" * 64
            )
        with pytest.raises(ValueError, match="policy file paths"):
            build_warm_controller(harvest_cfg, snap, expected_digest=digest)

    def test_linear_controller_requires_weights(
        self, fqi_result, linear_result, harvest_cfg
    ):
        tabular_only = policy_from_training(fqi_result, harvest_cfg)
        with pytest.raises(ValueError, match="linear_weights"):
            build_linear_controller(harvest_cfg, tabular_only)
        with_weights = policy_from_training(linear_result, harvest_cfg)
        controller = build_linear_controller(harvest_cfg, with_weights)
        assert controller.name == "linear-q"
        assert np.array_equal(controller.weights, linear_result.weights)
