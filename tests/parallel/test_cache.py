"""Unit tests: stable hashing, cell keys, factory fingerprints, ResultCache."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.manycore import default_system
from repro.parallel import (
    CACHE_SALT,
    CacheKeyError,
    ResultCache,
    RunCell,
    cell_key,
    controller_fingerprint,
    stable_hash,
    workload_token,
)
from repro.sim.results import SimulationResult
from repro.sim.runner import standard_controllers
from repro.workloads import mixed_workload

from tests.parallel import helpers


@pytest.fixture(scope="module")
def cfg():
    return default_system(n_cores=4, n_levels=3, budget_fraction=0.6)


@pytest.fixture(scope="module")
def workload():
    return mixed_workload(4, seed=0)


@pytest.fixture(scope="module")
def lineup():
    return standard_controllers(seed=0)


def tiny_result(cfg, n_epochs=6):
    rng = np.random.default_rng(0)
    return SimulationResult(
        cfg=cfg,
        controller_name="static-uniform",
        workload_name="mixed",
        chip_power=rng.uniform(1.0, 20.0, n_epochs),
        chip_instructions=rng.uniform(1e6, 1e8, n_epochs),
        max_temperature=rng.uniform(300.0, 350.0, n_epochs),
        decision_time=np.zeros(n_epochs),
        extras={"note": "synthetic", "values": [1, 2.5]},
    )


class TestStableHash:
    def test_deterministic_across_calls(self):
        obj = {"a": [1, 2.5, "x"], "b": (None, True), "c": np.arange(4)}
        assert stable_hash(obj) == stable_hash(obj)

    def test_float_hashing_is_bit_exact(self):
        assert stable_hash(0.1 + 0.2) != stable_hash(0.3)

    def test_bool_is_not_int(self):
        assert stable_hash(True) != stable_hash(1)

    def test_dataclass_type_matters(self):
        @dataclasses.dataclass(frozen=True)
        class A:
            x: int = 1

        @dataclasses.dataclass(frozen=True)
        class B:
            x: int = 1

        assert stable_hash(A()) != stable_hash(B())

    def test_mapping_order_is_canonical(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_array_dtype_matters(self):
        a = np.arange(4, dtype=np.int64)
        assert stable_hash(a) != stable_hash(a.astype(np.float64))

    def test_rejects_unhashable_objects(self):
        with pytest.raises(CacheKeyError, match="stable cache key"):
            stable_hash(object())


class TestControllerFingerprint:
    def test_standard_lineup_is_fingerprintable(self, lineup):
        prints = {name: controller_fingerprint(f) for name, f in lineup.items()}
        assert len(set(prints.values())) == len(lineup)

    def test_seed_is_part_of_the_fingerprint(self):
        a = controller_fingerprint(standard_controllers(seed=0)["od-rl"])
        b = controller_fingerprint(standard_controllers(seed=1)["od-rl"])
        assert a != b

    def test_plain_module_function_accepted(self):
        fp = controller_fingerprint(helpers.build_static)
        assert fp == ("function", helpers.build_static.__module__, "build_static")

    def test_rejects_lambda(self):
        with pytest.raises(CacheKeyError, match="lambda"):
            controller_fingerprint(lambda cfg: None)

    def test_rejects_closure(self):
        captured = 3

        def factory(cfg):
            return captured

        with pytest.raises(CacheKeyError, match="closure"):
            controller_fingerprint(factory)

    def test_rejects_arbitrary_callables(self):
        class Factory:
            def __call__(self, cfg):
                return None

        with pytest.raises(CacheKeyError, match="fingerprint"):
            controller_fingerprint(Factory())


class TestCellKey:
    def base_cell(self):
        return RunCell(
            controller="static-uniform", workload="mixed", budget=None,
            seed=0, n_epochs=10,
        )

    def base_key(self, cfg, workload, **overrides):
        cell = dataclasses.replace(self.base_cell(), **overrides)
        return cell_key(cell, cfg, workload, helpers.build_static)

    def test_key_is_stable(self, cfg, workload):
        assert self.base_key(cfg, workload) == self.base_key(cfg, workload)

    def test_seed_perturbs_key(self, cfg, workload):
        assert self.base_key(cfg, workload) != self.base_key(
            cfg, workload, seed=1
        )

    def test_epochs_perturb_key(self, cfg, workload):
        assert self.base_key(cfg, workload) != self.base_key(
            cfg, workload, n_epochs=11
        )

    def test_budget_perturbs_key(self, cfg, workload):
        assert self.base_key(cfg, workload) != self.base_key(
            cfg, workload, budget=12.5
        )

    def test_config_perturbs_key(self, cfg, workload):
        other = cfg.with_budget(cfg.power_budget * 0.5)
        cell = self.base_cell()
        assert cell_key(cell, cfg, workload, helpers.build_static) != cell_key(
            cell, other, workload, helpers.build_static
        )

    def test_workload_content_perturbs_key(self, cfg, workload):
        from repro.workloads import Workload

        # Same name, different phase content: the key hashes content.
        other = Workload(mixed_workload(4, seed=1).sequences, name=workload.name)
        cell = self.base_cell()
        assert cell_key(cell, cfg, workload, helpers.build_static) != cell_key(
            cell, cfg, other, helpers.build_static
        )

    def test_regenerated_workload_reuses_key(self, cfg, workload):
        regenerated = mixed_workload(4, seed=0)
        assert workload_token(workload) == workload_token(regenerated)
        cell = self.base_cell()
        assert cell_key(cell, cfg, workload, helpers.build_static) == cell_key(
            cell, cfg, regenerated, helpers.build_static
        )

    def test_factory_perturbs_key(self, cfg, workload, lineup):
        cell = self.base_cell()
        assert cell_key(cell, cfg, workload, lineup["pid"]) != cell_key(
            cell, cfg, workload, lineup["greedy-ascent"]
        )

    def test_sim_kwargs_perturb_key(self, cfg, workload):
        cell = self.base_cell()
        plain = cell_key(cell, cfg, workload, helpers.build_static)
        with_kwargs = cell_key(
            cell, cfg, workload, helpers.build_static,
            sim_kwargs={"record_per_core": True},
        )
        assert plain != with_kwargs

    def test_salt_perturbs_key(self, cfg, workload):
        cell = self.base_cell()
        assert cell_key(
            cell, cfg, workload, helpers.build_static, salt=CACHE_SALT
        ) != cell_key(
            cell, cfg, workload, helpers.build_static, salt="other-salt"
        )


class TestResultCache:
    def test_roundtrip(self, cfg, tmp_path):
        cache = ResultCache(tmp_path)
        result = tiny_result(cfg)
        key = stable_hash("some-cell")
        path = cache.put(key, result)
        assert path.is_file()
        loaded = cache.get(key)
        assert loaded is not None
        assert np.array_equal(loaded.chip_power, result.chip_power)
        assert loaded.extras == result.extras

    def test_miss_counts(self, cfg, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(stable_hash("absent")) is None
        assert (cache.hits, cache.misses) == (0, 1)
        key = stable_hash("present")
        cache.put(key, tiny_result(cfg))
        assert cache.get(key) is not None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_len_counts_entries(self, cfg, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        for i in range(3):
            cache.put(stable_hash(f"cell-{i}"), tiny_result(cfg))
        assert len(cache) == 3

    def test_corrupt_entry_is_a_miss_and_removed(self, cfg, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash("torn")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz file")
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.misses == 1

    def test_put_leaves_no_temp_files(self, cfg, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(stable_hash("clean"), tiny_result(cfg))
        leftovers = [p for p in tmp_path.rglob("*") if "tmp" in p.name]
        assert leftovers == []

    def test_two_level_fanout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash("fanout")
        assert cache.path_for(key).parent.name == key[:2]


class TestConcurrentPut:
    """Two writers racing ``put`` on the same key must never corrupt the
    entry, quarantine a healthy result, or leave more than one entry."""

    def test_held_lock_makes_put_yield(self, cfg, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash("contended")
        lock = cache.lock_path(key)
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text("held by a racing writer")
        # The loser skips the write entirely (content addressing makes
        # the winner's bytes equally valid) and counts the contention.
        path = cache.put(key, tiny_result(cfg))
        assert cache.put_contended == 1
        assert not path.exists()
        assert cache.get(key) is None  # miss, not quarantine
        assert cache.quarantined == 0
        lock.unlink()

    def test_get_during_put_is_a_plain_miss(self, cfg, tmp_path):
        # Reader sees the new entry bytes but the *old* sidecar (the
        # interleave window): with the put lock held this is a known
        # in-progress write, so it must read as a miss, not corruption.
        cache = ResultCache(tmp_path)
        key = stable_hash("interleaved")
        cache.put(key, tiny_result(cfg))
        cache.checksum_path(key).write_text("0" * 64)  # stale sidecar
        lock = cache.lock_path(key)
        lock.write_text("put in progress")
        assert cache.get(key) is None
        assert cache.quarantined == 0
        assert cache.path_for(key).exists()  # nothing was destroyed
        lock.unlink()

    def test_mismatch_without_lock_reverifies_before_quarantine(
        self, cfg, tmp_path
    ):
        # No lock held: a sidecar mismatch is re-read once (the writer
        # may have just finished); a *persistent* mismatch quarantines.
        cache = ResultCache(tmp_path)
        key = stable_hash("truly-corrupt")
        cache.put(key, tiny_result(cfg))
        cache.checksum_path(key).write_text("0" * 64)
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_stale_lock_is_broken(self, cfg, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        key = stable_hash("stale-locked")
        lock = cache.lock_path(key)
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text("abandoned by a dead writer")
        ancient = 1_000_000.0  # far past PUT_LOCK_STALE_SECONDS
        os.utime(lock, (ancient, ancient))
        path = cache.put(key, tiny_result(cfg))
        assert path.exists()
        assert cache.put_contended == 0
        assert not lock.exists()
        assert cache.get(key) is not None

    def test_same_key_writer_hammer(self, cfg, tmp_path):
        """N threads racing identical puts: exactly one entry, zero
        quarantines, and the final read returns an intact result."""
        import threading

        cache = ResultCache(tmp_path)
        key = stable_hash("hammered")
        result = tiny_result(cfg)
        barrier = threading.Barrier(8)
        errors = []

        def writer():
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    cache.put(key, result)
                    cache.get(key)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert cache.quarantined == 0
        assert len(cache) == 1
        assert not cache.lock_path(key).exists()
        loaded = cache.get(key)
        assert loaded is not None
        assert np.array_equal(loaded.chip_power, result.chip_power)
