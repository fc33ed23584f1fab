"""ExperimentService behaviour: lifecycle, dedup, fairness, bit-identity.

No pytest-asyncio in the environment: every test is a sync function
wrapping its scenario in ``asyncio.run``.  Tests that need a
deterministic queue state (fairness, dedup, cross-client merging)
submit against an *unstarted* service — jobs queue up, then one
``start()`` releases the exact round structure under test.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import sys
import threading

import pytest

from repro.manycore import default_system
from repro.parallel import cache as cache_module
from repro.parallel.compare import assert_trace_equal
from repro.service import ExperimentService, JobSpec, ServiceError, result_digest
from repro.service import scheduler as scheduler_module
from repro.service.jobs import _workload
from repro.sim.runner import run_budget_sweep, run_suite, standard_controllers

N_CORES = 4
N_EPOCHS = 6


def sweep_spec(**overrides):
    fields = dict(
        kind="sweep",
        controllers=("od-rl", "pid"),
        benchmarks=("mixed",),
        budgets=(30.0, 45.0),
        n_cores=N_CORES,
        n_epochs=N_EPOCHS,
    )
    fields.update(overrides)
    return JobSpec(**fields)


def serial_sweep(spec):
    """The library-path ground truth for a sweep spec."""
    cfg = default_system(
        n_cores=spec.n_cores, budget_fraction=spec.budget_fraction
    )
    lineup = standard_controllers(seed=spec.seed)
    controllers = {name: lineup[name] for name in spec.controllers}
    workload = _workload(spec.benchmarks[0], spec.n_cores, spec.seed)
    return run_budget_sweep(
        cfg, list(spec.budgets), workload, controllers, spec.n_epochs
    )


class TestLifecycle:
    def test_submit_status_wait_results(self, tmp_path):
        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()
            job_id = await service.submit(sweep_spec(), client="alice")
            status = await service.wait(job_id, timeout=120.0)
            assert status["state"] == "done"
            assert status["job"] == job_id
            assert status["client"] == "alice"
            assert status["kind"] == "sweep"
            assert (status["cells"], status["completed"]) == (4, 4)
            assert status["failed"] == 0
            assert status["elapsed_s"] > 0
            merged = service.results(job_id)
            assert set(merged) == {"od-rl", "pid"}
            assert set(merged["od-rl"]) == {30.0, 45.0}
            digests = service.result_digests(job_id)
            assert digests["pid"]["30.0"] != digests["pid"]["45.0"]
            assert service.job_ids() == [job_id]
            await service.stop()

        asyncio.run(main())

    def test_unknown_job_is_a_service_error(self, tmp_path):
        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()
            with pytest.raises(ServiceError, match="unknown job"):
                service.status("j999999")
            with pytest.raises(ServiceError, match="unknown job"):
                await service.wait("j999999")
            await service.stop()

        asyncio.run(main())

    def test_results_before_done_refused(self, tmp_path):
        async def main():
            # Unstarted service: the job stays queued, so its state is
            # deterministically non-terminal here.
            service = ExperimentService(cache=str(tmp_path / "cache"))
            job_id = await service.submit(sweep_spec())
            with pytest.raises(ServiceError, match="not 'done'"):
                service.results(job_id)
            await service.stop()

        asyncio.run(main())

    def test_submit_rejects_bad_specs_before_queueing(self, tmp_path):
        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()
            with pytest.raises(ValueError, match="kind"):
                await service.submit({"kind": "nope"})
            with pytest.raises(ValueError, match="unknown controllers"):
                await service.submit(sweep_spec(controllers=("nope",)))
            assert service.job_ids() == []
            await service.stop()

        asyncio.run(main())

    def test_cancel(self, tmp_path):
        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            job_id = await service.submit(sweep_spec())
            assert await service.cancel(job_id) is True
            status = await service.wait(job_id, timeout=5.0)
            assert status["state"] == "cancelled"
            assert await service.cancel(job_id) is False  # already terminal
            with pytest.raises(ServiceError, match="not 'done'"):
                service.results(job_id)
            # Starting afterwards must not resurrect the cancelled work.
            await service.start()
            await service.stop()
            assert service.counters()["service.jobs_cancelled"] == 1

        asyncio.run(main())

    def test_stop_cancels_queued_jobs(self, tmp_path):
        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            job_id = await service.submit(sweep_spec())
            await service.stop()  # never started
            assert service.status(job_id)["state"] == "cancelled"

        asyncio.run(main())

    def test_stop_leaks_nothing(self, tmp_path):
        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()
            job_id = await service.submit(sweep_spec(), client="a")
            await service.wait(job_id, timeout=120.0)
            await service.stop()
            leftovers = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ]
            assert leftovers == []

        asyncio.run(main())
        assert multiprocessing.active_children() == []


class TestDedupAndBatching:
    def test_in_flight_dedup_across_clients(self, tmp_path):
        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            # Queue both before starting: the second submission must
            # attach to the first job's cells, not enqueue its own.
            first = await service.submit(sweep_spec(), client="alice")
            second = await service.submit(sweep_spec(), client="bob")
            await service.start()
            s1 = await service.wait(first, timeout=120.0)
            s2 = await service.wait(second, timeout=120.0)
            assert (s1["state"], s2["state"]) == ("done", "done")
            counters = service.counters()
            assert counters["service.dedup_inflight"] == 4
            assert counters["service.cells_enqueued"] == 4  # not 8
            assert service.result_digests(first) == service.result_digests(
                second
            )
            await service.stop()

        asyncio.run(main())

    def test_memo_answers_repeat_submissions(self, tmp_path):
        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()
            first = await service.submit(sweep_spec(), client="alice")
            await service.wait(first, timeout=120.0)
            rounds_before = service.counters()["service.rounds"]
            again = await service.submit(sweep_spec(), client="carol")
            status = await service.wait(again, timeout=5.0)
            assert status["state"] == "done"
            counters = service.counters()
            assert counters["service.dedup_memo"] == 4
            assert counters["service.rounds"] == rounds_before  # no new work
            assert service.result_digests(again) == service.result_digests(
                first
            )
            await service.stop()

        asyncio.run(main())

    def test_cross_client_cells_share_engine_rounds(self, tmp_path):
        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            # Disjoint cell sets from two clients — nothing dedups, so
            # merging can only come from shared rounds.
            alice = await service.submit(
                sweep_spec(controllers=("od-rl",)), client="alice"
            )
            bob = await service.submit(
                sweep_spec(controllers=("pid",)), client="bob"
            )
            await service.start()
            await service.wait(alice, timeout=120.0)
            await service.wait(bob, timeout=120.0)
            counters = service.counters()
            assert counters.get("service.dedup_inflight", 0) == 0
            assert counters["service.rounds_cross_client"] >= 1
            # Counter-verified continuous batching: the engine stacked
            # cells, and the only cells it had came from both clients.
            assert counters["engine.cells_batched"] >= 2
            await service.stop()

        asyncio.run(main())


class TestSchedulerContracts:
    def test_each_cell_is_keyed_once(self, tmp_path, monkeypatch):
        calls = []
        original = cache_module.cell_key

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        # Every binding of the function, wherever it was imported.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "cell_key", None) is original:
                monkeypatch.setattr(module, "cell_key", counted)

        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()
            job_id = await service.submit(sweep_spec())
            status = await service.wait(job_id, timeout=120.0)
            assert status["state"] == "done"
            assert service.counters()["engine.cells_run"] == 4
            await service.stop()
            return status["cells"]

        n_cells = asyncio.run(main())
        # Planning keys each cell; the round's cache probe reuses the key.
        assert len(calls) == n_cells == 4

    def test_memo_evicts_its_oldest_entry_past_its_bound(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(scheduler_module, "MEMO_LIMIT", 2)

        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()

            async def run(budget):
                spec = sweep_spec(controllers=("pid",), budgets=(budget,))
                job_id = await service.submit(spec)
                assert (await service.wait(job_id, timeout=120.0))["state"] == "done"
                return service.counters()

            for budget in (30.0, 40.0, 50.0):
                counters = await run(budget)
            assert counters["service.rounds"] == 3
            assert counters.get("service.dedup_memo", 0) == 0
            # 30 W settled first and was evicted: it needs a round again.
            counters = await run(30.0)
            assert counters["service.rounds"] == 4
            assert counters.get("service.dedup_memo", 0) == 0
            # 50 W is still memoised: answered at submit time.
            counters = await run(50.0)
            assert counters["service.rounds"] == 4
            assert counters["service.dedup_memo"] == 1
            await service.stop()

        asyncio.run(main())

    def test_job_table_keeps_running_jobs_and_the_last_to_end(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(scheduler_module, "JOB_RETENTION", 2)
        hold = threading.Event()
        started = threading.Event()
        release = threading.Event()
        original = scheduler_module.execute_cells_report

        def held(*args, **kwargs):
            if hold.is_set():
                started.set()
                assert release.wait(60.0), "the test never released the round"
            return original(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "execute_cells_report", held)

        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()
            jobs = service.scheduler.jobs

            async def submit(budget):
                spec = sweep_spec(controllers=("pid",), budgets=(budget,))
                return await service.submit(spec)

            ended = []
            for budget in (30.0, 40.0, 50.0):
                job_id = await submit(budget)
                assert (await service.wait(job_id, timeout=120.0))["state"] == "done"
                ended.append(job_id)
            assert list(jobs) == ended[1:]
            with pytest.raises(ServiceError, match="unknown job"):
                service.status(ended[0])
            hold.set()
            running = await submit(60.0)
            assert await asyncio.to_thread(started.wait, 60.0)
            # Answered from the memo at submit time, each of these ends at
            # once and evicts the job that ended first, never the running one.
            memo = [await submit(budget) for budget in (30.0, 40.0)]
            assert list(jobs) == [running, *memo]
            release.set()
            assert (await service.wait(running, timeout=120.0))["state"] == "done"
            assert list(jobs) == [running, memo[1]]
            await service.stop()

        asyncio.run(main())

    def test_stop_during_a_round_settles_its_waiters(self, tmp_path, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        original = scheduler_module.execute_cells_report

        def held(*args, **kwargs):
            started.set()
            assert release.wait(60.0), "the test never released the round"
            return original(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "execute_cells_report", held)

        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()
            running = await service.submit(sweep_spec(), client="a")
            assert await asyncio.to_thread(started.wait, 60.0)
            # Arrives during the round: it would join the next one.
            queued = await service.submit(
                sweep_spec(controllers=("greedy-ascent",)), client="b"
            )
            stopping = asyncio.ensure_future(service.stop())
            await asyncio.sleep(0.05)
            assert not stopping.done()
            release.set()
            await stopping
            assert service.status(running)["state"] == "done"
            assert service.status(queued)["state"] == "cancelled"
            leftovers = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ]
            assert leftovers == []

        asyncio.run(main())
        assert multiprocessing.active_children() == []


class TestFairShare:
    def test_small_job_is_not_starved_by_a_big_sweep(self, tmp_path):
        async def main():
            budgets = tuple(20.0 + 2.0 * k for k in range(12))
            service = ExperimentService(
                cache=str(tmp_path / "cache"), round_size=4
            )
            big = await service.submit(
                sweep_spec(controllers=("od-rl",), budgets=budgets),
                client="alice",
            )
            small = await service.submit(
                sweep_spec(controllers=("pid",), budgets=(33.0,)),
                client="bob",
            )
            await service.start()
            status = await service.wait(small, timeout=120.0)
            assert status["state"] == "done"
            # Fair share put the 1-cell job in the very first round; the
            # 12-cell sweep must still be in flight when it completes.
            big_status = service.status(big)
            assert big_status["completed"] < big_status["cells"], (
                "the small job finished no earlier than the big sweep — "
                "round assembly is not fair-sharing across jobs"
            )
            assert (await service.wait(big, timeout=240.0))["state"] == "done"
            await service.stop()

        asyncio.run(main())


class TestBitIdentity:
    def test_sweep_results_match_serial_library_run(self, tmp_path):
        spec = sweep_spec()

        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()
            job_id = await service.submit(spec, client="alice")
            await service.wait(job_id, timeout=120.0)
            merged = service.results(job_id)
            await service.stop()
            return merged

        merged = asyncio.run(main())
        serial = serial_sweep(spec)
        for ctrl in spec.controllers:
            for budget in spec.budgets:
                assert_trace_equal(
                    merged[ctrl][budget],
                    serial[ctrl][budget],
                    context=f"{ctrl} @ {budget}W",
                )
                assert result_digest(merged[ctrl][budget]) == result_digest(
                    serial[ctrl][budget]
                )

    def test_suite_results_match_serial_library_run(self, tmp_path):
        spec = JobSpec(
            kind="suite",
            controllers=("od-rl", "maxbips"),
            benchmarks=("mixed", "fft"),
            n_cores=N_CORES,
            n_epochs=N_EPOCHS,
        )

        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()
            job_id = await service.submit(spec, client="alice")
            await service.wait(job_id, timeout=120.0)
            merged = service.results(job_id)
            await service.stop()
            return merged

        merged = asyncio.run(main())
        cfg = default_system(
            n_cores=spec.n_cores, budget_fraction=spec.budget_fraction
        )
        lineup = standard_controllers(seed=spec.seed)
        controllers = {name: lineup[name] for name in spec.controllers}
        workloads = {}
        for name in spec.benchmarks:
            wl = _workload(name, spec.n_cores, spec.seed)
            workloads[wl.name] = wl
        serial = run_suite(cfg, workloads, controllers, spec.n_epochs)
        for ctrl in spec.controllers:
            for wl_name in workloads:
                assert_trace_equal(
                    merged[ctrl][wl_name],
                    serial[ctrl][wl_name],
                    context=f"{ctrl} on {wl_name}",
                )


class TestEvents:
    def test_job_stream_shape(self, tmp_path):
        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            await service.start()
            job_id = await service.submit(sweep_spec(), client="alice")
            events = [ev async for ev in service.events(job_id)]
            await service.stop()
            return events

        events = asyncio.run(main())
        types = [ev["type"] for ev in events]
        assert types[0] == "job_submitted"
        assert types[-1] == "job_done"
        assert types.count("cell_done") == 4
        assert [ev["seq"] for ev in events] == list(range(len(events)))

    def test_attached_job_sees_cell_attached_events(self, tmp_path):
        async def main():
            service = ExperimentService(cache=str(tmp_path / "cache"))
            first = await service.submit(sweep_spec(), client="alice")
            second = await service.submit(sweep_spec(), client="bob")
            await service.start()
            await service.wait(second, timeout=120.0)
            events = [ev async for ev in service.events(second)]
            await service.wait(first, timeout=120.0)
            await service.stop()
            return events

        events = asyncio.run(main())
        attached = [ev for ev in events if ev["type"] == "cell_attached"]
        assert len(attached) == 4
        assert {ev["origin"] for ev in attached} == {"inflight"}
