"""Unit tests for the job subsystem: store, worker, manager, config."""

from __future__ import annotations

import threading

import pytest

from repro.config import config_from_dict, config_to_dict
from repro.errors import CancelledError, ConfigurationError
from repro.jobs import (
    JobManager,
    JobQueueFull,
    JobState,
    JobStore,
    JobsConfig,
    SharedDirectoryBackend,
)
from repro.perf.pool import WorkerPool
from repro.runtime import CancellationToken
from repro.service import ServiceConfig


class FakeClock:
    """An injectable, manually-advanced clock for TTL tests."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class StubAnalyzer:
    """A fake analyzer with the real STAGES tuple and a scripted run."""

    STAGES = ("segmentation", "tracking", "scoring")

    def __init__(self, result=None, error=None, barrier=None, started=None):
        self.result = result if result is not None else object()
        self.error = error
        self.barrier = barrier
        self.started = started

    def analyze(self, video, annotation=None, rng=None,
                instrumentation=None, cancel_token=None):
        if self.started is not None:
            self.started.set()
        for stage in self.STAGES:
            if cancel_token is not None:
                cancel_token.raise_if_cancelled(stage)
            if instrumentation is not None:
                instrumentation.event("runtime/stage_start", stage=stage)
                with instrumentation.span(stage):
                    pass
            if self.barrier is not None:
                self.barrier.wait(timeout=10)
        if self.error is not None:
            raise self.error
        return self.result


def _id_serializer(analysis):
    return {"analysis": "ok", "degraded": False}


class TestJobsConfig:
    def test_defaults_valid(self):
        config = JobsConfig()
        assert config.enabled and config.max_jobs >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_jobs": 0},
            {"result_ttl_seconds": 0.0},
            {"max_queued": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            JobsConfig(**kwargs)

    def test_round_trips_through_service_config(self):
        config = ServiceConfig(
            jobs=JobsConfig(max_jobs=7, result_ttl_seconds=1.5)
        )
        data = config_to_dict(config)
        assert data["jobs"]["max_jobs"] == 7
        restored = config_from_dict(ServiceConfig, data)
        assert restored == config

    def test_unknown_jobs_key_rejected(self):
        data = config_to_dict(ServiceConfig())
        data["jobs"]["nope"] = 1
        with pytest.raises(ConfigurationError):
            config_from_dict(ServiceConfig, data)


class TestJobStore:
    def test_ids_are_deterministic(self):
        digest = JobStore.digest_of(b"video-bytes", "3", "cafe")
        first = JobStore(capacity=4).create(digest, seed=3)
        second = JobStore(capacity=4).create(digest, seed=3)
        assert first["id"] == second["id"]
        assert first["id"].startswith("j00001-")

    def test_lifecycle_to_success(self):
        store = JobStore(capacity=4)
        job_id = store.create("d" * 10)["id"]
        assert store.mark_running(job_id, total_stages=3)
        store.update_progress(job_id, current_stage="tracking")
        assert store.payload(job_id)["progress"]["current_stage"] == "tracking"
        store.update_progress(job_id, completed_stage="tracking")
        store.finish(job_id, JobState.SUCCEEDED, result={"x": 1})
        payload = store.payload(job_id, include_result=True)
        assert payload["state"] == "succeeded"
        assert payload["result"] == {"x": 1}
        assert payload["progress"]["fraction"] == 1.0

    def test_finish_requires_terminal_state(self):
        store = JobStore(capacity=4)
        job_id = store.create("d" * 10)["id"]
        with pytest.raises(ConfigurationError):
            store.finish(job_id, "running")

    def test_cancel_of_queued_job_is_immediate(self):
        store = JobStore(capacity=4)
        job_id = store.create("d" * 10)["id"]
        assert store.request_cancel(job_id) == "cancelled"
        assert store.payload(job_id)["state"] == "cancelled"
        # a worker picking it up afterwards must not run it
        assert not store.mark_running(job_id)

    def test_cancel_outcomes(self):
        store = JobStore(capacity=4)
        job_id = store.create("d" * 10)["id"]
        store.mark_running(job_id)
        assert store.request_cancel(job_id) == "cancelling"
        store.finish(job_id, JobState.CANCELLED)
        assert store.request_cancel(job_id) == "finished"
        assert store.request_cancel("missing") is None

    def test_lru_evicts_only_terminal_jobs(self):
        store = JobStore(capacity=2)
        first = store.create("a" * 10)["id"]
        store.mark_running(first)  # non-terminal: never evicted
        second = store.create("b" * 10)["id"]
        store.finish(second, JobState.FAILED, error={"type": "X", "message": ""})
        third = store.create("c" * 10)["id"]
        assert store.payload(second) is None  # oldest terminal went
        assert store.payload(first) is not None
        assert store.payload(third) is not None

    def test_ttl_eviction_remembers_expired_ids(self):
        clock = FakeClock()
        store = JobStore(capacity=4, ttl_seconds=10.0, clock=clock)
        job_id = store.create("d" * 10)["id"]
        store.finish(job_id, JobState.SUCCEEDED, result={"x": 1})
        clock.advance(5.0)
        assert store.payload(job_id) is not None
        clock.advance(6.0)
        assert store.payload(job_id) is None
        assert store.is_expired(job_id)
        assert not store.is_expired("never-existed")

    def test_listing_is_newest_first_and_bounded(self):
        store = JobStore(capacity=16)
        ids = [store.create(f"{i:010d}")["id"] for i in range(5)]
        listed = store.list_payload(limit=3)
        assert [job["id"] for job in listed] == list(reversed(ids))[:3]
        with pytest.raises(ConfigurationError):
            store.list_payload(state="bogus")

    def test_listing_filters_by_state(self):
        store = JobStore(capacity=16)
        done = store.create("a" * 10)["id"]
        store.finish(done, JobState.SUCCEEDED, result={})
        store.create("b" * 10)
        succeeded = store.list_payload(state=JobState.SUCCEEDED)
        assert [job["id"] for job in succeeded] == [done]


def _owned_store(root, **kwargs) -> JobStore:
    """A store persisted in a directory one process owns."""
    return JobStore(backend=SharedDirectoryBackend(root, shared=False), **kwargs)


class TestJobStorePersistence:
    def test_round_trip_preserves_terminal_jobs(self, tmp_path):
        store = _owned_store(tmp_path, capacity=4)
        job_id = store.create("d" * 10, seed=5, config_hash="cafe")["id"]
        store.mark_running(job_id, total_stages=3)
        store.finish(job_id, JobState.SUCCEEDED, result={"score": 0.5})

        reopened = _owned_store(tmp_path, capacity=4)
        payload = reopened.payload(job_id, include_result=True)
        assert payload["state"] == "succeeded"
        assert payload["result"] == {"score": 0.5}
        assert payload["seed"] == 5
        assert payload["config_hash"] == "cafe"

    def test_interrupted_jobs_are_failed_on_load(self, tmp_path):
        store = _owned_store(tmp_path, capacity=4)
        job_id = store.create("d" * 10)["id"]
        store.mark_running(job_id)

        reopened = _owned_store(tmp_path, capacity=4)
        payload = reopened.payload(job_id)
        assert payload["state"] == "failed"
        assert payload["error"]["type"] == "Interrupted"
        # The failure is persisted: a second restart sees the same job.
        again = _owned_store(tmp_path, capacity=4).payload(job_id)
        assert again["finished_at"] == payload["finished_at"]

    def test_sequence_continues_after_reload(self, tmp_path):
        store = _owned_store(tmp_path, capacity=4)
        first = store.create("a" * 10)["id"]
        reopened = _owned_store(tmp_path, capacity=4)
        second = reopened.create("b" * 10)["id"]
        assert first.startswith("j00001-")
        assert second.startswith("j00002-")

    def test_corrupt_file_raises_configuration_error(self, tmp_path):
        store = _owned_store(tmp_path, capacity=4)
        job_id = store.create("d" * 10)["id"]
        record = tmp_path / "jobs" / f"{job_id}.json"
        record.write_text("{nope")
        with pytest.raises(ConfigurationError, match=job_id):
            _owned_store(tmp_path, capacity=4)

    def test_each_transition_rewrites_only_its_record(self, tmp_path):
        store = _owned_store(tmp_path, capacity=4)
        first = store.create("a" * 10)["id"]
        second = store.create("b" * 10)["id"]
        record = tmp_path / "jobs" / f"{first}.json"
        untouched = (record.stat().st_ino, record.stat().st_mtime_ns)
        store.mark_running(second)
        store.finish(second, JobState.SUCCEEDED, result={})
        assert (record.stat().st_ino, record.stat().st_mtime_ns) == untouched
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.lock", "jobs"]

    def test_expired_ids_answer_410_after_a_restart(self, tmp_path):
        clock = FakeClock()
        store = _owned_store(tmp_path, ttl_seconds=10.0, clock=clock)
        job_id = store.create("d" * 10)["id"]
        store.mark_running(job_id)
        store.finish(job_id, JobState.SUCCEEDED, result={})
        clock.advance(11.0)
        assert store.payload(job_id) is None
        assert store.is_expired(job_id)
        assert not (tmp_path / "jobs" / f"{job_id}.json").exists()

        reopened = _owned_store(tmp_path, ttl_seconds=10.0, clock=clock)
        assert reopened.is_expired(job_id)
        assert reopened.payload(job_id) is None
        # The evicted job held the highest seq; ids still move forward.
        assert reopened.create("e" * 10)["id"].startswith("j00002-")

    def test_unreadable_index_rebuilds_seq_from_records(self, tmp_path):
        store = _owned_store(tmp_path)
        ids = [store.create(f"{i}" * 10)["id"] for i in range(3)]
        (tmp_path / "index.json").write_text("{torn")
        reopened = _owned_store(tmp_path)
        assert reopened.create("f" * 10)["id"].startswith("j00004-")
        assert [job["id"] for job in reopened.list_payload()][1:] == ids[::-1]


class TestJobWorkerPool:
    def _manager(self, **config):
        pool = WorkerPool(2, thread_name_prefix="test-jobs")
        manager = JobManager(
            JobsConfig(**config), pool, serializer=_id_serializer
        )
        return pool, manager

    def test_success_path(self):
        pool, manager = self._manager()
        try:
            analyzer = StubAnalyzer()
            job = manager.submit_analysis(analyzer, video=None, digest="a" * 10)
            self._wait_terminal(manager, job["id"])
            payload = manager.payload(job["id"], include_result=True)
            assert payload["state"] == "succeeded"
            assert payload["result"] == {"analysis": "ok", "degraded": False}
            assert payload["progress"]["fraction"] == 1.0
            assert payload["progress"]["stages_completed"] == list(
                StubAnalyzer.STAGES
            )
        finally:
            pool.shutdown()

    def test_repro_error_maps_to_failed_with_type(self):
        from repro.errors import TrackingError

        pool, manager = self._manager()
        try:
            analyzer = StubAnalyzer(error=TrackingError("lost the jumper"))
            job = manager.submit_analysis(analyzer, video=None, digest="b" * 10)
            self._wait_terminal(manager, job["id"])
            payload = manager.payload(job["id"])
            assert payload["state"] == "failed"
            assert payload["error"]["type"] == "TrackingError"
            assert "lost the jumper" in payload["error"]["message"]
        finally:
            pool.shutdown()

    def test_unexpected_error_maps_to_internal(self):
        pool, manager = self._manager()
        try:
            analyzer = StubAnalyzer(error=RuntimeError("boom"))
            job = manager.submit_analysis(analyzer, video=None, digest="c" * 10)
            self._wait_terminal(manager, job["id"])
            payload = manager.payload(job["id"])
            assert payload["state"] == "failed"
            assert payload["error"]["type"] == "InternalError"
        finally:
            pool.shutdown()

    def test_cancel_mid_run_lands_as_cancelled(self):
        pool, manager = self._manager()
        try:
            started = threading.Event()
            barrier = threading.Event()
            analyzer = StubAnalyzer(started=started, barrier=barrier)
            job = manager.submit_analysis(analyzer, video=None, digest="d" * 10)
            assert started.wait(timeout=10)
            assert manager.cancel(job["id"]) == "cancelling"
            barrier.set()  # let the stage loop reach the next check
            self._wait_terminal(manager, job["id"])
            payload = manager.payload(job["id"])
            assert payload["state"] == "cancelled"
            assert payload["error"]["type"] == "CancelledError"

            # the pool is not poisoned: a follow-up job still succeeds
            ok = manager.submit_analysis(
                StubAnalyzer(barrier=barrier), video=None, digest="e" * 10
            )
            self._wait_terminal(manager, ok["id"])
            assert manager.payload(ok["id"])["state"] == "succeeded"
        finally:
            pool.shutdown()

    def test_queue_full_rejects_without_creating(self):
        pool, manager = self._manager(max_queued=1)
        try:
            barrier = threading.Event()
            started = threading.Event()
            manager.submit_analysis(
                StubAnalyzer(barrier=barrier, started=started),
                video=None,
                digest="f" * 10,
            )
            assert started.wait(timeout=10)
            with pytest.raises(JobQueueFull):
                manager.submit_analysis(
                    StubAnalyzer(), video=None, digest="g" * 10
                )
            assert manager.store.stats()["created"] == 1
            barrier.set()
        finally:
            pool.shutdown()

    @staticmethod
    def _wait_terminal(manager, job_id, timeout=10.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if manager.payload(job_id)["state"] in JobState.TERMINAL:
                return
            time.sleep(0.005)
        raise AssertionError(f"job {job_id} never became terminal")


class TestCancellationToken:
    def test_raises_only_after_cancel(self):
        token = CancellationToken()
        token.raise_if_cancelled("segmentation")  # no-op
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        with pytest.raises(CancelledError, match="segmentation"):
            token.raise_if_cancelled("segmentation")

    def test_runner_checks_between_stages(self):
        from repro.runtime import (
            FunctionStage,
            PipelineRunner,
            StageContext,
            Instrumentation,
        )

        token = CancellationToken()
        seen = []

        def first(value, context):
            seen.append("first")
            token.cancel()  # cancel lands while a stage is running
            return value

        def second(value, context):
            seen.append("second")
            return value

        runner = PipelineRunner(
            [FunctionStage("first", first), FunctionStage("second", second)]
        )
        context = StageContext(
            instrumentation=Instrumentation(), cancel_token=token
        )
        with pytest.raises(CancelledError, match="second"):
            runner.run(0, context=context)
        assert seen == ["first"]  # the running stage completed; the next never ran
