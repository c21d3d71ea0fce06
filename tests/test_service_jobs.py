"""HTTP tests for the asynchronous job API (``/v1/jobs``)."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np

from repro.jobs import JobsConfig, JobStore, SharedDirectoryBackend
from repro.pipeline import AnalyzerConfig
from repro.service import ServiceConfig, ServiceHandle, encode_video


def _request(method, url, body=None):
    """One request; returns (status, payload, headers) without raising."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


class _ScriptedAnalyzer:
    """Deterministic stand-in for JumpAnalyzer with the real stage names."""

    STAGES = ("segmentation", "tracking", "scoring")

    def __init__(self, error=None, barrier=None, started=None):
        self.config = AnalyzerConfig()
        self.error = error
        self.barrier = barrier
        self.started = started

    def analyze(self, video, annotation=None, rng=None,
                instrumentation=None, cancel_token=None, checkpointer=None):
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
        return {"stub": True}


def _stub_handle(analyzer, jobs=None, service_config=None):
    """A running service whose analyzer and job serializer are scripted."""
    config = service_config or ServiceConfig(jobs=jobs or JobsConfig())
    handle = ServiceHandle(service_config=config)
    handle._server.analyzer = analyzer
    handle.jobs.workers._serializer = lambda analysis: {
        "stub": True,
        "degraded": False,
    }
    return handle.start()


def _tiny_video_b64():
    from repro.video.sequence import VideoSequence

    frames = np.zeros((2, 8, 8, 3), dtype=np.uint8)
    return encode_video(VideoSequence(frames))


def _submit(address, seed=0):
    return _request(
        "POST",
        f"{address}/v1/jobs",
        {"video_npz_b64": _tiny_video_b64(), "seed": seed},
    )


def _poll_terminal(address, job_id, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload, _ = _request("GET", f"{address}/v1/jobs/{job_id}")
        assert status == 200
        if payload["job"]["state"] in ("succeeded", "failed", "cancelled"):
            return payload["job"]
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never became terminal")


class TestSubmission:
    def test_202_with_location_before_completion(self):
        barrier = threading.Event()
        handle = _stub_handle(_ScriptedAnalyzer(barrier=barrier))
        try:
            status, payload, headers = _submit(handle.address, seed=3)
            assert status == 202
            job = payload["job"]
            assert headers["Location"] == f"/v1/jobs/{job['id']}"
            # the job is answered before the analysis finished
            assert job["state"] in ("submitted", "running")
            assert job["seed"] == 3
            barrier.set()
            final = _poll_terminal(handle.address, job["id"])
            assert final["state"] == "succeeded"
            assert final["progress"]["fraction"] == 1.0
            assert final["progress"]["stages_completed"] == list(
                _ScriptedAnalyzer.STAGES
            )
        finally:
            handle.stop()

    def test_submission_ids_are_deterministic(self):
        for _ in range(2):
            handle = _stub_handle(_ScriptedAnalyzer())
            try:
                _, payload, _ = _submit(handle.address, seed=9)
                assert payload["job"]["id"].startswith("j00001-")
                digest_part = payload["job"]["id"].split("-", 1)[1]
            finally:
                handle.stop()
        assert len(digest_part) == 10

    def test_missing_video_is_400(self):
        handle = _stub_handle(_ScriptedAnalyzer())
        try:
            status, payload, _ = _request(
                "POST", f"{handle.address}/v1/jobs", {"seed": 1}
            )
            assert status == 400
            assert payload["error"]["type"] == "missing_field"
            assert set(payload["error"]) == {"type", "message", "detail"}
        finally:
            handle.stop()

    def test_queue_full_is_503_with_retry_after(self):
        barrier = threading.Event()
        started = threading.Event()
        handle = _stub_handle(
            _ScriptedAnalyzer(barrier=barrier, started=started),
            jobs=JobsConfig(max_queued=1),
        )
        try:
            status, _, _ = _submit(handle.address)
            assert status == 202
            assert started.wait(timeout=10)
            status, payload, headers = _submit(handle.address)
            assert status == 503
            assert payload["error"]["type"] == "jobs_queue_full"
            assert "Retry-After" in headers
            barrier.set()
        finally:
            handle.stop()

    def test_disabled_jobs_api_is_503(self):
        handle = _stub_handle(
            _ScriptedAnalyzer(), jobs=JobsConfig(enabled=False)
        )
        try:
            status, payload, _ = _submit(handle.address)
            assert status == 503
            assert payload["error"]["type"] == "jobs_disabled"
            status, payload, _ = _request("GET", f"{handle.address}/v1/jobs")
            assert status == 503
        finally:
            handle.stop()


class TestStatusAndResult:
    def test_unknown_job_is_404(self):
        handle = _stub_handle(_ScriptedAnalyzer())
        try:
            status, payload, _ = _request(
                "GET", f"{handle.address}/v1/jobs/j99999-0000000000"
            )
            assert status == 404
            assert payload["error"]["type"] == "job_not_found"
        finally:
            handle.stop()

    def test_result_conflict_while_running(self):
        barrier = threading.Event()
        started = threading.Event()
        handle = _stub_handle(
            _ScriptedAnalyzer(barrier=barrier, started=started)
        )
        try:
            _, payload, _ = _submit(handle.address)
            job_id = payload["job"]["id"]
            assert started.wait(timeout=10)
            status, payload, _ = _request(
                "GET", f"{handle.address}/v1/jobs/{job_id}/result"
            )
            assert status == 409
            assert payload["error"]["type"] == "job_not_finished"
            assert payload["error"]["detail"]["state"] == "running"
            barrier.set()
            _poll_terminal(handle.address, job_id)
            status, payload, _ = _request(
                "GET", f"{handle.address}/v1/jobs/{job_id}/result"
            )
            assert status == 200
            assert payload["analysis"] == {"stub": True, "degraded": False}
            assert payload["job"]["state"] == "succeeded"
        finally:
            handle.stop()

    def test_failed_job_result_is_409_with_detail(self):
        from repro.errors import TrackingError

        handle = _stub_handle(
            _ScriptedAnalyzer(error=TrackingError("lost the jumper"))
        )
        try:
            _, payload, _ = _submit(handle.address)
            job_id = payload["job"]["id"]
            final = _poll_terminal(handle.address, job_id)
            assert final["state"] == "failed"
            status, payload, _ = _request(
                "GET", f"{handle.address}/v1/jobs/{job_id}/result"
            )
            assert status == 409
            assert payload["error"]["type"] == "job_failed"
            assert payload["error"]["detail"]["type"] == "TrackingError"
        finally:
            handle.stop()

    def test_expired_result_is_410(self):
        handle = _stub_handle(
            _ScriptedAnalyzer(), jobs=JobsConfig(result_ttl_seconds=0.05)
        )
        try:
            _, payload, _ = _submit(handle.address)
            job_id = payload["job"]["id"]
            _poll_terminal(handle.address, job_id)
            time.sleep(0.1)
            status, payload, _ = _request(
                "GET", f"{handle.address}/v1/jobs/{job_id}/result"
            )
            assert status == 410
            assert payload["error"]["type"] == "result_expired"
            status, payload, _ = _request(
                "GET", f"{handle.address}/v1/jobs/{job_id}"
            )
            assert status == 410
        finally:
            handle.stop()


class TestCancellation:
    def test_cancel_mid_run_without_poisoning_the_pool(self):
        barrier = threading.Event()
        started = threading.Event()
        handle = _stub_handle(
            _ScriptedAnalyzer(barrier=barrier, started=started)
        )
        try:
            _, payload, _ = _submit(handle.address)
            job_id = payload["job"]["id"]
            assert started.wait(timeout=10)
            status, payload, _ = _request(
                "DELETE", f"{handle.address}/v1/jobs/{job_id}"
            )
            assert status == 202
            assert payload["cancel"] == "cancelling"
            barrier.set()
            final = _poll_terminal(handle.address, job_id)
            assert final["state"] == "cancelled"
            assert final["error"]["type"] == "CancelledError"

            # a fresh job on the same (shared) pool still succeeds
            status, payload, _ = _submit(handle.address, seed=5)
            assert status == 202
            follow_up = _poll_terminal(handle.address, payload["job"]["id"])
            assert follow_up["state"] == "succeeded"
        finally:
            handle.stop()

    def test_cancel_of_terminal_job_is_idempotent(self):
        handle = _stub_handle(_ScriptedAnalyzer())
        try:
            _, payload, _ = _submit(handle.address)
            job_id = payload["job"]["id"]
            _poll_terminal(handle.address, job_id)
            status, payload, _ = _request(
                "DELETE", f"{handle.address}/v1/jobs/{job_id}"
            )
            assert status == 200
            assert payload["cancel"] == "finished"
            assert payload["job"]["state"] == "succeeded"
        finally:
            handle.stop()

    def test_cancel_unknown_job_is_404(self):
        handle = _stub_handle(_ScriptedAnalyzer())
        try:
            status, payload, _ = _request(
                "DELETE", f"{handle.address}/v1/jobs/j99999-0000000000"
            )
            assert status == 404
            assert payload["error"]["type"] == "job_not_found"
        finally:
            handle.stop()


class TestListingAndMetrics:
    def test_listing_is_bounded_and_filterable(self):
        handle = _stub_handle(_ScriptedAnalyzer())
        try:
            ids = []
            for seed in range(3):
                _, payload, _ = _submit(handle.address, seed=seed)
                ids.append(payload["job"]["id"])
                _poll_terminal(handle.address, ids[-1])
            status, payload, _ = _request(
                "GET", f"{handle.address}/v1/jobs?limit=2"
            )
            assert status == 200
            assert payload["count"] == 2
            assert [j["id"] for j in payload["jobs"]] == ids[:0:-1]
            status, payload, _ = _request(
                "GET", f"{handle.address}/v1/jobs?state=succeeded"
            )
            assert payload["count"] == 3
            status, payload, _ = _request(
                "GET", f"{handle.address}/v1/jobs?state=bogus"
            )
            assert status == 400
            assert payload["error"]["type"] == "bad_state"
            status, payload, _ = _request(
                "GET", f"{handle.address}/v1/jobs?limit=0"
            )
            assert status == 400
            assert payload["error"]["type"] == "bad_limit"
        finally:
            handle.stop()

    def test_metrics_exposes_job_counters(self):
        handle = _stub_handle(_ScriptedAnalyzer())
        try:
            _, payload, _ = _submit(handle.address)
            _poll_terminal(handle.address, payload["job"]["id"])
            status, snapshot, _ = _request(
                "GET", f"{handle.address}/v1/metrics"
            )
            assert status == 200
            jobs = snapshot["jobs"]
            assert jobs["states"]["succeeded"] == 1
            assert jobs["created"] == 1
            assert jobs["enabled"] is True
            assert snapshot["counters"]["service.jobs.submitted"] == 1
            assert snapshot["pool"]["submitted"] >= 1
        finally:
            handle.stop()


def _state_dir_jobs(tmp_path, **kwargs):
    """The job config ``slj serve --state-dir tmp_path`` builds."""
    return JobsConfig(
        store_dir=str(tmp_path / "store"),
        checkpoint_dir=str(tmp_path / "checkpoints"),
        **kwargs,
    )


class TestPersistence:
    def test_result_survives_a_service_restart(self, tmp_path):
        jobs_config = _state_dir_jobs(tmp_path)
        handle = _stub_handle(_ScriptedAnalyzer(), jobs=jobs_config)
        try:
            _, payload, _ = _submit(handle.address, seed=11)
            job_id = payload["job"]["id"]
            _poll_terminal(handle.address, job_id)
        finally:
            handle.stop()

        # a second service over the same directory serves the old result
        handle = _stub_handle(_ScriptedAnalyzer(), jobs=jobs_config)
        try:
            status, payload, _ = _request(
                "GET", f"{handle.address}/v1/jobs/{job_id}/result"
            )
            assert status == 200
            assert payload["analysis"] == {"stub": True, "degraded": False}
        finally:
            handle.stop()

        # and the raw store agrees
        store = JobStore(
            backend=SharedDirectoryBackend(tmp_path / "store", shared=False)
        )
        record = store.payload(job_id, include_result=True)
        assert record["state"] == "succeeded"
        assert record["seed"] == 11

    def test_expired_job_answers_410_after_a_restart(self, tmp_path):
        jobs_config = _state_dir_jobs(tmp_path, result_ttl_seconds=0.5)
        handle = _stub_handle(_ScriptedAnalyzer(), jobs=jobs_config)
        try:
            _, payload, _ = _submit(handle.address, seed=11)
            job_id = payload["job"]["id"]
            _poll_terminal(handle.address, job_id)
        finally:
            handle.stop()
        time.sleep(0.6)

        # The restarted service expires the job on its first read...
        for _ in range(2):
            handle = _stub_handle(_ScriptedAnalyzer(), jobs=jobs_config)
            try:
                status, payload, _ = _request(
                    "GET", f"{handle.address}/v1/jobs/{job_id}/result"
                )
            finally:
                handle.stop()
            # ...and the next one still remembers the expired id.
            assert status == 410
            assert payload["error"]["type"] == "result_expired"
        assert not (tmp_path / "store" / "jobs" / f"{job_id}.json").exists()
