"""Service observability and error-handling tests: /metrics + HTTP 400s."""

import json
import urllib.error
import urllib.request

import pytest

from repro.client import ServiceClient
from repro.ga.engine import GAConfig
from repro.ga.temporal import TrackerConfig
from repro.model.fitness import FitnessConfig
from repro.pipeline import AnalyzerConfig
from repro.service import ServiceHandle


@pytest.fixture(scope="module")
def tiny_jump():
    from repro.video.synthesis import (
        JumpParameters,
        SyntheticJumpConfig,
        synthesize_jump,
    )

    return synthesize_jump(
        SyntheticJumpConfig(seed=5, params=JumpParameters(num_frames=8))
    )


@pytest.fixture(scope="module")
def service():
    config = AnalyzerConfig(
        tracker=TrackerConfig(
            ga=GAConfig(population_size=20, max_generations=6, patience=3),
            fitness=FitnessConfig(max_points=300),
            containment_margin=1,
            min_inside_fraction=0.95,
            containment_samples=7,
        )
    )
    handle = ServiceHandle(config=config).start()
    yield handle
    handle.stop()


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _post(service, body: bytes) -> urllib.error.HTTPError:
    request = urllib.request.Request(
        f"{service.address}/v1/analyze",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    return excinfo.value


def _error_payload(http_error: urllib.error.HTTPError) -> dict:
    return json.loads(http_error.read())["error"]


class TestBadRequests:
    def test_malformed_json_is_400_with_structured_error(self, service):
        error = _post(service, b"{this is not json")
        assert error.code == 400
        payload = _error_payload(error)
        assert payload["type"] == "malformed_json"
        assert "JSON" in payload["message"]

    def test_non_object_json_is_400_not_500(self, service):
        # regression: a JSON array body used to raise TypeError inside
        # the handler (an unhandled 500 / dropped connection)
        error = _post(service, b"[1, 2, 3]")
        assert error.code == 400
        assert _error_payload(error)["type"] == "malformed_json"

    def test_undecodable_base64_is_400_with_structured_error(self, service):
        # regression: the npz/base64 decode failure must surface as a
        # structured 400, never a 500
        error = _post(service, json.dumps({"video_npz_b64": "###"}).encode())
        assert error.code == 400
        payload = _error_payload(error)
        assert payload["type"] == "bad_video_payload"
        assert payload["message"]

    def test_valid_base64_invalid_npz_is_400(self, service):
        import base64

        bogus = base64.b64encode(b"not an npz archive").decode()
        error = _post(service, json.dumps({"video_npz_b64": bogus}).encode())
        assert error.code == 400
        assert _error_payload(error)["type"] == "bad_video_payload"

    def test_missing_video_field_is_400(self, service):
        error = _post(service, b"{}")
        assert error.code == 400
        assert _error_payload(error)["type"] == "missing_field"

    def test_non_integer_seed_is_400(self, service, tiny_jump):
        from repro.service import encode_video

        body = json.dumps(
            {"video_npz_b64": encode_video(tiny_jump.video), "seed": "many"}
        ).encode()
        error = _post(service, body)
        assert error.code == 400
        assert _error_payload(error)["type"] == "bad_seed"

    def test_404_error_is_structured_too(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{service.address}/v1/nowhere", timeout=10)
        assert excinfo.value.code == 404
        assert _error_payload(excinfo.value)["type"] == "not_found"


class TestMetricsEndpoint:
    def test_metrics_shape_before_any_analysis(self):
        with ServiceHandle() as handle:
            snapshot = _get_json(f"{handle.address}/v1/metrics")
            assert set(snapshot) == {
                "requests",
                "stages",
                "counters",
                "analyzer_cache",
                "pool",
                "jobs",
                "service",
            }
            # the /metrics request itself is only counted after serving,
            # so a fresh server reports no stage work yet
            assert snapshot["stages"] == {}
            assert snapshot["analyzer_cache"]["hits"] == 0
            assert snapshot["analyzer_cache"]["misses"] == 0
            assert snapshot["pool"]["workers"] >= 1
            assert snapshot["pool"]["in_flight"] == 0
            assert snapshot["service"]["uptime_seconds"] >= 0.0
            assert snapshot["service"]["shutting_down"] is False
            assert snapshot["service"]["watchdog_timeouts"] == 0
            assert snapshot["service"]["breaker_trips"] == 0
            assert snapshot["service"]["resumed_jobs"] == 0
            assert snapshot["service"]["tasks_cancelled_at_shutdown"] == 0

    def test_analysis_populates_cumulative_stage_timings(
        self, service, tiny_jump
    ):
        result = ServiceClient(service.address).analyze(tiny_jump.video, seed=3)
        assert result["trace"]["total_seconds"] > 0.0

        snapshot = _get_json(f"{service.address}/v1/metrics")
        stages = snapshot["stages"]
        for name in ("segmentation", "tracking", "scoring"):
            assert stages[name]["calls"] >= 1
            assert stages[name]["total_seconds"] > 0.0
        assert stages["tracking/frame"]["calls"] >= 7
        assert snapshot["counters"]["ga.evaluations"] > 0

    def test_request_counters_accumulate(self, service):
        before = _get_json(f"{service.address}/v1/metrics")["requests"]
        _get_json(f"{service.address}/v1/health")
        _post(service, b"{not json")  # counted as a 400
        after = _get_json(f"{service.address}/v1/metrics")["requests"]
        assert after["total"] >= before.get("total", 0) + 2
        assert after["endpoint:/v1/health"] >= 1
        assert after["status:400"] >= 1

    def test_errors_do_not_pollute_stage_metrics(self, tiny_jump):
        # a failed request must count as a request but record no stages
        with ServiceHandle() as handle:
            _post(handle, b"{not json")
            snapshot = _get_json(f"{handle.address}/v1/metrics")
            assert snapshot["stages"] == {}
            assert snapshot["requests"]["status:400"] == 1


class TestScaleOutObservability:
    """`--procs` observability: each replica reports its pid."""

    def test_metrics_expose_pid(self):
        import os

        with ServiceHandle() as handle:
            snapshot = _get_json(f"{handle.address}/v1/metrics")
            assert snapshot["service"]["pid"] == os.getpid()
            health = _get_json(f"{handle.address}/v1/health")
            assert health["pid"] == os.getpid()

    def test_handle_adopts_prebound_listener(self):
        """The forked-worker plumbing: serve on a socket bound elsewhere.

        `slj serve --procs N` binds one listener, forks, and every
        child builds its HTTP server around the inherited socket; this
        exercises that adoption path in-process.
        """
        import socket

        listener = socket.create_server(("127.0.0.1", 0), backlog=8)
        port = listener.getsockname()[1]
        handle = ServiceHandle(listener=listener).start()
        try:
            assert handle.address.endswith(f":{port}")
            health = _get_json(f"http://127.0.0.1:{port}/v1/health")
            assert health["status"] == "ok"
        finally:
            handle.stop()
