"""Tests for the hardened service: 413/503/504, degraded 200s, /health."""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.errors as errors_module
from repro.client import ServiceClient
from repro.errors import ReproError
from repro.ga.engine import GAConfig
from repro.ga.temporal import TrackerConfig
from repro.model.annotation import simulate_human_annotation
from repro.model.fitness import FitnessConfig
from repro.pipeline import AnalyzerConfig
from repro.serialization import annotation_to_dict
from repro.service import (
    ServiceConfig,
    ServiceHandle,
    encode_video,
)


def _fast_config():
    return AnalyzerConfig(
        tracker=TrackerConfig(
            ga=GAConfig(population_size=24, max_generations=8, patience=4),
            fitness=FitnessConfig(max_points=400),
        )
    )


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post_raw(url, body: bytes, headers=None):
    """POST and return (status, payload, headers) without raising."""
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def _analyze_body(video, annotation=None, seed=0):
    body = {"video_npz_b64": encode_video(video), "seed": seed}
    if annotation is not None:
        body["annotation"] = annotation_to_dict(annotation)
    return json.dumps(body).encode("utf-8")


class _StubAnalyzer:
    """Stand-in analyzer whose behaviour the test scripts."""

    def __init__(self, error=None, delay=0.0):
        self.config = AnalyzerConfig()
        self._error = error
        self._delay = delay

    def analyze(self, *args, **kwargs):
        if self._delay:
            time.sleep(self._delay)
        if self._error is not None:
            raise self._error
        raise AssertionError("stub analyzer has no success path")


class TestBodyLimit:
    def test_oversized_body_is_413(self, short_jump):
        handle = ServiceHandle(
            service_config=ServiceConfig(max_body_bytes=512)
        ).start()
        try:
            status, payload, headers = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
            assert status == 413
            assert payload["error"]["type"] == "body_too_large"
            # Draining is capped, so the connection must not be reused.
            assert headers["Connection"] == "close"
        finally:
            handle.stop()

    def test_small_bodies_pass_the_limit(self):
        handle = ServiceHandle(
            service_config=ServiceConfig(max_body_bytes=512)
        ).start()
        try:
            status, payload, _ = _post_raw(f"{handle.address}/v1/analyze", b"{}")
            assert status == 400  # missing video, but not 413
        finally:
            handle.stop()


class TestConcurrencyGate:
    def test_analyzer_construction_error_is_400_not_a_leaked_slot(
        self, short_jump
    ):
        """A config that survives parsing but fails JumpAnalyzer
        construction (robustness stage names are validated there) must
        answer a structured 400 without consuming a concurrency slot —
        repeat offenders must not wedge the gate into permanent 503s.
        """
        handle = ServiceHandle(
            service_config=ServiceConfig(max_concurrent=1)
        ).start()
        try:
            body = json.dumps(
                {
                    "video_npz_b64": encode_video(short_jump.video),
                    "config": {"robustness": {"retry_stages": ["bogus"]}},
                }
            ).encode("utf-8")
            for _ in range(3):  # would exhaust a leaked single-slot gate
                status, payload, _ = _post_raw(
                    f"{handle.address}/v1/analyze", body
                )
                assert status == 400
                assert payload["error"]["type"] == "bad_config"
                assert "bogus" in payload["error"]["message"]
            # The slot was never taken: the gate still admits a request.
            assert handle._server.gate.acquire(blocking=False)
            handle._server.gate.release()
        finally:
            handle.stop()

    def test_busy_service_is_503_with_retry_after(self, short_jump):
        handle = ServiceHandle(
            service_config=ServiceConfig(
                max_concurrent=1, retry_after_seconds=7
            )
        ).start()
        try:
            # Occupy the single slot so the next request is refused.
            assert handle._server.gate.acquire(blocking=False)
            try:
                status, payload, headers = _post_raw(
                    f"{handle.address}/v1/analyze",
                    _analyze_body(short_jump.video),
                )
                assert status == 503
                assert payload["error"]["type"] == "overloaded"
                assert headers["Retry-After"] == "7"
            finally:
                handle._server.gate.release()
        finally:
            handle.stop()


class TestDeadline:
    def test_slow_analysis_is_504(self, short_jump):
        handle = ServiceHandle(
            service_config=ServiceConfig(deadline_seconds=0.05)
        ).start()
        handle._server.analyzer = _StubAnalyzer(delay=0.6)
        try:
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
            assert status == 504
            assert payload["error"]["type"] == "deadline_exceeded"
            # The timeout lands in /health's last_error.
            _, health = _get(f"{handle.address}/v1/health")
            assert health["last_error"]["type"] == "deadline_exceeded"
        finally:
            handle.stop()


REPRO_ERRORS = sorted(
    (
        obj
        for name, obj in vars(errors_module).items()
        if isinstance(obj, type) and issubclass(obj, ReproError)
    ),
    key=lambda cls: cls.__name__,
)


class TestErrorMapping:
    @pytest.mark.parametrize(
        "exc_type", REPRO_ERRORS, ids=lambda cls: cls.__name__
    )
    def test_every_repro_error_maps_to_422(self, short_jump, exc_type):
        handle = ServiceHandle().start()
        handle._server.analyzer = _StubAnalyzer(error=exc_type("kaput"))
        try:
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
            assert status == 422
            assert payload["error"]["type"] == "analysis_failed"
            assert "kaput" in payload["error"]["message"]
        finally:
            handle.stop()

    def test_unexpected_error_maps_to_500(self, short_jump):
        handle = ServiceHandle().start()
        handle._server.analyzer = _StubAnalyzer(error=ValueError("surprise"))
        try:
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
            assert status == 500
            assert payload["error"]["type"] == "internal_error"
            _, health = _get(f"{handle.address}/v1/health")
            assert health["last_error"]["type"] == "internal_error"
        finally:
            handle.stop()

    def test_malformed_body_maps_to_400(self):
        handle = ServiceHandle().start()
        try:
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/analyze", b"not json"
            )
            assert status == 400
            assert payload["error"]["type"] == "malformed_json"
        finally:
            handle.stop()


class TestDegradedResponses:
    def test_degraded_analysis_is_200_with_block(self, short_jump):
        from repro.faults import FaultPlan, FaultSpec, inject_video_faults

        plan = FaultPlan((FaultSpec(kind="blank_silhouette"),))
        faulted = inject_video_faults(short_jump.video, plan)
        annotation = simulate_human_annotation(
            short_jump.motion.poses[0],
            short_jump.dims,
            mask=short_jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        handle = ServiceHandle(config=_fast_config()).start()
        try:
            result = ServiceClient(handle.address).analyze(
                faulted,
                annotation=annotation_to_dict(annotation),
            )
            assert result["degraded"] is True
            target = FaultSpec(kind="blank_silhouette").resolve_frame(
                len(faulted)
            )
            assert result["degradation"]["unhealthy_frames"] == [target]
            assert result["diagnostics"]["health_summary"]["extrapolated"] == 1
        finally:
            handle.stop()

    def test_clean_analysis_reports_not_degraded(self, short_jump):
        annotation = simulate_human_annotation(
            short_jump.motion.poses[0],
            short_jump.dims,
            mask=short_jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        handle = ServiceHandle(config=_fast_config()).start()
        try:
            result = ServiceClient(handle.address).analyze(
                short_jump.video,
                annotation=annotation_to_dict(annotation),
            )
            assert result["degraded"] is False
            assert "degradation" not in result
            assert result["diagnostics"]["unhealthy_frames"] == []
            _, health = _get(f"{handle.address}/v1/health")
            assert health["in_flight"] == 0
        finally:
            handle.stop()
