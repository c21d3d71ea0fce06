"""Tests for the jump-analysis web service (real HTTP on localhost)."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.client import ServiceClient
from repro.ga.engine import GAConfig
from repro.ga.temporal import TrackerConfig
from repro.model.annotation import simulate_human_annotation
from repro.model.fitness import FitnessConfig
from repro.pipeline import AnalyzerConfig
from repro.serialization import annotation_to_dict
from repro.service import (
    ServiceHandle,
    decode_video,
    encode_video,
)


@pytest.fixture(scope="module")
def jump():
    from repro.video.synthesis import SyntheticJumpConfig, synthesize_jump

    return synthesize_jump(SyntheticJumpConfig(seed=0))


@pytest.fixture(scope="module")
def service():
    config = AnalyzerConfig(
        tracker=TrackerConfig(
            ga=GAConfig(population_size=24, max_generations=8, patience=4),
            fitness=FitnessConfig(max_points=400),
            containment_margin=1,
            min_inside_fraction=0.95,
            containment_samples=7,
        )
    )
    handle = ServiceHandle(config=config).start()
    yield handle
    handle.stop()


def _get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestCodec:
    def test_video_roundtrip(self, jump):
        payload = encode_video(jump.video)
        back = decode_video(payload)
        assert np.allclose(back.frames, jump.video.frames)

    def test_decode_garbage(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            decode_video("not base64!!")


class TestEndpoints:
    def test_health(self, service):
        status, payload = _get(f"{service.address}/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["in_flight"] == 0
        assert payload["max_concurrent"] >= 1
        assert payload["last_error"] is None

    def test_standards(self, service):
        status, payload = _get(f"{service.address}/v1/standards")
        assert status == 200
        assert len(payload["standards"]) == 7
        assert len(payload["rules"]) == 7
        assert payload["rules"][0]["rule"] == "R1"

    def test_unknown_path(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{service.address}/v1/nope")
        assert excinfo.value.code == 404

    def test_analyze_roundtrip(self, service, jump):
        annotation = simulate_human_annotation(
            jump.motion.poses[0],
            jump.dims,
            mask=jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        result = ServiceClient(service.address).analyze(
            jump.video,
            annotation=annotation_to_dict(annotation),
            seed=1,
        )
        assert "report" in result and "advice" in result["report"]
        assert len(result["poses"]) == 20
        assert result["measurement"]["distance_px"] > 0
        assert 0.0 <= result["report"]["score"] <= 1.0

    def test_analyze_bad_payload(self, service):
        request = urllib.request.Request(
            f"{service.address}/v1/analyze",
            data=json.dumps({"video_npz_b64": "###"}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_analyze_missing_video(self, service):
        request = urllib.request.Request(
            f"{service.address}/v1/analyze",
            data=b"{}",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestProfilesAPI:
    """The profile-aware v1 surface: listing, selection, rejection."""

    def test_get_profiles(self, service):
        status, payload = _get(f"{service.address}/v1/profiles")
        assert status == 200
        names = [p["name"] for p in payload["profiles"]]
        assert names == ["standing_long_jump", "sit_to_stand"]
        for profile in payload["profiles"]:
            assert profile["title"]
            assert profile["distance_label"]
            assert len(profile["standards"]) == len(profile["rules"])
            for rule in profile["rules"]:
                assert set(rule) >= {
                    "rule",
                    "standard",
                    "expression",
                    "threshold_deg",
                    "direction",
                }

    def test_unknown_profile_is_structured_400(self, service, jump):
        request = urllib.request.Request(
            f"{service.address}/v1/analyze",
            data=json.dumps(
                {"video_npz_b64": encode_video(jump.video), "profile": "backflip"}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["type"] == "unknown_profile"
        assert body["error"]["detail"]["valid_profiles"] == [
            "standing_long_jump",
            "sit_to_stand",
        ]

    def test_non_string_profile_is_bad_config(self, service, jump):
        request = urllib.request.Request(
            f"{service.address}/v1/analyze",
            data=json.dumps(
                {"video_npz_b64": encode_video(jump.video), "profile": 7}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["type"] == "bad_config"

    def test_payload_carries_attempts_and_localization(self, service, jump):
        annotation = simulate_human_annotation(
            jump.motion.poses[0],
            jump.dims,
            mask=jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        client = ServiceClient(service.address)
        result = client.analyze(
            jump.video,
            annotation=annotation_to_dict(annotation),
            seed=1,
            profile="standing_long_jump",
        )
        # Classic single-attempt clip: the synthesised a0 mirrors the
        # top-level fields (PR 7's `tracks` backward-compat pattern).
        assert result["localization"] == {"enabled": False}
        (attempt,) = result["attempts"]
        assert attempt["attempt_id"] == "a0"
        assert attempt["primary"] is True
        assert attempt["window"]["start"] == 0
        assert attempt["window"]["end"] == len(jump.video)
        assert attempt["report"]["score"] == result["report"]["score"]
        assert result["report"]["profile"] == "standing_long_jump"
