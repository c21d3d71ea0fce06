"""The ``/v1`` surface: the only paths the service answers."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceHandle, route_table


@pytest.fixture(scope="module")
def service():
    with ServiceHandle() as handle:
        yield handle


def _call(url, method="GET", data=None):
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


class TestAliases:
    """The unversioned aliases are retired: every one is a plain 404."""

    @pytest.mark.parametrize("method", ["GET", "POST", "DELETE"])
    def test_retired_alias_paths_get_404_envelope(self, service, method):
        data = b"{}" if method == "POST" else None
        for path in ("/health", "/metrics", "/analyze", "/jobs", "/jobs/j1"):
            status, body, headers = _call(service.address + path, method, data)
            assert status == 404, (method, path)
            assert body["error"]["type"] == "not_found"
            assert set(body["error"]) == {"type", "message", "detail"}
            assert path in body["error"]["message"]
            assert headers.get("Deprecation") is None

    def test_unknown_paths_are_404_on_both_surfaces(self, service):
        for prefix in ("", "/v1"):
            status, body, _ = _call(f"{service.address}{prefix}/nowhere")
            assert status == 404
            assert body["error"]["type"] == "not_found"
            assert set(body["error"]) == {"type", "message", "detail"}


class TestVersionEndpoint:
    def test_version_payload(self, service):
        import repro

        status, body, _ = _call(service.address + "/v1/version")
        assert status == 200
        assert body["api_version"] == "v1"
        assert body["package_version"] == repro.__version__
        assert isinstance(body["config_hash"], str) and body["config_hash"]


class TestRouteTable:
    def test_route_table_is_sorted_and_versioned(self):
        table = route_table()
        assert table == sorted(table)
        assert all(" /v1/" in entry for entry in table)

    def test_every_get_route_is_reachable(self, service):
        """Concrete GET routes answer something other than 404."""
        for entry in route_table():
            method, path = entry.split(" ", 1)
            if method != "GET" or "{" in path:
                continue
            status, _, _ = _call(service.address + path)
            assert status != 404, entry
