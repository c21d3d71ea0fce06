"""Tests for top-level CLI error handling: one line, exit code 2."""

import numpy as np
import pytest

from repro import cli
from repro.errors import TrackingError, VideoError


class TestAnalyzeErrors:
    def test_bad_video_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "video.npz"
        np.savez(bad, not_frames=np.zeros(3))
        rc = cli.main(["analyze", str(bad), "--annotation", "auto", "--fast"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[VideoError]:")
        assert err.count("\n") == 1  # one line, no traceback

    def test_message_names_the_problem(self, tmp_path, capsys):
        bad = tmp_path / "video.npz"
        np.savez(bad, not_frames=np.zeros(3))
        rc = cli.main(["analyze", str(bad), "--annotation", "auto", "--fast"])
        assert rc == 2
        assert "'frames'" in capsys.readouterr().err


class TestDemoErrors:
    def test_analysis_failure_exits_2(self, monkeypatch, capsys):
        class _ExplodingAnalyzer:
            def __init__(self, *args, **kwargs):
                pass

            def analyze(self, *args, **kwargs):
                raise TrackingError("lost the jumper")

        monkeypatch.setattr(cli, "JumpAnalyzer", _ExplodingAnalyzer)
        rc = cli.main(["demo", "--fast"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[TrackingError]: lost the jumper")


class TestServeErrors:
    def test_legacy_job_snapshot_is_refused(self, tmp_path, monkeypatch, capsys):
        """A --state-dir from before the per-job layout fails fast.

        Its ``jobs.json`` snapshot is not imported; starting anyway
        would silently drop the jobs it holds.
        """
        import repro.service

        legacy = tmp_path / "jobs.json"
        legacy.write_text('{"seq": 3, "jobs": [], "expired": {}}')
        served = []
        monkeypatch.setattr(repro.service, "serve", lambda **kw: served.append(kw))
        rc = cli.main(["serve", "--port", "0", "--state-dir", str(tmp_path)])
        assert rc == 2
        assert served == []
        err = capsys.readouterr().err
        assert err.startswith("error[ConfigurationError]: ")
        assert str(legacy) in err
        assert not (tmp_path / "store").exists()

    def test_state_dir_persists_per_job_records(self, tmp_path, monkeypatch):
        import repro.service

        served = []
        monkeypatch.setattr(repro.service, "serve", lambda **kw: served.append(kw))
        for procs in ("1", "2"):
            rc = cli.main(["serve", "--port", "0", "--procs", procs,
                           "--state-dir", str(tmp_path)])
            assert rc == 0
        assert [kw["procs"] for kw in served] == [1, 2]
        for kw in served:
            jobs = kw["service_config"].jobs
            assert jobs.store_dir == str(tmp_path / "store")
            assert jobs.checkpoint_dir == str(tmp_path / "checkpoints")


class TestErrorFormat:
    @pytest.mark.parametrize("exc", [VideoError("v"), TrackingError("t")])
    def test_subclass_name_is_reported(self, monkeypatch, capsys, exc):
        monkeypatch.setattr(
            cli,
            "build_parser",
            lambda: _StaticParser(lambda args: (_ for _ in ()).throw(exc)),
        )
        rc = cli.main([])
        assert rc == 2
        assert f"error[{type(exc).__name__}]: " in capsys.readouterr().err


class _StaticParser:
    """Parser stub whose parsed args always dispatch to ``func``."""

    def __init__(self, func):
        self._func = func

    def parse_args(self, argv):
        import argparse

        return argparse.Namespace(func=self._func)
