"""The one durable write path: ``repro.resilience.atomic_write``.

Every file the job system persists goes through it, so these tests pin
its contract (a failed write leaves the previous file intact; the file
and its directory are fsync'd; temporaries are unique dot-names that no
reader mistakes for state) and scan the job/resilience sources for
write idioms that bypass it.
"""

from __future__ import annotations

import ast
import os
import stat
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.resilience import (
    JobCheckpointer,
    atomic_write,
    load_stream_spool,
    spool_stream_chunk,
    stream_chunk_count,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestAtomicWrite:
    def test_bytes_and_writer_callbacks(self, tmp_path):
        atomic_write(tmp_path / "a.json", b'{"x": 1}')
        assert (tmp_path / "a.json").read_bytes() == b'{"x": 1}'
        atomic_write(tmp_path / "a.npy", lambda handle: np.save(handle, np.arange(3)))
        assert np.load(tmp_path / "a.npy").tolist() == [0, 1, 2]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "a.npy"]

    def test_writer_failing_part_way_keeps_the_previous_file(self, tmp_path):
        target = tmp_path / "record.json"
        atomic_write(target, b"previous")

        def torn(handle):
            handle.write(b"half of the new cont")
            raise OSError("disk went away")

        with pytest.raises(OSError, match="disk went away"):
            atomic_write(target, torn)
        assert target.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["record.json"]

    def test_failed_replace_keeps_the_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "record.json"
        atomic_write(target, b"previous")

        def crash(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="before the rename"):
            atomic_write(target, b"new")
        monkeypatch.undo()
        assert target.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["record.json"]

    def test_fsyncs_the_file_and_its_directory(self, tmp_path, monkeypatch):
        real_fsync = os.fsync
        synced = []

        def recording_fsync(fd):
            info = os.fstat(fd)
            synced.append((stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        atomic_write(tmp_path / "record.json", b"{}")
        monkeypatch.undo()
        file_ino = (tmp_path / "record.json").stat().st_ino
        assert synced == [(False, file_ino), (True, tmp_path.stat().st_ino)]

    def test_temporaries_are_unique_dot_names_beside_the_target(
        self, tmp_path, monkeypatch
    ):
        real_replace = os.replace
        sources = []

        def recording_replace(src, dst):
            sources.append(Path(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        atomic_write(tmp_path / "record.json", b"1")
        atomic_write(tmp_path / "record.json", b"2")
        monkeypatch.undo()
        assert len(set(sources)) == 2
        for source in sources:
            assert source.parent == tmp_path
            assert source.name.startswith(".record.json.")


class TestLeftoverTemporaries:
    """A crash between write and rename leaves a dot-temporary behind."""

    def test_stream_spool_ignores_them(self, tmp_path):
        spool_stream_chunk(tmp_path, "j1", 0, np.zeros((2, 4, 4, 3)))
        chunks = tmp_path / "j1" / "frames"
        (chunks / ".chunk_000001.npy.k3j2.tmp").write_bytes(b"\x93NUMPY torn")
        assert stream_chunk_count(tmp_path, "j1") == 1
        frames, eof = load_stream_spool(tmp_path, "j1")
        assert len(frames) == 2 and not eof

    def test_checkpoint_load_ignores_them(self, tmp_path):
        ckpt = JobCheckpointer(tmp_path, "j1", "hash")
        ckpt.directory.mkdir(parents=True)
        (ckpt.directory / ".checkpoint.json.k3j2.tmp").write_text("{torn")
        (ckpt.directory / ".checkpoint.npz.k3j2.tmp").write_bytes(b"PK torn")
        assert ckpt.load() is None

        context = SimpleNamespace(artifacts={
            "segmentations": (),
            "background": np.zeros((4, 4, 3)),
            "rng": np.random.default_rng(0),
        })
        ckpt("segmentation", [], context)
        saved = ckpt.load()
        assert saved is not None and saved.stage == "segmentation"
        names = sorted(p.name for p in ckpt.directory.iterdir())
        assert [n for n in names if not n.startswith(".")] == [
            "checkpoint.json", "checkpoint.npz",
        ]


# ----------------------------------------------------------------------
# Source scan: no durable write bypasses atomic_write
# ----------------------------------------------------------------------
#: The idioms each (file, function) may use: the helper itself, and the
#: queue-marker claim whose all-or-nothing rename is the claim arbiter.
_ALLOWED = {
    ("resilience/atomic.py", "atomic_write"): {"replace", ".tmp"},
    ("jobs/backends.py", "claim_next"): {"replace"},
}
_WRITE_CALLS = {"replace", "rename", "write_text", "write_bytes", "touch"}


def _bypasses(source: str, relative: str) -> list[str]:
    """Write idioms in ``source`` (a file at ``relative`` under src/repro)."""
    found: list[str] = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        allowed = _ALLOWED.get((relative, function), set())
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            # str.replace takes two strings; a path rename takes one
            # target (Path.replace) or two paths (os.replace) — flag
            # every rename-shaped call outside the allowed functions.
            is_str_replace = (
                name == "replace"
                and len(node.args) == 2
                and all(isinstance(arg, ast.Constant) for arg in node.args)
            )
            if name in _WRITE_CALLS - allowed and not is_str_replace:
                found.append(f"{relative}:{node.lineno} .{name}()")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "open" and len(node.args) > 1:
                mode = node.args[1]
                if isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wx"):
                    found.append(f"{relative}:{node.lineno} open(..., {mode.value!r})")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if ".tmp" in node.value and ".tmp" not in allowed:
                found.append(f"{relative}:{node.lineno} {node.value!r}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("package", ["jobs", "resilience"])
def test_durable_writes_go_through_atomic_write(package):
    offenders = [
        hit
        for path in sorted((SRC / package).rglob("*.py"))
        for hit in _bypasses(path.read_text(), path.relative_to(SRC).as_posix())
    ]
    assert offenders == [], (
        "write state through repro.resilience.atomic_write (fsync'd, "
        f"atomic, dot-prefixed temporary): {offenders}"
    )


def test_the_scan_sees_a_hand_rolled_write():
    rogue = (
        "import os\n"
        "def save(path, text):\n"
        "    tmp = path.with_suffix('.tmp')\n"
        "    tmp.write_text(text)\n"
        "    os.replace(tmp, path)\n"
        "    open(path, 'wb').close()\n"
        "    return 'a-b'.replace('-', '_')\n"
    )
    assert len(_bypasses(rogue, "jobs/store.py")) == 4
    claim = rogue.replace("save", "claim_next")
    assert len(_bypasses(claim, "jobs/backends.py")) == 3
