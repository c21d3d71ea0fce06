"""The on-disk job layout behind a persisted :class:`~repro.jobs.store.JobStore`.

The store's concurrency model never changes — one in-process lock
guards every mutation — but a persisted store keeps its records in one
directory layout, whether one process owns the directory or N service
replicas (``slj serve --procs N``) share it::

    store/
      index.json     {"seq": N, "expired": {id: state}}
      index.lock     fcntl lock serialising index updates
      jobs/<id>.json one record per job
      queue/<id>     submitted, unclaimed          (shared only)
      claims/<id>    claimed; content = owner id   (shared only)

Every file is written through :func:`~repro.resilience.atomic.atomic_write`
(unique dot-prefixed temporary name, file and directory ``fsync``,
atomic replace), so a reader never sees a torn file and every scan
below skips dot-names.  Each transition rewrites only the changed
job's record.

``shared`` says who else uses the directory.  An **owned** directory
(one process) is read back whole at startup and the index is rewritten
only when the expired-id map changes.  A **shared** directory is read
per request by every replica; submissions additionally drop a marker
into ``queue/`` and a replica claims work by atomically renaming the
marker into ``claims/`` — :func:`os.replace` on POSIX guarantees
exactly one renamer wins, so two replicas can never claim the same
job.  Replicas mint non-colliding ids by bumping the index's ``seq``
under the ``fcntl`` lock.

The records are the truth: an unreadable or missing ``index.json`` is
rebuilt with the highest sequence number among the records (so new ids
still sort after old ones, which the FIFO claim order relies on) and
an empty expired-id map.

Backends only move bytes; all lifecycle semantics (states, TTL,
capacity, cancellation) stay in the store.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any

from ..errors import ConfigurationError
from ..resilience.atomic import atomic_write

try:  # POSIX only; the directory store refuses to build without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Job ids are ``j<seq>-<digest>``; the sequence number orders them.
_SEQ = re.compile(r"j(\d+)-")


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    atomic_write(path, json.dumps(payload).encode("utf-8"))


def _names(directory: Path) -> list[str]:
    """Sorted entry names, minus in-flight (dot-prefixed) temporaries."""
    return sorted(
        name for name in os.listdir(directory) if not name.startswith(".")
    )


class SharedDirectoryBackend:
    """The one on-disk job layout, owned by one process or shared by N."""

    def __init__(self, root: str | Path, shared: bool = True) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            raise ConfigurationError("the directory job store needs fcntl (POSIX)")
        self.shared = shared
        self.root = Path(root)
        self._jobs = self.root / "jobs"
        self._queue = self.root / "queue"
        self._claims = self.root / "claims"
        self._jobs.mkdir(parents=True, exist_ok=True)
        if shared:
            self._queue.mkdir(exist_ok=True)
            self._claims.mkdir(exist_ok=True)
        self._index = self.root / "index.json"
        self._index_lock = self.root / "index.lock"

    # -- index ----------------------------------------------------------
    def _locked_index(self) -> Any:
        handle = open(self._index_lock, "a+")
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        return handle

    def _read_index_locked(self) -> dict[str, Any]:
        seq, expired = 0, {}
        try:
            index = json.loads(self._index.read_bytes())
            seq, expired = int(index["seq"]), dict(index.get("expired", {}))
        except (OSError, ValueError, KeyError, TypeError):
            pass  # missing or unreadable: rebuilt from the records below
        seqs = [int(m.group(1)) for m in map(_SEQ.match, self.list_job_ids()) if m]
        return {"seq": max([seq, *seqs]), "expired": expired}

    def read_index(self) -> dict[str, Any]:
        """``{"seq", "expired"}``; ``seq`` is never below any record's."""
        with self._locked_index():
            return self._read_index_locked()

    def write_index(self, seq: int, expired: dict[str, str]) -> None:
        """Persist the sequence number and the expired-id map."""
        with self._locked_index():
            _write_json(self._index, {"seq": seq, "expired": expired})

    def allocate_seq(self) -> int:
        """Atomically mint the next job sequence number across replicas."""
        with self._locked_index():
            index = self._read_index_locked()
            index["seq"] += 1
            _write_json(self._index, index)
            return index["seq"]

    # -- records --------------------------------------------------------
    def write_job(self, record: dict[str, Any]) -> None:
        """Upsert one job record."""
        _write_json(self._jobs / f"{record['id']}.json", record)

    def read_job(self, job_id: str) -> dict[str, Any] | None:
        """One job record, or ``None`` when unknown or unreadable."""
        path = self._jobs / f"{job_id}.json"
        try:
            return json.loads(path.read_bytes())
        except (OSError, ValueError):
            # Writes are atomic, so an unreadable record means
            # tampering — treat it as unknown rather than poisoning
            # every listing of a live shared store.
            return None

    def records(self) -> list[dict[str, Any]]:
        """Every job record, oldest first (an owned store's startup read).

        Raises :class:`~repro.errors.ConfigurationError` naming the
        file when a record is unreadable: the record is the only copy
        of that job, so starting without it would lose it silently.
        """
        out = []
        for job_id in self.list_job_ids():
            path = self._jobs / f"{job_id}.json"
            try:
                out.append(json.loads(path.read_bytes()))
            except (OSError, ValueError) as exc:
                raise ConfigurationError(
                    f"could not load job record {path}: {exc}"
                ) from exc
        return out

    def remove_job(self, job_id: str) -> None:
        """Forget one job record and its queue/claim markers (idempotent)."""
        for path in (
            self._jobs / f"{job_id}.json",
            self._queue / job_id,
            self._claims / job_id,
        ):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def list_job_ids(self) -> list[str]:
        """Ids of every stored job record, oldest first."""
        return [
            name[: -len(".json")]
            for name in _names(self._jobs)
            if name.endswith(".json")
        ]

    # -- queue ----------------------------------------------------------
    def enqueue(self, job_id: str) -> None:
        """Publish a submitted job for any replica to claim."""
        _write_json(self._queue / job_id, {"id": job_id})

    def claim_next(self, owner: str) -> str | None:
        """Atomically claim the oldest queued job, or ``None``.

        At most one replica ever gets a given id back from this call.
        """
        # Job ids start with a zero-padded sequence number, so sorted
        # marker names are submission order.
        for name in _names(self._queue):
            claim = self._claims / name
            try:
                # The atomic heart of multi-replica draining: rename is
                # all-or-nothing, so of N replicas racing for this
                # marker exactly one sees success and every other gets
                # FileNotFoundError and moves on.
                os.replace(self._queue / name, claim)
            except FileNotFoundError:
                continue
            _write_json(claim, {"owner": owner})
            return name
        return None

    def queued_ids(self) -> list[str]:
        """Currently unclaimed submissions, oldest first."""
        return _names(self._queue)

    def claim_owner(self, job_id: str) -> str | None:
        """Who claimed ``job_id``, if anyone."""
        try:
            return json.loads((self._claims / job_id).read_bytes()).get("owner")
        except (OSError, ValueError):
            return None
