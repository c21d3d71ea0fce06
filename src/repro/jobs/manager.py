"""The facade the service (and tests) talk to.

:class:`JobManager` wires a :class:`~repro.jobs.store.JobStore` and a
:class:`~repro.jobs.worker.JobWorkerPool` together behind one small
API: submit, read, cancel, list.  It owns admission control (the
``max_queued`` backpressure bound) but no HTTP concerns — status codes
live in :mod:`repro.service`.
"""

from __future__ import annotations

import os
import threading
import uuid
from typing import Any, Callable

from .backends import SharedDirectoryBackend
from .models import JobsConfig, JobState
from .store import JobStore
from .stream import FrameQueue
from .worker import JobWorkerPool
from ..errors import ReproError, StreamError
from ..perf.pool import WorkerPool
from ..resilience import (
    CircuitBreaker,
    JobCheckpointer,
    Watchdog,
    has_spool,
    load_input_frames,
    load_input_meta,
    load_stream_spool,
    spool_input,
    spool_stream_chunk,
    spool_stream_eof,
    stream_chunk_count,
)
from ..serialization import analysis_payload, annotation_to_dict


class JobQueueFull(ReproError):
    """Too many jobs already queued or running (maps to HTTP 503)."""


class JobManager:
    """Owns the job store and worker pool for one service instance.

    With ``config.checkpoint_dir`` the manager also owns crash safety:
    submissions are spooled to disk, the pipeline checkpoints at stage
    boundaries, restart survivors are re-queued (``resumed``) instead
    of failed, and :meth:`recover` re-submits them.  The watchdog and
    the per-config circuit breaker live here too — the service only
    maps their refusals to status codes.

    ``replicas`` is how many service processes use
    ``config.store_dir``: with one, this manager owns the directory
    and runs its submissions itself; with more, submissions go through
    the directory's claim queue that every replica drains.
    """

    def __init__(
        self,
        config: JobsConfig,
        pool: WorkerPool,
        metrics: Any | None = None,
        serializer: Callable[[Any], dict[str, Any]] = analysis_payload,
        clock: Callable[[], float] | None = None,
        replicas: int = 1,
    ) -> None:
        self.config = config
        resumable = None
        if config.checkpoint_dir and config.resume_on_start:
            directory = config.checkpoint_dir

            def resumable(job_id: str) -> bool:
                return has_spool(directory, job_id)

        store_kwargs: dict[str, Any] = {
            "capacity": config.max_jobs,
            "ttl_seconds": config.result_ttl_seconds,
            "resumable": resumable,
        }
        if config.store_dir:
            store_kwargs["backend"] = SharedDirectoryBackend(
                config.store_dir, shared=replicas > 1
            )
        if clock is not None:
            store_kwargs["clock"] = clock
        self.store = JobStore(**store_kwargs)
        # This replica's identity on claim markers in the shared store.
        self.owner = f"{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self._drain_thread: threading.Thread | None = None
        self._drain_stop = threading.Event()
        self.claimed_count = 0  # jobs this replica claimed from the queue
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            cooldown_seconds=config.breaker_cooldown_seconds,
        )
        self.workers = JobWorkerPool(
            pool,
            self.store,
            metrics=metrics,
            serializer=serializer,
            breaker=self.breaker,
        )
        self.watchdog = Watchdog(
            self.workers,
            deadline_seconds=config.job_deadline_seconds,
            interval_seconds=config.watchdog_interval_seconds,
        )
        self.watchdog.start()
        # job id -> FrameQueue for streaming jobs; pruned lazily once
        # the job is terminal (its queue is closed by the worker).
        self._streams: dict[str, FrameQueue] = {}
        self._streams_lock = threading.Lock()
        # Next spool chunk index per streaming job (seeded from disk
        # on recovery so resumed streams append, never overwrite).
        self._chunk_counts: dict[str, int] = {}

    def close(self) -> None:
        """Stop background machinery (watchdog + shared-queue drain)."""
        self._drain_stop.set()
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=5)
            self._drain_thread = None
        self.watchdog.stop()

    # ------------------------------------------------------------------
    # Crash-safety helpers
    # ------------------------------------------------------------------
    def _checkpointer(self, job_id: str, config_hash: str) -> JobCheckpointer | None:
        if not self.config.checkpoint_dir:
            return None
        return JobCheckpointer(self.config.checkpoint_dir, job_id, config_hash)

    @staticmethod
    def _analyzer_config_dict(analyzer: Any) -> dict[str, Any] | None:
        """The analyzer's resolved config as a dict, when it has one."""
        config = getattr(analyzer, "config", None)
        to_dict = getattr(config, "to_dict", None)
        return to_dict() if callable(to_dict) else None

    def _spool_submission(
        self,
        job_id: str,
        mode: str,
        analyzer: Any,
        annotation: Any,
        seed: int,
        frames: Any = None,
    ) -> None:
        """Persist a submission's inputs (only with a checkpoint_dir)."""
        if not self.config.checkpoint_dir:
            return
        spool_input(
            self.config.checkpoint_dir,
            job_id,
            mode=mode,
            seed=seed,
            config=self._analyzer_config_dict(analyzer),
            annotation=(
                None if annotation is None else annotation_to_dict(annotation)
            ),
            frames=frames,
        )

    # ------------------------------------------------------------------
    def submit_analysis(
        self,
        analyzer: Any,
        video: Any,
        annotation: Any = None,
        seed: int = 0,
        digest: str = "",
        config_hash: str = "",
    ) -> dict[str, Any]:
        """Admit one job and queue it; returns the submitted payload.

        Raises :class:`JobQueueFull` when ``max_queued`` non-terminal
        jobs already exist — the job is *not* created, so a rejected
        submission leaves no trace.
        """
        if self.store.pending_count() >= self.config.max_queued:
            raise JobQueueFull(
                f"{self.config.max_queued} jobs already queued or running; "
                "retry later"
            )
        self.breaker.check(config_hash)
        payload = self.store.create(
            digest or "0" * 10, seed=seed, config_hash=config_hash
        )
        self._spool_submission(
            payload["id"],
            "batch",
            analyzer,
            annotation,
            seed,
            frames=getattr(video, "frames", None),
        )
        if self.store.shared:
            # Shared store: the submission is published to the queue
            # and *any* replica (possibly this one, via its drain loop)
            # claims and runs it from the input spool.
            self.store.enqueue(payload["id"])
            return payload
        self.workers.submit(
            payload["id"],
            analyzer,
            video,
            annotation=annotation,
            seed=seed,
            checkpointer=self._checkpointer(payload["id"], config_hash),
        )
        return payload

    # ------------------------------------------------------------------
    # Streaming jobs
    # ------------------------------------------------------------------
    def submit_stream(
        self,
        analyzer: Any,
        annotation: Any = None,
        seed: int = 0,
        digest: str = "",
        config_hash: str = "",
    ) -> dict[str, Any]:
        """Admit one streaming job; frames arrive via :meth:`push_frames`.

        Same :class:`JobQueueFull` admission rule as
        :meth:`submit_analysis`.  The worker starts immediately and
        waits on the job's bounded frame queue; a producer that never
        sends ``eof`` fails the job after the configured idle timeout.
        """
        if self.store.pending_count() >= self.config.max_queued:
            raise JobQueueFull(
                f"{self.config.max_queued} jobs already queued or running; "
                "retry later"
            )
        self.breaker.check(config_hash)
        payload = self.store.create(
            digest or "0" * 10,
            seed=seed,
            config_hash=config_hash,
            mode="stream",
        )
        if self.store.shared:
            # Streams always run on the replica holding the HTTP
            # connection (the frame queue lives here), so adopt the
            # record immediately instead of publishing it for claims.
            self.store.adopt(payload["id"])
        self._spool_submission(payload["id"], "stream", analyzer, annotation, seed)
        queue = FrameQueue(self.config.stream_queue_frames)
        with self._streams_lock:
            self._prune_streams_locked()
            self._streams[payload["id"]] = queue
        self.workers.submit_stream(
            payload["id"],
            analyzer,
            queue,
            annotation=annotation,
            seed=seed,
            idle_timeout=self.config.stream_idle_timeout_seconds,
            checkpointer=self._checkpointer(payload["id"], config_hash),
        )
        return payload

    def _prune_streams_locked(self) -> None:
        for job_id in list(self._streams):
            payload = self.store.payload(job_id)
            if payload is None or payload["state"] in JobState.TERMINAL:
                del self._streams[job_id]

    def stream_queue(self, job_id: str) -> FrameQueue | None:
        """The live frame queue of one streaming job, if any."""
        with self._streams_lock:
            return self._streams.get(job_id)

    def push_frames(self, job_id: str, frames: list) -> dict[str, Any]:
        """Append frames to a streaming job's queue.

        Raises :class:`~repro.jobs.stream.FrameQueueFull` at capacity
        (HTTP 429) and :class:`~repro.errors.StreamError` when the
        stream is closed or unknown (HTTP 409).
        """
        queue = self.stream_queue(job_id)
        if queue is None:
            raise StreamError(f"job {job_id!r} has no open stream")
        queued = queue.put(frames)
        self._spool_chunk(job_id, frames)
        total = self.store.record_frames(job_id, len(frames))
        return {"queued": queued, "frames_received": total}

    def _spool_chunk(self, job_id: str, frames: list) -> None:
        """Persist one accepted frame chunk (only with a checkpoint_dir).

        Spooled *after* ``queue.put`` succeeds so the spool never holds
        frames the stream rejected, and the chunk sequence mirrors the
        accepted-frame sequence exactly.
        """
        if not self.config.checkpoint_dir:
            return
        with self._streams_lock:
            index = self._chunk_counts.get(job_id)
            if index is None:
                index = stream_chunk_count(self.config.checkpoint_dir, job_id)
            self._chunk_counts[job_id] = index + 1
        spool_stream_chunk(self.config.checkpoint_dir, job_id, index, frames)

    def eof(self, job_id: str) -> None:
        """Signal end-of-frames; the worker finishes and scores the job."""
        queue = self.stream_queue(job_id)
        if queue is None:
            raise StreamError(f"job {job_id!r} has no open stream")
        if queue.closed:
            raise StreamError(f"job {job_id!r} already received eof")
        if self.config.checkpoint_dir:
            spool_stream_eof(self.config.checkpoint_dir, job_id)
        queue.close()
        self.store.mark_eof(job_id)

    def open_streams(self) -> int:
        """Streaming jobs whose frame queue is still registered."""
        with self._streams_lock:
            self._prune_streams_locked()
            return len(self._streams)

    # ------------------------------------------------------------------
    def payload(
        self, job_id: str, include_result: bool = False
    ) -> dict[str, Any] | None:
        """One job's status payload (``None`` when unknown/expired)."""
        return self.store.payload(job_id, include_result=include_result)

    def is_expired(self, job_id: str) -> bool:
        """Whether the job existed but aged out of the store."""
        return self.store.is_expired(job_id)

    def cancel(self, job_id: str) -> str | None:
        """Request cancellation; see :meth:`JobStore.request_cancel`.

        For streaming jobs the frame queue is closed *after* the token
        trips, so a worker woken by the close observes the cancel
        before it can finish the analysis.
        """
        outcome = self.store.request_cancel(job_id)
        if outcome == "cancelling":
            self.workers.cancel(job_id)
        if outcome in ("cancelling", "cancelled"):
            queue = self.stream_queue(job_id)
            if queue is not None:
                queue.close()
        return outcome

    def list_payload(
        self, limit: int = 50, state: str | None = None
    ) -> list[dict[str, Any]]:
        """Newest-first bounded job listing."""
        return self.store.list_payload(limit=limit, state=state)

    # ------------------------------------------------------------------
    # Restart recovery
    # ------------------------------------------------------------------
    def recover(self, analyzer_factory: Callable[[dict[str, Any] | None], Any]) -> list[str]:
        """Re-submit jobs the store restored as resumable.

        ``analyzer_factory`` maps a spooled config dict (or ``None``)
        to an analyzer.  Batch jobs resume from their last completed
        stage checkpoint; streaming jobs get a fresh frame queue and
        replay their spooled chunks, so a reconnecting client can keep
        pushing from ``frames_received``.  Jobs whose spool turns out
        unreadable are failed cleanly as ``Interrupted`` rather than
        left queued forever.  Returns the re-submitted job ids.
        """
        directory = self.config.checkpoint_dir
        if not directory or not self.config.resume_on_start:
            return []
        recovered: list[str] = []
        for payload in self.store.queued_jobs():
            if not payload.get("resumed"):
                continue
            job_id = payload["id"]
            meta = load_input_meta(directory, job_id)
            if meta is None:
                self._fail_unrecoverable(job_id, "input spool unreadable")
                continue
            annotation = None
            if meta.get("annotation") is not None:
                from ..serialization import annotation_from_dict

                annotation = annotation_from_dict(meta["annotation"])
            seed = int(meta.get("seed", 0))
            analyzer = analyzer_factory(meta.get("config"))
            checkpointer = self._checkpointer(
                job_id, payload.get("config_hash", "")
            )
            if meta.get("mode") == "stream":
                frames, eof = load_stream_spool(directory, job_id)
                queue = FrameQueue(self.config.stream_queue_frames)
                if eof:
                    queue.close()
                with self._streams_lock:
                    self._streams[job_id] = queue
                    self._chunk_counts[job_id] = stream_chunk_count(
                        directory, job_id
                    )
                self.workers.submit_stream(
                    job_id,
                    analyzer,
                    queue,
                    annotation=annotation,
                    seed=seed,
                    idle_timeout=self.config.stream_idle_timeout_seconds,
                    checkpointer=checkpointer,
                    replay=frames,
                    replay_eof=eof,
                )
            else:
                frames_array = load_input_frames(directory, job_id)
                if frames_array is None:
                    self._fail_unrecoverable(job_id, "frame spool unreadable")
                    continue
                from ..video.sequence import VideoSequence

                self.workers.submit(
                    job_id,
                    analyzer,
                    VideoSequence(frames_array),
                    annotation=annotation,
                    seed=seed,
                    checkpointer=checkpointer,
                )
            recovered.append(job_id)
        return recovered

    # ------------------------------------------------------------------
    # Shared-queue draining (store_dir with more than one replica)
    # ------------------------------------------------------------------
    def start_drain(
        self, analyzer_factory: Callable[[dict[str, Any] | None], Any]
    ) -> bool:
        """Start claiming queued jobs from the shared store.

        No-op (returns False) without a shared backend.  The loop polls
        ``claim_next`` every ``store_drain_interval_seconds``; each
        claimed job is rebuilt from its input spool — exactly the
        :meth:`recover` reconstruction — and handed to this replica's
        worker pool.
        """
        if not self.store.shared or self._drain_thread is not None:
            return False
        self._drain_stop.clear()
        self._drain_thread = threading.Thread(
            target=self._drain_loop,
            args=(analyzer_factory,),
            name="slj-job-drain",
            daemon=True,
        )
        self._drain_thread.start()
        return True

    def _drain_loop(
        self, analyzer_factory: Callable[[dict[str, Any] | None], Any]
    ) -> None:
        while not self._drain_stop.is_set():
            claimed = self.drain_once(analyzer_factory)
            if not claimed:
                self._drain_stop.wait(self.config.store_drain_interval_seconds)

    def drain_once(
        self, analyzer_factory: Callable[[dict[str, Any] | None], Any]
    ) -> str | None:
        """Claim and start at most one queued job; returns its id.

        Exposed separately from the background loop so tests (and
        synchronous drains) can step the queue deterministically.
        """
        job_id = self.store.claim_next(self.owner)
        if job_id is None:
            return None
        self.claimed_count += 1
        payload = self.store.adopt(job_id)
        if payload is None:
            return None
        if payload["state"] != JobState.SUBMITTED or payload["cancel_requested"]:
            # Cancelled (or otherwise resolved) while queued — the
            # claim is consumed but nothing runs.
            return None
        directory = self.config.checkpoint_dir
        meta = load_input_meta(directory, job_id) if directory else None
        if meta is None:
            self._fail_unrecoverable(job_id, "input spool unreadable")
            return None
        frames_array = load_input_frames(directory, job_id)
        if frames_array is None:
            self._fail_unrecoverable(job_id, "frame spool unreadable")
            return None
        annotation = None
        if meta.get("annotation") is not None:
            from ..serialization import annotation_from_dict

            annotation = annotation_from_dict(meta["annotation"])
        from ..video.sequence import VideoSequence

        self.workers.submit(
            job_id,
            analyzer_factory(meta.get("config")),
            VideoSequence(frames_array),
            annotation=annotation,
            seed=int(meta.get("seed", 0)),
            checkpointer=self._checkpointer(
                job_id, payload.get("config_hash", "")
            ),
        )
        return job_id

    def _fail_unrecoverable(self, job_id: str, reason: str) -> None:
        self.store.mark_running(job_id)
        self.store.finish(
            job_id,
            JobState.FAILED,
            error={
                "type": "Interrupted",
                "message": f"job could not be resumed after restart: {reason}",
            },
        )

    def stats(self) -> dict[str, Any]:
        """Job counters for ``/metrics``."""
        stats = self.store.stats()
        stats["enabled"] = self.config.enabled
        stats["max_queued"] = self.config.max_queued
        stats["backend"] = "shared_directory" if self.store.shared else "single"
        stats["claimed"] = self.claimed_count
        stats["open_streams"] = self.open_streams()
        stats["watchdog_timeouts"] = self.workers.watchdog_timeouts
        stats["breaker"] = self.breaker.snapshot()
        return stats
