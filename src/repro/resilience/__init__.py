"""Crash-safe lifecycle for the service and its jobs.

The analysis pipeline learned to degrade-not-die in PR 3; this package
gives the *process around it* the same property:

* :mod:`~repro.resilience.atomic` — :func:`atomic_write`, the one
  durable (fsync'd, atomically replaced) write path for job state;
* :mod:`~repro.resilience.checkpoint` — per-stage job checkpoints and
  input spools, so a restart resumes work instead of failing it;
* :mod:`~repro.resilience.drain` — graceful shutdown: refuse new work,
  finish in-flight jobs, persist the queue;
* :mod:`~repro.resilience.watchdog` — soft per-job deadlines that reap
  hung analyses and reclaim their pool slots;
* :mod:`~repro.resilience.breaker` — a per-config-hash circuit breaker
  that quarantines a failing configuration behind 503 + Retry-After.

Ops-level fault injection for all of the above lives in
:mod:`repro.faults.ops` (``slj chaos --ops``).
"""

from .atomic import atomic_write
from .breaker import CircuitBreaker
from .checkpoint import (
    CHECKPOINT_STAGES,
    JobCheckpointer,
    StageCheckpoint,
    clear_spool,
    has_spool,
    load_input_frames,
    load_input_meta,
    load_stream_spool,
    restore_rng,
    spool_input,
    spool_stream_chunk,
    spool_stream_eof,
    stream_chunk_count,
)
from .drain import ServiceLifecycle
from .watchdog import Watchdog

__all__ = [
    "CHECKPOINT_STAGES",
    "CircuitBreaker",
    "JobCheckpointer",
    "ServiceLifecycle",
    "StageCheckpoint",
    "Watchdog",
    "atomic_write",
    "clear_spool",
    "has_spool",
    "load_input_frames",
    "load_input_meta",
    "load_stream_spool",
    "restore_rng",
    "spool_input",
    "spool_stream_chunk",
    "spool_stream_eof",
    "stream_chunk_count",
]
