"""Crash-safe job state: input spools and per-stage checkpoints.

Two kinds of on-disk state live under one per-job directory
(``<checkpoint_dir>/<job_id>/``):

* an **input spool** written at submit time (``input.npz`` +
  ``meta.json`` for batch jobs; a ``frames/chunk_*.npy`` sequence plus
  an ``eof`` marker for streaming jobs).  The :class:`~repro.jobs.store.JobStore`
  records only carry job *metadata* — without the spool a restarted
  process has nothing to re-run, which is why jobs without one still
  fail as ``Interrupted`` on restart.

* a **stage checkpoint** written by :class:`JobCheckpointer` at every
  :class:`~repro.runtime.PipelineRunner` stage boundary.  On restart a
  resumed job replays from the last completed stage instead of from
  frame zero.

Checkpoint format (documented in ``docs/robustness.md``): the commit
marker is ``checkpoint.json`` — scalars, the serialised annotation,
per-frame health and the numpy bit-generator state — next to a
``checkpoint.npz`` holding the bulky arrays (person-mask stack,
background, candidate masks, pose/record genes).  Both go through
:func:`~repro.resilience.atomic.atomic_write` (arrays first, JSON
last), so a crash or power loss mid-write leaves the previous
checkpoint intact, never a torn one.

Fidelity contract: silhouette *intermediates* (Fig. 2 a–d working
masks) are not preserved across a resume — they are reproducible and
appear in no wire payload — so a restored
:class:`~repro.segmentation.pipeline.FrameSegmentation` carries the
final person mask in all foreground slots and an empty shadow mask.
Every payload-bearing artifact (poses, events, report, measurement,
annotation, health, config hash) round-trips exactly; with the rng
bit-generator state restored, stages re-run after the checkpoint draw
the same random stream, making the resumed report byte-identical to
the uninterrupted run (``trace`` timings aside).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ReproError
from ..serialization import annotation_from_dict, annotation_to_dict
from .atomic import atomic_write

#: Stages worth checkpointing, in pipeline order.  The tail stages
#: (smoothing/events/scoring/measurement) run in milliseconds — a
#: checkpoint there would cost more than it saves.
CHECKPOINT_STAGES = ("segmentation", "annotation", "tracking")

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True, slots=True)
class StageCheckpoint:
    """One restored checkpoint: where to resume and with what."""

    stage: str
    config_hash: str
    value: Any  # the stage-boundary pipeline value
    artifacts: dict[str, Any]  # context artifacts to re-seed
    rng_state: dict[str, Any] | None  # numpy bit-generator state


def _segmentation_from_person(
    person: np.ndarray, candidates: tuple[np.ndarray, ...]
):
    """Rebuild a FrameSegmentation from its payload-bearing masks."""
    from ..segmentation.pipeline import FrameSegmentation

    person = person.astype(bool)
    return FrameSegmentation(
        raw_foreground=person,
        after_noise_removal=person,
        after_spot_removal=person,
        after_hole_fill=person,
        detected_shadow=np.zeros_like(person),
        person=person,
        candidates=candidates,
    )


def _health_to_dicts(health) -> list[dict[str, Any]]:
    return [entry.to_dict() for entry in health]


def _health_from_dicts(entries) -> tuple:
    from ..ga.temporal import FrameHealth

    return tuple(
        FrameHealth(
            frame_index=int(entry["frame"]),
            status=str(entry["status"]),
            reason=str(entry.get("reason", "")),
            recovery=entry.get("recovery"),
            fitness=(
                None if entry.get("fitness") is None else float(entry["fitness"])
            ),
        )
        for entry in entries
    )


class JobCheckpointer:
    """Persist/restore one job's pipeline state at stage boundaries.

    Instances are handed to :meth:`PipelineRunner.run` as the
    ``checkpoint`` hook (they are callable) and queried by the worker
    on restart through :meth:`load`.  All writes are atomic; a failed
    write degrades the run (counted, evented) rather than failing it —
    the runner wraps the call accordingly.

    Multi-actor runs (``tracking.enabled``) checkpoint through
    ``annotation`` only: the per-track analyses built inside the
    tracking stage have no wire codec yet, so tracking re-runs on
    resume (deterministic under the restored rng state).
    """

    def __init__(
        self, directory: str | Path, job_id: str, config_hash: str
    ) -> None:
        self._dir = Path(directory) / job_id
        self._job_id = job_id
        self._config_hash = config_hash
        self.writes = 0  # stages persisted by this instance
        self._multi = False

    @property
    def directory(self) -> Path:
        """This job's spool/checkpoint directory."""
        return self._dir

    def set_multi_actor(self, multi: bool) -> None:
        """Skip the tracking checkpoint for multi-actor runs."""
        self._multi = bool(multi)

    # ------------------------------------------------------------------
    # Writing (the PipelineRunner `checkpoint` hook)
    # ------------------------------------------------------------------
    def __call__(self, stage: str, value: Any, context) -> None:
        if stage not in CHECKPOINT_STAGES:
            return
        if stage == "tracking" and self._multi:
            return
        arrays: dict[str, np.ndarray] = {}
        meta: dict[str, Any] = {
            "version": _CHECKPOINT_VERSION,
            "job_id": self._job_id,
            "config_hash": self._config_hash,
            "stage": stage,
        }

        segmentations = context.artifacts.get("segmentations", ())
        persons = [seg.person for seg in segmentations]
        arrays["persons"] = np.stack(persons) if persons else np.zeros((0, 0, 0), bool)
        arrays["background"] = np.asarray(context.artifacts.get("background"))
        counts = [len(seg.candidates) for seg in segmentations]
        arrays["candidate_counts"] = np.asarray(counts, dtype=np.int64)
        flat = [c for seg in segmentations for c in seg.candidates]
        arrays["candidates"] = (
            np.stack(flat) if flat else np.zeros((0, 0, 0), bool)
        )

        annotation = context.artifacts.get("annotation")
        meta["annotation"] = (
            None if annotation is None else annotation_to_dict(annotation)
        )

        rng = context.artifacts.get("rng")
        meta["rng_state"] = (
            None if rng is None else _jsonable(rng.bit_generator.state)
        )

        if stage == "tracking":
            tracking = context.artifacts["tracking"]
            arrays["poses_genes"] = np.stack(
                [pose.to_genes() for pose in tracking.poses]
            )
            arrays["record_frames"] = np.asarray(
                [record.frame_index for record in tracking.records],
                dtype=np.int64,
            )
            arrays["record_genes"] = (
                np.stack([r.pose.to_genes() for r in tracking.records])
                if tracking.records
                else np.zeros((0, 0))
            )
            arrays["record_fitness"] = np.asarray(
                [record.fitness for record in tracking.records], dtype=float
            )
            meta["health"] = _health_to_dicts(tracking.health)

        self._dir.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self._dir / "checkpoint.npz",
            lambda handle: np.savez_compressed(handle, **arrays),
        )
        atomic_write(self._dir / "checkpoint.json", json.dumps(meta).encode())
        self.writes += 1

    # ------------------------------------------------------------------
    # Restoring
    # ------------------------------------------------------------------
    def load(self) -> StageCheckpoint | None:
        """The last committed checkpoint, or None (missing/mismatched).

        A checkpoint written under a different config hash is ignored:
        resuming stage k of config A under config B would silently mix
        pipelines.
        """
        marker = self._dir / "checkpoint.json"
        arrays_path = self._dir / "checkpoint.npz"
        if not marker.exists() or not arrays_path.exists():
            return None
        try:
            meta = json.loads(marker.read_text())
        except (OSError, ValueError):
            return None
        if meta.get("version") != _CHECKPOINT_VERSION:
            return None
        if meta.get("config_hash") != self._config_hash:
            return None
        stage = meta.get("stage")
        if stage not in CHECKPOINT_STAGES:
            return None
        try:
            return self._restore(stage, meta, arrays_path)
        except (OSError, ValueError, KeyError, ReproError):
            # A torn or stale checkpoint falls back to a clean re-run.
            return None

    def _restore(
        self, stage: str, meta: dict[str, Any], arrays_path: Path
    ) -> StageCheckpoint:
        from ..model.pose import StickPose

        with np.load(arrays_path) as archive:
            persons = archive["persons"].astype(bool)
            background = archive["background"]
            counts = archive["candidate_counts"].astype(int)
            flat_candidates = archive["candidates"].astype(bool)
            extra = {
                key: archive[key]
                for key in (
                    "poses_genes",
                    "record_frames",
                    "record_genes",
                    "record_fitness",
                )
                if key in archive.files
            }

        segmentations = []
        cursor = 0
        for index in range(persons.shape[0]):
            count = int(counts[index]) if index < len(counts) else 0
            candidates = tuple(
                flat_candidates[cursor + offset] for offset in range(count)
            )
            cursor += count
            segmentations.append(
                _segmentation_from_person(persons[index], candidates)
            )

        artifacts: dict[str, Any] = {
            "segmentations": tuple(segmentations),
            "background": background,
        }
        annotation = meta.get("annotation")
        if annotation is not None:
            artifacts["annotation"] = annotation_from_dict(annotation)
        value: Any = [seg.person for seg in segmentations]

        if stage == "tracking":
            tracking = self._restore_tracking(meta, extra, StickPose)
            artifacts["tracking"] = tracking
            value = tracking.poses

        return StageCheckpoint(
            stage=stage,
            config_hash=str(meta["config_hash"]),
            value=value,
            artifacts=artifacts,
            rng_state=meta.get("rng_state"),
        )

    @staticmethod
    def _restore_tracking(meta, extra, StickPose):
        """Rebuild a TrackingResult from its checkpointed arrays.

        Search histories are not preserved (they feed no payload);
        each record's SearchResult is reduced to its best genes and
        fitness.
        """
        from ..ga.convergence import SearchResult
        from ..ga.temporal import FrameTrackingRecord, TrackingResult

        poses = tuple(
            StickPose.from_genes(genes) for genes in extra["poses_genes"]
        )
        records = tuple(
            FrameTrackingRecord(
                frame_index=int(frame),
                pose=StickPose.from_genes(genes),
                fitness=float(fitness),
                search=SearchResult(
                    best_genes=np.asarray(genes, dtype=float),
                    best_fitness=float(fitness),
                ),
            )
            for frame, genes, fitness in zip(
                extra["record_frames"],
                extra["record_genes"],
                extra["record_fitness"],
            )
        )
        health = _health_from_dicts(meta.get("health", []))
        return TrackingResult(poses=poses, records=records, health=health)

    def clear(self) -> None:
        """Delete this job's checkpoint files (terminal job)."""
        for name in ("checkpoint.json", "checkpoint.npz"):
            try:
                (self._dir / name).unlink()
            except OSError:
                pass


def _jsonable(value: Any) -> Any:
    """numpy bit-generator state → plain JSON types (ints stay exact)."""
    if isinstance(value, dict):
        return {key: _jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(entry) for entry in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(entry) for entry in value.tolist()]
    return value


def restore_rng(rng: np.random.Generator, state: dict[str, Any] | None) -> None:
    """Load a checkpointed bit-generator state into ``rng`` (if any)."""
    if state is not None:
        rng.bit_generator.state = state


# ----------------------------------------------------------------------
# Input spools: what a restarted process re-runs a job *from*.
# ----------------------------------------------------------------------
def spool_input(
    directory: str | Path,
    job_id: str,
    *,
    mode: str,
    seed: int,
    config: dict[str, Any] | None,
    annotation: dict[str, Any] | None,
    frames: np.ndarray | None = None,
) -> Path:
    """Persist a job's inputs so a restart can re-submit it.

    Batch jobs spool their whole video (``input.npz``); streaming jobs
    spool only ``meta.json`` here and accumulate frame chunks through
    :func:`spool_stream_chunk` as they arrive.
    """
    job_dir = Path(directory) / job_id
    job_dir.mkdir(parents=True, exist_ok=True)
    if frames is not None:
        atomic_write(
            job_dir / "input.npz",
            lambda handle: np.savez_compressed(handle, frames=np.asarray(frames)),
        )
    meta = {
        "mode": mode,
        "seed": int(seed),
        "config": config,
        "annotation": annotation,
    }
    atomic_write(job_dir / "meta.json", json.dumps(meta).encode())
    return job_dir


def load_input_meta(directory: str | Path, job_id: str) -> dict[str, Any] | None:
    """The spooled submit-time metadata, or None when never spooled."""
    path = Path(directory) / job_id / "meta.json"
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def load_input_frames(directory: str | Path, job_id: str) -> np.ndarray | None:
    """The spooled batch video, or None."""
    path = Path(directory) / job_id / "input.npz"
    if not path.exists():
        return None
    with np.load(path) as archive:
        return archive["frames"]


def spool_stream_chunk(
    directory: str | Path, job_id: str, index: int, frames: np.ndarray
) -> None:
    """Append one pushed frame chunk to a streaming job's spool."""
    chunk_dir = Path(directory) / job_id / "frames"
    chunk_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(
        chunk_dir / f"chunk_{index:06d}.npy",
        lambda handle: np.save(handle, np.asarray(frames)),
    )


def spool_stream_eof(directory: str | Path, job_id: str) -> None:
    """Record that the client already sent eof (marker file)."""
    job_dir = Path(directory) / job_id
    job_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(job_dir / "eof", b"")


def load_stream_spool(
    directory: str | Path, job_id: str
) -> tuple[list[np.ndarray], bool]:
    """Replay a streaming job's spool: (frames in push order, eof?).

    The received-frame count and the background-model state are both
    implied by the replay — feeding the same frames through the same
    (deterministic) streaming analyzer reconstructs the model exactly.
    """
    job_dir = Path(directory) / job_id
    frames: list[np.ndarray] = []
    chunk_dir = job_dir / "frames"
    if chunk_dir.is_dir():
        for path in sorted(chunk_dir.glob("chunk_*.npy")):
            chunk = np.load(path)
            frames.extend(np.asarray(frame) for frame in chunk)
    return frames, (job_dir / "eof").exists()


def stream_chunk_count(directory: str | Path, job_id: str) -> int:
    """How many chunks are already spooled (next chunk index)."""
    chunk_dir = Path(directory) / job_id / "frames"
    if not chunk_dir.is_dir():
        return 0
    return len(list(chunk_dir.glob("chunk_*.npy")))


def has_spool(directory: str | Path, job_id: str) -> bool:
    """True when the job's inputs were spooled (it is resumable)."""
    return (Path(directory) / job_id / "meta.json").exists()


def clear_spool(directory: str | Path, job_id: str) -> None:
    """Delete a terminal job's spool directory entirely."""
    import shutil

    shutil.rmtree(Path(directory) / job_id, ignore_errors=True)
