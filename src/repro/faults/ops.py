"""Process-level chaos: kill, restart, wedge, drain, trip — and survive.

Where :mod:`repro.faults.chaos` corrupts *inputs* and *stages*,
this module attacks the *operational* layer built in
:mod:`repro.resilience`: a worker dying mid-job, a service restarting
mid-stream, a worker wedging past the watchdog, a drain under load and
a circuit breaker tripping and recovering.  Each scenario is an
in-process simulation of the corresponding process-level failure
(crash points are simulated at exactly the state a killed process
leaves behind: persisted store + input spool + stage checkpoints), so
the sweep is deterministic and runs in CI without orchestrating real
processes.

The gate is stricter than survival alone: every scenario also asserts
**zero leaked pool slots** — after the dust settles the worker pool
must report no outstanding reclaimed slots and no in-flight work.
``slj chaos --ops`` wraps :func:`run_ops_chaos` and fails the build
when the survival rate drops below ``--min-survival``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..errors import CircuitOpen, ReproError
from ..jobs import JobManager, JobsConfig, JobStore, SharedDirectoryBackend
from ..perf.pool import WorkerPool
from ..resilience import JobCheckpointer, spool_input
from ..serialization import annotation_to_dict

#: Scenario names, in sweep order.
OPS_FAULT_KINDS: tuple[str, ...] = (
    "kill_worker_mid_job",
    "restart_service_mid_stream",
    "wedge_worker_past_watchdog",
    "drain_under_load",
    "breaker_trip_recover",
)


class _SimulatedKill(BaseException):
    """Raised from inside a pipeline to model SIGKILL.

    A ``BaseException`` on purpose: it must tunnel through the
    pipeline's ``except Exception`` recovery layers exactly like a real
    kill signal tears through them, leaving the on-disk state (store
    records, spool, checkpoints) as the only witness.
    """


class _KillingCheckpointer:
    """Checkpointer wrapper that "kills the process" after one stage.

    Delegates everything to the real :class:`JobCheckpointer`, then
    raises :class:`_SimulatedKill` right after the configured stage's
    checkpoint hits disk — the exact instant a crash is most
    interesting (state persisted, job unfinished).
    """

    def __init__(self, inner: JobCheckpointer, kill_after: str) -> None:
        self._inner = inner
        self._kill_after = kill_after

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __call__(self, stage: str, value: Any, context: Any) -> None:
        self._inner(stage, value, context)
        if stage == self._kill_after:
            raise _SimulatedKill(f"simulated kill after {stage!r}")


@dataclass(frozen=True, slots=True)
class OpsFaultOutcome:
    """What one operational fault did to the lifecycle machinery."""

    name: str
    survived: bool
    detail: str = ""
    error_type: str = ""
    error: str = ""
    leaked_slots: int = 0
    elapsed_seconds: float = 0.0

    @property
    def verdict(self) -> str:
        """``ok`` / ``leaked`` / ``failed`` for display."""
        if not self.survived:
            return "failed"
        return "leaked" if self.leaked_slots else "ok"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready record of this outcome."""
        return {
            "fault": self.name,
            "survived": self.survived,
            "verdict": self.verdict,
            "detail": self.detail,
            "error_type": self.error_type,
            "error": self.error,
            "leaked_slots": self.leaked_slots,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


@dataclass(frozen=True, slots=True)
class OpsChaosReport:
    """Outcomes of one operational chaos sweep."""

    outcomes: tuple[OpsFaultOutcome, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def survival_rate(self) -> float:
        """Fraction of scenarios that survived *without leaks*."""
        if not self.outcomes:
            return 1.0
        good = sum(
            1 for o in self.outcomes if o.survived and not o.leaked_slots
        )
        return good / len(self.outcomes)

    def failures(self) -> tuple[OpsFaultOutcome, ...]:
        """Scenarios that failed outright or leaked slots."""
        return tuple(
            o for o in self.outcomes if not o.survived or o.leaked_slots
        )

    def render_table(self) -> str:
        """Fixed-width table of every outcome."""
        header = f"{'fault':<30} {'verdict':<10} {'detail'}"
        lines = [header, "-" * len(header)]
        for o in self.outcomes:
            detail = (
                f"{o.error_type}: {o.error}" if not o.survived else o.detail
            )
            if o.leaked_slots:
                detail = f"{o.leaked_slots} leaked slot(s); {detail}"
            lines.append(f"{o.name:<30} {o.verdict:<10} {detail}")
        lines.append(
            f"survival {self.survival_rate:.0%} "
            f"({len(self.outcomes) - len(self.failures())}/"
            f"{len(self.outcomes)})"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of the whole sweep."""
        return {
            "survival_rate": self.survival_rate,
            "num_faults": len(self.outcomes),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def _wait_for(predicate: Callable[[], bool], timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _terminal(manager: JobManager, job_id: str) -> bool:
    payload = manager.payload(job_id)
    return payload is not None and payload["state"] in (
        "succeeded",
        "failed",
        "cancelled",
    )


def _pool_leaks(pool: WorkerPool) -> int:
    """Outstanding reclaimed slots (a wedged zombie that never exited)."""
    return int(pool.stats().get("reclaimed", 0))


def _payload_sans_trace(payload: dict[str, Any]) -> dict[str, Any]:
    clean = dict(payload)
    clean.pop("trace", None)
    return clean


class _WedgedAnalyzer:
    """Blocks in ``analyze`` until released, ignoring cancellation."""

    def __init__(self) -> None:
        import threading

        self.release = threading.Event()
        self.entered = threading.Event()

    def analyze(self, video, **_kwargs) -> Any:  # noqa: ANN001
        self.entered.set()
        self.release.wait(60.0)
        raise ReproError("wedged analyzer released without a result")


class _FailingAnalyzer:
    """Always fails analysably (a 422-class error, feeds the breaker)."""

    def analyze(self, video, **_kwargs) -> Any:  # noqa: ANN001
        raise ReproError("injected stage failure")


class _QuickAnalyzer:
    """Succeeds instantly — fits under even a sub-second soft deadline."""

    def analyze(self, video, **_kwargs) -> dict[str, Any]:  # noqa: ANN001
        return {"ok": True}


def run_ops_chaos(
    video,
    annotation=None,
    config=None,
    seed: int = 0,
    state_root: str | None = None,
) -> OpsChaosReport:
    """Run every operational chaos scenario and collect the outcomes.

    ``video``/``annotation``/``config`` mirror :func:`run_chaos`;
    ``state_root`` (a scratch directory for store records, spools and
    checkpoints) defaults to a temp dir removed afterwards.  Scenario
    errors are recorded as non-survivals, never propagated.
    """
    owns_root = state_root is None
    root = Path(state_root or tempfile.mkdtemp(prefix="slj-ops-chaos-"))
    root.mkdir(parents=True, exist_ok=True)
    scenarios: tuple[tuple[str, Callable[..., OpsFaultOutcome]], ...] = (
        ("kill_worker_mid_job", _scenario_kill_mid_job),
        ("restart_service_mid_stream", _scenario_restart_mid_stream),
        ("wedge_worker_past_watchdog", _scenario_wedge_past_watchdog),
        ("drain_under_load", _scenario_drain_under_load),
        ("breaker_trip_recover", _scenario_breaker_trip_recover),
    )
    outcomes: list[OpsFaultOutcome] = []
    try:
        for name, scenario in scenarios:
            start = time.perf_counter()
            try:
                outcome = scenario(
                    video, annotation, config, seed, root / name
                )
            except Exception as exc:  # noqa: BLE001 — chaos records,
                # it does not crash; any escape IS the finding.
                outcome = OpsFaultOutcome(
                    name=name,
                    survived=False,
                    error_type=type(exc).__name__,
                    error=str(exc),
                    elapsed_seconds=time.perf_counter() - start,
                )
            else:
                outcome = replace(
                    outcome, elapsed_seconds=time.perf_counter() - start
                )
            outcomes.append(outcome)
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)
    return OpsChaosReport(tuple(outcomes))


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _scenario_kill_mid_job(
    video, annotation, config, seed: int, state: Path
) -> OpsFaultOutcome:
    """SIGKILL a worker right after a stage checkpoint; restart; resume.

    Phase 1 reproduces the on-disk state of a killed process: the job
    persisted as ``running``, its inputs spooled, and the pipeline torn
    down by :class:`_SimulatedKill` just after the segmentation
    checkpoint.  Phase 2 boots a fresh manager over the same state and
    asserts the job *resumes* and produces the same payload as an
    uninterrupted run (modulo the wall-clock trace).
    """
    from ..config import config_hash, config_to_dict
    from ..pipeline import JumpAnalyzer
    from ..serialization import analysis_payload

    state.mkdir(parents=True, exist_ok=True)
    store_dir = str(state / "store")
    checkpoints = str(state / "checkpoints")
    analyzer = JumpAnalyzer(config)
    resolved = config_to_dict(analyzer.config)
    resolved_hash = config_hash(resolved)

    # The reference: the same analysis, never interrupted.
    reference = _payload_sans_trace(
        analysis_payload(
            analyzer.analyze(
                video,
                annotation=annotation,
                rng=np.random.default_rng(seed),
            )
        )
    )

    # Phase 1: the doomed process.
    store = JobStore(backend=SharedDirectoryBackend(store_dir, shared=False))
    payload = store.create(
        JobStore.digest_of("ops-kill", str(seed), resolved_hash),
        seed=seed,
        config_hash=resolved_hash,
    )
    job_id = payload["id"]
    store.mark_running(job_id)
    spool_input(
        checkpoints,
        job_id,
        mode="batch",
        seed=seed,
        config=resolved,
        annotation=(
            None if annotation is None else annotation_to_dict(annotation)
        ),
        frames=video.frames,
    )
    checkpointer = _KillingCheckpointer(
        JobCheckpointer(checkpoints, job_id, resolved_hash),
        kill_after="segmentation",
    )
    try:
        analyzer.analyze(
            video,
            annotation=annotation,
            rng=np.random.default_rng(seed),
            checkpointer=checkpointer,
        )
    except _SimulatedKill:
        pass
    else:
        raise ReproError("simulated kill never fired")

    # Phase 2: the replacement process.
    pool = WorkerPool(2, thread_name_prefix="ops-kill")
    jobs_config = JobsConfig(store_dir=store_dir, checkpoint_dir=checkpoints)
    manager = JobManager(jobs_config, pool)
    try:
        recovered = manager.recover(lambda _cfg: JumpAnalyzer(config))
        if recovered != [job_id]:
            raise ReproError(
                f"expected to recover [{job_id!r}], got {recovered!r}"
            )
        if not _wait_for(lambda: _terminal(manager, job_id)):
            raise ReproError("recovered job never reached a terminal state")
        final = manager.payload(job_id, include_result=True)
        survived = (
            final is not None
            and final["state"] == "succeeded"
            and final.get("resumed") is True
            and _payload_sans_trace(final.get("result") or {}) == reference
        )
        detail = "resumed after kill; payload matches uninterrupted run"
        if not survived:
            detail = (
                f"state={final and final['state']}, "
                f"resumed={final and final.get('resumed')}, "
                f"payload_match="
                f"{final and _payload_sans_trace(final.get('result') or {}) == reference}"
            )
        return OpsFaultOutcome(
            name="kill_worker_mid_job",
            survived=survived,
            detail=detail,
            leaked_slots=_pool_leaks(pool),
        )
    finally:
        manager.close()
        pool.shutdown(wait=True)


def _scenario_restart_mid_stream(
    video, annotation, config, seed: int, state: Path
) -> OpsFaultOutcome:
    """Restart the service mid-stream; the client reconnects and finishes.

    Phase 1 leaves behind what a killed service holds for a half-fed
    stream: the job persisted as ``running``, its meta spooled and the
    first half of the frames spooled as chunks (no ``eof``).  Phase 2
    recovers — the worker replays the spool — then the "reconnecting
    client" pushes the second half and ``eof``, and the job must score.
    """
    from ..config import config_hash, config_to_dict
    from ..pipeline import JumpAnalyzer
    from ..resilience import spool_stream_chunk

    state.mkdir(parents=True, exist_ok=True)
    store_dir = str(state / "store")
    checkpoints = str(state / "checkpoints")
    analyzer = JumpAnalyzer(config)
    resolved = config_to_dict(analyzer.config)
    resolved_hash = config_hash(resolved)

    frames = [video.frames[index] for index in range(len(video))]
    half = max(1, len(frames) // 2)

    # Phase 1: the killed service's leftovers.
    store = JobStore(backend=SharedDirectoryBackend(store_dir, shared=False))
    payload = store.create(
        JobStore.digest_of("ops-stream", str(seed), resolved_hash),
        seed=seed,
        config_hash=resolved_hash,
        mode="stream",
    )
    job_id = payload["id"]
    store.mark_running(job_id)
    spool_input(
        checkpoints,
        job_id,
        mode="stream",
        seed=seed,
        config=resolved,
        annotation=(
            None if annotation is None else annotation_to_dict(annotation)
        ),
    )
    for index, frame in enumerate(frames[:half]):
        spool_stream_chunk(checkpoints, job_id, index, [frame])
    store.record_frames(job_id, half)

    # Phase 2: restart, replay, reconnect, finish.
    pool = WorkerPool(2, thread_name_prefix="ops-stream")
    jobs_config = JobsConfig(
        store_dir=store_dir,
        checkpoint_dir=checkpoints,
        stream_idle_timeout_seconds=30.0,
    )
    manager = JobManager(jobs_config, pool)
    try:
        recovered = manager.recover(lambda _cfg: JumpAnalyzer(config))
        if recovered != [job_id]:
            raise ReproError(
                f"expected to recover [{job_id!r}], got {recovered!r}"
            )
        replayed = manager.payload(job_id)
        manager.push_frames(job_id, frames[half:])
        manager.eof(job_id)
        if not _wait_for(lambda: _terminal(manager, job_id)):
            raise ReproError("resumed stream never reached a terminal state")
        final = manager.payload(job_id, include_result=True)
        received = (final or {}).get("stream", {}).get("frames_received")
        survived = (
            final is not None
            and final["state"] == "succeeded"
            and final.get("resumed") is True
            and received == len(frames)
            and (final.get("result") or {}).get("report") is not None
        )
        detail = (
            f"replayed {half} spooled frames, client pushed "
            f"{len(frames) - half} more; report produced"
        )
        if not survived:
            detail = (
                f"state={final and final['state']}, received={received}, "
                f"resumed_payload={replayed and replayed.get('resumed')}"
            )
        return OpsFaultOutcome(
            name="restart_service_mid_stream",
            survived=survived,
            detail=detail,
            leaked_slots=_pool_leaks(pool),
        )
    finally:
        manager.close()
        pool.shutdown(wait=True)


def _scenario_wedge_past_watchdog(
    video, annotation, config, seed: int, state: Path
) -> OpsFaultOutcome:
    """A worker wedges; the watchdog fails the job and reclaims the slot.

    A single-slot pool is wedged by an analyzer that blocks and ignores
    cancellation.  Survival requires the watchdog to fail the job with
    a ``WatchdogTimeout``, a subsequent job to run on the reclaimed
    slot, and — once the zombie is released — the pool to return to its
    nominal size with zero outstanding reclaimed slots.
    """
    pool = WorkerPool(1, thread_name_prefix="ops-wedge")
    jobs_config = JobsConfig(
        job_deadline_seconds=0.2, watchdog_interval_seconds=0.05
    )
    # Stub analyzers (and a pass-through serializer): the scenario
    # exercises slot accounting, not the pipeline, and real analyses
    # would themselves overrun the deliberately tiny soft deadline.
    manager = JobManager(
        jobs_config, pool, serializer=lambda analysis: dict(analysis)
    )
    wedged = _WedgedAnalyzer()
    try:
        payload = manager.submit_analysis(wedged, video, seed=seed)
        job_id = payload["id"]
        if not wedged.entered.wait(10.0):
            raise ReproError("wedged analyzer never started")
        if not _wait_for(lambda: _terminal(manager, job_id), timeout=10.0):
            raise ReproError("watchdog never reaped the wedged job")
        final = manager.payload(job_id)
        error = (final or {}).get("error") or {}
        reaped = (
            final is not None
            and final["state"] == "failed"
            and error.get("type") == "WatchdogTimeout"
        )
        # The reclaimed slot must actually run new work while the
        # zombie still occupies the original one.
        follow_up = manager.submit_analysis(_QuickAnalyzer(), video, seed=seed)
        follow_up_done = _wait_for(
            lambda: _terminal(manager, follow_up["id"]), timeout=60.0
        )
        follow_up_ok = (
            follow_up_done
            and manager.payload(follow_up["id"])["state"] == "succeeded"
        )
        # Release the zombie; its exit must hand the extra slot back.
        wedged.release.set()
        slots_restored = _wait_for(
            lambda: _pool_leaks(pool) == 0, timeout=10.0
        )
        survived = bool(reaped and follow_up_ok and slots_restored)
        detail = (
            "watchdog reaped the wedged job; follow-up ran on the "
            "reclaimed slot; zombie exit restored the pool"
        )
        if not survived:
            detail = (
                f"reaped={reaped}, follow_up_ok={follow_up_ok}, "
                f"slots_restored={slots_restored}"
            )
        return OpsFaultOutcome(
            name="wedge_worker_past_watchdog",
            survived=survived,
            detail=detail,
            leaked_slots=_pool_leaks(pool),
        )
    finally:
        manager.close()
        pool.shutdown(wait=False, cancel_futures=True)


def _scenario_drain_under_load(
    video, annotation, config, seed: int, state: Path
) -> OpsFaultOutcome:
    """Drain with jobs in flight: they finish, new submissions get 503."""
    from ..client import RetryPolicy, ServiceClient, ServiceError
    from ..service import ServiceConfig, ServiceHandle

    state.mkdir(parents=True, exist_ok=True)
    service_config = ServiceConfig(
        drain_timeout_seconds=60.0,
        jobs=JobsConfig(
            store_dir=str(state / "store"),
            checkpoint_dir=str(state / "checkpoints"),
        ),
    )
    handle = ServiceHandle(config=config, service_config=service_config)
    handle.start()
    try:
        from ..pipeline import JumpAnalyzer

        manager = handle.jobs
        analyzer = JumpAnalyzer(config)
        submitted = [
            manager.submit_analysis(
                analyzer,
                video,
                annotation=annotation,
                seed=seed + index,
            )["id"]
            for index in range(3)
        ]
        drained = handle.drain()
        all_done = all(
            (manager.payload(job_id) or {}).get("state") == "succeeded"
            for job_id in submitted
        )
        # New work must be refused while draining — single-shot client,
        # otherwise its own 503 backoff would mask the refusal.
        client = ServiceClient(
            handle.address, retry_policy=RetryPolicy(max_retries=0)
        )
        refused = False
        try:
            client.submit_stream(seed=seed)
        except ServiceError as exc:
            refused = exc.status == 503 and exc.error_type == "draining"
        health = client.health()
        survived = bool(
            drained
            and all_done
            and refused
            and health.get("status") == "shutting_down"
        )
        detail = (
            f"{len(submitted)} in-flight jobs finished; new submission "
            "refused with 503 draining"
        )
        if not survived:
            detail = (
                f"drained={drained}, all_done={all_done}, "
                f"refused={refused}, health={health.get('status')}"
            )
        return OpsFaultOutcome(
            name="drain_under_load",
            survived=survived,
            detail=detail,
            leaked_slots=_pool_leaks(handle._server.pool),
        )
    finally:
        handle.stop()


def _scenario_breaker_trip_recover(
    video, annotation, config, seed: int, state: Path
) -> OpsFaultOutcome:
    """Repeated failures trip the breaker; a cooldown probe closes it."""
    from ..pipeline import JumpAnalyzer

    pool = WorkerPool(2, thread_name_prefix="ops-breaker")
    jobs_config = JobsConfig(
        breaker_threshold=2, breaker_cooldown_seconds=0.2
    )
    manager = JobManager(jobs_config, pool)
    key = "ops-breaker-config"
    try:
        for index in range(2):
            payload = manager.submit_analysis(
                _FailingAnalyzer(), video, seed=seed + index, config_hash=key
            )
            if not _wait_for(lambda: _terminal(manager, payload["id"])):
                raise ReproError("failing job never finished")
        tripped = False
        try:
            manager.submit_analysis(
                _FailingAnalyzer(), video, seed=seed, config_hash=key
            )
        except CircuitOpen as exc:
            tripped = exc.retry_after > 0
        time.sleep(0.25)  # past the cooldown: next submission is the probe
        probe = manager.submit_analysis(
            JumpAnalyzer(config),
            video,
            annotation=annotation,
            seed=seed,
            config_hash=key,
        )
        probe_ok = (
            _wait_for(lambda: _terminal(manager, probe["id"]), timeout=60.0)
            and manager.payload(probe["id"])["state"] == "succeeded"
        )
        # A healthy probe must close the circuit again.
        reopened = manager.submit_analysis(
            JumpAnalyzer(config),
            video,
            annotation=annotation,
            seed=seed + 7,
            config_hash=key,
        )
        closed = _wait_for(
            lambda: _terminal(manager, reopened["id"]), timeout=60.0
        )
        snapshot = manager.breaker.snapshot()
        survived = bool(
            tripped and probe_ok and closed and snapshot["trips"] >= 1
        )
        detail = (
            f"breaker tripped after 2 failures, probe closed it "
            f"(trips={snapshot['trips']})"
        )
        if not survived:
            detail = (
                f"tripped={tripped}, probe_ok={probe_ok}, closed={closed}, "
                f"snapshot={snapshot}"
            )
        return OpsFaultOutcome(
            name="breaker_trip_recover",
            survived=survived,
            detail=detail,
            leaked_slots=_pool_leaks(pool),
        )
    finally:
        manager.close()
        pool.shutdown(wait=True)
