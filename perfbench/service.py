"""The served workload: ``service_mixed``.

``slj serve --state-dir <tmp>`` runs in its own process.  An open-loop
generator with two sender threads sends one request every
``1 / RATE`` seconds, whether or not earlier ones have finished, the way
independent teachers upload.  Requests alternate between a synchronous
``POST /v1/analyze`` and a job (``POST /v1/jobs``, poll, fetch the
result), both with the ``fast`` preset on 20-frame clips.  Each
latency runs from the request's due time, so a late sender is charged
to the requests it delayed.

Request bodies are encoded before the clock starts (the client-side
``encode_video`` of a 20-frame clip costs about half a second) and
``ServiceClient`` is handed the base64 string.

Before the clock, a job on the reference body (the clean standard
jump, request seed 0) warms the server up; the quality metrics are
judged on its result.  With ``--trace 1`` the server runs under
:mod:`traced_serve`, which installs the spans of every layer after two
analyses: the warm-up job and a sync request on the same body.  A
second sync request repeats the first under the spans and measures
their overhead.  The per-layer numbers are per traced analysis in the
server.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

import numpy as np

from common import (
    OUT,
    ROOT,
    SETUP_REPEATS,
    Outcome,
    metric,
    program_env,
    tail,
)
from library import FLAW_CYCLE, standard_jump
from quality import Truth, judge, jump_truth, quality_metrics
from tracer import Reduced, layer_metrics

#: Requests per second: about half the ~0.4 req/s two concurrent
#: requests sustain on a 2-core host, so requests rarely overlap.  At
#: 0.25 req/s a job overlapped the next request and the job latency
#: spread rose from 0.08-0.23 to 0.40 over ten seeds.
RATE = 0.22
SENDERS = 2
#: A request that takes longer than this (from its due time) misses.
SLO_SECONDS = 10.0
#: Distinct clips; requests cycle over them, each sent sync then as a job.
CLIPS = 2
PRESET = "fast"
POLL_SECONDS = 0.05
SERVER_START_TIMEOUT = 60.0

TRACED_SERVE = Path(__file__).resolve().parent / "traced_serve.py"


@dataclass
class Body:
    """One pre-encoded request: clip, annotation and request seed."""

    key: str
    video_b64: str
    annotation: dict[str, Any]
    seed: int
    frames: int
    truth: Truth


@dataclass
class Request:
    index: int
    kind: str  # "sync" | "job"
    body: Body
    due: float
    start: float = 0.0
    end: float = 0.0
    ok: bool = False
    error: str = ""
    refused: bool = False
    payload: dict[str, Any] = field(default_factory=dict)
    job: dict[str, Any] = field(default_factory=dict)
    submit_s: float = 0.0
    fetch_s: float = 0.0
    polls: int = 0

    @property
    def latency(self) -> float:
        return self.end - self.due


def digest(payload: dict[str, Any]) -> tuple:
    """What must agree between repeats and between sync and job paths."""
    events = payload["events"]
    return (
        payload["config_hash"],
        payload["report"]["score"],
        events["takeoff_frame"],
        events["landing_frame"],
        events["peak_frame"],
        events["ground_height"],
    )


def make_body(flaw: str | None, request_seed: int) -> Body:
    from repro import encode_video
    from repro.serialization import annotation_to_dict

    jump, annotation = standard_jump(flaw)
    return Body(
        key=f"{flaw or 'clean'}-rng{request_seed}",
        video_b64=encode_video(jump.video),
        annotation=annotation_to_dict(annotation),
        seed=request_seed,
        frames=len(jump.video),
        truth=jump_truth(jump),
    )


def make_bodies(seed: int) -> list[Body]:
    """The first clips of jump_paper's cycle; the seed sets request seeds."""
    return [
        make_body(flaw, 1000 * seed + index)
        for index, flaw in enumerate(FLAW_CYCLE[:CLIPS])
    ]


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.cli serve`` on a free port with a fresh state dir.

    With ``spans`` set, the server runs under ``traced_serve.py``, which
    writes its spans to that file when the server stops.
    """

    def __init__(self, spans: Path | None = None) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.state_dir = Path(tempfile.mkdtemp(prefix="state-", dir=OUT))
        self.log_path = self.state_dir.with_suffix(".log")
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.address = ""
        self.setup_s = 0.0

    def start(self) -> None:
        """Spawn and wait until ``/v1/health`` answers; time it."""
        from repro import ClientError, RetryPolicy, ServiceClient

        if self.spans is None:
            program = [sys.executable, "-m", "repro.cli"]
        else:
            program = [sys.executable, str(TRACED_SERVE), str(self.spans)]
        start = time.perf_counter()
        with self.log_path.open("w") as log:
            self.proc = subprocess.Popen(
                program
                + ["serve", "--port", "0", "--state-dir", str(self.state_dir)],
                cwd=ROOT,
                env=program_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        pattern = re.compile(r"service on (http://\S+)")
        while not self.address:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self.log_path.read_text()[-2000:]
                )
            if time.perf_counter() - start > SERVER_START_TIMEOUT:
                raise RuntimeError("server did not start in time")
            found = pattern.search(self.log_path.read_text())
            if found:
                self.address = found.group(1)
            else:
                time.sleep(0.01)
        client = ServiceClient(
            self.address, timeout=10.0, retry_policy=RetryPolicy(max_retries=0)
        )
        while True:
            try:
                client.health()
                break
            except ClientError:
                if time.perf_counter() - start > SERVER_START_TIMEOUT:
                    raise
                time.sleep(0.01)
        self.setup_s = time.perf_counter() - start

    def state_bytes(self) -> int:
        return sum(
            path.stat().st_size
            for path in self.state_dir.rglob("*")
            if path.is_file()
        )

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, then remove the state dir."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.log_path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def send(client: Any, request: Request) -> None:
    """Run one request to completion; fills in its outcome."""
    from repro import ServiceError

    body = request.body
    kwargs = dict(annotation=body.annotation, seed=body.seed, preset=PRESET)
    request.start = time.perf_counter()
    try:
        if request.kind == "sync":
            request.payload = client.analyze(body.video_b64, **kwargs)
        else:
            request.payload = run_job(client, request, kwargs)
        request.ok = True
    except ServiceError as exc:
        request.refused = exc.status in (429, 503)
        request.error = str(exc)
    except Exception as exc:  # recorded as a failed request
        traceback.print_exc()
        request.error = f"{type(exc).__name__}: {exc}"
    request.end = time.perf_counter()


def run_job(client: Any, request: Request, kwargs: dict) -> dict[str, Any]:
    """Submit, poll until terminal, fetch the result."""
    start = time.perf_counter()
    job_id = client.submit(request.body.video_b64, **kwargs)["id"]
    request.submit_s = time.perf_counter() - start
    while True:
        job = client.job(job_id)
        request.polls += 1
        if job["state"] in ("succeeded", "failed", "cancelled"):
            break
        time.sleep(POLL_SECONDS)
    request.job = job
    if job["state"] != "succeeded":
        raise RuntimeError(f"job {job_id} ended {job['state']}: {job.get('error')}")
    start = time.perf_counter()
    payload = client.result(job_id)
    request.fetch_s = time.perf_counter() - start
    return payload


def open_loop(client: Any, bodies: list[Body], seconds: float) -> list[Request]:
    """Send on schedule from ``SENDERS`` threads; wait for every request."""
    t0 = time.perf_counter() + 0.05
    # An even count: as many sync requests as jobs.
    count = 2 * max(1, int(np.ceil(seconds * RATE / 2)))
    requests = [
        Request(
            index=i,
            kind="sync" if i % 2 == 0 else "job",
            body=bodies[(i // 2) % len(bodies)],
            due=t0 + i / RATE,
        )
        for i in range(count)
    ]
    queue = iter(requests)
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                request = next(queue, None)
            if request is None:
                return
            delay = request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            send(client, request)

    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return requests


def warm_up(client: Any, body: Body, kinds: list[str]) -> list[Request]:
    """Requests on ``body`` one after another, outside the clock."""
    requests = []
    for index, kind in enumerate(kinds):
        request = Request(index=-1 - index, kind=kind, body=body, due=0.0)
        request.due = time.perf_counter()
        send(client, request)
        requests.append(request)
    return requests


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def check(
    requests: list[Request], references: dict[str, tuple], outcome: Outcome
) -> None:
    """Every request succeeded and agrees with its clip's reference."""
    for request in requests:
        outcome.attempted += 1
        if not request.ok:
            outcome.fail(f"{request.kind} #{request.index}: {request.error}")
            continue
        found = digest(request.payload)
        reference = references.setdefault(request.body.key, found)
        if found != reference:
            outcome.fail(
                f"{request.kind} #{request.index} on {request.body.key}: "
                f"{found} != {reference}"
            )


def path_notes(requests: list[Request], notes: dict[str, Any]) -> None:
    """Per-path latencies and service facts, for the summary line."""
    for name in ("sync", "job"):
        values = [r.latency for r in requests if r.ok and r.kind == name]
        if not values:
            continue
        value, percentile, beyond = tail(values)
        notes[f"{name}_p50_s"] = median(values)
        notes[f"{name}_tail_s"] = {
            "value": value,
            "percentile": round(percentile, 1),
            "samples": len(values),
            "beyond": beyond,
        }
    t0 = min(r.due for r in requests)
    finished = max(r.end for r in requests)
    notes["slo_ratio"] = sum(
        r.ok and r.latency <= SLO_SECONDS for r in requests
    ) / len(requests)
    notes["completed_per_s"] = sum(r.ok for r in requests) / (finished - t0)
    notes["generator_lag_s"] = max(r.start - r.due for r in requests)
    notes["service.refused"] = sum(r.refused for r in requests)
    notes["service.errors"] = sum(not r.ok and not r.refused for r in requests)
    jobs = [r for r in requests if r.ok and r.kind == "job"]
    if jobs:
        notes["service.submit_s"] = median([r.submit_s for r in jobs])
        notes["jobs.queue_wait_s"] = median(
            [r.job["started_at"] - r.job["created_at"] for r in jobs]
        )
        notes["jobs.run_s"] = median(
            [r.job["finished_at"] - r.job["started_at"] for r in jobs]
        )
        notes["jobs.result_fetch_s"] = median([r.fetch_s for r in jobs])
        notes["jobs.polls_per_job"] = float(np.mean([r.polls for r in jobs]))
    notes["requests"] = [
        [r.kind, r.body.key, round(r.latency, 3)] for r in requests
    ]


def server_metrics(spans_path: Path, outcome: Outcome) -> None:
    """Per-layer metrics from the spans the traced server wrote."""
    with spans_path.open() as lines:
        counters = json.loads(next(lines))
        next(lines)  # field names
        spans = [tuple(json.loads(line)) for line in lines]
    reduced = Reduced(spans)
    calls = reduced.calls["analyze"]
    m = outcome.metrics
    m.update(layer_metrics(reduced))
    m["process.sys_s"] = metric(counters["process.sys_s"] / calls, "s")
    m["process.minor_faults"] = metric(
        counters["process.minor_faults"] / calls, "count"
    )
    # The first traced analysis repeats the last untraced one's request.
    first = min((s for s in spans if s[1] == "analyze"), key=lambda s: s[2])
    m["bench.trace_overhead"] = metric(
        (first[3] - first[2]) / counters["untraced_analyze_s"], "ratio"
    )


def run_service_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import RetryPolicy, ServiceClient

    outcome = Outcome()
    reference = make_body(None, 0)
    bodies = make_bodies(seed)
    spans_path = OUT / f"spans-service_mixed-seed{seed}.jsonl" if trace else None
    if spans_path is not None:
        spans_path.unlink(missing_ok=True)
    setups = []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            last = attempt == SETUP_REPEATS - 1
            server = Server(spans_path if last else None)
            server.start()
            setups.append(server.setup_s)
            if not last:
                server.stop()
        client = ServiceClient(
            server.address, timeout=120.0, retry_policy=RetryPolicy(max_retries=0)
        )
        # Warm-up outside the clock: the first job builds the analyzer
        # (cached for both paths) and starts the job worker.  A traced
        # server installs its spans after its first two analyses; the
        # third request repeats the second's work under them.
        kinds = ["job"] + (["sync", "sync"] if trace else [])
        warm_start = time.perf_counter()
        warm = warm_up(client, reference, kinds)
        outcome.notes["warm_up_s"] = round(time.perf_counter() - warm_start, 2)
        references: dict[str, tuple] = {}
        check(warm, references, outcome)
        requests = open_loop(client, bodies, seconds)
        check(requests, references, outcome)
        outcome.notes["jobs.state_bytes"] = server.state_bytes()
    finally:
        if server is not None:
            server.stop()

    outcome.notes["setup_seconds"] = [round(s, 3) for s in setups]
    path_notes(requests, outcome.notes)
    done = [r for r in requests if r.ok]
    if not trace:
        m = outcome.metrics
        m["setup_s"] = metric(median(setups), "s")
        if done:
            m["clip_s"] = metric(median(r.latency for r in done), "s")
            m["frames_per_s"] = metric(
                sum(r.body.frames for r in done) / sum(r.latency for r in done),
                "1/s",
            )
        quality_metrics(
            [judge(r.payload, reference.truth) for r in warm[:1] if r.ok],
            outcome,
        )
    elif spans_path.is_file():
        server_metrics(spans_path, outcome)
    else:
        outcome.fail("the traced server wrote no spans")
    return outcome
