"""The in-library workloads: ``jump_paper`` and ``class_session``.

Both are closed loops -- one ``JumpAnalyzer.analyze`` call at a time,
the next starting when the previous returns -- until the run's seconds
are used up.  Inputs are made before each call, outside the clock.

With ``--trace 1`` the first two calls run untraced (the second is the
baseline of ``bench.trace_overhead``) and every later call runs with
the spans of :mod:`tracer` installed; the per-layer numbers are per
traced call.  The quality metrics (:mod:`quality`) are judged on fixed
reference calls at the start of an untraced run.
"""

from __future__ import annotations

import functools
import resource
import time
import traceback
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable

import numpy as np

from common import OUT, Clock, Outcome, metric, time_library_setup
from quality import Truth, judge, jump_truth, long_clip_truth, quality_metrics
from tracer import Reduced, Tracer, install_library_spans, layer_metrics

#: jump_paper cycles through these: a clean jump, then one jump per
#: standard of Table 1 that it was rendered to violate.
FLAW_CYCLE = (None, "E1", "E2", "E3", "E4", "E5", "E6", "E7")
#: jump_paper's quality metrics are judged on the first calls only: the
#: clean and the E1 jump, with fixed tracker streams.
QUALITY_CLIPS = 2
#: class_session's are judged on its first call: the reference session.
SESSION_QUALITY_CLIPS = 1


@dataclass
class Clip:
    """One analysis input with the ground truth to check it against."""

    key: str
    video: Any
    annotation: Any  # FirstFrameAnnotation, or None for automatic
    seed: int
    truth: Truth
    index: int = 0  # position in the run's clip sequence


def digest(analysis: Any) -> tuple:
    """What must repeat exactly for the same input and seed."""
    events = analysis.events
    return (
        analysis.config_hash,
        analysis.report.score,
        events.takeoff_frame,
        events.landing_frame,
        events.peak_frame,
        events.ground_height,
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def standard_jump(flaw: str | None) -> tuple[Any, Any]:
    """The standard 20-frame jump (render seed 0), clean or with one flaw,
    and the first frame as the trained person draws it."""
    from repro import (
        SyntheticJumpConfig,
        simulate_human_annotation,
        synthesize_flawed_jump,
        synthesize_jump,
    )
    from repro.scoring.standards import Standard

    if flaw is None:
        jump = synthesize_jump(SyntheticJumpConfig(seed=0))
    else:
        jump = synthesize_flawed_jump(Standard[flaw], seed=0)
    annotation = simulate_human_annotation(
        jump.motion.poses[0],
        jump.dims,
        mask=jump.person_masks[0],
        rng=np.random.default_rng(0),
    )
    return jump, annotation


def jump_clip(seed: int, index: int) -> Clip:
    """Call ``index`` of a jump_paper run.

    The clips are the standard jumps -- the clean one, then one per
    standard it violates -- the input the headline number is defined
    on.  The first ``QUALITY_CLIPS`` calls are a fixed reference pair:
    their tracker streams are fixed too, so the quality metrics judged
    on them are exact and a behaviour change moves them without noise
    (judged on seeded streams, joint error spread by up to a quarter
    between ten-seed sets).  The seed sets the tracker's stream of
    every later call.
    """
    flaw = FLAW_CYCLE[index % len(FLAW_CYCLE)]
    jump, annotation = standard_jump(flaw)
    rng_seed = index if index < QUALITY_CLIPS else 1000 * seed + index
    return Clip(
        key=f"{flaw or 'clean'}-rng{rng_seed}",
        video=jump.video,
        annotation=annotation,
        seed=rng_seed,
        truth=jump_truth(jump),
        index=index,
    )


@functools.lru_cache(maxsize=None)
def long_clip() -> Any:
    """The class_session clip: three attempts with dead time, 108 frames."""
    from repro import LongClipConfig, synthesize_long_clip

    return synthesize_long_clip(LongClipConfig(seed=0, attempts=3))


def session_clip(seed: int, index: int) -> Clip:
    """Call ``index`` of a class_session run.

    Every call analyses the same session (render seed 0), as jump_paper
    keeps its jumps; the first ``SESSION_QUALITY_CLIPS`` calls are the
    reference, tracked with a fixed stream, that the quality metrics
    are judged on.  The seed sets the tracker's stream of every later
    call.
    """
    session = long_clip()
    rng_seed = index if index < SESSION_QUALITY_CLIPS else 1000 * seed + index
    return Clip(
        key=f"session-rng{rng_seed}",
        video=session.video,
        annotation=None,
        seed=rng_seed,
        truth=long_clip_truth(session),
        index=index,
    )


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_analysis(analysis: Any, clip: Clip, config_hash: str) -> list[str]:
    """Problems with one analysis; empty when it is well formed."""
    problems = []
    if analysis.config_hash != config_hash:
        problems.append(
            f"{clip.key}: config_hash {analysis.config_hash} != {config_hash}"
        )
    attempts = analysis.attempts or (None,)
    for attempt in attempts:
        result = analysis if attempt is None else attempt.analysis
        frames = len(clip.video) if attempt is None else attempt.window.frames
        if len(result.poses) != frames:
            problems.append(
                f"{clip.key}: {len(result.poses)} poses for {frames} frames"
            )
        if len(result.report.results) != 7:
            problems.append(
                f"{clip.key}: {len(result.report.results)} rule results, not 7"
            )
        events = result.events
        if not 0 <= events.takeoff_frame <= events.landing_frame < frames:
            problems.append(f"{clip.key}: events out of order {events}")
    if len(clip.truth.windows) > 1 and not analysis.attempts:
        problems.append(f"{clip.key}: no attempt found in a 3-attempt clip")
    return problems


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
@dataclass
class Call:
    clip: Clip
    seconds: float
    analysis: Any
    traced: bool
    sys_s: float  # kernel time of the process during the call
    minor_faults: int  # page faults of the process during the call


#: Untraced calls a traced run makes first.  The first ``analyze`` of a
#: process takes few page faults; later calls take ~2M (4-5 s of kernel
#: time on the standard clip), so the overhead baseline is call 1.
TRACE_WARM_CALLS = 2


def closed_loop(
    analyzer: Any,
    next_clip: Callable[[int], Clip],
    seconds: float,
    outcome: Outcome,
    tracer: Tracer | None,
    least: int = 1,
) -> list[Call]:
    """Analyse clips one after another until ``seconds`` have passed.

    Every analysis is checked; a clip seen before must reproduce its
    first digest exactly.  With a tracer, the first
    ``TRACE_WARM_CALLS`` calls run untraced on clip 0, then the spans
    are installed and the clip sequence restarts, so the first traced
    call repeats the last untraced one's work; each traced result is
    also serialised with ``analysis_payload``, inside the spans.  The
    loop makes at least ``least`` calls (``TRACE_WARM_CALLS + 1`` when
    traced), however long they take.
    """
    from repro.serialization import analysis_payload

    config_hash = analyzer.config.hash
    digests: dict[str, tuple] = {}
    calls: list[Call] = []
    clock = Clock(seconds)
    warm = 0 if tracer is None else TRACE_WARM_CALLS
    least = max(least, warm + 1)
    while clock.running() or outcome.attempted < least:
        index = outcome.attempted
        traced = tracer is not None and index >= warm
        if traced and not tracer.installed:
            install_library_spans(tracer)
        clip = next_clip(max(0, index - warm))
        outcome.attempted += 1
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            analysis = analyzer.analyze(
                clip.video,
                annotation=clip.annotation,
                rng=np.random.default_rng(clip.seed),
            )
        except Exception as exc:  # counted, and the run goes on
            traceback.print_exc()
            outcome.fail(f"{clip.key}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        problems = check_analysis(analysis, clip, config_hash)
        seen = digests.setdefault(clip.key, digest(analysis))
        if seen != digest(analysis):
            problems.append(
                f"{clip.key}: repeat gave {digest(analysis)}, first gave {seen}"
            )
        if problems:
            outcome.fail("; ".join(problems))
        if traced:
            analysis_payload(analysis)
        calls.append(
            Call(
                clip,
                elapsed,
                analysis,
                traced,
                after.ru_stime - before.ru_stime,
                after.ru_minflt - before.ru_minflt,
            )
        )
    if tracer is not None:
        tracer.uninstall()
    return calls


def timing_metrics(calls: list[Call], outcome: Outcome) -> None:
    """clip_s and frames_per_s over the calls that count for timing."""
    timed = [call for call in calls if not call.traced]
    seconds = [call.seconds for call in timed]
    frames = sum(len(call.clip.video) for call in timed)
    outcome.metrics["clip_s"] = metric(median(seconds), "s")
    outcome.metrics["frames_per_s"] = metric(frames / sum(seconds), "1/s")
    outcome.notes["clip_seconds"] = [round(s, 3) for s in seconds]
    outcome.notes["ga_evaluations"] = [
        call.analysis.trace.counters.get("ga.evaluations") for call in timed
    ]
    outcome.notes["sys_seconds"] = [round(call.sys_s, 3) for call in timed]


def judged_quality(calls: list[Call], judged: int, outcome: Outcome) -> None:
    """The quality metrics over the first ``judged`` clips of the run."""
    from repro.serialization import analysis_payload

    quality_metrics(
        [
            judge(analysis_payload(call.analysis), call.clip.truth)
            for call in calls
            if call.clip.index < judged
        ],
        outcome,
    )


def traced_metrics(tracer: Tracer, calls: list[Call], outcome: Outcome) -> Reduced:
    """The per-layer metrics of the traced calls (per traced call)."""
    traced = [call for call in calls if call.traced]
    untraced = [call for call in calls if not call.traced]
    reduced = Reduced(tracer.spans)
    m = outcome.metrics
    m.update(layer_metrics(reduced))
    m["process.sys_s"] = metric(
        sum(c.sys_s for c in traced) / len(traced), "s"
    )
    m["process.minor_faults"] = metric(
        sum(c.minor_faults for c in traced) / len(traced), "count"
    )
    # The same work untraced and traced: the last warm call and the
    # first traced one both analyse clip 0.
    m["bench.trace_overhead"] = metric(
        traced[0].seconds / untraced[-1].seconds, "ratio"
    )
    outcome.notes["untraced_seconds"] = [round(c.seconds, 3) for c in untraced]
    outcome.notes["traced_seconds"] = [round(c.seconds, 3) for c in traced]
    return reduced


def dump(tracer: Tracer, workload: str, seed: int) -> None:
    tracer.dump(OUT / f"spans-{workload}-seed{seed}.jsonl")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_jump_paper(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import JumpAnalyzer, resolve_config

    outcome = Outcome()
    setup = time_library_setup("paper", [])
    analyzer = JumpAnalyzer(resolve_config(preset="paper"))
    tracer = Tracer() if trace else None
    calls = closed_loop(
        analyzer,
        lambda i: jump_clip(seed, i),
        seconds,
        outcome,
        tracer,
        least=QUALITY_CLIPS,
    )
    if not calls:
        return outcome
    if tracer is None:
        outcome.metrics["setup_s"] = metric(median(setup), "s")
        timing_metrics(calls, outcome)
        judged_quality(calls, QUALITY_CLIPS, outcome)
        outcome.notes["clips"] = [call.clip.key for call in calls]
    else:
        traced_metrics(tracer, calls, outcome)
        dump(tracer, "jump_paper", seed)
    outcome.notes["setup_seconds"] = [round(s, 3) for s in setup]
    return outcome


def run_class_session(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import JumpAnalyzer, resolve_config

    overrides = ["localization.enabled=true"]
    outcome = Outcome()
    setup = time_library_setup("fast", overrides)
    analyzer = JumpAnalyzer(resolve_config(preset="fast", overrides=overrides))
    tracer = Tracer() if trace else None
    calls = closed_loop(
        analyzer,
        lambda i: session_clip(seed, i),
        seconds,
        outcome,
        tracer,
        least=SESSION_QUALITY_CLIPS,
    )
    if not calls:
        return outcome
    if tracer is None:
        outcome.metrics["setup_s"] = metric(median(setup), "s")
        timing_metrics(calls, outcome)
        judged_quality(calls, SESSION_QUALITY_CLIPS, outcome)
    else:
        reduced = traced_metrics(tracer, calls, outcome)
        traced = sum(call.traced for call in calls)
        localize = "localization.localize_attempts"
        # Facts of the localising path only: on the summary line.
        outcome.notes["model.annotate_s"] = (
            reduced.busy["model.auto_annotate"] / traced
        )
        outcome.notes["localization.busy_s"] = reduced.busy[localize] / traced
        outcome.notes["localization.windows"] = reduced.rows[localize] / traced
        dump(tracer, "class_session", seed)
    outcome.notes["setup_seconds"] = [round(s, 3) for s in setup]
    outcome.notes["windows"] = [
        [(w.start, w.end) for w in call.analysis.localization.windows]
        for call in calls
    ]
    return outcome
