"""Spans around the program's public functions, recorded from outside.

The benchmark does not change the program to trace it.  A
:class:`Tracer` replaces a function by a wrapper that records one span
per call -- name, start, end, parent span, run id, plus a row count
where the call works on a batch -- and puts the original back on
:meth:`Tracer.uninstall`.

Names bound at import time need care: ``from .pose import
forward_kinematics`` copies the function into the caller's namespace,
so patching ``repro.model.pose`` alone would miss every call from
``repro.model.fitness``.  Methods are therefore wrapped on their class
and module functions in the namespace of each module that calls them
(:func:`install_library_spans` lists them).

Spans stay in memory until :meth:`Tracer.dump` writes them out;
:class:`Reduced` turns them into calls, busy time and self time per
span name and per layer (the part of the name before the first dot).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

from common import metric

#: Field order of one span tuple.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "run", "rows", "rejected")

Measure = Callable[[tuple, Any], "tuple[int, int]"]


class Tracer:
    """Collects spans in memory; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: Totals the benchmark counts itself (bytes written, ...).
        self.counters: dict[str, float] = defaultdict(float)

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    @property
    def run(self) -> int:
        """Run id stamped on this thread's spans (one per analysed call)."""
        return getattr(self._local, "run", -1)

    @run.setter
    def run(self, value: int) -> None:
        self._local.run = value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, fn: Callable, name: str, measure: Measure | None = None):
        """``fn`` wrapped to record a span per call.

        ``measure(args, result) -> (rows, rejected)`` counts the work of
        one call where it happens: batch rows, and rows refused.
        """
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                rows, rejected = (
                    measure(args, result)
                    if measure is not None and result is not None
                    else (0, 0)
                )
                spans.append(
                    (span_id, name, start, end, parent, self.run, rows, rejected)
                )

        return wrapper

    def span(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Call ``fn`` inside a span of its own (the benchmark's calls)."""
        return self.traced(fn, name)(*args, **kwargs)

    def wrap(
        self, owner: Any, attr: str, name: str, measure: Measure | None = None
    ) -> None:
        """Replace ``owner.attr`` (class, module or object) by a traced one."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self.traced(raw.__func__, name, measure))
        else:
            patched = self.traced(raw, name, measure)
        self.patch(owner, attr, patched, raw)

    def patch(self, owner: Any, attr: str, value: Any, raw: Any = None) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        if raw is None:
            raw = getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        _set(owner, attr, value)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            _set(owner, attr, raw)

    def dump(self, path: Path) -> None:
        """Write the counters, the span fields, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(dict(self.counters)) + "\n")
            out.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, type):
        setattr(owner, attr, value)
    else:
        # Also reaches frozen dataclass instances (movement profiles).
        object.__setattr__(owner, attr, value)


def _rows(genes: Any) -> int:
    """Chromosomes in a ``(P, 10)`` batch or a single ``(10,)`` row."""
    shape = np.shape(genes)
    return shape[0] if len(shape) == 2 else 1


def install_library_spans(tracer: Tracer) -> None:
    """Wrap the public functions of every layer ``analyze`` runs through."""
    import repro.analysis.trajectory as trajectory
    import repro.ga.engine as engine
    import repro.ga.temporal as temporal
    import repro.model.annotation as annotation
    import repro.model.containment as containment
    import repro.model.fitness as fitness
    import repro.model.pose as pose
    import repro.pipeline as pipeline
    import repro.scoring.report as report
    import repro.segmentation.pipeline as segmentation
    import repro.serialization as serialization
    from repro.profiles import get_profile

    def fitness_rows(args: tuple, _result: Any) -> tuple[int, int]:
        return _rows(args[1]), 0  # SilhouetteFitness.evaluate(self, genes)

    def fk_rows(args: tuple, _result: Any) -> tuple[int, int]:
        return _rows(args[0]), 0  # forward_kinematics(genes, dims)

    def verdicts(_args: tuple, result: Any) -> tuple[int, int]:
        if isinstance(result, bool):  # a single chromosome (the hot case)
            return 1, 0 if result else 1
        return result.size, int(result.size - np.count_nonzero(result))

    def generations(_args: tuple, result: Any) -> tuple[int, int]:
        return len(result.history) - 1, 0

    def frames(args: tuple, _result: Any) -> tuple[int, int]:
        return len(args[-1]), 0  # segment_video(self, video) / (video, cfg)

    def windows(_args: tuple, result: Any) -> tuple[int, int]:
        return len(result.windows), 0

    def payload_bytes(_args: tuple, result: Any) -> tuple[int, int]:
        return len(json.dumps(result)), 0

    tracer.wrap(pipeline.JumpAnalyzer, "analyze", "analyze")
    tracer.wrap(
        segmentation.SegmentationPipeline,
        "segment_video",
        "segmentation.segment_video",
        frames,
    )
    # The pipeline imported these two by name; the tracker imports
    # auto_annotate lazily from its home module, so both are patched.
    tracer.wrap(
        pipeline, "localize_attempts", "localization.localize_attempts", windows
    )
    tracer.wrap(pipeline, "auto_annotate", "model.auto_annotate")
    tracer.wrap(annotation, "auto_annotate", "model.auto_annotate")
    tracer.wrap(temporal.TemporalPoseTracker, "track", "ga.track")
    tracer.wrap(engine.GeneticAlgorithm, "run", "ga.run", generations)
    tracer.wrap(
        fitness.SilhouetteFitness, "evaluate", "model.fitness", fitness_rows
    )
    tracer.wrap(
        containment.ContainmentChecker, "check", "model.containment", verdicts
    )
    for module in (pose, fitness, containment, annotation):
        tracer.wrap(module, "forward_kinematics", "model.fk", fk_rows)
    for method in ("from_poses", "smoothed", "median_filtered", "to_poses"):
        tracer.wrap(trajectory.PoseTrajectory, method, "analysis.trajectory")
    # The movement profile holds the event detector and distance measure
    # it was registered with; the analyzer calls them through it.
    profile = get_profile("standing_long_jump")
    tracer.wrap(profile, "detect_events", "analysis.detect_events")
    tracer.wrap(profile, "measure", "scoring.measure")
    tracer.wrap(report.JumpScorer, "score", "scoring.score")
    # ``analysis_payload`` is bound by name in the service and as the
    # job worker's default serializer; both reach this module global.
    tracer.wrap(
        serialization,
        "analysis_to_dict",
        "serialization.analysis_to_dict",
        payload_bytes,
    )


def layer_of(name: str) -> str:
    """``model.fitness`` -> ``model``; a bare name is its own layer."""
    return name.split(".", 1)[0]


class Reduced:
    """Calls, rows, busy and self time per span name and per layer.

    Busy time of a name (or layer) skips spans whose parent has the
    same name (or layer), so nested work is not counted twice.  Self
    time is a span's duration minus its direct children's.
    """

    def __init__(self, spans: list[tuple]) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.rows: dict[str, int] = defaultdict(int)
        self.rejected: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        names = {span[0]: span[1] for span in spans}
        children: dict[int, float] = defaultdict(float)
        for _id, name, start, end, parent, _run, rows, rejected in spans:
            duration = end - start
            self.calls[name] += 1
            self.rows[name] += rows
            self.rejected[name] += rejected
            parent_name = names.get(parent)
            if parent_name != name:
                self.busy[name] += duration
            if parent_name is None or layer_of(parent_name) != layer_of(name):
                self.layer_busy[layer_of(name)] += duration
            if parent_name is not None:
                children[parent] += duration
        for span_id, name, start, end, *_ in spans:
            self.self_time[name] += (end - start) - children.get(span_id, 0.0)


def layer_metrics(reduced: Reduced) -> dict[str, dict[str, Any]]:
    """The per-layer metrics every workload reports, per ``analyze`` call.

    Ratios (per row, per generation, per frame, rejected share) are over
    the whole traced run.
    """
    calls = reduced.calls["analyze"]
    if not calls:
        raise ValueError("no traced analyze call")

    def per_call(value: float, unit: str) -> dict[str, Any]:
        return metric(value / calls, unit)

    fit_rows = reduced.rows["model.fitness"]
    checked = reduced.rows["model.containment"]
    generations = reduced.rows["ga.run"]
    seg = "segmentation.segment_video"
    to_dict = "serialization.analysis_to_dict"
    return {
        "model.fitness_calls": per_call(reduced.calls["model.fitness"], "count"),
        "model.fitness_rows": per_call(fit_rows, "count"),
        "model.fitness_busy_s": per_call(reduced.busy["model.fitness"], "s"),
        "model.fitness_us_per_row": metric(
            1e6 * reduced.busy["model.fitness"] / fit_rows, "us"
        ),
        "model.fk_calls": per_call(reduced.calls["model.fk"], "count"),
        "model.fk_busy_s": per_call(reduced.busy["model.fk"], "s"),
        "model.containment_rows": per_call(checked, "count"),
        "model.containment_busy_s": per_call(
            reduced.busy["model.containment"], "s"
        ),
        "model.containment_reject_ratio": metric(
            reduced.rejected["model.containment"] / checked, "ratio"
        ),
        "ga.track_busy_s": per_call(reduced.busy["ga.track"], "s"),
        "ga.runs": per_call(reduced.calls["ga.run"], "count"),
        "ga.run_busy_s": per_call(reduced.busy["ga.run"], "s"),
        "ga.self_s": per_call(reduced.self_time["ga.run"], "s"),
        "ga.ms_per_generation": metric(
            1e3 * reduced.busy["ga.run"] / generations, "ms"
        ),
        "segmentation.calls": per_call(reduced.calls[seg], "count"),
        "segmentation.frames": per_call(reduced.rows[seg], "count"),
        "segmentation.busy_s": per_call(reduced.busy[seg], "s"),
        "segmentation.ms_per_frame": metric(
            1e3 * reduced.busy[seg] / reduced.rows[seg], "ms"
        ),
        "analysis.busy_s": per_call(reduced.layer_busy["analysis"], "s"),
        "scoring.busy_s": per_call(reduced.layer_busy["scoring"], "s"),
        "serialization.busy_s": per_call(reduced.busy[to_dict], "s"),
        "serialization.bytes": per_call(reduced.rows[to_dict], "bytes"),
        "streaming.self_s": per_call(reduced.self_time["analyze"], "s"),
    }
