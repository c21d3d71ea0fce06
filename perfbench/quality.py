"""Quality of an analysis against the synthesiser's ground truth.

Every workload judges the same wire shape, the ``analysis_payload``
dict: the library workloads serialise their result, the service
returns it.  The three quality metrics are

- ``joint_error_px``: ``mean_joint_error`` of the primary attempt's
  poses against the true poses, per frame; the median over frames (a
  few slipped flight frames dominate the mean, which goes on the
  summary line);
- ``standard_accuracy``: share of (attempt, standard) verdicts where
  ``violated_standards`` matches the flaws rendered into the attempt;
- ``window_iou``: mean IoU of the ``attempts`` windows against the true
  attempt windows.  A clip of one jump is one true window spanning the
  clip, which the whole-clip path reports as its ``a0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Any

import numpy as np

from common import Outcome, metric


@dataclass(frozen=True)
class Truth:
    """What a clip was rendered from."""

    #: True attempt spans, half-open absolute frame indices.
    windows: tuple[tuple[int, int], ...]
    #: Absolute frame -> true pose, for every frame inside a window.
    poses: dict[int, Any]
    dims: Any
    #: Names of the standards each true attempt was rendered to violate.
    violated: tuple[frozenset[str], ...]


def jump_truth(jump: Any) -> Truth:
    """Truth of a ``SyntheticJump``: one attempt over the whole clip."""
    poses = jump.motion.poses
    return Truth(
        windows=((0, len(poses)),),
        poses=dict(enumerate(poses)),
        dims=jump.dims,
        violated=(frozenset(standard.name for standard in jump.violated),),
    )


def long_clip_truth(long_clip: Any) -> Truth:
    """Truth of a ``LongClip``: its attempts are all rendered clean."""
    poses = {}
    for (start, _end), motion in zip(long_clip.windows, long_clip.motions):
        for offset, pose in enumerate(motion.poses):
            poses[start + offset] = pose
    return Truth(
        windows=tuple(long_clip.windows),
        poses=poses,
        dims=long_clip.dims,
        violated=(frozenset(),) * len(long_clip.windows),
    )


def iou(a: tuple[int, int], b: tuple[int, int]) -> float:
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    return inter / (max(a[1], b[1]) - min(a[0], b[0]))


@dataclass
class Judgement:
    """One payload held against its truth."""

    errors: list[float]  # joint error per judged frame (px)
    matches: int  # verdicts agreeing with the rendered flaws
    verdicts: int
    window_iou: float
    hit_ratio: float  # found windows overlapping a true one


def judge(payload: dict[str, Any], truth: Truth) -> Judgement:
    """Hold one analysis payload against the truth of its clip.

    Found and true windows are paired greedily by IoU; a window left
    unpaired on either side counts as IoU 0, and only paired attempts
    give verdicts.
    """
    from repro.model.pose import mean_joint_error
    from repro.scoring.standards import Standard
    from repro.serialization import pose_from_dict

    attempts = payload["attempts"]
    found = [(a["window"]["start"], a["window"]["end"]) for a in attempts]
    pairs = sorted(
        (
            (iou(f, t), i, j)
            for i, f in enumerate(found)
            for j, t in enumerate(truth.windows)
        ),
        reverse=True,
    )
    paired: dict[int, int] = {}
    total = 0.0
    for value, i, j in pairs:
        if value > 0 and i not in paired and j not in paired.values():
            paired[i] = j
            total += value
    hits = sum(any(iou(f, t) > 0 for t in truth.windows) for f in found)

    matches = verdicts = 0
    for i, j in paired.items():
        flagged = set(attempts[i]["report"]["violated_standards"])
        for standard in Standard:
            matches += (standard.name in flagged) == (
                standard.name in truth.violated[j]
            )
            verdicts += 1

    # The top-level poses are the primary attempt's, window-relative.
    primary = [a for a in attempts if a["primary"]]
    start = primary[0]["window"]["start"] if primary else 0
    errors = [
        mean_joint_error(
            pose_from_dict(pose), truth.poses[start + offset], truth.dims
        )
        for offset, pose in enumerate(payload["poses"])
        if start + offset in truth.poses
    ]
    return Judgement(
        errors=errors,
        matches=matches,
        verdicts=verdicts,
        window_iou=total / max(len(found), len(truth.windows)),
        hit_ratio=hits / len(found) if found else 0.0,
    )


def quality_metrics(judgements: list[Judgement], outcome: Outcome) -> None:
    """The three quality metrics over the judged payloads of a run."""
    errors = [error for j in judgements for error in j.errors]
    verdicts = sum(j.verdicts for j in judgements)
    if not errors or not verdicts:
        outcome.fail("quality: no attempt matched a true attempt window")
        return
    m = outcome.metrics
    m["joint_error_px"] = metric(median(errors), "px")
    m["standard_accuracy"] = metric(
        sum(j.matches for j in judgements) / verdicts, "ratio"
    )
    m["window_iou"] = metric(
        float(np.mean([j.window_iou for j in judgements])), "ratio"
    )
    outcome.notes["joint_error_mean_px"] = float(np.mean(errors))
    outcome.notes["window_hit_ratio"] = float(
        np.mean([j.hit_ratio for j in judgements])
    )
