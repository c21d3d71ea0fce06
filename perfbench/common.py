"""Helpers shared by the workloads: paths, statistics, set-up timing."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Spans and per-run summaries are written here (git-ignored).
OUT = Path(__file__).resolve().parent / "out"

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 5


def program_env() -> dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the tail of ``values``.

    The tail is the highest percentile with ``min(10, n // 10)`` samples
    beyond it: p90 by nearest rank up to 100 samples, then rising
    towards p99 with ten samples kept beyond it.  With fewer than ten
    samples that is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, n // 10)
    index = n - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / n, beyond


def metric(value: float, unit: str) -> dict[str, Any]:
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return {"value": value, "unit": unit}


def time_library_setup(preset: str, overrides: list[str]) -> list[float]:
    """Seconds to import the package and build the analyzer, per repeat.

    Each repeat is a fresh interpreter, so the import is cold in the
    interpreter (the OS file cache stays warm after the first).
    """
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        "from repro import JumpAnalyzer, resolve_config\n"
        f"JumpAnalyzer(resolve_config(preset={preset!r}, "
        f"overrides={overrides!r}))\n"
        "print(time.perf_counter() - start)\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=program_env(),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Extra facts printed on the summary line (not part of the result).
    notes: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Record one failed or wrong operation."""
        self.failed += 1
        self.problems.append(message)


class Clock:
    """Wall-clock budget of one measured phase."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def running(self) -> bool:
        return self.elapsed() < self.seconds
