#!/usr/bin/env python3
"""``repro.cli`` with the benchmark's spans installed in its own process.

    python3 perfbench/traced_serve.py SPANS_FILE serve --port 0 --state-dir DIR

``service_mixed --trace 1`` starts its server this way.  The first
``WARM_CALLS`` analyses run untraced and timed; then the spans of every
layer go in, so the next analysis of the same request shows what the
spans cost.  When the command returns (SIGTERM drains the server), the
spans are written to SPANS_FILE, with counters for the last untraced
analysis time and the process's kernel time and page faults since the
spans went in.
"""

from __future__ import annotations

import resource
import sys
import threading
import time
from pathlib import Path

from tracer import Tracer, install_library_spans

WARM_CALLS = 2


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main
    from repro.pipeline import JumpAnalyzer

    spans_path = Path(argv[0])
    tracer = Tracer()
    raw = JumpAnalyzer.__dict__["analyze"]
    untraced: list[float] = []
    usage: list[resource.struct_rusage] = []
    lock = threading.Lock()

    def timed(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return raw(self, *args, **kwargs)
        finally:
            with lock:
                untraced.append(time.perf_counter() - start)
                if len(untraced) == WARM_CALLS:
                    JumpAnalyzer.analyze = raw
                    install_library_spans(tracer)
                    usage.append(resource.getrusage(resource.RUSAGE_SELF))

    JumpAnalyzer.analyze = timed
    try:
        return cli_main(argv[1:])
    finally:
        with lock:
            tracer.uninstall()
            JumpAnalyzer.analyze = raw
        if usage:
            after = resource.getrusage(resource.RUSAGE_SELF)
            tracer.count("process.sys_s", after.ru_stime - usage[0].ru_stime)
            tracer.count(
                "process.minor_faults", after.ru_minflt - usage[0].ru_minflt
            )
            tracer.count("untraced_analyze_s", untraced[-1])
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
