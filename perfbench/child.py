"""One repeat of one workload, in a fresh interpreter.

    python -m perfbench.child WORKLOAD SEED SIZE MODE WORKDIR

MODE is ``timed`` (chunk CPU times, nothing else running), ``traced``
(spans plus cProfile; writes ``WORKDIR/spans-WORKLOAD.jsonl``) or
``heap`` (``tracemalloc`` peak).  The result is one JSON object on the
last line of standard output; ``ready`` is the wall-clock instant at
which ``repro`` was imported and the workload's program-side inputs
were built, which the parent subtracts from its spawn instant.
"""

from __future__ import annotations

import cProfile
import gc
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Dict

from .tracing import Spans, profile_layers, span_summary
from .workloads import WORKLOADS, ChunkTimer, Workload

MODES = ("timed", "traced", "heap")


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def execute(workload: Workload, mode: str, workdir: Path) -> Dict[str, Any]:
    """Generate the workload's data, run it once in ``mode``, check it."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; use one of {MODES}")
    result: Dict[str, Any] = {}
    timer = ChunkTimer()
    spans = Spans(lambda: len(timer.times))
    profiler = cProfile.Profile()
    workload.generate(workdir)
    try:
        gc.collect()
        gen0 = gc.get_stats()[0]["collections"]
        if mode == "traced":
            spans.install()
        elif mode == "heap":
            tracemalloc.start()
        try:
            wall, cpu = time.perf_counter(), time.process_time()
            if mode == "traced":
                profiler.enable()
            outputs = workload.run(timer)
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
        finally:
            profiler.disable()
            spans.uninstall()
            if mode == "heap":
                result["heap_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        result["gen0"] = gc.get_stats()[0]["collections"] - gen0
        report = workload.check(outputs)
    finally:
        workload.cleanup()
    result.update(
        chunks=timer.times,
        units=timer.units,
        cpu=cpu,
        wall=wall,
        rss_mb=_peak_rss_mb(),
        attempted=report.attempted,
        failed=report.failed,
        problems=report.problems,
        digest=report.digest,
        facts=report.facts,
    )
    if mode == "traced":
        layers, counts = profile_layers(profiler)
        spans_file = workdir / f"spans-{workload.name}.jsonl"
        with spans_file.open("w", encoding="utf-8") as handle:
            for record in spans.records:
                handle.write(json.dumps(record) + "\n")
        result.update(
            layers=layers,
            counts=counts,
            events=spans.events,
            spans=span_summary(spans.records),
            spans_file=str(spans_file),
        )
    return result


def main(argv) -> int:
    name, seed, size, mode, workdir = argv
    workload = WORKLOADS[name](int(seed), size)
    ready = time.time()
    result = execute(workload, mode, Path(workdir))
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
