"""The five benchmark workloads.

Each workload builds its program-side inputs from a seed when it is
constructed (that is the set-up the ``setup_s`` metric times), may then
generate benchmark-side data (untimed), and runs as a fixed list of
*chunks*: deterministic pieces of work whose CPU time is measured one
by one, so that repeats can be compared chunk by chunk.  Every chunk
declares how many of the workload's units it processed.

All calls go through public functions of ``repro``, looked up on their
module at call time, so the traced pass can wrap them from outside.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
import time
from itertools import product
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

PROTOCOLS = ("timebounded", "htlc", "weak", "certified")


class ChunkTimer:
    """CPU time and unit count of each chunk, in execution order."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.units: List[int] = []

    def add(self, seconds: float, units: int) -> None:
        self.times.append(seconds)
        self.units.append(units)

    def call(self, units: int, fn, *args, **kwargs):
        """Run ``fn`` as one chunk of ``units`` units and return its result."""
        start = time.process_time()
        result = fn(*args, **kwargs)
        self.add(time.process_time() - start, units)
        return result


class Report:
    """What a finished repeat produced, checked: counts, problems, digest."""

    def __init__(
        self,
        attempted: int,
        failed: int,
        problems: List[str],
        outputs: Any,
        facts: Optional[Dict[str, float]] = None,
    ) -> None:
        self.attempted = attempted
        self.failed = failed
        self.problems = problems
        self.digest = hashlib.sha256(
            json.dumps(outputs, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()[:16]
        self.facts = facts or {}


class Workload:
    """One set of inputs the benchmark runs; subclasses fill in the steps."""

    name = ""
    unit = ""
    why = ""

    def generate(self, workdir: Path) -> None:
        """Build benchmark-side data; never timed."""

    def run(self, timer: ChunkTimer) -> Any:
        raise NotImplementedError

    def check(self, outputs: Any) -> Report:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove whatever :meth:`generate` or :meth:`run` left on disk."""


def _trial_failures(records) -> Tuple[int, List[str]]:
    errors = [r for r in records if r.error is not None]
    problems = [
        f"{r.spec.coords}: {r.error.strip().splitlines()[-1]}" for r in errors[:3]
    ]
    return len(errors), problems


class CampaignGrid(Workload):
    name = "campaign-grid"
    unit = "trial"
    why = (
        "many short solo trials on reused session arenas with reduced traces: "
        "assembly, crypto, network and the Def 1/2 checker dominate"
    )
    # Trials per cell; 96 cells, so 1056 trials and ten beyond p99.
    SIZES = {"full": 11, "tiny": 1}

    def __init__(self, seed: int, size: str) -> None:
        from repro.scenarios import CampaignSpec

        tiny = size == "tiny"
        self.sweep = CampaignSpec(
            protocols=PROTOCOLS,
            timings=("sync",) if tiny else ("sync", "partial", "async"),
            adversaries=("none", "delayer") if tiny
            else ("none", "delayer", "bob-edge", "crash-restart"),
            topologies=("linear-3", "tree-2"),
            trials=self.SIZES[size],
            seed=seed,
        ).compile()

    def run(self, timer: ChunkTimer) -> Any:
        from repro.runtime import SweepResult, executor
        from repro.scenarios import campaign

        records = [timer.call(1, executor.run_trial, spec) for spec in self.sweep]
        result = SweepResult(sweep_id=self.sweep.sweep_id, records=records)
        table = None
        if all(r.ok for r in records):
            table = timer.call(0, campaign.aggregate_campaign, result)
        return records, table

    def check(self, outputs: Any) -> Report:
        from repro.experiments.tables import render_table

        records, table = outputs
        failed, problems = _trial_failures(records)
        for r in records:
            if r.ok and not r["ledgers_ok"]:
                problems.append(f"{r.spec.coords}: ledger audit failed")
            if r.ok and r.spec.opt("timing_name") == "sync" and (
                r.spec.opt("adversary") == "none" and not r["bob_paid"]
            ):
                problems.append(f"{r.spec.coords}: honest synchronous run unpaid")
        digest = [[list(r.spec.coords), r.values] for r in records]
        return Report(
            attempted=len(records),
            failed=failed,
            problems=problems,
            outputs=[digest, render_table(table) if table else None],
        )


class Evaluation(Workload):
    name = "evaluation"
    unit = "payment run"
    why = (
        "E1-E9 with a fresh world and full trace per payment run: trace "
        "recording and automata dominate, arenas are never used"
    )

    def __init__(self, seed: int, size: str) -> None:
        from repro.experiments import SWEEPS

        # E8 runs in quick mode: its full enumeration alone takes ~6 s,
        # longer than a whole repeat may.
        ids = ("E1", "E3") if size == "tiny" else tuple(SWEEPS)
        self.sweeps = [
            (eid, SWEEPS[eid](quick=size == "tiny" or eid == "E8", seed=seed))
            for eid in ids
        ]

    def run(self, timer: ChunkTimer) -> Any:
        from repro.core.session import PaymentSession
        from repro.experiments import AGGREGATORS
        from repro.runtime import SweepResult, executor

        inner = PaymentSession.run

        def timed_run(session):
            return timer.call(1, inner, session)

        # Each payment run is a chunk; the rest of its trial (set-up,
        # checks, the runs of E5/E6 that never build a session) is the
        # trial's residue chunk.
        PaymentSession.run = timed_run
        try:
            results = []
            for eid, sweep in self.sweeps:
                records = []
                for spec in sweep:
                    first = len(timer.times)
                    start = time.process_time()
                    records.append(executor.run_trial(spec))
                    total = time.process_time() - start
                    timer.add(total - sum(timer.times[first:]), 0)
                result = SweepResult(sweep_id=sweep.sweep_id, records=records)
                table = None
                if all(r.ok for r in records):
                    table = timer.call(0, AGGREGATORS[eid], result)
                results.append((eid, records, table))
        finally:
            PaymentSession.run = inner
        return results

    def check(self, outputs: Any) -> Report:
        from repro.experiments.tables import render_table

        failed = 0
        problems: List[str] = []
        digest = []
        for eid, records, table in outputs:
            bad, why = _trial_failures(records)
            failed += bad
            problems += [f"{eid} {line}" for line in why]
            digest.append([eid, render_table(table) if table else None])
        return Report(
            attempted=sum(len(records) for _, records, _ in outputs),
            failed=failed,
            problems=problems,
            outputs=digest,
        )


class _WorkloadCells(Workload):
    """Shared body of the two concurrent-workload workloads."""

    unit = "payment"

    def _compile(self, specs) -> None:
        self.cells = [cell for spec in specs for cell in spec.compile()]

    def run(self, timer: ChunkTimer) -> Any:
        from repro.runtime import executor

        return [
            timer.call(cell.opt("count"), executor.run_trial, cell)
            for cell in self.cells
        ]

    def check(self, outputs: Any) -> Report:
        _, problems = _trial_failures(outputs)
        failed = sum(r.spec.opt("count") for r in outputs if not r.ok)
        refused = 0
        for r in outputs:
            if not r.ok:
                continue
            if not r["conserved"] or r["in_flight_at_end"]:
                problems.append(f"{r.spec.coords}: liquidity not conserved")
            if len(r["payments"]) != r.spec.opt("count"):
                problems.append(f"{r.spec.coords}: payments missing")
            refused += r["liquidity_failures"]
        return Report(
            attempted=sum(r.spec.opt("count") for r in outputs),
            failed=failed,
            problems=problems,
            outputs=[[list(r.spec.coords), r.values] for r in outputs],
            facts={"refused": refused},
        )


class WorkloadContended(_WorkloadCells):
    name = "workload-contended"
    why = (
        "many payments interleaved on one kernel at load 1.0: admission, "
        "refusal, arena recycling and the per-event scan of live payments"
    )
    # (cell sets, payments per cell); each set is one cell per protocol.
    SIZES = {"full": (2, 400), "tiny": (1, 20)}

    def __init__(self, seed: int, size: str) -> None:
        from repro.workload.spec import WorkloadSpec, parse_topology_mix

        sets, count = self.SIZES[size]
        mix = parse_topology_mix("linear-3:2,tree-2:1")
        self._compile(
            WorkloadSpec(
                loads=(1.0,),
                count=count,
                liquidity=300,
                topology_mix=mix,
                seed=seed,
                sweep_id=f"contended-{k}",
            )
            for k in range(sets)
        )


class WorkloadSparse(_WorkloadCells):
    name = "workload-sparse"
    why = (
        "the repro workload defaults at loads 0.02 and 0.08: mostly idle "
        "chain ticks, so the kernel, timers and ledger dominate"
    )
    # Payments per cell, 8 cells: 50 rather than the CLI's 100, so that
    # a repeat is short enough for a run to hold several.
    SIZES = {"full": 50, "tiny": 5}

    def __init__(self, seed: int, size: str) -> None:
        from repro.workload.spec import WorkloadSpec

        self._compile([WorkloadSpec(count=self.SIZES[size], seed=seed)])


#: Columns the projected load and the grouped queries read.
ANALYZE_COLUMNS = ["protocol", "timing_name", "adversary", "latency", "bob_paid"]
ANALYZE_METRICS = [
    "runs", "success", "p50_latency", "p90_latency", "p99_latency", "mean_latency",
]


def synthetic_records(seed: int, per_cell: int):
    """Campaign-shaped trial records drawn from ``seed``; no simulation.

    48 cells (protocol x timing x adversary x topology) of ``per_cell``
    trials each, with per-cell success rates and latency distributions,
    so grouped queries see real groups and real spreads.
    """
    from repro.runtime import TrialRecord, TrialSpec

    rng = random.Random(seed)
    records = []
    cells = product(
        PROTOCOLS, ("sync", "partial", "async"), ("none", "delayer"),
        ("linear-2", "geom-3"),
    )
    for protocol, timing, adversary, topology in cells:
        success = rng.uniform(0.5, 1.0)
        scale = rng.uniform(2.0, 20.0)
        definition = 1 if protocol in ("htlc", "timebounded") else 2
        for s in range(per_cell):
            paid = rng.random() < success
            spec = TrialSpec(
                fn="repro.scenarios.trial:scenario_trial",
                coords=(protocol, timing, adversary, topology, s),
                seed=rng.getrandbits(63),
                options={
                    "protocol": protocol,
                    "timing_name": timing,
                    "adversary": adversary,
                    "topology": topology,
                    "rho": 0.0,
                    "horizon": 50_000.0,
                },
            )
            records.append(
                TrialRecord(
                    spec=spec,
                    values={
                        "bob_paid": paid,
                        "committed": paid and definition == 2,
                        "aborted": not paid,
                        "all_terminated": True,
                        "latency": round(rng.expovariate(1.0 / scale), 6),
                        "messages": rng.randint(8, 40),
                        "def1_ok": paid if definition == 1 else None,
                        "def2_ok": paid if definition == 2 else None,
                    },
                    wall_seconds=0.001,
                )
            )
    return records


class AnalyzeRecords(Workload):
    name = "analyze-records"
    unit = "row-stage"
    why = (
        "persistence and analysis only: stream-write, full and projected "
        "loads, a grouped percentile query and a diff of two directories"
    )
    # Trials per cell; 48 cells.
    SIZES = {"full": 200, "tiny": 10}
    #: The chunks of one repeat, in order; each processes every row once.
    STAGES = ("write", "write-baseline", "load", "load-projected", "query", "diff")

    def __init__(self, seed: int, size: str) -> None:
        import repro.analysis  # noqa: F401  (set-up: the program's import)
        import repro.runtime  # noqa: F401

        self.seed = seed
        self.per_cell = self.SIZES[size]
        self._tmp: Optional[tempfile.TemporaryDirectory] = None

    def generate(self, workdir: Path) -> None:
        self.current = synthetic_records(self.seed, self.per_cell)
        self.baseline = synthetic_records(self.seed + 1, self.per_cell)
        workdir.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=workdir)
        self.dir = Path(self._tmp.name)

    @staticmethod
    def _write(out_dir: Path, records) -> None:
        from repro.runtime import persist

        with persist.RecordWriter(out_dir, sweep_id="campaign") as writer:
            for record in records:
                writer.write(record)

    def run(self, timer: ChunkTimer) -> Any:
        from repro.analysis import query, store

        rows = len(self.current)
        current, baseline = self.dir / "current", self.dir / "baseline"
        timer.call(rows, self._write, current, self.current)
        timer.call(rows, self._write, baseline, self.baseline)
        full = timer.call(rows, store.RecordStore.load, current)
        projected = timer.call(
            rows, store.RecordStore.load, current, columns=ANALYZE_COLUMNS
        )
        group_by = ["protocol", "timing", "adversary"]
        table = timer.call(
            rows, query.analyze_store, projected, group_by=group_by,
            metrics=ANALYZE_METRICS,
        )

        def diff():
            other = store.RecordStore.load(baseline, columns=ANALYZE_COLUMNS)
            return query.diff_stores(
                projected, other, group_by=group_by, metrics=ANALYZE_METRICS
            )

        delta = timer.call(rows, diff)
        size = (current / "records.jsonl").stat().st_size
        return full, projected, table, delta, size

    def check(self, outputs: Any) -> Report:
        from repro.experiments.tables import render_table

        full, projected, table, delta, size = outputs
        rows = len(self.current)
        problems = []
        if len(full) != rows or len(projected) != rows:
            problems.append(f"loaded {len(full)}/{len(projected)} of {rows} rows")
        if sum(row["runs"] for row in table.rows) != rows:
            problems.append("grouped query lost rows")
        if any(row["status"] != "both" for row in delta.rows):
            problems.append("diff found groups on one side only")
        return Report(
            attempted=len(self.STAGES) * rows,
            failed=0,
            problems=problems,
            outputs=[
                len(full), full.column_names(), render_table(table),
                render_table(delta), size,
            ],
            facts={"bytes_per_row": size / rows},
        )

    def cleanup(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()


WORKLOADS = {
    cls.name: cls
    for cls in (
        CampaignGrid, Evaluation, WorkloadContended, WorkloadSparse, AnalyzeRecords,
    )
}
