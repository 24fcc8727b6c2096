"""Golden-equivalence guard for the hot-path optimizations.

The kernel/trace/trial-assembly optimizations must not perturb the
determinism contract: same seed ⇒ byte-identical campaign records and
byte-identical trace serializations.  The fixtures under
``tests/fixtures/`` were generated from the **pre-optimization** tree;
these tests regenerate the same campaign and traces on every run and
compare the serialized bytes exactly, so any optimization that changes
event ordering, trace content, record values, or seed derivation fails
loudly.

The fixture matrix pins graph topologies (``tree-2`` / ``hub-3`` /
``fan-in-3``) under **all four** protocols: weak, certified, and HTLC
are graph-native since the PR 7 port, so their DAG cells are part of
the determinism contract exactly like the path cells.  The path cells
themselves predate the port — their lines double as the proof that the
port left path behaviour byte-identical.

``golden_workload.jsonl`` extends the contract to the *concurrent*
pipeline: a small contention workload (shared kernel + liquidity
substrate, mixed topology sampling, real liquidity failures) whose
per-payment records are pinned in the CLI's exact persisted byte form.
A companion test asserts the degenerate case in values rather than
bytes: a one-payment workload cell reproduces the equivalent solo
campaign trial exactly, for every protocol.

Trace bytes embed ``msg_id`` values drawn from a process-global
counter, so the trace document is only reproducible from a *fresh*
interpreter that runs nothing but the pinned cells; both the fixture
generator and the comparison test therefore produce it in a hermetic
subprocess (``--print-traces``).  Campaign records carry no global
counter values, so they regenerate in-process.

Regenerate (only when a change is *supposed* to alter behaviour)::

    PYTHONPATH=src python tests/test_golden_equivalence.py

One pinned trace cell is also rerun with the kernel's slab recycling
disabled (the fallback off CPython), which must not change a byte.

The module also stress-tests :class:`~repro.sim.queue.EventQueue`
against a naive reference implementation under a randomized
push/cancel/pop/pop_due/clear mix, checking heap order and the
live-count invariant after every operation.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.session import PaymentSession
from repro.experiments.harness import build_timing
from repro.runtime import SerialExecutor
from repro.scenarios.registry import build_topology, timing_descriptor
from repro.scenarios.spec import CampaignSpec
from repro.sim.events import Event
from repro.sim.queue import EventQueue

FIXTURES = Path(__file__).parent / "fixtures"
RECORDS_FIXTURE = FIXTURES / "golden_records.jsonl"
TRACES_FIXTURE = FIXTURES / "golden_traces.json"
WORKLOAD_FIXTURE = FIXTURES / "golden_workload.jsonl"

#: (topology, timing) cells whose full traces are pinned byte-for-byte.
TRACE_CELLS = (("linear-3", "sync"), ("tree-2", "sync"), ("hub-3", "partial"))


def _golden_sweep():
    """The fixture campaign: graph shapes + all four protocols."""
    shapes = CampaignSpec(
        protocols=["timebounded"],
        timings=["sync", "partial"],
        adversaries=["none", "delayer"],
        topologies=["linear-3", "tree-2", "hub-3"],
        trials=2,
        seed=7,
        campaign_id="golden",
    )
    protocols = CampaignSpec(
        protocols=["htlc", "weak", "certified"],
        timings=["sync", "partial"],
        adversaries=["none"],
        topologies=["linear-3"],
        trials=2,
        seed=7,
        campaign_id="golden",
    )
    # Appended (not merged into the specs above) so the pre-port
    # fixture lines stay a byte-identical prefix: the graph cells of
    # the ported protocols, plus the multi-source shape for all four.
    graphs = CampaignSpec(
        protocols=["htlc", "weak", "certified"],
        timings=["sync"],
        adversaries=["none"],
        topologies=["tree-2", "hub-3", "fan-in-3"],
        trials=2,
        seed=7,
        campaign_id="golden",
    )
    fanin = CampaignSpec(
        protocols=["timebounded"],
        timings=["sync"],
        adversaries=["none"],
        topologies=["fan-in-3"],
        trials=2,
        seed=7,
        campaign_id="golden",
    )
    # PR 9 (crash-recovery): every protocol crashed at every declared
    # crash point, appended after the fan-in cells so all earlier lines
    # stay a byte-identical prefix.  These lines pin the recovery
    # machinery itself — crash scheduling, log replay, retransmission,
    # and the recovery record columns — against drift.
    recovery = CampaignSpec(
        protocols=["timebounded", "htlc", "weak", "certified"],
        timings=["sync"],
        adversaries=[
            "crash-restart-pre-decision-d1",
            "crash-restart-post-sign-pre-send-d1",
            "crash-restart-post-send-d1",
        ],
        topologies=["linear-3"],
        trials=2,
        seed=7,
        campaign_id="golden",
    )
    return (
        shapes.compile()
        .extend(protocols.compile())
        .extend(graphs.compile())
        .extend(fanin.compile())
        .extend(recovery.compile())
    )


def _record_lines() -> List[str]:
    """One canonical JSON line per campaign record, in spec order."""
    result = SerialExecutor().run(_golden_sweep())
    lines = []
    for record in result:
        assert record.error is None, record.error
        lines.append(
            json.dumps(
                {
                    "coords": list(record.spec.coords),
                    "seed": record.spec.seed,
                    "values": record.values,
                },
                sort_keys=True,
            )
        )
    return lines


def _trace_session(topology_name: str, timing_name: str) -> PaymentSession:
    """One pinned trace cell, run to completion."""
    topology = build_topology(topology_name, payment_id=f"golden-{topology_name}")
    session = PaymentSession(
        topology,
        "timebounded",
        build_timing(timing_descriptor(timing_name)),
        seed=11,
        rho=0.01,
        horizon=50_000.0,
        protocol_options={"delta": 1.0, "epsilon": 0.05},
    )
    session.run()
    return session


def _trace_document() -> str:
    """Canonical JSON of the full traces for the pinned cells."""
    traces = {}
    for topology_name, timing_name in TRACE_CELLS:
        session = _trace_session(topology_name, timing_name)
        traces[f"{topology_name}/{timing_name}"] = (
            session.env.sim.trace.to_dicts()
        )
    return json.dumps(traces, sort_keys=True, indent=1)


def _trace_document_hermetic() -> str:
    """The trace document from a fresh interpreter (stable msg_ids)."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--print-traces"],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        check=True,
    )
    return proc.stdout


def _workload_lines() -> List[str]:
    """Per-payment workload records, serialized exactly as the writer does.

    A small contention workload (two protocols × two loads, a mixed
    topology sampler, enough offered load for real liquidity failures)
    pins the whole concurrent pipeline byte-for-byte: arrival sampling,
    substrate admission order, shared-kernel interleaving, per-payment
    seed derivation, and the record expansion the CLI persists.
    """
    import json as _json

    from repro.runtime.persist import record_to_dict
    from repro.workload import WorkloadSpec, expand_cell_record

    sweep = WorkloadSpec(
        protocols=("htlc", "weak"),
        loads=(0.05, 1.0),
        count=8,
        topology_mix=(("linear-3", 2.0), ("tree-2", 1.0)),
        liquidity=250,
        seed=7,
        sweep_id="golden-workload",
    ).compile()
    lines: List[str] = []
    for cell_record in SerialExecutor().run(sweep):
        assert cell_record.error is None, cell_record.error
        for record in expand_cell_record(cell_record):
            lines.append(
                _json.dumps(record_to_dict(record), separators=(",", ":"))
            )
    return lines


def test_campaign_records_byte_identical_to_fixture():
    fixture = RECORDS_FIXTURE.read_text(encoding="utf-8")
    assert "\n".join(_record_lines()) + "\n" == fixture


def test_workload_records_byte_identical_to_fixture():
    fixture = WORKLOAD_FIXTURE.read_text(encoding="utf-8")
    assert "\n".join(_workload_lines()) + "\n" == fixture


def test_one_payment_workload_equals_campaign_trial():
    """A solo workload payment IS the campaign trial, value for value.

    For every protocol: a one-payment cell (uniform arrivals put it at
    t=0) must reproduce ``scenario_trial``'s record values exactly —
    same seed discipline, same event/message counts, same latency and
    guarantee verdicts — modulo the two workload-only columns.
    """
    from repro.runtime.spec import TrialSpec, derive_seed
    from repro.scenarios.registry import protocol_defaults
    from repro.scenarios.trial import scenario_trial
    from repro.workload import WorkloadSpec
    from repro.workload.runner import workload_cell

    for protocol in ("timebounded", "htlc", "weak", "certified"):
        cell = WorkloadSpec(
            protocols=(protocol,), loads=(0.05,), count=1, seed=42
        ).compile().trials[0]
        workload_values = dict(workload_cell(cell)["payments"][0])
        assert workload_values.pop("arrival_time") == 0.0
        assert workload_values.pop("liquidity_failed") is False
        defaults = protocol_defaults(protocol)
        solo = scenario_trial(
            TrialSpec(
                fn="repro.scenarios.trial:scenario_trial",
                coords=(protocol,),
                seed=derive_seed(cell.seed, 0),
                options={
                    "protocol": protocol,
                    "topology": "linear-3",
                    "timing": timing_descriptor("sync"),
                    "adversary": "none",
                    "horizon": defaults.horizon,
                    "rho": 0.0,
                    "protocol_options": dict(defaults.options),
                },
            )
        )
        assert workload_values == solo, protocol


def test_traces_byte_identical_to_fixture():
    fixture = TRACES_FIXTURE.read_text(encoding="utf-8")
    assert _trace_document_hermetic() == fixture


def test_traces_identical_without_slab_recycling(monkeypatch):
    """Off CPython the kernel's refcount probe reports 0: no event is
    recycled, and the pinned trace stays byte-identical."""
    import itertools

    from repro.net import message
    from repro.sim import kernel

    # Premise: on this interpreter the slab does recycle events.
    assert _trace_session("linear-3", "sync").env.sim._queue._free
    monkeypatch.setattr(kernel, "_getrefcount", lambda obj: 0)
    # The first pinned cell starts from a fresh msg-id counter, as in
    # the hermetic fixture run.
    monkeypatch.setattr(message, "_MSG_SEQ", itertools.count())
    session = _trace_session("linear-3", "sync")
    assert session.env.sim._queue._free == []
    fixture = json.loads(TRACES_FIXTURE.read_text(encoding="utf-8"))
    assert json.dumps(session.env.sim.trace.to_dicts(), sort_keys=True) == (
        json.dumps(fixture["linear-3/sync"], sort_keys=True)
    )


# -- EventQueue stress test ----------------------------------------------


class NaiveQueue:
    """Reference model: a plain list, min-by-sort-key on every pop."""

    def __init__(self) -> None:
        self.items: List[Event] = []

    def push(self, event: Event) -> None:
        self.items.append(event)

    def pop(self) -> Event:
        live = [e for e in self.items if e.alive]
        if not live:
            raise IndexError("empty")
        event = min(live, key=Event.sort_key)
        self.items.remove(event)
        return event

    def pop_due(self, until: Optional[float]) -> Optional[Event]:
        live = [e for e in self.items if e.alive]
        if not live:
            return None
        event = min(live, key=Event.sort_key)
        if until is not None and event.time > until:
            return None
        self.items.remove(event)
        return event

    def peek(self) -> Optional[Event]:
        live = [e for e in self.items if e.alive]
        return min(live, key=Event.sort_key) if live else None

    def clear(self) -> None:
        self.items.clear()

    def __len__(self) -> int:
        return sum(1 for e in self.items if e.alive)


def test_event_queue_stress_against_naive_reference():
    rng = random.Random(0xC0FFEE)
    queue, naive = EventQueue(), NaiveQueue()
    popped: List[Event] = []

    def new_event() -> Event:
        return Event(
            time=rng.choice([0.0, 1.0, 2.5, 2.5, 7.0, rng.random() * 10]),
            priority=rng.choice([0, 10, 10, 20, 40]),
            fn=lambda: None,
        )

    for step in range(4_000):
        op = rng.random()
        if op < 0.45:
            event = new_event()
            queue.push(event)
            naive.push(event)
        elif op < 0.60:
            # Cancel a random still-tracked event (live or not), the
            # way the kernel does: mark dead, then notify the queue.
            if naive.items:
                victim = rng.choice(naive.items)
                victim.cancel()
                queue.note_cancelled(victim)
        elif op < 0.80:
            expected = None
            try:
                expected = naive.pop()
            except IndexError:
                pass
            if expected is None:
                try:
                    queue.pop()
                    raise AssertionError("pop succeeded on empty queue")
                except IndexError:
                    pass
            else:
                got = queue.pop()
                assert got is expected, f"step {step}: heap order diverged"
                popped.append(got)
        elif op < 0.95:
            until = rng.choice([None, 1.0, 2.5, 5.0])
            expected = naive.pop_due(until)
            got = queue.pop_due(until)
            assert got is expected, f"step {step}: pop_due diverged"
            if got is not None:
                popped.append(got)
        else:
            queue.clear()
            naive.clear()

        # Invariants after every operation: exact live counts, and a
        # peek that agrees with the reference's minimum.
        assert len(queue) == len(naive), f"step {step}: live count diverged"
        assert queue.peek() is naive.peek(), f"step {step}: peek diverged"

    # Everything popped came out in globally consistent order per
    # drain segment; verify at least the keys are sorted between
    # consecutive pops that had no intervening push/clear is already
    # covered by the is-identity checks above.  Also: double cancel and
    # cancel-after-pop must not corrupt the count.
    if popped:
        survivor = popped[-1]
        survivor.cancel()
        queue.note_cancelled(survivor)
        assert len(queue) == len(naive)


def test_event_queue_counts_exact_after_cancel_pop_clear():
    queue = EventQueue()
    events = [Event(time=float(i % 3), priority=0, fn=lambda: None) for i in range(10)]
    for event in events:
        queue.push(event)
    assert len(queue) == 10
    events[0].cancel()
    queue.note_cancelled(events[0])
    queue.note_cancelled(events[0])  # double-cancel: no undercount
    assert len(queue) == 9
    first = queue.pop()
    first.cancel()
    queue.note_cancelled(first)  # cancel-after-pop: no phantom decrement
    assert len(queue) == 8
    queue.clear()
    assert len(queue) == 0
    for event in events:
        queue.note_cancelled(event)  # cancel-after-clear: still exact
    assert len(queue) == 0


def regenerate() -> None:
    """Rewrite the fixtures from the current tree (use with care)."""
    FIXTURES.mkdir(exist_ok=True)
    RECORDS_FIXTURE.write_text(
        "\n".join(_record_lines()) + "\n", encoding="utf-8"
    )
    TRACES_FIXTURE.write_text(_trace_document_hermetic(), encoding="utf-8")
    WORKLOAD_FIXTURE.write_text(
        "\n".join(_workload_lines()) + "\n", encoding="utf-8"
    )
    print(f"wrote {RECORDS_FIXTURE}, {TRACES_FIXTURE}, {WORKLOAD_FIXTURE}")


if __name__ == "__main__":
    if "--print-traces" in sys.argv:
        # Hermetic mode: a fresh interpreter runs only the pinned
        # cells, so process-global counters (msg ids) are reproducible.
        sys.stdout.write(_trace_document() + "\n")
    else:
        regenerate()
