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

The module also stress-tests the kernel's event heap against a naive
reference under a randomized schedule/cancel/step/run/reset mix, with
slab recycling on and off, checking the firing order and
``pending_events`` after every operation.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path
from typing import List, Optional

import pytest

from repro.core.session import PaymentSession
from repro.experiments.harness import build_timing
from repro.runtime import SerialExecutor
from repro.scenarios.registry import build_topology, timing_descriptor
from repro.scenarios.spec import CampaignSpec
from repro.sim import kernel
from repro.sim.events import Event
from repro.sim.kernel import Simulator

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
    from repro.protocols.base import protocol_class
    from repro.scenarios.registry import DEFAULT_HORIZON
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
                    "horizon": DEFAULT_HORIZON,
                    "rho": 0.0,
                    "protocol_options": dict(
                        protocol_class(protocol).sweep_defaults
                    ),
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

    # Premise: on this interpreter the slab does recycle events.
    assert _trace_session("linear-3", "sync").env.sim._free
    monkeypatch.setattr(kernel, "_getrefcount", lambda obj: 0)
    # The first pinned cell starts from a fresh msg-id counter, as in
    # the hermetic fixture run.
    monkeypatch.setattr(message, "_MSG_SEQ", itertools.count())
    session = _trace_session("linear-3", "sync")
    assert session.env.sim._free == []
    fixture = json.loads(TRACES_FIXTURE.read_text(encoding="utf-8"))
    assert json.dumps(session.env.sim.trace.to_dicts(), sort_keys=True) == (
        json.dumps(fixture["linear-3/sync"], sort_keys=True)
    )


# -- kernel heap stress test ---------------------------------------------


class NaiveQueue:
    """Reference model: a plain list, min-by-sort-key on every pop."""

    def __init__(self) -> None:
        self.items: List[Event] = []

    def push(self, event: Event) -> None:
        self.items.append(event)

    def discard(self, event: Event) -> None:
        self.items.remove(event)

    def peek(self) -> Optional[Event]:
        return min(self.items, key=Event.sort_key) if self.items else None

    def pop(self) -> Event:
        event = min(self.items, key=Event.sort_key)
        self.items.remove(event)
        return event

    def due(self, until: float) -> int:
        return sum(1 for event in self.items if event.time <= until)

    def clear(self) -> None:
        self.items.clear()

    def __len__(self) -> int:
        return len(self.items)


@pytest.mark.parametrize("recycling", [True, False], ids=["slab", "no-slab"])
def test_kernel_stress_against_naive_reference(recycling, monkeypatch):
    """Random schedule/cancel/step/run/reset mix on one kernel.

    Each callback checks that its event is the reference's minimum and
    pops it there, so once a callback returns only the kernel holds the
    event and the slab may recycle it.  A few spent handles are kept to
    cancel again: repeated, after firing, and after a reset.
    """
    if not recycling:
        monkeypatch.setattr(kernel, "_getrefcount", lambda obj: 0)
    rng = random.Random(0xC0FFEE)
    sim, naive = Simulator(), NaiveQueue()
    spent: deque = deque(maxlen=8)
    fired: List[int] = []
    recycled = 0

    def fire(token: int) -> None:
        event = naive.pop()
        assert event.fired and event.args == (token,), "heap order diverged"
        assert sim.now == event.time
        fired.append(token)
        if rng.random() < 0.1:
            spent.append(event)

    for step in range(4_000):
        op = rng.random()
        now = sim.now
        if op < 0.40:
            delay = rng.choice([0.0, 1.0, 2.5, 2.5, 7.0, rng.random() * 10])
            priority = rng.choice([0, 10, 10, 20, 40])
            recycled += bool(sim._free)
            if rng.random() < 0.5:
                event = sim.schedule_at(now + delay, fire, step, priority=priority)
            else:
                event = sim.schedule(delay, fire, step, priority=priority)
            naive.push(event)
            del event
        elif op < 0.55:
            if naive:
                victim = rng.choice(naive.items)
                sim.cancel(victim)
                naive.discard(victim)
                if rng.random() < 0.5:
                    spent.append(victim)
                del victim
        elif op < 0.62:
            if spent:
                handle = rng.choice(spent)
                was_fired = handle.fired
                sim.cancel(handle)
                assert handle.cancelled != was_fired
                del handle
        elif op < 0.77:
            pending = bool(naive)
            assert sim.step() == pending, f"step {step}: step diverged"
            if not pending:
                assert sim.now == now
        elif op < 0.87:
            until = now + rng.choice([0.0, 0.5, 1.0, 2.5, 5.0])
            head = naive.peek()
            expected = 1 if head is not None and head.time <= until else 0
            del head
            ran = sim.run(until=until, max_events=1)
            assert ran == expected, f"step {step}: run(max_events=1) diverged"
            if not expected:
                assert sim.now == until
        elif op < 0.97:
            until = now + rng.choice([0.0, 1.0, 2.5, 5.0, 10.0])
            expected = naive.due(until)
            assert sim.run(until=until) == expected, f"step {step}: run diverged"
            assert sim.now == until
        else:
            spent.extend(naive.items[:2])
            naive.clear()
            sim.reset(seed=step)

        assert sim.pending_events == len(naive), f"step {step}: count diverged"
        if not recycling:
            assert sim._free == []

    assert len(fired) > 500
    assert (recycled > 0) == recycling


def test_kernel_counts_exact_after_cancel_fire_reset():
    sim = Simulator()
    events = [sim.schedule_at(float(i % 3), lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    sim.cancel(events[0])
    sim.cancel(events[0])  # double cancel: counted once
    assert sim.pending_events == 9
    assert sim.step()
    first = next(event for event in events if event.fired)
    sim.cancel(first)  # cancel after firing: a no-op
    assert not first.cancelled and sim.pending_events == 8
    sim.reset()
    assert sim.pending_events == 0
    for event in events:
        sim.cancel(event)  # cancel after reset: still exact
    assert sim.pending_events == 0
    sim.schedule(1.0, lambda: None)
    assert sim.pending_events == 1


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
