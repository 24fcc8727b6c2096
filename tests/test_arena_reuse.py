"""Arena-reuse isolation: a recycled world must be indistinguishable.

The :class:`~repro.core.session.SessionArena` lifecycle resets the
simulator (keeping its recycled event slab), the network, and the
ledger shells between trials instead of rebuilding them.  These tests
pin the only property that makes the optimization admissible: a trial
run on a *reused* arena produces byte-identical records and traces to
the same trial on a freshly built world — across all four protocols,
path/tree/fan-in shapes, and a crash-restart cell.

Trace comparisons normalise ``msg_id`` values (drawn from a
process-global counter, so their absolute values depend on interpreter
history) by each trace's own first id; everything else — times, kinds,
actors, payloads, lock ids, event order — must match exactly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.core.session import PaymentSession, SessionArena
from repro.experiments.harness import build_timing
from repro.runtime.spec import TrialSpec
from repro.scenarios import trial as trial_module
from repro.scenarios.registry import (
    build_topology,
    protocol_defaults,
    timing_descriptor,
)
from repro.scenarios.trial import scenario_trial

PROTOCOLS = ("timebounded", "htlc", "weak", "certified")
TOPOLOGIES = ("linear-3", "tree-2", "fan-in-3")


def _spec(protocol: str, topology: str, adversary: str = "none", seed: int = 97):
    defaults = protocol_defaults(protocol)
    return TrialSpec(
        fn="repro.scenarios.trial:scenario_trial",
        coords=(protocol, topology, adversary),
        seed=seed,
        options={
            "protocol": protocol,
            "topology": topology,
            "timing": timing_descriptor("sync"),
            "adversary": adversary,
            "horizon": defaults.horizon,
            "rho": 0.0,
            "protocol_options": dict(defaults.options),
        },
    )


def _record_bytes(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True)


def _run_fresh_then_reused(spec) -> None:
    """First run populates the worker arena; repeats must reuse it."""
    trial_module._ARENAS.clear()
    fresh = _record_bytes(scenario_trial(spec))
    key = (spec.opt("protocol"), spec.opt("topology"))
    arena = trial_module._ARENAS[key]
    assert arena.runs == 1
    for repeat in range(2):
        reused = _record_bytes(scenario_trial(spec))
        assert reused == fresh, (spec.coords, repeat)
    assert arena.runs == 3
    assert trial_module._ARENAS[key] is arena


def test_scenario_trial_records_identical_on_reused_arena():
    for protocol in PROTOCOLS:
        for topology in TOPOLOGIES:
            _run_fresh_then_reused(_spec(protocol, topology))


def test_scenario_trial_reuse_across_interleaved_cells():
    """Trials of *different* cells between repeats must not leak state.

    The same worker interleaves many cells; each cell's arena must
    yield the same record no matter which other cells ran in between.
    """
    trial_module._ARENAS.clear()
    specs = [_spec(p, t) for p in PROTOCOLS for t in TOPOLOGIES]
    first = [_record_bytes(scenario_trial(s)) for s in specs]
    second = [_record_bytes(scenario_trial(s)) for s in reversed(specs)]
    assert first == list(reversed(second))


def test_scenario_trial_crash_restart_cell_on_reused_arena():
    """Crash-restart cells exercise durability + recovery on the arena."""
    for adversary in (
        "crash-restart-pre-decision-d1",
        "crash-restart-post-send-d1",
    ):
        for protocol in PROTOCOLS:
            _run_fresh_then_reused(_spec(protocol, "linear-3", adversary))


def test_honest_and_crash_cells_share_one_arena():
    """A crash trial between two honest trials must leave no residue
    (durability logs, fault flags, recovery events) in the arena."""
    trial_module._ARENAS.clear()
    honest = _spec("weak", "linear-3")
    crash = _spec("weak", "linear-3", "crash-restart-pre-decision-d1")
    before = _record_bytes(scenario_trial(honest))
    scenario_trial(crash)
    after = _record_bytes(scenario_trial(honest))
    assert before == after


# -- full-trace identity ---------------------------------------------------


def _normalized_trace(session: PaymentSession) -> List[Dict[str, Any]]:
    events = session.env.sim.trace.to_dicts()
    base = next((e["msg_id"] for e in events if "msg_id" in e), 0)
    out = []
    for event in events:
        event = dict(event)
        if "msg_id" in event:
            event["msg_id"] = event["msg_id"] - base
        out.append(event)
    return out


def _session(topology_name: str, protocol: str, arena=None) -> PaymentSession:
    topology = build_topology(topology_name, payment_id=f"arena-{topology_name}")
    defaults = protocol_defaults(protocol)
    session = PaymentSession(
        topology,
        protocol,
        build_timing(timing_descriptor("sync")),
        seed=23,
        rho=0.01,
        horizon=defaults.horizon,
        protocol_options=dict(defaults.options),
        arena=arena,
    )
    session.run()
    return session


def test_full_traces_identical_fresh_vs_reused_arena():
    for protocol, topology_name in (
        ("timebounded", "linear-3"),
        ("weak", "tree-2"),
        ("htlc", "fan-in-3"),
    ):
        fresh = _normalized_trace(_session(topology_name, protocol))
        arena = SessionArena()
        warm = _session(topology_name, protocol, arena=arena)
        # Warm-up run populated the arena; its trace must be consumed
        # before the next run resets the recorder in place.
        assert _normalized_trace(warm) == fresh
        reused = _normalized_trace(_session(topology_name, protocol, arena=arena))
        assert reused == fresh, (protocol, topology_name)
        assert arena.runs == 2


def test_arena_recycles_world_objects_and_event_slab():
    """The point of the arena: object identity (and the slab) survive."""
    arena = SessionArena()
    first = _session("linear-3", "timebounded", arena=arena)
    sim = first.env.sim
    network = first.env.network
    ledgers = dict(first.env.ledgers)
    assert sim._free, "a finished run should have recycled events"
    # Scheduling pops shells off the tail of the free list, so this
    # exact object must be the reused run's first allocation; a changed
    # seq proves it went through the kernel again.
    shell = sim._free[-1]
    seq_before = shell.seq
    second = _session("linear-3", "timebounded", arena=arena)
    assert second.env.sim is sim
    assert second.env.network is network
    for name, ledger in second.env.ledgers.items():
        assert ledger is ledgers[name]
    assert shell.seq != seq_before, "slab shell was not recycled"
    assert sim._free, "slab must survive the reset"
