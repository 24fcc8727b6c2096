"""The completion latch: a session ends in the event its last gating
process terminates, counted once per process by ``Process.terminate``."""

from __future__ import annotations

import pytest

from repro.core.session import DEFAULT_HORIZON, PaymentSession
from repro.core.topology import PaymentTopology
from repro.net.timing import Synchronous
from repro.protocols.base import create_protocol
from repro.scenarios.registry import build_topology, make_adversary
from repro.scenarios.trial import fault_injector
from repro.sim.faults import CRASH_POINTS
from repro.sim.kernel import Simulator
from repro.sim.process import Latch, Process
from repro.workload.runner import run_workload_cell

PROTOCOLS = ("timebounded", "weak", "certified", "htlc")


def test_a_process_outside_the_gating_set_does_not_count():
    sim = Simulator()
    a, b, chain = (Process(sim, name) for name in ("a", "b", "chain"))
    zeros = []
    sim.latch = Latch([a, b], lambda: zeros.append("zero"))
    chain.terminate()
    a.terminate()
    a.terminate()
    assert zeros == [] and sim.latch.pending == {b}
    b.terminate()
    assert zeros == ["zero"]
    # Nothing left to wait for: the latch fires as it is built.
    Latch([a, b, chain], lambda: zeros.append("at once"))
    assert zeros == ["zero", "at once"]


@pytest.mark.parametrize(
    "pending_at, end_time, events",
    [(7.0, 7.0, 1), (None, 500.0, 0)],
    ids=["heap-non-empty", "heap-empty"],
)
def test_a_session_done_in_start_ends_after_its_first_event(
    pending_at, end_time, events
):
    """Every participant terminates inside ``start()``: completion is
    judged after the first event, or at the horizon when none is due."""

    def protocol(env):
        if pending_at is not None:
            env.sim.schedule_at(pending_at, lambda: None)
        return create_protocol("timebounded", env)

    topology = PaymentTopology.linear(2)
    session = PaymentSession(
        topology,
        protocol,
        Synchronous(1.0),
        byzantine={name: "crash_immediately" for name in topology.participants()},
        horizon=500.0,
    )
    outcome = session.run()
    assert outcome.all_participants_terminated()
    assert (outcome.end_time, outcome.events_executed) == (end_time, events)


def test_a_workload_payment_done_in_its_arrival_event_is_finalized_after_it(
    monkeypatch,
):
    launch = PaymentSession.launch

    def launch_and_terminate(session):
        participants = launch(session)
        for process in participants:
            process.terminate("done at arrival")
        return participants

    monkeypatch.setattr(PaymentSession, "launch", launch_and_terminate)
    cell = run_workload_cell(
        protocol="timebounded", count=4, load=0.5, liquidity=10**6, seed=3
    )
    payments = cell["payments"]
    assert not any(values["liquidity_failed"] for values in payments)
    assert [(v["latency"], v["events"]) for v in payments] == [(0.0, 0)] * 4
    # The last payment finishes the cell in its own arrival event.
    assert cell["makespan"] == payments[-1]["arrival_time"] > 0.0


def test_a_payment_cut_off_by_its_deadline_is_finalized_once():
    """Its participants still terminate after the deadline; the latch
    it leaves on its view must not finalize it a second time."""
    cell = run_workload_cell(
        protocol="timebounded", count=4, load=0.5, liquidity=10**6,
        horizon=3.0, seed=3,
    )
    assert [(v["latency"], v["all_terminated"]) for v in cell["payments"]] == [
        (3.0, False)
    ] * 4


@pytest.mark.parametrize("point", CRASH_POINTS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_crashed_victim_counts_once_after_it_recovers(
    protocol, point, monkeypatch
):
    counted = []
    count = Latch.count

    def spy(latch, process):
        if process in latch.pending:
            counted.append((process.name, process.crashed, process.sim.now))
        count(latch, process)

    monkeypatch.setattr(Latch, "count", spy)
    topology = build_topology("linear-3")
    adversary = make_adversary(f"crash-restart-{point}-d1", topology)
    injector = fault_injector(adversary)
    outcome = PaymentSession(
        topology, protocol, Synchronous(1.0), adversary=adversary,
        faults=injector, seed=1,
    ).run()
    assert injector.crashed_at < injector.recovered_at
    names = [name for name, _, _ in counted]
    assert len(names) == len(set(names))
    ((crashed, at),) = [(c, t) for n, c, t in counted if n == injector.victim]
    assert not crashed and at >= injector.recovered_at
    if outcome.all_participants_terminated():
        # The run ends in the event that empties the latch, which the
        # victim holds for as long as it is down.
        assert outcome.end_time == max(t for _, _, t in counted)
    else:
        assert outcome.end_time == DEFAULT_HORIZON
