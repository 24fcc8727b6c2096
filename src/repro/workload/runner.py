"""Run one workload cell: many payments interleaved on one shared kernel.

A *cell* is one (protocol, offered load) point of a workload sweep.  It
schedules ``count`` payment arrivals on a single
:class:`~repro.sim.kernel.Simulator`, admits each against the shared
:class:`~repro.workload.substrate.LiquiditySubstrate`, and launches the
admitted ones as concurrent :class:`~repro.core.session.PaymentSession`s
— each behind its own :class:`~repro.sim.view.SessionView`, so sessions
share the event queue and the global clock but keep private RNG streams
and traces.  Events of different payments genuinely interleave; a
payment can fail at admission because a sibling's reservations hold the
pool (``liquidity_failed``), and that is the *only* new failure mode —
every launched payment keeps the paper's per-payment guarantees.

Per-payment determinism
-----------------------
Payment *k*'s seed is ``derive_seed(cell_seed, k)`` and its RNG streams
live on its own view, so its delays/clocks/choices are a pure function
of the cell spec — independent of which siblings are in flight.  A
one-payment cell at a uniform arrival (time 0) therefore reproduces the
equivalent solo campaign trial's record values exactly.

Per-payment records
-------------------
Each payment yields the campaign trial's columns (``bob_paid`` ...
``def1_ok`` / ``def2_ok``, built by the same
:func:`~repro.scenarios.trial.payment_values`) plus ``arrival_time``
and ``liquidity_failed``.  Two columns read differently under concurrency:
``latency`` is the payment's own span (finalize time − arrival), and
``events`` counts *kernel* events executed during the payment's
lifetime — a contention measure that includes sibling activity (it
equals the solo event count when the payment runs alone).  A
liquidity-failed payment records ``def1_ok = def2_ok = None`` (the
guarantee checkers never ran — it never launched), zero latency and
traffic, and still-true ``ledgers_ok`` (nothing was put at risk).

Each launched payment is finalized either when all its participants
terminated or at its own deadline ``arrival + horizon`` (a low-priority
kernel event, so the per-payment horizon stays inclusive exactly like
``Simulator.run(until=...)``).  Termination is counted by the payment's
completion :class:`~repro.sim.process.Latch`, which sits on its view:
the termination that empties it queues the payment and stops the
kernel, so the cell finalizes it after that event — at the instant and
event count a solo run stops at — and runs on.

What a finished payment leaves
------------------------------
Finalizing a payment drops the cell's last reference to its session,
so its world is freed by reference counting right then, and a cell's
memory follows the payments in flight rather than the payments run.
The kernel keeps two shells that reach none of it: the payment's
cancelled deadline, which stays in the heap until the cell ends (the
kernel discards a cancelled event only when it reaches the head), and,
for a chain-backed payment (``certified``, or ``weak`` with
``tm=contract``), its chain's parked block tick, which keeps firing
(and counting in ``kernel_events``) until the cell ends.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..errors import ExperimentError, WorkloadError
from ..runtime.spec import TrialSpec, derive_seed
from ..sim.kernel import Simulator
from ..sim.process import Latch
from ..sim.rng import RngRegistry
from ..sim.trace import TraceRecorder
from ..sim.view import SessionView
from .arrivals import arrival_times
from .spec import sample_topologies
from .substrate import LiquiditySubstrate

#: Deadline finalizers run after every ordinary event at their instant
#: (ordinary priorities are <= MONITOR = 40), keeping the per-payment
#: horizon inclusive like the solo path's ``run(until=horizon)``.
DEADLINE_PRIORITY = 90


class _LivePayment:
    """Book-keeping for one launched, not-yet-finalized payment."""

    __slots__ = (
        "index",
        "arrival",
        "deadline",
        "topology",
        "session",
        "baseline",
        "deadline_event",
        "faults",
        "kind",
        "arena",
    )


def run_workload_cell(
    *,
    protocol: str,
    count: int,
    load: float,
    timing: Any = "sync",
    adversary: str = "none",
    topology_mix: Sequence[Sequence[Any]] = (("linear-3", 1.0),),
    arrivals: str = "uniform",
    liquidity: int = 250,
    horizon: Optional[float] = None,
    rho: float = 0.0,
    protocol_options: Optional[Dict[str, Any]] = None,
    seed: int = 0,
    trace_level: Optional[str] = None,
    audit: Optional[str] = None,
    payment_label: str = "workload",
) -> Dict[str, Any]:
    """Run ``count`` payments at offered load ``load`` on one kernel.

    ``timing`` accepts a registry name or a primitive descriptor;
    ``protocol_options`` reach every session as given (a
    :class:`~repro.workload.spec.WorkloadSpec` cell carries the
    protocol class's ``sweep_defaults`` with its overrides merged over
    them); ``horizon`` is the *per-payment* deadline span
    (:data:`~repro.scenarios.registry.DEFAULT_HORIZON` when ``None``).
    ``audit="every-op"`` re-checks every payment ledger's conservation
    audit and the substrate's global conservation after *every*
    mutating ledger operation — the invariant-harness mode; it changes
    no behavior, only verifies.

    Returns the cell summary with the per-payment value dicts under
    ``"payments"`` (arrival order — payment ``k``'s record is entry
    ``k``).
    """
    from ..core.session import PaymentSession, SessionArena
    from ..scenarios.registry import (
        DEFAULT_HORIZON,
        make_adversary,
        timing_descriptor,
    )
    from ..scenarios.trial import (
        _timing_for,
        _topology_for,
        fault_injector,
        payment_values,
        refused_payment_values,
    )
    from ..sim.trace import CHECKER_KINDS

    if count < 1:
        raise WorkloadError(f"payment count must be >= 1, got {count}")
    descriptor = timing_descriptor(timing) if isinstance(timing, str) else timing
    timing_model = _timing_for(descriptor)
    if horizon is None:
        horizon = DEFAULT_HORIZON
    protocol_options = protocol_options or {}
    trace_kinds = None if trace_level == "full" else CHECKER_KINDS

    # Cell-level randomness: arrivals and topology sampling draw from
    # named streams of the cell seed, never from any session's streams.
    # Topology kinds come from the same pure helper payment_specs uses,
    # so a payment record's `topology` option is the kind it actually ran.
    registry = RngRegistry(seed)
    times = arrival_times(arrivals, count, load, registry.stream("workload.arrivals"))
    kinds = sample_topologies(seed, count, topology_mix)

    kernel = Simulator(seed=seed)
    substrate = LiquiditySubstrate(liquidity)
    results: List[Optional[Dict[str, Any]]] = [None] * count
    # Payments whose latch emptied in the event the kernel last ran.
    completed: List[_LivePayment] = []
    finished = 0
    audit_ops = 0
    # Retired session arenas by topology kind: a payment that finished
    # *quiescent* — every participant terminated and no delivery still
    # in flight — returns its view/network/ledger shells here, and a
    # later arrival of the same shape resets them instead of
    # rebuilding.  A payment cut off by its deadline (or with messages
    # still in the queue) never recycles: its stale events may yet
    # fire, and they must keep hitting the old world's tables, exactly
    # as they did before arenas existed.
    arenas: Dict[str, List[SessionArena]] = {}

    observer = None
    if audit == "every-op":

        def observer(ledger, op: str) -> None:
            nonlocal audit_ops
            audit_ops += 1
            if not ledger.audit_ok():
                raise WorkloadError(
                    f"ledger {ledger.name!r} broke conservation after "
                    f"{op!r} at t={kernel.now:.6g}"
                )
            if not substrate.conserved():
                raise WorkloadError(
                    f"substrate broke global conservation after {op!r} "
                    f"on {ledger.name!r} at t={kernel.now:.6g}"
                )

    elif audit is not None:
        raise WorkloadError(f"unknown audit mode {audit!r}; use 'every-op'")

    def _record(index: int, values: Dict[str, Any]) -> None:
        nonlocal finished
        results[index] = values
        finished += 1
        if finished == count:
            kernel.stop()

    def _finalize(
        entry: _LivePayment, end_time: float, events: int, quiescent: bool = False
    ) -> None:
        # A payment cut off by its deadline may still terminate later;
        # its latch must not report it again.
        entry.session.env.sim.latch = None
        outcome = entry.session.collect(end_time=end_time, events_executed=events)
        substrate.retire(entry.topology.payment_id, entry.session.env.ledgers)
        values = payment_values(
            outcome,
            entry.topology,
            protocol=protocol,
            timing=descriptor,
            protocol_options=protocol_options,
            latency=end_time - entry.arrival,
            events=events,
            faults=entry.faults,
        )
        values["arrival_time"] = entry.arrival
        values["liquidity_failed"] = False
        _record(entry.index, values)
        if quiescent:
            stats = entry.session.env.network.stats
            if stats.delivered == stats.sent:
                arenas.setdefault(entry.kind, []).append(entry.arena)

    def _expire(entry: _LivePayment) -> None:
        # The deadline tick itself is not one of the payment's events.
        events = kernel.executed_events - entry.baseline - 1
        _finalize(entry, entry.deadline, events)

    def _complete(entry: _LivePayment) -> None:
        completed.append(entry)
        kernel.stop()

    def _arrive(index: int) -> None:
        payment_id = f"{payment_label}-p{index}"
        topology = _topology_for(kinds[index], payment_id)
        if not substrate.admit(topology):
            values = refused_payment_values(topology, protocol)
            values["arrival_time"] = times[index]
            values["liquidity_failed"] = True
            _record(index, values)
            return
        payment_seed = derive_seed(seed, index)
        free = arenas.get(kinds[index])
        arena = free.pop() if free else SessionArena()
        if arena.sim is not None:
            # Populated arena: the session resets the arena's own view
            # (new seed, new trace) during its build.
            view = arena.sim
        else:
            view = SessionView(
                kernel,
                seed=payment_seed,
                trace=(
                    TraceRecorder(keep=trace_kinds)
                    if trace_kinds is not None
                    else TraceRecorder()
                ),
            )
        fund = substrate.funding_hook()
        if observer is not None:
            inner_fund = fund

            def fund(topology, ledgers, _fund=inner_fund):
                for ledger in ledgers.values():
                    ledger.observer = observer
                _fund(topology, ledgers)

        # Fresh adversary per payment: campaign trials reuse one cached
        # instance with reset-between-runs, which is only sound because
        # solo runs never overlap; workload sessions do.
        payment_adversary = make_adversary(adversary, topology)
        injector = fault_injector(payment_adversary)
        session = PaymentSession(
            topology,
            protocol,
            timing_model,
            adversary=payment_adversary,
            seed=payment_seed,
            rho=rho,
            horizon=horizon,
            protocol_options=protocol_options,
            trace_kinds=trace_kinds,
            sim=view,
            funding=fund,
            faults=injector,
            arena=arena,
        )
        participants = session.launch()
        entry = _LivePayment()
        entry.kind = kinds[index]
        entry.arena = arena
        entry.index = index
        entry.arrival = times[index]
        entry.deadline = times[index] + horizon
        entry.topology = topology
        entry.session = session
        entry.baseline = kernel.executed_events
        entry.faults = injector
        entry.deadline_event = kernel.schedule_at(
            entry.deadline, _expire, entry,
            priority=DEADLINE_PRIORITY, label="workload.deadline",
        )
        view.latch = Latch(participants, lambda: _complete(entry))

    for index in range(count):
        kernel.schedule_at(times[index], _arrive, index, label="workload.arrival")
    # Every arrival and deadline lies within `end`, so a run that is
    # not stopped leaves every payment finished.
    end = times[-1] + horizon
    while finished < count:
        kernel.run(until=end)
        for entry in completed:
            kernel.cancel(entry.deadline_event)
            _finalize(
                entry,
                kernel.now,
                kernel.executed_events - entry.baseline,
                quiescent=True,
            )
        completed.clear()

    failures = sum(1 for values in results if values["liquidity_failed"])
    return {
        "payments": results,
        "count": count,
        "load": load,
        "liquidity_failures": failures,
        "liquidity_failure_rate": failures / count,
        "conserved": substrate.conserved(),
        "in_flight_at_end": substrate.in_flight_payments(),
        "pool_capacity": liquidity,
        "pools": substrate.pool_count,
        "makespan": kernel.now,
        "kernel_events": kernel.executed_events,
        "audited_ops": audit_ops,
    }


def workload_cell(spec: TrialSpec) -> Dict[str, Any]:
    """Run one workload cell; pure function of its trial spec."""
    return run_workload_cell(
        protocol=spec.opt("protocol"),
        count=spec.opt("count"),
        load=spec.opt("load"),
        timing=spec.opt("timing"),
        adversary=spec.opt("adversary", "none"),
        topology_mix=spec.opt("topology_mix"),
        arrivals=spec.opt("arrivals", "uniform"),
        liquidity=spec.opt("liquidity"),
        horizon=spec.opt("horizon"),
        rho=spec.opt("rho", 0.0),
        protocol_options=spec.opt("protocol_options"),
        seed=spec.seed,
        trace_level=spec.opt("trace_level", None),
        audit=spec.opt("audit", None),
        payment_label="-".join(str(c) for c in spec.coords) or "workload",
    )


def workload_payment(spec: TrialSpec) -> Dict[str, Any]:
    """Marker trial fn for per-payment records (never executed).

    The workload CLI persists one record per *payment* under this
    reference — expanded in the parent process from the cell results —
    so analysis tools see per-payment rows.  The records are expansion
    artifacts; re-running one directly is not meaningful.
    """
    raise ExperimentError(
        "workload payment records are expanded from cell results by the "
        "workload CLI; re-run the workload instead of this record"
    )


__all__ = [
    "DEADLINE_PRIORITY",
    "run_workload_cell",
    "workload_cell",
    "workload_payment",
]
