"""The shared campaign trial: one scenario cell, one payment run.

Every campaign cell executes this single module-level function (so it
resolves by ``module:qualname`` from worker processes).  It assembles
the whole world — simulator, network with timing model and adversary,
ledgers, clocks, protocol — from the primitive options a
:class:`~repro.scenarios.spec.ScenarioSpec` compiled into the trial
spec, runs the payment, and returns the outcome / latency / abort
columns the campaign table aggregates, plus the Definition 1/2
property columns computed by the shared checker
(:mod:`repro.verification.properties`) — so campaign tables report not
just *what happened* but *whether the paper's guarantees held*.  The
columns come from :func:`payment_values`, which the workload runner
uses for each of its concurrent payments too, so a campaign record and
a workload payment record are built by one function.

Assembly is memoized per worker process: campaigns run the same few
cells thousands of times, so the topology (validated + derived tables),
timing model, and adversary are each built once per distinct option set
and reused.  Topologies are immutable and shared via
:meth:`~repro.core.topology.PaymentGraph.with_payment_id` relabelling;
timing models are stateless; adversaries are stateful and therefore
:meth:`~repro.net.adversary.Adversary.reset` before every run.  The
mutable world itself — simulator, network, ledgers — lives in a
per-(protocol, topology) :class:`~repro.core.session.SessionArena`
that each trial *resets* instead of rebuilding, so the kernel's
recycled event slab survives from trial to trial and steady-state
cells allocate no events at all.  None of this changes any trial's
event sequence or RNG draws — it only skips redundant construction
work.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..net.adversary import CrashRestartAdversary
from ..protocols.base import protocol_class
from ..runtime.spec import TrialSpec
from ..sim.faults import FaultInjector
from ..verification import properties

#: topology name -> validated template graph with warmed derived tables.
_TOPOLOGY_TEMPLATES: Dict[str, Any] = {}

#: hashable timing descriptor -> built (stateless) timing model.
_TIMING_MODELS: Dict[Tuple[str, Tuple[Tuple[str, float], ...]], Any] = {}

#: (adversary name, topology name) -> adversary instance (reset per use).
_ADVERSARIES: Dict[Tuple[str, str], Any] = {}

#: (protocol, topology name) -> reusable
#: :class:`~repro.core.session.SessionArena`: the cell's simulator
#: (with its recycled event slab), network, and ledger shells, reset —
#: not rebuilt — for every trial.  Like the template caches above this
#: is per worker process, and it extends them from read-only shapes to
#: the full mutable world.
_ARENAS: Dict[Tuple[str, str], Any] = {}


def _topology_for(name: str, payment_id: str) -> Any:
    """The named topology, relabelled for this trial.

    The template is built (and its Kahn validation + cached derived
    tables paid for) once per worker; every trial gets a shallow clone
    sharing the frozen edges and warmed caches under its own
    ``payment_id``.
    """
    template = _TOPOLOGY_TEMPLATES.get(name)
    if template is None:
        from .registry import build_topology

        template = build_topology(name, payment_id=name)
        # Touch the derived tables once so every relabelled clone
        # inherits them pre-computed.
        template.leaves, template.depth, template.participants()
        template.amounts, template.assets
        _TOPOLOGY_TEMPLATES[name] = template
    return template.with_payment_id(payment_id)


def _timing_for(descriptor: Any) -> Any:
    """The (stateless) timing model for a primitive descriptor."""
    kind, params = descriptor
    key = (kind, tuple(sorted(params.items())))
    model = _TIMING_MODELS.get(key)
    if model is None:
        from ..experiments.harness import build_timing

        model = _TIMING_MODELS[key] = build_timing(descriptor)
    return model


def _adversary_for(name: str, topology: Any, topology_name: str) -> Any:
    """The named adversary, reset for this trial.

    Keyed by ``(adversary, topology name)`` because targeted adversaries
    (``bob-edge``) resolve victim links from the graph *shape*, which is
    a function of the topology name alone — the per-trial ``payment_id``
    relabelling never changes links.
    """
    key = (name, topology_name)
    if key in _ADVERSARIES:
        adversary = _ADVERSARIES[key]
    else:
        from .registry import make_adversary

        adversary = _ADVERSARIES[key] = make_adversary(name, topology)
    if adversary is not None:
        adversary.reset()
    return adversary


def fault_injector(adversary: Any) -> Any:
    """The live fault injector a crash-restart adversary plans, else ``None``.

    The adversary is a fault *plan*; the injector is stateful
    (crash/recovery timestamps) and therefore built fresh per payment.
    """
    if not isinstance(adversary, CrashRestartAdversary):
        return None
    return FaultInjector(adversary.victim, adversary.point, adversary.downtime)


def payment_values(
    outcome: Any,
    topology: Any,
    *,
    protocol: str,
    timing: Any,
    protocol_options: Any,
    latency: float,
    events: int,
    faults: Any = None,
) -> Dict[str, Any]:
    """The record columns of one finished payment.

    The single builder behind campaign trial records and workload
    per-payment records (which append ``arrival_time`` and
    ``liquidity_failed``), so the two can only differ in the
    ``latency`` and ``events`` their caller measures: a solo trial's
    run end and event count, or a concurrent payment's own span and
    the kernel events executed during it.
    """
    decisions = outcome.decision_kinds_issued()
    values = {
        "bob_paid": outcome.bob_paid,
        "chi_issued": outcome.chi_issued(),
        "committed": "commit" in decisions,
        "aborted": "abort" in decisions,
        "all_terminated": outcome.all_participants_terminated(),
        "ledgers_ok": all(outcome.ledger_audits.values()),
        "latency": latency,
        "messages": outcome.messages_sent,
        "events": events,
        # Shape columns: recipient count and longest source-to-sink hop
        # count, so persisted records slice by topology *shape* (a
        # tree-2 cell reports leaves=4, depth=2; every linear-N cell
        # reports leaves=1, depth=N).
        "leaves": topology.leaves,
        "depth": topology.depth,
    }
    if faults is not None:
        # Recovery columns appear only on crash-restart cells, so every
        # other record stays byte-identical.
        values["crashed"] = faults.crashed_at is not None
        values["crash_point"] = faults.point
        values["crash_downtime"] = faults.downtime
        values["recovered_at"] = faults.recovered_at
    values.update(
        properties.property_columns(
            outcome,
            protocol=protocol,
            timing=timing,
            protocol_options=protocol_options,
        )
    )
    return values


def refused_payment_values(topology: Any, protocol: str) -> Dict[str, Any]:
    """The :func:`payment_values` columns of a payment that never launched.

    Nothing moved and nothing was put at risk: no payment, no decision,
    zero latency and traffic, clean ledgers, and ``None`` definition
    verdicts (the checkers never ran).
    """
    return {
        "bob_paid": False,
        "chi_issued": False,
        "committed": False,
        "aborted": False,
        "all_terminated": True,
        "ledgers_ok": True,
        "latency": 0.0,
        "messages": 0,
        "events": 0,
        "leaves": topology.leaves,
        "depth": topology.depth,
        "definition": protocol_class(protocol).definition,
        "def1_ok": None,
        "def2_ok": None,
        "violated_properties": [],
    }


def scenario_trial(spec: TrialSpec) -> Dict[str, Any]:
    """Run one scenario trial; pure function of its spec."""
    from ..core.session import PaymentSession, SessionArena
    from ..sim.trace import CHECKER_KINDS

    payment_id = "-".join(str(c) for c in spec.coords) or "campaign"
    topology_name = spec.opt("topology")
    topology = _topology_for(topology_name, payment_id)
    # Campaign records consume nothing beyond the checker-relevant trace
    # kinds, so trials default to reduced-detail recording; pass
    # ``trace_level="full"`` in the cell options to keep everything.
    trace_kinds: Optional[Any] = (
        None if spec.opt("trace_level", None) == "full" else CHECKER_KINDS
    )
    adversary = _adversary_for(spec.opt("adversary"), topology, topology_name)
    injector = fault_injector(adversary)
    protocol_name = spec.opt("protocol")
    arena_key = (protocol_name, topology_name)
    arena = _ARENAS.get(arena_key)
    if arena is None:
        arena = _ARENAS[arena_key] = SessionArena()
    session = PaymentSession(
        topology,
        protocol_name,
        _timing_for(spec.opt("timing")),
        adversary=adversary,
        seed=spec.seed,
        rho=spec.opt("rho", 0.0),
        horizon=spec.opt("horizon"),
        protocol_options=dict(spec.opt("protocol_options") or {}),
        trace_kinds=trace_kinds,
        faults=injector,
        arena=arena,
    )
    outcome = session.run()
    # With the horizon-binding clock fix, end_time is the horizon
    # itself when the run never settles — an honest latency.
    return payment_values(
        outcome,
        topology,
        protocol=protocol_name,
        timing=spec.opt("timing"),
        protocol_options=spec.opt("protocol_options"),
        latency=outcome.end_time,
        events=outcome.events_executed,
        faults=injector,
    )


__all__ = [
    "fault_injector",
    "payment_values",
    "refused_payment_values",
    "scenario_trial",
]
