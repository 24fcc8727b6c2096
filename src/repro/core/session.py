"""The session facade: build, run, and collect one cross-chain payment.

:class:`PaymentSession` is the library's main entry point.  It

1. constructs the world — simulator, network (with a timing model and
   optional adversary), key ring, one ledger per escrow, funded
   accounts, and per-participant drifting clocks;
2. asks a protocol (resolved from the registry by name, or given as a
   factory) to build its participants;
3. runs the simulation until every protocol participant terminated or a
   horizon is hit;
4. returns a :class:`~repro.core.outcomes.PaymentOutcome`.

Example
-------
>>> from repro.core.session import PaymentSession
>>> from repro.core.topology import PaymentTopology
>>> from repro.net.timing import Synchronous
>>> topo = PaymentTopology.linear(3)
>>> session = PaymentSession(topo, "timebounded", Synchronous(delta=1.0))
>>> outcome = session.run()
>>> outcome.bob_paid
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

from ..clocks import DriftingClock, PERFECT_CLOCK, random_clock
from ..crypto.keys import Identity, KeyRing
from ..errors import ProtocolError
from ..ledger.ledger import Ledger
from ..net.adversary import Adversary
from ..net.network import Network
from ..net.timing import TimingModel
from ..sim.kernel import Simulator
from ..sim.process import run_to_completion
from ..sim.trace import TraceRecorder
from ..sim.view import SessionView
from .outcomes import BalanceSnapshot, PaymentOutcome, snapshot_balances
from .topology import PaymentGraph

#: A funding hook: given the topology and the freshly created (empty)
#: per-escrow ledgers, put the initial value on the books.  The default
#: mints each edge's funding grant out of thin air; a workload instead
#: draws the grants from a shared liquidity substrate.
FundingHook = Callable[[PaymentGraph, Dict[str, Ledger]], None]

#: Global-time backstop for a run that never settles, whatever the entry
#: point (a session, an experiment, a campaign cell or a workload
#: payment); generous enough for every registered (protocol, timing,
#: adversary) cell to settle or abort.
DEFAULT_HORIZON = 50_000.0


@dataclass
class PaymentEnv:
    """Everything a protocol needs to build its participants."""

    sim: Simulator
    network: Network
    keyring: KeyRing
    topology: PaymentGraph
    ledgers: Dict[str, Ledger]
    clocks: Dict[str, DriftingClock]
    identities: Dict[str, Identity]
    config: Dict[str, Any] = field(default_factory=dict)

    def clock_of(self, name: str) -> DriftingClock:
        """Clock for a participant (perfect if unassigned)."""
        return self.clocks.get(name, PERFECT_CLOCK)

    def identity_of(self, name: str) -> Identity:
        """Signing identity for a participant (created lazily)."""
        identity = self.identities.get(name)
        if identity is None:
            identity = self.keyring.create(name)
            self.identities[name] = identity
        return identity

    def byzantine_behavior(self, name: str) -> Any:
        """The behaviour spec assigned to a Byzantine participant."""
        return self.config.get("byzantine", {}).get(name)


ProtocolFactory = Callable[[PaymentEnv], "Any"]


class SessionArena:
    """A reusable world shell for many sessions of one cell shape.

    Campaigns and workloads run the same (protocol, topology-shape)
    cell thousands of times.  An arena keeps the *mutable* world parts
    — the simulator (or :class:`~repro.sim.view.SessionView`), the
    network, and the ledger shells — and every
    :class:`PaymentSession` built with ``arena=`` **resets** them in
    place instead of rebuilding: the kernel keeps its recycled event
    slab (and the heap list its capacity), the network keeps its
    cleared routing table, and each ledger keeps its shell.  Protocol
    participants are still built fresh per run — they are cheap,
    state-heavy objects — and registered into the reset network, so a
    trial on a reused arena draws the same RNG values, schedules the
    same events, and emits the same trace as one on a fresh build.

    The first session built with an empty arena populates it; later
    sessions reuse it.  Reuse contract: a run's outcome and trace must
    be consumed before the arena's next session builds (the reset
    mutates the same trace recorder and ledgers in place), the arena
    is single-threaded, and it never crosses worker processes.
    """

    __slots__ = ("sim", "network", "ledgers", "runs")

    def __init__(self) -> None:
        self.sim: Optional[Union[Simulator, SessionView]] = None
        self.network: Optional[Network] = None
        self.ledgers: Dict[str, Ledger] = {}
        #: Sessions built on this arena so far (diagnostics/tests).
        self.runs = 0


class PaymentSession:
    """One configured payment run.

    Parameters
    ----------
    topology:
        The payment graph (a :class:`~repro.core.topology.PaymentGraph`;
        the Figure-1 path is the ``PaymentTopology`` special case).
    protocol:
        Registry name (``"timebounded"``, ``"weak"``, ``"htlc"``,
        ``"certified"``) or a factory ``env -> protocol``.
    timing:
        The network timing model (synchrony assumption).
    adversary:
        Optional message-scheduling adversary.
    seed:
        Master seed (drives clocks, delays, processing times).
    rho / max_skew:
        Clock-drift and skew bounds; per-participant clocks are sampled
        within the bounds unless ``clocks`` pins them explicitly.
    clocks:
        Explicit clock assignment overriding sampling (partial maps are
        fine; missing participants get sampled/perfect clocks).
    byzantine:
        Map participant name -> behaviour spec (interpreted by the
        protocol together with :mod:`repro.byzantine`).
    horizon:
        Global-time backstop; ``None`` uses :data:`DEFAULT_HORIZON`.
    protocol_options:
        Extra keyword configuration passed to the protocol via
        ``env.config["options"]`` (timeout calculus, TM choice,
        patience values, ...).
    trace_kinds:
        ``None`` records the full trace (the default).  A set of
        :class:`~repro.sim.trace.TraceKind` opts into reduced-detail
        recording — only those kinds are kept.  Campaign trials pass
        :data:`~repro.sim.trace.CHECKER_KINDS` because their record
        columns consume nothing else; keep the default wherever the
        trace itself is inspected.
    sim:
        Optional externally owned simulator (or
        :class:`~repro.sim.view.SessionView` onto a shared one).  When
        given, the session builds its world on it instead of creating a
        private :class:`Simulator` — this is how a workload runs many
        sessions on one kernel.  The caller then drives the kernel
        itself (``launch()`` / ``collect()``); ``run()`` remains the
        solo path.
    funding:
        Optional hook replacing the default mint-per-funding-grant
        setup (see :data:`FundingHook`); a workload uses it to draw
        each payment's funding from the shared liquidity substrate.
    faults:
        Optional :class:`~repro.sim.faults.FaultInjector` implementing
        the crash-restart adversary: it is attached to the protocol's
        participants after ``build()``, giving its victim durable
        storage and crashing it at the configured crash point.
    arena:
        Optional :class:`SessionArena`.  An empty arena is populated
        by this session's world; a populated one is *reset and
        reused* instead of rebuilt — byte-identical behaviour, no
        per-trial reconstruction.  Combine with ``sim=`` only on the
        arena's first session (the view is then kept in the arena).
    """

    def __init__(
        self,
        topology: PaymentGraph,
        protocol: Union[str, ProtocolFactory],
        timing: TimingModel,
        adversary: Optional[Adversary] = None,
        seed: int = 0,
        rho: float = 0.0,
        max_skew: float = 0.0,
        clocks: Optional[Dict[str, DriftingClock]] = None,
        byzantine: Optional[Dict[str, Any]] = None,
        horizon: Optional[float] = None,
        protocol_options: Optional[Dict[str, Any]] = None,
        trace_kinds: Optional[Any] = None,
        sim: Optional[Union[Simulator, SessionView]] = None,
        funding: Optional[FundingHook] = None,
        faults: Optional[Any] = None,
        arena: Optional[SessionArena] = None,
    ) -> None:
        self.topology = topology
        self.protocol_ref = protocol
        self.timing = timing
        self.adversary = adversary
        self.seed = seed
        self.rho = rho
        self.max_skew = max_skew
        self.clock_overrides = dict(clocks or {})
        self.byzantine = dict(byzantine or {})
        self.horizon = horizon if horizon is not None else DEFAULT_HORIZON
        self.protocol_options = dict(protocol_options or {})
        self.trace_kinds = frozenset(trace_kinds) if trace_kinds is not None else None
        self.sim_override = sim
        self.funding = funding
        self.faults = faults
        self.arena = arena
        # Populated by launch()/run():
        self.env: Optional[PaymentEnv] = None
        self.protocol_instance: Any = None
        self.initial_balances: Optional[BalanceSnapshot] = None

    # -- world construction -------------------------------------------------

    def _reset_arena(self, arena: SessionArena):
        """Re-point a populated arena's world at this session's config.

        The reset mirror of the fresh build below: same seed, same
        trace level, same timing/adversary wiring — only the object
        identities (and the kernel's event slab) carry over.
        """
        sim = arena.sim
        trace = sim.trace
        if trace.keep == self.trace_kinds:
            trace.reset()
        else:
            trace = TraceRecorder(keep=self.trace_kinds)
        sim.reset(self.seed, trace=trace)
        network = arena.network
        network.reset(self.timing, self.adversary)
        pool = arena.ledgers
        ledgers: Dict[str, Ledger] = {}
        for edge in self.topology.edges:
            ledger = pool.get(edge.escrow)
            if ledger is None:
                ledger = pool[edge.escrow] = Ledger(name=edge.escrow, sim=sim)
            else:
                ledger.reset()
            ledger.open_account(edge.upstream)
            ledger.open_account(edge.downstream)
            ledgers[edge.escrow] = ledger
        arena.runs += 1
        return sim, network, ledgers

    def _build_env(self) -> PaymentEnv:
        arena = self.arena
        if arena is not None and arena.network is not None:
            sim, network, ledgers = self._reset_arena(arena)
        else:
            if self.sim_override is not None:
                sim = self.sim_override
            elif self.trace_kinds is not None:
                sim = Simulator(
                    seed=self.seed, trace=TraceRecorder(keep=self.trace_kinds)
                )
            else:
                sim = Simulator(seed=self.seed)
            network = Network(sim, self.timing, self.adversary)
            ledgers = {}
            for edge in self.topology.edges:
                ledger = Ledger(name=edge.escrow, sim=sim)
                ledger.open_account(edge.upstream)
                ledger.open_account(edge.downstream)
                ledgers[edge.escrow] = ledger
            if arena is not None:
                arena.sim = sim
                arena.network = network
                arena.ledgers.update(ledgers)
                arena.runs += 1
        keyring = KeyRing()
        if self.funding is not None:
            self.funding(self.topology, ledgers)
        else:
            for escrow, grants in self.topology.funding_plan().items():
                for customer, amt in grants:
                    ledgers[escrow].mint(customer, amt)
        clocks: Dict[str, DriftingClock] = {}
        for name in self.topology.participants():
            if name in self.clock_overrides:
                clocks[name] = self.clock_overrides[name]
            elif self.rho > 0.0 or self.max_skew > 0.0:
                clocks[name] = random_clock(
                    sim.rng.stream(f"clock.{name}"), self.rho, self.max_skew
                )
            else:
                clocks[name] = PERFECT_CLOCK
        identities = {
            name: keyring.create(name) for name in self.topology.participants()
        }
        config: Dict[str, Any] = {
            "byzantine": self.byzantine,
            "options": self.protocol_options,
            "rho": self.rho,
            "seed": self.seed,
        }
        return PaymentEnv(
            sim=sim,
            network=network,
            keyring=keyring,
            topology=self.topology,
            ledgers=ledgers,
            clocks=clocks,
            identities=identities,
            config=config,
        )

    def _resolve_protocol(self, env: PaymentEnv) -> Any:
        if callable(self.protocol_ref):
            return self.protocol_ref(env)
        from ..protocols.base import create_protocol  # local import: no cycle

        return create_protocol(str(self.protocol_ref), env)

    # -- running ------------------------------------------------------------------

    def launch(self) -> list:
        """Build the world, build the protocol, and start it.

        No events have been executed when this returns — the protocol's
        initial events sit in the (possibly shared) kernel's queue.
        Returns the protocol's participant processes, the ones that
        gate the session's completion :class:`~repro.sim.process.Latch`.
        """
        env = self._build_env()
        self.env = env
        protocol = self._resolve_protocol(env)
        self.protocol_instance = protocol
        protocol.build()
        if self.faults is not None:
            self.faults.attach(protocol.processes.values())
        self.initial_balances = snapshot_balances(env.ledgers, self.topology)
        protocol.start()
        participants = list(protocol.processes.values())
        if not participants:
            raise ProtocolError(f"protocol {protocol.name!r} built no participants")
        return participants

    def collect(
        self,
        end_time: Optional[float] = None,
        events_executed: Optional[int] = None,
    ) -> PaymentOutcome:
        """Assemble the outcome from the session's current state.

        ``run()`` calls this with the defaults (the kernel's clock and
        event counter).  A workload passes explicit per-session values,
        because on a shared kernel the global clock/counter also moves
        for sibling payments.
        """
        env = self.env
        if env is None:
            raise ProtocolError("collect() before launch()")
        protocol = self.protocol_instance
        honest = {
            name: name not in self.byzantine
            for name in self.topology.participants()
        }
        return PaymentOutcome.collect(
            payment_id=self.topology.payment_id,
            protocol=protocol.name,
            topology=self.topology,
            honest=honest,
            initial_balances=self.initial_balances,
            ledgers=env.ledgers,
            trace=env.sim.trace,
            end_time=end_time if end_time is not None else env.sim.now,
            messages_sent=env.network.stats.sent,
            messages_delivered=env.network.stats.delivered,
            events_executed=(
                events_executed
                if events_executed is not None
                else env.sim.executed_events
            ),
        )

    def run(self) -> PaymentOutcome:
        """Execute the payment and return its outcome (solo kernel)."""
        participants = self.launch()
        run_to_completion(self.env.sim, participants, self.horizon)
        return self.collect()


__all__ = ["FundingHook", "PaymentEnv", "PaymentSession", "SessionArena"]
