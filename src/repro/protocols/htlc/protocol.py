"""Hashed-timelock (HTLC) baseline protocol.

The *atomic* mode of Interledger [Thomas & Schwartz 2015] and the
graph-shaped generalisation of the Herlihy–Liskov–Shrira timelock
commit protocol: no certificates, no transaction manager — just
hash-locks and staggered deadlines.

Mechanics
---------
Every sink knows its own secret; the hashes are common setup
knowledge.  A hop's lock commits to *every sink reachable downstream
of it* (one :class:`~repro.crypto.hashlock.HashLock` per sink), so on
the Figure-1 path each lock carries exactly Bob's hash.  Locks are
created forward along the graph with *decreasing* deadlines::

    lock at e:  depositor u, beneficiary d, hashes {reachable sinks},
                local deadline  D = start + (depth - dist) * step

so every beneficiary has at least ``step`` local-clock units to claim
upstream after learning the secrets downstream.  A sink claims its
incoming locks by revealing its secret; each claim reveals the
preimage set to the lock's depositor, and a connector claims upstream
once the revealed preimages cover every sink she forwards to
(forwarding the set upstream along reverse edges).  An unclaimed lock
is refunded at its deadline.

What the paper says about this protocol — and what experiments E6 and
the fan-out scheduling-attack study verify — is that it offers **no
success guarantee**: under synchrony with honest parties it completes,
but under partial synchrony a delayed claim can leave a connector
paying downstream without being paid upstream (CS3 violation), and on
a fan-out graph *one sibling hop can commit while another refunds*,
which no per-hop mechanism can reconcile.  There is nothing like χ for
Alice (CS1's certificate arm is replaced by possession of the revealed
secrets).

Options
-------
``step``:
    Per-hop deadline stagger (default: ``4 * (delta + epsilon)`` with
    ``delta`` from the timing model / options and ``epsilon`` 0.05).
``give_up_margin``:
    Extra local waiting after the last relevant deadline before a
    customer abandons the run (bounds termination).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Sequence, Set

from ...clocks import DriftingClock, PERFECT_CLOCK
from ...crypto.hashlock import HashLock, Preimage, sink_secrets
from ...errors import ProtocolError
from ...ledger.asset import Amount
from ...ledger.ledger import Ledger
from ...net.message import Envelope, MsgKind
from ...sim.process import Process
from ...sim.trace import TraceKind
from ..base import PaymentProtocol, register_protocol


class HTLCEscrow(Process):
    """Escrow honouring per-sink hash-locks with a local-clock deadline."""

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        ledger: Ledger,
        payment_id: str,
        upstream: str,
        downstream: str,
        amount: Amount,
        hashlocks: Dict[str, HashLock],
        clock: DriftingClock = PERFECT_CLOCK,
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.ledger = ledger
        self.payment_id = payment_id
        self.upstream = upstream
        self.downstream = downstream
        self.amount = amount
        #: sink -> lock: a claim must open every one of them.
        self.hashlocks = dict(hashlocks)
        self.clock = clock
        self.lock_id: Optional[str] = None
        self.deadline_local: Optional[float] = None
        self.resolved = False

    @property
    def now_local(self) -> float:
        return self.clock.local_time(self.sim.now)

    def handle_message(self, message: Envelope) -> None:
        if message.kind is MsgKind.MONEY and message.sender == self.upstream:
            self._on_deposit(message)
        elif message.kind is MsgKind.CLAIM and message.sender == self.downstream:
            self._on_claim(message)

    def _on_deposit(self, message: Envelope) -> None:
        payload = message.payload
        if not isinstance(payload, dict) or self.lock_id is not None:
            return
        amount = payload.get("amount")
        deadline = payload.get("deadline")
        if amount != self.amount or not isinstance(deadline, (int, float)):
            return
        if not self.ledger.account(self.upstream).can_pay(self.amount):
            return
        lock = self.ledger.escrow_deposit(
            depositor=self.upstream,
            beneficiary=self.downstream,
            amt=self.amount,
            lock_id=f"{self.payment_id}/{self.name}",
        )
        self.lock_id = lock.lock_id
        self.deadline_local = float(deadline)
        # Lock and deadline are on-ledger facts; checkpoint them so a
        # restored escrow can re-arm the refund timer.
        self.checkpoint(lock_id=self.lock_id, deadline_local=self.deadline_local)
        self.set_timer_at("deadline", self.clock.global_time(self.deadline_local))
        # Tell the beneficiary the lock exists (and when it expires):
        self._announce_setup()

    def _announce_setup(self) -> None:
        self.network.send(
            self,
            self.downstream,
            MsgKind.HASHLOCK_SETUP,
            {
                "payment_id": self.payment_id,
                "amount": self.amount,
                "deadline": self.deadline_local,
            },
        )

    def _on_claim(self, message: Envelope) -> None:
        payload = message.payload
        if self.resolved or self.lock_id is None or not isinstance(payload, dict):
            return
        preimages = payload.get("preimages")
        if not isinstance(preimages, dict):
            return
        for sink, lock in self.hashlocks.items():
            preimage = preimages.get(sink)
            if not isinstance(preimage, Preimage) or not lock.matches(preimage):
                return
        if self.deadline_local is not None and self.now_local >= self.deadline_local:
            return  # too late: the refund path owns the lock now
        # Crash before acting on the claim: the claim message is lost;
        # restore re-announces the setup and the claimant retries.
        if self.reach_crash_point("pre-decision"):
            return
        self.resolved = True
        self.cancel_timer("deadline")
        self.ledger.escrow_release(self.lock_id)
        # On-chain claims reveal the preimages publicly; here the escrow
        # forwards them to the depositor, who needs them to claim upstream.
        sends = [
            (
                self.downstream,
                MsgKind.MONEY,
                {"amount": self.amount, "note": "payment"},
            ),
            (
                self.upstream,
                MsgKind.SECRET,
                {"preimages": {sink: preimages[sink] for sink in self.hashlocks}},
            ),
        ]
        self._resolve("claimed", sends)

    def on_timer(self, timer_id: str) -> None:
        if timer_id != "deadline" or self.resolved or self.lock_id is None:
            return
        # Crash before the refund is executed: the lock survives on the
        # ledger and the restored escrow re-arms the (now past)
        # deadline, refunding immediately after recovery.
        if self.reach_crash_point("pre-decision"):
            return
        self.resolved = True
        self.ledger.escrow_refund(self.lock_id)
        self.sim.trace.record(
            self.sim.now, TraceKind.TIMEOUT, self.name, state="htlc_deadline"
        )
        sends = [
            (
                self.upstream,
                MsgKind.MONEY,
                {"amount": self.amount, "note": "refund"},
            )
        ]
        self._resolve("refunded", sends)

    def _resolve(self, outcome: str, sends) -> None:
        """Write-ahead the resolution, transmit it, and terminate."""
        if self.send_decision(sends, outcome=outcome):
            self.terminate(reason=outcome)

    # -- crash recovery ------------------------------------------------------

    def restore(self) -> None:
        """Replay the log: finish a logged resolution, or re-arm the lock.

        A logged resolution is completed (:meth:`~repro.sim.process.Process.replay`
        retransmits whatever never made it out); an unresolved lock gets
        its refund deadline re-armed from the durable local deadline —
        firing immediately when the deadline passed during downtime —
        and its setup re-announced downstream so a claim lost in the
        crash is retried.
        """
        checkpoint, decision = self.replay()
        durable = checkpoint or {}
        self.lock_id = durable.get("lock_id")
        self.deadline_local = durable.get("deadline_local")
        self.resolved = decision is not None
        if decision is not None:
            self.terminate(reason=f"{decision['outcome']} (recovered)")
        elif self.lock_id is not None:
            self.set_timer_at(
                "deadline", self.clock.global_time(self.deadline_local)
            )
            self._announce_setup()


class HTLCCustomer(Process):
    """Customer of the HTLC graph (source / connector / sink)."""

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        payment_id: str,
        role: str,
        hashlocks: Dict[str, HashLock],
        required: Sequence[str] = (),
        secrets: Optional[Dict[str, Preimage]] = None,
        deposit_escrows: Optional[Dict[str, Amount]] = None,
        incoming_escrows: Sequence[str] = (),
        lock_deadlines: Optional[Dict[str, float]] = None,
        step: float = 1.0,
        give_up_local: Optional[float] = None,
        clock: DriftingClock = PERFECT_CLOCK,
        behavior: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.payment_id = payment_id
        self.role = role
        #: sink -> lock, the full common-setup hash map.
        self.hashlocks = dict(hashlocks)
        #: the sinks whose preimages this customer needs to claim her
        #: incoming locks (= the sinks reachable through her out-edges;
        #: a sink needs only its own).
        self.required = tuple(required)
        #: sink -> revealed preimage, seeded with this customer's own
        #: secret when she is a sink.
        self.preimages: Dict[str, Preimage] = dict(secrets or {})
        #: escrow -> amount, insertion-ordered per out-edge.
        self.deposit_escrows: Dict[str, Amount] = dict(deposit_escrows or {})
        self.incoming_escrows = tuple(incoming_escrows)
        #: escrow -> lock deadline (sources only; on that escrow's clock).
        self.lock_deadlines = dict(lock_deadlines or {})
        self.step = step
        self.give_up_local = give_up_local
        self.clock = clock
        self.behavior = behavior
        self.deposited = False
        #: upstream setups seen: escrow -> its lock deadline.
        self.setups: Dict[str, float] = {}
        #: out-edge escrows whose locks were claimed (SECRET received).
        self.claimed_out: Set[str] = set()
        #: out-edge escrows whose locks were refunded.
        self.refunded_out: Set[str] = set()
        #: incoming escrows that released their payment to us.
        self.paid_in: Set[str] = set()
        self.claims_sent = False
        self.receipt_recorded = False
        self._receipted: Set[str] = set()
        self.outcome: Optional[str] = None

    @property
    def now_local(self) -> float:
        return self.clock.local_time(self.sim.now)

    def start(self) -> None:
        if self.give_up_local is not None:
            self.set_timer_at("give_up", self.clock.global_time(self.give_up_local))
        if self.role == "alice" and self.behavior != "never_deposit":
            self._deposit_all(self.lock_deadlines)

    def _deposit_all(self, deadlines: Dict[str, float]) -> None:
        if self.deposited or not self.deposit_escrows or not deadlines:
            return
        self.deposited = True
        for escrow, amount in self.deposit_escrows.items():
            deadline = deadlines.get(escrow)
            if deadline is None:
                continue
            self.network.send(
                self,
                escrow,
                MsgKind.MONEY,
                {"amount": amount, "deadline": deadline},
            )

    def handle_message(self, message: Envelope) -> None:
        if (
            message.kind is MsgKind.HASHLOCK_SETUP
            and message.sender in self.incoming_escrows
        ):
            self._on_setup(message)
        elif message.kind is MsgKind.SECRET and message.sender in self.deposit_escrows:
            self._on_secret(message)
        elif message.kind is MsgKind.MONEY:
            self._on_money(message)

    def _claim(self, escrow: str) -> None:
        self.network.send(
            self,
            escrow,
            MsgKind.CLAIM,
            {"preimages": {sink: self.preimages[sink] for sink in self.required}},
        )

    def _on_setup(self, message: Envelope) -> None:
        payload = message.payload
        if not isinstance(payload, dict):
            return
        upstream_deadline = float(payload.get("deadline", 0.0))
        if self.role == "bob":
            # A sink claims each incoming lock with her own secret as it
            # is set up.
            if self.behavior == "bob_never_claims" or not all(
                sink in self.preimages for sink in self.required
            ):
                return
            self._claim(message.sender)
            return
        # Connector: lock every hop downstream with a tighter deadline,
        # once every incoming lock exists (she only fronts money that is
        # promised to her on all sides).  The deadline arithmetic uses
        # *her* clock; upstream deadlines are on the upstream escrows'
        # clocks — under bounded drift the step must absorb the skew,
        # which is why the naive HTLC stagger is another drift casualty
        # (cf. experiment E6).
        self.setups[message.sender] = upstream_deadline
        if len(self.setups) < len(self.incoming_escrows):
            return
        if self.behavior != "never_deposit":
            deadline = min(self.setups.values()) - self.step
            self._deposit_all(
                {escrow: deadline for escrow in self.deposit_escrows}
            )

    def _on_secret(self, message: Envelope) -> None:
        payload = message.payload
        incoming = payload.get("preimages") if isinstance(payload, dict) else None
        if not isinstance(incoming, dict):
            return
        valid: Dict[str, Preimage] = {}
        for sink, preimage in incoming.items():
            lock = self.hashlocks.get(sink)
            if (
                lock is None
                or not isinstance(preimage, Preimage)
                or not lock.matches(preimage)
            ):
                continue
            valid[sink] = preimage
        if not valid:
            return
        self.claimed_out.add(message.sender)
        self.preimages.update(valid)
        if len(self.required) > 1:
            # Per-sink receipts, recorded only on multi-sink graphs so
            # single-sink traces keep their historical shape.
            for sink in valid:
                if sink in self._receipted:
                    continue
                self._receipted.add(sink)
                self.sim.trace.record(
                    self.sim.now,
                    TraceKind.CERT_RECEIVED,
                    self.name,
                    cert=f"preimage:{sink}",
                )
        covered = all(sink in self.preimages for sink in self.required)
        if covered and not self.receipt_recorded:
            self.receipt_recorded = True
            self.sim.trace.record(
                self.sim.now, TraceKind.CERT_RECEIVED, self.name, cert="preimage"
            )
        if self.role == "alice":
            # The revealed secrets are the source's receipt; she
            # terminates once every lock she funded was claimed.
            if all(e in self.claimed_out for e in self.deposit_escrows):
                self.outcome = "paid_out"
                self.terminate(reason="secret received (payment complete)")
            return
        if (
            covered
            and self.incoming_escrows
            and not self.claims_sent
            and self.behavior != "withhold_claim"
        ):
            self.claims_sent = True
            for escrow in self.incoming_escrows:
                self._claim(escrow)

    def _on_money(self, message: Envelope) -> None:
        payload = message.payload
        if not isinstance(payload, dict):
            return
        note = payload.get("note")
        if note == "payment" and message.sender in self.incoming_escrows:
            self.paid_in.add(message.sender)
            if len(self.paid_in) == len(self.incoming_escrows):
                self.outcome = "paid"
                self.terminate(reason="received payment")
        elif note == "refund" and message.sender in self.deposit_escrows:
            self.refunded_out.add(message.sender)
            if (
                len(self.refunded_out) == len(self.deposit_escrows)
                and not self.claimed_out
            ):
                self.outcome = "refunded"
                self.terminate(reason="refunded")
            # A *mixed* resolution (some hops claimed, some refunded)
            # leaves the customer waiting — the give_up timer bounds
            # termination, and CS3 reports the loss.

    def on_timer(self, timer_id: str) -> None:
        if timer_id == "give_up" and not self.terminated:
            self.outcome = self.outcome or "gave_up"
            self.terminate(reason="gave up waiting")


@register_protocol
class HTLCProtocol(PaymentProtocol):
    """hash time-locked contracts (Definition 1, preimage receipts)

    The hash-timelock baseline on payment graphs.
    """

    name = "htlc"
    definition = 1
    receipt_kinds = ("preimage",)
    known_options = frozenset({"delta", "epsilon", "step", "give_up_margin"})
    # An assumed Δ staggers the deadlines where the timing model
    # publishes none.
    sweep_defaults = {"delta": 1.0}
    supported_topologies: FrozenSet[str] = frozenset(
        {"path", "dag", "multi-source"}
    )
    # Escrows checkpoint their lock/deadline state; restore re-arms the
    # refund deadline and re-announces the hashlock downstream.
    supports_recovery = True

    def build(self) -> None:
        env = self.env
        topo = env.topology
        delta = self.option("delta", env.network.timing.known_bound)
        if delta is None:
            raise ProtocolError(
                "HTLC needs a presumed delay bound: pass "
                "protocol_options={'delta': ...} (it will be wrong under "
                "partial synchrony — that is the point of experiment E6)"
            )
        epsilon = float(self.option("epsilon", 0.05))
        step = float(self.option("step", 4.0 * (float(delta) + epsilon)))
        margin = float(self.option("give_up_margin", 4.0 * step))
        depth = topo.depth
        secrets = sink_secrets(topo.payment_id, topo.sinks())
        locks = {sink: secret.lock() for sink, secret in secrets.items()}
        # A source's lock deadline, on the funded escrow's clock: it
        # must cover both the forward lock-creation cascade (one setup +
        # one deposit per hop, each <= delta + epsilon) and `depth`
        # claim hops of `step` each.  The per-hop staggering is then
        # computed by each connector relative to what she observes.
        forward_budget = 2.0 * depth * (float(delta) + epsilon)
        source_deadlines: Dict[str, float] = {}
        for source in topo.sources():
            for edge in topo.out_edges(source):
                source_deadlines[edge.escrow] = (
                    env.clock_of(edge.escrow).local_time(env.sim.now)
                    + forward_budget
                    + depth * step
                )
        give_up = forward_budget + (depth + 2.0) * step + margin

        for edge in topo.edges:
            required = topo.reachable_sinks(edge.downstream)
            escrow = HTLCEscrow(
                sim=env.sim,
                name=edge.escrow,
                network=env.network,
                ledger=env.ledgers[edge.escrow],
                payment_id=topo.payment_id,
                upstream=edge.upstream,
                downstream=edge.downstream,
                amount=edge.amount,
                hashlocks={sink: locks[sink] for sink in required},
                clock=env.clock_of(edge.escrow),
            )
            self.add_participant(escrow)

        sinks = set(topo.sinks())
        for name in topo.customers():
            out_edges = topo.out_edges(name)
            in_edges = topo.in_edges(name)
            if not in_edges:
                role = "alice"
            elif not out_edges:
                role = "bob"
            else:
                role = "connector"
            clock = env.clock_of(name)
            customer = HTLCCustomer(
                sim=env.sim,
                name=name,
                network=env.network,
                payment_id=topo.payment_id,
                role=role,
                hashlocks=locks,
                required=topo.reachable_sinks(name),
                secrets={name: secrets[name]} if name in sinks else None,
                deposit_escrows={
                    edge.escrow: edge.amount for edge in out_edges
                },
                incoming_escrows=[edge.escrow for edge in in_edges],
                lock_deadlines=(
                    {
                        edge.escrow: source_deadlines[edge.escrow]
                        for edge in out_edges
                    }
                    if role == "alice"
                    else None
                ),
                step=step,
                give_up_local=clock.local_time(env.sim.now) + give_up,
                clock=clock,
                behavior=env.byzantine_behavior(name),
            )
            self.add_participant(customer)


__all__ = ["HTLCCustomer", "HTLCEscrow", "HTLCProtocol"]
