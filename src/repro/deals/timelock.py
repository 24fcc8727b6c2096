"""The timelock commit protocol for cross-chain deals (Herlihy et al.).

One leader (party 0 by convention) knows a secret ``s``; every arc
``(i, j)`` is escrowed under ``h = H(s)`` with a deadline proportional
to how long the secret needs to reach the claimer::

    deadline(i, j) = start + (dist(j -> leader) + 1) * step

The secret propagates *backwards* along arcs: the leader claims its
incoming arcs (revealing ``s`` to their depositors), each depositor can
then claim her own incoming arcs, and so on; strong connectivity
guarantees everyone is reached.  All three of the paper's deal
properties (Safety / Termination / Strong liveness) hold under
synchrony; under partial synchrony a delayed reveal lets a deadline
fire *after* the party's outgoing arc was already claimed — the Safety
loss that experiment E6 shows.

Byzantine party behaviours: ``"never_escrow"``, ``"withhold_secret"``
(claims her incoming arcs but never triggers... in fact withholding
means not claiming, which only hurts herself and those upstream of the
reveal chain — both demonstrated in tests).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..clocks import DriftingClock, PERFECT_CLOCK
from ..crypto.hashlock import HashLock, Preimage, new_secret
from ..errors import DealError
from ..ledger.asset import Amount
from ..ledger.ledger import Ledger
from ..net.message import Envelope, MsgKind
from ..sim.process import Process
from .common import DealEnv, DealProcesses, arc_escrow_name
from .matrix import DealMatrix


class TimelockArcEscrow(Process):
    """Hash-timelock escrow for a single deal arc."""

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        ledger: Ledger,
        depositor: str,
        beneficiary: str,
        amount: Amount,
        hashlock: HashLock,
        observers: List[str],
        clock: DriftingClock = PERFECT_CLOCK,
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.ledger = ledger
        self.depositor = depositor
        self.beneficiary = beneficiary
        self.amount = amount
        self.hashlock = hashlock
        self.observers = list(observers)
        self.clock = clock
        self.lock_id: Optional[str] = None
        self.deadline_local: Optional[float] = None
        self.resolved = False

    @property
    def now_local(self) -> float:
        return self.clock.local_time(self.sim.now)

    def handle_message(self, message: Envelope) -> None:
        if message.kind is MsgKind.MONEY and message.sender == self.depositor:
            self._on_deposit(message)
        elif message.kind is MsgKind.CLAIM and message.sender == self.beneficiary:
            self._on_claim(message)

    def _on_deposit(self, message: Envelope) -> None:
        payload = message.payload
        if self.lock_id is not None or not isinstance(payload, dict):
            return
        if payload.get("amount") != self.amount:
            return
        if not self.ledger.account(self.depositor).can_pay(self.amount):
            return
        lock = self.ledger.escrow_deposit(
            depositor=self.depositor,
            beneficiary=self.beneficiary,
            amt=self.amount,
            lock_id=f"{self.name}/lock",
        )
        self.lock_id = lock.lock_id
        self.deadline_local = float(payload["deadline"])
        self.set_timer_at("deadline", self.clock.global_time(self.deadline_local))
        # Escrow setup is public (it is a blockchain): announce to all.
        for observer in self.observers:
            self.network.send(
                self,
                observer,
                MsgKind.HASHLOCK_SETUP,
                {"arc": self.name, "deadline": self.deadline_local},
            )

    def _on_claim(self, message: Envelope) -> None:
        payload = message.payload
        if self.resolved or self.lock_id is None or not isinstance(payload, dict):
            return
        preimage = payload.get("preimage")
        if not isinstance(preimage, Preimage) or not self.hashlock.matches(preimage):
            return
        if self.deadline_local is not None and self.now_local >= self.deadline_local:
            return
        self.resolved = True
        self.cancel_timer("deadline")
        self.ledger.escrow_release(self.lock_id)
        self.network.send(
            self, self.beneficiary, MsgKind.MONEY, {"note": "payment", "arc": self.name}
        )
        # The on-chain claim reveals the preimage to the depositor:
        self.network.send(
            self, self.depositor, MsgKind.SECRET, {"preimage": preimage, "arc": self.name}
        )
        self.terminate(reason="claimed")

    def on_timer(self, timer_id: str) -> None:
        if timer_id != "deadline" or self.resolved or self.lock_id is None:
            return
        self.resolved = True
        self.ledger.escrow_refund(self.lock_id)
        self.network.send(
            self, self.depositor, MsgKind.MONEY, {"note": "refund", "arc": self.name}
        )
        self.terminate(reason="refunded")


class TimelockDealParty(Process):
    """One deal participant running the timelock protocol."""

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        index: int,
        matrix: DealMatrix,
        hashlock: HashLock,
        secret: Optional[Preimage],
        deadlines: Dict[Tuple[int, int], float],
        total_arcs: int,
        give_up_local: float,
        clock: DriftingClock = PERFECT_CLOCK,
        behavior: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.index = index
        self.matrix = matrix
        self.hashlock = hashlock
        self.secret = secret
        self.deadlines = deadlines
        self.total_arcs = total_arcs
        self.give_up_local = give_up_local
        self.clock = clock
        self.behavior = behavior
        self.setups_seen: set = set()
        self.claimed_incoming = False
        self.resolved_arcs: set = set()

    @property
    def now_local(self) -> float:
        return self.clock.local_time(self.sim.now)

    @property
    def is_leader(self) -> bool:
        return self.index == 0

    def start(self) -> None:
        self.set_timer_at("give_up", self.clock.global_time(self.give_up_local))
        if self.behavior == "never_escrow":
            return
        for j, amount in self.matrix.out_arcs(self.index):
            self.network.send(
                self,
                arc_escrow_name(self.index, j),
                MsgKind.MONEY,
                {"amount": amount, "deadline": self.deadlines[(self.index, j)]},
            )

    def handle_message(self, message: Envelope) -> None:
        if message.kind is MsgKind.HASHLOCK_SETUP:
            payload = message.payload
            if isinstance(payload, dict):
                self.setups_seen.add(payload.get("arc"))
                if (
                    self.is_leader
                    and len(self.setups_seen) == self.total_arcs
                    and not self.claimed_incoming
                ):
                    self._claim_incoming()
        elif message.kind is MsgKind.SECRET:
            payload = message.payload
            preimage = payload.get("preimage") if isinstance(payload, dict) else None
            if isinstance(preimage, Preimage) and self.hashlock.matches(preimage):
                self.secret = preimage
                self._note_resolved(payload.get("arc"))
                self._claim_incoming()
        elif message.kind is MsgKind.MONEY:
            payload = message.payload
            if isinstance(payload, dict):
                self._note_resolved(payload.get("arc"))

    def _claim_incoming(self) -> None:
        if self.claimed_incoming or self.secret is None:
            return
        if self.behavior == "withhold_secret" and not self.is_leader:
            return
        self.claimed_incoming = True
        for i, _amount in self.matrix.in_arcs(self.index):
            self.network.send(
                self,
                arc_escrow_name(i, self.index),
                MsgKind.CLAIM,
                {"preimage": self.secret},
            )

    def _note_resolved(self, arc: Any) -> None:
        if arc is not None:
            self.resolved_arcs.add(arc)
        own = {
            arc_escrow_name(self.index, j) for j, _ in self.matrix.out_arcs(self.index)
        } | {
            arc_escrow_name(i, self.index) for i, _ in self.matrix.in_arcs(self.index)
        }
        if own <= self.resolved_arcs:
            self.terminate(reason="all own arcs resolved")

    def on_timer(self, timer_id: str) -> None:
        if timer_id == "give_up" and not self.terminated:
            self.terminate(reason="gave up")


def build_timelock_deal(
    env: DealEnv, byzantine: Dict[int, str], options: Dict[str, Any]
) -> DealProcesses:
    """Protocol factory for :class:`~repro.deals.common.DealSession`."""
    matrix = env.matrix
    if not matrix.is_well_formed():
        raise DealError(
            "the timelock commit protocol is only defined for well-formed "
            "(strongly connected) deals"
        )
    step = float(options.get("step", 8.0))
    leader = int(options.get("leader", 0))
    if leader != 0:
        raise DealError("party 0 is the leader by convention")
    secret = new_secret("deal-secret")
    hashlock = secret.lock()
    dist = matrix.distances_to(leader)
    start_local = 0.0
    deadlines: Dict[Tuple[int, int], float] = {}
    max_deadline = 0.0
    for i, j, _amount in matrix.arcs():
        deadline = start_local + (dist[j] + 1) * step
        deadlines[(i, j)] = deadline
        max_deadline = max(max_deadline, deadline)
    observers = list(matrix.parties)
    escrows: List[Process] = []
    for i, j, amount in matrix.arcs():
        name = arc_escrow_name(i, j)
        escrows.append(
            TimelockArcEscrow(
                sim=env.sim,
                name=name,
                network=env.network,
                ledger=env.ledgers[(i, j)],
                depositor=matrix.parties[i],
                beneficiary=matrix.parties[j],
                amount=amount,
                hashlock=hashlock,
                observers=observers,
                clock=env.clock_of(name),
            )
        )
    parties: List[Process] = []
    for p in range(matrix.n_parties):
        name = matrix.parties[p]
        parties.append(
            TimelockDealParty(
                sim=env.sim,
                name=name,
                network=env.network,
                index=p,
                matrix=matrix,
                hashlock=hashlock,
                secret=secret if p == leader else None,
                deadlines=deadlines,
                total_arcs=len(matrix.arcs()),
                give_up_local=max_deadline + 4.0 * step,
                clock=env.clock_of(name),
                behavior=byzantine.get(p),
            )
        )
    return parties, escrows, []


__all__ = ["TimelockArcEscrow", "TimelockDealParty", "build_timelock_deal"]
