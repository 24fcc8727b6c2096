"""Transaction managers for the weak-liveness protocol.

The paper (§3) names three realisations of the transaction manager:

* "a single external party trusted by all" — :class:`TrustedPartyBackend`;
* "a smart contract running on a permissionless blockchain shared by
  every customer" — :class:`ContractBackend` (a real
  :class:`~repro.ledger.blockchain.SimpleChain` hosting the
  :class:`TransactionManagerContract`);
* "a collection of notaries ... of which less than one-third is assumed
  to be unreliable", running partially synchronous consensus —
  :class:`CommitteeBackend` of :class:`PaymentNotary` over
  :mod:`repro.consensus`.

The ``certified`` baseline (:mod:`repro.protocols.certified`) adds a
certified-blockchain log.  All four decide by one rule, written once in
:class:`TMVotes`.  Point realisations announce through one
:class:`DecisionServer`; the two chain-hosted ones share one
:class:`ChainBackend`.

A backend provides four things to protocol participants:

* ``report(process, kind, claim)`` — route a signed report/request;
* ``make_listener()`` — a per-participant decision detector turning
  inbound envelopes into verified decisions;
* ``requery(process)`` — ask for an already-rendered decision again;
* ``build(protocol)`` — create whatever infrastructure it needs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Type, Union

from ...consensus.committee import QuorumAssembler
from ...consensus.dls import Notary, NotaryBehavior
from ...crypto.certificates import Decision, DecisionCertificate
from ...crypto.signatures import SignedClaim
from ...errors import ContractError, ProtocolError
from ...ledger.blockchain import CallContext, Contract, Receipt, SimpleChain
from ...net.message import Envelope, MsgKind
from ...sim.process import Process
from ...sim.trace import TraceKind


# ---------------------------------------------------------------------------
# The decision rule
# ---------------------------------------------------------------------------


class TMVotes:
    """The transaction manager's decision rule (Theorem 3).

    One decision covers the whole payment graph: COMMIT needs a deposit
    report from every escrow *and* a commit request from every sink
    (Bob on a path; every sink on a payment DAG — ``beneficiaries``
    accepts one name or a sequence); otherwise the first abort request,
    from anyone, wins.  Reports and commit requests from senders outside
    those roles do not count, and the decision is set once.

    ``kind`` is a :class:`~repro.net.message.MsgKind` or its string
    value (a claim's signed ``kind`` field); other kinds count nothing.
    """

    __slots__ = (
        "escrows",
        "beneficiaries",
        "reported",
        "commit_requested",
        "abort_requested",
        "decision",
    )

    def __init__(
        self, escrows: Iterable[str], beneficiaries: Union[str, Iterable[str]]
    ) -> None:
        self.escrows = frozenset(escrows)
        self.beneficiaries = frozenset(
            [beneficiaries] if isinstance(beneficiaries, str) else beneficiaries
        )
        self.reported: Set[str] = set()
        self.commit_requested: Set[str] = set()
        self.abort_requested = False
        self.decision: Optional[Decision] = None

    @property
    def sinks_requested(self) -> bool:
        """Every sink has requested commit."""
        return len(self.commit_requested) == len(self.beneficiaries)

    @property
    def commit_ready(self) -> bool:
        """Every sink has requested commit and every escrow has reported."""
        return self.sinks_requested and len(self.reported) == len(self.escrows)

    def add(self, kind: str, sender: str) -> Optional[Decision]:
        """Count one vote; return the decision if this vote renders it."""
        if kind == MsgKind.ESCROWED:
            if sender in self.escrows:
                self.reported.add(sender)
        elif kind == MsgKind.COMMIT_REQUEST:
            if sender in self.beneficiaries:
                self.commit_requested.add(sender)
        elif kind == MsgKind.ABORT_REQUEST:
            self.abort_requested = True
        if self.decision is not None:
            return None
        if self.abort_requested:
            self.decision = Decision.ABORT
        elif self.commit_ready:
            self.decision = Decision.COMMIT
        return self.decision


def valid_claim(claim: Any, keyring: Any, signer: str, payment_id: str) -> bool:
    """Whether ``claim`` is a report ``signer`` signed for ``payment_id``."""
    return (
        isinstance(claim, SignedClaim)
        and claim.valid(keyring, expected_signer=signer)
        and claim.payment_id == payment_id
    )


# ---------------------------------------------------------------------------
# Decision announcement and participant-side detection
# ---------------------------------------------------------------------------


class DecisionServer(Process):
    """Announces a decision certificate and re-serves it on request.

    Subclasses decide *how* a decision is reached and call
    :meth:`announce` once.  The server issues the certificate, records
    ``CERT_ISSUED``, and sends it to every participant of ``env``'s
    payment; decision broadcasts are one-shot, so it also answers a
    restored participant's ``decision_query`` with a fresh certificate.
    """

    def __init__(self, env: Any, name: str) -> None:
        super().__init__(env.sim, name)
        topo = env.topology
        self.network = env.network
        self.identity = env.identity_of(name)
        self.payment_id = topo.payment_id
        self.participants = list(topo.participants())
        self.decision: Optional[Decision] = None

    def handle_message(self, message: Envelope) -> None:
        payload = message.payload
        if (
            self.decision is not None
            and message.kind is MsgKind.CONTROL
            and isinstance(payload, dict)
            and payload.get("op") == "decision_query"
        ):
            cert = self.certificate(self.decision)
            self.network.send(self, message.sender, MsgKind.DECISION, cert)

    def certificate(self, decision: Decision) -> DecisionCertificate:
        return DecisionCertificate.issue(
            self.identity, payment_id=self.payment_id, decision=decision
        )

    def announce(self, decision: Decision) -> None:
        self.decision = decision
        cert = self.certificate(decision)
        self.sim.trace.record(
            self.sim.now, TraceKind.CERT_ISSUED, self.name, cert=decision.value
        )
        for participant in self.participants:
            self.network.send(self, participant, MsgKind.DECISION, cert)


@dataclass(frozen=True)
class VerifiedDecision:
    """A decision whose certificate has been verified by the receiver."""

    decision: Decision
    certificate: Any


class DecisionListener(ABC):
    """Per-participant decision detector."""

    @abstractmethod
    def extract(self, envelope: Envelope) -> Optional[VerifiedDecision]:
        """Return a verified decision if ``envelope`` completes one."""


class _SingleIssuerListener(DecisionListener):
    def __init__(self, keyring: Any, issuer: str, payment_id: str) -> None:
        self.keyring = keyring
        self.issuer = issuer
        self.payment_id = payment_id

    def extract(self, envelope: Envelope) -> Optional[VerifiedDecision]:
        if envelope.kind is not MsgKind.DECISION:
            return None
        cert = envelope.payload
        if not isinstance(cert, DecisionCertificate):
            return None
        if cert.payment_id != self.payment_id:
            return None
        if not cert.valid(self.keyring, expected_signer=self.issuer):
            return None
        return VerifiedDecision(decision=cert.decision, certificate=cert)


class TMBackend(ABC):
    """Common backend interface.

    ``server`` names the :class:`DecisionServer` whose certificates
    participants accept and which answers :meth:`requery`.  A backend
    with no single server sets it to ``None``; its :meth:`requery`
    raises, and the crash-restart gate skips its cells.
    """

    server: Optional[str]

    def __init__(self) -> None:
        self._keyring: Any = None
        self._payment_id: str = ""

    def build(self, protocol: Any) -> None:
        """Create the infrastructure processes (called during protocol build)."""
        env = protocol.env
        self._keyring = env.keyring
        self._payment_id = env.topology.payment_id
        for process in self._processes(env):
            protocol.add_infrastructure(process)

    @abstractmethod
    def _processes(self, env: Any) -> List[Process]:
        """The infrastructure processes, in registration order."""

    @abstractmethod
    def report(self, process: Process, kind: MsgKind, claim: SignedClaim) -> None:
        """Send a signed report/request to the TM."""

    def make_listener(self) -> DecisionListener:
        """A fresh decision listener for one participant."""
        return _SingleIssuerListener(self._keyring, self.server, self._payment_id)

    def requery(self, process: Process) -> None:
        """Ask the TM to re-serve an already-rendered decision.

        Decision broadcasts are one-shot, so a participant that crashed
        across the broadcast misses it forever; a restored in-doubt
        escrow calls this to hear the verdict again.
        """
        if self.server is None:
            raise ProtocolError(
                f"{type(self).__name__} cannot re-serve a decision"
            )
        process.network.send(  # type: ignore[attr-defined]
            process, self.server, MsgKind.CONTROL, {"op": "decision_query"}
        )


# ---------------------------------------------------------------------------
# Trusted single party
# ---------------------------------------------------------------------------


class TrustedPartyProcess(DecisionServer):
    """The single-party TM: :class:`TMVotes` over signed reports.

    ``equivocate=True`` models a *Byzantine* TM that sends commit
    certificates to half the participants and abort certificates to the
    rest — the attack that motivates the notary committee (E5 shows CC
    breaking under it).
    """

    def __init__(self, env: Any, name: str, equivocate: bool = False) -> None:
        super().__init__(env, name)
        self.keyring = env.keyring
        self.votes = TMVotes(env.topology.escrows(), env.topology.sinks())
        self.equivocate = equivocate

    def handle_message(self, message: Envelope) -> None:
        if message.kind is MsgKind.CONTROL:
            super().handle_message(message)
        elif valid_claim(
            message.payload, self.keyring, message.sender, self.payment_id
        ):
            decision = self.votes.add(message.kind, message.sender)
            if decision is not None:
                self.announce(decision)

    def announce(self, decision: Decision) -> None:
        if not self.equivocate:
            super().announce(decision)
            return
        # Byzantine: issue BOTH certificates, split the audience.
        self.decision = decision
        for value in (Decision.COMMIT, Decision.ABORT):
            self.certificate(value)  # issued, then traced, as in announce()
            self.sim.trace.record(
                self.sim.now, TraceKind.CERT_ISSUED, self.name, cert=value.value
            )
        half = len(self.participants) // 2
        for idx, participant in enumerate(self.participants):
            value = Decision.COMMIT if idx < half else Decision.ABORT
            cert = self.certificate(value)
            self.network.send(self, participant, MsgKind.DECISION, cert)


class TrustedPartyBackend(TMBackend):
    """TM as a single trusted process named ``tm``."""

    server = "tm"

    def __init__(self, equivocate: bool = False) -> None:
        super().__init__()
        self.equivocate = equivocate

    def _processes(self, env: Any) -> List[Process]:
        return [TrustedPartyProcess(env, self.server, self.equivocate)]

    def report(self, process: Process, kind: MsgKind, claim: SignedClaim) -> None:
        process.network.send(process, self.server, kind, claim)  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# TMs hosted on a chain: the smart contract (and, in
# :mod:`repro.protocols.certified`, the certified log)
# ---------------------------------------------------------------------------


class ChainAgent(DecisionServer):
    """A decision server that reads its contract at transaction finality.

    The trust is in the chain (deterministic public execution); the
    agent merely converts the contract's finalised state into a signed
    certificate participants can hold, exactly like a light client
    exporting a state proof.  Subclasses say which decision, if any, a
    final receipt of the contract settles.
    """

    def __init__(
        self, env: Any, name: str, chain: SimpleChain, contract_address: str
    ) -> None:
        super().__init__(env, name)
        self.chain = chain
        self.contract_address = contract_address
        chain.subscribe_finality(self._on_finality)

    def _on_finality(self, receipt: Receipt) -> None:
        if self.decision is None and receipt.tx.contract == self.contract_address:
            contract = self.chain.contract(self.contract_address)
            decision = self.decide(receipt, contract)
            if decision is not None:
                self.announce(decision)

    def decide(self, receipt: Receipt, contract: Any) -> Optional[Decision]:
        """The decision ``receipt``'s finality settles, if any."""
        raise NotImplementedError


class ChainBackend(TMBackend):
    """A TM hosted on its own :class:`SimpleChain`.

    Participants submit their reports as transactions (CONTROL
    envelopes); a :class:`ChainAgent` — the :attr:`server` — announces
    the decision at transaction *finality*, so the decision latency
    includes mempool wait + confirmations, the realistic cost of this
    realisation (visible in experiment E5).  Subclasses name the chain,
    the contract address and the agent class, and supply the contract
    and how a report becomes a transaction.
    """

    chain_name: str
    contract_address: str
    agent: Type[ChainAgent]

    def __init__(self, block_interval: float = 1.0, confirmations: int = 2) -> None:
        super().__init__()
        self.block_interval = block_interval
        self.confirmations = confirmations

    @abstractmethod
    def _contract(self, topology: Any) -> Contract:
        """The contract deployed at :attr:`contract_address`."""

    @abstractmethod
    def _transaction(
        self, kind: MsgKind, claim: SignedClaim
    ) -> Tuple[str, Dict[str, Any]]:
        """The contract ``(method, args)`` a report becomes."""

    def _processes(self, env: Any) -> List[Process]:
        chain = SimpleChain(
            env.sim,
            self.chain_name,
            block_interval=self.block_interval,
            confirmations=self.confirmations,
        )
        chain.deploy(self._contract(env.topology))
        return [chain, self.agent(env, self.server, chain, self.contract_address)]

    def report(self, process: Process, kind: MsgKind, claim: SignedClaim) -> None:
        method, args = self._transaction(kind, claim)
        process.network.send(  # type: ignore[attr-defined]
            process,
            self.chain_name,
            MsgKind.CONTROL,
            {
                "op": "submit_tx",
                "contract": self.contract_address,
                "method": method,
                "args": args,
            },
        )


class TransactionManagerContract(Contract):
    """The transaction manager as a smart contract.

    Runs :class:`TMVotes` on-chain.  Certificate consistency (CC) holds
    *by construction*: the decision is written once, and block execution
    is serial.  ``escrowed``, ``request_commit`` and ``request_abort``
    vote as the transaction's sender; a deposit report from a
    non-escrow, or a commit request from a non-sink, fails its receipt.
    ``decided_at_height`` is the height of the deciding block.
    """

    def __init__(
        self,
        address: str,
        payment_id: str,
        escrows: List[str],
        beneficiary: Union[str, Iterable[str]],
    ) -> None:
        super().__init__(address)
        if not escrows:
            raise ContractError("transaction manager needs at least one escrow")
        self.payment_id = payment_id
        self.votes = TMVotes(escrows, beneficiary)
        self.decided_at_height: Optional[int] = None

    @property
    def decision(self) -> Optional[Decision]:
        return self.votes.decision

    def call(self, ctx: CallContext, method: str, args: Dict[str, Any]) -> Any:
        votes = self.votes
        sender = ctx.sender
        if method == "escrowed":
            if sender not in votes.escrows:
                raise ContractError(f"{sender!r} is not a registered escrow")
            kind = MsgKind.ESCROWED
        elif method == "request_commit":
            if sender not in votes.beneficiaries:
                raise ContractError(
                    f"only {sorted(votes.beneficiaries)!r} may request "
                    f"commit, not {sender!r}"
                )
            kind = MsgKind.COMMIT_REQUEST
        elif method == "request_abort":
            kind = MsgKind.ABORT_REQUEST
        else:
            raise ContractError(f"{self.address}: unknown method {method!r}")
        if votes.add(kind, sender) is not None:
            self.decided_at_height = ctx.block_height
        return votes.decision


class ContractTMAgent(ChainAgent):
    """Announces the :class:`TransactionManagerContract`'s decision once
    the *deciding* transaction is final."""

    def decide(self, receipt: Receipt, contract: Any) -> Optional[Decision]:
        height = contract.decided_at_height
        if height is None or receipt.block_height < height:
            return None
        return contract.decision


class ContractBackend(ChainBackend):
    """TM as a :class:`TransactionManagerContract` on a :class:`SimpleChain`."""

    chain_name = "tmchain"
    server = "tmagent"
    contract_address = "tm"
    agent = ContractTMAgent

    _METHODS = {
        MsgKind.ESCROWED: "escrowed",
        MsgKind.COMMIT_REQUEST: "request_commit",
        MsgKind.ABORT_REQUEST: "request_abort",
    }

    def _contract(self, topology: Any) -> Contract:
        return TransactionManagerContract(
            address=self.contract_address,
            payment_id=topology.payment_id,
            escrows=topology.escrows(),
            beneficiary=topology.sinks(),
        )

    def _transaction(
        self, kind: MsgKind, claim: SignedClaim
    ) -> Tuple[str, Dict[str, Any]]:
        # The contract votes as the transaction's sender, not the claim.
        method = self._METHODS.get(kind)
        if method is None:
            raise ProtocolError(f"contract TM cannot route {kind!r}")
        return method, {}


# ---------------------------------------------------------------------------
# Notary committee
# ---------------------------------------------------------------------------


class PaymentNotary(Notary):
    """A consensus notary whose input is the TM decision rule.

    It feeds the weak-liveness protocol's signed reports and requests
    through :class:`TMVotes`, forms a justified preference, and submits
    it to consensus with the evidence (who requested what) that lets
    its peers check the proposal.

    Extra parameters
    ----------------
    escrows:
        Names of the escrows whose "escrowed" reports are required.
    beneficiary:
        The sink customers whose commit requests count — Bob alone on
        a path; every sink on a payment DAG (one name or a sequence).
    """

    def __init__(
        self,
        *args: Any,
        escrows: List[str],
        beneficiary: Union[str, Iterable[str]],
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.votes = TMVotes(escrows, beneficiary)

    def handle_message(self, message: Envelope) -> None:
        if message.kind is MsgKind.CONSENSUS:
            super().handle_message(message)
            return
        if not valid_claim(
            message.payload, self.keyring, message.sender, self.payment_id
        ):
            return
        votes = self.votes
        votes.add(message.kind, message.sender)
        evidence = {
            "commit_requested": votes.sinks_requested,
            "abort_requested": votes.abort_requested,
            "reported": sorted(votes.reported),
        }
        if votes.abort_requested:
            self.abort_justified = True
        if votes.commit_ready:
            self.commit_justified = True
        if self.preference is None:
            if self.abort_justified:
                self.submit_preference(Decision.ABORT, evidence)
            elif self.commit_justified:
                self.submit_preference(Decision.COMMIT, evidence)
        else:
            self.evidence.update(evidence)


class _QuorumListener(DecisionListener):
    def __init__(self, keyring: Any, committee: List[str], threshold: int) -> None:
        self.assembler = QuorumAssembler(keyring, committee, threshold)

    def extract(self, envelope: Envelope) -> Optional[VerifiedDecision]:
        cert = self.assembler.add_envelope(envelope)
        if cert is None:
            return None
        return VerifiedDecision(decision=cert.decision, certificate=cert)


class CommitteeBackend(TMBackend):
    """TM as ``n_notaries`` notaries running partially synchronous
    consensus; decisions are quorum certificates of ``2f+1`` votes.

    ``byzantine`` maps notary *index* to a
    :class:`~repro.consensus.dls.NotaryBehavior`.
    """

    #: A decision is a quorum of notary votes, not one process's
    #: certificate, so nothing re-serves it to a restored escrow.
    server = None

    def __init__(
        self,
        n_notaries: int = 4,
        f: Optional[int] = None,
        round_duration: float = 10.0,
        byzantine: Optional[Dict[int, NotaryBehavior]] = None,
    ) -> None:
        super().__init__()
        if n_notaries < 1:
            raise ProtocolError("need at least one notary")
        self.n_notaries = n_notaries
        self.f = f if f is not None else max(0, (n_notaries - 1) // 3)
        self.round_duration = round_duration
        self.byzantine = dict(byzantine or {})
        self.committee = [f"notary{i}" for i in range(n_notaries)]

    @property
    def threshold(self) -> int:
        return 2 * self.f + 1

    def _processes(self, env: Any) -> List[Process]:
        topo = env.topology
        return [
            PaymentNotary(
                env.sim,
                name,
                env.network,
                env.keyring,
                env.identity_of(name),
                committee=self.committee,
                f=self.f,
                payment_id=topo.payment_id,
                subscribers=topo.participants(),
                clock=env.clock_of(name),
                round_duration=self.round_duration,
                behavior=self.byzantine.get(i),
                escrows=topo.escrows(),
                beneficiary=topo.sinks(),
            )
            for i, name in enumerate(self.committee)
        ]

    def report(self, process: Process, kind: MsgKind, claim: SignedClaim) -> None:
        for name in self.committee:
            process.network.send(process, name, kind, claim)  # type: ignore[attr-defined]

    def make_listener(self) -> DecisionListener:
        return _QuorumListener(self._keyring, self.committee, self.threshold)


def make_backend(spec: Any) -> TMBackend:
    """Resolve a backend from an option value.

    Accepts a ready :class:`TMBackend`, or one of the strings
    ``"trusted"``, ``"contract"``, ``"committee"`` (with defaults), or a
    tuple ``(name, kwargs)``.
    """
    if isinstance(spec, TMBackend):
        return spec
    if isinstance(spec, tuple):
        name, kwargs = spec
    else:
        name, kwargs = str(spec), {}
    if name == "trusted":
        return TrustedPartyBackend(**kwargs)
    if name == "contract":
        return ContractBackend(**kwargs)
    if name == "committee":
        return CommitteeBackend(**kwargs)
    raise ProtocolError(f"unknown TM backend {name!r}")


__all__ = [
    "ChainAgent",
    "ChainBackend",
    "CommitteeBackend",
    "ContractBackend",
    "ContractTMAgent",
    "DecisionListener",
    "DecisionServer",
    "PaymentNotary",
    "TMBackend",
    "TMVotes",
    "TransactionManagerContract",
    "TrustedPartyBackend",
    "TrustedPartyProcess",
    "VerifiedDecision",
    "make_backend",
    "valid_claim",
]
