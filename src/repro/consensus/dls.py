"""Single-shot binary consensus for partial synchrony.

The paper's Theorem 3 construction lets the transaction manager be "a
collection of notaries ... of which less than one-third is assumed to
be unreliable.  They would run a consensus algorithm for partial
synchrony such as the one from Dwork, Lynch & Stockmeyer."  This module
is that algorithm, specialised to the single binary decision the TM
needs (commit vs abort).

Design (rotating leader, quorums of ``2f+1`` out of ``N >= 3f+1``):

* Rounds of (locally timed) duration ``T0 * 2^r`` — doubling handles
  the unknown GST: eventually a round is long enough *and* has an
  honest leader after GST.
* ``STATUS``: each notary reports its lock ``(value, locked_round)``
  (or its unlocked preference) to the round's leader.
* ``PROPOSE``: the leader proposes the reported lock from the highest
  round if any, else its own preference.  Proposals carry *evidence*
  (who requested what) so proposals without a justified input can be
  rejected — external validity.
* ``ECHO``: a notary endorses the proposal unless it is locked on the
  other value at a higher-or-equal round.  ``2f+1`` echoes ⇒ the notary
  locks the value and broadcasts a signed ``DECIDE`` vote.
* ``2f+1`` matching signed DECIDE votes form the decision's
  :class:`~repro.crypto.certificates.QuorumCertificate`.  Quorum
  intersection makes two conflicting certificates impossible with at
  most ``f`` Byzantine notaries — that is property CC.

Safety argument (executable check in the tests): two conflicting locks
in the same round would require two ``2f+1`` echo quorums, intersecting
in ``f+1`` notaries — at least one honest, which echoes once per round.
Across rounds the lock-carrying rule preserves the locked value of the
highest locked round.

Byzantine notaries are modelled through :class:`NotaryBehavior` flags:
``equivocate_leader`` (send different proposals to different peers) and
``double_vote`` (echo and DECIDE both values) — the attack repertoire
experiment E5 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from ..clocks import DriftingClock, PERFECT_CLOCK
from ..crypto.certificates import Decision, QuorumCertificate, Vote
from ..crypto.keys import Identity, KeyRing
from ..errors import ConsensusError
from ..net.message import Envelope, MsgKind
from ..net.network import Network
from ..sim.kernel import Simulator
from ..sim.process import Process
from ..sim.trace import TraceKind
from .messages import ConsensusMsg, Phase


@dataclass
class NotaryBehavior:
    """Deviation flags for Byzantine notaries."""

    equivocate_leader: bool = False  # propose commit to half, abort to the rest
    double_vote: bool = False  # echo + DECIDE both values

    @property
    def byzantine(self) -> bool:
        return self.equivocate_leader or self.double_vote


class Notary(Process):
    """One committee member.

    Parameters
    ----------
    committee:
        Ordered list of all notary names (leader rotation order).
    f:
        Assumed fault bound; quorums are ``2f+1``.
    subscribers:
        Participant names to which signed DECIDE votes are also sent
        (escrows and customers assembling quorum certificates).
    round_duration:
        Base round length ``T0`` in local-clock units.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        keyring: KeyRing,
        identity: Identity,
        committee: List[str],
        f: int,
        payment_id: str,
        subscribers: Optional[List[str]] = None,
        clock: DriftingClock = PERFECT_CLOCK,
        round_duration: float = 10.0,
        behavior: Optional[NotaryBehavior] = None,
        max_rounds: int = 64,
    ) -> None:
        super().__init__(sim, name)
        if name not in committee:
            raise ConsensusError(f"notary {name!r} not in its own committee")
        if len(committee) < 3 * f + 1:
            raise ConsensusError(
                f"committee of {len(committee)} cannot tolerate f={f} "
                f"(need N >= 3f+1)"
            )
        self.network = network
        self.keyring = keyring
        self.identity = identity
        self.committee = list(committee)
        self.f = f
        self.quorum = 2 * f + 1
        self.payment_id = payment_id
        self.subscribers = list(subscribers or [])
        self.clock = clock
        self.round_duration = float(round_duration)
        self.behavior = behavior or NotaryBehavior()
        self.max_rounds = max_rounds

        # Input state (external validity evidence):
        self.preference: Optional[Decision] = None
        self.evidence: Dict[str, Any] = {}
        self.commit_justified = False
        self.abort_justified = False

        # Consensus state:
        self.round = -1
        self.locked_value: Optional[Decision] = None
        self.locked_round = -1
        self.decided: Optional[Decision] = None
        self._statuses: Dict[int, Dict[str, ConsensusMsg]] = {}
        self._echoes: Dict[int, Dict[Decision, Set[str]]] = {}
        self._decides: Dict[Decision, Dict[str, Vote]] = {
            Decision.COMMIT: {},
            Decision.ABORT: {},
        }
        self._proposal_seen: Dict[int, ConsensusMsg] = {}
        self._started = False

    # -- local time helpers ----------------------------------------------------

    @property
    def now_local(self) -> float:
        return self.clock.local_time(self.sim.now)

    # -- external input ----------------------------------------------------------

    def submit_preference(self, value: Decision, evidence: Dict[str, Any]) -> None:
        """Feed a justified input (called by the committee front end)."""
        if value is Decision.COMMIT:
            self.commit_justified = True
        else:
            self.abort_justified = True
        if self.preference is None:
            self.preference = value
            self.evidence = dict(evidence)
        if self.behavior.double_vote:
            # A traitor does not wait for consensus: it signs DECIDE
            # votes for BOTH values outright (its signature is its own
            # to abuse; only quorum arithmetic can contain the damage).
            for v in (Decision.COMMIT, Decision.ABORT):
                if not self.vars_voted(v):
                    vote = Vote.issue(
                        self.identity, payment_id=self.payment_id, decision=v
                    )
                    self._decides[v][self.name] = vote
                    decide = ConsensusMsg(
                        phase=Phase.DECIDE,
                        round=max(self.round, 0),
                        payment_id=self.payment_id,
                        value=v,
                        vote=vote,
                    )
                    self._broadcast(decide, include_self=False)
                    for subscriber in self.subscribers:
                        self.network.send(self, subscriber, MsgKind.CONSENSUS, decide)
        if not self._started:
            self._started = True
            self._advance_round()

    # -- round machinery -------------------------------------------------------------

    def leader_of(self, rnd: int) -> str:
        return self.committee[rnd % len(self.committee)]

    def _advance_round(self) -> None:
        if self.terminated or self.decided is not None:
            return
        self.round += 1
        if self.round > self.max_rounds:
            self.note("consensus round limit reached", round=self.round)
            return
        duration = self.round_duration * (2 ** min(self.round, 20))
        deadline_local = self.now_local + duration
        self.set_timer_at("round", self.clock.global_time(deadline_local))
        # STATUS to the round's leader:
        status = ConsensusMsg(
            phase=Phase.STATUS,
            round=self.round,
            payment_id=self.payment_id,
            value=self.locked_value if self.locked_value else self.preference,
            locked_round=self.locked_round,
            evidence=self.evidence,
        )
        self._consensus_send(self.leader_of(self.round), status)
        # The leader also receives its own status implicitly:
        if self.leader_of(self.round) == self.name:
            self._note_status(self.name, status)

    def on_timer(self, timer_id: str) -> None:
        if timer_id == "round":
            self._advance_round()

    # -- message plumbing ---------------------------------------------------------------

    def _consensus_send(self, to: str, msg: ConsensusMsg) -> None:
        if to == self.name:
            return  # self-delivery handled inline by callers
        self.network.send(self, to, MsgKind.CONSENSUS, msg)

    def _broadcast(self, msg: ConsensusMsg, include_self: bool = True) -> None:
        for peer in self.committee:
            if peer == self.name:
                continue
            self._consensus_send(peer, msg)
        if include_self:
            self._handle_consensus(self.name, msg)

    def handle_message(self, message: Envelope) -> None:
        if message.kind is not MsgKind.CONSENSUS:
            return
        msg = message.payload
        if not isinstance(msg, ConsensusMsg) or msg.payment_id != self.payment_id:
            return
        self._handle_consensus(message.sender, msg)

    def _handle_consensus(self, sender: str, msg: ConsensusMsg) -> None:
        if sender not in self.committee:
            return
        if msg.round > self.round and self.decided is None:
            # Catch up: a peer is already in a later round (we may have
            # received no external input yet).  Adopt the round and its
            # timer so we can echo justified proposals.
            self._started = True
            self.round = msg.round
            duration = self.round_duration * (2 ** min(self.round, 20))
            self.set_timer_at(
                "round", self.clock.global_time(self.now_local + duration)
            )
        if msg.phase is Phase.STATUS:
            self._note_status(sender, msg)
        elif msg.phase is Phase.PROPOSE:
            self._on_propose(sender, msg)
        elif msg.phase is Phase.ECHO:
            self._on_echo(sender, msg)
        elif msg.phase is Phase.DECIDE:
            self._on_decide(sender, msg)

    # -- STATUS / PROPOSE ----------------------------------------------------------------

    def _note_status(self, sender: str, msg: ConsensusMsg) -> None:
        if msg.round < self.round or self.leader_of(msg.round) != self.name:
            return
        bucket = self._statuses.setdefault(msg.round, {})
        bucket[sender] = msg
        # Statuses spread justification (a notary that saw the abort
        # request informs a leader that did not):
        for key, val in msg.evidence.items():
            self.evidence.setdefault(key, val)
        if len(bucket) >= self.quorum and msg.round == self.round:
            self._propose(msg.round)

    def _propose(self, rnd: int) -> None:
        if self._proposal_seen.get(rnd) is not None or self.decided is not None:
            return
        bucket = self._statuses.get(rnd, {})
        # Pick the lock from the highest round, else any reported
        # preference (deterministically, by sender name), else our own:
        best: Optional[ConsensusMsg] = None
        for status in bucket.values():
            if status.locked_round >= 0 and status.value is not None and (
                best is None or status.locked_round > best.locked_round
            ):
                best = status
        value = best.value if best is not None else (
            self.locked_value or self.preference
        )
        if value is None:
            for sender in sorted(bucket):
                if bucket[sender].value is not None:
                    value = bucket[sender].value
                    break
        if value is None:
            return
        evidence = dict(self.evidence)
        if self.behavior.equivocate_leader:
            # Byzantine leader: equivocate, alternating the value by peer
            # parity (maximises the split of honest opinion).
            for idx, peer in enumerate(self.committee):
                v = Decision.COMMIT if idx % 2 == 0 else Decision.ABORT
                msg = ConsensusMsg(
                    phase=Phase.PROPOSE,
                    round=rnd,
                    payment_id=self.payment_id,
                    value=v,
                    locked_round=best.locked_round if best else -1,
                    evidence=evidence,
                )
                if peer == self.name:
                    self._on_propose(self.name, msg)
                else:
                    self._consensus_send(peer, msg)
            return
        proposal = ConsensusMsg(
            phase=Phase.PROPOSE,
            round=rnd,
            payment_id=self.payment_id,
            value=value,
            locked_round=best.locked_round if best else -1,
            evidence=evidence,
        )
        self._broadcast(proposal)

    # -- ECHO --------------------------------------------------------------------------------

    def _justified(self, value: Decision) -> bool:
        """External validity: only echo decisions someone really asked for."""
        if value is Decision.COMMIT:
            return self.commit_justified or bool(
                self.evidence.get("commit_requested")
            )
        return self.abort_justified or bool(self.evidence.get("abort_requested"))

    def _on_propose(self, sender: str, msg: ConsensusMsg) -> None:
        if self.decided is not None or msg.value is None:
            return
        if sender != self.leader_of(msg.round) or msg.round != self.round:
            return
        if self._proposal_seen.get(msg.round) is not None and not self.behavior.double_vote:
            return
        self._proposal_seen[msg.round] = msg
        # Merge proposal evidence so late notaries learn justification:
        for key, val in msg.evidence.items():
            self.evidence.setdefault(key, val)
        if not self._justified(msg.value):
            return
        if (
            self.locked_value is not None
            and self.locked_value is not msg.value
            and not self.behavior.double_vote
        ):
            # Honest notaries NEVER endorse a value conflicting with
            # their lock.  (No unlock rule: with binary single-shot
            # consensus, quorum arithmetic then makes two conflicting
            # vote quorums impossible for f < N/3 — see module doc.)
            return
        if self.behavior.double_vote:
            # Maximal misbehaviour: endorse BOTH values on any proposal.
            for value in (Decision.COMMIT, Decision.ABORT):
                self._broadcast(
                    ConsensusMsg(
                        phase=Phase.ECHO,
                        round=msg.round,
                        payment_id=self.payment_id,
                        value=value,
                    )
                )
            return
        echo = ConsensusMsg(
            phase=Phase.ECHO,
            round=msg.round,
            payment_id=self.payment_id,
            value=msg.value,
        )
        self._broadcast(echo)

    def _on_echo(self, sender: str, msg: ConsensusMsg) -> None:
        if msg.value is None:
            return
        rounds = self._echoes.setdefault(msg.round, {})
        voters = rounds.setdefault(msg.value, set())
        voters.add(sender)
        if len(voters) >= self.quorum and self.decided is None:
            self._lock_and_vote(msg.round, msg.value)

    def _lock_and_vote(self, rnd: int, value: Decision) -> None:
        already_voted = self.vars_voted(value)
        if (
            self.locked_value is not None
            and self.locked_value is not value
            and not self.behavior.double_vote
        ):
            return  # never abandon a lock for the conflicting value
        self.locked_value = value
        self.locked_round = rnd
        if already_voted:
            return
        vote = Vote.issue(
            self.identity, payment_id=self.payment_id, decision=value
        )
        self._decides[value][self.name] = vote
        decide = ConsensusMsg(
            phase=Phase.DECIDE,
            round=rnd,
            payment_id=self.payment_id,
            value=value,
            vote=vote,
        )
        self._broadcast(decide, include_self=False)
        for subscriber in self.subscribers:
            self.network.send(self, subscriber, MsgKind.CONSENSUS, decide)
        self._check_decided(value)

    def vars_voted(self, value: Decision) -> bool:
        """Whether this notary already cast a DECIDE for ``value``."""
        return self.name in self._decides[value]

    # -- DECIDE ----------------------------------------------------------------------------------

    def _on_decide(self, sender: str, msg: ConsensusMsg) -> None:
        if msg.vote is None or msg.value is None:
            return
        if msg.vote.notary != sender or not msg.vote.valid(self.keyring):
            return
        if msg.vote.decision is not msg.value or msg.vote.payment_id != self.payment_id:
            return
        self._decides[msg.value][sender] = msg.vote
        # A vote quorum is as good as an echo quorum for adopting a lock:
        if len(self._decides[msg.value]) >= self.quorum and not self.vars_voted(
            msg.value
        ):
            self._lock_and_vote(msg.round, msg.value)
        self._check_decided(msg.value)

    def _check_decided(self, value: Decision) -> None:
        if self.decided is not None:
            return
        if len(self._decides[value]) >= self.quorum:
            self.decided = value
            self.cancel_timer("round")
            self.sim.trace.record(
                self.sim.now,
                TraceKind.DECIDE,
                self.name,
                decision=value.value,
                round=self.round,
            )

    # -- certificates ---------------------------------------------------------------------------------

    def quorum_certificate(self, value: Decision) -> Optional[QuorumCertificate]:
        """Assemble a quorum certificate for ``value`` if votes suffice."""
        votes = list(self._decides[value].values())
        cert = QuorumCertificate(
            payment_id=self.payment_id, decision=value, votes=tuple(votes)
        )
        if cert.valid(self.keyring, self.committee, self.quorum):
            return cert
        return None


__all__ = ["Notary", "NotaryBehavior"]
