"""Tests: the notary-committee consensus substrate."""

import pytest

from repro.consensus.committee import QuorumAssembler
from repro.consensus.dls import Notary, NotaryBehavior
from repro.crypto.certificates import Decision, Vote
from repro.crypto.keys import KeyRing
from repro.errors import ConsensusError
from repro.net.network import Network
from repro.net.timing import PartialSynchrony, Synchronous
from repro.sim.kernel import Simulator


def _committee(n=4, f=1, seed=0, behaviors=None, gst=5.0, delta=0.5):
    sim = Simulator(seed=seed)
    network = Network(sim, PartialSynchrony(gst=gst, delta=delta))
    ring = KeyRing()
    names = [f"n{i}" for i in range(n)]
    notaries = []
    for i, name in enumerate(names):
        notary = Notary(
            sim, name, network, ring, ring.create(name),
            committee=names, f=f, payment_id="p",
            round_duration=5.0,
            behavior=(behaviors or {}).get(i),
        )
        network.register(notary)
        notaries.append(notary)
    return sim, network, ring, notaries


EV = {"commit_requested": True, "abort_requested": True}


class TestHonestConsensus:
    def test_unanimous_commit_decides_commit(self):
        sim, _, _, notaries = _committee()
        for n in notaries:
            sim.schedule(0.0, n.submit_preference, Decision.COMMIT, EV)
        sim.run(until=500.0)
        assert all(n.decided is Decision.COMMIT for n in notaries)

    def test_unanimous_abort_decides_abort(self):
        sim, _, _, notaries = _committee(seed=3)
        for n in notaries:
            sim.schedule(0.0, n.submit_preference, Decision.ABORT, EV)
        sim.run(until=500.0)
        assert all(n.decided is Decision.ABORT for n in notaries)

    @pytest.mark.parametrize("seed", range(6))
    def test_split_preferences_agree_on_one_value(self, seed):
        sim, _, _, notaries = _committee(seed=seed)
        for i, n in enumerate(notaries):
            value = Decision.COMMIT if i % 2 == 0 else Decision.ABORT
            sim.schedule(0.0, n.submit_preference, value, EV)
        sim.run(until=2_000.0, max_events=500_000)
        decided = {n.decided for n in notaries if n.decided is not None}
        assert len(decided) == 1  # agreement
        assert decided <= {Decision.COMMIT, Decision.ABORT}  # validity

    def test_late_notary_catches_up(self):
        sim, _, _, notaries = _committee(seed=4)
        # Only 3 of 4 receive input; the 4th must still decide.
        for n in notaries[:3]:
            sim.schedule(0.0, n.submit_preference, Decision.COMMIT, EV)
        sim.run(until=2_000.0, max_events=500_000)
        decided = [n.decided for n in notaries if n.decided is not None]
        assert len(decided) >= 3
        assert set(decided) == {Decision.COMMIT}

    def test_quorum_certificate_extractable(self):
        sim, _, ring, notaries = _committee(seed=5)
        for n in notaries:
            sim.schedule(0.0, n.submit_preference, Decision.COMMIT, EV)
        sim.run(until=500.0)
        qc = notaries[0].quorum_certificate(Decision.COMMIT)
        assert qc is not None
        assert qc.valid(ring, [n.name for n in notaries], threshold=3)
        assert notaries[0].quorum_certificate(Decision.ABORT) is None


class TestByzantineTolerance:
    def test_one_traitor_cannot_break_agreement(self):
        for seed in range(4):
            sim, _, _, notaries = _committee(
                seed=seed,
                behaviors={0: NotaryBehavior(equivocate_leader=True, double_vote=True)},
            )
            for i, n in enumerate(notaries):
                value = Decision.COMMIT if i % 2 == 0 else Decision.ABORT
                sim.schedule(0.0, n.submit_preference, value, EV)
            sim.run(until=2_000.0, max_events=500_000)
            honest_decided = {
                n.decided for n in notaries[1:] if n.decided is not None
            }
            assert len(honest_decided) <= 1  # never two values among honest

    def test_one_traitor_cannot_forge_conflicting_quorums(self):
        sim, _, ring, notaries = _committee(
            seed=2,
            behaviors={0: NotaryBehavior(equivocate_leader=True, double_vote=True)},
        )
        for i, n in enumerate(notaries):
            value = Decision.COMMIT if i % 2 == 0 else Decision.ABORT
            sim.schedule(0.0, n.submit_preference, value, EV)
        sim.run(until=2_000.0, max_events=500_000)
        votes = {Decision.COMMIT: set(), Decision.ABORT: set()}
        for n in notaries:
            for v in (Decision.COMMIT, Decision.ABORT):
                votes[v] |= set(n._decides[v])
        threshold = 3
        assert not (
            len(votes[Decision.COMMIT]) >= threshold
            and len(votes[Decision.ABORT]) >= threshold
        )

    def test_committee_size_validation(self):
        sim = Simulator()
        network = Network(sim, Synchronous(1.0))
        ring = KeyRing()
        with pytest.raises(ConsensusError):
            Notary(
                sim, "n0", network, ring, ring.create("n0"),
                committee=["n0", "n1", "n2"], f=1, payment_id="p",
            )  # N=3 < 3f+1=4

    def test_notary_must_be_member(self):
        sim = Simulator()
        network = Network(sim, Synchronous(1.0))
        ring = KeyRing()
        with pytest.raises(ConsensusError):
            Notary(
                sim, "outsider", network, ring, ring.create("outsider"),
                committee=["n0", "n1", "n2", "n3"], f=1, payment_id="p",
            )


class TestQuorumAssembler:
    def _votes(self, ring, names, decision=Decision.COMMIT):
        return [
            Vote.issue(ring.create(n), payment_id="p", decision=decision)
            for n in names
        ]

    def test_assembles_at_threshold(self):
        ring = KeyRing()
        committee = ["n0", "n1", "n2", "n3"]
        asm = QuorumAssembler(ring, committee, threshold=3)
        votes = self._votes(ring, committee[:3])
        assert asm.add_vote(votes[0]) is None
        assert asm.add_vote(votes[1]) is None
        cert = asm.add_vote(votes[2])
        assert cert is not None and cert.is_commit
        assert asm.votes_for(Decision.COMMIT) == 3

    def test_first_certificate_wins(self):
        ring = KeyRing()
        committee = ["n0", "n1", "n2", "n3"]
        asm = QuorumAssembler(ring, committee, threshold=2)
        for v in self._votes(ring, committee[:2]):
            asm.add_vote(v)
        assert asm.certificate is not None
        # Later conflicting votes are ignored once decided:
        for v in self._votes(ring, committee[2:], decision=Decision.ABORT):
            assert asm.add_vote(v) is None

    def test_duplicate_votes_do_not_inflate(self):
        ring = KeyRing()
        committee = ["n0", "n1", "n2"]
        asm = QuorumAssembler(ring, committee, threshold=2)
        v = self._votes(ring, ["n0"])[0]
        asm.add_vote(v)
        assert asm.add_vote(v) is None
        assert asm.votes_for(Decision.COMMIT) == 1
