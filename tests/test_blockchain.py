"""Unit tests: the blockchain substrate and standard contracts."""

import pytest

from repro.crypto.certificates import Decision
from repro.errors import BlockchainError
from repro.ledger.blockchain import SimpleChain
from repro.ledger.contracts import CertifiedBroadcastContract
from repro.protocols.weak.tm import TransactionManagerContract
from repro.sim.kernel import Simulator


def _chain(block_interval=1.0, confirmations=1, seed=0):
    sim = Simulator(seed=seed)
    chain = SimpleChain(sim, "chain", block_interval=block_interval, confirmations=confirmations)
    chain.start()
    return sim, chain


class TestChain:
    def test_blocks_produced_on_schedule(self):
        sim, chain = _chain()
        sim.run(until=5.5)
        assert chain.height == 5

    def test_tx_included_in_next_block(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        tx = chain.submit("alice", "log", "publish", {"payload": 1})
        sim.run(until=1.5)
        receipt = chain.receipts[tx.tx_id]
        assert receipt.ok and receipt.block_height == 0

    def test_finality_notification_delayed_by_confirmations(self):
        sim, chain = _chain(confirmations=3)
        chain.deploy(CertifiedBroadcastContract("log"))
        seen = []
        chain.subscribe_finality(lambda r: seen.append((r.tx.tx_id, sim.now)))
        chain.submit("alice", "log", "publish", {"payload": 1})
        sim.run(until=10.0)
        assert seen and seen[0][1] == pytest.approx(4.0)  # block@1 + 3 conf

    def test_failed_tx_reported_not_fatal(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        tx = chain.submit("alice", "log", "no_such_method", {})
        sim.run(until=1.5)
        receipt = chain.receipts[tx.tx_id]
        assert not receipt.ok and "unknown method" in receipt.error

    def test_submit_to_unknown_contract_rejected(self):
        sim, chain = _chain()
        with pytest.raises(BlockchainError):
            chain.submit("alice", "nope", "m", {})

    def test_duplicate_deploy_rejected(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        with pytest.raises(BlockchainError):
            chain.deploy(CertifiedBroadcastContract("log"))

    def test_time_to_finality(self):
        sim, chain = _chain(block_interval=2.0, confirmations=3)
        assert chain.time_to_finality() == 8.0

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(BlockchainError):
            SimpleChain(sim, "c", block_interval=0.0)
        with pytest.raises(BlockchainError):
            SimpleChain(sim, "c", confirmations=-1)


class TestTransactionManagerContract:
    """Contract-specific checks; the decision rule itself is
    ``tests/test_weak.py::TestTMVotes``."""

    def _tm(self):
        sim, chain = _chain()
        tm = TransactionManagerContract("tm", "p", escrows=["e0", "e1"], beneficiary="bob")
        chain.deploy(tm)
        return sim, chain, tm

    def test_only_registered_escrows_may_report(self):
        sim, chain, tm = self._tm()
        tx = chain.submit("intruder", "tm", "escrowed", {})
        sim.run(until=2.0)
        assert not chain.receipts[tx.tx_id].ok
        assert tm.votes.reported == set()

    def test_only_beneficiary_may_request_commit(self):
        sim, chain, tm = self._tm()
        tx = chain.submit("eve", "tm", "request_commit", {})
        sim.run(until=2.0)
        assert not chain.receipts[tx.tx_id].ok
        assert tm.votes.commit_requested == set()

    def test_decided_at_height_is_the_deciding_block(self):
        sim, chain, tm = self._tm()
        chain.submit("e0", "tm", "escrowed", {})
        chain.submit("e1", "tm", "escrowed", {})
        sim.run(until=1.5)  # block 0: both reports, no decision yet
        assert tm.decision is None and tm.decided_at_height is None
        chain.submit("bob", "tm", "request_commit", {})
        sim.run(until=2.5)  # block 1: the deciding request
        chain.submit("bob", "tm", "request_abort", {})
        sim.run(until=3.5)  # block 2: too late to change anything
        assert tm.decision is Decision.COMMIT
        assert tm.decided_at_height == 1


class TestCertifiedBroadcast:
    def test_publish_and_read(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        chain.submit("a", "log", "publish", {"payload": "r1"})
        chain.submit("b", "log", "publish", {"payload": "r2"})
        sim.run(until=1.5)
        log = chain.contract("log").log
        assert [r.payload for r in log] == ["r1", "r2"]
        assert [r.publisher for r in log] == ["a", "b"]
        assert log[0].index == 0 and log[1].index == 1

    def test_order_is_submission_order_within_block(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        for i in range(5):
            chain.submit("a", "log", "publish", {"payload": i})
        sim.run(until=1.5)
        assert [r.payload for r in chain.contract("log").log] == list(range(5))
