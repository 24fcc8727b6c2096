"""Unit tests: the blockchain substrate and standard contracts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.session import PaymentSession
from repro.crypto.certificates import Decision
from repro.errors import BlockchainError, SchedulingError
from repro.ledger.blockchain import SimpleChain
from repro.ledger.contracts import CertifiedBroadcastContract
from repro.protocols.weak.tm import TransactionManagerContract
from repro.runtime.spec import TrialSpec
from repro.scenarios.spec import CampaignSpec
from repro.scenarios.trial import scenario_trial
from repro.sim.kernel import Simulator
from repro.sim.process import Process


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
        """A transaction is final within one mempool wait plus
        ``confirmations`` block intervals of its submission."""
        sim, chain = _chain(block_interval=2.0, confirmations=3)
        chain.deploy(CertifiedBroadcastContract("log"))
        sim.run(until=0.5)
        tx = chain.submit("alice", "log", "publish", {"payload": 1})
        sim.run(until=20.0)
        time_to_finality = (1 + chain.confirmations) * chain.block_interval
        assert chain.receipts[tx.tx_id].final_at - 0.5 <= time_to_finality

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


# ---------------------------------------------------------------------------
# Parked block ticks: a differential against a chain that never parks
# ---------------------------------------------------------------------------

INTERVALS = (0.3, 0.5, 1.0, 2.0)
PRIORITIES = (10, 20, 30)


class _EagerChain(SimpleChain):
    """Builds every block, empty ones included: a chain that never parks."""

    def _arm(self):
        self.set_timer("produce", self.block_interval)


def _grid(start, interval, steps):
    """Block times of a chain started at ``start``, summed as the kernel does."""
    times = [start]
    for _ in range(steps):
        times.append(times[-1] + interval)
    return times


_tenths = st.integers(0, 60).map(lambda k: k / 10)


@st.composite
def chain_schedules(draw):
    """Chains, their start events and the clients' submission timers."""
    chains = draw(
        st.lists(
            st.tuples(
                st.sampled_from(INTERVALS),
                st.integers(0, 2),  # confirmations
                _tenths,  # start instant
                st.sampled_from(PRIORITIES),  # start event's priority
                st.one_of(st.none(), st.integers(0, 2)),  # finality reaction
            ),
            min_size=1,
            max_size=3,
        )
    )
    n = len(chains)
    submits = []
    for _ in range(draw(st.integers(0, 8))):
        target = draw(st.integers(0, n - 1))
        interval, _, start, _, _ = chains[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):  # exactly on some chain's block time
            time = _grid(start, interval, 12)[draw(st.integers(0, 12))]
        else:
            time = draw(_tenths)
        submits.append(
            (draw(st.integers(0, 2)), target, time, draw(st.sampled_from(PRIORITIES)))
        )
    return {
        "chains": chains,
        "before_start": draw(st.integers(0, n - 1)),
        "submits": submits,
    }


@st.composite
def driven_schedules(draw):
    """A chain schedule plus stop timers, run segments and steps."""
    schedule = draw(chain_schedules())
    schedule["stops"] = draw(
        st.lists(st.tuples(_tenths, st.sampled_from(PRIORITIES)), max_size=2)
    )
    schedule["runs"] = draw(
        st.lists(
            st.tuples(_tenths, st.one_of(st.none(), st.integers(1, 60))),
            min_size=1,
            max_size=4,
        )
    )
    schedule["steps"] = draw(st.integers(0, 5))
    return schedule


class _Client(Process):
    """Submits one transaction to a chain at each of its timers, or
    stops the run at a timer with no target chain."""

    def __init__(self, sim, name, world):
        super().__init__(sim, name)
        self.world = world
        self.targets = {}

    def on_timer(self, timer_id):
        target = self.targets[timer_id]
        if target is None:
            self.world.note("stop", timer_id)
            self.sim.stop()
            return
        sender = f"{self.name}.{timer_id}"
        self.world.note("submit", sender, target)
        self.world.chains[target].submit(sender, "log", "publish", {"payload": sender})


class _World:
    """One drawn schedule built on a fresh simulator, with its log."""

    def __init__(self, schedule, chain_cls):
        self.sim = sim = Simulator(seed=0)
        self.log = []
        self.chains = []
        for index, (interval, confirmations, start, priority, reaction) in enumerate(
            schedule["chains"]
        ):
            chain = chain_cls(
                sim, f"chain{index}", block_interval=interval, confirmations=confirmations
            )
            chain.deploy(CertifiedBroadcastContract("log"))
            chain.subscribe_finality(
                lambda receipt, index=index, reaction=reaction: self._final(
                    index, reaction, receipt
                )
            )
            sim.schedule_at(start, self._start, index, priority=priority)
            self.chains.append(chain)
        self.chains[schedule["before_start"]].submit(
            "setup", "log", "publish", {"payload": "setup"}
        )
        clients = [_Client(sim, f"client{i}", self) for i in range(3)]
        for n, (client, target, time, priority) in enumerate(schedule["submits"]):
            clients[client].targets[f"t{n}"] = target
            clients[client].set_timer_at(f"t{n}", time, priority=priority)
        for n, (time, priority) in enumerate(schedule.get("stops", ())):
            clients[0].targets[f"stop{n}"] = None
            clients[0].set_timer_at(f"stop{n}", time, priority=priority)

    def heights(self):
        return tuple(chain.height for chain in self.chains)

    def note(self, *what):
        sim = self.sim
        self.log.append((*what, sim.now, sim.executed_events, self.heights()))

    def _start(self, index):
        self.note("start", index)
        self.chains[index].start()

    def _final(self, index, reaction, receipt):
        sender = receipt.tx.sender
        self.note("final", index, sender, receipt.block_height, receipt.final_at)
        if reaction is not None and not sender.startswith("react"):
            target = reaction % len(self.chains)
            self.chains[target].submit(
                f"react.{sender}", "log", "publish", {"payload": sender}
            )

    def drive(self, schedule):
        """Run the drawn segments, then the drawn steps."""
        sim = self.sim
        until = 0.0
        for delta, max_events in schedule["runs"]:
            until += delta
            ran = sim.run(until=until, max_events=max_events)
            self.note("run", ran)
        for _ in range(schedule["steps"]):
            self.note("step", sim.step())
        return self

    def result(self):
        """The log, receipts, built blocks and block records to compare."""
        receipts = [
            [
                (r.tx.sender, r.block_height, r.executed_at, r.final_at, r.ok)
                for r in chain.receipts.values()
            ]
            for chain in self.chains
        ]
        blocks = [
            [(b.height, b.produced_at, [tx.sender for tx in b.txs]) for b in chain.blocks]
            for chain in self.chains
        ]
        records = [
            {key: value for key, value in record.items() if key != "seq"}
            for record in self.sim.trace.to_dicts()
        ]
        return self.log, receipts, blocks, records


def _next_time(sim):
    """Time of the earliest live event in the kernel's heap, or None."""
    return min(
        (entry[0] for entry in sim._heap if not entry[3].cancelled), default=None
    )


class TestParkedTicks:
    @settings(max_examples=200, deadline=None)
    @given(driven_schedules())
    def test_parked_chain_matches_a_chain_that_never_parks(self, schedule):
        log, receipts, blocks, records = (
            _World(schedule, SimpleChain).drive(schedule).result()
        )
        e_log, e_receipts, e_blocks, e_records = (
            _World(schedule, _EagerChain).drive(schedule).result()
        )
        assert log == e_log
        assert receipts == e_receipts
        # Only blocks with transactions are built and traced.
        assert blocks == [[b for b in chain if b[2]] for chain in e_blocks]
        assert records == [r for r in e_records if r["txs"]]

    @settings(max_examples=100, deadline=None)
    @given(chain_schedules(), _tenths)
    def test_step_and_run_agree(self, schedule, horizon):
        for chain_cls in (SimpleChain, _EagerChain):
            ran = _World(schedule, chain_cls)
            ran.sim.run(until=horizon)
            stepped = _World(schedule, chain_cls)
            sim = stepped.sim
            while (due := _next_time(sim)) is not None and due <= horizon:
                assert sim.step()
            assert stepped.log == ran.log
            assert sim.executed_events == ran.sim.executed_events
            assert stepped.heights() == ran.heights()

    def test_parked_tick_is_an_executed_event(self):
        sim, chain = _chain()
        sim.schedule_at(2.5, sim.stop)
        assert sim.run(until=5.5) == 3
        assert (sim.now, chain.height, sim.executed_events) == (2.5, 2, 3)
        assert sim.run(until=3.5) == 1
        assert (sim.now, chain.height, sim.executed_events) == (3.5, 3, 4)
        assert chain.blocks == [] and sim.pending_events == 1

    def test_submission_unparks_at_the_held_place(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        sim.run(until=2.5)
        tx = chain.submit("alice", "log", "publish", {"payload": 1})
        sim.run(until=3.5)
        assert chain.receipts[tx.tx_id].block_height == 2
        assert [b.height for b in chain.blocks] == [2]
        assert chain.height == 3

    def test_park_rejects_dead_and_parked_events(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.park(event, 1.0)
        with pytest.raises(SchedulingError):
            sim.park(event, 1.0)
        spent = sim.schedule(1.0, lambda: None)
        sim.cancel(spent)
        with pytest.raises(SchedulingError):
            sim.park(spent, 1.0)
        with pytest.raises(SchedulingError):
            sim.park(sim.schedule(1.0, lambda: None), 0.0)

    def test_cancelled_parked_event_stops_firing(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        park = sim.park(event, 1.0)
        assert sim.run(until=2.5) == 2
        sim.cancel(event)
        assert sim.run(until=10.0) == 0
        assert park.firings == 2 and sim.pending_events == 0

    def test_certified_campaign_trial_steps_as_it_runs(self, monkeypatch):
        """One certified trial, driven by ``run()`` and by ``step()`` alone."""
        compiled = CampaignSpec(
            protocols=["certified"], timings=["sync"], trials=1, seed=5
        ).compile()
        spec = next(iter(compiled))
        spec = TrialSpec(
            spec.fn, spec.coords, spec.seed, {**spec.options, "trace_level": "full"}
        )
        traces = []
        run = PaymentSession.run

        def traced_run(session):
            outcome = run(session)
            traces.append(session.env.sim.trace.to_dicts())
            return outcome

        def stepped_run(session):
            participants = session.launch()
            sim = session.env.sim
            while not all(p.terminated for p in participants):
                assert _next_time(sim) <= session.horizon
                assert sim.step()
            traces.append(sim.trace.to_dicts())
            return session.collect()

        monkeypatch.setattr(PaymentSession, "run", traced_run)
        ran = scenario_trial(spec)
        monkeypatch.setattr(PaymentSession, "run", stepped_run)
        assert scenario_trial(spec) == ran
        # Message ids come from a process-wide counter: compare them
        # relative to each run's first.
        for trace in traces:
            first = trace[0]["msg_id"]
            for record in trace:
                if "msg_id" in record:
                    record["msg_id"] -= first
        assert traces[0] == traces[1]
