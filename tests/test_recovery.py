"""Crash–recovery lifecycle tests: the fault-injection harness end to end.

Three layers, mirroring the recovery stack:

1. :class:`~repro.sim.decision_log.DecisionLog` unit + fuzz tests — the
   fsync-boundary model and the torn-tail salvage contract (the same
   contract as ``scan_records`` in :mod:`repro.runtime.persist`) — and
   the write-ahead decision path every durable participant shares,
   ``Process.send_decision`` / ``Process.replay``.
2. The ``crash-restart`` adversary family — name parsing, registry
   resolution, victim targeting, capability gating via
   ``supports_recovery``.
3. End-to-end property tests: for every protocol × declared crash
   point × topology, a checkpoint → crash → restore run must be
   trace-equivalent to the honest run **or** a recorded, classified
   divergence (escrow refund instead of payment completion) — and the
   ledgers must balance either way.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import RecoveryError, ScenarioError, WorkloadError
from repro.protocols.base import protocol_class
from repro.runtime import SerialExecutor
from repro.runtime.spec import TrialSpec
from repro.scenarios.registry import (
    DEFAULT_CRASH_DOWNTIME,
    DEFAULT_CRASH_POINT,
    build_topology,
    check_adversary,
    make_adversary,
    parse_crash_restart,
)
from repro.scenarios.spec import (
    CampaignSpec,
    ScenarioSpec,
    unsupported_adversary_reason,
)
from repro.scenarios.trial import scenario_trial
from repro.sim.decision_log import (
    CHECKPOINT,
    DECISION,
    SENT,
    DecisionLog,
    encode_record,
)
from repro.sim.faults import CRASH_POINTS, CRASH_POINT_DOCS, FaultInjector
from repro.sim.kernel import Simulator
from repro.sim.process import Process

PROTOCOLS = ("timebounded", "weak", "certified", "htlc")


def run_cell(
    protocol, adversary, topology="linear-3", timing="sync", seed=1, options=None
):
    """One campaign cell through the real trial function."""
    spec = ScenarioSpec(
        protocol=protocol,
        timing=timing,
        adversary=adversary,
        topology=topology,
        protocol_options=options or {},
    ).validate()
    return scenario_trial(
        TrialSpec(
            fn="repro.scenarios.trial:scenario_trial",
            seed=seed,
            coords=spec.coords() + (0,),
            options=spec.options(),
        )
    )


# -- 1. DecisionLog and the write-ahead decision path ---------------------


class TestDecisionLog:
    def test_append_sync_crash_drops_volatile_tail(self):
        log = DecisionLog("e1")
        log.append(CHECKPOINT, state="await_certificate")
        log.sync()
        log.append(DECISION, state="send_commit")  # volatile
        assert len(log) == 2 and log.synced == 1
        assert log.crash() == 1
        assert [r["kind"] for r in log.durable_records()] == [CHECKPOINT]
        assert len(log) == 1 and log.synced == 1

    def test_torn_tail_keeps_complete_unsynced_records(self):
        log = DecisionLog("e1")
        log.append(CHECKPOINT, n=0)
        log.sync()
        first = encode_record({"kind": DECISION, "n": 1})
        log.append(DECISION, n=1)
        log.append(DECISION, n=2)
        # The whole first unsynced line reached the platter; the second
        # only partially.  Exactly one unsynced record survives.
        assert log.crash(torn_chars=len(first) + 3) == 2
        assert [r["n"] for r in log.records()] == [0, 1]

    def test_torn_tail_mid_record_fragment_is_dropped(self):
        log = DecisionLog("e1")
        log.append(CHECKPOINT, n=0)
        log.sync()
        log.append(DECISION, n=1)
        assert log.crash(torn_chars=4) == 1  # fragment ends mid-record
        assert [r["n"] for r in log.records()] == [0]

    def test_negative_torn_chars_rejected(self):
        log = DecisionLog("e1")
        with pytest.raises(RecoveryError):
            log.raw(torn_chars=-1)

    def test_salvage_interior_corruption_raises(self):
        good = encode_record({"kind": DECISION, "n": 1})
        stream = good + "garbage that is not json\n" + good
        with pytest.raises(RecoveryError):
            DecisionLog.salvage(stream)

    def test_salvage_non_record_final_line_is_torn_tail(self):
        good = encode_record({"kind": DECISION, "n": 1})
        # A decodable final line that is not a record dict counts as
        # torn, same as persist.scan_records treats trailing junk.
        assert DecisionLog.salvage(good + "[1, 2]\n")[0]["n"] == 1
        assert DecisionLog.salvage("") == []

    def test_checkpoint_replay_helpers(self):
        log = DecisionLog("e1")
        log.append(DECISION, n=0)
        log.append(CHECKPOINT, state="a")
        log.append(DECISION, n=1)
        log.append(CHECKPOINT, state="b")
        log.append(DECISION, n=2)
        log.sync()
        log.append(DECISION, n=3)  # volatile: invisible to replay
        index, checkpoint = log.last_checkpoint()
        assert index == 3 and checkpoint["state"] == "b"
        assert [r["n"] for r in log.since_checkpoint()] == [2]

    def test_fuzz_truncation_never_raises_and_salvages_prefix(self):
        # The torn-tail contract, fuzzed: for any byte-level truncation
        # of a valid log stream, salvage returns exactly the records
        # whose encoded lines lie fully inside the cut, and never
        # raises.  Mirrors the scan_records durability contract.
        rng = random.Random(0xFA17)
        records = [
            {"kind": rng.choice([CHECKPOINT, DECISION, "sent"]),
             "n": i, "payload": "x" * rng.randrange(0, 12)}
            for i in range(12)
        ]
        lines = [encode_record(r) for r in records]
        stream = "".join(lines)
        boundaries = [0]
        for line in lines:
            boundaries.append(boundaries[-1] + len(line))
        cuts = set(boundaries) | {rng.randrange(len(stream) + 1) for _ in range(200)}
        for cut in sorted(cuts):
            salvaged = DecisionLog.salvage(stream[:cut])
            complete = sum(1 for b in boundaries[1:] if b <= cut)
            assert len(salvaged) == complete, f"cut at {cut}"
            assert salvaged == records[:complete]

    def test_fuzz_crash_equals_salvage_of_raw(self):
        # log.crash(torn) must agree with salvaging the surviving byte
        # stream — the in-memory model and the byte model stay in sync.
        rng = random.Random(0xC4A5)
        for trial in range(50):
            log = DecisionLog("fuzz")
            for i in range(rng.randrange(1, 10)):
                log.append(DECISION, n=i)
                if rng.random() < 0.4:
                    log.sync()
            torn = rng.randrange(0, 120)
            expected = DecisionLog.salvage(log.raw(torn))
            survivors = log.crash(torn)
            assert survivors == len(expected)
            assert log.records() == expected
            assert log.synced == survivors


class StubNetwork:
    """Records what a process transmits, in order."""

    def __init__(self):
        self.sent = []

    def send(self, sender, to, kind, payload):
        self.sent.append((to, kind, payload))


class Decider(Process):
    """A bare participant whose restore only replays its log."""

    def __init__(self, sim):
        super().__init__(sim, "e1")
        self.network = StubNetwork()
        self.replayed = None

    def restore(self):
        self.replayed = self.replay()


SENDS = [("c2", "money", {"amount": 5}), ("c1", "secret", {"preimage": "x"})]


def decider(point=None):
    """A Decider, crashed at ``point`` by a real injector if given."""
    sim = Simulator(seed=0)
    process = Decider(sim)
    if point is not None:
        FaultInjector(process.name, point, 1.0).attach([process])
    return sim, process


def durable_kinds(process):
    return [r["kind"] for r in process.decision_log.durable_records()]


class TestWriteAheadDecisionPath:
    def test_without_a_log_it_only_transmits(self):
        _, process = decider()
        assert process.send_decision(SENDS, outcome="claimed") is True
        assert process.network.sent == SENDS
        assert process.decision_log is None

    def test_logged_decision_without_a_crash(self):
        _, process = decider()
        process.enable_durability()
        assert process.send_decision(SENDS, outcome="claimed") is True
        assert process.network.sent == SENDS
        assert durable_kinds(process) == [DECISION, SENT]
        decision = process.decision_log.durable_records()[0]
        assert decision["sends"] == SENDS and decision["outcome"] == "claimed"

    def test_crash_after_fsync_before_send(self):
        _, process = decider("post-sign-pre-send")
        assert process.send_decision(SENDS, outcome="claimed") is False
        assert process.crashed
        assert process.network.sent == []
        assert durable_kinds(process) == [DECISION]

    def test_crash_after_send(self):
        _, process = decider("post-send")
        assert process.send_decision(SENDS, outcome="claimed") is False
        assert process.crashed
        assert process.network.sent == SENDS
        assert durable_kinds(process) == [DECISION, SENT]

    @pytest.mark.parametrize("point", ["post-sign-pre-send", "post-send"])
    def test_replay_retransmits_only_an_unsent_decision(self, point):
        sim, process = decider(point)
        process.checkpoint(lock_id="L")
        process.send_decision(SENDS, outcome="claimed")
        sim.run()  # the injector restores the process after its downtime
        assert process.replayed is not None and not process.crashed
        checkpoint, decision = process.replayed
        assert checkpoint["lock_id"] == "L"
        assert decision["outcome"] == "claimed"
        # Sent exactly once overall: by the replay after the first
        # crash, by the original transmission after the second.
        assert process.network.sent == SENDS

    def test_replay_of_checkpoints_only(self):
        _, process = decider()
        process.enable_durability()
        process.checkpoint(state="a")
        process.checkpoint(state="b")
        checkpoint, decision = process.replay()
        assert checkpoint["state"] == "b" and decision is None
        assert process.network.sent == []

    def test_replay_skips_a_decision_before_the_newest_checkpoint(self):
        _, process = decider()
        process.enable_durability()
        process.send_decision(SENDS, outcome="claimed")
        process.checkpoint(state="after")
        assert process.replay() == ({"kind": CHECKPOINT, "state": "after"}, None)
        assert process.network.sent == SENDS  # the original send only

    def test_reach_crash_point_is_true_only_at_the_injectors_point(self):
        _, bare = decider()
        assert [bare.reach_crash_point(p) for p in CRASH_POINTS] == [False] * 3
        _, victim = decider("post-send")
        assert [victim.reach_crash_point(p) for p in CRASH_POINTS] == [
            False,
            False,
            True,
        ]


# -- 2. The crash-restart adversary family --------------------------------


class TestCrashRestartNames:
    def test_bare_name_uses_defaults(self):
        assert parse_crash_restart("crash-restart") == (
            DEFAULT_CRASH_POINT,
            DEFAULT_CRASH_DOWNTIME,
        )

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_every_declared_point_parses(self, point):
        assert parse_crash_restart(f"crash-restart-{point}") == (
            point,
            DEFAULT_CRASH_DOWNTIME,
        )
        assert parse_crash_restart(f"crash-restart-{point}-d2.5") == (point, 2.5)

    def test_downtime_only_variant(self):
        assert parse_crash_restart("crash-restart-d0") == (DEFAULT_CRASH_POINT, 0.0)
        assert parse_crash_restart("crash-restart-d7.25") == (
            DEFAULT_CRASH_POINT,
            7.25,
        )

    def test_non_family_names_return_none(self):
        for name in ("none", "delayer", "bob-edge", "crash", "crash-restartx"):
            assert parse_crash_restart(name) is None

    def test_unknown_point_raises(self):
        with pytest.raises(ScenarioError):
            parse_crash_restart("crash-restart-mid-flight")

    def test_check_adversary_accepts_the_family(self):
        check_adversary("crash-restart")
        check_adversary("crash-restart-post-send-d3")
        with pytest.raises(ScenarioError):
            check_adversary("crash-restart-nowhere-d3")

    def test_make_adversary_targets_recipient_side_escrow(self):
        topology = build_topology("linear-3", payment_id="t")
        victim = topology.in_edges(topology.sinks()[0])[0].escrow
        for name in ("crash-restart", "crash-restart-pre-decision-d0.5"):
            adversary = make_adversary(name, topology)
            assert adversary.victim == victim
            assert "crash" in adversary.describe().lower()
        parsed = make_adversary("crash-restart-pre-decision-d0.5", topology)
        assert parsed.point == "pre-decision" and parsed.downtime == 0.5

    def test_make_adversary_without_topology_raises(self):
        with pytest.raises(ScenarioError):
            make_adversary("crash-restart", None)

    def test_every_crash_point_is_documented(self):
        assert set(CRASH_POINT_DOCS) == set(CRASH_POINTS)
        assert all(CRASH_POINT_DOCS[p] for p in CRASH_POINTS)


class TestFaultInjectorValidation:
    def test_unknown_point_rejected(self):
        with pytest.raises(RecoveryError):
            FaultInjector("e1", "mid-flight", 1.0)

    def test_negative_downtime_rejected(self):
        with pytest.raises(RecoveryError):
            FaultInjector("e1", "pre-decision", -1.0)

    def test_attach_requires_the_victim_to_participate(self):
        injector = FaultInjector("ghost", "pre-decision", 1.0)
        with pytest.raises(RecoveryError):
            injector.attach([])


class TestCapabilityGate:
    def test_all_four_protocols_declare_recovery(self):
        for protocol in PROTOCOLS:
            assert protocol_class(protocol).supports_recovery
            assert unsupported_adversary_reason(protocol, "crash-restart") is None

    def test_non_crash_adversaries_never_gate(self):
        for adversary in ("none", "delayer", "bob-edge"):
            assert unsupported_adversary_reason("htlc", adversary) is None

    def test_protocol_without_recovery_skips_with_reason(self, monkeypatch):
        from repro.protocols.htlc.protocol import HTLCProtocol

        monkeypatch.setattr(HTLCProtocol, "supports_recovery", False)
        reason = unsupported_adversary_reason("htlc", "crash-restart-d1")
        assert reason is not None and "supports_recovery" in reason
        campaign = CampaignSpec(
            protocols=["htlc", "weak"],
            timings=["sync"],
            adversaries=["none", "crash-restart-d1"],
            trials=1,
        )
        skipped = campaign.unsupported_adversary_cells()
        assert [(p, a) for p, a, _ in skipped] == [("htlc", "crash-restart-d1")]
        # htlc runs only its "none" cell; weak runs both.
        assert len(campaign) == 3
        labels = [s.label for s in campaign.scenarios()]
        assert "htlc/sync/crash-restart-d1/linear-3" not in labels
        assert "weak/sync/crash-restart-d1/linear-3" in labels

    def test_campaign_of_only_gated_cells_raises(self, monkeypatch):
        from repro.protocols.htlc.protocol import HTLCProtocol

        monkeypatch.setattr(HTLCProtocol, "supports_recovery", False)
        campaign = CampaignSpec(
            protocols=["htlc"],
            timings=["sync"],
            adversaries=["crash-restart"],
            trials=1,
        )
        assert len(campaign) == 0
        with pytest.raises(ScenarioError, match="supports_recovery"):
            list(campaign.scenarios())

    def test_committee_tm_skips_crash_cells_with_reason(self, capsys):
        """The committee cannot re-serve a decision to a restored
        escrow, so the gate reads the cell's ``tm`` option and skips."""
        from repro.cli import main

        adversary = "crash-restart-pre-decision-d1"
        reason = unsupported_adversary_reason(
            "weak", adversary, {"tm": "committee"}
        )
        assert reason is not None and "tm=committee" in reason
        for tm in ("trusted", "contract"):
            assert unsupported_adversary_reason("weak", adversary, {"tm": tm}) is None
        assert main(["campaign", "--protocols", "weak", "--timings", "sync",
                     "--adversaries", f"none,{adversary}", "--topologies",
                     "linear-3", "--trials", "1",
                     "--set", "weak.tm=committee"]) == 0
        assert f"skipped weak x {adversary}: {reason}" in capsys.readouterr().out

    def test_committee_tm_crash_workload_is_a_usage_error(self, capsys):
        from repro.cli import main

        adversary = "crash-restart-pre-decision-d1"
        with pytest.raises(SystemExit) as exit_info:
            main(["workload", "--protocols", "weak", "--loads", "0.02",
                  "--payments", "3", "--adversary", adversary,
                  "--set", "weak.tm=committee"])
        assert exit_info.value.code == 2
        reason = unsupported_adversary_reason(
            "weak", adversary, {"tm": "committee"}
        )
        assert f"error: {reason}\n" in capsys.readouterr().err


# -- 3. End-to-end: checkpoint -> crash -> restore properties -------------


@pytest.mark.parametrize(
    "protocol, options",
    [(protocol, {}) for protocol in PROTOCOLS] + [("weak", {"tm": "contract"})],
    ids=list(PROTOCOLS) + ["weak-tm=contract"],
)
@pytest.mark.parametrize("point", CRASH_POINTS)
class TestCrashRestoreEveryProtocolEveryPoint:
    """The core property: each crash point either recovers to the honest
    outcome (trace-equivalent at the record level) or diverges into the
    one classified alternative — the victim-hop refund.  Ledgers must
    audit clean in both cases.  The weak protocol also runs with the
    contract TM, whose chain-hosted agent answers the requery."""

    def test_crash_recover_and_classify(self, protocol, options, point):
        baseline = run_cell(protocol, "none", options=options)
        record = run_cell(protocol, f"crash-restart-{point}-d1", options=options)
        assert record["crashed"] is True
        assert record["crash_point"] == point
        assert record["crash_downtime"] == 1.0
        assert record["recovered_at"] is not None
        assert record["ledgers_ok"] is True
        if protocol == "timebounded" and point == "pre-decision":
            # Classified divergence: the decision input (the incoming
            # certificate) dies with the volatile state, the victim's
            # escrow refunds, and strong liveness is lost — the same
            # failure mode the paper's Theorem 2 scheduler induces.
            assert record["bob_paid"] is False
            assert record["def1_ok"] is False
        else:
            # Trace-equivalent recovery: same terminal verdicts as the
            # honest run.  Weak/certified re-query the TM's decision,
            # HTLC replays from the durable lock, and post-send crashes
            # only need the local transition completed.
            assert record["bob_paid"] == baseline["bob_paid"] is True
            assert record["all_terminated"] is True
            for column in ("def1_ok", "def2_ok"):
                assert record[column] == baseline[column]


@pytest.mark.parametrize("topology", ("tree-2", "fan-in-3"))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_crash_restart_on_graph_topologies(protocol, topology):
    record = run_cell(protocol, "crash-restart-post-sign-pre-send-d1", topology)
    assert record["crashed"] is True and record["recovered_at"] is not None
    assert record["bob_paid"] is True
    assert record["all_terminated"] is True
    assert record["ledgers_ok"] is True


def test_zero_downtime_restart_is_transparent():
    for protocol in PROTOCOLS:
        record = run_cell(protocol, "crash-restart-post-sign-pre-send-d0")
        assert record["crashed"] is True
        assert record["recovered_at"] is not None
        assert record["bob_paid"] is True and record["all_terminated"] is True
        assert record["ledgers_ok"] is True


def test_timebounded_window_calculus_downtime_threshold():
    """The headline recovery question: at what downtime does the
    time-bounded protocol's window calculus stop tolerating a
    post-sign-pre-send crash?  Under sync timing (Δ=1) the upstream
    relay windows absorb roughly two window-widths of outage; past
    that, conditional payments upstream of the victim expire before the
    retransmitted commit arrives."""
    verdicts = {
        d: run_cell("timebounded", f"crash-restart-post-sign-pre-send-d{d}")
        for d in (0.5, 2.0, 5.0, 10.0)
    }
    for d in (0.5, 2.0):
        assert verdicts[d]["def1_ok"] is True, f"d={d}"
        assert verdicts[d]["bob_paid"] is True
    for d in (5.0, 10.0):
        assert verdicts[d]["def1_ok"] is False, f"d={d}"
    # Whatever the verdict, the money is conserved.
    assert all(r["ledgers_ok"] for r in verdicts.values())


def test_recovery_columns_only_on_crash_cells():
    honest = run_cell("weak", "none")
    for column in ("crashed", "crash_point", "crash_downtime", "recovered_at"):
        assert column not in honest
    crashed = run_cell("weak", "crash-restart-d1")
    for column in ("crashed", "crash_point", "crash_downtime", "recovered_at"):
        assert column in crashed


def test_campaign_sweep_with_crash_axis_end_to_end():
    sweep = CampaignSpec(
        protocols=list(PROTOCOLS),
        timings=["sync"],
        adversaries=["none", "crash-restart-d1"],
        trials=1,
        seed=5,
        campaign_id="recovery-smoke",
    ).compile()
    records = SerialExecutor().run(sweep)
    assert len(records) == 8
    for record in records:
        assert record.error is None, record.error
        adversary = record.spec.coords[2]
        if adversary == "none":
            assert "crashed" not in record.values
        else:
            assert record.values["crashed"] is True
            assert record.values["recovered_at"] is not None
        assert record.values["ledgers_ok"] is True


def test_workload_cells_carry_recovery_columns():
    from repro.workload import WorkloadSpec, expand_cell_record

    sweep = WorkloadSpec(
        protocols=("weak",),
        loads=(0.05,),
        count=3,
        adversary="crash-restart-d1",
        liquidity=10_000,
        seed=3,
        sweep_id="wl-crash",
    ).compile()
    payments = [
        record
        for cell in SerialExecutor().run(sweep)
        for record in expand_cell_record(cell)
    ]
    assert len(payments) == 3
    for payment in payments:
        values = payment.values
        assert values["crashed"] is True
        assert values["crash_point"] == DEFAULT_CRASH_POINT
        assert values["recovered_at"] is not None
        assert values["bob_paid"] is True and values["ledgers_ok"] is True


def test_workload_rejects_bad_crash_variant():
    from repro.workload import WorkloadSpec

    with pytest.raises(WorkloadError, match="crash point"):
        WorkloadSpec(adversary="crash-restart-nowhere").validate()
