"""Invariant harness for concurrent workloads on the liquidity substrate.

The workload layer's whole promise is that *contention changes which
payments run, never what a running payment is guaranteed*: funds stay
conserved at every ledger step, an admission's reservation can never be
drawn twice, and every payment that launches keeps its protocol's
Definition 1/2 properties even while siblings fail for liquidity.  This
module is that promise as tests:

* substrate micro-invariants — all-or-nothing admission with rollback,
  structural impossibility of double-spending a reservation, global
  conservation checkable between any two operations;
* a randomized 200-payment interleaved stress run per protocol with
  ``audit="every-op"`` (re-checking every ledger's conservation audit
  *and* the substrate's global ledger after every mutating operation),
  asserting per-payment Definition 1/2 amid sibling liquidity failures;
* the seed discipline — serial vs process-pool runs and resumed runs
  produce identical per-payment seeds, values, and persisted bytes;
* regressions for the single-session assumptions the workload layer
  had to break: per-worker adversary caching, session-scoped RNG and
  trace isolation, and the kernel's event counter being exact *inside*
  callbacks (not just between runs);
* memory that follows the payments in flight: a finished payment's
  session is freed when the cell finalizes it.
"""

from __future__ import annotations

import weakref

import pytest

from repro.analysis import RecordStore, analyze_store
from repro.core.session import PaymentSession
from repro.errors import ExperimentError, InsufficientFunds, WorkloadError
from repro.net.timing import Synchronous
from repro.runtime import (
    RecordWriter,
    SerialExecutor,
    TrialRecord,
    TrialSpec,
    load_sweep_result,
    resolve_executor,
    scan_records,
)
from repro.runtime.persist import RECORDS_JSONL, encode_record, record_to_dict
from repro.runtime.spec import derive_seed
from repro.scenarios.registry import make_adversary
from repro.scenarios.trial import _topology_for
from repro.sim.kernel import Simulator
from repro.sim.view import SessionView
from repro.workload import (
    LiquiditySubstrate,
    WorkloadSpec,
    diff_workload,
    expand_cell_record,
    payment_specs,
    run_workload_cell,
    sample_topologies,
    workload_payment,
)
from repro.workload.cli import _cell_stats, workload_main
from repro.workload.spec import cell_fingerprints, records_byte_length

PROTOCOLS = ("timebounded", "htlc", "weak", "certified")


# -- substrate micro-invariants -------------------------------------------


def test_admission_is_all_or_nothing_with_rollback():
    # linear-3 needs 100-102 units per escrow; capacity 150 admits one
    # payment but not two, and the failed admission must roll back.
    substrate = LiquiditySubstrate(150)
    first = _topology_for("linear-3", "wl-adm-0")
    second = _topology_for("linear-3", "wl-adm-1")
    assert substrate.admit(first)
    held = {
        (escrow, asset): substrate.available(escrow, asset)
        for (escrow, asset) in substrate._pools
    }
    assert not substrate.admit(second)
    # Rollback: the failed admission left every pool exactly as it was.
    for (escrow, asset), units in held.items():
        assert substrate.available(escrow, asset) == units
    assert substrate.admitted == 1 and substrate.rejected == 1
    assert substrate.conserved()


def test_a_reservation_cannot_be_drawn_twice():
    substrate = LiquiditySubstrate(300)
    topology = _topology_for("linear-3", "wl-dbl-0")
    assert substrate.admit(topology)
    fund = substrate.funding_hook()

    class _Sink:
        def mint(self, customer, amt):
            pass

    ledgers = {name: _Sink() for name, _ in topology.funding_plan().items()}
    fund(topology, ledgers)
    # The reservation is spent; drawing it again must raise before any
    # books change (Account.settle finds the reserved column short).
    with pytest.raises(InsufficientFunds):
        fund(topology, ledgers)
    assert substrate.conserved()


def test_conservation_holds_between_any_two_operations():
    substrate = LiquiditySubstrate(250)
    topologies = [_topology_for("linear-3", f"wl-cons-{i}") for i in range(4)]
    assert substrate.conserved()  # vacuously, before any pool exists
    for topology in topologies:
        substrate.admit(topology)
        assert substrate.conserved()  # after each admission (or rejection)


def test_retire_flags_a_ledger_that_lost_value():
    substrate = LiquiditySubstrate(300)
    topology = _topology_for("linear-3", "wl-audit-0")
    assert substrate.admit(topology)
    fund = substrate.funding_hook()

    class _LeakyLedger:
        def mint(self, customer, amt):
            pass

        def audit_ok(self):
            return False

    ledgers = {name: _LeakyLedger() for name in topology.funding_plan()}
    fund(topology, ledgers)
    with pytest.raises(WorkloadError):
        substrate.retire(topology.payment_id, ledgers)


def test_bad_capacity_and_bad_audit_mode_are_rejected():
    with pytest.raises(WorkloadError):
        LiquiditySubstrate(0)
    with pytest.raises(WorkloadError):
        run_workload_cell(protocol="htlc", count=1, load=0.1, audit="sometimes")


# -- the interleaved stress harness ---------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_stress_200_payments_conserve_and_keep_guarantees(protocol):
    """200 interleaved payments, per-op auditing, guarantees intact.

    The load/liquidity point is chosen so that liquidity failures
    *happen* (the contention regime, not a degenerate all-admitted
    run), and ``audit="every-op"`` makes the run raise at the first
    ledger operation after which any payment ledger or the global
    substrate would be out of conservation.
    """
    summary = run_workload_cell(
        protocol=protocol,
        count=200,
        load=2.0,
        liquidity=300,
        audit="every-op",
        seed=2026,
    )
    payments = summary["payments"]
    assert len(payments) == 200
    assert summary["conserved"], "substrate lost value"
    assert summary["in_flight_at_end"] == 0, "a payment never retired"
    assert summary["audited_ops"] > 0
    assert 0 < summary["liquidity_failures"] < 200, (
        "stress point must sit in the contention regime"
    )
    for values in payments:
        if values["liquidity_failed"]:
            # Never launched: nothing at risk, no guarantee verdicts.
            assert values["def1_ok"] is None and values["def2_ok"] is None
            assert values["messages"] == 0 and values["events"] == 0
            assert values["ledgers_ok"] and not values["bob_paid"]
        else:
            # Launched amid failing siblings: the paper's per-payment
            # guarantee must hold exactly as in a solo run.
            verdict = (
                values["def1_ok"]
                if values["def1_ok"] is not None
                else values["def2_ok"]
            )
            assert verdict, (protocol, values)
            assert values["ledgers_ok"], (protocol, values)
            assert values["all_terminated"], (protocol, values)


def test_stress_mixed_topologies_stay_conserved():
    summary = run_workload_cell(
        protocol="htlc",
        count=60,
        load=1.0,
        liquidity=400,
        topology_mix=(("linear-3", 2.0), ("tree-2", 1.0), ("fan-in-3", 1.0)),
        audit="every-op",
        seed=5,
    )
    assert summary["conserved"] and summary["in_flight_at_end"] == 0
    launched = [p for p in summary["payments"] if not p["liquidity_failed"]]
    shapes = {(p["leaves"], p["depth"]) for p in launched}
    assert len(shapes) > 1, "mix should launch more than one shape"


# -- seed discipline -------------------------------------------------------


def _expanded_dicts(records):
    out = []
    for cell_record in records:
        assert cell_record.error is None, cell_record.error
        out.extend(
            record_to_dict(r) for r in expand_cell_record(cell_record)
        )
    return out


def test_serial_and_parallel_runs_are_identical():
    spec = WorkloadSpec(
        protocols=("htlc", "weak"),
        loads=(0.05, 1.0),
        count=20,
        seed=11,
    )
    sweep = spec.compile()
    serial = _expanded_dicts(SerialExecutor().run(sweep).records)
    with resolve_executor(jobs=2) as executor:
        parallel = _expanded_dicts(executor.run(sweep).records)
    assert serial == parallel


def test_payment_seeds_and_coords_follow_the_derivation_discipline():
    spec = WorkloadSpec(protocols=("weak",), loads=(0.1,), count=5, seed=3)
    cell = spec.compile().trials[0]
    for index, payment in enumerate(payment_specs(cell)):
        assert payment.coords == cell.coords + (index,)
        assert payment.seed == derive_seed(cell.seed, index)
        assert payment.options["protocol"] == "weak"
        assert payment.options["load"] == 0.1
        assert payment.options["topology"] == "linear-3"


def test_resume_diff_reuses_complete_cells_and_reruns_the_rest():
    spec = WorkloadSpec(
        protocols=("htlc", "weak"), loads=(0.05,), count=8, seed=9
    )
    sweep = spec.compile()
    full = SerialExecutor().run(sweep).records
    expanded = [
        record
        for cell_record in full
        for record in expand_cell_record(cell_record)
    ]
    # All cells persisted: everything is reused, nothing re-runs.
    diff = diff_workload(sweep, expanded)
    assert diff.completed_cells == 2 and len(diff.missing) == 0

    # Only the first cell persisted (plus a torn write of the second):
    # the whole first cell is kept, the torn second cell re-runs.
    torn = expanded[: spec.count + 3]
    diff = diff_workload(sweep, torn)
    assert diff.completed_cells == 1 and len(diff.missing) == 1
    rerun = [
        record
        for cell_record in SerialExecutor().run(diff.missing).records
        for record in expand_cell_record(cell_record)
    ]
    resumed = diff.kept + rerun
    assert [record_to_dict(r) for r in resumed] == [
        record_to_dict(r) for r in expanded
    ]

    # A changed axis (different liquidity => different cell options)
    # invalidates the prefix instead of silently reusing stale records.
    changed = WorkloadSpec(
        protocols=("htlc", "weak"), loads=(0.05,), count=8, seed=9,
        liquidity=50,
    ).compile()
    diff = diff_workload(changed, expanded)
    assert diff.completed_cells == 0 and len(diff.missing) == 2


def test_resumed_bytes_equal_fresh_bytes():
    spec = WorkloadSpec(protocols=("htlc",), loads=(0.05, 1.0), count=6, seed=4)
    sweep = spec.compile()
    full = SerialExecutor().run(sweep).records
    expanded = [
        record
        for cell_record in full
        for record in expand_cell_record(cell_record)
    ]

    def encode(records):
        return "".join(map(encode_record, records)).encode("utf-8")

    diff = diff_workload(sweep, expanded[: spec.count])
    assert diff.kept_bytes == len(encode(diff.kept))
    rerun = [
        record
        for cell_record in SerialExecutor().run(diff.missing).records
        for record in expand_cell_record(cell_record)
    ]
    assert encode(diff.kept + rerun) == encode(expanded)


def test_records_byte_length_equals_the_written_file(tmp_path):
    """The resume arithmetic measures the bytes the writer wrote, for
    every kind of line: escaped non-ASCII, NaN/inf, nested values and
    error records."""
    records = [
        TrialRecord(
            spec=TrialSpec(fn="m:f", coords=("α", 0), seed=1,
                           options={"name": "Zürich → 東京", "rho": 0.25}),
            values={"latency": float("inf"), "gap": float("nan"),
                    "low": float("-inf"), "nested": {"a": [1, {"b": "ß"}]},
                    "emoji": "\U0001f600"},
            wall_seconds=0.125,
        ),
        TrialRecord(
            spec=TrialSpec(fn="m:f", coords=("β", 1), seed=2,
                           options={"timing": ["partial", 10.0]}),
            error="Traceback (most recent call last): ✗",
        ),
        TrialRecord(
            spec=TrialSpec(fn="m:f", coords=(2,), seed=2**62),
            values={"n": -0.0, "big": 2**70, "none": None},
        ),
    ]
    with RecordWriter(tmp_path / "out") as writer:
        for record in records:
            writer.write(record)
    scan = scan_records(tmp_path / "out")
    size = (tmp_path / "out" / RECORDS_JSONL).stat().st_size
    assert len(scan.records) == len(records)
    assert records_byte_length(scan.records) == size == scan.jsonl_bytes


def test_resume_refuses_cells_built_with_other_options():
    """rho/horizon/--set never reach a payment record, so only the
    manifest's cell fingerprints can tell a resume that the persisted
    cells were built differently."""
    spec = WorkloadSpec(protocols=("htlc",), loads=(0.05,), count=4, seed=2)
    sweep = spec.compile()
    expanded = [
        record
        for cell_record in SerialExecutor().run(sweep).records
        for record in expand_cell_record(cell_record)
    ]
    built_with = cell_fingerprints(sweep)
    assert diff_workload(sweep, expanded, built_with).completed_cells == 1
    drifted = WorkloadSpec(
        protocols=("htlc",), loads=(0.05,), count=4, seed=2, rho=0.1
    ).compile()
    # Identical payment records, different cell options.
    assert [s.options for s in payment_specs(drifted.trials[0])] == [
        s.options for s in payment_specs(sweep.trials[0])
    ]
    with pytest.raises(WorkloadError, match="different options"):
        diff_workload(drifted, expanded, built_with)
    # Without fingerprints (an interrupted write) the prefix is kept.
    assert diff_workload(drifted, expanded).completed_cells == 1


def test_cli_resume_with_other_rho_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "wl"
    base = ["--protocols", "htlc", "--loads", "0.05", "--payments", "3",
            "--out", str(out)]
    assert workload_main(base) == 0
    assert workload_main(base + ["--resume"]) == 0
    assert "0 new cells run, 1 reused" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        workload_main(base + ["--resume", "--rho", "0.1"])
    assert "different options" in capsys.readouterr().err


def test_refused_payment_record_has_the_payment_columns():
    """One record shape: a refused payment carries exactly the columns,
    in the same order, of a payment that ran."""
    spec = WorkloadSpec(
        protocols=("weak",), loads=(5.0,), count=6, liquidity=150, seed=1
    )
    (cell,) = SerialExecutor().run(spec.compile()).records
    ran = [p for p in cell["payments"] if not p["liquidity_failed"]]
    refused = [p for p in cell["payments"] if p["liquidity_failed"]]
    assert ran and refused
    assert {tuple(p) for p in ran + refused} == {tuple(ran[0])}


def test_payment_records_are_expansion_artifacts():
    spec = WorkloadSpec(protocols=("weak",), loads=(0.1,), count=2, seed=0)
    cell = spec.compile().trials[0]
    with pytest.raises(ExperimentError):
        workload_payment(payment_specs(cell)[0])


# -- single-session assumption regressions --------------------------------


def test_adversaries_are_fresh_per_payment():
    """Concurrent sessions must not share one cached adversary.

    Campaign trials cache adversary instances per worker and call
    ``reset()`` between runs — sound only because solo trials never
    overlap.  The workload runner must build a fresh instance per
    payment; a shared stateful adversary would mix the payments'
    attack logs (and its reset would fire mid-flight of a sibling).
    """
    topology = _topology_for("linear-3", "wl-adv")
    first = make_adversary("delayer", topology)
    second = make_adversary("delayer", topology)
    assert first is not second

    # And the cell actually runs clean with a stateful adversary under
    # heavy overlap — the behavioral half of the regression.
    summary = run_workload_cell(
        protocol="htlc",
        count=30,
        load=2.0,
        liquidity=400,
        adversary="delayer",
        audit="every-op",
        seed=13,
    )
    assert summary["conserved"] and summary["in_flight_at_end"] == 0


def test_session_views_isolate_rng_and_trace():
    """Two sessions on one kernel keep private randomness and traces."""
    kernel = Simulator(seed=0)
    views = [SessionView(kernel, seed=derive_seed(0, k)) for k in (0, 1)]
    draws = [view.rng.stream("network.delays").random() for view in views]
    assert draws[0] != draws[1], "sessions shared an RNG stream"

    sessions = []
    participant_counts = []
    for k, view in enumerate(views):
        session = PaymentSession(
            _topology_for("linear-3", f"wl-iso-{k}"),
            "htlc",
            Synchronous(1.0),
            seed=view.rng.master_seed,
            horizon=50_000.0,
            protocol_options={"delta": 1.0},
            sim=view,
        )
        participant_counts.append(len(session.launch()))
        sessions.append(session)
    kernel.run(until=50_000.0)
    outcomes = [s.collect() for s in sessions]
    assert all(o.bob_paid for o in outcomes)
    # Participants of concurrent payments share names ("alice", "e0",
    # ...), so a shared/bleeding trace would show every termination
    # twice; a private trace shows exactly one per own participant.
    traces = [s.env.sim.trace for s in sessions]
    assert traces[0] is not traces[1]
    from repro.sim.trace import TraceKind

    for count, trace in zip(participant_counts, traces):
        terminates = trace.events(TraceKind.TERMINATE)
        assert len(terminates) == count, "trace bled between sessions"


@pytest.mark.parametrize(
    "protocol, options", [("certified", None), ("weak", {"tm": "contract"})]
)
def test_full_trace_payment_traces_only_its_own_blocks(
    monkeypatch, protocol, options
):
    """A finished payment's chain keeps its kernel event but, idle,
    records nothing — not even once its arena, view and trace have
    passed to a later payment."""
    from repro.sim.trace import TraceKind

    heights = {}
    collect = PaymentSession.collect

    def capture(self, *args, **kwargs):
        heights[self.topology.payment_id] = [
            record.get("height")
            for record in self.env.sim.trace.events(TraceKind.STATE)
            if record.get("state") == "block"
        ]
        return collect(self, *args, **kwargs)

    monkeypatch.setattr(PaymentSession, "collect", capture)
    run_workload_cell(
        protocol=protocol,
        count=6,
        load=0.02,
        trace_level="full",
        seed=1,
        protocol_options=options,
    )
    assert len(heights) == 6
    for payment, seen in heights.items():
        assert seen and seen == sorted(set(seen)), (payment, seen)
    assert heights["workload-p1"] == [0, 1]


def test_kernel_event_counter_is_exact_inside_callbacks():
    """``executed_events`` is maintained in the hot loop, not lazily.

    The workload runner reads the counter *inside* arrival and stop
    callbacks to attribute per-payment event spans; an only-between-
    runs counter would misattribute every span.
    """
    sim = Simulator()
    seen = []

    def tick(i):
        seen.append((i, sim.executed_events))
        if i < 9:
            sim.schedule(1.0, tick, i + 1)

    sim.schedule(0.0, tick, 0)
    sim.run()
    # The i-th tick observes itself already counted: i+1 events so far.
    assert seen == [(i, i + 1) for i in range(10)]
    assert sim.executed_events == 10


@pytest.mark.parametrize("protocol", ["timebounded", "weak", "htlc", "certified"])
def test_a_cell_holds_only_the_sessions_in_flight(
    protocol, monkeypatch, refcounting_only
):
    """Reference counting alone frees a finished payment's session: the
    kernel keeps no callback of its cancelled deadline and no callback
    of its chain's parked tick, which would pin the whole world."""
    sessions = []
    live_at_collect = []
    launch, collect = PaymentSession.launch, PaymentSession.collect

    def watched_launch(self):
        sessions.append(weakref.ref(self))
        return launch(self)

    def counted_collect(self, *args, **kwargs):
        live_at_collect.append(sum(ref() is not None for ref in sessions))
        return collect(self, *args, **kwargs)

    monkeypatch.setattr(PaymentSession, "launch", watched_launch)
    monkeypatch.setattr(PaymentSession, "collect", counted_collect)
    cell = run_workload_cell(protocol=protocol, count=40, load=0.02, seed=5)
    assert cell["liquidity_failures"] == 0
    assert len(sessions) == len(live_at_collect) == 40
    assert max(live_at_collect) <= 2
    assert all(ref() is None for ref in sessions)


# -- monotone liquidity failure -------------------------------------------


def test_liquidity_failure_rate_is_monotone_in_load():
    rates = []
    for load in (0.01, 0.5, 2.0):
        summary = run_workload_cell(
            protocol="weak", count=60, load=load, liquidity=250, seed=17
        )
        rates.append(summary["liquidity_failure_rate"])
    assert rates == sorted(rates), rates
    assert rates[-1] > 0.0, "top load must actually contend"


# -- one percentile definition ----------------------------------------------


def test_workload_table_percentiles_equal_analyze(tmp_path, capsys):
    """The workload table's p50/p95 are analyze's p50/p95_latency over
    launched payments, exactly, cell by cell."""
    out = tmp_path / "wl"
    assert workload_main([
        "--protocols", "htlc,weak", "--loads", "0.02,1.0",
        "--payments", "20", "--liquidity", "250", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    cells = {}
    for record in load_sweep_result(out):
        cells.setdefault(tuple(record.spec.coords[:2]), []).append(record.values)
    assert any(p["liquidity_failed"] for ps in cells.values() for p in ps)
    table = analyze_store(
        RecordStore.load(out),
        where={"liquidity_failed": "False"},
        group_by=["protocol", "load"],
        metrics=["p50_latency", "p95_latency"],
    )
    assert len(table.rows) == len(cells)
    for row in table.rows:
        stats = _cell_stats(cells[(row["protocol"], row["load"])])
        assert (stats["p50"], stats["p95"]) == (
            row["p50_latency"], row["p95_latency"]
        )
