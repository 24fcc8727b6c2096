"""E3 — Theorem 2: impossibility under partial synchrony.

The proof quantifies over protocols; an experiment quantifies over a
*family*.  We take the natural family the theorem defeats:

* the time-bounded protocol instantiated with any assumed bound
  Δ' ∈ {1, 10, 100} — the adversary withholds certificates until after
  the protocol's entire timeout horizon (legal pre-GST), so Bob has
  irrevocably issued χ while the refund cascade runs: **customer
  security or liveness fails**;
* the *no-timeout* variant (escrows wait for χ forever) — the adversary
  withholds χ and the run never terminates: **termination fails**.

Either horn kills Definition 1; that disjunction is the theorem.  For
contrast, the last row runs the Definition 2 protocol (Theorem 3) under
the same adversary: it aborts safely and terminates.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.params import TimingAssumptions, compute_graph_params
from ..core.topology import PaymentTopology
from ..runtime import SweepResult, SweepSpec, resolve_executor
from ..verification.properties import check_outcome
from .harness import ExperimentResult, payment_session

EPSILON = 0.05
N = 3


def trial(spec) -> Dict[str, Any]:
    from ..net.adversary import CertificateWithholdingAdversary

    gst = spec.opt("gst")
    timing = spec.opt("timing")
    protocol_options = spec.opt("protocol_options")
    if spec.opt("variant") == "bounded":
        assumed = spec.opt("assumed_delta")
        params = compute_graph_params(
            PaymentTopology.linear(N),
            TimingAssumptions(delta=assumed, epsilon=EPSILON, rho=0.0),
        )
        # Adaptive adversary: pick GST beyond the whole timeout horizon.
        gst = 4.0 * params.global_termination_bound()
        timing = ("partial", {"gst": gst, "delta": 1.0})
        protocol_options = {"delta": assumed, "epsilon": EPSILON}
    outcome = payment_session(
        spec,
        timing=timing,
        adversary=CertificateWithholdingAdversary(),
        protocol_options=protocol_options,
    ).run()
    report = check_outcome(
        outcome, spec.opt("protocol"), timing, protocol_options
    )
    return {
        "gst": gst,
        "chi_issued": outcome.chi_issued(),
        "bob_paid": outcome.bob_paid,
        "def_ok": report.all_ok,
        "violated": ",".join(
            sorted(v.property_id.value for v in report.violations())
        )
        or "-",
    }


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    sweep = SweepSpec(sweep_id="E3")
    assumed_deltas = [1.0, 10.0] if quick else [1.0, 10.0, 100.0]
    for assumed in assumed_deltas:
        sweep.add(
            trial,
            seed,
            ("bounded", assumed),
            variant="bounded",
            assumed_delta=assumed,
            protocol_label="timebounded",
            n=N,
            protocol="timebounded",
            payment_id=f"e3-{assumed}",
        )
    # The no-timeout horn: money stays escrowed, nobody terminates.
    sweep.add(
        trial,
        seed,
        ("no_timeout",),
        variant="no_timeout",
        assumed_delta="inf",
        protocol_label="timebounded/no-timeout",
        n=N,
        protocol="timebounded",
        timing=("partial", {"gst": 5_000.0, "delta": 1.0}),
        gst=5_000.0,
        horizon=20_000.0,
        protocol_options={"delta": 1.0, "epsilon": EPSILON, "no_timeout": True},
        payment_id="e3-notimeout",
    )
    # Contrast: the Definition 2 protocol under the same adversary.
    sweep.add(
        trial,
        seed,
        ("weak",),
        variant="weak",
        assumed_delta="-",
        protocol_label="weak (Def 2)",
        n=N,
        protocol="weak",
        timing=("partial", {"gst": 500.0, "delta": 1.0}),
        gst=500.0,
        horizon=50_000.0,
        protocol_options={
            "tm": "trusted",
            "patience_setup": 50.0,
            "patience_decision": 50.0,
        },
        payment_id="e3-weak",
    )
    return sweep


def aggregate(sweep: SweepResult) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E3",
        title="no eventually-terminating protocol under partial synchrony (Theorem 2)",
        claim=(
            "For every timeout choice, a legal partial-synchrony adversary "
            "forces a Definition 1 violation (safety/liveness for finite "
            "timeouts; termination for none).  The weak protocol survives."
        ),
        columns=[
            "protocol", "assumed_delta", "gst", "chi_issued", "bob_paid",
            "def_ok", "violated",
        ],
    )
    sweep.raise_any()
    for record in sweep:
        result.add_row(
            protocol=record.spec.opt("protocol_label"),
            assumed_delta=record.spec.opt("assumed_delta"),
            gst=record["gst"],
            chi_issued=record["chi_issued"],
            bob_paid=record["bob_paid"],
            def_ok=record["def_ok"],
            violated=record["violated"],
        )
    result.note(
        "the adversary holds every chi message as long as the timing model "
        "allows; GST is chosen adaptively per protocol instance."
    )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run", "trial"]
