"""E8 — exhaustive verification of small instances.

Where E1/E4 sample schedules, E8 enumerates them: every combination of
boundary delays for the value-bearing messages of small configurations.
Zero violations over the full enumeration is the strongest executable
evidence this library can give for Theorems 1 and 3.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.topology import PaymentTopology
from ..net.message import MsgKind
from ..runtime import SweepResult, SweepSpec, resolve_executor
from ..verification.properties import check_outcome
from .harness import ExperimentResult, build_timing

#: The explored runs' timing descriptor (model and checker share it).
TIMING = ("synchronous", {"delta": 1.0})


def trial(spec) -> Dict[str, Any]:
    from ..verification import explore_payment

    n = spec.opt("n")
    protocol = spec.opt("protocol")
    protocol_options = dict(spec.opt("protocol_options") or {})

    def check(outcome):
        report = check_outcome(outcome, protocol, TIMING, protocol_options)
        return [repr(v) for v in report.violations()]

    report = explore_payment(
        topology_factory=lambda n=n: PaymentTopology.linear(n),
        protocol=protocol,
        timing_factory=lambda: build_timing(TIMING),
        check=check,
        choices=list(spec.opt("choices")),
        seed=spec.seed,
        protocol_options=protocol_options,
        decision_kinds=(
            MsgKind.MONEY,
            MsgKind.CERTIFICATE,
            MsgKind.DECISION,
            MsgKind.ESCROWED,
        ),
        max_paths=spec.opt("max_paths"),
    )
    return {
        "paths": report.paths,
        "max_decisions": report.decision_points_max,
        "violations": len(report.violations),
        "truncated": report.truncated,
    }


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    max_paths = 3000 if quick else 40_000
    configs = [
        ("timebounded n=1", 1, "timebounded", [0.0, 0.5, 1.0], {}),
        ("timebounded n=2", 2, "timebounded", [0.0, 1.0], {}),
    ]
    if not quick:
        configs.append(("timebounded n=3", 3, "timebounded", [0.0, 1.0], {}))
    configs.append(
        (
            "weak n=1 (trusted TM)",
            1,
            "weak",
            [0.0, 1.0],
            {
                "tm": "trusted",
                "patience_setup": 10_000.0,
                "patience_decision": 10_000.0,
            },
        )
    )
    sweep = SweepSpec(sweep_id="E8")
    for label, n, protocol, choices, options in configs:
        sweep.add(
            trial,
            seed,
            (label,),
            label=label,
            n=n,
            protocol=protocol,
            choices=choices,
            protocol_options=options,
            max_paths=max_paths,
        )
    return sweep


def aggregate(sweep: SweepResult) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E8",
        title="bounded exhaustive schedule exploration",
        claim=(
            "for small instances, EVERY legal synchronous delivery "
            "schedule satisfies the corresponding definition (no sampled "
            "luck involved)."
        ),
        columns=["config", "choices", "paths", "max_decisions", "violations"],
    )
    sweep.raise_any()
    for record in sweep:
        result.add_row(
            config=record.spec.opt("label"),
            choices=len(record.spec.opt("choices")),
            paths=record["paths"],
            max_decisions=record["max_decisions"],
            violations=record["violations"],
        )
        if record["truncated"]:
            result.note(
                f"{record.spec.opt('label')}: enumeration truncated at "
                "max_paths"
            )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "build_sweep", "run", "trial"]
