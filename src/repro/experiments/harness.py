"""Experiment harness: result records and sweep helpers.

Also home to the declarative payment-trial conveniences the experiment
modules share: :func:`build_timing` turns a primitive timing descriptor
into a timing model, and :func:`payment_session` assembles a
:class:`~repro.core.session.PaymentSession` from a
:class:`~repro.runtime.spec.TrialSpec`'s options.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence

from ..errors import ExperimentError


@dataclass
class ExperimentResult:
    """One experiment's table, ready for rendering and assertions."""

    exp_id: str
    title: str
    claim: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> Dict[str, Any]:
        row = dict(values)
        missing = [c for c in self.columns if c not in row]
        if missing:
            raise ExperimentError(f"row missing columns {missing}")
        unknown = [k for k in row if k not in self.columns]
        if unknown:
            raise ExperimentError(
                f"row has unknown columns {unknown}; declared: {self.columns}"
            )
        self.rows.append(row)
        return row

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> List[Any]:
        return [row[name] for row in self.rows]

    def find_rows(self, **match: Any) -> List[Dict[str, Any]]:
        return [
            row
            for row in self.rows
            if all(row.get(k) == v for k, v in match.items())
        ]


def fraction(flags: Iterable[bool]) -> float:
    """Share of True values (0 for empty input)."""
    flags = list(flags)
    return sum(1 for f in flags if f) / len(flags) if flags else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def seeds_for(quick: bool, quick_count: int = 10, full_count: int = 40) -> List[int]:
    """Standard seed list for Monte-Carlo sweeps."""
    return list(range(quick_count if quick else full_count))


# -- declarative payment trials ------------------------------------------


def build_timing(descriptor: Sequence[Any]):
    """Build a timing model from a primitive ``(kind, params)`` pair.

    Trial specs must carry plain data only, so timing models travel as
    e.g. ``("synchronous", {"delta": 1.0})``,
    ``("partial", {"gst": 40.0, "delta": 1.0})``, or
    ``("asynchronous", {"mean_delay": 1.0})`` and are instantiated
    inside the trial function.
    """
    from ..net.timing import Asynchronous, PartialSynchrony, Synchronous

    kind = descriptor[0]
    params = dict(descriptor[1]) if len(descriptor) > 1 else {}
    if kind == "synchronous":
        return Synchronous(**params)
    if kind == "partial":
        return PartialSynchrony(**params)
    if kind == "asynchronous":
        return Asynchronous(**params)
    raise ExperimentError(f"unknown timing descriptor kind: {kind!r}")


def payment_session(spec, **overrides):
    """Assemble a linear-path :class:`PaymentSession` from a trial spec.

    Recognised option keys (overridable per call): ``n`` (escrow
    count), ``protocol``, ``timing`` (descriptor for
    :func:`build_timing`), ``rho``, ``byzantine``, ``horizon``,
    ``protocol_options``, ``payment_id``.  Non-primitive collaborators
    (clocks, adversaries) cannot ride in a spec and are passed via
    ``overrides`` by the trial function itself.  The session seed is
    the spec's derived trial seed.
    """
    from ..core.session import PaymentSession
    from ..core.topology import PaymentTopology

    opts = {**spec.options, **overrides}
    payment_id = opts.get("payment_id") or "-".join(
        str(c) for c in spec.coords
    ) or "payment"
    topo = PaymentTopology.linear(opts["n"], payment_id=payment_id)
    return PaymentSession(
        topo,
        opts["protocol"],
        build_timing(opts["timing"]),
        adversary=opts.get("adversary"),
        seed=spec.seed,
        rho=opts.get("rho", 0.0),
        clocks=opts.get("clocks"),
        byzantine=opts.get("byzantine"),
        horizon=opts.get("horizon"),
        protocol_options=opts.get("protocol_options"),
    )


__all__ = [
    "ExperimentResult",
    "build_timing",
    "fraction",
    "mean",
    "payment_session",
    "seeds_for",
]
