"""Declarative workload specs compiled onto the runtime sweep machinery.

A :class:`WorkloadSpec` is the CLI's (and tests') view of a workload:
protocol and offered-load axes, an arrival process, a topology mix, and
the substrate's pool capacity.  ``compile()`` turns it into one
:class:`~repro.runtime.spec.SweepSpec` **cell** per (protocol, load)
point — cells are the unit of execution (each runs its own kernel +
substrate), so ``--jobs N`` fans cells out over a process pool exactly
like campaign trials, and the cell seed discipline
(``derive_seed(master, sweep_id, protocol, load)``) makes every cell —
and via ``derive_seed(cell_seed, k)`` every payment — a pure function
of the spec.

Persisted records are per *payment*, not per cell: the CLI expands each
cell's results into one record per payment (:func:`payment_specs` gives
their specs) before writing.  Resume therefore works on a
complete-cell-prefix discipline (:func:`diff_workload`): the longest
prefix of the record file that matches whole expected cells is kept
byte-identical, and every other cell re-runs — a cell is deterministic,
so re-running a half-written one reproduces the same records.  Kept
cells are checked against the option fingerprints the manifest stores
(:func:`cell_fingerprints`), so a resume with another ``--rho`` or
``--set`` is refused instead of silently reusing cells built without it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ScenarioError, WorkloadError
from ..runtime.aggregate import TrialRecord
from ..runtime.persist import encode_record
from ..runtime.spec import SweepSpec, TrialSpec, derive_seed
from .arrivals import ARRIVAL_PROCESSES

#: Import reference of the cell trial fn (what executors run).
TRIAL_REF = "repro.workload.runner:workload_cell"

#: Import reference stamped on per-payment records (expansion artifacts).
PAYMENT_REF = "repro.workload.runner:workload_payment"

#: Default pool capacity: ~2 concurrent linear-3 payments per escrow
#: (a linear-3 grant is 100–102 units), so moderate loads see real
#: contention without starving everything.
DEFAULT_LIQUIDITY = 250

DEFAULT_COUNT = 100
DEFAULT_LOADS = (0.02, 0.08)


def normalize_mix(
    topology_mix: Sequence[Sequence[Any]],
) -> List[Tuple[str, float]]:
    """Validate a mix into ``[(kind, positive weight), ...]`` pairs."""
    entries: List[Tuple[str, float]] = []
    for entry in topology_mix:
        kind, weight = entry
        weight = float(weight)
        if weight <= 0.0:
            raise WorkloadError(
                f"topology-mix weight must be positive, got {kind}:{weight}"
            )
        entries.append((str(kind), weight))
    if not entries:
        raise WorkloadError("topology mix must name at least one topology")
    return entries


def sample_topologies(
    seed: int, count: int, topology_mix: Sequence[Sequence[Any]]
) -> List[str]:
    """The topology kind of each payment, sampled from the cell's mix.

    Draws come from the cell seed's dedicated ``workload.mix`` stream —
    a pure function of (seed, count, mix), shared by the runner (to
    build the payments) and by :func:`payment_specs` (to reconstruct
    per-payment record specs without running anything).  A single-kind
    mix draws nothing, so adding a second kind never perturbs other
    streams.
    """
    from ..sim.rng import RngRegistry

    entries = normalize_mix(topology_mix)
    if len(entries) == 1:
        return [entries[0][0]] * count
    stream = RngRegistry(seed).stream("workload.mix")
    total_weight = sum(weight for _kind, weight in entries)
    kinds: List[str] = []
    for _ in range(count):
        draw = stream.random() * total_weight
        acc = 0.0
        chosen = entries[-1][0]
        for kind, weight in entries:
            acc += weight
            if draw < acc:
                chosen = kind
                break
        kinds.append(chosen)
    return kinds


def parse_topology_mix(text: str) -> Tuple[Tuple[str, float], ...]:
    """Parse ``kind[:weight],...`` (e.g. ``linear-3:2,tree-2:1``).

    Weights default to 1 and are relative (they need not sum to one).
    """
    entries: List[Tuple[str, float]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        kind, sep, raw_weight = part.partition(":")
        kind = kind.strip()
        try:
            weight = float(raw_weight) if sep else 1.0
        except ValueError:
            raise WorkloadError(
                f"bad topology-mix weight in {part!r}"
            ) from None
        if not kind or weight <= 0.0:
            raise WorkloadError(
                f"bad topology-mix entry {part!r}; expected kind[:weight] "
                "with a positive weight"
            )
        entries.append((kind, weight))
    if not entries:
        raise WorkloadError("topology mix must name at least one topology")
    return tuple(entries)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: axes, arrival process, mix, and substrate sizing."""

    protocols: Tuple[str, ...] = ("timebounded", "htlc", "weak", "certified")
    loads: Tuple[float, ...] = DEFAULT_LOADS
    count: int = DEFAULT_COUNT
    timing: str = "sync"
    adversary: str = "none"
    topology_mix: Tuple[Tuple[str, float], ...] = (("linear-3", 1.0),)
    arrivals: str = "uniform"
    liquidity: int = DEFAULT_LIQUIDITY
    horizon: Optional[float] = None
    rho: float = 0.0
    seed: int = 0
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    audit: Optional[str] = None
    sweep_id: str = "workload"

    def validate(self) -> None:
        from ..scenarios.registry import (
            TIMINGS,
            check_adversary,
            check_protocol,
            check_sweep_options,
            check_topology,
        )
        from ..scenarios.spec import unsupported_adversary_reason

        if not self.protocols:
            raise WorkloadError("workload needs at least one protocol")
        if not self.loads:
            raise WorkloadError("workload needs at least one offered load")
        for load in self.loads:
            if not (load > 0.0):
                raise WorkloadError(f"offered load must be positive, got {load!r}")
        if self.count < 1:
            raise WorkloadError(f"payment count must be >= 1, got {self.count}")
        if self.timing not in TIMINGS:
            raise WorkloadError(
                f"unknown timing {self.timing!r}; available: {', '.join(TIMINGS)}"
            )
        try:
            for protocol in self.protocols:
                check_protocol(protocol)
            # Accepts registry names and pattern families alike, so a
            # workload can sweep ``crash-restart-<point>-d<D>`` cells.
            check_adversary(self.adversary)
            check_sweep_options(
                self.protocols, (self.rho,), (self.horizon,), self.overrides
            )
        except ScenarioError as exc:
            raise WorkloadError(str(exc)) from None
        for protocol in self.protocols:
            # A campaign skips such a cell; a workload has no cell to
            # skip short of dropping the whole protocol, so it refuses.
            reason = unsupported_adversary_reason(
                protocol, self.adversary, self.overrides.get(protocol, {})
            )
            if reason is not None:
                raise WorkloadError(reason)
        for kind, _weight in self.topology_mix:
            check_topology(kind)
        if self.arrivals not in ARRIVAL_PROCESSES:
            raise WorkloadError(
                f"unknown arrival process {self.arrivals!r}; "
                f"available: {', '.join(ARRIVAL_PROCESSES)}"
            )
        if self.liquidity < 1:
            raise WorkloadError(
                f"pool capacity must be >= 1, got {self.liquidity}"
            )

    def cell_options(self, protocol: str) -> Dict[str, Any]:
        """The option payload one (protocol, load) cell carries."""
        from ..scenarios.registry import (
            DEFAULT_HORIZON,
            protocol_options,
            timing_descriptor,
        )

        options: Dict[str, Any] = {
            "protocol": protocol,
            "timing_name": self.timing,
            "timing": timing_descriptor(self.timing),
            "adversary": self.adversary,
            "topology_mix": [list(entry) for entry in self.topology_mix],
            "count": self.count,
            "arrivals": self.arrivals,
            "liquidity": self.liquidity,
            "horizon": self.horizon if self.horizon is not None else DEFAULT_HORIZON,
            "rho": self.rho,
            "protocol_options": protocol_options(
                protocol, self.overrides.get(protocol, {})
            ),
        }
        if self.audit is not None:
            options["audit"] = self.audit
        return options

    def compile(self) -> SweepSpec:
        """One cell per (protocol, load), in axis order."""
        self.validate()
        sweep = SweepSpec(sweep_id=self.sweep_id)
        for protocol in self.protocols:
            for load in self.loads:
                sweep.add(
                    TRIAL_REF,
                    self.seed,
                    (protocol, load),
                    load=load,
                    **self.cell_options(protocol),
                )
        return sweep


def payment_specs(cell: TrialSpec) -> List[TrialSpec]:
    """The per-payment specs a cell's record expands into.

    Payment ``k`` gets coords ``cell.coords + (k,)`` and seed
    ``derive_seed(cell.seed, k)`` — the exact seed the runner hands the
    session, so a persisted record's seed column *is* the payment seed.
    Options carry the compact per-payment facts analysis groups by
    (``flatten_record`` turns option keys into CSV columns): the
    protocol and offered load, the payment's *sampled* topology kind —
    reconstructed with :func:`sample_topologies`, the same pure function
    the runner draws from — and the scenario knobs.  The cell's full
    payload (timing descriptor, merged protocol options, ...) is not
    repeated ``count`` times; it is recoverable from the spec that
    produced the run.
    """
    count = int(cell.opt("count"))
    kinds = sample_topologies(cell.seed, count, cell.opt("topology_mix"))
    common = {
        "protocol": cell.opt("protocol"),
        "load": cell.opt("load"),
        "timing_name": cell.opt("timing_name"),
        "adversary": cell.opt("adversary"),
        "arrivals": cell.opt("arrivals"),
        "liquidity": cell.opt("liquidity"),
    }
    return [
        TrialSpec(
            fn=PAYMENT_REF,
            coords=cell.coords + (index,),
            seed=derive_seed(cell.seed, index),
            options={**common, "topology": kinds[index]},
        )
        for index in range(count)
    ]


def expand_cell_record(cell_record: TrialRecord) -> List[TrialRecord]:
    """Per-payment records from one successful cell record."""
    payments = cell_record.values["payments"]
    specs = payment_specs(cell_record.spec)
    if len(payments) != len(specs):
        raise WorkloadError(
            f"cell {cell_record.spec.coords!r} returned {len(payments)} "
            f"payments, expected {len(specs)}"
        )
    # wall_seconds stays 0.0: per-payment wall time is meaningless (the
    # cell runs as one kernel) and zeroing it keeps the record bytes a
    # pure function of the spec.
    return [
        TrialRecord(spec=spec, values=values)
        for spec, values in zip(specs, payments)
    ]


@dataclass
class WorkloadDiff:
    """Resume plan: byte-identical kept prefix + cells still to run."""

    kept: List[TrialRecord]
    kept_bytes: int
    completed_cells: int
    missing: SweepSpec


def records_byte_length(records: Sequence[TrialRecord]) -> int:
    """On-disk length of ``records`` as the writer serializes them.

    Each line comes from the writer's own encoder
    (:func:`~repro.runtime.persist.encode_record`), whose ASCII-only
    lines are as long in bytes as in characters.
    """
    return sum(len(encode_record(record)) for record in records)


def cell_fingerprints(sweep: SweepSpec) -> Dict[str, str]:
    """Each cell's full option payload as canonical JSON, keyed by coords.

    Payment records carry only compact per-payment options, so the
    knobs that shape a cell without entering its coordinates or seed
    (rho, horizon, ``--set`` overrides) are invisible in them.  The
    workload CLI stores these fingerprints in the manifest;
    :func:`diff_workload` checks kept cells against them.  The audit
    mode is left out: it verifies a run without changing it.
    """
    return {
        json.dumps(list(cell.coords)): json.dumps(
            {k: v for k, v in cell.options.items() if k != "audit"}, sort_keys=True
        )
        for cell in sweep
    }


def diff_workload(
    sweep: SweepSpec,
    records: Sequence[TrialRecord],
    built_with: Optional[Mapping[str, str]] = None,
) -> WorkloadDiff:
    """Diff a compiled workload against already-persisted payment records.

    Walks the expected per-payment sequence cell by cell; the longest
    prefix of ``records`` consisting of *whole*, matching, error-free
    cells is kept (and its byte length computed for the writer's
    truncation point).  Every other cell — half-written, mismatched, or
    simply not yet run — goes into ``missing`` and re-runs in full.

    ``built_with`` is the persisted :func:`cell_fingerprints` (absent
    from directories whose last write was interrupted).  A cell whose
    records match but whose fingerprint differs was built with other
    options; keeping it would mix incomparable evidence, so that is a
    :class:`~repro.errors.WorkloadError`, as campaigns refuse it.
    """
    built_with = built_with or {}
    fingerprints = cell_fingerprints(sweep) if built_with else {}
    kept: List[TrialRecord] = []
    missing = SweepSpec(sweep_id=sweep.sweep_id)
    position = 0
    prefix_intact = True
    completed = 0
    for cell in sweep.trials:
        expected = payment_specs(cell)
        matched = False
        if prefix_intact:
            chunk = list(records[position:position + len(expected)])
            matched = len(chunk) == len(expected) and all(
                record.ok
                and record.spec.fn == spec.fn
                and tuple(record.spec.coords) == spec.coords
                and record.spec.seed == spec.seed
                and dict(record.spec.options) == spec.options
                for record, spec in zip(chunk, expected)
            )
        if matched:
            key = json.dumps(list(cell.coords))
            if key in built_with and built_with[key] != fingerprints[key]:
                raise WorkloadError(
                    f"persisted cell {cell.coords!r} was run with different "
                    "options (rho/horizon/--set) than the requested "
                    "workload; use a fresh --out directory"
                )
            kept.extend(chunk)
            position += len(expected)
            completed += 1
        else:
            prefix_intact = False
            missing.trials.append(cell)
    return WorkloadDiff(
        kept=kept,
        kept_bytes=records_byte_length(kept),
        completed_cells=completed,
        missing=missing,
    )


__all__ = [
    "DEFAULT_COUNT",
    "DEFAULT_LIQUIDITY",
    "DEFAULT_LOADS",
    "PAYMENT_REF",
    "TRIAL_REF",
    "WorkloadDiff",
    "WorkloadSpec",
    "cell_fingerprints",
    "diff_workload",
    "expand_cell_record",
    "normalize_mix",
    "parse_topology_mix",
    "payment_specs",
    "records_byte_length",
    "sample_topologies",
]
