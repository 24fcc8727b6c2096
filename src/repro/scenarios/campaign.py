"""Campaign execution and aggregation.

A campaign's records reduce to one :class:`ExperimentResult` table with
a row per (protocol × timing × adversary) group — topologies and
Monte-Carlo repetitions are pooled within the group, which is the view
the paper's theorems speak in: *which protocol survives which network
against which scheduler*.  Reduction happens in the parent process over
spec-ordered records, so the rendered table is byte-identical whatever
the worker count.

Next to the outcome columns, every row reports the share of its runs
on which the protocol's *own* definition held (``def1_ok`` for the
time-bounded/HTLC protocols, ``def2_ok`` for the weak/certified ones;
the inapplicable column renders ``-``), computed per trial by
:mod:`repro.verification.properties`.

Aggregation consumes a :class:`~repro.runtime.aggregate.SweepResult`,
which may equally come from a live executor run or from
:func:`~repro.runtime.persist.load_sweep_result` on a ``--out``
directory — :func:`load_campaign` re-renders a persisted campaign
byte-identically without re-running a single trial.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Sequence, Tuple, Union

from ..errors import PersistenceError, ScenarioError
from ..experiments.harness import ExperimentResult, fraction, mean
from ..experiments.tables import render_table
from ..runtime import (
    Executor,
    SweepResult,
    TrialRecord,
    load_sweep_result,
    resolve_executor,
)
from ..runtime.spec import SweepSpec
from .spec import TRIAL_REF, CampaignSpec

#: Options that define aggregation groups, in row order.
GROUP_AXES = ("protocol", "timing_name", "adversary")


def _check_fraction(records, key):
    """Fraction of applicable definition checks that passed, or ``-``.

    ``None`` marks a record whose protocol is not checked against this
    definition (see :func:`repro.verification.properties.property_columns`);
    a group with no applicable records renders ``-``, distinct from a
    checked-and-failed 0.0.
    """
    flags = [r[key] for r in records if r.get(key) is not None]
    return fraction(flags) if flags else "-"


def aggregate_campaign(
    sweep: SweepResult,
    skip_errors: bool = False,
    skipped: Sequence[Tuple[str, str, str]] = (),
) -> ExperimentResult:
    """Reduce campaign records to the (protocol × timing × adversary) table.

    A failed trial is fatal by default (:meth:`SweepResult.raise_any`);
    ``skip_errors=True`` instead aggregates the successful records —
    and reports the failures **per cell** in the ``dropped`` column, so
    a row whose denominators shrank says so itself instead of hiding
    the loss in a table footnote.  A group whose every trial failed
    still renders (``runs=0``, stats ``-``) rather than vanishing.
    This is the recovery path for a persisted campaign too expensive
    to re-run (``--from DIR --skip-errors``).

    ``skipped`` carries the (protocol, topology-or-adversary, reason)
    combinations the campaign never compiled
    (:meth:`~repro.scenarios.spec.CampaignSpec.skipped_cells`); each
    renders as a table note, so a matrix mixing path-only protocols
    with DAG topologies says which cells are absent and why.
    """
    result = ExperimentResult(
        exp_id=sweep.sweep_id.upper(),
        title="scenario-matrix campaign",
        claim=(
            "per (protocol, timing model, adversary) group: how often the "
            "payment completes, aborts, and terminates, whether the "
            "protocol's definition held, and at what latency/message cost."
        ),
        columns=[
            "protocol", "timing", "adversary", "runs", "dropped",
            "bob_paid", "committed", "aborted", "terminated", "def1_ok",
            "def2_ok", "mean_latency", "mean_msgs",
        ],
    )
    if not sweep.records:
        # CampaignSpec.compile() can never produce zero trials, so an
        # empty sweep is always an anomaly (e.g. a doctored --from
        # directory) — an empty table exiting 0 would hide it.
        raise ScenarioError(
            f"sweep {sweep.sweep_id!r} has no records to aggregate"
        )
    if skip_errors:
        failed = len(sweep.errors())
        if failed == len(sweep.records):
            # Nothing survived — an empty table exiting 0 would let a
            # fully-failed campaign masquerade as success.
            sweep.raise_any()
        if failed:
            result.note(
                f"{failed}/{len(sweep)} trials failed and were skipped "
                "(fractions are shares of the surviving runs; per-cell "
                "losses in the 'dropped' column)."
            )
    else:
        sweep.raise_any()
    for group in itertools.product(
        *(sweep.distinct(axis) for axis in GROUP_AXES)
    ):
        group_records = sweep.select(**dict(zip(GROUP_AXES, group)))
        records = [r for r in group_records if r.ok]
        dropped = len(group_records) - len(records)
        if not group_records:
            continue
        protocol, timing, adversary = (
            "-" if value is None else value for value in group
        )
        if not records:
            # Every trial of the group failed — the row must still
            # appear (that is where the evidence is missing), with the
            # statistics marked not-computable rather than zero.
            result.add_row(
                protocol=protocol, timing=timing, adversary=adversary,
                runs=0, dropped=dropped, bob_paid="-", committed="-",
                aborted="-", terminated="-", def1_ok="-", def2_ok="-",
                mean_latency="-", mean_msgs="-",
            )
            continue
        result.add_row(
            protocol=protocol,
            timing=timing,
            adversary=adversary,
            runs=len(records),
            dropped=dropped,
            bob_paid=fraction(r["bob_paid"] for r in records),
            committed=fraction(r["committed"] for r in records),
            aborted=fraction(r["aborted"] for r in records),
            terminated=fraction(r["all_terminated"] for r in records),
            def1_ok=_check_fraction(records, "def1_ok"),
            def2_ok=_check_fraction(records, "def2_ok"),
            mean_latency=mean(r["latency"] for r in records),
            mean_msgs=mean(r["messages"] for r in records),
        )
    survivors = [r for r in sweep if r.ok]
    topologies = sorted(
        {str(r.spec.opt("topology")) for r in survivors}
    )
    result.note(
        f"{len(survivors)} runs pooled over topologies {', '.join(topologies)}; "
        "fractions are shares of a group's runs."
    )
    for option, flag in (("rho", "--rho"), ("horizon", "--horizon")):
        values = sorted(
            {r.spec.opt(option) for r in survivors},
            key=lambda v: (v is None, v),
        )
        if len(values) > 1:
            # A sensitivity axis was swept: say so, or a row mixing
            # e.g. sound (rho=0) and unsound (rho=0.2) regimes would
            # read as one mid-valued regime.
            rendered = ", ".join("default" if v is None else str(v) for v in values)
            result.note(
                f"rows also pool {flag} axis values {rendered}; slice "
                f"with 'repro analyze --group-by {option}'."
            )
    result.note(
        "def1_ok/def2_ok: share of runs satisfying the protocol's own "
        "definition ('-' = not this protocol's contract)."
    )
    for protocol, topology, reason in skipped:
        result.note(f"skipped {protocol} x {topology}: {reason}")
    return result


def run_campaign(
    campaign: CampaignSpec,
    executor: Union[Executor, int, None] = None,
) -> ExperimentResult:
    """Compile, execute, and aggregate a campaign in one call."""
    return aggregate_campaign(
        resolve_executor(executor).run(campaign.compile()),
        skipped=campaign.skipped_cells(),
    )


def load_campaign(
    in_dir: Union[str, Path], skip_errors: bool = False
) -> ExperimentResult:
    """Reaggregate a campaign persisted with ``--out`` / RecordWriter.

    The records reload in spec order with exact float round-trips, so
    the rendered table is byte-identical to the original run's.
    ``skip_errors`` salvages a directory whose run had failed trials.

    Any persisted sweep loads, but only campaign records aggregate to
    campaign columns — a directory holding some other sweep's records
    is rejected up front rather than failing on a missing column.
    """
    sweep = load_sweep_result(in_dir)
    foreign = {r.spec.fn for r in sweep} - {TRIAL_REF}
    if foreign:
        raise PersistenceError(
            f"{in_dir} holds records of {sorted(foreign)}, not campaign "
            f"trials ({TRIAL_REF}); aggregate it with the runtime API "
            "instead"
        )
    return aggregate_campaign(sweep, skip_errors=skip_errors)


# -- incremental campaigns (--out DIR --resume) --------------------------


@dataclass
class CampaignDiff:
    """The requested matrix diffed against already-persisted records.

    ``missing`` is the sub-sweep still to execute (requested specs with
    no persisted record, in spec order); ``matched`` are the persisted
    records satisfying requested cells; ``extra`` are persisted records
    outside the requested matrix (a previous, wider run) — they stay in
    the directory and in the aggregate, because resume *grows* a matrix
    and never discards evidence.
    """

    missing: SweepSpec
    matched: List[TrialRecord] = field(default_factory=list)
    extra: List[TrialRecord] = field(default_factory=list)

    @property
    def reused(self) -> int:
        return len(self.matched)


def _canonical_options(options: Any) -> str:
    """Options as a canonical JSON string for cross-format equality.

    Persisted options round-trip through JSON (tuples come back as
    lists), so a freshly compiled spec and its reloaded twin only
    compare equal after both sides take the same trip.
    """
    return json.dumps(dict(options), sort_keys=True)


def diff_campaign(
    sweep: SweepSpec, existing: Sequence[TrialRecord]
) -> CampaignDiff:
    """Split a compiled campaign into already-persisted and missing cells.

    Trials are identified by their grid coordinates — the
    ``derive_seed`` machinery makes a cell's seed a pure function of
    (master seed, sweep id, coords), so coordinates are a
    content-address for the trial.  A persisted record whose
    coordinates match a requested spec but whose seed or options
    differ was produced by a *different* campaign configuration
    (another master seed, rho, horizon, or protocol defaults);
    appending to it would pool incomparable evidence, so that is a
    :class:`~repro.errors.ScenarioError`, not a silent re-run.
    """
    foreign = {r.spec.fn for r in existing} - {TRIAL_REF}
    if foreign:
        raise PersistenceError(
            f"persisted records reference {sorted(foreign)}, not campaign "
            f"trials ({TRIAL_REF}); --resume only grows campaign directories"
        )
    by_coords = {}
    arity = len(sweep.trials[0].coords) if sweep.trials else None
    for record in existing:
        coords = tuple(record.spec.coords)
        if arity is not None and len(coords) != arity:
            # The rho/horizon axis forms append coordinate components;
            # a shape mismatch means the directory was built with
            # different axis settings than this request, and pooling
            # the two would double-count every cell under two seed
            # derivations.
            raise ScenarioError(
                f"persisted trial {coords!r} has {len(coords)} grid "
                f"coordinates, the requested campaign derives {arity} — "
                "the directory was built with different --rho/--horizon "
                "axis settings; use a fresh --out directory"
            )
        if coords in by_coords:
            raise PersistenceError(
                f"persisted records list trial {coords!r} twice; the "
                "directory is corrupt"
            )
        by_coords[coords] = record
    missing = SweepSpec(sweep_id=sweep.sweep_id)
    matched: List[TrialRecord] = []
    for spec in sweep:
        prior = by_coords.pop(tuple(spec.coords), None)
        if prior is None:
            missing.trials.append(spec)
            continue
        if prior.spec.seed != spec.seed:
            raise ScenarioError(
                f"persisted trial {spec.coords!r} has seed "
                f"{prior.spec.seed}, the requested campaign derives "
                f"{spec.seed} — the directory was built with a different "
                "master seed; use a fresh --out directory"
            )
        if _canonical_options(prior.spec.options) != _canonical_options(
            spec.options
        ):
            raise ScenarioError(
                f"persisted trial {spec.coords!r} was run with different "
                "options (rho/horizon/protocol settings) than the "
                "requested campaign; use a fresh --out directory"
            )
        matched.append(prior)
    return CampaignDiff(
        missing=missing, matched=matched, extra=list(by_coords.values())
    )


def merge_resumed(
    existing: Sequence[TrialRecord],
    new: SweepResult,
    sweep_id: str,
    jobs: int = 1,
) -> SweepResult:
    """The post-resume view: persisted records first, new ones appended.

    Mirrors the on-disk JSONL (old lines untouched, new lines after
    them), so aggregating the merged result equals reloading the
    directory.
    """
    return SweepResult(
        sweep_id=sweep_id,
        records=list(existing) + list(new.records),
        wall_seconds=new.wall_seconds,
        jobs=jobs,
    )


__all__ = [
    "CampaignDiff",
    "GROUP_AXES",
    "aggregate_campaign",
    "diff_campaign",
    "load_campaign",
    "merge_resumed",
    "render_table",
    "run_campaign",
]
