"""Composable queries over a :class:`~repro.analysis.store.RecordStore`.

The questions a persisted campaign answers post hoc — *where* do the
paper's Definition 1/2 guarantees hold, how does latency distribute
per cell, which parameter regime aborts — are all one shape: filter
rows, group them by axis columns, reduce each group through named
metrics.  This module provides exactly that shape:

* :data:`METRICS` — the registry of named aggregations (success and
  decision fractions, def1/def2 check fractions, mean and p50/p90/p99
  latency percentiles, counts).  Each entry carries its one-line
  description; ``python -m repro analyze --list-metrics``, the
  ``--help`` epilog, and the docs-consistency check in
  ``tools/check_docs.py`` all read the same source, so the CLI and
  ``docs/ANALYSIS.md`` cannot drift;
* :func:`analyze_store` — the one-call filter → group-by → metrics
  pipeline, returning an
  :class:`~repro.experiments.harness.ExperimentResult` so analysis
  tables render through the exact code path campaign tables use
  (shared ``fraction`` / ``mean`` helpers and float formatting —
  aggregate cells match the campaign table for shared groups).

Percentile definition (the one documented in ``docs/ANALYSIS.md``):
for the sorted latencies ``x_0 <= ... <= x_{n-1}`` of a group's
*successful* runs, ``p`` in [0, 100] reads at fractional rank
``r = p/100 * (n-1)`` with linear interpolation between the two
nearest ranks — p50 of ``[1, 2, 3, 4]`` is 2.5, p90 is 3.7.  A group
with no successful runs reports ``-``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ScenarioError
from ..experiments.harness import ExperimentResult, fraction, mean
from .store import RecordStore

#: Friendly grouping aliases: the campaign table says ``timing``, the
#: record option is ``timing_name`` — accept both, display the alias.
GROUP_ALIASES = {"timing": "timing_name"}

#: Default grouping: the campaign table's row identity.
DEFAULT_GROUP_BY = ("protocol", "timing", "adversary")


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile at fractional rank p/100*(n-1).

    Requires a non-empty ``values``; callers decide what an empty
    group renders (the metric layer reports ``-``).
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


@dataclass(frozen=True)
class Metric:
    """One named aggregation over a group of store rows.

    ``fn(store, ok_rows, all_rows)`` receives the group's successful
    row indices and the full group (including failed trials), so count
    metrics can see drops while value metrics never touch error rows.
    """

    name: str
    doc: str
    fn: Callable[[RecordStore, Sequence[int], Sequence[int]], Any]


def _values(store: RecordStore, rows: Sequence[int], column: str) -> List[Any]:
    if column not in store.columns:
        # A store from a foreign (non-campaign) sweep may simply lack
        # the column; every row then reads None and the metric says -.
        return []
    return [v for v in store.column(column).take(rows) if v is not None]


def _fraction_of(column: str):
    def compute(store, ok_rows, all_rows):
        flags = _values(store, ok_rows, column)
        return fraction(flags) if flags else "-"

    return compute


def _mean_of(column: str):
    def compute(store, ok_rows, all_rows):
        values = _values(store, ok_rows, column)
        return mean(values) if values else "-"

    return compute


def _percentile_of(column: str, p: float):
    def compute(store, ok_rows, all_rows):
        values = _values(store, ok_rows, column)
        return percentile(values, p) if values else "-"

    return compute


def _max_of(column: str):
    def compute(store, ok_rows, all_rows):
        values = _values(store, ok_rows, column)
        return max(values) if values else "-"

    return compute


#: name -> Metric.  Docs are the single source for --list-metrics, the
#: --help epilog, and the tools/check_docs.py consistency check.
METRICS: Dict[str, Metric] = {
    metric.name: metric
    for metric in (
        Metric(
            "runs",
            "number of successful trials in the group",
            lambda store, ok_rows, all_rows: len(ok_rows),
        ),
        Metric(
            "dropped",
            "number of failed trials excluded from the group's metrics",
            lambda store, ok_rows, all_rows: len(all_rows) - len(ok_rows),
        ),
        Metric(
            "success",
            "fraction of runs on which Bob was paid (campaign bob_paid)",
            _fraction_of("bob_paid"),
        ),
        Metric(
            "committed",
            "fraction of runs that issued a commit decision",
            _fraction_of("committed"),
        ),
        Metric(
            "aborted",
            "fraction of runs that issued an abort decision",
            _fraction_of("aborted"),
        ),
        Metric(
            "terminated",
            "fraction of runs where every participant terminated",
            _fraction_of("all_terminated"),
        ),
        Metric(
            "def1_ok",
            "fraction of applicable runs satisfying Definition 1 "
            "('-' = no run in the group is checked against it)",
            _fraction_of("def1_ok"),
        ),
        Metric(
            "def2_ok",
            "fraction of applicable runs satisfying Definition 2 "
            "('-' = no run in the group is checked against it)",
            _fraction_of("def2_ok"),
        ),
        Metric(
            "mean_latency",
            "mean end-to-end latency of the group's runs",
            _mean_of("latency"),
        ),
        Metric(
            "p50_latency",
            "median (50th-percentile) latency, linear interpolation",
            _percentile_of("latency", 50.0),
        ),
        Metric(
            "p90_latency",
            "90th-percentile latency, linear interpolation",
            _percentile_of("latency", 90.0),
        ),
        Metric(
            "p95_latency",
            "95th-percentile latency, linear interpolation",
            _percentile_of("latency", 95.0),
        ),
        Metric(
            "p99_latency",
            "99th-percentile latency, linear interpolation",
            _percentile_of("latency", 99.0),
        ),
        Metric(
            "max_latency",
            "maximum latency observed in the group",
            _max_of("latency"),
        ),
        Metric(
            "mean_msgs",
            "mean number of messages sent per run",
            _mean_of("messages"),
        ),
        Metric(
            "mean_wall_seconds",
            "mean wall-clock seconds one trial took to simulate",
            _mean_of("wall_seconds"),
        ),
    )
}

#: The analyze CLI's default metric list (campaign columns first, then
#: the percentile drill-down the campaign table cannot show).
DEFAULT_METRICS = (
    "runs",
    "dropped",
    "success",
    "committed",
    "aborted",
    "terminated",
    "def1_ok",
    "def2_ok",
    "mean_latency",
    "p50_latency",
    "p90_latency",
    "p99_latency",
    "mean_msgs",
)


def resolve_metrics(names: Sequence[str]) -> List[Metric]:
    """Look up metric names, raising a one-line error naming the gaps."""
    unknown = [n for n in names if n not in METRICS]
    if unknown:
        raise ScenarioError(
            f"unknown metrics: {', '.join(unknown)}; "
            f"available: {', '.join(METRICS)}"
        )
    if len(set(names)) != len(names):
        raise ScenarioError(f"duplicate metrics requested: {list(names)}")
    return [METRICS[n] for n in names]


def _resolve_column(store: RecordStore, name: str, what: str) -> str:
    """A requested column name to a real store column.

    Aliases apply only when their target exists (campaign records);
    for a foreign sweep whose options include a literal ``timing``
    column, the name reaches that column instead of erroring on a
    target the store never had.
    """
    target = GROUP_ALIASES.get(name)
    if target is not None and target in store.columns:
        return target
    if name in store.columns:
        return name
    raise ScenarioError(
        f"unknown {what} column {name!r}; available: "
        f"{', '.join(_groupable(store))}"
    )


def resolve_group_by(
    store: RecordStore, names: Sequence[str]
) -> List[Tuple[str, str]]:
    """Map requested group names to (display, column) pairs."""
    if not names:
        raise ScenarioError("--group-by needs at least one column")
    if len(set(names)) != len(names):
        raise ScenarioError(f"duplicate group-by columns: {list(names)}")
    return [(name, _resolve_column(store, name, "group-by")) for name in names]


def resolve_where(
    store: RecordStore, clauses: Dict[str, str]
) -> Dict[str, Any]:
    """Type the string values of ``--where`` clauses per column."""
    match: Dict[str, Any] = {}
    for name, literal in clauses.items():
        column_name = _resolve_column(store, name, "--where")
        try:
            match[column_name] = store.column(column_name).parse(literal)
        except ValueError as exc:
            raise ScenarioError(
                f"--where {name}={literal}: {exc}"
            ) from None
    return match


def _groupable(store: RecordStore) -> List[str]:
    """Columns worth offering for grouping/filtering (incl. aliases)."""
    names = [n for n in store.columns if store.column(n).kind != "object"]
    for alias, target in GROUP_ALIASES.items():
        if target in names and alias not in names:
            names.insert(names.index(target), alias)
        elif alias in names and target in names:
            # The alias shadows a real column of the same name (e.g.
            # 'timing', the raw descriptor); list it once.
            names.remove(alias)
            names.insert(names.index(target), alias)
    return names


def analyze_store(
    store: RecordStore,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    where: Optional[Dict[str, str]] = None,
    metrics: Sequence[str] = DEFAULT_METRICS,
) -> ExperimentResult:
    """Filter → group → aggregate a store into a result table.

    Groups appear in first-seen row order (for a persisted campaign:
    spec order), each reduced through the named metrics over its
    *successful* rows — failed trials are excluded from every value
    metric and surfaced by the ``dropped`` count instead.  An empty
    selection is an error: a typo'd ``--where`` must not render an
    empty table that looks like evidence.
    """
    where_typed = resolve_where(store, dict(where or {}))
    group_pairs = resolve_group_by(store, list(group_by))
    metric_objs = resolve_metrics(list(metrics))
    rows = store.where(where_typed) if where_typed else list(range(len(store)))
    if not rows:
        clauses = ", ".join(f"{k}={v}" for k, v in (where or {}).items())
        raise ScenarioError(f"no records match --where {clauses}")

    result = ExperimentResult(
        exp_id=store.sweep_id.upper(),  # display form; raw id below
        title="persisted-record analysis",
        claim=(
            "per group: the requested metrics over the selected "
            "records (failed trials counted by 'dropped', excluded "
            "from value metrics)."
        ),
        columns=[name for name, _ in group_pairs]
        + [m.name for m in metric_objs],
    )
    # The sweep's exact id, for machine consumers (render_json): the
    # exp_id above is upper-cased for the table banner and cannot be
    # round-tripped back for ids that were not all-lowercase.
    result.sweep_id = store.sweep_id
    group_columns = [store.column(column) for _, column in group_pairs]
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for i in rows:
        groups.setdefault(tuple(col[i] for col in group_columns), []).append(i)
    for key, members in groups.items():
        ok_rows = store.ok_indices(members)
        cells = {
            name: ("-" if value is None else value)
            for (name, _), value in zip(group_pairs, key)
        }
        for metric in metric_objs:
            cells[metric.name] = metric.fn(store, ok_rows, members)
        result.add_row(**cells)
    if where_typed:
        result.note(
            "filtered to "
            + ", ".join(f"{k}={v}" for k, v in sorted(where_typed.items()))
            + f" ({len(rows)}/{len(store)} records)."
        )
    dropped = len(rows) - len(store.ok_indices(rows))
    if dropped:
        result.note(
            f"{dropped} failed trial(s) in the selection; value metrics "
            "cover successful runs only (see the 'dropped' metric)."
        )
    return result


def diff_stores(
    current: RecordStore,
    baseline: RecordStore,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    where: Optional[Dict[str, str]] = None,
    metrics: Sequence[str] = DEFAULT_METRICS,
) -> ExperimentResult:
    """Regression-diff two stores: per-group metric deltas.

    Both stores are analyzed with the same filter, grouping, and
    metrics (:func:`analyze_store`, so each side's cells match what a
    plain ``analyze`` of that directory reports), then joined on the
    group key.  Every shared group's numeric metrics render as
    **current − baseline** deltas; a metric either side reports as
    ``-`` (no applicable runs) stays ``-``.  Groups present on only
    one side are *flagged*, not dropped: their ``status`` cell says
    which side has them, their metric cells stay ``-``, and a summary
    note counts them — a silent join would make a vanished cell look
    like a zero-delta pass.

    Row order: the current store's groups first (its first-seen row
    order), then baseline-only groups.
    """
    cur = analyze_store(current, group_by=group_by, where=where, metrics=metrics)
    base = analyze_store(baseline, group_by=group_by, where=where, metrics=metrics)
    group_names = list(group_by)
    metric_names = [m for m in metrics]

    def keyed(result: ExperimentResult) -> Dict[Tuple[Any, ...], Dict[str, Any]]:
        return {
            tuple(row[name] for name in group_names): row
            for row in result.rows
        }

    cur_rows = keyed(cur)
    base_rows = keyed(base)
    result = ExperimentResult(
        exp_id=cur.exp_id,
        title="persisted-record regression diff",
        claim=(
            "per shared group: each metric as current minus baseline "
            "(a positive delta means the current run reports more); "
            "groups on one side only are flagged by 'status'."
        ),
        columns=group_names + ["status"] + metric_names,
    )
    result.sweep_id = getattr(cur, "sweep_id", current.sweep_id)
    shared = only_current = only_baseline = 0
    for key, row in cur_rows.items():
        other = base_rows.get(key)
        cells = dict(zip(group_names, key))
        if other is None:
            only_current += 1
            cells["status"] = "current-only"
            for name in metric_names:
                cells[name] = "-"
        else:
            shared += 1
            cells["status"] = "both"
            for name in metric_names:
                a, b = row[name], other[name]
                cells[name] = (
                    a - b
                    if isinstance(a, (int, float)) and isinstance(b, (int, float))
                    else "-"
                )
        result.add_row(**cells)
    for key, row in base_rows.items():
        if key in cur_rows:
            continue
        only_baseline += 1
        cells = dict(zip(group_names, key))
        cells["status"] = "baseline-only"
        for name in metric_names:
            cells[name] = "-"
        result.add_row(**cells)
    result.note(
        f"{shared} shared group(s) diffed; {only_current} only in the "
        f"current directory, {only_baseline} only in the baseline."
    )
    for note in cur.notes:
        result.note(f"current: {note}")
    for note in base.notes:
        result.note(f"baseline: {note}")
    return result


__all__ = [
    "DEFAULT_GROUP_BY",
    "DEFAULT_METRICS",
    "GROUP_ALIASES",
    "METRICS",
    "Metric",
    "analyze_store",
    "diff_stores",
    "percentile",
    "resolve_group_by",
    "resolve_metrics",
    "resolve_where",
]
