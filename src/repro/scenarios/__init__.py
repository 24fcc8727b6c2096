"""Declarative scenario campaigns over the sweep runtime.

The paper's results live on a grid — protocol × timing model ×
adversary × topology — but hand-written experiment modules can only
visit the grid points their authors anticipated.  This package makes
the grid itself the input:

* :mod:`~repro.scenarios.registry` — named axis values (timing models,
  adversaries, topologies, protocol defaults), resolvable by string
  from the CLI;
* :mod:`~repro.scenarios.spec` — :class:`ScenarioSpec` (one cell) and
  :class:`CampaignSpec` (axis lists whose cross-product compiles to a
  :class:`~repro.runtime.spec.SweepSpec` on the PR 1 runtime);
* :mod:`~repro.scenarios.trial` — the one shared trial function that
  assembles simulator + network + protocol from a compiled spec and
  reports Definition 1/2 property columns via the shared checker in
  :mod:`repro.verification.properties`;
* :mod:`~repro.scenarios.campaign` — execution plus the
  (protocol × timing × adversary) aggregate table with per-cell
  ``def1_ok`` / ``def2_ok`` check fractions, and
  :func:`~repro.scenarios.campaign.load_campaign` to reaggregate a
  persisted record directory byte-identically;
* :mod:`~repro.scenarios.cli` — the ``python -m repro campaign``
  subcommand (``--out DIR`` streams per-trial JSONL/CSV records,
  ``--from DIR`` reloads them without re-running).

Because campaigns compile down to ordinary sweeps, they inherit the
runtime's guarantees for free: collision-free derived seeds,
process-pool parallelism, and spec-ordered byte-identical aggregation.

>>> from repro.scenarios import CampaignSpec, run_campaign
>>> table = run_campaign(CampaignSpec(
...     protocols=["htlc", "weak"], timings=["sync", "partial"], trials=2))
>>> [row["protocol"] for row in table.rows]
['htlc', 'htlc', 'weak', 'weak']
"""

from ..protocols.base import available_protocols
from .campaign import (
    GROUP_AXES,
    CampaignDiff,
    aggregate_campaign,
    diff_campaign,
    load_campaign,
    merge_resumed,
    run_campaign,
)
from .registry import (
    ADVERSARIES,
    TIMINGS,
    available_adversaries,
    available_timings,
    available_topologies,
    axis_descriptions,
    build_topology,
    check_adversary,
    check_topology,
    make_adversary,
    timing_descriptor,
)
from .spec import CampaignSpec, ScenarioSpec
from .trial import scenario_trial

__all__ = [
    "ADVERSARIES",
    "CampaignDiff",
    "CampaignSpec",
    "GROUP_AXES",
    "ScenarioSpec",
    "TIMINGS",
    "aggregate_campaign",
    "available_adversaries",
    "available_protocols",
    "available_timings",
    "available_topologies",
    "axis_descriptions",
    "build_topology",
    "check_adversary",
    "check_topology",
    "diff_campaign",
    "load_campaign",
    "make_adversary",
    "merge_resumed",
    "run_campaign",
    "scenario_trial",
    "timing_descriptor",
]
