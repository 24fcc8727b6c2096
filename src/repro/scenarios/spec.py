"""Declarative scenario and campaign specifications.

A :class:`ScenarioSpec` names one cell of the paper's result space —
"run protocol P under timing T against adversary A on topology G" — as
plain data, with every axis value resolvable by string through
:mod:`repro.scenarios.registry`.  A :class:`CampaignSpec` takes *lists*
per axis and compiles their cross-product down to one
:class:`~repro.runtime.spec.SweepSpec` on the PR 1 sweep runtime, so
campaigns inherit collision-free seeding, process-pool parallelism, and
spec-ordered byte-identical aggregation without any code of their own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from ..errors import ProtocolError, ScenarioError
from ..runtime import SweepSpec
from .registry import (
    DEFAULT_HORIZON,
    check_adversary,
    check_protocol,
    check_sweep_options,
    check_topology,
    parse_crash_restart,
    protocol_options,
    timing_descriptor,
    topology_shape_traits,
)

#: Axes whose values are registry names, in declared (cross-product) order.
NAME_AXES = ("protocols", "timings", "adversaries", "topologies")

#: Trial-function reference shared by every campaign cell (module-level
#: so worker processes can resolve it under any start method).
TRIAL_REF = "repro.scenarios.trial:scenario_trial"


def unsupported_reason(protocol: str, topology: str) -> Optional[str]:
    """Why ``protocol`` cannot run on ``topology``, or ``None`` if it can.

    Matches the topology name's shape traits (O(1), no graph is built)
    against the protocol's declared
    :attr:`~repro.protocols.base.PaymentProtocol.supported_topologies`.
    Unknown names return ``None`` — the regular axis validation owns
    those errors and their messages.
    """
    try:
        supported = check_protocol(protocol).supported_topologies
        traits = topology_shape_traits(topology)
    except ScenarioError:
        return None
    missing = sorted(traits - supported)
    if not missing:
        return None
    return (
        f"topology {topology!r} demands {missing} but protocol "
        f"{protocol!r} only supports {sorted(supported)}"
    )


def unsupported_adversary_reason(
    protocol: str, adversary: str, overrides: Optional[Mapping[str, Any]] = None
) -> Optional[str]:
    """Why ``protocol`` cannot face ``adversary``, or ``None`` if it can.

    The ``crash-restart`` family requires the protocol's participants to
    recover under the cell's protocol options (the class's
    ``sweep_defaults`` with ``overrides`` merged over them), as
    :meth:`~repro.protocols.base.PaymentProtocol.recovery_gap` declares —
    the adversary analogue of :func:`unsupported_reason`.  Unknown
    names return ``None``; the regular axis validation owns those
    errors and their messages.
    """
    try:
        if parse_crash_restart(adversary) is None:
            return None
        gap = check_protocol(protocol).recovery_gap(
            protocol_options(protocol, overrides or {})
        )
    except (ProtocolError, ScenarioError):
        return None
    if gap is None:
        return None
    return f"adversary {adversary!r} needs crash recovery but {gap}"


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: a (protocol, timing, adversary, topology) cell.

    Attributes
    ----------
    protocol:
        Registry name (``htlc`` / ``timebounded`` / ``weak`` /
        ``certified``).
    timing:
        Timing-model name from :data:`~repro.scenarios.registry.TIMINGS`.
    adversary:
        Adversary name from
        :data:`~repro.scenarios.registry.ADVERSARIES` (``none`` =
        honest network).
    topology:
        Topology pattern, e.g. ``linear-3`` or ``multiasset-2``.
    rho:
        Clock-drift bound sampled for every participant.
    horizon:
        Global-time backstop; ``None`` uses
        :data:`~repro.scenarios.registry.DEFAULT_HORIZON`.
    protocol_options:
        Extra protocol options merged *over* the protocol class's
        ``sweep_defaults``.
    """

    protocol: str
    timing: str
    adversary: str = "none"
    topology: str = "linear-3"
    rho: float = 0.0
    horizon: Optional[float] = None  # None = DEFAULT_HORIZON
    protocol_options: Mapping[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Compact cell id, e.g. ``htlc/sync/none/linear-3``."""
        return f"{self.protocol}/{self.timing}/{self.adversary}/{self.topology}"

    def validate(self) -> "ScenarioSpec":
        """Check every axis name, raising :class:`ScenarioError` early.

        Name checks only — no live objects are built, so validating a
        whole campaign stays O(cells) whatever the topology sizes.
        """
        check_sweep_options(
            (self.protocol,), (self.rho,), (self.horizon,),
            {self.protocol: self.protocol_options},
        )
        timing_descriptor(self.timing)
        check_adversary(self.adversary)
        check_topology(self.topology)
        return self

    def coords(self) -> Tuple[str, str, str, str]:
        """The grid coordinates identifying this scenario in a sweep."""
        return (self.protocol, self.timing, self.adversary, self.topology)

    def options(self) -> Dict[str, Any]:
        """The primitive option payload for the shared trial function."""
        return {
            "protocol": self.protocol,
            "timing_name": self.timing,
            "timing": timing_descriptor(self.timing),
            "adversary": self.adversary,
            "topology": self.topology,
            "rho": self.rho,
            "horizon": self.horizon if self.horizon is not None else DEFAULT_HORIZON,
            "protocol_options": protocol_options(
                self.protocol, self.protocol_options
            ),
        }


@dataclass
class CampaignSpec:
    """A scenario matrix: axis value lists plus per-cell trial count.

    The cross-product is taken in declared axis order (protocols ×
    timings × adversaries × topologies × rhos × horizons) and each
    cell contributes ``trials`` Monte-Carlo repetitions; compilation
    preserves that order, so campaign records — and therefore the
    aggregate table — are deterministic whatever the executor.

    ``rho``/``horizon`` are the historical scalar knobs: they apply to
    every cell and leave the grid coordinates (and therefore seeds)
    exactly as they were.  ``rhos``/``horizons`` turn the same knobs
    into *axes*: their values enter the cross-product and the cell
    coordinates, so drift/deadline sensitivity sweeps like any other
    axis.  A campaign sets the scalar or the axis form, never both.

    ``overrides`` carries per-protocol option overrides (the CLI's
    ``--set weak.patience_setup=30``): ``{protocol: {option: value}}``,
    merged over the protocol class's ``sweep_defaults`` for every cell
    of that protocol.  Overrides land in each trial's persisted options,
    so ``--resume``'s option-mismatch check covers them.

    Protocol × topology combinations the protocol declares itself
    incapable of (see
    :attr:`~repro.protocols.base.PaymentProtocol.supported_topologies`)
    are skipped with a reason (:meth:`unsupported_cells`) instead of
    failing the campaign; ``len()`` and :meth:`compile` count only the
    cells that actually run.
    """

    protocols: Sequence[str]
    timings: Sequence[str]
    adversaries: Sequence[str] = ("none",)
    topologies: Sequence[str] = ("linear-3",)
    trials: int = 3
    seed: int = 0
    rho: float = 0.0
    horizon: Optional[float] = None  # None = per-protocol defaults
    campaign_id: str = "campaign"
    rhos: Optional[Sequence[float]] = None  # axis form of rho
    horizons: Optional[Sequence[float]] = None  # axis form of horizon
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis in NAME_AXES:
            # Normalise in place so one-shot iterables are consumed
            # exactly once, here, instead of compiling to zero trials.
            values = list(getattr(self, axis))
            setattr(self, axis, values)
            if not values:
                raise ScenarioError(f"campaign axis {axis!r} is empty")
            if len(set(values)) != len(values):
                # A repeated value would rerun identical seeds and
                # report the duplicates as extra Monte-Carlo evidence.
                raise ScenarioError(
                    f"campaign axis {axis!r} has duplicate values: {values}"
                )
        if self.trials < 1:
            raise ScenarioError(f"trials must be >= 1, got {self.trials}")
        for axis, scalar, default in (
            ("rhos", self.rho, 0.0),
            ("horizons", self.horizon, None),
        ):
            values = getattr(self, axis)
            if values is None:
                continue
            if scalar != default:
                raise ScenarioError(
                    f"campaign sets both the scalar and the {axis!r} axis; "
                    "pick one"
                )
            values = list(values)
            setattr(self, axis, values)
            if not values:
                raise ScenarioError(f"campaign axis {axis!r} is empty")
            if len(set(values)) != len(values):
                raise ScenarioError(
                    f"campaign axis {axis!r} has duplicate values: {values}"
                )
        self.overrides = {
            protocol: dict(options)
            for protocol, options in dict(self.overrides).items()
        }
        check_sweep_options(
            self.protocols,
            self._rho_values(),
            self._horizon_values(),
            self.overrides,
        )

    def _rho_values(self) -> Sequence[float]:
        return self.rhos if self.rhos is not None else (self.rho,)

    def _horizon_values(self) -> Sequence[Optional[float]]:
        return self.horizons if self.horizons is not None else (self.horizon,)

    def unsupported_cells(self) -> List[Tuple[str, str, str]]:
        """(protocol, topology, reason) combinations the campaign skips.

        A protocol that does not support a topology's shape (a path-only
        protocol on the matrix together with a DAG topology) is *skipped
        with a reason* rather than failing the whole campaign: the
        skipped combinations never compile to trials, and
        :func:`~repro.scenarios.campaign.aggregate_campaign` reports
        each one as a table note.
        """
        return [
            (protocol, topology, reason)
            for protocol in self.protocols
            for topology in self.topologies
            for reason in (unsupported_reason(protocol, topology),)
            if reason is not None
        ]

    def _skipped_pairs(self) -> Set[Tuple[str, str]]:
        return {
            (protocol, topology)
            for protocol, topology, _ in self.unsupported_cells()
        }

    def unsupported_adversary_cells(self) -> List[Tuple[str, str, str]]:
        """(protocol, adversary, reason) combinations the campaign skips.

        The adversary analogue of :meth:`unsupported_cells`: a
        ``crash-restart`` cell whose protocol cannot recover under the
        cell's options (no ``supports_recovery``, or the weak
        protocol's ``tm=committee``) is skipped with a reason instead
        of failing the campaign.
        """
        return [
            (protocol, adversary, reason)
            for protocol in self.protocols
            for adversary in self.adversaries
            for reason in (
                unsupported_adversary_reason(
                    protocol, adversary, self.overrides.get(protocol, {})
                ),
            )
            if reason is not None
        ]

    def _skipped_adversary_pairs(self) -> Set[Tuple[str, str]]:
        return {
            (protocol, adversary)
            for protocol, adversary, _ in self.unsupported_adversary_cells()
        }

    def skipped_cells(self) -> List[Tuple[str, str, str]]:
        """Every (protocol, topology-or-adversary, reason) the campaign
        skips: the table notes
        :func:`~repro.scenarios.campaign.aggregate_campaign` renders."""
        return self.unsupported_cells() + self.unsupported_adversary_cells()

    def __len__(self) -> int:
        """Total trial count across all compiled (non-skipped) cells."""
        skipped_topo = self._skipped_pairs()
        skipped_adv = self._skipped_adversary_pairs()
        cells = 0
        for protocol in self.protocols:
            topologies = sum(
                1
                for topology in self.topologies
                if (protocol, topology) not in skipped_topo
            )
            adversaries = sum(
                1
                for adversary in self.adversaries
                if (protocol, adversary) not in skipped_adv
            )
            cells += topologies * adversaries
        return (
            cells
            * len(self.timings)
            * len(self._rho_values())
            * len(self._horizon_values())
            * self.trials
        )

    def scenarios(self) -> Iterator[ScenarioSpec]:
        """The matrix cells, validated, in declared axis order.

        Cells listed by :meth:`skipped_cells` are omitted; if *every*
        cell is skipped the campaign would silently compile to zero
        trials, so that raises instead.
        """
        skipped = self._skipped_pairs()
        skipped_adversaries = self._skipped_adversary_pairs()
        if len(self) == 0:
            reasons = "; ".join(
                reason for _, _, reason in self.skipped_cells()
            )
            raise ScenarioError(
                f"every campaign cell is unsupported, nothing to run: "
                f"{reasons}"
            )
        for protocol, timing, adversary, topology, rho, horizon in (
            itertools.product(
                self.protocols,
                self.timings,
                self.adversaries,
                self.topologies,
                self._rho_values(),
                self._horizon_values(),
            )
        ):
            if (protocol, topology) in skipped:
                continue
            if (protocol, adversary) in skipped_adversaries:
                continue
            yield ScenarioSpec(
                protocol=protocol,
                timing=timing,
                adversary=adversary,
                topology=topology,
                rho=rho,
                horizon=horizon,
                protocol_options=self.overrides.get(protocol, {}),
            ).validate()

    def compile(self) -> SweepSpec:
        """Lower the matrix onto the sweep runtime.

        Every (cell, repetition) becomes one
        :class:`~repro.runtime.spec.TrialSpec` with coordinates
        ``(protocol, timing, adversary, topology[, rho][, horizon], s)``
        and a seed derived from them — distinct cells can never share
        a seed, and a cell's seeds are stable under changes to the
        *other* axes.  The rho/horizon coordinate components appear
        only when the corresponding *axis* form is used, so scalar
        campaigns keep their historical seeds bit-for-bit.
        """
        sweep = SweepSpec(sweep_id=self.campaign_id)
        for scenario in self.scenarios():
            options = scenario.options()
            coords = scenario.coords()
            if self.rhos is not None:
                coords += (scenario.rho,)
            if self.horizons is not None:
                coords += (scenario.horizon,)
            for s in range(self.trials):
                sweep.add(
                    TRIAL_REF,
                    self.seed,
                    coords + (s,),
                    **options,
                )
        return sweep


__all__ = [
    "CampaignSpec",
    "NAME_AXES",
    "ScenarioSpec",
    "TRIAL_REF",
    "unsupported_adversary_reason",
    "unsupported_reason",
]
