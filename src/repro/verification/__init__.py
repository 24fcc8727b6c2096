"""Bounded exhaustive verification of small protocol instances,
plus the shared Definition 1/2 property checker campaigns and
explorers dispatch through (:mod:`repro.verification.properties`)."""

from .explorer import (
    DEFAULT_DECISION_KINDS,
    ExplorationReport,
    ScriptedDelayAdversary,
    explore,
    explore_payment,
)
from .properties import (
    check_outcome,
    patience_is_sufficient,
    property_columns,
)

__all__ = [
    "DEFAULT_DECISION_KINDS",
    "ExplorationReport",
    "ScriptedDelayAdversary",
    "check_outcome",
    "explore",
    "explore_payment",
    "patience_is_sufficient",
    "property_columns",
]
