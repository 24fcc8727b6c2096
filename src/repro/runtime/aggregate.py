"""Aggregation: trial records and sweep results.

Executors return a :class:`SweepResult` — one :class:`TrialRecord` per
trial spec, **in spec order**, whatever the worker count or scheduling.
Experiments then reduce records into their
:class:`~repro.experiments.harness.ExperimentResult` tables; because
the records (not the reductions) cross process boundaries, trial
functions return plain value dicts and every aggregation runs in the
parent process, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..errors import ExperimentError


class TrialError(ExperimentError):
    """A trial raised inside an executor (re-raised at aggregation)."""


@dataclass
class TrialRecord:
    """The outcome of one trial: plain values or a captured error."""

    spec: Any  # TrialSpec; typed loosely to keep pickling cheap
    values: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def __getitem__(self, key: str) -> Any:
        if self.error is not None:
            raise TrialError(
                f"trial {self.spec.coords!r} failed:\n{self.error}"
            )
        return self.values[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)


@dataclass
class SweepResult:
    """All records of one sweep, in the sweep spec's trial order."""

    sweep_id: str
    records: List[TrialRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    jobs: int = 1

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TrialRecord]:
        return iter(self.records)

    @property
    def ok(self) -> bool:
        return not self.errors()

    def errors(self) -> List[TrialRecord]:
        return [r for r in self.records if not r.ok]

    def raise_any(self) -> "SweepResult":
        """Raise :class:`TrialError` if any trial failed; else self."""
        bad = self.errors()
        if bad:
            first = bad[0]
            raise TrialError(
                f"{len(bad)}/{len(self.records)} trials of sweep "
                f"{self.sweep_id!r} failed; first: trial "
                f"{first.spec.coords!r}\n{first.error}"
            )
        return self

    def select(self, **match: Any) -> List[TrialRecord]:
        """Records whose spec options match all given key/values."""
        return [
            r
            for r in self.records
            if all(r.spec.options.get(k) == v for k, v in match.items())
        ]

    def distinct(self, option: str) -> List[Any]:
        """Ordered distinct values of a spec option across records."""
        seen: List[Any] = []
        for record in self.records:
            value = record.spec.options.get(option)
            if value not in seen:
                seen.append(value)
        return seen

    def column(self, key: str) -> List[Any]:
        """One value per record (raises TrialError on failed trials)."""
        return [r[key] for r in self.records]


__all__ = ["SweepResult", "TrialError", "TrialRecord"]
