"""Assets and amounts.

Amounts are integers of *minor units* (cents, satoshi, ...) tagged with
an asset code.  Integer arithmetic keeps conservation checks exact —
float rounding would make "no money created or destroyed" undecidable.
Cross-asset arithmetic is a type error: the paper treats exchange rates
as orthogonal (§2), so the library never converts between assets; a
connector simply *receives* one amount and *sends* another.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LedgerError


@dataclass(frozen=True, order=False)
class Amount:
    """An exact quantity of one asset.

    Attributes
    ----------
    asset:
        Asset code, e.g. ``"USD"``, ``"BTC"``, ``"X0"``.
    units:
        Quantity in minor units; must be non-negative for all ledger
        operations (amounts are magnitudes, direction comes from the
        operation).
    """

    asset: str
    units: int

    def __post_init__(self) -> None:
        if not self.asset:
            raise LedgerError("asset code must be non-empty")
        if not isinstance(self.units, int) or isinstance(self.units, bool):
            raise LedgerError(f"amount units must be int, got {type(self.units).__name__}")

    # -- arithmetic (same-asset only) -------------------------------------

    def _check_same_asset(self, other: "Amount") -> None:
        if self.asset != other.asset:
            raise LedgerError(
                f"cannot combine amounts of {self.asset!r} and {other.asset!r}"
            )

    def __add__(self, other: "Amount") -> "Amount":
        self._check_same_asset(other)
        return Amount(self.asset, self.units + other.units)

    def __sub__(self, other: "Amount") -> "Amount":
        self._check_same_asset(other)
        return Amount(self.asset, self.units - other.units)

    def __le__(self, other: "Amount") -> bool:
        self._check_same_asset(other)
        return self.units <= other.units

    def __lt__(self, other: "Amount") -> bool:
        self._check_same_asset(other)
        return self.units < other.units

    def __ge__(self, other: "Amount") -> bool:
        self._check_same_asset(other)
        return self.units >= other.units

    def __gt__(self, other: "Amount") -> bool:
        self._check_same_asset(other)
        return self.units > other.units

    def scaled(self, numerator: int, denominator: int) -> "Amount":
        """Integer-scaled amount (floor division), for commission math."""
        if denominator <= 0:
            raise LedgerError("denominator must be positive")
        return Amount(self.asset, (self.units * numerator) // denominator)

    @property
    def is_positive(self) -> bool:
        return self.units > 0

    def __repr__(self) -> str:
        return f"{self.units} {self.asset}"


def amount(asset: str, units: int) -> Amount:
    """Ergonomic constructor."""
    return Amount(asset, units)


__all__ = ["Amount", "amount"]
