"""The shared liquidity substrate: bounded hub balances under contention.

The paper's model funds every payment out of thin air — each trial
mints exactly the value its funding plan needs, so a payment can never
fail for lack of funds.  Production hubs are not like that: an escrow's
customers hold *bounded* balances, and value locked by one in-flight
payment is unavailable to the next.  :class:`LiquiditySubstrate` models
exactly that contention, and nothing else:

* one liquidity **pool** per ``(escrow name, asset)``, lazily endowed
  with ``capacity`` units the first time a payment touches it (payments
  built from the same topology registry share escrow names — ``e0``,
  ``e1``, ... — so concurrent payments genuinely compete);
* :meth:`admit` — at a payment's arrival, *reserve* every funding grant
  against the pools, all-or-nothing.  A shortfall on any grant rolls
  back the reservations already made and reports a **liquidity
  failure**: the payment never launches, exactly as a hub would refuse
  a transfer it cannot cover;
* :meth:`funding_hook` — the admitted payment's
  :data:`~repro.core.session.FundingHook`: each reserved grant is
  settled out of its pool and minted onto the payment's own ledger,
  and recorded as *in flight*;
* :meth:`retire` — when the payment finalizes (however it ended), its
  drawn value returns to the pools.  The payment's ledgers are closed
  books (value never leaves a ledger), so what was drawn is exactly
  what comes back — the paper's escrow-security property, lifted to
  the substrate.

Conservation is global and checkable at any instant
(:meth:`conserved`): per asset, everything ever endowed equals pool
balances (available + reserved) plus value in flight.  Reservations
ride on :class:`~repro.ledger.account.Account`'s reserve/release/settle
semantics, so double-spending an admission is structurally impossible —
the second settle of the same reservation raises before any books
change.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import InsufficientFunds, WorkloadError
from ..ledger.account import Account
from ..ledger.asset import Amount

#: (escrow name, asset) — the identity of one liquidity pool.
PoolKey = Tuple[str, str]


class LiquiditySubstrate:
    """Per-(escrow, asset) liquidity pools shared by a workload's payments.

    Parameters
    ----------
    capacity:
        Units endowed to each pool on first touch.  The single knob of
        the contention model: smaller capacity (or higher offered load)
        means more overlapping reservations and more admit failures.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise WorkloadError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._pools: Dict[PoolKey, Account] = {}
        self._endowed: Dict[str, int] = {}
        self._in_flight: Dict[str, List[Tuple[PoolKey, int]]] = {}
        #: Admission outcomes, for workload summaries.
        self.admitted = 0
        self.rejected = 0

    # -- pools -----------------------------------------------------------

    def pool(self, escrow: str, asset: str) -> Account:
        """The pool for ``(escrow, asset)``, endowed on first touch."""
        key = (escrow, asset)
        acct = self._pools.get(key)
        if acct is None:
            acct = Account(f"{escrow}:{asset}")
            acct.credit(Amount(asset, self.capacity))
            self._endowed[asset] = self._endowed.get(asset, 0) + self.capacity
            self._pools[key] = acct
        return acct

    @property
    def pool_count(self) -> int:
        return len(self._pools)

    def available(self, escrow: str, asset: str) -> int:
        """Spendable units currently in one pool."""
        return self.pool(escrow, asset).balance(asset).units

    # -- the payment life-cycle ------------------------------------------

    def admit(self, topology) -> bool:
        """Reserve every funding grant of ``topology``, all-or-nothing.

        Returns ``False`` — with every reservation rolled back — when
        any pool cannot cover its grant: the liquidity failure.
        """
        made: List[Tuple[Account, Amount]] = []
        for escrow, grants in topology.funding_plan().items():
            for _customer, amt in grants:
                pool = self.pool(escrow, amt.asset)
                try:
                    pool.reserve(amt)
                except InsufficientFunds:
                    for acct, held in made:
                        acct.release(held)
                    self.rejected += 1
                    return False
                made.append((pool, amt))
        self.admitted += 1
        return True

    def funding_hook(self):
        """The admitted payment's funding hook (draw reserves → mint).

        Must follow a successful :meth:`admit` for the same topology:
        each grant's reservation is settled out of its pool and the
        same value minted onto the payment's ledger, tracked in flight
        under the topology's ``payment_id`` until :meth:`retire`.
        """

        def fund(topology, ledgers) -> None:
            drawn = self._in_flight.setdefault(topology.payment_id, [])
            for escrow, grants in topology.funding_plan().items():
                for customer, amt in grants:
                    self.pool(escrow, amt.asset).settle(amt)
                    # Record the draw before minting: a per-op observer
                    # fires inside mint and must already see the value
                    # accounted as in flight.
                    drawn.append(((escrow, amt.asset), amt.units))
                    ledgers[escrow].mint(customer, amt)

        return fund

    def retire(self, payment_id: str, ledgers) -> None:
        """Return a finalized payment's drawn value to the pools.

        The payment's per-escrow ledgers are closed books — every unit
        minted at funding is still on them (accounts or held locks),
        whatever the payment's outcome — so the drawn units go back to
        their pools exactly.  A ledger that lost value would be a
        conservation bug; it is surfaced here rather than absorbed.
        """
        drawn = self._in_flight.pop(payment_id, [])
        for (escrow, asset), units in drawn:
            ledger = ledgers.get(escrow)
            if ledger is not None and not ledger.audit_ok():
                raise WorkloadError(
                    f"payment {payment_id!r}: ledger {escrow!r} failed its "
                    "conservation audit at retirement"
                )
            self._pools[(escrow, asset)].credit(Amount(asset, units))

    # -- conservation -----------------------------------------------------

    def in_flight_payments(self) -> int:
        """Number of admitted payments not yet retired."""
        return len(self._in_flight)

    def conserved(self) -> bool:
        """Global conservation: endowed == pools (avail + reserved) + in flight.

        Holds at every instant of a workload — between any two substrate
        or ledger operations — not just at the end of the run.
        """
        totals: Dict[str, int] = {}
        for (_escrow, asset), acct in self._pools.items():
            totals[asset] = (
                totals.get(asset, 0)
                + acct.balance(asset).units
                + acct.reserved(asset).units
            )
        for drawn in self._in_flight.values():
            for (_escrow, asset), units in drawn:
                totals[asset] = totals.get(asset, 0) + units
        return all(
            totals.get(asset, 0) == endowed
            for asset, endowed in self._endowed.items()
        ) and set(totals) <= set(self._endowed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LiquiditySubstrate(capacity={self.capacity}, "
            f"pools={len(self._pools)}, in_flight={len(self._in_flight)})"
        )


__all__ = ["LiquiditySubstrate", "PoolKey"]
