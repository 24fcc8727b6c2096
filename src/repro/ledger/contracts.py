"""The certified-broadcast contract.

:class:`CertifiedBroadcastContract` is an append-only publication log
modelling the "certified blockchain" of Herlihy–Liskov–Shrira: anyone
can publish a record and later prove publication (the chain's receipt
acts as the certificate).  The transaction-manager contract lives with
the other TM realisations in :mod:`repro.protocols.weak.tm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..errors import ContractError
from .blockchain import CallContext, Contract


@dataclass(frozen=True)
class PublicationRecord:
    """Proof that a payload was published at a given height."""

    index: int
    height: int
    publisher: str
    payload: Any


class CertifiedBroadcastContract(Contract):
    """Append-only publication log with retrievable records.

    The "certified blockchain" abstraction of Herlihy–Liskov–Shrira: a
    chain whose entries come with transferable proofs of publication.
    Here the proof is the :class:`PublicationRecord` (backed by the
    chain's deterministic execution); readers can fetch the whole log.
    """

    def __init__(self, address: str) -> None:
        super().__init__(address)
        self.log: List[PublicationRecord] = []

    def call(self, ctx: CallContext, method: str, args: Dict[str, Any]) -> Any:
        if method == "publish":
            record = PublicationRecord(
                index=len(self.log),
                height=ctx.block_height,
                publisher=ctx.sender,
                payload=args.get("payload"),
            )
            self.log.append(record)
            return record
        if method == "read":
            since = int(args.get("since", 0))
            return list(self.log[since:])
        raise ContractError(f"{self.address}: unknown method {method!r}")


__all__ = ["CertifiedBroadcastContract", "PublicationRecord"]
