"""Write-ahead decision log for durable (crash–recovery) actors.

A :class:`DecisionLog` is a process's stable storage: an append-only
sequence of records (decisions and their messages, timer state
captured in checkpoints) with an explicit **fsync boundary**.  Appends
land in a volatile tail; :meth:`sync` advances the boundary.  A crash
(:meth:`crash`) discards the volatile tail — except that, like a real
block device, the tail may have *partially* reached the platter:
``torn_chars`` of the unsynced byte stream survive, which can leave a
torn final record.  :meth:`salvage` implements the same
contract as :func:`repro.runtime.persist.scan_records` for campaign
directories: a torn trailing fragment is silently dropped, corruption
*before* the final record raises :class:`~repro.errors.RecoveryError`.

Records are plain dicts; each is mirrored as one encoded JSON line
(non-JSON payloads such as certificates encode as their ``repr``), so
the byte stream the fsync boundary measures is well defined while
replay code reads the original objects via :meth:`durable_records`.

The recovery protocol built on top uses three record kinds;
:meth:`repro.sim.process.Process.send_decision` writes the last two,
:meth:`~repro.sim.process.Process.replay` reads them back (see also
:mod:`repro.sim.faults`):

* ``checkpoint`` — a quiescent snapshot of the actor's durable state
  (control state, protocol variables, timer deadlines);
* ``decision`` — a decision was computed and signed, *before* its
  messages leave (the classic write-ahead rule);
* ``sent`` — the decision's messages were handed to the network.

>>> log = DecisionLog("e1")
>>> log.append("checkpoint", state="await_certificate")
>>> log.sync()
>>> log.append("decision", state="send_commit")   # volatile
>>> log.crash()                                   # tail lost
1
>>> [r["kind"] for r in log.durable_records()]
['checkpoint']
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..errors import RecoveryError

#: Record kinds used by the recovery protocol (free-form kinds are
#: permitted; these are the vocabulary the replay helpers understand).
CHECKPOINT = "checkpoint"
DECISION = "decision"
SENT = "sent"


def encode_record(record: Dict[str, Any]) -> str:
    """One record as a single JSON line (objects fall back to ``repr``)."""
    return json.dumps(record, sort_keys=True, default=repr) + "\n"


class DecisionLog:
    """Append-only write-ahead log with an fsync-boundary model."""

    __slots__ = ("owner", "_records", "_encoded", "_synced")

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        self._records: List[Dict[str, Any]] = []
        self._encoded: List[str] = []
        self._synced = 0  # records fully durable (boundary is a line edge)

    # -- writing -----------------------------------------------------------

    def append(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append a record to the volatile tail; returns the record."""
        record = {"kind": kind, **fields}
        self._records.append(record)
        self._encoded.append(encode_record(record))
        return record

    def sync(self) -> None:
        """Advance the durability boundary over everything appended."""
        self._synced = len(self._records)

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def synced(self) -> int:
        """Number of records at or below the fsync boundary."""
        return self._synced

    def records(self) -> List[Dict[str, Any]]:
        """Every appended record, durable or not (the volatile view)."""
        return list(self._records)

    def durable_records(self) -> List[Dict[str, Any]]:
        """The records guaranteed to survive a clean (non-torn) crash."""
        return list(self._records[: self._synced])

    def raw(self, torn_chars: int = 0) -> str:
        """The surviving byte stream after a crash.

        The synced prefix always survives; of the unsynced tail, the
        first ``torn_chars`` characters may have reached the device —
        possibly ending mid-record (the torn tail the salvage contract
        exists for).
        """
        if torn_chars < 0:
            raise RecoveryError(f"torn_chars must be >= 0, got {torn_chars}")
        durable = "".join(self._encoded[: self._synced])
        tail = "".join(self._encoded[self._synced:])
        return durable + tail[:torn_chars]

    # -- crash / salvage ---------------------------------------------------

    @staticmethod
    def salvage(text: str) -> List[Dict[str, Any]]:
        """Parse a possibly-torn log byte stream into complete records.

        Mirrors :func:`repro.runtime.persist.scan_records`: an
        interrupted *final* fragment (no trailing newline, or
        undecodable) is excluded and never raises; a malformed line
        before the last one is genuine corruption and raises
        :class:`~repro.errors.RecoveryError`.
        """
        if not text:
            return []
        lines = text.splitlines(keepends=True)
        records: List[Dict[str, Any]] = []
        for line_no, line in enumerate(lines, start=1):
            last = line_no == len(lines)
            try:
                if not line.endswith("\n"):
                    raise ValueError("no trailing newline")
                record = json.loads(line)
                if not isinstance(record, dict) or "kind" not in record:
                    raise ValueError("not a log record")
            except ValueError as exc:
                if last:
                    break  # torn tail: salvage everything before it
                raise RecoveryError(
                    f"decision log line {line_no}: corrupt record ({exc})"
                ) from None
            records.append(record)
        return records

    def crash(self, torn_chars: int = 0) -> int:
        """Lose the volatile tail (modulo a torn remnant); return survivors.

        After this call the log holds exactly the records a restart
        would read back: the synced prefix plus any unsynced records
        that happen to be *complete* within the surviving ``torn_chars``
        — a fragment that ends mid-record is dropped.
        """
        survivors = len(self.salvage(self.raw(torn_chars)))
        del self._records[survivors:]
        del self._encoded[survivors:]
        self._synced = survivors
        return survivors

    # -- replay helpers ----------------------------------------------------

    def last_checkpoint(self) -> Tuple[int, Optional[Dict[str, Any]]]:
        """(index, record) of the newest durable checkpoint, or (-1, None)."""
        for index in range(self._synced - 1, -1, -1):
            if self._records[index]["kind"] == CHECKPOINT:
                return index, self._records[index]
        return -1, None

    def since_checkpoint(self) -> List[Dict[str, Any]]:
        """Durable records after the newest checkpoint (replay input)."""
        index, _ = self.last_checkpoint()
        return list(self._records[index + 1: self._synced])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecisionLog({self.owner!r}, {len(self._records)} records, "
            f"{self._synced} synced)"
        )


__all__ = [
    "CHECKPOINT",
    "DECISION",
    "DecisionLog",
    "SENT",
    "encode_record",
]
