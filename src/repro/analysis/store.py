"""Columnar record store: persisted trial records as typed columns.

Per-trial analytics ask column-shaped questions — "latency of every
run where ``topology=geom-4``", "distinct protocols" — against
directories holding thousands to millions of
:class:`~repro.runtime.aggregate.TrialRecord` rows.  Keeping those
records as a list of dicts makes every such question a full scan over
Python objects; this module instead transposes them **once** into a
:class:`RecordStore` of named :class:`Column` arrays:

* scalar spec options (``protocol``, ``topology``, ``rho``, ...) and
  scalar trial values (``bob_paid``, ``latency``, ...) each become one
  column;
* uniformly-typed numeric columns compact into ``array.array`` typed
  arrays (``'d'`` for floats, ``'q'`` for ints) — one machine word per
  cell instead of one boxed object;
* bookkeeping rides along as the ``seed``, ``wall_seconds``, ``ok``,
  and ``error`` columns, so failed trials stay visible (and countable)
  without poisoning the value columns, which hold ``None`` for them.

The query layer (:mod:`repro.analysis.query`) works on row-index
subsets of a store, so filtering and grouping never copy column data.

>>> store = RecordStore.load(out_dir)            # a --out directory
>>> store.column("protocol")[:2]
['htlc', 'htlc']
"""

from __future__ import annotations

from array import array
from itertools import chain
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from ..errors import PersistenceError
from ..runtime.aggregate import TrialRecord
from ..runtime.persist import (
    _RESERVED_COLUMNS,
    column_names,
    flat_cell,
    iter_records,
    read_manifest,
    scan_manifest,
    stream_records,
    sweep_id_of,
)

#: Columns the store itself owns: the CSV writer's reserved names
#: (shared with persist.flatten_record, so option/value keys collide
#: and prefix identically in both views) plus ``ok``, which only the
#: store materialises as a column.
_STORE_RESERVED = _RESERVED_COLUMNS + ("ok",)


#: Plans :meth:`RecordStore.from_records` keeps at once; past this
#: many key shapes it starts over, so churning shapes cost a rebuilt
#: plan each, never unbounded memory.
_MAX_PLANS = 1024


class _Plan:
    """How :meth:`RecordStore.from_records` files one record key shape.

    ``appends`` holds, per key of the shape (options, then values), the
    ``append`` of its column, or ``None`` when the projection drops the
    column; ``pads`` the appends of the columns the shape lacks.
    Building a plan creates the shape's new columns, padded with
    ``None`` for the ``rows`` already transposed; a new column leaves
    every older plan without its pad.
    """

    __slots__ = ("appends", "pads")

    def __init__(
        self,
        names: Tuple[str, ...],
        cells: Dict[str, List[Any]],
        column_appends: Dict[str, Callable[[Any], None]],
        offered: Dict[str, None],
        wanted: Optional[Set[str]],
        rows: int,
    ) -> None:
        self.appends: List[Optional[Callable[[Any], None]]] = []
        for name in names:
            offered.setdefault(name)
            if wanted is not None and name not in wanted:
                self.appends.append(None)
                continue
            if name not in column_appends:
                cells[name] = [None] * rows
                column_appends[name] = cells[name].append
            self.appends.append(column_appends[name])
        kept = set(names)
        self.pads = [
            append
            for name, append in column_appends.items()
            if name not in kept
        ]


class Column:
    """One named, typed column of a :class:`RecordStore`.

    ``kind`` is ``"float"`` / ``"int"`` / ``"bool"`` / ``"str"`` for
    columns whose non-``None`` values share one type, ``"object"``
    for mixed columns — a column's type is a fact about its data, not
    a schema declaration.  ``None`` cells (a failed trial's value
    columns) do not change a column's kind, so ``--where`` keeps
    parsing literals against the real value type; they do force
    list-backed storage, since typed ``array.array`` data (used for
    gap-free ``float``/``int`` columns) cannot hold ``None``.
    """

    __slots__ = ("name", "kind", "data")

    def __init__(self, name: str, values: Sequence[Any]) -> None:
        self.name = name
        kinds = set(map(type, values))
        has_none = type(None) in kinds
        kinds.discard(type(None))
        if kinds == {float}:
            self.kind = "float"
            self.data: Sequence[Any] = (
                list(values) if has_none else array("d", values)
            )
        elif kinds == {int}:
            self.kind = "int"
            self.data = list(values) if has_none else array("q", values)
        elif kinds == {bool}:
            self.kind = "bool"
            self.data = list(values)
        elif kinds == {str}:
            self.kind = "str"
            self.data = list(values)
        else:
            self.kind = "object"
            self.data = list(values)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, index: int) -> Any:
        return self.data[index]

    def __iter__(self):
        return iter(self.data)

    def take(self, indices: Iterable[int]) -> List[Any]:
        """The column's values at ``indices``, in that order."""
        data = self.data
        return [data[i] for i in indices]

    def parse(self, text: str) -> Any:
        """Parse a CLI literal into this column's value type.

        ``--where rho=0.25`` arrives as the string ``"0.25"``; matching
        it against a float column requires the float.  Unparseable
        literals raise ``ValueError`` with the expectation named.
        """
        if self.kind == "float":
            return float(text)
        if self.kind == "int":
            return int(text)
        if self.kind == "bool":
            lowered = text.strip().lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(f"expected a boolean, got {text!r}")
        return text

    def __repr__(self) -> str:
        return f"Column({self.name!r}, kind={self.kind!r}, n={len(self)})"


class RecordStore:
    """Trial records transposed into named columns, rows addressable.

    Build one with :meth:`from_records` (any in-memory record list) or
    :meth:`load` (a persisted ``--out`` directory).  Row order is the
    records' order — for a persisted campaign that is spec order, which
    is what lets aggregates over a store match the campaign table.
    """

    def __init__(
        self,
        columns: Dict[str, Column],
        length: int,
        sweep_id: str = "sweep",
        source: Optional[str] = None,
    ) -> None:
        self.columns = columns
        self.length = length
        self.sweep_id = sweep_id
        self.source = source

    @classmethod
    def from_records(
        cls,
        records: Iterable[TrialRecord],
        sweep_id: str = "sweep",
        source: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> "RecordStore":
        """Transpose records into columns (missing cells become None).

        Non-scalar options/values (timing descriptors, option dicts)
        are embedded as JSON strings, mirroring the CSV view
        (:func:`~repro.runtime.persist.flat_cell`); every failed trial
        contributes ``None`` to each value column and its traceback to
        the ``error`` column.

        ``records`` may be any iterable — the transpose is a single
        pass, so feeding it a streaming reader (e.g.
        :func:`~repro.runtime.persist.iter_records` chunks, flattened)
        never materialises the whole record list.  ``columns`` projects
        the store onto just those option/value columns; the bookkeeping
        columns (``seed``, ``wall_seconds``, ``ok``, ``error``) always
        materialise, so requesting one is allowed, and a requested
        column no record carries raises, naming what the records
        actually offered.
        """
        wanted = None if columns is None else set(columns)
        cells: Dict[str, List[Any]] = {}  # column order: first-seen
        column_appends: Dict[str, Callable[[Any], None]] = {}
        offered: Dict[str, None] = {}  # every projectable column seen
        plans: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], _Plan] = {}
        seeds: List[int] = []
        walls: List[float] = []
        oks: List[bool] = []
        errors: List[Optional[str]] = []
        row = 0
        for record in records:
            options, values = record.spec.options, record.values
            shape = (tuple(options), tuple(values))
            plan = plans.get(shape)
            if plan is None:
                width = len(cells)
                plan = _Plan(
                    column_names(*shape, _STORE_RESERVED),
                    cells, column_appends, offered, wanted, row,
                )
                if len(cells) != width or len(plans) == _MAX_PLANS:
                    plans.clear()
                plans[shape] = plan
            for append, value in zip(
                plan.appends, chain(options.values(), values.values())
            ):
                if append is not None:
                    append(flat_cell(value))
            for pad in plan.pads:
                pad(None)
            seeds.append(record.spec.seed)
            walls.append(float(record.wall_seconds))
            oks.append(record.ok)
            errors.append(record.error)
            row += 1
        bookkeeping = {
            "seed": seeds, "wall_seconds": walls, "ok": oks, "error": errors,
        }
        if wanted is not None:
            missing = sorted(wanted.difference(cells, bookkeeping))
            if missing:
                raise PersistenceError(
                    f"no such column(s) {', '.join(missing)} in "
                    f"{source or 'records'}; available: "
                    f"{', '.join([*offered, *bookkeeping])}"
                )
        store_columns = {
            name: Column(name, data)
            for name, data in chain(cells.items(), bookkeeping.items())
        }
        return cls(store_columns, row, sweep_id=sweep_id, source=source)

    @classmethod
    def load(
        cls,
        in_dir: Union[str, Path],
        partial: bool = False,
        columns: Optional[Sequence[str]] = None,
    ) -> "RecordStore":
        """Load a persisted sweep directory into a store.

        By default the directory must be complete (manifest present and
        consistent — exactly :func:`~repro.runtime.persist.load_sweep_result`'s
        contract), and the records stream through
        :func:`~repro.runtime.persist.iter_records` in bounded chunks —
        only the columns ever hold the whole directory, never the row
        objects.  ``partial=True`` instead salvages whatever complete
        records ``records.jsonl`` holds, manifest or not — the
        read-only lens on an interrupted campaign — streaming them one
        line at a time through
        :func:`~repro.runtime.persist.stream_records`.  ``columns``
        projects the store (see :meth:`from_records`): it saves the
        transposition and the memory of the other columns, not the
        parse — every ``records.jsonl`` line is still decoded in full.
        """
        in_dir = Path(in_dir)
        if partial:
            records = (record for record, _ in stream_records(in_dir))
            first = next(records, None)
            if first is None:
                raise PersistenceError(
                    f"{in_dir} holds no loadable records"
                )
            return cls.from_records(
                chain([first], records),
                sweep_id=sweep_id_of(scan_manifest(in_dir)),
                source=str(in_dir),
                columns=columns,
            )
        manifest = read_manifest(in_dir)
        stream = (
            record for chunk in iter_records(in_dir) for record in chunk
        )
        return cls.from_records(
            stream,
            sweep_id=sweep_id_of(manifest),
            source=str(in_dir),
            columns=columns,
        )

    def __len__(self) -> int:
        return self.length

    def column_names(self) -> List[str]:
        return list(self.columns)

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {', '.join(self.columns)}"
            ) from None

    def where(
        self, match: Dict[str, Any], indices: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Row indices whose cells equal every ``match`` entry.

        ``indices`` restricts the scan to a prior subset, so filters
        compose without copying any column data.
        """
        rows: Iterable[int] = (
            range(self.length) if indices is None else indices
        )
        for name, wanted in match.items():
            column = self.column(name)
            rows = [i for i in rows if column[i] == wanted]
        return list(rows)

    def ok_indices(self, indices: Optional[Sequence[int]] = None) -> List[int]:
        """The subset of ``indices`` (default: all rows) that succeeded."""
        ok = self.columns["ok"]
        rows = range(self.length) if indices is None else indices
        return [i for i in rows if ok[i]]

    def __repr__(self) -> str:
        return (
            f"RecordStore(sweep_id={self.sweep_id!r}, rows={self.length}, "
            f"columns={len(self.columns)})"
        )


__all__ = ["Column", "RecordStore"]
