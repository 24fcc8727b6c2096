"""Tests: the persistence fast paths against reference implementations.

``RecordWriter`` encodes each ``records.jsonl`` line with one prebuilt
C-backed JSON encoder and writes ``records.csv`` rows through
``csv.writer`` in header order; ``RecordStore.from_records`` files each
record through a column plan cached per key shape.  The references
below are the straightforward versions they replaced — ``json.dump``
per record, a ``csv.DictWriter`` and a per-cell transpose that names
every column again for every row — kept here so that every written
byte and every store column can be compared with them.
"""

from __future__ import annotations

import csv
import json
import random
from array import array
from enum import IntEnum
from pathlib import Path
from typing import Any, Dict, List, Optional

import pytest

from repro.analysis import RecordStore
from repro.analysis.store import _MAX_PLANS
from repro.errors import PersistenceError
from repro.runtime import (
    RecordWriter,
    TrialRecord,
    TrialSpec,
    load_sweep_result,
    scan_records,
)
from repro.runtime.persist import (
    RECORDS_CSV,
    RECORDS_JSONL,
    ScanResult,
    record_to_dict,
)

# -- references ------------------------------------------------------------


def _reference_is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def reference_flatten(record: TrialRecord) -> Dict[str, Any]:
    flat: Dict[str, Any] = {"seed": record.spec.seed}
    taken = {"seed", "wall_seconds", "error"}
    for key, value in record.spec.options.items():
        column = key if key not in taken else f"option_{key}"
        taken.add(column)
        flat[column] = value if _reference_is_scalar(value) else json.dumps(value)
    for key, value in record.values.items():
        column = key if key not in taken else f"value_{key}"
        taken.add(column)
        flat[column] = value if _reference_is_scalar(value) else json.dumps(value)
    flat["wall_seconds"] = record.wall_seconds
    flat["error"] = record.error or ""
    return flat


class ReferenceWriter:
    """``records.jsonl`` through ``json.dump``, ``records.csv`` through a
    ``csv.DictWriter`` whose header the first successful record fixes;
    ``resume_from`` truncates the JSONL to the scan's valid region and
    rebuilds the CSV from the scanned records."""

    def __init__(self, out_dir: Path, resume_from: Optional[ScanResult] = None):
        out_dir.mkdir(parents=True, exist_ok=True)
        jsonl_path = out_dir / RECORDS_JSONL
        if resume_from is not None:
            with jsonl_path.open("r+b") as handle:
                handle.truncate(resume_from.jsonl_bytes)
        self._jsonl = jsonl_path.open(
            "a" if resume_from is not None else "w", encoding="utf-8"
        )
        self._csv_file = (out_dir / RECORDS_CSV).open(
            "w", encoding="utf-8", newline=""
        )
        self._csv: Optional[csv.DictWriter] = None
        self._csv_pending: List[Dict[str, Any]] = []
        for prior in resume_from.records if resume_from is not None else ():
            self._write_csv(reference_flatten(prior), prior.ok)

    def write(self, record: TrialRecord) -> None:
        json.dump(record_to_dict(record), self._jsonl, separators=(",", ":"))
        self._jsonl.write("\n")
        self._write_csv(reference_flatten(record), record.ok)

    def _write_csv(self, flat: Dict[str, Any], ok: bool) -> None:
        if self._csv is not None:
            self._csv.writerow(flat)
        elif ok:
            self._start_csv(flat)
            self._csv.writerow(flat)
        else:
            self._csv_pending.append(flat)

    def _start_csv(self, header_row: Dict[str, Any]) -> None:
        fieldnames = list(header_row)
        for pending in self._csv_pending:
            fieldnames.extend(k for k in pending if k not in fieldnames)
        self._csv = csv.DictWriter(
            self._csv_file,
            fieldnames=fieldnames,
            restval="",
            extrasaction="ignore",
        )
        self._csv.writeheader()
        for pending in self._csv_pending:
            self._csv.writerow(pending)
        self._csv_pending = []

    def close(self) -> None:
        if self._csv is None and self._csv_pending:
            self._start_csv(self._csv_pending[0])
        self._jsonl.close()
        self._csv_file.close()


def _reference_column(values: List[Any]):
    kinds = {type(v) for v in values if v is not None}
    has_none = any(v is None for v in values)
    if kinds == {float}:
        return "float", list(values) if has_none else array("d", values)
    if kinds == {int}:
        return "int", list(values) if has_none else array("q", values)
    if kinds == {bool}:
        return "bool", list(values)
    if kinds == {str}:
        return "str", list(values)
    return "object", list(values)


def reference_transpose(records, columns=None, source=None):
    """Per-cell transpose: ``[(name, kind, data)]`` in store column order."""
    wanted = None if columns is None else set(columns)
    names: List[str] = []
    cells: Dict[str, List[Any]] = {}
    offered: List[str] = []
    seeds, walls, oks, errors = [], [], [], []
    row = 0

    def put(row: int, key: str, value: Any) -> None:
        if key not in cells:
            if key not in offered:
                offered.append(key)
            if wanted is not None and key not in wanted:
                return
            names.append(key)
            cells[key] = [None] * row
        cells[key].append(
            value if _reference_is_scalar(value) else json.dumps(value)
        )

    for record in records:
        taken = {"seed", "wall_seconds", "error", "ok"}
        for key, value in record.spec.options.items():
            column = key if key not in taken else f"option_{key}"
            taken.add(column)
            put(row, column, value)
        for key, value in record.values.items():
            column = key if key not in taken else f"value_{key}"
            taken.add(column)
            put(row, column, value)
        for name in names:
            if len(cells[name]) == row:
                cells[name].append(None)
        seeds.append(record.spec.seed)
        walls.append(float(record.wall_seconds))
        oks.append(record.ok)
        errors.append(record.error)
        row += 1
    if wanted is not None:
        missing = sorted(wanted - set(names))
        if missing:
            raise PersistenceError(
                f"no such column(s) {', '.join(missing)} in "
                f"{source or 'records'}; available: {', '.join(offered)}"
            )
    named = [(name, cells[name]) for name in names] + [
        ("seed", seeds), ("wall_seconds", walls), ("ok", oks), ("error", errors)
    ]
    return [(name, *_reference_column(values)) for name, values in named]


# -- inputs ----------------------------------------------------------------


class Level(IntEnum):
    LOW = 1
    HIGH = 2


def _mixed_records(n: int, seed: int, leading_errors: int = 0):
    """Records of many key shapes: late, missing and reordered columns,
    option and value keys named like reserved columns, non-ASCII text,
    non-finite floats, nested values and scattered error records."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        options: Dict[str, Any] = {
            "protocol": rng.choice(["htlc", "weak", "zürich-π"]),
            "rho": rng.choice([0.0, 0.25, float("inf")]),
        }
        if i % 5 == 2:
            options["timing"] = ("partial", 10.0, [1, 2])
        if i % 7 == 3:
            options["seed"] = i
        if i % 11 == 4:
            options["ok"] = "store-reserved"
        if i % 13 == 5:
            options["error"] = "opt"
        if i % 19 == 6:
            options["level"] = Level.HIGH
        spec = TrialSpec(fn="m:f", coords=(i,), seed=rng.getrandbits(63),
                         options=options)
        if i < leading_errors or rng.random() < 0.1:
            records.append(TrialRecord(spec=spec, error=f"Traceback ✗ {i}"))
            continue
        values: Dict[str, Any] = {
            "bob_paid": rng.random() < 0.5,
            "latency": rng.expovariate(1.0),
        }
        if i % 6 == 0:  # same keys, another order: another shape
            values = dict(reversed(list(values.items())))
        if i > n // 3:
            values["late"] = rng.randint(-5, 5)
        if i % 3 == 0:
            values["sometimes"] = None
        if i % 4 == 0:
            values["nested"] = {"a": [1, {"b": "ß"}], "x": float("nan")}
        if i % 9 == 0:
            values.update(seed=0.5, error="value", ok=False, option_seed=1)
        if i % 17 == 0:
            values["protocol"] = "collides-with-option"
        values["mixed"] = rng.choice(
            [1, 1.5, "s", None, True, -0.0, 2**70, float("nan")]
        )
        records.append(
            TrialRecord(spec=spec, values=values, wall_seconds=rng.random())
        )
    return records


def _churning_records(n: int, seed: int):
    """Records whose key shapes rarely repeat: each carries a random
    subset, in random order, of twelve value keys, and one more column
    appears only after most shapes have been seen."""
    rng = random.Random(seed)
    keys = [f"k{j}" for j in range(12)]
    records = []
    for i in range(n):
        present = [key for key in keys if rng.random() < 0.5]
        rng.shuffle(present)
        values = {key: rng.choice([rng.random(), i, "s", None])
                  for key in present}
        if i > n * 3 // 4 and i % 2:
            values["late"] = i
        spec = TrialSpec(fn="m:f", coords=(i,), seed=i,
                         options={"protocol": "htlc"})
        records.append(TrialRecord(spec=spec, values=values))
    return records


def _write(writer_cls, out_dir: Path, records, resume_from=None) -> None:
    writer = writer_cls(out_dir, resume_from=resume_from)
    for record in records:
        writer.write(record)
    writer.close()


def _files(out_dir: Path):
    return (
        (out_dir / RECORDS_JSONL).read_bytes(),
        (out_dir / RECORDS_CSV).read_bytes(),
    )


# -- written files ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, leading_errors",
    [(300, 0), (300, 5), (40, 40)],
    ids=["mixed-shapes", "leading-errors", "all-errors"],
)
def test_written_files_match_reference(tmp_path, n, leading_errors):
    records = _mixed_records(n, seed=n + leading_errors,
                             leading_errors=leading_errors)
    _write(RecordWriter, tmp_path / "new", records)
    _write(ReferenceWriter, tmp_path / "ref", records)
    assert _files(tmp_path / "new") == _files(tmp_path / "ref")


def test_resumed_append_matches_reference(tmp_path):
    """An interrupted run resumed with more records: the kept lines stay,
    the torn tail goes, and the CSV is rebuilt byte for byte."""
    records = _mixed_records(200, seed=3, leading_errors=2)
    head, tail = records[:120], records[120:]
    for name, writer_cls in (("new", RecordWriter), ("ref", ReferenceWriter)):
        out = tmp_path / name
        _write(writer_cls, out, head)
        with (out / RECORDS_JSONL).open("a", encoding="utf-8") as handle:
            handle.write('{"fn":"m:f","coords":[')  # torn final line
        _write(writer_cls, out, tail, resume_from=scan_records(out))
    assert _files(tmp_path / "new") == _files(tmp_path / "ref")
    assert len(load_sweep_result(tmp_path / "new")) == len(records)


# -- stores ----------------------------------------------------------------


def _shape(store: RecordStore):
    """Name, kind, backing and cells of every column, in order."""
    return [
        (
            name,
            column.kind,
            type(column.data).__name__,
            getattr(column.data, "typecode", None),
            repr(list(column.data)),
        )
        for name, column in store.columns.items()
    ]


def _reference_shape(columns):
    return [
        (name, kind, type(data).__name__, getattr(data, "typecode", None),
         repr(list(data)))
        for name, kind, data in columns
    ]


PROJECTIONS = [
    None,
    ["protocol", "latency"],
    ["late", "nested", "value_seed", "option_ok", "mixed"],
    ["sometimes", "option_error", "value_option_seed", "level"],
]


@pytest.mark.parametrize(
    "columns", PROJECTIONS, ids=["full", "two", "late-nested", "prefixed"]
)
def test_store_matches_reference_transpose(tmp_path, columns):
    records = _mixed_records(300, seed=11, leading_errors=4)
    assert _shape(
        RecordStore.from_records(records, columns=columns)
    ) == _reference_shape(reference_transpose(records, columns=columns))
    # From disk: full (streamed) and partial (scanned) loads.
    out = tmp_path / "out"
    with RecordWriter(out) as writer:
        for record in records:
            writer.write(record)
    reloaded = load_sweep_result(out).records
    expected = _reference_shape(reference_transpose(reloaded, columns=columns))
    assert _shape(RecordStore.load(out, columns=columns)) == expected
    assert _shape(
        RecordStore.load(out, partial=True, columns=columns)
    ) == expected


def test_store_pads_a_column_for_every_shape_that_lacks_it():
    """Columns appear late and vanish again: each earlier, later and
    intervening row holds None in them."""
    def record(i, **values):
        return TrialRecord(
            spec=TrialSpec(fn="m:f", coords=(i,), seed=i), values=values
        )

    records = [
        record(0, a=1.0), record(1, a=2.0, b="x"), record(2, a=3.0),
        record(3, c=True), record(4, a=5.0, b="y"), record(5, a=6.0),
    ]
    assert _shape(RecordStore.from_records(records)) == _reference_shape(
        reference_transpose(records)
    )
    store = RecordStore.from_records(records)
    assert list(store.column("b")) == [None, "x", None, None, "y", None]
    assert list(store.column("c")) == [None, None, None, True, None, None]


def test_store_matches_reference_when_shapes_outnumber_the_plans_kept():
    records = _churning_records(2500, seed=2)
    shapes = {(tuple(r.spec.options), tuple(r.values)) for r in records}
    assert len(shapes) > _MAX_PLANS
    for columns in (None, ["k3", "late"]):
        assert _shape(
            RecordStore.from_records(records, columns=columns)
        ) == _reference_shape(reference_transpose(records, columns=columns))


def test_unknown_column_error_matches_reference_plus_bookkeeping():
    records = _mixed_records(50, seed=5)
    wanted = ["protocol", "nope", "also_missing"]
    with pytest.raises(PersistenceError) as reference:
        reference_transpose(records, columns=wanted, source="dir")
    with pytest.raises(PersistenceError) as new:
        RecordStore.from_records(records, columns=wanted, source="dir")
    assert str(new.value) == (
        str(reference.value) + ", seed, wall_seconds, ok, error"
    )
