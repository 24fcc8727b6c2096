"""Sweep-record persistence: streamed JSONL + CSV, reloadable.

Large campaigns produce more per-trial records than anyone wants to
keep in memory or recompute for every downstream question, so this
module gives :class:`~repro.runtime.aggregate.TrialRecord` a durable
form:

* ``records.jsonl`` — the record of truth: one JSON object per trial,
  in spec order, carrying the full spec (fn / coords / seed / options)
  and the trial's values or captured error.  JSON round-trips Python
  floats exactly (``repr``-based), which is what lets a reloaded sweep
  reproduce its aggregate table **byte-identically**.
* ``records.csv`` — a flat convenience view for spreadsheets/pandas:
  one column per scalar spec option and per scalar value; non-scalar
  payloads are embedded as JSON strings.  The CSV is derived data —
  reloading always reads the JSONL.
* ``manifest.json`` — schema version, sweep id, record count, and a
  ``revision`` counter bumped by every append session, so a loader can
  reject partial or foreign directories and an operator can see how
  many times a matrix has been grown.

:class:`RecordWriter` *streams*: it is handed to
:meth:`~repro.runtime.executor.Executor.run` as a ``sink`` and writes
each record as the executor yields it (spec order, even under a
process pool), so a parallel campaign never buffers its records twice.

>>> with RecordWriter(out_dir, sweep_id=sweep.sweep_id) as writer:
...     result = executor.run(sweep, sink=writer.write)
...     writer.close(wall_seconds=result.wall_seconds, jobs=result.jobs)
>>> reloaded = load_sweep_result(out_dir)   # == result, aggregate-wise

Directories can also be **grown**: :func:`scan_records` reads whatever
complete records a directory holds — manifest or not, salvaging an
interrupted write up to its last complete line, through the one
streaming reader :func:`stream_records` — and a writer opened
with ``resume_from=scan`` appends new records after the existing ones,
leaving every prior ``records.jsonl`` byte untouched (the CSV, being
derived data, is rebuilt).  This is the storage half of campaign
``--resume``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple, Union

from ..errors import PersistenceError
from .aggregate import SweepResult, TrialRecord
from .spec import TrialSpec

#: On-disk layout of one persisted sweep directory.
RECORDS_JSONL = "records.jsonl"
RECORDS_CSV = "records.csv"
MANIFEST_JSON = "manifest.json"

#: Bump on any incompatible change to the record JSON shape.
SCHEMA_VERSION = 1

#: Default records-per-chunk for :func:`iter_records` streaming reads.
STREAM_CHUNK = 1024


def record_to_dict(record: TrialRecord) -> Dict[str, Any]:
    """The JSON-ready form of one record (spec inlined, plain data)."""
    return {
        "fn": record.spec.fn,
        "coords": list(record.spec.coords),
        "seed": record.spec.seed,
        "options": dict(record.spec.options),
        "values": record.values,
        "error": record.error,
        "wall_seconds": record.wall_seconds,
    }


def record_from_dict(data: Dict[str, Any]) -> TrialRecord:
    """Inverse of :func:`record_to_dict`.

    JSON has no tuples, so ``coords`` comes back as a list and is
    restored to the tuple the runtime promises.  Option *values* keep
    their JSON types (a tuple-valued option such as a timing descriptor
    returns as a list); aggregation keys on strings and numbers, so the
    reduced table is unaffected.
    """
    try:
        spec = TrialSpec(
            fn=data["fn"],
            coords=tuple(data["coords"]),
            seed=data["seed"],
            options=dict(data["options"]),
        )
        return TrialRecord(
            spec=spec,
            values=dict(data["values"]),
            error=data["error"],
            wall_seconds=data["wall_seconds"],
        )
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"malformed persisted record: {exc!r}") from None


#: The one encoder of ``records.jsonl`` lines.  ``encode`` on a
#: prebuilt encoder runs CPython's C encoder; ``json.dump`` to a file
#: streams through the pure-Python ``iterencode`` instead.
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_record(record: TrialRecord) -> str:
    """One ``records.jsonl`` line for ``record``, newline included.

    The encoder escapes every non-ASCII character, so the line's length
    in characters is its length in bytes on disk.
    """
    return _LINE_ENCODER.encode(record_to_dict(record)) + "\n"


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def flat_cell(value: Any) -> Any:
    """A cell of the flat views: a scalar as-is, anything else as JSON text.

    The exact-type lookup settles the common case; subclasses of the
    scalar types (an ``IntEnum``, a ``str`` subclass) still count as
    scalars through the ``isinstance`` check.
    """
    if type(value) in _SCALAR_TYPES or isinstance(value, (int, float, str)):
        return value
    return json.dumps(value)


#: Columns the writer itself owns; option/value keys with these names
#: are prefixed rather than silently overwritten.
_RESERVED_COLUMNS = ("seed", "wall_seconds", "error")


@lru_cache(maxsize=1024)
def column_names(
    option_keys: Tuple[str, ...],
    value_keys: Tuple[str, ...],
    reserved: Tuple[str, ...],
) -> Tuple[str, ...]:
    """The flat column of each option key, then of each value key.

    An option key colliding with a ``reserved`` column gets an
    ``option_`` prefix; a value key colliding with anything placed
    before it gets a ``value_`` prefix.  Cached per key shape: the
    campaign and workload directories the CLI writes hold one or two
    (error rows, whose values are empty, add one); see
    ``docs/ARCHITECTURE.md`` § Performance notes.
    """
    taken = set(reserved)
    names = []
    for prefix, keys in (("option_", option_keys), ("value_", value_keys)):
        for key in keys:
            column = key if key not in taken else f"{prefix}{key}"
            taken.add(column)
            names.append(column)
    return tuple(names)


def flatten_record(record: TrialRecord) -> Dict[str, Any]:
    """One flat CSV row: scalar columns as-is, the rest as JSON cells.

    Columns are named by :func:`column_names` against the writer's own
    columns — the JSONL keeps the original keys either way.
    """
    options, values = record.spec.options, record.values
    columns = column_names(tuple(options), tuple(values), _RESERVED_COLUMNS)
    flat: Dict[str, Any] = {"seed": record.spec.seed}
    flat.update(
        zip(columns, map(flat_cell, chain(options.values(), values.values())))
    )
    flat["wall_seconds"] = record.wall_seconds
    flat["error"] = record.error or ""
    return flat


@dataclass
class ScanResult:
    """What :func:`scan_records` found in a (possibly partial) directory.

    ``records`` are every complete record in ``records.jsonl``;
    ``jsonl_bytes`` is the byte length of that valid region (an
    interrupted write's trailing fragment, if any, lies beyond it);
    ``manifest`` is the parsed manifest or ``None`` when the directory
    has none — the partial-directory case ``load_sweep_result``
    refuses but ``--resume`` repairs.
    """

    records: List[TrialRecord] = field(default_factory=list)
    manifest: Optional[Dict[str, Any]] = None
    jsonl_bytes: int = 0

    @property
    def sweep_id(self) -> str:
        return sweep_id_of(self.manifest)

    @property
    def complete(self) -> bool:
        """True when a manifest vouches for exactly these records."""
        return (
            self.manifest is not None
            and self.manifest.get("records") == len(self.records)
        )


def sweep_id_of(manifest: Optional[Dict[str, Any]]) -> str:
    """The sweep id ``manifest`` records; ``"sweep"`` for a manifest
    without one or a directory without a manifest (``None``)."""
    return (manifest or {}).get("sweep_id", "sweep")


def scan_manifest(in_dir: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """A directory's parsed manifest, or ``None`` when it has none or
    the manifest does not parse (an interrupted ``--out`` run)."""
    manifest_path = Path(in_dir) / MANIFEST_JSON
    if not manifest_path.is_file():
        return None
    try:
        with manifest_path.open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except (json.JSONDecodeError, OSError):
        return None


def stream_records(in_dir: Union[str, Path]) -> Iterator[Tuple[TrialRecord, int]]:
    """Stream a directory's complete records, tolerating a partial tail.

    Yields each record of ``records.jsonl`` with the byte length of its
    line, holding one line at a time.  A final line that is an
    interrupted fragment ends the stream quietly; a malformed line
    *before* the last one is real corruption and raises
    :class:`PersistenceError` once the next line shows it was not the
    last.  A missing directory or missing ``records.jsonl`` streams
    nothing.
    """
    records_path = Path(in_dir) / RECORDS_JSONL
    if not records_path.is_file():
        return
    torn: Optional[Tuple[int, Exception]] = None
    with records_path.open("rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            if torn is not None:
                bad_line, exc = torn
                raise PersistenceError(
                    f"{records_path}:{bad_line}: corrupt record ({exc})"
                )
            try:
                if not raw.endswith(b"\n"):
                    raise ValueError("no trailing newline")
                record = record_from_dict(json.loads(raw.decode("utf-8")))
            except (ValueError, PersistenceError, UnicodeDecodeError) as exc:
                torn = (line_no, exc)  # salvage all before it if it is last
                continue
            yield record, len(raw)


def scan_records(in_dir: Union[str, Path]) -> ScanResult:
    """Read a persisted directory's records, tolerating a partial tail.

    Unlike :func:`load_sweep_result`, this accepts directories without
    a manifest (aborted ``--out`` runs) and directories whose final
    JSONL line is an interrupted fragment — the fragment is excluded
    and ``jsonl_bytes`` marks where the valid region ends, so an
    appending writer can truncate to it and continue.  Corruption
    before the last line raises, as in :func:`stream_records`.
    """
    records: List[TrialRecord] = []
    valid_bytes = 0
    for record, size in stream_records(in_dir):
        records.append(record)
        valid_bytes += size
    return ScanResult(
        records=records, manifest=scan_manifest(in_dir), jsonl_bytes=valid_bytes
    )


class RecordWriter:
    """Stream trial records into a persisted sweep directory.

    Opens ``records.jsonl`` and ``records.csv`` immediately.  The CSV
    header is fixed by the first *successful* record (rows before it
    are buffered, rows after it may omit columns — blank cells — but
    never add them), so a campaign whose leading trials errored still
    yields a CSV with the value columns.  The JSONL always streams;
    the CSV buffer holds only the flat rows of leading *error*
    records, so its size is bounded by the number of failures before
    the first success.

    :meth:`close` writes the manifest; it runs at most once.  The
    manifest is the loader's completeness receipt, so it is written
    only on an orderly close: when the ``with`` block exits on an
    exception (Ctrl-C mid-campaign, a dying worker pool), the context
    manager closes the file handles but *withholds* the manifest,
    leaving a directory that :func:`load_sweep_result` rejects instead
    of silently passing off a partial matrix as a complete one.

    ``resume_from`` (a :func:`scan_records` result for the same
    directory) switches the writer to **append** mode: the JSONL is
    truncated to the scan's valid region — existing complete records
    stay byte-identical — and new records append after them; the CSV,
    derived data with a fixed header, is rebuilt from the prior
    records before streaming resumes; ``count`` starts at the prior
    record count and the manifest's ``revision`` and ``wall_seconds``
    accumulate across sessions.  An aborted *resumed* write withholds
    the manifest exactly like a fresh one — the directory drops back
    to partial, and the next resume salvages both generations.
    """

    def __init__(
        self,
        out_dir: Union[str, Path],
        sweep_id: str = "sweep",
        resume_from: Optional[ScanResult] = None,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        prior_manifest = resume_from.manifest if resume_from else None
        if prior_manifest is not None:
            prior_id = prior_manifest.get("sweep_id")
            if prior_id != sweep_id:
                raise PersistenceError(
                    f"{self.out_dir} holds sweep {prior_id!r}; refusing to "
                    f"append {sweep_id!r} records to it"
                )
        # A manifest left by a previous run into this directory would
        # vouch for *this* run's records if we abort — drop it first
        # so "manifest present" always means "this write completed".
        (self.out_dir / MANIFEST_JSON).unlink(missing_ok=True)
        self.sweep_id = sweep_id
        self.count = len(resume_from.records) if resume_from else 0
        self._base_wall_seconds = (
            float(prior_manifest.get("wall_seconds", 0.0))
            if prior_manifest
            else 0.0
        )
        self.revision = (
            int((prior_manifest or {}).get("revision", 0)) + 1
            if resume_from is not None
            else 0
        )
        jsonl_path = self.out_dir / RECORDS_JSONL
        if resume_from is not None and jsonl_path.exists():
            # Drop any interrupted trailing fragment so the append
            # starts on a clean line boundary; bytes before the scan's
            # valid region are never touched.
            with jsonl_path.open("r+b") as handle:
                handle.truncate(resume_from.jsonl_bytes)
        self._jsonl: Optional[IO[str]] = jsonl_path.open(
            "a" if resume_from is not None else "w", encoding="utf-8"
        )
        try:
            self._csv_file: Optional[IO[str]] = (
                self.out_dir / RECORDS_CSV
            ).open("w", encoding="utf-8", newline="")
        except OSError:
            self._jsonl.close()
            raise
        self._csv = csv.writer(self._csv_file)
        #: The CSV header, once the first successful record fixed it.
        self._csv_fields: Optional[List[str]] = None
        self._csv_pending: List[Dict[str, Any]] = []
        self._closed = False
        if resume_from is not None:
            for prior in resume_from.records:
                self._write_csv(flatten_record(prior), prior.ok)

    def write(self, record: TrialRecord) -> None:
        """Append one record to both files (call in spec order)."""
        if self._closed:
            raise PersistenceError(f"RecordWriter({self.out_dir}) is closed")
        assert self._jsonl is not None
        self._jsonl.write(encode_record(record))
        self._write_csv(flatten_record(record), record.ok)
        self.count += 1

    def _write_csv(self, flat: Dict[str, Any], ok: bool) -> None:
        if self._csv_fields is not None:
            self._write_csv_row(flat)
        elif ok:
            # First successful record: its columns become the header;
            # flush anything buffered before it, then the record.
            self._start_csv(flat)
            self._write_csv_row(flat)
        else:
            # Error records carry no value columns — hold them back so
            # they cannot truncate the header and silently drop every
            # later record's result columns.  The buffer holds flat
            # error rows only (successes always stream), a deliberate
            # memory cost paid only by runs that fail from the start.
            self._csv_pending.append(flat)

    def _write_csv_row(self, flat: Dict[str, Any]) -> None:
        # Header order; a missing cell is blank and an extra key ignored.
        self._csv.writerow(map(flat.get, self._csv_fields, repeat("")))

    def _start_csv(self, header_row: Dict[str, Any]) -> None:
        fields = list(header_row)
        for pending in self._csv_pending:
            fields.extend(k for k in pending if k not in fields)
        self._csv_fields = fields
        self._csv.writerow(fields)
        for pending in self._csv_pending:
            self._write_csv_row(pending)
        self._csv_pending = []

    def _release_files(self) -> None:
        if self._csv_fields is None and self._csv_pending:
            # Every record errored; emit the CSV from what there is.
            self._start_csv(self._csv_pending[0])
        if self._jsonl is not None:
            self._jsonl.close()
            self._jsonl = None
        if self._csv_file is not None:
            self._csv_file.close()
            self._csv_file = None

    def close(
        self,
        wall_seconds: float = 0.0,
        jobs: int = 1,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Flush both files and write the manifest (idempotent).

        Only this method produces ``manifest.json`` — a directory
        without one is, by construction, an aborted write.  ``extra``
        adds caller metadata (e.g. the campaign CLI's per-cell option
        overrides) without touching the writer's own keys.
        """
        if self._closed:
            return
        self._closed = True
        self._release_files()
        manifest = {
            "schema": SCHEMA_VERSION,
            "sweep_id": self.sweep_id,
            "records": self.count,
            "wall_seconds": self._base_wall_seconds + wall_seconds,
            "jobs": jobs,
            "revision": self.revision,
        }
        for key, value in (extra or {}).items():
            manifest.setdefault(key, value)
        with (self.out_dir / MANIFEST_JSON).open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")

    def abort(self) -> None:
        """Close the file handles without writing a manifest."""
        if self._closed:
            return
        self._closed = True
        self._release_files()

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def write_sweep_result(result: SweepResult, out_dir: Union[str, Path]) -> Path:
    """Persist an already-materialised sweep result in one call."""
    with RecordWriter(out_dir, sweep_id=result.sweep_id) as writer:
        for record in result:
            writer.write(record)
        writer.close(wall_seconds=result.wall_seconds, jobs=result.jobs)
    return Path(out_dir)


def read_manifest(in_dir: Union[str, Path]) -> Dict[str, Any]:
    """Load and schema-check a complete directory's ``manifest.json``.

    The validation half that :func:`load_sweep_result` and
    :func:`iter_records` share: both files must exist and the manifest
    must carry the schema version this build reads.
    """
    in_dir = Path(in_dir)
    manifest_path = in_dir / MANIFEST_JSON
    records_path = in_dir / RECORDS_JSONL
    if not manifest_path.is_file() or not records_path.is_file():
        raise PersistenceError(
            f"{in_dir} is not a persisted sweep directory "
            f"(need {MANIFEST_JSON} and {RECORDS_JSONL})"
        )
    with manifest_path.open("r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    schema = manifest.get("schema")
    if schema != SCHEMA_VERSION:
        raise PersistenceError(
            f"unsupported schema version {schema!r} in {manifest_path} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    return manifest


def iter_records(
    in_dir: Union[str, Path], chunk_size: int = STREAM_CHUNK
) -> Iterator[List[TrialRecord]]:
    """Stream a complete directory's records as bounded chunks.

    Yields lists of at most ``chunk_size`` records in persisted (=
    spec) order, holding only one chunk's row objects at a time — the
    memory-bounded counterpart of :func:`load_sweep_result` for
    consumers that reduce records as they go (columnar ingestion, the
    analyze CLI over million-row directories).  The manifest is
    validated up front and the lines read by :func:`stream_records`;
    after the last one the records must number what the manifest
    promises and fill ``records.jsonl``, so a truncated file or a
    corrupt last line still raises — just after the valid prefix was
    consumed.  As a generator, errors surface at iteration time, not
    call time.
    """
    in_dir = Path(in_dir)
    if chunk_size < 1:
        raise PersistenceError(f"chunk_size must be >= 1, got {chunk_size}")
    manifest = read_manifest(in_dir)
    count = valid_bytes = 0
    chunk: List[TrialRecord] = []
    for record, size in stream_records(in_dir):
        chunk.append(record)
        count += 1
        valid_bytes += size
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk
    expected = manifest.get("records")
    if expected != count:
        raise PersistenceError(
            f"{in_dir}: manifest promises {expected} records, "
            f"{RECORDS_JSONL} holds {count} (truncated write?)"
        )
    if valid_bytes != (in_dir / RECORDS_JSONL).stat().st_size:
        raise PersistenceError(
            f"{in_dir / RECORDS_JSONL}: corrupt line after record {count}"
        )


def load_sweep_result(in_dir: Union[str, Path]) -> SweepResult:
    """Reload a persisted sweep directory into a :class:`SweepResult`.

    Records return in their persisted (= spec) order, so re-running an
    aggregation over the reloaded result renders the same table, byte
    for byte, as the original run.  (Thin materialising wrapper over
    :func:`iter_records`; use that directly to keep memory bounded.)
    """
    in_dir = Path(in_dir)
    manifest = read_manifest(in_dir)
    records: List[TrialRecord] = []
    for chunk in iter_records(in_dir):
        records.extend(chunk)
    return SweepResult(
        sweep_id=sweep_id_of(manifest),
        records=records,
        wall_seconds=manifest.get("wall_seconds", 0.0),
        jobs=manifest.get("jobs", 1),
    )


__all__ = [
    "MANIFEST_JSON",
    "RECORDS_CSV",
    "RECORDS_JSONL",
    "RecordWriter",
    "SCHEMA_VERSION",
    "STREAM_CHUNK",
    "ScanResult",
    "column_names",
    "encode_record",
    "flat_cell",
    "flatten_record",
    "iter_records",
    "load_sweep_result",
    "read_manifest",
    "record_from_dict",
    "record_to_dict",
    "scan_manifest",
    "scan_records",
    "stream_records",
    "sweep_id_of",
    "write_sweep_result",
]
