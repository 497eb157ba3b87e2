"""Native binary columnar table format with memory-mapped lazy loading.

A ``.tbl`` file is a versioned header followed by 64-byte-aligned per-column
pages:

* numeric / datetime / boolean columns store their ``float64`` backing array
  verbatim in one **data page**,
* categorical columns store their ``int32`` dictionary codes in a **codes
  page** plus a compact **dictionary page** (an ``int64`` offsets array and the
  concatenated UTF-8 bytes of the distinct strings, in dictionary order).

The header is a small JSON document (schema, row count, page extents and a
content fingerprint) so catalogs can be built from headers alone.  Reading a
table back with ``mmap=True`` (the default) maps the file copy-on-write and
wraps the numeric and code buffers as views into the mapping: loading touches
only the header and the (small) dictionary pages, and row data is paged in by
the OS on first access.  Writes go to a temporary file in the same directory
and are published with ``os.replace``, so an already-mapped reader keeps
seeing the old bytes (the old inode survives until its last mapping is
dropped) while new readers see the new table.

**Row-group chunking (format version 2).**  When :func:`write_table` is given
a ``chunk_rows`` target (explicitly, or through the ``ARDA_CHUNK_ROWS``
environment variable) and the table spans more than one chunk, the file is
written as N row groups.  Dictionary pages stay file-level (one shared
dictionary per categorical column), while each chunk gets its own aligned
data/codes pages laid out chunk-major for sequential streaming.  The header
gains a **zone map**: per chunk, its row count, page extents, per-column
min/max (value range for float-backed columns, code range for categoricals —
valid because the dictionary is file-wide) and a per-chunk content
fingerprint.  :func:`open_chunks` returns a :class:`ChunkedTableReader` that
yields one chunk at a time without ever materialising the whole table;
streaming consumers (the pruned streaming join, chunked profiling, chunked
binning) are built on it.  A table whose rows fit one chunk is always written
as a version-1 monolithic file, byte-identical to the pre-chunking format,
and a version-1 file reads back through :class:`ChunkedTableReader` as one
implicit chunk — the two formats are interchangeable to every consumer.  The
whole-table fingerprint of a chunked file equals the fingerprint the same
table would get monolithically, so profile caches, manifests and serving
artifacts validate identically against either layout.

Every byte explicitly read by this module is counted in a process-wide
counter (:func:`bytes_read` / :func:`reset_bytes_read`); memory-mapped pages
count as zero until the benchmark or caller actually faults them in, which is
what lets ``bench_persistence.py`` verify that opening a repository reads only
headers.  :func:`bytes_read_detail` splits the same total by what was read —
``header``, ``zone_map`` (the chunk section of a version-2 header),
``dictionary``, ``pages`` and ``manifest`` — so the cold-open assertion stays
meaningful for chunked files.

Besides single tables, the module defines the **repository manifest**: a
small versioned catalog file (:class:`RepositoryManifest`, published with
:func:`write_manifest` / read with :func:`read_manifest`) mapping table names
to ``{file, content fingerprint}`` under a monotonically increasing
generation number.  The manifest is what gives
:class:`~repro.discovery.repository.DataRepository` snapshot-isolated
concurrent reads and writes — see that module for the protocol.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro import observability
from repro.relational.column import Column, remap_dictionary
from repro.relational.schema import CATEGORICAL, ColumnSpec, ColumnType, Schema
from repro.relational.table import Table, concat_tables

MAGIC = b"RPROTBLF"
FORMAT_VERSION = 1
CHUNKED_FORMAT_VERSION = 2
CHUNK_ROWS_ENV = "ARDA_CHUNK_ROWS"
DEFAULT_STREAM_CHUNK_ROWS = 65_536
_ALIGN = 64
_PREFIX_LEN = len(MAGIC) + 8  # magic + uint32 version + uint32 header length
# spill-to-file copy granularity; small enough that streaming writes stay
# bounded even under sub-megabyte memory budgets
_COPY_BLOCK = 1 << 18

_bytes_read = 0
_READ_KINDS = ("header", "zone_map", "dictionary", "pages", "manifest")
_bytes_read_detail = dict.fromkeys(_READ_KINDS, 0)


def bytes_read() -> int:
    """Total bytes explicitly read from table files since the last reset."""
    return _bytes_read


def bytes_read_detail() -> dict[str, int]:
    """The explicit-read byte counter split by what was read.

    Keys: ``header`` (file prefix + the non-chunk part of the header JSON),
    ``zone_map`` (the serialized per-chunk zone-map section of a version-2
    header), ``dictionary`` (categorical dictionary pages), ``pages``
    (data/codes pages actually read — zero for untouched memory-mapped pages)
    and ``manifest`` (repository manifest reads).  The values sum to
    :func:`bytes_read`.
    """
    return dict(_bytes_read_detail)


def reset_bytes_read() -> None:
    """Zero the explicit-read byte counters (see module docstring)."""
    global _bytes_read
    _bytes_read = 0
    for kind in _bytes_read_detail:
        _bytes_read_detail[kind] = 0


def _count(n: int, kind: str = "pages") -> None:
    global _bytes_read
    _bytes_read += n
    _bytes_read_detail[kind] += n


# the per-kind byte counters join the process-wide metrics registry as a
# pull-based source: the hot read path pays nothing, and `/metrics` callers
# see the very numbers bytes_read_detail() returns
observability.get_registry().register_source("persist.bytes_read", bytes_read_detail)


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def resolve_chunk_rows(chunk_rows: int | None = None) -> int | None:
    """Resolve a row-group target: explicit argument, else ``ARDA_CHUNK_ROWS``.

    Returns ``None`` for monolithic writes.  An explicit ``0`` forces
    monolithic regardless of the environment (used by ``rechunk`` to collapse
    a chunked file); the environment variable is the fleet-wide override that
    lets CI run the whole test suite with small forced chunks.
    """
    if chunk_rows is not None:
        value = int(chunk_rows)
        if value < 0:
            raise ValueError(f"chunk_rows must be >= 0, got {chunk_rows}")
        return value or None
    env = os.environ.get(CHUNK_ROWS_ENV, "").strip()
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"{CHUNK_ROWS_ENV} must be an integer, got {env!r}") from None
    return value if value > 0 else None


def atomic_replace(path: Path, write_to) -> None:
    """Write a file atomically: unique temp sibling, then ``os.replace``.

    ``write_to`` receives the open binary handle.  A unique temp name (via
    ``tempfile.mkstemp`` in the target directory) means two concurrent writers
    never interleave — each assembles its own file and the last replace wins —
    and the temp file is removed if writing fails.
    """
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write_to(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class TableFormatError(ValueError):
    """A table file is not readable: bad magic, wrong version or truncated."""


class ManifestFormatError(TableFormatError):
    """A repository manifest is not readable: bad magic, version or payload."""


@dataclass
class PageRef:
    """Extent of one page, relative to the start of the file's page region."""

    offset: int
    nbytes: int


@dataclass
class ColumnMeta:
    """Header entry for one column: its type and where its pages live.

    In a version-2 (chunked) file the per-row pages live in the chunk entries
    instead, so ``data``/``codes`` are ``None`` here and only the file-level
    ``dictionary`` page remains.
    """

    name: str
    ctype: ColumnType
    data: PageRef | None = None  # float64 page (non-categorical)
    codes: PageRef | None = None  # int32 page (categorical)
    dictionary: PageRef | None = None  # offsets + utf-8 page (categorical)
    dict_count: int = 0
    dict_exact: bool = False


@dataclass
class ChunkMeta:
    """Zone-map entry for one row group of a version-2 file.

    ``pages`` and ``zones`` are aligned with the header's column order.  A
    zone is ``(min, max)`` over the chunk's valid values — the value range for
    float-backed columns, the code range for categoricals (comparable across
    chunks because the dictionary is file-level) — or ``None`` when the chunk
    holds no valid value for that column.  ``fingerprint`` hashes the chunk's
    page payloads in column order, so chunk-level corruption is detectable
    without reading the rest of the file.
    """

    rows: int
    pages: list[PageRef]
    zones: list[tuple[float, float] | None]
    fingerprint: str
    row_start: int = 0

    def nbytes(self) -> int:
        """Total payload bytes of this chunk's pages."""
        return sum(ref.nbytes for ref in self.pages)


@dataclass
class TableHeader:
    """Everything `DataRepository.open` needs without touching row data."""

    name: str
    num_rows: int
    fingerprint: str
    columns: list[ColumnMeta]
    pages_start: int
    pages_nbytes: int
    # free-form writer-supplied metadata (e.g. ingestion provenance); not part
    # of the content fingerprint
    meta: dict | None = None
    # version-2 chunked layout: the row-group zone map and the target the
    # writer aimed for; None for monolithic version-1 files
    chunks: list[ChunkMeta] | None = None
    chunk_rows: int | None = None

    @property
    def column_names(self) -> list[str]:
        return [col.name for col in self.columns]

    @property
    def num_chunks(self) -> int:
        """Row groups in the file (1 for a monolithic version-1 file)."""
        return len(self.chunks) if self.chunks else 1

    @property
    def sort_by(self) -> str | None:
        """Name of the column the file's rows are ordered by, or ``None``.

        Recorded by :func:`write_table_stream` (and ``rechunk(sort_by=...)``)
        after validating that the chunk zone maps of that column are
        monotonically non-decreasing, so readers may binary-search pruned
        chunk ranges instead of scanning every zone entry.
        """
        return (self.meta or {}).get("sort_by")

    def schema(self) -> Schema:
        """The stored table's schema."""
        return Schema([ColumnSpec(col.name, col.ctype) for col in self.columns])


# -- fingerprinting ----------------------------------------------------------


def _encode_dictionary(dictionary) -> bytes:
    """Canonical dictionary page payload: int64 offsets + concatenated UTF-8."""
    encoded = [str(entry).encode("utf-8") for entry in dictionary]
    offsets = np.zeros(len(encoded) + 1, dtype="<i8")
    if encoded:
        np.cumsum([len(e) for e in encoded], out=offsets[1:])
    return offsets.tobytes() + b"".join(encoded)


def _column_payloads(column: Column):
    """Yield the raw page payload bytes of one column, in a canonical order.

    The same byte stream feeds both the file pages and the content
    fingerprint, so a fingerprint computed from an in-memory table matches the
    one stored in the header its ``save()`` produces.
    """
    if column.ctype is CATEGORICAL:
        codes = np.ascontiguousarray(column.codes, dtype="<i4")
        yield "codes", codes.tobytes()
        yield "dict", _encode_dictionary(column.dictionary)
    else:
        yield "data", np.ascontiguousarray(column.values, dtype="<f8").tobytes()


def table_fingerprint(table: Table) -> str:
    """Content fingerprint of a table (hex), matching the stored header's.

    Hashes the schema plus every column's canonical page bytes, so two tables
    fingerprint equal iff they would serialise to identical pages (dictionary
    order included).  The fingerprint is independent of the chunk layout: a
    chunked file stores the same value a monolithic write would.  Used to key
    persisted column profiles.
    """
    hasher = blake2b(digest_size=16)
    for column in table.columns():
        hasher.update(column.name.encode("utf-8"))
        hasher.update(column.ctype.value.encode("ascii"))
        for _kind, payload in _column_payloads(column):
            hasher.update(payload)
    return hasher.hexdigest()


# -- writing -----------------------------------------------------------------


def write_table(
    table: Table,
    path: str | Path,
    meta: dict | None = None,
    chunk_rows: int | None = None,
) -> TableHeader:
    """Serialise ``table`` to ``path`` atomically; returns the written header.

    The file is assembled in a uniquely-named temporary sibling and published
    with ``os.replace``, so concurrent readers either see the old complete
    file or the new complete file, existing memory maps stay valid, and two
    concurrent writers cannot interleave (last replace wins).  ``meta`` is an
    optional JSON-serialisable dict stored in the header (e.g. ingestion
    provenance); it does not affect the content fingerprint.

    ``chunk_rows`` selects the row-group target (``None`` defers to the
    ``ARDA_CHUNK_ROWS`` environment variable, ``0`` forces monolithic).  A
    table that fits one chunk is always written monolithically (format
    version 1, byte-identical to the pre-chunking format); larger tables are
    written chunked (format version 2) with a zone map in the header.
    """
    path = Path(path)
    resolved = resolve_chunk_rows(chunk_rows)
    if resolved is not None and table.num_rows > resolved:
        return _write_table_chunked(table, path, resolved, meta)

    hasher = blake2b(digest_size=16)
    pages: list[bytes] = []
    columns_meta: list[ColumnMeta] = []
    rel = 0

    def add_page(payload: bytes) -> PageRef:
        nonlocal rel
        ref = PageRef(offset=rel, nbytes=len(payload))
        pages.append(payload)
        rel += len(payload)
        pad = _align(rel) - rel
        if pad:
            pages.append(b"\x00" * pad)
            rel += pad
        return ref

    for column in table.columns():
        hasher.update(column.name.encode("utf-8"))
        hasher.update(column.ctype.value.encode("ascii"))
        col_meta = ColumnMeta(name=column.name, ctype=column.ctype)
        for kind, payload in _column_payloads(column):
            hasher.update(payload)
            ref = add_page(payload)
            if kind == "data":
                col_meta.data = ref
            elif kind == "codes":
                col_meta.codes = ref
            else:
                col_meta.dictionary = ref
                col_meta.dict_count = len(column.dictionary)
                col_meta.dict_exact = column.dictionary_is_exact
        columns_meta.append(col_meta)

    fingerprint = hasher.hexdigest()
    header_doc = {
        "name": table.name,
        "num_rows": table.num_rows,
        "fingerprint": fingerprint,
        "columns": [_meta_to_doc(col_meta) for col_meta in columns_meta],
    }
    if meta:
        header_doc["meta"] = meta
    header_bytes = json.dumps(header_doc, separators=(",", ":")).encode("utf-8")
    pages_start = _align(_PREFIX_LEN + len(header_bytes))

    def write_to(handle):
        handle.write(MAGIC)
        handle.write(FORMAT_VERSION.to_bytes(4, "little"))
        handle.write(len(header_bytes).to_bytes(4, "little"))
        handle.write(header_bytes)
        handle.write(b"\x00" * (pages_start - _PREFIX_LEN - len(header_bytes)))
        for payload in pages:
            handle.write(payload)

    atomic_replace(path, write_to)
    return TableHeader(
        name=table.name,
        num_rows=table.num_rows,
        fingerprint=fingerprint,
        columns=columns_meta,
        pages_start=pages_start,
        pages_nbytes=rel,
        meta=meta,
    )


def _column_zone(column: Column, codes_or_data: np.ndarray) -> tuple[float, float] | None:
    """Min/max of one chunk's valid values, or ``None`` if all missing."""
    if column.ctype is CATEGORICAL:
        valid = codes_or_data[codes_or_data >= 0]
        if not len(valid):
            return None
        return float(valid.min()), float(valid.max())
    valid = codes_or_data[~np.isnan(codes_or_data)]
    if not len(valid):
        return None
    return float(valid.min()), float(valid.max())


def _write_table_chunked(
    table: Table, path: Path, chunk_rows: int, meta: dict | None
) -> TableHeader:
    """Write an in-memory table as a version-2 chunked file."""
    num_rows = table.num_rows
    columns = list(table.columns())
    # one contiguous backing array per column; chunk pages are slices of it
    backings: list[np.ndarray] = []
    dict_payloads: list[bytes | None] = []
    hasher = blake2b(digest_size=16)
    for column in columns:
        hasher.update(column.name.encode("utf-8"))
        hasher.update(column.ctype.value.encode("ascii"))
        if column.ctype is CATEGORICAL:
            backing = np.ascontiguousarray(column.codes, dtype="<i4")
            dict_payload = _encode_dictionary(column.dictionary)
            hasher.update(backing.tobytes())
            hasher.update(dict_payload)
            dict_payloads.append(dict_payload)
        else:
            backing = np.ascontiguousarray(column.values, dtype="<f8")
            hasher.update(backing.tobytes())
            dict_payloads.append(None)
        backings.append(backing)
    fingerprint = hasher.hexdigest()

    pages: list[bytes] = []
    columns_meta: list[ColumnMeta] = []
    rel = 0

    def add_page(payload: bytes) -> PageRef:
        nonlocal rel
        ref = PageRef(offset=rel, nbytes=len(payload))
        pages.append(payload)
        rel += len(payload)
        pad = _align(rel) - rel
        if pad:
            pages.append(b"\x00" * pad)
            rel += pad
        return ref

    # file-level dictionary pages first, then chunk pages laid out chunk-major
    for column, dict_payload in zip(columns, dict_payloads):
        col_meta = ColumnMeta(name=column.name, ctype=column.ctype)
        if dict_payload is not None:
            col_meta.dictionary = add_page(dict_payload)
            col_meta.dict_count = len(column.dictionary)
            col_meta.dict_exact = column.dictionary_is_exact
        columns_meta.append(col_meta)

    chunks_meta: list[ChunkMeta] = []
    for start in range(0, num_rows, chunk_rows):
        stop = min(start + chunk_rows, num_rows)
        chunk_pages: list[PageRef] = []
        chunk_zones: list[tuple[float, float] | None] = []
        chunk_hasher = blake2b(digest_size=16)
        for column, backing in zip(columns, backings):
            payload = np.ascontiguousarray(backing[start:stop]).tobytes()
            chunk_hasher.update(payload)
            chunk_pages.append(add_page(payload))
            chunk_zones.append(_column_zone(column, backing[start:stop]))
        chunks_meta.append(
            ChunkMeta(
                rows=stop - start,
                pages=chunk_pages,
                zones=chunk_zones,
                fingerprint=chunk_hasher.hexdigest(),
                row_start=start,
            )
        )

    header_doc = {
        "name": table.name,
        "num_rows": num_rows,
        "fingerprint": fingerprint,
        "columns": [_meta_to_doc(col_meta) for col_meta in columns_meta],
        "chunk_rows": chunk_rows,
        "chunks": [_chunk_to_doc(chunk) for chunk in chunks_meta],
    }
    if meta:
        header_doc["meta"] = meta
    header_bytes = json.dumps(header_doc, separators=(",", ":")).encode("utf-8")
    pages_start = _align(_PREFIX_LEN + len(header_bytes))

    def write_to(handle):
        handle.write(MAGIC)
        handle.write(CHUNKED_FORMAT_VERSION.to_bytes(4, "little"))
        handle.write(len(header_bytes).to_bytes(4, "little"))
        handle.write(header_bytes)
        handle.write(b"\x00" * (pages_start - _PREFIX_LEN - len(header_bytes)))
        for payload in pages:
            handle.write(payload)

    atomic_replace(path, write_to)
    return TableHeader(
        name=table.name,
        num_rows=num_rows,
        fingerprint=fingerprint,
        columns=columns_meta,
        pages_start=pages_start,
        pages_nbytes=rel,
        meta=meta,
        chunks=chunks_meta,
        chunk_rows=chunk_rows,
    )


def _meta_to_doc(meta: ColumnMeta) -> dict:
    doc: dict = {"name": meta.name, "ctype": meta.ctype.value}
    if meta.data is not None:
        doc["data"] = [meta.data.offset, meta.data.nbytes]
    if meta.codes is not None:
        doc["codes"] = [meta.codes.offset, meta.codes.nbytes]
    if meta.dictionary is not None:
        doc["dict"] = [meta.dictionary.offset, meta.dictionary.nbytes, meta.dict_count]
        doc["dict_exact"] = meta.dict_exact
    return doc


def _meta_from_doc(doc: dict) -> ColumnMeta:
    meta = ColumnMeta(name=doc["name"], ctype=ColumnType(doc["ctype"]))
    if "data" in doc:
        meta.data = PageRef(*doc["data"])
    if "codes" in doc:
        meta.codes = PageRef(*doc["codes"])
    if "dict" in doc:
        offset, nbytes, count = doc["dict"]
        meta.dictionary = PageRef(offset, nbytes)
        meta.dict_count = count
        meta.dict_exact = bool(doc.get("dict_exact", False))
    return meta


def _chunk_to_doc(chunk: ChunkMeta) -> dict:
    return {
        "rows": chunk.rows,
        "pages": [[ref.offset, ref.nbytes] for ref in chunk.pages],
        "zones": [list(zone) if zone is not None else None for zone in chunk.zones],
        "fp": chunk.fingerprint,
    }


def _chunk_from_doc(doc: dict, row_start: int) -> ChunkMeta:
    return ChunkMeta(
        rows=int(doc["rows"]),
        pages=[PageRef(*ref) for ref in doc["pages"]],
        zones=[tuple(zone) if zone is not None else None for zone in doc["zones"]],
        fingerprint=doc["fp"],
        row_start=row_start,
    )


# -- repository manifest ------------------------------------------------------

MANIFEST_MAGIC = b"RPROMANF"
MANIFEST_VERSION = 1
_MANIFEST_PREFIX_LEN = len(MANIFEST_MAGIC) + 8  # magic + uint32 version + uint32 length


@dataclass
class ManifestEntry:
    """One table of a manifest generation: its file name and content identity."""

    file: str
    fingerprint: str
    num_rows: int = 0


@dataclass
class RepositoryManifest:
    """A versioned catalog of a repository directory: one committed generation.

    The manifest is the unit of snapshot isolation for disk-backed
    repositories: writers assemble the next ``{table name → ManifestEntry}``
    map, bump ``generation`` by one and publish the whole document in a single
    ``os.replace`` (:func:`write_manifest`), so a concurrent reader opening
    the file sees either the previous complete generation or the new complete
    generation, never a mix.  ``generation`` is strictly monotonically
    increasing over the lifetime of a directory; snapshot readers use it to
    order their observations.
    """

    generation: int
    tables: dict[str, ManifestEntry]

    def files(self) -> set[str]:
        """The file names referenced by this generation."""
        return {entry.file for entry in self.tables.values()}


def write_manifest(path: str | Path, manifest: RepositoryManifest) -> None:
    """Publish a manifest generation atomically (temp sibling + ``os.replace``).

    The payload is ``MANIFEST_MAGIC`` + little-endian uint32 version + uint32
    JSON length + the JSON document, assembled in a uniquely-named temp file
    so a crash between the temp write and the replace leaves only ``*.tmp``
    debris next to an intact previous generation.
    """
    path = Path(path)
    if manifest.generation < 0:
        raise ValueError(f"manifest generation must be >= 0, got {manifest.generation}")
    doc = {
        "generation": manifest.generation,
        "tables": {
            name: {
                "file": entry.file,
                "fingerprint": entry.fingerprint,
                "num_rows": entry.num_rows,
            }
            for name, entry in manifest.tables.items()
        },
    }
    payload = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8")

    def write_to(handle):
        handle.write(MANIFEST_MAGIC)
        handle.write(MANIFEST_VERSION.to_bytes(4, "little"))
        handle.write(len(payload).to_bytes(4, "little"))
        handle.write(payload)

    atomic_replace(path, write_to)


def read_manifest(path: str | Path) -> RepositoryManifest:
    """Read a manifest written by :func:`write_manifest`.

    Raises :class:`ManifestFormatError` on bad magic, an unsupported version,
    a truncated payload or a malformed document — a manifest is either a
    complete committed generation or an error, never a partial catalog.
    """
    path = Path(path)
    with path.open("rb") as handle:
        prefix = handle.read(_MANIFEST_PREFIX_LEN)
        _count(len(prefix), "manifest")
        if len(prefix) < _MANIFEST_PREFIX_LEN or prefix[: len(MANIFEST_MAGIC)] != MANIFEST_MAGIC:
            raise ManifestFormatError(f"{path}: not a repository manifest (bad magic)")
        version = int.from_bytes(prefix[len(MANIFEST_MAGIC) : len(MANIFEST_MAGIC) + 4], "little")
        if version != MANIFEST_VERSION:
            raise ManifestFormatError(
                f"{path}: unsupported manifest version {version} "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        length = int.from_bytes(prefix[len(MANIFEST_MAGIC) + 4 :], "little")
        payload = handle.read(length)
        _count(len(payload), "manifest")
    if len(payload) < length:
        raise ManifestFormatError(f"{path}: truncated manifest payload")
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ManifestFormatError(f"{path}: corrupt manifest JSON: {exc}") from None
    generation = doc.get("generation")
    tables_doc = doc.get("tables")
    if not isinstance(generation, int) or generation < 0 or not isinstance(tables_doc, dict):
        raise ManifestFormatError(f"{path}: malformed manifest document")
    tables: dict[str, ManifestEntry] = {}
    for name, entry in tables_doc.items():
        try:
            tables[name] = ManifestEntry(
                file=entry["file"],
                fingerprint=entry["fingerprint"],
                num_rows=int(entry.get("num_rows", 0)),
            )
        except (TypeError, KeyError) as exc:
            raise ManifestFormatError(
                f"{path}: malformed manifest entry for table {name!r}: {exc}"
            ) from None
    return RepositoryManifest(generation=generation, tables=tables)


# -- reading -----------------------------------------------------------------


def read_table_header(path: str | Path) -> TableHeader:
    """Read only the header of a table file (magic, version, schema, pages).

    This is the whole cost of cataloguing a table: a repository ``open`` over
    hundreds of files reads a few hundred bytes per file (plus the zone-map
    section for chunked files, attributed separately in
    :func:`bytes_read_detail`).
    """
    path = Path(path)
    with path.open("rb") as handle:
        prefix = handle.read(_PREFIX_LEN)
        if len(prefix) < _PREFIX_LEN or prefix[: len(MAGIC)] != MAGIC:
            _count(len(prefix), "header")
            raise TableFormatError(f"{path}: not a table file (bad magic)")
        version = int.from_bytes(prefix[len(MAGIC) : len(MAGIC) + 4], "little")
        if version not in (FORMAT_VERSION, CHUNKED_FORMAT_VERSION):
            _count(len(prefix), "header")
            raise TableFormatError(
                f"{path}: unsupported table format version {version} (this build "
                f"reads versions {FORMAT_VERSION} and {CHUNKED_FORMAT_VERSION})"
            )
        header_len = int.from_bytes(prefix[len(MAGIC) + 4 :], "little")
        header_bytes = handle.read(header_len)
    if len(header_bytes) < header_len:
        _count(len(prefix) + len(header_bytes), "header")
        raise TableFormatError(f"{path}: truncated header")
    try:
        doc = json.loads(header_bytes)
    except json.JSONDecodeError as exc:
        _count(len(prefix) + len(header_bytes), "header")
        raise TableFormatError(f"{path}: corrupt header JSON: {exc}") from None

    # attribute the zone-map share of a chunked header separately so the
    # headers-only cold-open assertion stays meaningful at high chunk counts
    zone_bytes = 0
    if "chunks" in doc:
        zone_bytes = len(json.dumps(doc["chunks"], separators=(",", ":")).encode("utf-8"))
    _count(len(prefix) + len(header_bytes) - zone_bytes, "header")
    if zone_bytes:
        _count(zone_bytes, "zone_map")

    columns = [_meta_from_doc(col) for col in doc["columns"]]
    chunks: list[ChunkMeta] | None = None
    if "chunks" in doc:
        chunks = []
        row_start = 0
        for chunk_doc in doc["chunks"]:
            chunk = _chunk_from_doc(chunk_doc, row_start)
            if len(chunk.pages) != len(columns) or len(chunk.zones) != len(columns):
                raise TableFormatError(f"{path}: malformed chunk entry in header")
            row_start += chunk.rows
            chunks.append(chunk)
        if row_start != doc["num_rows"]:
            raise TableFormatError(
                f"{path}: chunk rows sum to {row_start}, header says {doc['num_rows']}"
            )
    pages_nbytes = 0
    for meta in columns:
        for ref in (meta.data, meta.codes, meta.dictionary):
            if ref is not None:
                pages_nbytes = max(pages_nbytes, ref.offset + ref.nbytes)
    if chunks:
        for chunk in chunks:
            for ref in chunk.pages:
                pages_nbytes = max(pages_nbytes, ref.offset + ref.nbytes)
    return TableHeader(
        name=doc["name"],
        num_rows=doc["num_rows"],
        fingerprint=doc["fingerprint"],
        columns=columns,
        pages_start=_align(_PREFIX_LEN + header_len),
        pages_nbytes=pages_nbytes,
        meta=doc.get("meta"),
        chunks=chunks,
        chunk_rows=doc.get("chunk_rows"),
    )


def _decode_dictionary(page: np.ndarray, count: int) -> np.ndarray:
    """Decode a dictionary page (uint8 array) into an object array of strings."""
    offsets = page[: 8 * (count + 1)].view("<i8").tolist()
    blob = page[8 * (count + 1) :].tobytes()
    dictionary = np.empty(count, dtype=object)
    for i in range(count):
        dictionary[i] = blob[offsets[i] : offsets[i + 1]].decode("utf-8")
    return dictionary


def read_table(path: str | Path, mmap: bool = True) -> Table:
    """Load a table written by :func:`write_table`.

    With ``mmap=True`` (default) numeric and code buffers are copy-on-write
    views into a single ``np.memmap`` of the file: the load reads only the
    header and dictionary pages, and the mapping stays valid even if the file
    is later replaced via :func:`write_table` (``os.replace`` keeps the old
    inode alive for existing maps).  With ``mmap=False`` every page is read
    into process memory up front.

    A chunked (version-2) file loads transparently: per-chunk pages are
    stitched into whole columns, which materialises the data — callers that
    want bounded memory should stream through :func:`open_chunks` instead.
    """
    path = Path(path)
    header = read_table_header(path)
    if header.chunks:
        return ChunkedTableReader(path, mmap=mmap, header=header).table()
    file_size = path.stat().st_size
    if header.pages_start + header.pages_nbytes > file_size:
        raise TableFormatError(
            f"{path}: truncated file ({file_size} bytes, header describes "
            f"{header.pages_start + header.pages_nbytes})"
        )

    buf: np.ndarray | None = None
    handle = None
    if mmap and file_size > header.pages_start:
        buf = np.memmap(path, dtype=np.uint8, mode="c")
    elif not mmap:
        handle = path.open("rb")

    def page(ref: PageRef, kind: str = "pages") -> np.ndarray:
        start = header.pages_start + ref.offset
        if ref.nbytes == 0:
            return np.empty(0, dtype=np.uint8)
        if buf is not None:
            # demote the slice to a base-class ndarray view: element access on
            # the np.memmap subclass goes through a slow __getitem__ override,
            # and the view's .base chain keeps the mapping alive regardless
            return np.asarray(buf[start : start + ref.nbytes])
        handle.seek(start)
        raw = bytearray(handle.read(ref.nbytes))
        _count(len(raw), kind)
        if len(raw) < ref.nbytes:
            raise TableFormatError(f"{path}: truncated page at offset {start}")
        return np.frombuffer(raw, dtype=np.uint8)

    try:
        columns: list[Column] = []
        for meta in header.columns:
            if meta.ctype is CATEGORICAL:
                codes_page = page(meta.codes)
                codes = (
                    codes_page.view("<i4")
                    if len(codes_page)
                    else np.empty(0, dtype=np.int32)
                )
                dict_page = page(meta.dictionary, "dictionary")
                if buf is not None:
                    # the dictionary is decoded eagerly; those pages are real reads
                    _count(meta.dictionary.nbytes, "dictionary")
                dictionary = _decode_dictionary(dict_page, meta.dict_count)
                columns.append(
                    Column.from_codes(meta.name, codes, dictionary, dict_exact=meta.dict_exact)
                )
            else:
                data_page = page(meta.data)
                data = (
                    data_page.view("<f8")
                    if len(data_page)
                    else np.empty(0, dtype=np.float64)
                )
                columns.append(Column.from_array(meta.name, data, meta.ctype))
        return Table(columns, name=header.name)
    finally:
        if handle is not None:
            handle.close()


# -- chunked reading ----------------------------------------------------------


class ChunkedTableReader:
    """Stream a table file one row group at a time.

    Works over both formats: a version-2 file exposes its real row groups and
    zone maps; a version-1 monolithic file presents as a single implicit chunk
    (with :attr:`has_zones` False), so every streaming consumer handles both
    layouts with one code path.  With ``mmap=True`` (default) chunk pages are
    copy-on-write views into one file mapping — iterating the table keeps at
    most one chunk's touched pages resident, and the reader survives the file
    being atomically replaced.  ``chunks_read``/:attr:`num_chunks` feed the
    pruning-ratio accounting of the streaming join.
    """

    def __init__(self, path: str | Path, mmap: bool = True, header: TableHeader | None = None):
        self.path = Path(path)
        self.header = header if header is not None else read_table_header(self.path)
        file_size = self.path.stat().st_size
        if self.header.pages_start + self.header.pages_nbytes > file_size:
            raise TableFormatError(
                f"{self.path}: truncated file ({file_size} bytes, header describes "
                f"{self.header.pages_start + self.header.pages_nbytes})"
            )
        self._mmap = bool(mmap)
        self._buf: np.ndarray | None = None
        if self._mmap and file_size > self.header.pages_start:
            self._buf = np.memmap(self.path, dtype=np.uint8, mode="c")
        # Dictionaries decode lazily, on the first read that needs one: a scan
        # over numeric columns never pays for (or counts) categorical pages.
        self._dictionaries: dict[str, np.ndarray] = {}
        # per-column (mins, maxes) zone arrays for sorted binary-search
        # pruning; False caches a negative answer (absent / non-monotonic)
        self._zone_bounds: dict[str, tuple[np.ndarray, np.ndarray] | bool] = {}
        if self.header.chunks:
            self._chunks = self.header.chunks
        else:
            # synthesise one implicit chunk over a monolithic file
            pages = [
                (meta.codes if meta.ctype is CATEGORICAL else meta.data)
                for meta in self.header.columns
            ]
            self._chunks = [
                ChunkMeta(
                    rows=self.header.num_rows,
                    pages=[ref if ref is not None else PageRef(0, 0) for ref in pages],
                    zones=[None] * len(self.header.columns),
                    fingerprint=self.header.fingerprint,
                    row_start=0,
                )
            ]
        self.chunks_read = 0

    # -- catalog-level accessors (no page reads) ------------------------------

    @property
    def name(self) -> str:
        return self.header.name

    @property
    def num_rows(self) -> int:
        return self.header.num_rows

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    @property
    def column_names(self) -> list[str]:
        return self.header.column_names

    @property
    def has_zones(self) -> bool:
        """Whether the file carries a zone map (version-2 chunked files only)."""
        return self.header.chunks is not None

    def __contains__(self, name: str) -> bool:
        return name in self.header.column_names

    def schema(self) -> Schema:
        return self.header.schema()

    def reset_counters(self) -> None:
        self.chunks_read = 0

    def chunk_row_range(self, index: int) -> tuple[int, int]:
        """Half-open global row range ``[start, stop)`` of one chunk."""
        chunk = self._chunks[index]
        return chunk.row_start, chunk.row_start + chunk.rows

    def chunk_nbytes(self, index: int) -> int:
        """Payload bytes of one chunk's pages (for memory-budget scheduling)."""
        return self._chunks[index].nbytes()

    def zones(self, index: int) -> dict[str, tuple[float, float] | None] | None:
        """One chunk's zone map by column name, or ``None`` when the file has
        no zone maps (monolithic version-1 file — callers must not prune)."""
        if not self.has_zones:
            return None
        chunk = self._chunks[index]
        return dict(zip(self.header.column_names, chunk.zones))

    @property
    def sort_by(self) -> str | None:
        """The column this file's rows are ordered by, or ``None`` (see
        :attr:`TableHeader.sort_by`)."""
        return self.header.sort_by

    def zone_bounds(self, name: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-chunk ``(mins, maxes)`` zone arrays of one numeric column, for
        binary-search pruning — or ``None`` when the fast path does not apply.

        Both arrays are float64 with all-missing (``None``) zones mapped to
        ``+inf``; they are validated monotonically non-decreasing once and
        cached.  ``None`` (fall back to a per-chunk zone scan) when the file
        has no zone map, the column is absent or categorical, or the zones
        are not monotonic (a file whose ``sort_by`` claim cannot be trusted).
        """
        cached = self._zone_bounds.get(name)
        if cached is not None:
            return None if cached is False else cached
        bounds: tuple[np.ndarray, np.ndarray] | bool = False
        if self.has_zones:
            pos = next(
                (
                    i
                    for i, meta in enumerate(self.header.columns)
                    if meta.name == name and meta.ctype is not CATEGORICAL
                ),
                None,
            )
            if pos is not None:
                mins = np.full(len(self._chunks), np.inf)
                maxes = np.full(len(self._chunks), np.inf)
                for i, chunk in enumerate(self._chunks):
                    zone = chunk.zones[pos]
                    if zone is not None:
                        mins[i], maxes[i] = zone
                # element-wise >= (not np.diff): inf - inf would be NaN, but
                # inf >= inf is True, so trailing all-missing runs pass
                if np.all(mins[1:] >= mins[:-1]) and np.all(maxes[1:] >= maxes[:-1]):
                    bounds = (mins, maxes)
        self._zone_bounds[name] = bounds
        return None if bounds is False else bounds

    def dictionary(self, name: str) -> np.ndarray:
        """The file-level dictionary of one categorical column.

        Decoded on first use and cached; ``bytes_read`` counts the page under
        the ``dictionary`` kind at that point, not at reader open.
        """
        meta = self._column_meta(name)
        if meta.ctype is not CATEGORICAL:
            raise TypeError(f"column {name!r} is {meta.ctype.value}, not categorical")
        return self._dictionary(meta)

    def _dictionary(self, meta: ColumnMeta) -> np.ndarray:
        cached = self._dictionaries.get(meta.name)
        if cached is None:
            page = self._page(meta.dictionary, "dictionary")
            if self._buf is not None:
                _count(meta.dictionary.nbytes, "dictionary")
            cached = _decode_dictionary(page, meta.dict_count)
            self._dictionaries[meta.name] = cached
        return cached

    # -- chunk reads -----------------------------------------------------------

    def chunk(self, index: int, columns: Sequence[str] | None = None) -> Table:
        """Materialise one row group as a :class:`Table` (optionally a column
        subset — per-column pages make partial reads free).

        Categorical columns share the reader's file-level dictionary; their
        ``dict_exact`` flag is necessarily False on a sub-chunk (the chunk may
        not contain every dictionary entry).
        """
        arrays = self._chunk_arrays(index, columns)
        out: list[Column] = []
        for meta in self._selected(columns):
            arr = arrays[meta.name]
            if meta.ctype is CATEGORICAL:
                out.append(
                    Column.from_codes(meta.name, arr, self._dictionary(meta))
                )
            else:
                out.append(Column.from_array(meta.name, arr, meta.ctype))
        return Table(out, name=self.header.name)

    def iter_chunks(self, columns: Sequence[str] | None = None) -> Iterator[Table]:
        """Yield every row group in file order."""
        for index in range(self.num_chunks):
            yield self.chunk(index, columns)

    def table(self) -> Table:
        """Materialise the whole table (all chunks stitched into one).

        Restores the stored ``dict_exact`` flags, so a round trip through a
        chunked file preserves the O(1) ``unique()`` fast path exactly like a
        monolithic one.
        """
        if not self.header.chunks:
            return read_table(self.path, mmap=self._mmap)
        parts = [self._chunk_arrays(i) for i in range(self.num_chunks)]
        columns: list[Column] = []
        for meta in self.header.columns:
            stacked = np.concatenate([part[meta.name] for part in parts])
            if meta.ctype is CATEGORICAL:
                columns.append(
                    Column.from_codes(
                        meta.name,
                        stacked,
                        self._dictionary(meta),
                        dict_exact=meta.dict_exact,
                    )
                )
            else:
                columns.append(Column.from_array(meta.name, stacked, meta.ctype))
        return Table(columns, name=self.header.name)

    def column(self, name: str) -> Column:
        """Materialise one whole column across all chunks."""
        meta = self._column_meta(name)
        parts = [
            self._chunk_arrays(i, [name])[name] for i in range(self.num_chunks)
        ]
        stacked = np.concatenate(parts) if parts else np.empty(0)
        if meta.ctype is CATEGORICAL:
            return Column.from_codes(
                name, stacked, self._dictionary(meta), dict_exact=meta.dict_exact
            )
        return Column.from_array(name, stacked, meta.ctype)

    def take(self, indices) -> Table:
        """Gather arbitrary global row indices into an in-memory table.

        Reads only the chunks that contain requested rows; memory is bounded
        by the result size plus one chunk.  Used by coreset sampling over
        out-of-core base tables.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_rows):
            raise IndexError(
                f"take indices out of range for table of {self.num_rows} rows"
            )
        outs: dict[str, np.ndarray] = {}
        for meta in self.header.columns:
            if meta.ctype is CATEGORICAL:
                outs[meta.name] = np.full(len(idx), -1, dtype=np.int32)
            else:
                outs[meta.name] = np.full(len(idx), np.nan, dtype=np.float64)
        for i in range(self.num_chunks):
            start, stop = self.chunk_row_range(i)
            mask = (idx >= start) & (idx < stop)
            if not mask.any():
                continue
            local = idx[mask] - start
            arrays = self._chunk_arrays(i)
            for name, arr in arrays.items():
                outs[name][mask] = arr[local]
        columns = [
            Column.from_codes(meta.name, outs[meta.name], self._dictionary(meta))
            if meta.ctype is CATEGORICAL
            else Column.from_array(meta.name, outs[meta.name], meta.ctype)
            for meta in self.header.columns
        ]
        return Table(columns, name=self.header.name)

    # -- internals -------------------------------------------------------------

    def _column_meta(self, name: str) -> ColumnMeta:
        for meta in self.header.columns:
            if meta.name == name:
                return meta
        raise KeyError(f"table {self.header.name!r} has no column {name!r}")

    def _selected(self, columns: Sequence[str] | None) -> list[ColumnMeta]:
        if columns is None:
            return self.header.columns
        return [self._column_meta(name) for name in columns]

    def _page(self, ref: PageRef, kind: str = "pages") -> np.ndarray:
        start = self.header.pages_start + ref.offset
        if ref.nbytes == 0:
            return np.empty(0, dtype=np.uint8)
        if self._buf is not None:
            return np.asarray(self._buf[start : start + ref.nbytes])
        with self.path.open("rb") as handle:
            handle.seek(start)
            raw = bytearray(handle.read(ref.nbytes))
        _count(len(raw), kind)
        if len(raw) < ref.nbytes:
            raise TableFormatError(f"{self.path}: truncated page at offset {start}")
        return np.frombuffer(raw, dtype=np.uint8)

    def _chunk_arrays(
        self, index: int, columns: Sequence[str] | None = None
    ) -> dict[str, np.ndarray]:
        """Raw per-column arrays (codes or float64) of one chunk."""
        chunk = self._chunks[index]
        positions = {meta.name: pos for pos, meta in enumerate(self.header.columns)}
        out: dict[str, np.ndarray] = {}
        for meta in self._selected(columns):
            ref = chunk.pages[positions[meta.name]]
            page = self._page(ref)
            if meta.ctype is CATEGORICAL:
                out[meta.name] = (
                    page.view("<i4") if len(page) else np.empty(0, dtype=np.int32)
                )
            else:
                out[meta.name] = (
                    page.view("<f8") if len(page) else np.empty(0, dtype=np.float64)
                )
        self.chunks_read += 1
        return out


def open_chunks(path: str | Path, mmap: bool = True) -> ChunkedTableReader:
    """Open a table file for chunk-at-a-time streaming (both format versions)."""
    return ChunkedTableReader(path, mmap=mmap)


# -- streaming writer ----------------------------------------------------------


@dataclass
class _StreamColumnState:
    """Per-column accumulation for the streaming chunked writer."""

    name: str
    ctype: ColumnType
    dict_index: dict[str, int] = field(default_factory=dict)


def _check_sorted_zones(
    path: Path, sort_by: str, states, chunks_meta: list[ChunkMeta]
) -> None:
    """Validate the sort-order claim of a streamed write.

    The ``sort_by`` column's chunk zones must be monotonically non-decreasing
    (``prev.max <= next.min``) with all-missing (``None``) zones only in a
    trailing run — exactly the property the reader's binary-search pruning
    relies on.  A sorted stream satisfies this by construction for numeric
    columns (NaNs ordered last) and for categoricals too, because the shared
    file-level dictionary assigns codes in first-appearance order, which under
    a sorted stream is ascending value order.
    """
    pos = next((i for i, s in enumerate(states) if s.name == sort_by), None)
    if pos is None:
        raise ValueError(
            f"write_table_stream: sort_by column {sort_by!r} not in schema "
            f"({[s.name for s in states]})"
        )
    prev_max: float | None = None
    seen_none = False
    for index, chunk in enumerate(chunks_meta):
        zone = chunk.zones[pos]
        if zone is None:
            seen_none = True
            continue
        if seen_none:
            raise ValueError(
                f"{path}: sort_by={sort_by!r} violated — chunk {index} has "
                f"values after an all-missing chunk (missing must sort last)"
            )
        lo, hi = zone
        if prev_max is not None and lo < prev_max:
            raise ValueError(
                f"{path}: sort_by={sort_by!r} violated — chunk {index} starts "
                f"at {lo} below previous chunk max {prev_max}"
            )
        prev_max = hi


def write_table_stream(
    path: str | Path,
    chunks,
    name: str | None = None,
    chunk_rows: int | None = None,
    meta: dict | None = None,
    sort_by: str | None = None,
) -> TableHeader:
    """Write a table from an iterable of same-schema chunk tables, bounded memory.

    Incoming chunks are re-batched to the ``chunk_rows`` target (explicit
    argument, else ``ARDA_CHUNK_ROWS``, else ``DEFAULT_STREAM_CHUNK_ROWS``).
    Pages are spilled to a temp sibling as chunks arrive — peak memory is a
    couple of chunks regardless of total rows — then the final file (header +
    file-level dictionary pages + the spilled chunk pages) is assembled with a
    bounded copy buffer and published atomically.  Categorical codes are
    remapped into one shared file-level dictionary as they stream through;
    the stored whole-table fingerprint is computed column-major over the spill
    so it equals what :func:`write_table` would store for the concatenated
    table carrying the same dictionaries.  If everything fits one chunk the
    write degrades to a plain monolithic :func:`write_table` (bit-compatible
    with the version-1 format).

    ``sort_by`` declares that the incoming chunks are globally ordered by one
    column (missing values last).  The claim is validated against the written
    zone maps (:func:`_check_sorted_zones`) and recorded as
    ``meta["sort_by"]`` so readers can binary-search pruned chunk ranges; a
    stream that is not actually sorted raises ``ValueError``.
    """
    path = Path(path)
    if sort_by is not None:
        meta = {**(meta or {}), "sort_by": sort_by}
    resolved = resolve_chunk_rows(chunk_rows)
    if resolved is None:
        resolved = DEFAULT_STREAM_CHUNK_ROWS

    states: list[_StreamColumnState] | None = None
    table_name = name
    chunks_meta: list[ChunkMeta] = []
    num_rows = 0
    rel = 0

    fd, spill_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".spill")
    spill = os.fdopen(fd, "w+b")
    try:

        def spill_page(payload: bytes) -> PageRef:
            nonlocal rel
            ref = PageRef(offset=rel, nbytes=len(payload))
            spill.write(payload)
            rel += len(payload)
            pad = _align(rel) - rel
            if pad:
                spill.write(b"\x00" * pad)
                rel += pad
            return ref

        def emit(part: Table) -> None:
            nonlocal num_rows
            chunk_pages: list[PageRef] = []
            chunk_zones: list[tuple[float, float] | None] = []
            chunk_hasher = blake2b(digest_size=16)
            for state in states:
                column = part.column(state.name)
                if column.ctype is not state.ctype:
                    raise ValueError(
                        f"write_table_stream: column {state.name!r} changed type "
                        f"across chunks ({state.ctype.value} vs {column.ctype.value})"
                    )
                if state.ctype is CATEGORICAL:
                    translate = remap_dictionary(column.dictionary, state.dict_index)
                    arr = np.ascontiguousarray(translate[column.codes], dtype="<i4")
                else:
                    arr = np.ascontiguousarray(column.values, dtype="<f8")
                payload = arr.tobytes()
                chunk_hasher.update(payload)
                chunk_pages.append(spill_page(payload))
                chunk_zones.append(_column_zone(column, arr))
            chunks_meta.append(
                ChunkMeta(
                    rows=part.num_rows,
                    pages=chunk_pages,
                    zones=chunk_zones,
                    fingerprint=chunk_hasher.hexdigest(),
                    row_start=num_rows,
                )
            )
            num_rows += part.num_rows

        batches = _rebatch(chunks, resolved)
        first = next(batches, None)
        if first is None:
            raise ValueError("write_table_stream requires at least one chunk")
        states = [_StreamColumnState(col.name, col.ctype) for col in first.columns()]
        if table_name is None:
            table_name = first.name
        if sort_by is not None and sort_by not in first.column_names:
            raise ValueError(
                f"write_table_stream: sort_by column {sort_by!r} not in schema "
                f"({first.column_names})"
            )
        second = next(batches, None)
        if second is None:
            # everything fit one chunk: write it monolithically (format v1);
            # a single chunk is trivially sorted, the marker rides in meta
            if first.name != table_name:
                first = Table(list(first.columns()), name=table_name)
            return write_table(first, path, meta=meta, chunk_rows=0)
        emit(first)
        emit(second)
        for part in batches:
            emit(part)
        if sort_by is not None:
            _check_sorted_zones(path, sort_by, states, chunks_meta)

        # final dictionaries, in shared-index insertion order
        dict_payloads: list[bytes | None] = []
        dictionaries: list[np.ndarray | None] = []
        for state in states:
            if state.ctype is CATEGORICAL:
                merged = np.empty(len(state.dict_index), dtype=object)
                for text, code in state.dict_index.items():
                    merged[code] = text
                dictionaries.append(merged)
                dict_payloads.append(_encode_dictionary(merged))
            else:
                dictionaries.append(None)
                dict_payloads.append(None)

        # whole-table fingerprint: canonical column-major payload order,
        # re-reading the spilled chunk pages with a bounded buffer
        hasher = blake2b(digest_size=16)
        for pos, state in enumerate(states):
            hasher.update(state.name.encode("utf-8"))
            hasher.update(state.ctype.value.encode("ascii"))
            for chunk in chunks_meta:
                ref = chunk.pages[pos]
                spill.seek(ref.offset)
                remaining = ref.nbytes
                while remaining:
                    block = spill.read(min(remaining, _COPY_BLOCK))
                    if not block:
                        raise TableFormatError(f"{path}: truncated spill file")
                    hasher.update(block)
                    remaining -= len(block)
            if dict_payloads[pos] is not None:
                hasher.update(dict_payloads[pos])
        fingerprint = hasher.hexdigest()

        # file-level dictionary pages precede the spilled chunk pages; spill
        # offsets shift by the aligned dictionary region as a whole
        columns_meta: list[ColumnMeta] = []
        dict_rel = 0
        dict_blobs: list[bytes] = []
        for state, payload, dictionary in zip(states, dict_payloads, dictionaries):
            col_meta = ColumnMeta(name=state.name, ctype=state.ctype)
            if payload is not None:
                col_meta.dictionary = PageRef(offset=dict_rel, nbytes=len(payload))
                col_meta.dict_count = len(dictionary)
                dict_blobs.append(payload)
                dict_rel += len(payload)
                pad = _align(dict_rel) - dict_rel
                if pad:
                    dict_blobs.append(b"\x00" * pad)
                    dict_rel += pad
            columns_meta.append(col_meta)
        for chunk in chunks_meta:
            chunk.pages = [
                PageRef(offset=ref.offset + dict_rel, nbytes=ref.nbytes)
                for ref in chunk.pages
            ]

        header_doc = {
            "name": table_name,
            "num_rows": num_rows,
            "fingerprint": fingerprint,
            "columns": [_meta_to_doc(col_meta) for col_meta in columns_meta],
            "chunk_rows": resolved,
            "chunks": [_chunk_to_doc(chunk) for chunk in chunks_meta],
        }
        if meta:
            header_doc["meta"] = meta
        header_bytes = json.dumps(header_doc, separators=(",", ":")).encode("utf-8")
        pages_start = _align(_PREFIX_LEN + len(header_bytes))

        def write_to(handle):
            handle.write(MAGIC)
            handle.write(CHUNKED_FORMAT_VERSION.to_bytes(4, "little"))
            handle.write(len(header_bytes).to_bytes(4, "little"))
            handle.write(header_bytes)
            handle.write(b"\x00" * (pages_start - _PREFIX_LEN - len(header_bytes)))
            for blob in dict_blobs:
                handle.write(blob)
            spill.seek(0)
            remaining = rel
            while remaining:
                block = spill.read(min(remaining, _COPY_BLOCK))
                if not block:
                    raise TableFormatError(f"{path}: truncated spill file")
                handle.write(block)
                remaining -= len(block)

        atomic_replace(path, write_to)
        return TableHeader(
            name=table_name,
            num_rows=num_rows,
            fingerprint=fingerprint,
            columns=columns_meta,
            pages_start=pages_start,
            pages_nbytes=dict_rel + rel,
            meta=meta,
            chunks=chunks_meta,
            chunk_rows=resolved,
        )
    finally:
        spill.close()
        try:
            os.unlink(spill_name)
        except OSError:
            pass


def _rebatch(chunks, target: int) -> Iterator[Table]:
    """Re-slice an iterable of tables into chunks of exactly ``target`` rows
    (the final chunk may be short).  Buffers at most ``target`` rows plus one
    incoming chunk."""
    pending: list[Table] = []
    pending_rows = 0
    for part in chunks:
        if part.num_rows == 0 and pending:
            continue
        pending.append(part)
        pending_rows += part.num_rows
        while pending_rows >= target:
            merged = concat_tables(pending)
            yield merged.take(np.arange(target)) if merged.num_rows > target else merged
            if merged.num_rows > target:
                rest = merged.take(np.arange(target, merged.num_rows))
                pending = [rest]
                pending_rows = rest.num_rows
            else:
                pending = []
                pending_rows = 0
    if pending:
        yield concat_tables(pending)
