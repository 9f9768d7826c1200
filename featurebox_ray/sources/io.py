"""Source/sink conveniences — the reference's ``Call`` directory reader
(featurebox/tools/imports.py:32-107, lazy per-file attributes) and
``Store`` writer (tools/exports.py:38-118) re-expressed over Ray Data.

``Catalog(dir)`` binds every table file under a directory as a lazy
attribute returning a Dataset (parquet/csv; others raise), with column
pruning pushed to the read.  ``Store`` is replaced by
``write_partitioned`` (collision-free, resumable layout) in
``state/checkpoint.py``; the thin ``write_table`` here covers the simple
case.
"""

from __future__ import annotations

import glob
import logging
import os
import urllib.parse
import urllib.request
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import pyarrow as pa
import pyarrow.parquet as pq
import ray

_READERS = {
    ".parquet": "read_parquet",
    ".csv": "read_csv",
    ".jsonl": "read_json",
    ".json": "read_json",
}


class Catalog:
    """Lazy table catalog over a directory: ``Catalog(d).lineitem`` →
    Dataset for ``d/lineitem.parquet`` (or ``.csv``)."""

    def __init__(self, root: str):
        self._root = root
        self._tables: dict = {}
        for f in sorted(os.listdir(root)):
            base, ext = os.path.splitext(f)
            if ext in _READERS and base not in self._tables:
                self._tables[base] = os.path.join(root, f)
            elif os.path.isdir(os.path.join(root, f)):
                # directory of fragments (e.g. transcripts/shard-*.parquet)
                self._tables.setdefault(f, os.path.join(root, f))

    @property
    def tables(self) -> List[str]:
        return sorted(self._tables)

    def read(self, name: str, columns: Optional[List[str]] = None, **kw):
        path = self._tables[name]
        if os.path.isdir(path):
            # directory of shard fragments: sniff the fragment format
            # (write_json/write_csv also emit one shard per block)
            exts = {os.path.splitext(f)[1] for f in os.listdir(path)}
            if exts & {".json", ".jsonl"}:
                ds = ray.data.read_json(path, **kw)
                return ds.select_columns(columns) if columns else ds
            if exts == {".csv"}:
                ds = ray.data.read_csv(path, **kw)
                return ds.select_columns(columns) if columns else ds
            return ray.data.read_parquet(path, columns=columns, **kw)
        ext = os.path.splitext(path)[1]
        reader = getattr(ray.data, _READERS[ext])
        if ext == ".parquet":
            return reader(path, columns=columns, **kw)
        ds = reader(path, **kw)
        return ds.select_columns(columns) if columns else ds

    def __getattr__(self, name: str):
        if name.startswith("_") or name not in self.__dict__.get("_tables", {}):
            raise AttributeError(name)
        return self.read(name)

    @classmethod
    def from_http(cls, url: str, save_to: str, *, filename: Optional[str] = None,
                  chunk_size: int = 256 * 1024, params: Optional[dict] = None,
                  headers: Optional[dict] = None, timeout: float = 30.0) -> str:
        """Download a file over HTTP into ``save_to`` and return its path
        (reference ``Call.from_http``, tools/imports.py:108-156: filename
        from the ``filename`` response header, else the URL tail; streamed
        chunked write).  Stdlib urllib — no third-party HTTP client.

        The download is a driver-side convenience (fetch a table file,
        then ``Catalog(save_to)`` / ``read_parquet`` it); at cluster scale
        the fetched artifact should land on shared storage, not a single
        node's disk.
        """
        if params:
            sep = "&" if urllib.parse.urlparse(url).query else "?"
            url = url + sep + urllib.parse.urlencode(params)
        req = urllib.request.Request(url, headers=headers or {})
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            status = getattr(resp, "status", 200)
            if status >= 400:
                raise RuntimeError(f"HTTP {status} for {url}")
            if not filename:
                # basename both sources: a server-supplied header must not
                # traverse outside save_to ("../../x" or an absolute path)
                filename = os.path.basename(
                    resp.headers.get("filename")
                    or os.path.basename(urllib.parse.urlparse(url).path)
                    or "download")
            if not os.path.isdir(save_to):
                raise RuntimeError(
                    f"{save_to!r} is not a directory to save into")
            dest = os.path.join(save_to, filename)
            with open(dest, "wb") as fh:
                while True:
                    chunk = resp.read(chunk_size)
                    if not chunk:
                        break
                    fh.write(chunk)
        return dest


def write_table(ds, path: str, *, fmt: str = "parquet") -> None:
    if fmt == "parquet":
        ds.write_parquet(path)
    elif fmt == "csv":
        ds.write_csv(path)
    elif fmt in ("json", "jsonl"):
        # newline-delimited JSON, one shard file per block (like the
        # parquet writer); ints/strings round-trip exactly — floats
        # should be pre-quantized by the caller (the q01 cents pattern)
        ds.write_json(path)
    elif fmt in ("ipc", "arrow", "feather"):
        write_ipc(ds, path)
    else:
        raise ValueError(f"unsupported format {fmt!r}")


def write_ipc(ds, path: str) -> int:
    """Arrow IPC (Feather V2) sink — one ``.arrow`` file per block,
    the zero-copy interchange format for handing blocks to other
    Arrow-native tools (polars, duckdb, pandas) without a parquet
    decode.  Returns the total row count written (the write is
    forced — Ray sinks are lazy until consumed).  Same
    directory-of-shards layout as the parquet writer; clean the
    directory first — shard names are unique per write (uuid), so
    stale shards from a prior run would otherwise accumulate."""
    os.makedirs(path, exist_ok=True)

    def w(b: "pa.Table") -> "pa.Table":
        if b.num_rows:
            sink = pa.BufferOutputStream()
            with pa.ipc.new_file(sink, b.schema) as wr:
                wr.write_table(b)
            buf = sink.getvalue()
            name = uuid.uuid4().hex[:16]
            tmp = f"{path}/block-{name}.arrow.tmp"
            with open(tmp, "wb") as f:
                f.write(buf)
            os.replace(tmp, f"{path}/block-{name}.arrow")
        return pa.table({"rows": pa.array([b.num_rows],
                                          type=pa.int64())})

    total = ds.map_batches(w, batch_format="pyarrow",
                           zero_copy_batch=True,
                           batch_size=None).sum("rows")
    return int(total or 0)


def read_ipc(path: str):
    """Arrow IPC source — reads a ``write_ipc`` directory back as a
    Dataset, one block per shard file (``read_binary_files`` streams
    the bytes; the IPC decode is zero-copy from the buffer)."""
    def decode(b: "pa.Table") -> "pa.Table":
        tables = []
        for buf in b["bytes"].to_pylist():
            with pa.ipc.open_file(pa.BufferReader(buf)) as rd:
                tables.append(rd.read_all())
        if not tables:
            return pa.table({})
        return pa.concat_tables(tables, promote_options="default")

    return ray.data.read_binary_files(path).map_batches(
        decode, batch_format="pyarrow")


def read_evolved(path: str, *, schema: "pa.Schema",
                 strict: bool = True):
    """Schema-evolution parquet reader — union fragments written at
    DIFFERENT points of a table's life under ONE target schema: a
    column a fragment lacks null-fills, a column stored at a narrower
    type (int32 vs int64, float vs double) promotes by safe cast, and
    extra columns a fragment carries are dropped.  The data-lake
    "union by name" read re-expressed Ray-Data-first: fragments are
    grouped BY FOOTER SCHEMA (metadata-only — no data read at plan
    time), each group becomes one pruned ``read_parquet`` (only the
    target columns that group actually has leave storage), a
    vectorized normalize kernel casts/fills, and the groups union
    into one Dataset with a single fixed schema.

    ``strict=True`` raises when a fragment column needs an UNSAFE
    cast (string→int, double→int); ``strict=False`` skips those
    fragments with a logged warning instead.

    Reference analog: the reference assumes uniform in-memory frames;
    this is what 100-TB tables actually look like after a year of
    schema changes.
    """
    frags = sorted(
        os.path.join(path, f) for f in os.listdir(path)
        if f.endswith(".parquet"))
    if not frags:
        raise ValueError(f"read_evolved: no fragments in {path}")
    groups: dict = {}
    for f in frags:
        fs = pq.read_schema(f)
        key = tuple(sorted((n, str(fs.field(n).type))
                           for n in fs.names))
        groups.setdefault(key, (fs, []))[1].append(f)

    def _safe(src: "pa.DataType", dst: "pa.DataType") -> bool:
        if src == dst:
            return True
        if pa.types.is_integer(src) and pa.types.is_integer(dst):
            if pa.types.is_signed_integer(src) and \
                    pa.types.is_unsigned_integer(dst):
                return False          # sign loss
            if pa.types.is_unsigned_integer(src) and \
                    pa.types.is_signed_integer(dst):
                return dst.bit_width > src.bit_width  # uint64→int64 NO
            return dst.bit_width >= src.bit_width
        if pa.types.is_floating(src) and pa.types.is_floating(dst):
            return dst.bit_width >= src.bit_width
        if pa.types.is_integer(src) and pa.types.is_floating(dst):
            return dst.bit_width == 64 and src.bit_width <= 32
        return False

    parts = []
    for fs, files in groups.values():
        bad = [n for n in schema.names if n in fs.names
               and not _safe(fs.field(n).type, schema.field(n).type)]
        if bad:
            msg = (f"read_evolved: fragment group {files[0]}...: "
                   f"unsafe cast for columns {bad}")
            if strict:
                raise ValueError(msg)
            logging.getLogger(__name__).warning("%s — skipped", msg)
            continue
        have = [n for n in schema.names if n in fs.names]
        # a group sharing NO target columns still contributes its ROW
        # COUNT (all-null rows, union-by-name semantics) — read one
        # narrow column for the count instead of the full width
        read_cols = have if have else [fs.names[0]]

        def normalize(b: "pa.Table", _have=tuple(have)) -> "pa.Table":
            cols = {}
            for fld in schema:
                if fld.name in _have and fld.name in b.column_names:
                    cols[fld.name] = b[fld.name].combine_chunks()\
                        .cast(fld.type)
                else:
                    cols[fld.name] = pa.nulls(b.num_rows, fld.type)
            return pa.table(cols)

        parts.append(
            ray.data.read_parquet(files, columns=read_cols)
            .map_batches(normalize, batch_format="pyarrow",
                         zero_copy_batch=True))
    if not parts:
        raise ValueError("read_evolved: every fragment group was "
                         "skipped (unsafe casts)")
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def read_with_provenance(path: str, *, columns=None,
                         file_col: str = "_file",
                         row_col: str = "_row"):
    """Provenance-stamped parquet read — every row carries its source
    fragment's basename and its 0-based row index WITHIN that file:
    the record-level lineage a resumable 100-TB run needs to audit
    per-partition manifests (which fragment produced which rows) and
    to re-derive any row's origin after arbitrary downstream shuffles.

    Plan: fragments are discovered driver-side (filesystem metadata
    only); ONE Ray task per ROW GROUP — the per-file row offset of
    each group comes from the parquet FOOTER (cumulative
    ``row_group(i).num_rows``, no data I/O), so stamping is exact and
    the read parallelizes within big files, not just across files.
    Column pruning pushes into each row-group read.

    Oracle parity: DuckDB's ``read_parquet(..., filename=true,
    file_row_number=true)`` produces the identical stamps.  Returns a
    ``ray.data.Dataset``; raises on an empty directory.
    """
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"),
                                 recursive=True))
    else:
        files = [path]
    if not files:
        raise ValueError(f"read_with_provenance: no parquet under {path!r}")

    # footer scans are independent — run them in a thread pool so a
    # many-fragment layout doesn't serialize startup on the driver
    # (footer reads release the GIL in Arrow's IO layer)
    def _footer(f):
        md = pq.ParquetFile(f).metadata
        out, off = [], 0
        for g in range(md.num_row_groups):
            out.append((f, g, off))
            off += md.row_group(g).num_rows
        return out

    work = []                      # (file, row_group, row_offset)
    with ThreadPoolExecutor(max_workers=min(32, len(files))) as ex:
        for triples in ex.map(_footer, files):
            work.extend(triples)

    @ray.remote
    def read_group(f: str, g: int, off: int):
        t = pq.ParquetFile(f).read_row_group(g, columns=columns)
        return (t.append_column(file_col, pa.array(
                    [os.path.basename(f)] * t.num_rows, pa.string()))
                 .append_column(row_col, pa.array(
                    range(off, off + t.num_rows), pa.int64())))

    return ray.data.from_arrow_refs(
        [read_group.remote(f, g, off) for f, g, off in work])
