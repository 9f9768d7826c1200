"""Storage-partitioned (bucketed) layout — pay the join shuffle ONCE at
write time, then equi-join any number of times with ZERO exchange.

``write_bucketed`` hash-partitions a table on its join key (the
engine's one Knuth hash, ``stages/sample.py:knuth_hash``) and writes
each bucket to its own ``bucket=<b>/`` directory plus a
``_bucketspec.json`` recording (key, num_buckets, hash).
``bucketed_join`` then joins two co-bucketed layouts bucket-by-bucket:
one Ray task per bucket reads only that bucket's fragments from both
sides and performs an in-task Arrow hash join — no repartition, no
shuffle, no driver data movement.  This is the storage-partitioned
join of the lakehouse engines (Spark bucketed tables, Iceberg/Trino
bucket transforms) re-expressed on Ray tasks: at 100 TB the fact
table's shuffle is paid once at ingest, and every subsequent join —
across jobs, across days — is an embarrassingly parallel per-bucket
map.

Scale shape: write = ONE keyed exchange (the same task exchange every
partitioned_map uses) with a parquet sink inside the kernel;
join = B independent tasks, each bounded by its bucket's bytes (size
``num_buckets`` so a bucket pair fits a worker's heap).  Rows with a
NULL key are DROPPED at write time (a null key can never match an
equi-join; the spec file records the KEPT row count so a lineage
consumer can reconcile against the source count).

Reference analog: none (the reference joins in-memory via pandas
``merge`` / index alignment, e.g. featurizers/base.py transform over
aligned frames); this is the at-scale layout that makes such joins
free to repeat.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .partition import partitioned_refs
from .sample import knuth_hash

SPEC_NAME = "_bucketspec.json"


def write_bucketed(ds, path: str, *, key: str,
                   num_buckets: int = 16) -> pa.Table:
    """Write ``ds`` as a Knuth-hash-bucketed parquet layout under
    ``path``.  Returns the manifest (one row per written fragment:
    ``bucket, rows, file``).  The key must be a non-negative int64
    column; NULL-key rows drop (the spec records kept rows)."""
    B = int(num_buckets)
    os.makedirs(path, exist_ok=True)
    if os.listdir(path):
        # appending into an existing layout would silently duplicate
        # every row in later bucketed_joins (uuid fragment names never
        # collide) — a retried job must write to a fresh path or
        # remove the old layout first
        raise ValueError(f"write_bucketed: {path} is not empty — "
                         "refusing to append to an existing layout")

    def add_bucket(b: pa.Table) -> pa.Table:
        col = b[key].combine_chunks()
        valid = pc.is_valid(col)
        if not pc.all(valid).as_py():
            b = b.filter(valid)
            col = b[key].combine_chunks()
        ids = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        bk = (knuth_hash(ids, op="write_bucketed") % B).astype(
            np.int64)
        return b.append_column("__bucket", pa.array(bk))

    def kernel(t: pa.Table) -> pa.Table:
        # one partition may hold several buckets (partition count and
        # bucket count are decoupled); split and write one file per
        # bucket present.  uuid fragment names: content-derived names
        # collided identical blocks in the IPC sink (session-15
        # lesson)
        out_b, out_rows, out_file = [], [], []
        if t.num_rows and "__bucket" in t.column_names:
            bks = t["__bucket"].to_numpy(zero_copy_only=False)
            order = np.argsort(bks, kind="stable")
            ts = t.take(pa.array(order, pa.int64()))
            bks = bks[order]
            starts = np.flatnonzero(
                np.concatenate([[True], bks[1:] != bks[:-1]]))
            ends = np.concatenate([starts[1:], [len(bks)]])
            for s, e in zip(starts, ends):
                bv = int(bks[s])
                sub = ts.slice(s, e - s).drop_columns(["__bucket"])
                d = f"{path}/bucket={bv}"
                os.makedirs(d, exist_ok=True)
                fn = f"{d}/part-{uuid.uuid4().hex}.parquet"
                pq.write_table(sub, fn)
                out_b.append(bv)
                out_rows.append(e - s)
                out_file.append(fn)
        return pa.table({
            "bucket": pa.array(out_b, pa.int64()),
            "rows": pa.array(out_rows, pa.int64()),
            "file": pa.array(out_file, pa.string())})

    withb = ds.map_batches(add_bucket, batch_format="pyarrow",
                           zero_copy_batch=True)
    manifest = partitioned_refs(withb, kernel, key="__bucket",
                                sort_keys=["__bucket"],
                                num_partitions=B)

    blocks = [b for b in ray.get(manifest) if b.num_rows > 0]
    man = (pa.concat_tables(blocks) if blocks
           else pa.table({"bucket": pa.array([], pa.int64()),
                          "rows": pa.array([], pa.int64()),
                          "file": pa.array([], pa.string())}))
    with open(f"{path}/{SPEC_NAME}", "w") as f:
        json.dump({"key": key, "num_buckets": B, "hash": "knuth32",
                   "rows": int(pc.sum(man["rows"]).as_py() or 0)},
                  f)
    return man


def _read_spec(path: str) -> dict:
    with open(f"{path}/{SPEC_NAME}") as f:
        return json.load(f)


def bucketed_join(left_path: str, right_path: str, *,
                  left_cols: Optional[List[str]] = None,
                  right_cols: Optional[List[str]] = None):
    """Shuffle-free equi-join of two co-bucketed layouts on their
    bucketing keys (the key each side was written with; different
    names join positionally — the right key column is dropped from
    the output like a SQL USING join keeps one key).  Returns a
    ``ray.data.Dataset`` of the inner join, one block per bucket."""
    ls, rs = _read_spec(left_path), _read_spec(right_path)
    if ls["num_buckets"] != rs["num_buckets"] or \
            ls["hash"] != rs["hash"]:
        raise ValueError(
            f"bucketed_join: incompatible layouts "
            f"({ls['num_buckets']}×{ls['hash']} vs "
            f"{rs['num_buckets']}×{rs['hash']}) — rewrite one side")
    B = ls["num_buckets"]
    lkey, rkey = ls["key"], rs["key"]
    # both sides auto-include their bucketing key: the join needs it,
    # and the output always carries the (left-named) key column
    l_read = (left_cols if left_cols is None
              else list(dict.fromkeys([lkey] + left_cols)))
    r_read = (right_cols if right_cols is None
              else list(dict.fromkeys([rkey] + right_cols)))

    def _any_fragment(root):
        for b in range(B):
            d = f"{root}/bucket={b}"
            if os.path.isdir(d):
                for fn in sorted(os.listdir(d)):
                    return f"{d}/{fn}"
        raise ValueError(f"bucketed_join: no fragments under {root}")

    def _proj(schema, cols):
        return ([schema.field(c) for c in cols] if cols is not None
                else list(schema))

    lf = _proj(pq.read_schema(_any_fragment(left_path)), l_read)
    rf = _proj(pq.read_schema(_any_fragment(right_path)), r_read)
    # non-key column names must be disjoint: a clash would be
    # silently dropped from the empty-bucket schema while Arrow's
    # join errors/suffixes it on non-empty buckets — fail upfront
    clash = ({f.name for f in lf} - {lkey}) \
        & ({f.name for f in rf} - {rkey})
    if clash:
        raise ValueError(
            f"bucketed_join: column name(s) {sorted(clash)} appear "
            "on both sides — project or rename one side "
            "(left_cols/right_cols)")
    out_fields = lf + [f for f in rf if f.name != rkey]
    empty = pa.table({f.name: pa.array([], f.type)
                      for f in out_fields})
    out_names = [f.name for f in out_fields]

    @ray.remote
    def join_bucket(b: int) -> pa.Table:
        def load(root, cols):
            d = f"{root}/bucket={b}"
            if not os.path.isdir(d):
                return None
            ts = [pq.read_table(f"{d}/{fn}", columns=cols)
                  for fn in sorted(os.listdir(d))]
            return pa.concat_tables(ts) if ts else None

        lt = load(left_path, l_read)
        rt = load(right_path, r_read)
        if lt is None or rt is None or not lt.num_rows \
                or not rt.num_rows:
            return empty
        if rkey != lkey:
            rt = rt.rename_columns(
                [lkey if c == rkey else c for c in rt.column_names])
        joined = lt.join(rt, keys=lkey, join_type="inner")
        return joined.select(out_names)

    # one task per bucket; the driver holds ObjectRefs only — joined
    # blocks never pass through the driver
    return ray.data.from_arrow_refs(
        [join_bucket.remote(b) for b in range(B)])


RANGE_SPEC = "_rangespec.json"


def write_range_partitioned(ds, path: str, *, key: str,
                            cuts: List[int]) -> pa.Table:
    """Write ``ds`` range-partitioned on an int64 column: partition
    ``i`` holds rows with ``cuts[i] <= key < cuts[i+1]`` (rows outside
    ``[cuts[0], cuts[-1])`` RAISE — widen the cuts; NULL keys drop,
    recorded semantics as :func:`write_bucketed`).  The range sibling
    of the hash-bucketed layout: hash co-locates for JOINS, range
    co-locates for TIME/KEY-RANGE SCANS, and a reader that wants
    ``[lo, hi)`` touches only the overlapping partition directories —
    partition pruning from the spec file alone, no footer reads.

    Returns the fragment manifest ``(part, rows, file)``; writes
    ``_rangespec.json`` with the key and cut vector.
    """
    cuts = [int(c) for c in cuts]
    if sorted(cuts) != cuts or len(cuts) < 2:
        raise ValueError("write_range_partitioned: cuts must be an "
                         "ascending vector of >= 2 boundaries")
    os.makedirs(path, exist_ok=True)
    if os.listdir(path):
        raise ValueError(f"write_range_partitioned: {path} is not "
                         "empty — refusing to append")
    lo, hi = cuts[0], cuts[-1]
    cuts_arr = np.asarray(cuts, np.int64)

    def add_part(b: pa.Table) -> pa.Table:
        col = b[key].combine_chunks()
        valid = pc.is_valid(col)
        if not pc.all(valid).as_py():
            b = b.filter(valid)
            col = b[key].combine_chunks()
        v = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        if len(v) and (int(v.min()) < lo or int(v.max()) >= hi):
            raise ValueError(
                f"write_range_partitioned: value outside "
                f"[{lo}, {hi}) — widen the cuts")
        part = (np.searchsorted(cuts_arr, v, side="right") - 1)\
            .astype(np.int64)
        return b.append_column("__bucket", pa.array(part))

    def kernel(t: pa.Table) -> pa.Table:
        out_b, out_rows, out_file = [], [], []
        if t.num_rows and "__bucket" in t.column_names:
            bks = t["__bucket"].to_numpy(zero_copy_only=False)
            order = np.argsort(bks, kind="stable")
            ts = t.take(pa.array(order, pa.int64()))
            bks = bks[order]
            starts = np.flatnonzero(
                np.concatenate([[True], bks[1:] != bks[:-1]]))
            ends = np.concatenate([starts[1:], [len(bks)]])
            for s, e in zip(starts, ends):
                bv = int(bks[s])
                sub = ts.slice(s, e - s).drop_columns(["__bucket"])
                d = f"{path}/part={bv}"
                os.makedirs(d, exist_ok=True)
                fn = f"{d}/frag-{uuid.uuid4().hex}.parquet"
                pq.write_table(sub, fn)
                out_b.append(bv)
                out_rows.append(e - s)
                out_file.append(fn)
        return pa.table({
            "part": pa.array(out_b, pa.int64()),
            "rows": pa.array(out_rows, pa.int64()),
            "file": pa.array(out_file, pa.string())})

    withp = ds.map_batches(add_part, batch_format="pyarrow",
                           zero_copy_batch=True)
    manifest = partitioned_refs(withp, kernel, key="__bucket",
                                sort_keys=["__bucket"],
                                num_partitions=len(cuts) - 1)

    blocks = [b for b in ray.get(manifest) if b.num_rows > 0]
    man = (pa.concat_tables(blocks) if blocks
           else pa.table({"part": pa.array([], pa.int64()),
                          "rows": pa.array([], pa.int64()),
                          "file": pa.array([], pa.string())}))
    with open(f"{path}/{RANGE_SPEC}", "w") as f:
        json.dump({"key": key, "cuts": cuts,
                   "rows": int(pc.sum(man["rows"]).as_py() or 0)}, f)
    return man


def read_range(path: str, *, lo: int, hi: int,
               columns: Optional[List[str]] = None):
    """Read ``[lo, hi)`` of the layout's key from a range-partitioned
    layout — opens ONLY the partition directories whose range overlaps
    (pruned from the spec's cut vector; no footers touched for skipped
    partitions) and applies the exact residual filter inside the read
    tasks.  Returns a ``ray.data.Dataset``."""
    with open(f"{path}/{RANGE_SPEC}") as f:
        spec = json.load(f)
    cuts = spec["cuts"]
    key = spec["key"]
    parts = [i for i in range(len(cuts) - 1)
             if cuts[i] < hi and cuts[i + 1] > lo]
    dirs = [os.path.join(f"{path}/part={i}", fn)
            for i in parts if os.path.isdir(f"{path}/part={i}")
            for fn in sorted(os.listdir(f"{path}/part={i}"))]
    if not dirs:
        # typed empty from any fragment's footer (the layout's real
        # schema), never null-typed columns
        any_frag = None
        for i in range(len(cuts) - 1):
            d = f"{path}/part={i}"
            if os.path.isdir(d) and os.listdir(d):
                any_frag = os.path.join(d, sorted(os.listdir(d))[0])
                break
        if any_frag is None:
            raise ValueError(f"read_range: no fragments under {path}")
        schema = pq.read_schema(any_frag)
        names = columns if columns is not None else schema.names
        return ray.data.from_arrow(pa.table(
            {c: pa.array([], schema.field(c).type) for c in names}))
    read_cols = (list(dict.fromkeys([key] + columns))
                 if columns is not None else None)
    ds = ray.data.read_parquet(dirs, columns=read_cols)

    def residual(b: pa.Table) -> pa.Table:
        col = b[key].combine_chunks().cast(pa.int64())
        m = pc.and_(pc.greater_equal(col, lo), pc.less(col, hi))
        out = b.filter(pc.fill_null(m, False))
        return out.select(columns) if columns is not None else out

    return ds.map_batches(residual, batch_format="pyarrow",
                          zero_copy_batch=True)
