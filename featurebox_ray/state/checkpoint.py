"""Per-partition checkpointed output with lineage manifests + resume
(SURVEY.md §7.3 step 6; north_rule resumability requirement).

Layout under ``out_dir``::

    part-00017.parquet          one file per hash partition
    _manifest/part-00017.json   one manifest per partition (fields below)
    _manifest/_run.json         the run's layout parameters (_run_params)

A run writes each partition's parquet + manifest atomically-enough (parquet
first, manifest last — a partition without a manifest is re-run).  Resume
lists valid manifests and gathers only the missing partitions on the task
exchange (``stages/partition.py:task_exchange``), so a restart only pays
for the missing partitions' gathers (the upstream is still read and split
once).  Outputs are byte-stable given (input, partition id) because
every kernel is deterministic and partition contents don't depend on
scheduling (hash bucketing + full sort).

A part manifest holds:

* ``partition``, ``rows`` (output rows), ``file`` (``None`` for a
  partition that received no rows), ``input``, ``columns``;
* ``feature_hash`` — :func:`_feature_hash` of the output, ``None`` for an
  empty partition — and ``hash``, the id of the scheme that computed it
  (:data:`HASH_SCHEME`; manifests written before the field existed used
  a pandas-based hash and carry no ``hash``);
* metrics: ``rows_in`` (rows the gather handed the kernel), ``bytes``
  (part-file size) and ``wall_s`` (kernel + write + hash, in the gather).

The feature hash is order-insensitive and process-independent.  The rows
are put in a canonical order by one ``pc.sort_indices`` over every
column, columns taken by name and dictionary columns by value; a nested
column (list, map, union, struct) sorts by a per-row string of its
values, because Arrow cannot sort lists and ties a NULL struct with a
struct of NULLs.  Then one SHA-1 takes each column's name, type, row
count, validity bytes and the buffers of its non-null values, with
offsets rebased to 0, every NaN as one NaN and -0.0 as 0.0, nested
columns recursively.  A NULL, ``""`` and ``0`` hash differently.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Callable, List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.partition import (exchange_inputs, string_buffers,
                                task_exchange)


HASH_SCHEME = "arrow-sort-sha1-v1"


def _by_value(arr) -> pa.Array:
    """One contiguous Array holding ``arr``'s values: chunks combined,
    dictionaries decoded, extension arrays as their storage."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        arr = arr.dictionary_decode()
    if isinstance(arr.type, pa.ExtensionType):
        arr = arr.storage
    return arr


def _hash_values(h, arr: pa.Array) -> None:
    """Feed ``arr`` into ``h`` by value: type, length, one validity byte
    per row, then the values of the non-null rows."""
    arr = _by_value(arr)
    t = arr.type
    h.update(f"{t}|{len(arr)}|".encode())
    h.update(np.asarray(pc.is_valid(arr)).tobytes())
    if arr.null_count:
        arr = arr.drop_null()
    if pa.types.is_null(t):
        return
    if pa.types.is_boolean(t):
        h.update(arr.to_numpy(zero_copy_only=False).tobytes())
    elif pa.types.is_floating(t):
        v = arr.to_numpy(zero_copy_only=False)
        h.update(np.where(np.isnan(v), np.nan, v + 0.0).astype(v.dtype)
                 .tobytes())
    elif (pa.types.is_string(t) or pa.types.is_large_string(t)
          or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        off, data = string_buffers(arr)
        h.update((off - off[0]).tobytes())
        h.update(data[off[0]:off[-1]].tobytes())
    elif pa.types.is_list(t) or pa.types.is_large_list(t):
        off = np.asarray(arr.offsets, np.int64)
        h.update((off - off[0]).tobytes())
        _hash_values(h, arr.flatten())
    elif pa.types.is_fixed_size_list(t):
        _hash_values(h, arr.flatten())
    elif pa.types.is_struct(t):
        for child in arr.flatten():
            _hash_values(h, child)
    elif (pa.types.is_primitive(t) or pa.types.is_decimal(t)
          or pa.types.is_fixed_size_binary(t)):
        width = t.bit_width // 8
        data = np.frombuffer(arr.buffers()[1] or b"", np.uint8)
        h.update(data[arr.offset * width:(arr.offset + len(arr)) * width]
                 .tobytes())
    else:  # map, union, view types: no flat buffer layout to read
        h.update(repr(arr.to_pylist()).encode())


def _feature_hash(table: pa.Table) -> str:
    """Order-insensitive, process-independent content hash of a
    partition's output (:data:`HASH_SCHEME`; the module docstring has
    the definition)."""
    names = sorted(table.column_names)
    cols = [_by_value(table[n]) for n in names]
    # a nested column sorts by a per-row string of its values: Arrow
    # cannot sort lists, and it ties a NULL struct with a struct of NULLs
    keys = {f"k{i}": pa.array([repr(v) for v in c.to_pylist()], pa.string())
            if pa.types.is_nested(c.type) else c
            for i, c in enumerate(cols)}
    if keys and table.num_rows > 1:
        order = pc.sort_indices(pa.table(keys),
                                sort_keys=[(k, "ascending") for k in keys])
        cols = [c.take(order) for c in cols]
    h = hashlib.sha1()
    for n, c in zip(names, cols):
        h.update(n.encode() + b"\0")
        _hash_values(h, c)
    return h.hexdigest()


def _write_json(path: str, obj) -> None:
    """Write ``obj`` as JSON atomically (``.tmp`` + ``os.replace``)."""
    with open(path + ".tmp", "w") as fh:
        json.dump(obj, fh)
    os.replace(path + ".tmp", path)


def _empty_manifest(part_id: int, input_desc: str) -> dict:
    return {"partition": part_id, "rows": 0, "file": None,
            "feature_hash": None, "hash": HASH_SCHEME, "input": input_desc,
            "columns": [], "rows_in": 0, "bytes": 0, "wall_s": 0.0}


def finished_partitions(out_dir: str) -> set:
    mdir = os.path.join(out_dir, "_manifest")
    done = set()
    if not os.path.isdir(mdir):
        return done
    for f in os.listdir(mdir):
        if not f.endswith(".json") or f.startswith("_"):
            continue
        try:
            with open(os.path.join(mdir, f)) as fh:
                m = json.load(fh)
            if m.get("file") is None:
                if m.get("rows") == 0:  # recorded-empty partition
                    done.add(int(m["partition"]))
                continue
            pth = os.path.join(out_dir, m["file"])
            if os.path.exists(pth) and pq.read_metadata(pth).num_rows == m["rows"]:
                done.add(int(m["partition"]))
        except Exception:
            continue
    return done


def _run_params(key, sort_keys, num_partitions, input_desc,
                kernel_id=None) -> dict:
    # bucketer: version of the key->partition hash (stages/partition.py
    # _hash_chunk).  Bump whenever the hash function changes so a resume
    # over a checkpoint bucketed under the OLD function invalidates
    # instead of silently mixing layouts ("finished" partitions would
    # hold a different row subset than the new bucketing expects).
    # kernel_id: caller-supplied fingerprint of the TRANSFORM (spec hash,
    # version string) — layout params alone can't tell that the kernel
    # changed between runs, and mixing old-kernel and new-kernel
    # partition outputs in one directory is silent corruption.
    return {"key": key, "sort_keys": list(sort_keys),
            "num_partitions": int(num_partitions), "input": input_desc,
            "bucketer": "poly64-v2", "kernel_id": kernel_id}


def _validate_run_manifest(out_dir: str, params: dict) -> bool:
    """True if a prior run's parameters match ``params``.  A mismatch
    (different num_partitions / key / sort order / input) means the
    existing part files were bucketed under a DIFFERENT layout — keeping
    them would silently duplicate or drop rows — so the caller must
    invalidate them."""
    rpath = os.path.join(out_dir, "_manifest", "_run.json")
    if not os.path.exists(rpath):
        return not finished_partitions(out_dir)  # legacy dir: only trust empty
    try:
        with open(rpath) as fh:
            prior = json.load(fh)
    except Exception:
        return False
    return prior == params


def _invalidate(out_dir: str) -> None:
    """Remove stale part files + manifests (layout changed)."""
    mdir = os.path.join(out_dir, "_manifest")
    for d, suffix in ((mdir, ".json"), (out_dir, ".parquet")):
        if os.path.isdir(d):
            for f in os.listdir(d):
                if f.startswith("part-") and f.endswith(suffix):
                    os.remove(os.path.join(d, f))


def partitioned_input_files(input_dir: str, missing: Sequence[int]) -> List[str]:
    """Fragment-level resume pruning for inputs that are themselves the
    part files of an upstream checkpointed run under the SAME
    (key, num_partitions) layout: only the files of still-missing
    partitions need to be read at all (``part-XXXXX.parquet`` names carry
    the partition id)."""
    want = {f"part-{p:05d}.parquet" for p in missing}
    return [os.path.join(input_dir, f)
            for f in sorted(os.listdir(input_dir)) if f in want]


def run_partitioned_checkpointed(
    ds,
    kernel: Callable[[pa.Table], pa.Table],
    out_dir: str,
    *,
    key: str,
    sort_keys: Sequence[str],
    num_partitions: int = 32,
    input_desc: str = "",
    input_partitioned_dir: Optional[str] = None,
    kernel_id: Optional[str] = None,
) -> List[dict]:
    """Run ``kernel`` per sorted hash partition, writing each partition's
    output + manifest from inside the task (resumable).  Returns the list of
    manifests (existing + new).  ``ds`` is one Dataset, exchanged by
    ``stages/partition.py:task_exchange``; several inputs raise
    ``ValueError`` before anything is written.

    A run-level manifest (``_manifest/_run.json``) records
    (key, sort_keys, num_partitions, input_desc); a resume whose parameters
    differ invalidates every finished partition instead of silently mixing
    two bucketing layouts.

    ``input_partitioned_dir``: when the input is the part-file output of an
    upstream run under the same layout, pass its directory — the resume
    then reads ONLY the files of missing partitions (fragment-level prune)
    instead of re-reading and re-hashing the full input."""
    import ray

    exchange_inputs(ds, sort_keys)
    mdir = os.path.join(out_dir, "_manifest")
    os.makedirs(mdir, exist_ok=True)
    params = _run_params(key, sort_keys, num_partitions, input_desc,
                         kernel_id)
    if not _validate_run_manifest(out_dir, params):
        _invalidate(out_dir)
    _write_json(os.path.join(mdir, "_run.json"), params)
    done = finished_partitions(out_dir)
    missing = [p for p in range(num_partitions) if p not in done]

    if input_partitioned_dir is not None:
        # partitions the UPSTREAM recorded as empty have no part file and
        # can never produce rows here — record them as empty immediately
        upstream_done = finished_partitions(input_partitioned_dir)
        if os.path.isdir(os.path.join(input_partitioned_dir, "_manifest")):
            # the upstream is itself a checkpointed run: every missing
            # partition must be FINISHED there, or this run would read
            # nothing for it and permanently record it as empty — silent
            # data loss that the all-files guard below can't see when
            # OTHER missing partitions do have files
            unfinished = [p for p in missing if p not in upstream_done]
            if unfinished:
                raise FileNotFoundError(
                    f"input_partitioned_dir={input_partitioned_dir!r} has "
                    f"not finished partitions {unfinished[:8]}"
                    f"{'...' if len(unfinished) > 8 else ''}; finish the "
                    "upstream run before resuming this one")
        upstream_empty = [p for p in missing
                          if p in upstream_done and not os.path.exists(
                              os.path.join(input_partitioned_dir,
                                           f"part-{p:05d}.parquet"))]
        for p in upstream_empty:
            _write_json(os.path.join(mdir, f"part-{p:05d}.json"),
                        _empty_manifest(p, input_desc))
        missing = [p for p in missing if p not in upstream_empty]
        files = (partitioned_input_files(input_partitioned_dir, missing)
                 if missing else [])
        if missing and not files:
            # zero matches for a non-empty missing set means a
            # wrong/renamed directory or an unfinished upstream; returning
            # the stale manifests as a completed run would be silent data
            # loss (upstream-empty partitions were already classified out)
            raise FileNotFoundError(
                f"input_partitioned_dir={input_partitioned_dir!r} has no "
                f"part files for any missing partition {missing}; wrong "
                "directory, different layout, or upstream not finished")
        if files:
            ds = ray.data.read_parquet(files)

    def write_partition(part_id: int, table: pa.Table) -> None:
        # runs inside the partition's gather task: part file first,
        # manifest last; a partition that received no rows gets a rows-0
        # manifest so resumes see a fully-finished layout (otherwise an
        # empty partition stays "missing" forever and a partitioned-input
        # resume of a completed run would trip the no-matching-files guard)
        if table.num_rows == 0:
            manifest = _empty_manifest(part_id, input_desc)
        else:
            t0 = time.perf_counter()
            out = kernel(table)
            fname = f"part-{part_id:05d}.parquet"
            fpath = os.path.join(out_dir, fname)
            pq.write_table(out, fpath + ".tmp")
            os.replace(fpath + ".tmp", fpath)
            feature_hash = _feature_hash(out)
            manifest = {
                "partition": part_id,
                "rows": out.num_rows,
                "file": fname,
                "feature_hash": feature_hash,
                "hash": HASH_SCHEME,
                "input": input_desc,
                "columns": out.column_names,
                "rows_in": table.num_rows,
                "bytes": os.path.getsize(fpath),
                "wall_s": round(time.perf_counter() - t0, 6),
            }
        _write_json(os.path.join(mdir, f"part-{part_id:05d}.json"), manifest)

    if missing:
        ray.get(task_exchange(ds, write_partition, key=key,
                              sort_keys=sort_keys,
                              num_partitions=num_partitions,
                              partitions=missing))
    manifests = []
    for f in sorted(os.listdir(mdir)):
        if f.endswith(".json") and not f.startswith("_"):
            with open(os.path.join(mdir, f)) as fh:
                manifests.append(json.load(fh))
    return manifests
