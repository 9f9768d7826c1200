"""Per-partition checkpointed output with lineage manifests + resume
(SURVEY.md §7.3 step 6; north_rule resumability requirement).

Layout under ``out_dir``::

    part-00017.parquet          one file per hash partition
    _manifest/part-00017.json   {partition, rows, feature_hash, input, schema}

A run writes each partition's parquet + manifest atomically-enough (parquet
first, manifest last — a partition without a manifest is re-run).  Resume
lists valid manifests and gathers only the missing partitions on the task
exchange (``stages/partition.py:task_exchange``), so a restart only pays
for the missing partitions' gathers (the upstream is still read and split
once).  Outputs are byte-stable given (input, partition id) because
every kernel is deterministic and partition contents don't depend on
scheduling (hash bucketing + full sort).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, List, Optional, Sequence

import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.partition import task_exchange


def _feature_hash(table: pa.Table) -> str:
    """Order-insensitive content hash of a partition's output."""
    import pandas as pd

    df = table.to_pandas()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    h = pd.util.hash_pandas_object(df, index=False).values
    return hashlib.sha1(h.tobytes()).hexdigest()


def _write_json(path: str, obj) -> None:
    """Write ``obj`` as JSON atomically (``.tmp`` + ``os.replace``)."""
    with open(path + ".tmp", "w") as fh:
        json.dump(obj, fh)
    os.replace(path + ".tmp", path)


def _empty_manifest(part_id: int, input_desc: str) -> dict:
    return {"partition": part_id, "rows": 0, "file": None,
            "feature_hash": None, "input": input_desc, "columns": []}


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
    manifests (existing + new).  ``ds`` is one Dataset or a sequence of
    Datasets exchanged together (``stages/partition.py:task_exchange``).

    A run-level manifest (``_manifest/_run.json``) records
    (key, sort_keys, num_partitions, input_desc); a resume whose parameters
    differ invalidates every finished partition instead of silently mixing
    two bucketing layouts.

    ``input_partitioned_dir``: when the input is the part-file output of an
    upstream run under the same layout, pass its directory — the resume
    then reads ONLY the files of missing partitions (fragment-level prune)
    instead of re-reading and re-hashing the full input."""
    import ray

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
            out = kernel(table)
            fname = f"part-{part_id:05d}.parquet"
            fpath = os.path.join(out_dir, fname)
            pq.write_table(out, fpath + ".tmp")
            os.replace(fpath + ".tmp", fpath)
            manifest = {
                "partition": part_id,
                "rows": out.num_rows,
                "file": fname,
                "feature_hash": _feature_hash(out),
                "input": input_desc,
                "columns": out.column_names,
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
