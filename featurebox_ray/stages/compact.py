"""Small-file compaction — the table-maintenance pass every long-lived
parquet layout needs: thousands of tiny fragments (per-partition
checkpoint shards, incremental deltas, streaming sink output) merged
into target-sized files, planned from FOOTER METADATA ONLY (no data
read at plan time) and executed as one independent Ray task per output
file.

Plan: fragments in deterministic (sorted-name) order, NEXT-FIT bin
packing by on-disk bytes into ``target_bytes`` bins (only the current
open bin is considered — deliberately, so the original fragment order
is preserved and time-ordered sinks stay time-clustered; true
first-fit would interleave).  A fragment larger than the target gets
its own bin.  Execute: each task
reads only its own input group, concatenates, writes ONE output file.
Nothing is shuffled, nothing passes through the driver but the plan.

Content invariance is the contract: the compacted layout holds exactly
the same rows (verified in q284 by the order-invariant
``stages/profile.py:table_checksum`` against the source — the same
reconcile a production compactor would log in its manifest).

Reference analog: none (single-machine toolkit); sibling of
``stages/partition.py:suggest_num_partitions`` (the read-side
metadata-only planner — this is the write-side one).
"""

from __future__ import annotations

import os
from typing import List

import pyarrow as pa
import pyarrow.parquet as pq
import ray


def plan_compaction(path_in: str,
                    target_bytes: int = 128 * 1024 * 1024
                    ) -> List[List[str]]:
    """Next-fit groups of fragment paths (sorted-name order
    preserved; sizes from the filesystem — no footer or data
    reads)."""
    frags = sorted(
        f"{path_in}/{fn}" for fn in os.listdir(path_in)
        if fn.endswith(".parquet"))
    if not frags:
        raise ValueError(f"plan_compaction: no fragments in {path_in}")
    groups: List[List[str]] = []
    cur: List[str] = []
    cur_bytes = 0
    for f in frags:
        sz = os.path.getsize(f)
        if cur and cur_bytes + sz > target_bytes:
            groups.append(cur)
            cur, cur_bytes = [], 0
        cur.append(f)
        cur_bytes += sz
    if cur:
        groups.append(cur)
    return groups


def compact_fragments(path_in: str, path_out: str, *,
                      target_bytes: int = 128 * 1024 * 1024
                      ) -> pa.Table:
    """Execute the plan; returns the manifest ``(out_file:string,
    n_inputs:int64, rows:int64)``.  Refuses a non-empty output dir
    (the write_bucketed convention — a retried job must clean up)."""
    os.makedirs(path_out, exist_ok=True)
    if os.listdir(path_out):
        raise ValueError(f"compact_fragments: {path_out} is not "
                         "empty — refusing to mix layouts")
    groups = plan_compaction(path_in, target_bytes)

    @ray.remote
    def merge(i: int, files: List[str]) -> tuple:
        t = pa.concat_tables([pq.read_table(f) for f in files])
        out = f"{path_out}/part-{i:05d}.parquet"
        pq.write_table(t, out)
        return (out, len(files), t.num_rows)

    res = ray.get([merge.remote(i, g) for i, g in enumerate(groups)])
    return pa.table({
        "out_file": pa.array([r[0] for r in res], pa.string()),
        "n_inputs": pa.array([r[1] for r in res], pa.int64()),
        "rows": pa.array([r[2] for r in res], pa.int64())})
