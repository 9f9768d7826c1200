"""Per-layer measurements for the traced run.

Each layer runs on its own over the workload's input, materialized before
and after, inside a span of the measuring process; the callables the
benchmark passes in are wrapped so their busy time comes from worker
spans.  Every layer is measured on every workload, so each figure reads
what that layer costs on that input.  Serial probes time single kernels
in the measuring process on fixed data.
"""

from __future__ import annotations

import glob
import os
import statistics
import time
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from featurebox_ray.pipelines.transcript import fused_features_backfill
from featurebox_ray.stages.partition import (
    materialized_block_refs, partitioned_map, sort_table)
from featurebox_ray.stages.window import window_kernel
from featurebox_ray.state.checkpoint import (
    finished_partitions, run_partitioned_checkpointed)

from .inputs import RIGHT_COLS, SORT_KEYS, Inputs
from .jobs import (
    STAGE_FNS, changed_manifests, lose_manifests, lost_partitions,
    manifest_mtimes, map_stages, part_files, read)
from .spans import Tracer, wrap

PROBE_ROWS = 4096
PROBE_REPEATS = 3


def _identity(table: pa.Table) -> pa.Table:
    return table


def _rows_per_s(fn, table: pa.Table) -> float:
    """Serial throughput of ``fn`` on ``table``: median of a few timed
    calls after one untimed call that fills per-process caches."""
    fn(table)
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.monotonic()
        fn(table)
        times.append(time.monotonic() - t0)
    return table.num_rows / statistics.median(times)


def _dir_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def layer_metrics(inp: Inputs, tracer: Tracer, work_dir: str,
                  num_partitions: int, read_blocks: int) -> dict:
    wl, sink, P = inp.workload, tracer.sink, num_partitions
    m = {}

    with tracer.span("read") as s:
        cur = read(inp, read_blocks).materialize()
        s.rows, s.bytes = cur.count(), cur.size_bytes()
    m["read.wall_s"], m["read.bytes"] = s.dur, s.bytes

    chain_s, left = 0.0, None
    for name in ("scalar", "text", "dedup"):
        with tracer.span(f"stages.{name}.wall") as s:
            cur = map_stages(cur, [wrap(f"stages.{name}", STAGE_FNS[name],
                                        sink)]).materialize()
        calls = tracer.drain()
        m[f"stages.{name}.busy_s"] = sum(c.dur for c in calls)
        if name == "scalar":
            m["stages.scalar.rows"] = sum(c.rows for c in calls)
            m["stages.scalar.calls"] = len(calls)
        if name in wl.stages:
            chain_s += s.dur
            left = cur
    m["stages.map.wall_s"] = chain_s

    first = sorted(glob.glob(os.path.join(inp.transcripts, "*.parquet")))[0]
    block = pq.read_table(first).slice(0, PROBE_ROWS)
    m["stages.text.rows_per_s"] = _rows_per_s(STAGE_FNS["text"], block)
    m["stages.dedup.rows_per_s"] = _rows_per_s(STAGE_FNS["dedup"], block)

    right = ray.data.read_parquet(inp.feature_table).materialize()
    exchange_in = left.union(right) if wl.asof else left
    # kernel time is the difference of two sub-second walls, so both are
    # medians of alternating repeats
    exchange_s, fused_s = [], []
    for _ in range(PROBE_REPEATS):
        with tracer.span("stages.partition.exchange") as s:
            ex = partitioned_map(
                exchange_in, wrap("stages.partition.gather", _identity, sink),
                key="conv_id", sort_keys=list(SORT_KEYS), num_partitions=P,
                strategy="tasks").materialize()
        exchange_s.append(s.dur)
        part_rows = [c.rows for c in tracer.drain()]
        with tracer.span("pipelines.transcript.fused") as s:
            fused = fused_features_backfill(
                left, right, wl.spec, right_cols=RIGHT_COLS,
                num_partitions=P, strategy="tasks").materialize()
        fused_s.append(s.dur)
    m["stages.partition.exchange_s"] = statistics.median(exchange_s)
    m["pipelines.transcript.fused_s"] = statistics.median(fused_s)
    m["pipelines.transcript.kernel_s"] = (m["pipelines.transcript.fused_s"]
                                          - m["stages.partition.exchange_s"])
    m["stages.partition.bytes_moved"] = left.size_bytes() + (
        right.size_bytes() if wl.asof else 0)
    m["stages.partition.max_part_rows"] = max(part_rows)
    m["stages.partition.skew"] = max(part_rows) / statistics.median(part_rows)

    # the largest partition, in a seeded arrival order, for the serial sort
    # and window probes (left rows only: the window kernel runs on those)
    part = max(ray.get(materialized_block_refs(ex)), key=lambda t: t.num_rows)
    part = part.filter(pc.is_valid(part["turn_idx"]))
    rng = np.random.default_rng(inp.seed)
    shuffled = part.take(pa.array(rng.permutation(part.num_rows)))
    sort = partial(sort_table, sort_keys=list(SORT_KEYS))
    m["stages.partition.sort_rows_per_s"] = _rows_per_s(sort, shuffled)
    m["stages.window.rows_per_s"] = _rows_per_s(
        partial(window_kernel, spec=wl.spec), part)

    out_dir = os.path.join(work_dir, "probe-write")
    with tracer.span("write") as s:
        fused.write_parquet(out_dir)
    m["write.wall_s"] = s.dur
    m["write.bytes"] = _dir_bytes(glob.glob(os.path.join(out_dir, "*")))

    m.update(_checkpoint_metrics(inp, tracer, left, work_dir, P))
    return m


def _checkpoint_metrics(inp: Inputs, tracer: Tracer, left, work_dir: str,
                        P: int) -> dict:
    """Full checkpointed run of the window kernel, loss of a seeded share
    of the manifests, manifest scan, resume."""
    out_dir = os.path.join(work_dir, "probe-checkpoint")
    kernel = wrap("state.checkpoint.kernel",
                  partial(window_kernel, spec=inp.workload.spec), tracer.sink)

    def run():
        return run_partitioned_checkpointed(
            left, kernel, out_dir, key="conv_id", sort_keys=list(SORT_KEYS),
            num_partitions=P, input_desc="probe")

    m = {}
    with tracer.span("state.checkpoint.run") as s:
        run()
    m["state.checkpoint.run_s"] = s.dur
    m["state.checkpoint.kernel_busy_s"] = sum(c.dur for c in tracer.drain())
    m["state.checkpoint.bytes_written"] = _dir_bytes(part_files(out_dir))
    lost = lost_partitions(inp, P)
    lose_manifests(out_dir, lost)
    with tracer.span("state.checkpoint.scan") as s:
        finished_partitions(out_dir)
    m["state.checkpoint.scan_s"] = s.dur
    before = manifest_mtimes(out_dir)
    with tracer.span("state.checkpoint.resume") as s:
        run()
    tracer.drain()
    m["state.checkpoint.resume_s"] = s.dur
    m["state.checkpoint.recompute_ratio"] = changed_manifests(
        before, manifest_mtimes(out_dir)) / len(lost)
    return m

