"""Keyed partitioning + within-partition sort — the engine's one load-bearing
physical operator (SURVEY.md §7.3 step 3).

Everything sequential (sessionize, lag/lead, rolling windows, as-of merge)
runs *inside* a partition produced here: all rows of one key (conv_id) land in
exactly one partition, and the kernel sees the whole partition sorted by
``sort_keys`` so per-key runs are contiguous.

Two physical strategies:

* ``"groupby"`` (default, correctness-safe): add a deterministic bucket
  column ``__part = crc32(key) % P`` with a vectorized unique-value hash,
  then ``ds.groupby("__part").map_groups(kernel)``.  Ray Data guarantees a
  whole group per kernel call; P buckets keep groups partition-sized (a few
  hundred MB at scale) rather than per-conversation-sized, so the kernel
  amortizes across thousands of conversations per call.
* ``"hash"``: ``ds.repartition(num_blocks=P, keys=[key])`` under the
  HASH_SHUFFLE strategy + ``map_batches(batch_size=None)``.  Avoids the sort
  in groupby but requires whole-block batches.

Scale notes (100 TB): P should be ~ total_bytes / 512 MB so each kernel call
fits worker heap; mega-conversations (single key > partition cap) are
detected by :func:`key_histogram` and can be salted — see
``stages/window.py`` docstring for the state-carry contract.

Reference analog: the reference is single-machine and has no shuffle; this
replaces its implicit "whole DataFrame in memory" assumption
(featurebox/featurizers/base.py:165-226).
"""

from __future__ import annotations

import zlib
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PART_COL = "__part"


_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_POLY_A = np.uint64(0x100000001B3)  # FNV prime, odd -> bijective mod 2^64


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: spreads the polynomial sum's structured low
    bits so ``% P`` (P often a power of two) sees all byte positions."""
    h = (h ^ (h >> np.uint64(30))) * _MIX_A
    h = (h ^ (h >> np.uint64(27))) * _MIX_B
    return h ^ (h >> np.uint64(31))


def _is_bytes_type(t: pa.DataType) -> bool:
    return (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t))


def string_buffers(arr: pa.Array) -> Tuple[np.ndarray, np.ndarray]:
    """``(offsets, values)`` of a string/binary Array read straight from
    its Arrow buffers, zero-copy: element i's bytes are
    ``values[offsets[i]:offsets[i + 1]]`` (int64 offsets, absolute into
    ``values`` — a sliced array need not start at 0; large types carry
    int64 offsets, the others int32)."""
    wide = (pa.types.is_large_string(arr.type)
            or pa.types.is_large_binary(arr.type))
    raw_off = np.frombuffer(arr.buffers()[1],
                            dtype=np.int64 if wide else np.int32)
    off = raw_off[arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2] or b"", dtype=np.uint8)
    return off, data


def _hash_string_values(arr: pa.Array) -> np.ndarray:
    """uint64 hash per element of a string/binary Array — fully
    vectorized over the Arrow offsets/values buffers (no per-value
    Python, so partitioning on a mostly-unique key like raw document
    text costs O(bytes) numpy, not one Python hash per row)."""
    n = len(arr)
    off, data = string_buffers(arr)
    start = off[0]
    lens = np.diff(off)
    total = int(off[-1] - start)
    if total == 0:
        return np.zeros(n, np.uint64)
    b = data[start:off[-1]].astype(np.uint64)
    # h_i = sum_p byte[p] * A^(end_i-1-p)  mod 2^64  (positional
    # polynomial; exponent table bounded by the longest value)
    max_len = int(lens.max())
    powers = np.empty(max_len, np.uint64)
    powers[0] = 1
    with np.errstate(over="ignore"):
        for i in range(1, max_len):
            powers[i] = powers[i - 1] * _POLY_A
        row_ids = np.repeat(np.arange(n), lens)
        exp = (off[row_ids + 1] - 1 - (np.arange(total) + start))
        terms = b * powers[exp]
        # segment sums via wraparound cumsum (reduceat mishandles empty
        # segments: a zero-length row must hash from 0, not steal the
        # next row's first term)
        c = np.concatenate([np.zeros(1, np.uint64), np.cumsum(terms)])
        sums = c[off[1:] - start] - c[off[:-1] - start]
        # fold in the length so "a"+"" and ""+"a" style families differ
        h = _mix64(sums + _mix64(lens.astype(np.uint64)))
    if arr.null_count:
        h = np.where(np.asarray(pc.is_valid(arr)), h, np.uint64(0))
    return h


def _hash_chunk(arr: pa.Array, num_partitions: int) -> np.ndarray:
    """Deterministic (process-independent) bucket for each element of a
    string/int array — vectorized numpy over the Arrow buffers for
    string/binary/integer types (no per-distinct-value Python), with a
    crc32-per-unique fallback for anything else."""
    if pa.types.is_dictionary(arr.type):
        # hash the (small) dictionary, gather through the indices
        d = arr.dictionary
        if _is_bytes_type(d.type):
            h = _hash_string_values(d)
            bucket = (h % np.uint64(num_partitions)).astype(np.int32)
            if arr.null_count:
                # null indices surface as NaN through to_numpy; route
                # nulls to bucket 0 like the plain-string path (h = 0)
                valid = np.asarray(pc.is_valid(arr))
                idx = np.asarray(pc.fill_null(arr.indices, 0))
                out = bucket[idx]
                out[~valid] = 0
                return out
            idx = arr.indices.to_numpy(zero_copy_only=False)
            return bucket[idx]
        arr = arr.cast(arr.type.value_type)
    t = arr.type
    if _is_bytes_type(t):
        h = _hash_string_values(arr)
        return (h % np.uint64(num_partitions)).astype(np.int32)
    if pa.types.is_integer(t):
        # exact int64 extraction: a batch WITH nulls must hash ids the
        # same as a batch without (to_numpy on a null-bearing int column
        # yields float64, which rounds ids > 2^53 and would split a key
        # across partitions); nulls hash to 0 on both paths
        if arr.null_count:
            v = pc.fill_null(arr, 0).to_numpy(zero_copy_only=False)
        else:
            v = arr.to_numpy(zero_copy_only=False)
        v = v.astype(np.int64).view(np.uint64)
        with np.errstate(over="ignore"):
            h = _mix64(v)
        return (h % np.uint64(num_partitions)).astype(np.int32)
    # fallback (float/struct/...): per-unique crc32 of the repr
    dict_arr = pc.dictionary_encode(arr)
    uniques = dict_arr.dictionary.to_pylist()
    lut = np.fromiter(
        (zlib.crc32(str(u).encode()) % num_partitions for u in uniques),
        dtype=np.int32,
        count=len(uniques),
    )
    indices = dict_arr.indices.to_numpy(zero_copy_only=False)
    return lut[indices]


def with_partition_col(
    ds,
    key: str,
    num_partitions: int,
):
    """Append ``__part = crc32(key) % P`` (vectorized, deterministic)."""

    def add_part(batch: pa.Table) -> pa.Table:
        if key not in batch.column_names:
            if batch.num_rows == 0:
                # Ray shuffle ops emit benign zero-column empty bundles
                # (same guard as the tasks-strategy split kernel)
                return batch.append_column(
                    PART_COL, pa.array([], type=pa.int32()))
            raise KeyError(
                f"partition key {key!r} missing from batch columns "
                f"{batch.column_names}")
        combined = batch[key].combine_chunks() if batch[key].num_chunks > 1 else batch[key]
        chunks = combined.chunks if isinstance(combined, pa.ChunkedArray) else [combined]
        out = np.concatenate([_hash_chunk(c, num_partitions) for c in chunks]) if chunks else np.empty(0, np.int32)
        return batch.append_column(PART_COL, pa.array(out, type=pa.int32()))

    return ds.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)


def sort_table(table: pa.Table, sort_keys: Sequence[str]) -> pa.Table:
    """Stable sort of an Arrow table by the given columns (ascending)."""
    if not sort_keys:
        # zero-column empty bundles filter every key out; nothing to sort
        return table
    idx = pc.sort_indices(
        table, sort_keys=[(k, "ascending") for k in sort_keys]
    )
    return table.take(idx)


def partitioned_map(
    ds,
    kernel: Union[Callable[[pa.Table], pa.Table], type],
    *,
    key: str,
    sort_keys: Sequence[str],
    num_partitions: int = 32,
    strategy: str = "groupby",
    drop_part_col: bool = True,
    concurrency=None,
    num_cpus: Optional[float] = None,
    fn_constructor_args: Optional[tuple] = None,
):
    """Run ``kernel`` once per hash partition of ``key``, with the partition
    sorted by ``sort_keys``.  ``kernel`` is a function ``pa.Table -> pa.Table``
    or a callable class (actor pool; constructed once per actor with
    ``fn_constructor_args``) whose ``__call__`` has the same signature.

    Contract given to the kernel:
      * all rows sharing a ``key`` value are present (never split);
      * rows are sorted by ``sort_keys`` (stable), so per-key runs are
        contiguous and internally ordered.
    """
    is_class = isinstance(kernel, type)

    def make_wrapped(inner):
        def wrapped(table: pa.Table) -> pa.Table:
            if PART_COL in table.column_names and table.num_rows:
                # whole-partition contract: a kernel batch must hold ONE
                # hash partition.  This catches mixed-partition blocks
                # (a mis-keyed repartition); it cannot catch a single
                # oversized partition that Ray split into two
                # single-valued blocks — that hazard is why the hash
                # strategy's docstring bounds partition bytes by
                # target_max_block_size (strategy="tasks" is immune:
                # each gather task receives its whole partition).
                mm = pc.min_max(table[PART_COL])
                if mm["min"].as_py() != mm["max"].as_py():
                    raise ValueError(
                        "partitioned_map kernel received rows from "
                        f"partitions {mm['min']}..{mm['max']} in one "
                        "batch; the repartition did not isolate "
                        "partitions — use strategy='tasks'")
            t = sort_table(table, sort_keys)
            out = inner(t)
            if drop_part_col and PART_COL in out.column_names:
                out = out.drop_columns([PART_COL])
            return out

        return wrapped

    parted = with_partition_col(ds, key, num_partitions)

    if strategy == "hash":
        from ..context import enable_hash_shuffle

        enable_hash_shuffle()
        rep = parted.repartition(num_blocks=num_partitions, keys=[PART_COL])
        if is_class:
            class ActorKernel:
                def __init__(self):
                    args = fn_constructor_args or ()
                    self._inner = make_wrapped(kernel(*args))

                def __call__(self, table: pa.Table) -> pa.Table:
                    return self._inner(table)

            return rep.map_batches(
                ActorKernel,
                batch_size=None,
                batch_format="pyarrow",
                zero_copy_batch=True,
                concurrency=concurrency or 4,
                num_cpus=num_cpus,
            )
        return rep.map_batches(
            make_wrapped(kernel),
            batch_size=None,
            batch_format="pyarrow",
            zero_copy_batch=True,
            num_cpus=num_cpus,
        )

    if strategy == "tasks":
        return _task_exchange_map(
            ds, kernel if not is_class else None,
            key=key, sort_keys=sort_keys, num_partitions=num_partitions,
            kernel_cls=kernel if is_class else None,
            fn_constructor_args=fn_constructor_args,
            drop_part_col=drop_part_col,
        )

    grouped = parted.groupby(PART_COL)
    if is_class:
        class ActorGroupKernel:
            def __init__(self):
                args = fn_constructor_args or ()
                self._inner = make_wrapped(kernel(*args))

            def __call__(self, table: pa.Table) -> pa.Table:
                return self._inner(table)

        return grouped.map_groups(
            ActorGroupKernel,
            batch_format="pyarrow",
            concurrency=concurrency or 4,
            num_cpus=num_cpus,
        )
    return grouped.map_groups(
        make_wrapped(kernel),
        batch_format="pyarrow",
        num_cpus=num_cpus,
    )


def materialized_block_refs(ds):
    """Execute a Dataset and return its Arrow block refs.

    NOT ``to_arrow_refs()``: that calls ``schema(fetch_if_missing=True)``
    after execution, and when block schemas fail to unify (Ray's empty
    zero-column bundles from shuffle ops) the schema fetch RE-EXECUTES the
    whole upstream plan with limit(1) — doubling the pipeline cost.  The
    ref bundles give the already-materialized block refs directly; fall
    back to ``to_arrow_refs`` on Ray versions without the bundle API."""
    try:
        return [r for b in ds.iter_internal_ref_bundles()
                for r in b.block_refs]
    except AttributeError:  # older/newer Ray: fall back
        return ds.to_arrow_refs()


def _task_exchange_map(
    ds,
    kernel,
    *,
    key: str,
    sort_keys: Sequence[str],
    num_partitions: int,
    kernel_cls=None,
    fn_constructor_args=None,
    drop_part_col: bool = True,
):
    """Two-stage all-to-all exchange with plain Ray tasks — B split tasks →
    P gather+sort+kernel tasks — bypassing Ray Data's sort-based shuffle,
    whose barrier costs tens of seconds of wall for sub-second task work at
    mid scale (measured: Sort 'executed in 65s' with 0.4s remote time).

    The upstream dataset is materialized to Arrow refs (object store holds
    / spills the blocks); every split emits ``P`` sub-tables
    (``num_returns=P`` — only refs travel to the driver), every gather
    concats its column, sorts once, runs the kernel.  Output is a new
    Dataset built from the gather refs, so downstream stages stream again.

    This is exactly the exchange a fixed-size cluster runs for a keyed
    shuffle: B×P objects, each fetched once, no central barrier beyond the
    inherent all-to-all dependency.
    """
    import ray

    refs = materialized_block_refs(ds)
    P = num_partitions

    if not refs:
        # empty upstream: run the kernel once on an empty table so the
        # output dataset still carries the kernel's schema
        arrow_schema = ds.schema().base_schema if ds.schema() else pa.schema([])
        empty = arrow_schema.empty_table()
        inner = kernel_cls(*(fn_constructor_args or ())) if kernel_cls else kernel
        out = inner(sort_table(empty, [k for k in sort_keys
                                       if k in empty.column_names]))
        if drop_part_col and PART_COL in out.column_names:
            out = out.drop_columns([PART_COL])
        return ray.data.from_arrow(out)

    @ray.remote(num_returns=P)
    def split(table):
        if not isinstance(table, pa.Table):  # rare non-arrow block
            import pandas as pd

            table = pa.Table.from_pandas(table, preserve_index=False)
        if table.num_rows == 0 or key not in table.column_names:
            # Ray's shuffle ops emit benign zero-column empty bundles;
            # forward an empty slice to every gather
            outs = [table.slice(0, 0)] * P
            return tuple(outs) if P > 1 else outs[0]
        combined = table[key].combine_chunks() if table[key].num_chunks > 1 else table[key]
        chunks = combined.chunks if isinstance(combined, pa.ChunkedArray) else [combined]
        if chunks:
            bucket = np.concatenate([_hash_chunk(c, P) for c in chunks])
        else:
            bucket = np.empty(0, np.int32)
        order = np.argsort(bucket, kind="stable")
        sorted_tbl = table.take(pa.array(order))
        counts = np.bincount(bucket, minlength=P)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        outs = [sorted_tbl.slice(offsets[p], counts[p]) for p in range(P)]
        return tuple(outs) if P > 1 else outs[0]

    @ray.remote
    def gather(*parts):
        tables = [t for t in parts if t.num_rows > 0]
        if not tables:
            # all-empty partition: keep the widest schema available
            t = max(parts, key=lambda p: p.num_columns)
        else:
            t = pa.concat_tables(tables, promote_options="default")
        t = sort_table(t, [k for k in sort_keys if k in t.column_names])
        if kernel_cls is not None:
            inner = kernel_cls(*(fn_constructor_args or ()))
        else:
            inner = kernel
        out = inner(t)
        if drop_part_col and PART_COL in out.column_names:
            out = out.drop_columns([PART_COL])
        return out

    split_refs = [split.remote(r) for r in refs]
    # split_refs[b] is a list of P refs (or a single ref when P == 1)
    if P == 1:
        gathers = [gather.remote(*split_refs)]
    else:
        gathers = [
            gather.remote(*[split_refs[b][p] for b in range(len(split_refs))])
            for p in range(P)
        ]
    return ray.data.from_arrow_refs(gathers)


def sum_partials(blocks, *, keys: Sequence[str],
                 vals: Sequence[str]):
    """Combine per-block integer partial tables with ONE Arrow
    ``group_by(...).aggregate(sum)`` — the canonical driver combine
    (no per-row Python): concat the non-empty blocks, sum ``vals``
    per ``keys`` tuple, return a table with the ORIGINAL column
    names sorted ascending by ``keys``.  Returns ``None`` when no
    block carries the partial columns (all-empty upstream).  Arrow
    int64 sums are exact; callers needing >2^63 accumulation must
    keep their own split-word path."""
    need = [*keys, *vals]
    tbls = [b.select(need) for b in blocks
            if b.num_rows and set(need) <= set(b.column_names)]
    if not tbls:
        return None
    t = pa.concat_tables(tbls, promote_options="default")
    agg = t.group_by(list(keys)).aggregate(
        [(v, "sum") for v in vals])
    out = pa.table({**{k: agg[k] for k in keys},
                    **{v: agg[f"{v}_sum"] for v in vals}})
    return out.sort_by([(k, "ascending") for k in keys])


def key_histogram(ds, key: str, top: int = 20):
    """Small driver-side skew probe: rows per key, descending (for salting
    decisions).  Uses a distributed count aggregate, only ``top`` rows come
    back to the driver."""
    from ray.data.aggregate import Count

    agg = ds.groupby(key).aggregate(Count())
    return (agg.sort(["count()", key], descending=[True, False])
            .limit(top).to_pandas())


def global_span_cut(refs, *, col: str, num: int, den: int):
    """Global (min, max, cut) of an int64 column over materialized
    block refs — ``cut = min + (max − min) · num // den`` (exact
    Python-int arithmetic; trunc == floor on the non-negative span).
    The q217/q222 temporal-split convention, shared so a
    timestamp-unit fix can never drift between operators.  Returns
    ``None`` when every block is empty."""
    import ray

    @ray.remote
    def span(blk):
        import pyarrow.compute as _pc

        if blk.num_rows == 0:
            return None
        mm = _pc.min_max(blk[col])
        return (mm["min"].as_py(), mm["max"].as_py())

    spans = [s for s in ray.get([span.remote(r) for r in refs])
             if s is not None]
    if not spans:
        return None
    mn = min(s[0] for s in spans)
    mx = max(s[1] for s in spans)
    return mn, mx, mn + (mx - mn) * num // den


def suggest_num_partitions(parquet_path, *,
                           target_bytes: int = 256 * 2**20,
                           min_partitions: int = 8,
                           max_partitions: int = 65536) -> int:
    """Metadata-only partition-count planner — pick the task-exchange
    ``num_partitions`` from the input's UNCOMPRESSED byte size so
    each gather task lands near ``target_bytes`` (default 256 MiB, a
    comfortable worker-heap batch): the knob every partitioned_map
    caller otherwise guesses.  Reads ONLY parquet footers (row-group
    ``total_byte_size`` — no data I/O), so it is safe to call on a
    100-TB directory from the driver.

    Clamped to [min_partitions, max_partitions] and rounded UP so a
    partition never exceeds the target on average.  Skew still needs
    the salting/cap machinery — this sizes the AVERAGE only.
    """
    import glob as _glob
    import os

    import pyarrow.parquet as _pq

    if os.path.isdir(parquet_path):
        files = sorted(_glob.glob(
            os.path.join(parquet_path, "**", "*.parquet"),
            recursive=True))
    else:
        files = [parquet_path]
    if not files:
        raise ValueError(
            f"suggest_num_partitions: no parquet under "
            f"{parquet_path!r}")
    total = 0
    for f in files:
        md = _pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            total += md.row_group(rg).total_byte_size
    n = -(-total // int(target_bytes))          # ceil
    return int(min(max(n, min_partitions), max_partitions))
