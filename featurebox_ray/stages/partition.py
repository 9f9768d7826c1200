"""Keyed partitioning + within-partition sort — the engine's one load-bearing
physical operator (SURVEY.md §7.3 step 3).

Everything sequential (sessionize, lag/lead, rolling windows, as-of merge)
runs *inside* a partition produced here: all rows of one key (conv_id) land in
exactly one partition, and the kernel sees the whole partition sorted by
``sort_keys`` so per-key runs are contiguous.

One exchange, built from plain Ray tasks (:func:`task_exchange`).  It takes
one Dataset or several (the two sides of a join, say) and streams
them: a split task is submitted for each upstream block as the block lands,
buckets it by a deterministic vectorized hash of the key
(``_hash_chunk(key) % P``) and emits one slice per partition, each as
one Arrow IPC stream buffer (:func:`_to_ipc`), which Ray stores as one
out-of-band buffer instead of walking the table's columns in Python.  One
gather task per partition opens its buffers zero-copy and hands the
per-partition function one sorted table per input.  ``sort_keys`` is one
flat list of names for exactly one input, and one list per input
otherwise: a several-input operator reads each input as its own table,
with no side column, no padding with the other inputs' columns and no
filtering apart.

An input whose plan is a ``Read`` followed only by task-pool
``map_batches`` stages that take whole pyarrow blocks (``batch_format=
"pyarrow"``, ``batch_size=None``, a plain function, no constructor args,
no ``ray_remote_args``) and whose read has at least as many read tasks
(files, for parquet) as blocks requested is *lowered* into its split
tasks: one plain task per read task calls the read task, runs the map
functions in plan order once per table the read task yields,
concatenates the results and splits them, so no Ray Data execution runs
in front of the exchange (:func:`_read_and_maps`).  Every other input
-- actor pools, filters, limits, unions, a ``batch_size``, other formats
or sources, a Dataset that holds computed output, and a read with fewer
read tasks than requested blocks (say one file read with
``override_num_blocks=8``), whose output Ray Data splits into more
blocks than read tasks so that the maps run in parallel -- is drained
through Ray Data as before.

Several inputs are joined by the split itself, so no Ray Data ``union``
runs in front of the exchange.  Three keyed consumers sit on it:

* :func:`partitioned_refs` runs a table kernel in every gather and
  returns the gather refs, for a consumer inside the engine: a driver
  ``ray.get`` or combine, or a further exchange, which splits the refs
  as one input (``[refs]``) with no Ray Data execution;
* :func:`partitioned_map` wraps those refs as the Dataset a public
  operator returns;
* ``state/checkpoint.py:run_partitioned_checkpointed`` gathers only the
  partitions a resume is missing and writes each one's part file and
  manifest inside its gather.

The task exchange is the engine's one keyed shuffle: no Ray Data
``groupby`` (a keyed count is an Arrow ``group_by`` in a gather) or
hash-shuffle ``repartition`` runs, so no kernel sees a mixed- or
split-partition batch, and there is no shuffle barrier (see
:func:`task_exchange`).  The one Ray Data sort is ``rank._range_sort``,
the range all-to-all a global order needs, read in range order; a
top-k is no sort (``rank.top_k``).

Scale notes (100 TB): P should be ~ total_bytes / 512 MB so each kernel call
fits worker heap; mega-conversations (single key > partition cap) are
detected by :func:`key_histogram` and can be salted — see
``stages/window.py`` docstring for the state-carry contract.

Every Ray Data execution the engine drains itself — each input drain of
:func:`task_exchange` that is not lowered,
:func:`materialized_block_refs`, and the Dataset :func:`partitioned_map`
returns (so a caller's ``write_parquet`` on it) — runs on a private
copy of the Dataset whose ``DataContext`` has
``op_resource_reservation_enabled = False`` (:func:`_unreserved`).
Reservation splits one execution's budget between its operators so a
downstream operator is never starved; until the first task reports its
output size it budgets that task at the operator's whole object-store
share, so each execution runs one task alone before it widens.  Here
nothing downstream can starve: a drain ends in a driver thread that
takes each bundle as it lands, and the returned Dataset starts from P
blocks already materialized.  Chains built on the returned Dataset
inherit its context, and so run without reservation too; the caller's
Dataset and ``DataContext.get_current()`` are never changed.

A map stage's exception keeps its type on both paths: a lowered input
runs the stage in its split task, and a drain's private context sets
``raise_original_map_exception``, so Ray Data raises, say,
``RayTaskError(ValueError)``, a ``ValueError``, not a
``UserCodeException``.

Reference analog: the reference is single-machine and has no shuffle; this
replaces its implicit "whole DataFrame in memory" assumption
(featurebox/featurizers/base.py:165-226).
"""

from __future__ import annotations

import glob
import inspect
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from types import GeneratorType
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

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
    if _is_bytes_type(arr.type):
        # hash each distinct value once: keys repeat (many turns per
        # conversation), and the buckets are those of hashing every row
        arr = pc.dictionary_encode(arr)
    if pa.types.is_dictionary(arr.type):
        # hash the (small) dictionary, gather through the indices
        d = arr.dictionary
        if _is_bytes_type(d.type):
            h = _hash_string_values(d)
            # one more slot for NULL, bucket 0, as _hash_string_values
            # hashes NULL to 0 (the dictionary may be empty: all NULL)
            bucket = np.append(h % np.uint64(num_partitions), 0)
            idx = pc.fill_null(arr.indices, len(d))
            return bucket[idx.to_numpy(zero_copy_only=False)].astype(np.int32)
        arr = arr.cast(arr.type.value_type)
    t = arr.type
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


def sort_table(table: pa.Table, sort_keys: Sequence[str]) -> pa.Table:
    """Stable sort of an Arrow table by the given columns (ascending)."""
    if not sort_keys:
        # zero-column empty bundles filter every key out; nothing to sort
        return table
    idx = pc.sort_indices(
        table, sort_keys=[(k, "ascending") for k in sort_keys]
    )
    return table.take(idx)


def _to_ipc(table: pa.Table) -> pa.Buffer:
    """``table`` as one Arrow IPC stream buffer.  Ray stores a Buffer as
    one out-of-band buffer, where a Table goes through Ray's reducer,
    which walks every column of every slice in Python."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue()


def _from_ipc(buf: pa.Buffer) -> pa.Table:
    """Open a :func:`_to_ipc` buffer zero-copy."""
    table = pa.ipc.open_stream(buf).read_all()
    if any(f.metadata and b"ARROW:extension:name" in f.metadata
           for f in table.schema):
        # IPC names extension types, and the reader only rebuilds those
        # registered in this process; a worker that has not imported
        # Ray's tensor and object types reads their storage instead
        import ray.air.util.object_extensions.arrow  # noqa: F401
        import ray.air.util.tensor_extensions.arrow  # noqa: F401

        table = pa.ipc.open_stream(buf).read_all()
    return table


def _unreserved(ds, ordered: bool = False):
    """A copy of ``ds`` that executes without Ray Data's op resource
    reservation and raises a map stage's exception with its own type
    (see the module docstring) and, when ``ordered``, hands out its
    blocks in the Dataset's block order rather than as they finish.
    The plan is deep-copied, so a materialized Dataset keeps its
    snapshot and does not re-execute, and it gets its own
    logical-plan handle, because linking a plan to a Dataset points the
    shared logical plan at that plan's context."""
    from ray.data._internal.logical.interfaces import LogicalPlan

    plan = ds._plan.deep_copy()
    plan._context.op_resource_reservation_enabled = False
    plan._context.raise_original_map_exception = True
    if ordered:
        plan._context.execution_options.preserve_order = True
    return type(ds)(plan, LogicalPlan(ds._logical_plan.dag, plan._context))


def _read_and_maps(ds):
    """``(read_tasks, maps)`` when ``ds`` can be lowered into the split
    tasks of :func:`task_exchange`: its plan is a ``Read`` followed only
    by task-pool ``map_batches`` stages that take whole pyarrow blocks
    (``batch_format="pyarrow"``, ``batch_size=None``, a plain function,
    no constructor args, no ``ray_remote_args``).  ``read_tasks`` are the
    Read op's, at its parallelism (Ray's autodetection when that is -1);
    ``maps`` holds each stage's ``(fn, args, kwargs)`` in plan order.
    ``None`` for every other plan, for a Dataset that already holds
    computed output, on a Ray whose plan internals differ
    (``tests/test_task_exchange.py`` pins them), and when the reader
    makes fewer read tasks than that parallelism: Ray Data then splits
    each read task's output into several blocks and maps them in
    parallel, where one lowered task would read, map and split a whole
    file on one core.  A read task whose files are larger than
    ``target_max_block_size`` is still lowered, as one task that holds
    its whole mapped output (Ray Data runs it as one fused task too, but
    hands its blocks on as they fill)."""
    try:
        from ray.data._internal.compute import TaskPoolStrategy
        from ray.data._internal.logical.operators.map_operator import (
            MapBatches)
        from ray.data._internal.logical.operators.read_operator import Read
        from ray.data._internal.util import _autodetect_parallelism

        if ds._plan.has_computed_output():
            return None
        op, maps = ds._logical_plan.dag, []
        while isinstance(op, MapBatches):
            fn = op._fn
            if (op._batch_format != "pyarrow" or op._batch_size is not None
                    or not isinstance(op._compute, TaskPoolStrategy)
                    or inspect.isclass(fn) or inspect.iscoroutinefunction(fn)
                    or inspect.isasyncgenfunction(fn)
                    or op._fn_constructor_args or op._fn_constructor_kwargs
                    or op._ray_remote_args or op._ray_remote_args_fn):
                return None
            maps.append((fn, op._fn_args or (), op._fn_kwargs or {}))
            op = op.input_dependencies[0]
        if not isinstance(op, Read):
            return None
        reader, n = op._datasource_or_legacy_reader, op._parallelism
        if n == -1:
            ctx = ds.context
            n = _autodetect_parallelism(-1, ctx.target_max_block_size, ctx,
                                        reader, op._mem_size)[0]
        read_tasks = reader.get_read_tasks(n)
    except (AttributeError, ImportError):
        return None
    if not read_tasks or len(read_tasks) < n:
        # Ray Data would split each read task's output into several
        # blocks (its SetReadParallelismRule) and run the maps on each
        return None
    return read_tasks, maps[::-1]


def _run_read_task(read_task, maps) -> pa.Table:
    """Call ``read_task`` and run ``maps`` (:func:`_read_and_maps`) over
    each table it yields, as Ray Data runs a ``map_batches`` stage: an
    empty table passes a stage unmapped, and a stage may return a
    generator or any batch type Ray accepts.  Returns the outputs
    concatenated; with no rows, one empty table (the read task's schema
    when it yields none)."""
    from ray.data.block import BlockAccessor

    def arrow(batch) -> pa.Table:
        return BlockAccessor.for_block(
            BlockAccessor.batch_to_block(batch)).to_arrow()

    def stage(t, fn, args, kwargs) -> list:
        if t.num_rows == 0:
            return [t]
        res = fn(t, *args, **kwargs)
        return [arrow(r) for r in
                (res if isinstance(res, GeneratorType) else [res])]

    tables = []
    for b in read_task():  # each read table runs the whole chain in turn
        out = [arrow(b)]
        for fn, args, kwargs in maps:
            out = [r for t in out for r in stage(t, fn, args, kwargs)]
        tables += out
    full = [t for t in tables if t.num_rows > 0]
    if not full:
        schema = read_task.schema
        full = tables[:1] or [(schema if isinstance(schema, pa.Schema)
                               else pa.schema([])).empty_table()]
    return pa.concat_tables(full, promote_options="default")


def partitioned_map(
    ds,
    kernel: Callable[..., pa.Table],
    *,
    key: str,
    sort_keys: Sequence,
    num_partitions: int = 32,
    strategy: str = "tasks",
):
    """Run ``kernel`` once per hash partition of ``key``, with the
    partition sorted by ``sort_keys``, over the task exchange
    (:func:`task_exchange`).  ``ds`` is one Dataset or a sequence of
    Datasets.  Returns a Dataset of the kernel outputs, one block per
    partition.  The exchange runs eagerly: the upstream executes and
    every kernel has run (or raised) when this returns.  The returned
    Dataset's context has op resource reservation off, as its P blocks
    are already materialized; chains built on it (a ``write_parquet``,
    say) inherit that, and the caller's Datasets and the global context
    are left as they were (module docstring).

    ``sort_keys`` is one flat list of names for one input, which calls
    ``kernel(table)``, and one list per input otherwise, which calls
    ``kernel(t_0, ..., t_k)``: each table sorted by its own keys, tied
    rows in block order, and an input with no rows there arrives empty
    in its own schema.  Several inputs with one flat list raise
    ``ValueError``.

    Contract given to the kernel:
      * all rows sharing a ``key`` value are present (never split);
      * rows are sorted by their sort keys, so per-key runs are
        contiguous and internally ordered;
      * it is called for every partition, empty ones included, so an
        empty partition still yields the kernel's schema.

    ``strategy``'s one legal value is ``"tasks"``; any other raises
    ``ValueError``.  Apart from ``fused_features_backfill``, which
    forwards its own, and a test of the refusal, only the benchmark
    passes it (``perfbench/jobs.py`` and ``perfbench/layers.py``); it
    goes once the next benchmark change stops passing it (ROADMAP
    item 1).
    """
    if strategy != "tasks":
        raise ValueError(
            f"partitioned_map: unknown strategy {strategy!r}; the task "
            "exchange is the only one ('tasks')")
    out = ray.data.from_arrow_refs(partitioned_refs(
        ds, kernel, key=key, sort_keys=sort_keys,
        num_partitions=num_partitions))  # its own context copy
    out.context.op_resource_reservation_enabled = False
    return out


def partitioned_refs(ds, kernel: Callable[..., pa.Table], *, key: str,
                     sort_keys: Sequence, num_partitions: int = 32) -> list:
    """:func:`partitioned_map`'s exchange without the Dataset: the
    kernel's output refs, one per partition in partition order, for a
    consumer inside the engine (``ray.get``, :func:`sum_partials`, or
    another exchange, which takes them as one input when wrapped as
    ``[refs]``).  Same kernel calls and contract as
    :func:`partitioned_map`; every kernel has run (or raised) when the
    refs are fetched."""
    fn = ((lambda _p, ts: kernel(*ts)) if _per_input(sort_keys)
          else (lambda _p, t: kernel(t)))
    return task_exchange(ds, fn, key=key, sort_keys=sort_keys,
                         num_partitions=num_partitions)


def each_group(fn: Callable[[pa.Table], pa.Table],
               group_cols: Sequence[str]) -> Callable[[pa.Table], pa.Table]:
    """Adapt a per-group function (called once per distinct
    ``group_cols`` tuple, NULL being a group of its own) to a
    :func:`partitioned_map` kernel: the partition, sorted with
    ``group_cols`` leading, is cut into runs of equal group values and
    ``fn``'s outputs are concatenated.  An empty partition yields a
    zero-column empty table, as Ray's shuffles do."""

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({})
        change = np.zeros(t.num_rows, bool)
        change[0] = True
        for c in group_cols:
            codes = pc.dictionary_encode(
                t[c].combine_chunks(), null_encoding="encode"
            ).indices.to_numpy(zero_copy_only=False)
            change[1:] |= codes[1:] != codes[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], t.num_rows)
        return pa.concat_tables(
            [fn(t.slice(s, e - s)) for s, e in zip(starts, ends)],
            promote_options="default")

    return kernel


def materialized_block_refs(ds):
    """Execute a Dataset and return its Arrow block refs.

    NOT ``to_arrow_refs()``: that calls ``schema(fetch_if_missing=True)``
    after execution, and when block schemas fail to unify (Ray's empty
    zero-column bundles from shuffle ops) the schema fetch RE-EXECUTES the
    whole upstream plan with limit(1) — doubling the pipeline cost.  The
    ref bundles give the already-materialized block refs directly.  The
    execution runs without op resource reservation, and a map stage's
    exception keeps its type (module docstring); ``ds`` itself is not
    changed."""
    return [r for b in _unreserved(ds).iter_internal_ref_bundles()
            for r in b.block_refs]


def _per_input(sort_keys) -> bool:
    """True when ``sort_keys`` holds one key list per input."""
    return bool(sort_keys) and not isinstance(sort_keys[0], str)


def exchange_inputs(inputs, sort_keys) -> list:
    """``inputs`` as a list, checked against ``sort_keys``: one flat
    list for exactly one input, else one list per input."""
    inputs = list(inputs) if isinstance(inputs, (list, tuple)) else [inputs]
    if not inputs:
        raise ValueError("task_exchange: no input Dataset")
    n = len(sort_keys) if _per_input(sort_keys) else 1
    if n != len(inputs):
        raise ValueError(f"task_exchange: {n} sort key lists for "
                         f"{len(inputs)} inputs (a flat list counts as one)")
    return inputs


def task_exchange(
    inputs,
    fn: Callable[[int, object], object],
    *,
    key: str,
    sort_keys: Sequence,
    num_partitions: int,
    partitions: Optional[Sequence[int]] = None,
) -> list:
    """The engine's keyed exchange: two stages of plain Ray tasks — B split
    tasks → one gather+sort task per partition — bypassing Ray Data's
    sort-based shuffle, whose barrier costs tens of seconds of wall for
    sub-second task work at mid scale (measured: Sort 'executed in 65s'
    with 0.4s remote time).

    ``inputs`` is one Dataset or a sequence of inputs, each a Dataset or
    a list of block refs.  A list of block refs is split as it stands,
    one split task per ref in list order, with no Ray Data execution:
    this is how an engine operator feeds one exchange's gather refs
    (:func:`partitioned_refs`) to the next, in partition order.  One
    ref list is one input only when wrapped as ``[refs]``; a bare list
    is a sequence of inputs.  A Dataset whose plan is a ``Read``
    followed only by whole-block pyarrow ``map_batches`` task stages,
    with at least as many read tasks as requested blocks
    (:func:`_read_and_maps`), is lowered: one split task per read task, submitted in read-task order, calls
    the read task, runs the map functions in plan order once per table
    the read task yields (an empty table passes a stage unmapped, as in
    Ray Data), concatenates the results and splits them; no Ray Data
    execution runs for it.  A read task that yields no rows sends every
    gather an empty table in its read schema.  Every other input drains as
    before: one driver thread per input drains its
    ``iter_internal_ref_bundles()`` and submits a split task for each
    block as its bundle lands, so splitting overlaps upstream compute
    and the inputs execute concurrently, with no ``union`` barrier in
    front.  Each drain runs on a private copy of its input with op
    resource reservation off (module docstring): the driver thread takes
    every bundle as it lands, so no operator of the drain can be
    starved, and reservation would only hold the first wave of tasks to
    one.  An exception raised while draining any input propagates; on
    either path a map stage's exception surfaces with its own type.
    Every split buckets its block by ``_hash_chunk(key) % num_partitions``
    and emits one sub-table per partition (``num_returns=P`` — only refs
    travel to the driver), each framed as one Arrow IPC stream buffer
    (:func:`_to_ipc`; the schema, extension types included, travels in
    the frame).  The gather of partition ``p`` opens its buffers
    zero-copy, concatenates each input's slices in block order and sorts
    them (stable) by that input's keys, so rows tied on every key keep
    block order within their input.  ``sort_keys`` is one flat list of
    names for exactly one input, which calls ``fn(p, table)`` and drains
    in whatever order the blocks finish; otherwise it is one list per
    input (``ValueError`` unless as many as inputs), which calls ``fn(p,
    [t_0, ..., t_k])`` and drains each input that is not lowered with
    Ray Data's ``preserve_order``.  An input with no rows in ``p``
    arrives as an empty table in its own schema; a drained one that
    yields no block at all gets its ``schema()``.

    Sort keys a table does not carry (a zero-column empty slice) are
    skipped.  Returns the gather refs, in the order of ``partitions``
    (default: every partition); only those partitions are gathered.

    This is exactly the exchange a fixed-size cluster runs for a keyed
    shuffle: B×P objects, each fetched once, no central barrier beyond the
    inherent all-to-all dependency.
    """
    P = num_partitions
    if partitions is None:
        partitions = range(P)
    inputs = exchange_inputs(inputs, sort_keys)
    per_input = _per_input(sort_keys)
    group_keys = [list(k) for k in sort_keys] if per_input else [sort_keys]

    def split_table(table):
        if not isinstance(table, pa.Table):  # rare non-arrow block
            table = pa.Table.from_pandas(table, preserve_index=False)
        if table.num_rows == 0:
            # Ray's shuffle ops emit benign zero-column empty bundles;
            # forward an empty slice to every gather
            outs = [_to_ipc(table.slice(0, 0))] * P
            return tuple(outs) if P > 1 else outs[0]
        if key not in table.column_names:
            raise KeyError(
                f"partition key {key!r} missing from block columns "
                f"{table.column_names}")
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
        outs = [_to_ipc(sorted_tbl.slice(offsets[p], counts[p]))
                for p in range(P)]
        return tuple(outs) if P > 1 else outs[0]

    @ray.remote(num_returns=P)
    def split(table):
        return split_table(table)

    @ray.remote(num_returns=P)
    def read_split(read_task, maps):
        return split_table(_run_read_task(read_task, maps))

    @ray.remote
    def gather(p, counts, *bufs):
        parts, tables = [_from_ipc(b) for b in bufs], []
        for end, n, keys in zip(np.cumsum(counts), counts, group_keys):
            mine = parts[end - n:end]
            full = [t for t in mine if t.num_rows > 0]
            # all-empty: keep the widest schema available
            t = (pa.concat_tables(full, promote_options="default") if full
                 else max(mine, key=lambda s: s.num_columns))
            tables.append(sort_table(t, [k for k in keys
                                         if k in t.column_names]))
        return fn(p, tables if per_input else tables[0])

    def drain(ds) -> list:
        # split_refs[b][p] is block b's slice of partition p
        lowered = None if isinstance(ds, list) else _read_and_maps(ds)
        if isinstance(ds, list):  # block refs: split each as it is
            splits = (split.remote(r) for r in ds)
        elif lowered is not None:
            read_tasks, maps = lowered
            maps = ray.put(maps)
            splits = (read_split.remote(t, maps) for t in read_tasks)
        else:
            blocks = _unreserved(ds, ordered=per_input)
            splits = (split.remote(r)
                      for bundle in blocks.iter_internal_ref_bundles()
                      for r in bundle.block_refs)
        return [s if P > 1 else [s] for s in splits]

    def empty(ds) -> list:
        # one empty slice, in the input's schema, for every partition
        schema = None if isinstance(ds, list) else ds.schema()
        ref = ray.put(_to_ipc((schema.base_schema if schema
                               else pa.schema([])).empty_table()))
        return [[ref] * P]

    with ThreadPoolExecutor(len(inputs)) as pool:
        drained = list(pool.map(drain, inputs))
    groups = [refs or empty(ds) for ds, refs in zip(inputs, drained)]
    counts = [len(g) for g in groups]
    return [gather.remote(p, counts, *[s[p] for g in groups for s in g])
            for p in partitions]


def sum_partials(blocks, *, keys: Sequence[str],
                 vals: Sequence[str]):
    """Combine per-block integer partial tables with ONE Arrow
    ``group_by(...).aggregate(sum)`` (:func:`group_aggregate`) — the
    engine's driver combine (no per-row Python): concat the non-empty
    blocks, sum ``vals`` per ``keys`` tuple, return a table with the
    ORIGINAL column names sorted ascending by ``keys`` (a NULL key is
    one group, whatever bytes sit under its NULL slots, and sorts
    last).  ``keys=[]`` gives one row of global sums.  Returns
    ``None`` when no block carries the partial columns (all-empty
    upstream).

    Sums are exact: integer columns add in ``decimal128(38, 0)`` and
    come back as int64 (uint64 for unsigned inputs), and a total
    outside that type raises ``OverflowError`` naming the column
    instead of wrapping.  Dictionary-typed key columns are decoded to
    their value type first, so blocks whose dictionaries differ
    combine.  Callers accumulating past 2^63 keep their own
    split-word path."""
    need = [*keys, *vals]
    tbls = [b.select(need) for b in blocks
            if b.num_rows and set(need) <= set(b.column_names)]
    if not tbls:
        return None
    t = pa.concat_tables(
        [b.cast(pa.schema([f.with_type(f.type.value_type)
                           if f.name in keys
                           and pa.types.is_dictionary(f.type) else f
                           for f in b.schema])) for b in tbls],
        promote_options="default")
    # integer sums come back in the type Arrow's own sum gives them
    wide = {v: pa.uint64() if pa.types.is_unsigned_integer(t[v].type)
            else pa.int64() for v in vals
            if pa.types.is_integer(t[v].type)}
    for v in wide:
        t = t.set_column(t.schema.get_field_index(v), v,
                         t[v].cast(pa.decimal128(38, 0)))
    agg = group_aggregate(t, keys, [(v, "sum") for v in vals])
    out = {k: agg[k] for k in keys}
    for v in vals:
        out[v] = agg[f"{v}_sum"]
        if v in wide:
            try:
                out[v] = out[v].cast(wide[v])
            except pa.ArrowInvalid:
                raise OverflowError(f"sum_partials: the sum of {v!r} "
                                    f"overflows {wide[v]}") from None
    out = pa.table(out)
    return out.sort_by([(k, "ascending") for k in keys]) if keys else out


def group_aggregate(t: pa.Table, keys: Sequence[str], aggs) -> pa.Table:
    """``t.group_by(keys).aggregate(aggs)`` with a NULL being a key value
    of its own: the key columns, then the aggregates under Arrow's names,
    in no set order.  It groups the keys' dictionary codes and takes the
    values back, because Arrow's multi-key ``group_by`` (pyarrow 16)
    splits a NULL key by the bytes under its NULL slot."""
    codes = {k: pc.dictionary_encode(t[k].combine_chunks(),
                                     null_encoding="encode") for k in keys}
    for k, c in codes.items():
        t = t.set_column(t.schema.get_field_index(k), k, c.indices)
    g = t.group_by(list(keys), use_threads=False).aggregate(aggs)
    return pa.table({**{k: codes[k].dictionary.take(g[k]) for k in keys},
                     **{c: g[c] for c in g.column_names if c not in codes}})


def group_count(t: pa.Table, keys: Sequence[str],
                count_col: str = "count_all") -> pa.Table:
    """Rows per distinct ``keys`` tuple of ``t``, a NULL being a value of
    its own: the key columns and ``count_col``, in no set order
    (:func:`group_aggregate`)."""
    return group_aggregate(t.select(list(keys)), keys, [([], "count_all")]
                           ).rename_columns([*keys, count_col])


def key_histogram(ds, key: str, top: int = 20):
    """Small driver-side skew probe (for salting decisions): the ``top``
    keys with the most rows, as a pandas frame ``(key, "count()")``
    ordered by count descending, then key ascending (a NULL key is one
    key, last among its ties).  Integer keys stay exact: with a NULL
    among them the key column holds Python ints and ``None`` (object
    dtype) instead of rounding through float64.  One keyed exchange:
    each gather counts its keys (:func:`group_count`) and keeps its own
    top ``top``, so only ``P × top`` rows come back to the driver."""
    order = [("count()", "descending"), (key, "ascending")]

    def counts(_p, t: pa.Table) -> pa.Table:
        return group_count(t, [key], "count()").sort_by(order).slice(0, top)

    keyed = ds.map_batches(lambda b: b.select([key]), batch_format="pyarrow")
    parts = ray.get(task_exchange(keyed, counts, key=key, sort_keys=[],
                                  num_partitions=32))
    return (pa.concat_tables(parts).sort_by(order).slice(0, top)
            .to_pandas(integer_object_nulls=True))


def global_span_cut(refs, *, col: str, num: int, den: int):
    """Global (min, max, cut) of an int64 column over materialized
    block refs — ``cut = min + (max − min) · num // den`` (exact
    Python-int arithmetic; trunc == floor on the non-negative span).
    The q217/q222 temporal-split convention, shared so a
    timestamp-unit fix can never drift between operators.  Returns
    ``None`` when every block is empty."""
    @ray.remote
    def span(blk):
        if blk.num_rows == 0:
            return None
        mm = pc.min_max(blk[col])
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
    if os.path.isdir(parquet_path):
        files = sorted(glob.glob(
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
        md = pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            total += md.row_group(rg).total_byte_size
    n = -(-total // int(target_bytes))          # ceil
    return int(min(max(n, min_partitions), max_partitions))
