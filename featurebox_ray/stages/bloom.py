"""Bloom-filtered EXACT semi/anti join — the shuffle-reduction primitive
for large⋈large key-membership queries at 100-TB scale.

A Bloom filter of the right side's join keys is built in one streaming
pass (per-block partial bitmaps OR-merged inside a Ray task — the driver
only ever holds an ObjectRef) and broadcast once through the object
store.  The left side then streams through a vectorized membership
probe:

* ``semi``: bloom misses are DEFINITELY unmatched (no false negatives)
  and drop immediately; only the hits — true matches plus an ``ε`` of
  false positives — enter the exact keyed-exchange verification.
* ``anti``: bloom misses are definitely unmatched and stream straight to
  the output with NO exchange at all; only the hits are verified.

So the single all-to-all exchange moves ``matches + ε`` rows instead of
the whole left table — at a selective join this is a 5-100x cut in
shuffle bytes, which is the entire point at scale.  Results are EXACT
(the verify pass removes every false positive); the filter only ever
changes how many rows ride the exchange.

The right side is never broadcast as raw keys (that is
:func:`~featurebox_ray.stages.join.broadcast_join`'s small-side shape);
here only the fixed-size bitmap (``num_bits/8`` bytes, default 128 KiB)
travels, so the right side may be arbitrarily large.

Keys must be non-negative integers (same domain contract as
``stages/sample.py``); NULL keys never equality-match, so semi drops
them and anti keeps them — SQL ``EXISTS`` / ``NOT EXISTS`` semantics.

Reference analog: none (the reference has no relational joins beyond
the broadcast lookup, SURVEY.md §2.4); this is an added-for-100-TB
operator in the same family as the interval join and hash sampler.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import materialized_block_refs, partitioned_map

_MIX1 = np.uint64(0x9E3779B97F4A7C15)   # 2^64 / golden ratio (splitmix64)
_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)   # xxhash64 prime


def _hash_pair(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit multiplicative hashes (double hashing gives
    the k bloom probes as h1 + i*h2 — Kirsch & Mitzenmacher '06)."""
    x = keys.astype(np.int64).view(np.uint64)
    h1 = x * _MIX1
    h1 ^= h1 >> np.uint64(31)
    h1 *= _MIX2
    h2 = (x * _MIX2) | np.uint64(1)     # odd => cycles all residues
    return h1, h2


def _probe_positions(keys: np.ndarray, num_bits: int,
                     num_hashes: int) -> np.ndarray:
    h1, h2 = _hash_pair(keys)
    i = np.arange(num_hashes, dtype=np.uint64)
    return (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(num_bits)


def _valid_int_keys(col: pa.ChunkedArray, op: str) -> np.ndarray:
    k = col.drop_null().to_numpy(zero_copy_only=False)
    if k.size and int(k.min()) < 0:
        raise ValueError(f"{op} requires non-negative integer keys")
    return k


def build_bloom(ds, *, key_col: str, num_bits: int = 1 << 20,
                num_hashes: int = 4):
    """One streaming pass over ``ds``: each block emits a partial bitmap
    row (``num_bits/8`` bytes); a Ray task ORs them.  Returns an
    ObjectRef to the packed ``uint64`` bitmap — pass it around, never
    ``ray.get`` it on the driver for large filters."""
    bitmap_ref, _ = _build_bloom_counted(ds, key_col=key_col,
                                         num_bits=num_bits,
                                         num_hashes=num_hashes)
    return bitmap_ref


def _build_bloom_counted(ds, *, key_col: str, num_bits: int,
                         num_hashes: int):
    """Returns ``(bitmap_ref, n_keys_ref)`` — the exact non-null key
    count rides along so callers can short-circuit an empty side."""
    if num_bits % 64:
        raise ValueError("num_bits must be a multiple of 64")
    words = num_bits // 64

    def partial(batch: pa.Table) -> pa.Table:
        bitmap = np.zeros(words, np.uint64)
        k = _valid_int_keys(batch[key_col], "build_bloom")
        if k.size:
            pos = _probe_positions(k, num_bits, num_hashes).ravel()
            np.bitwise_or.at(bitmap, (pos >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (pos & np.uint64(63)))
        return pa.table({
            "bitmap": pa.array([bitmap.tobytes()], pa.large_binary()),
            "n": pa.array([int(k.size)], pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    refs = materialized_block_refs(partials)

    @ray.remote(num_returns=2)
    def _or_reduce(*blocks):
        out = np.zeros(words, np.uint64)
        n = 0
        for b in blocks:
            # an empty input dataset yields blocks that never ran the
            # partial fn (original schema, zero rows) — skip them
            if "bitmap" not in b.column_names:
                continue
            for row, cnt in zip(b["bitmap"].to_pylist(),
                                b["n"].to_pylist()):
                out |= np.frombuffer(row, np.uint64)
                n += cnt
        return out, n

    return _or_reduce.remote(*refs)


def bloom_maybe_mask(bitmap: np.ndarray, keys: np.ndarray, *,
                     num_bits: int, num_hashes: int) -> np.ndarray:
    """Vectorized membership probe: True = maybe present (or a false
    positive), False = DEFINITELY absent."""
    if keys.size == 0:
        return np.zeros(0, bool)
    pos = _probe_positions(keys, num_bits, num_hashes)
    w = bitmap[(pos >> np.uint64(6)).astype(np.int64)]
    return (((w >> (pos & np.uint64(63))) & np.uint64(1))
            .astype(bool).all(axis=1))


def _bloom_join(left_ds, right_ds, *, on: str, right_on: Optional[str],
                how: str, num_bits: int, num_hashes: int,
                num_partitions: int):
    right_on = right_on or on
    # the right key column is consumed twice (bloom build + verify
    # exchange): materialize the column-pruned blocks ONCE so the scan and
    # any upstream chain never re-execute
    rkey_refs = list(materialized_block_refs(
        right_ds.select_columns([right_on])))
    if rkey_refs:
        bloom_ref, n_keys_ref = _build_bloom_counted(
            ray.data.from_arrow_refs(rkey_refs), key_col=right_on,
            num_bits=num_bits, num_hashes=num_hashes)
        n_keys = ray.get(n_keys_ref)
    else:
        n_keys = 0
    if n_keys == 0:
        # no right keys: semi is empty, anti is the left side unchanged
        # (also sidesteps schema-less empty-map datasets in the exchange)
        if how == "semi":
            return left_ds.map_batches(lambda b: b.slice(0, 0),
                                       batch_format="pyarrow",
                                       zero_copy_batch=True)
        return left_ds
    lschema = left_ds.schema()
    key_type = dict(zip(lschema.names, lschema.types))[on]

    def split(batch: pa.Table, want_hits: bool) -> pa.Table:
        bitmap = ray.get(bloom_ref)
        col = batch[on]
        valid = np.ones(batch.num_rows, bool)
        if col.null_count:
            valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        k = np.where(valid, col.fill_null(0).to_numpy(zero_copy_only=False), 0)
        if k.size and int(k.min()) < 0:
            raise ValueError("bloom join requires non-negative integer keys")
        hit = bloom_maybe_mask(bitmap, k, num_bits=num_bits,
                               num_hashes=num_hashes) & valid
        return batch.filter(pa.array(hit if want_hits else ~hit))

    if how == "anti":
        # anti consumes the left side twice (candidates + definite
        # keeps): materialize its blocks ONCE so the parquet scan and
        # any upstream map chain never re-execute — both branches then
        # stream from the same object-store refs
        left_refs = list(materialized_block_refs(left_ds))
        left_src = ray.data.from_arrow_refs(left_refs)
    else:
        left_src = left_ds

    candidates = left_src.map_batches(
        lambda b: split(b, True), batch_format="pyarrow",
        zero_copy_batch=True)

    # keyed-exchange exact verification: exchange candidate left rows with
    # the right KEYS only, co-partition on the key, and run an is_in per
    # partition
    def right_keys(t: pa.Table) -> pa.Table:
        # per-block key dedupe: verify only needs DISTINCT right keys, so
        # the exchange traffic is bounded by distinct keys per block, not
        # raw right rows
        return pa.table(
            {on: t[right_on].combine_chunks().unique().cast(key_type)})

    rkeys = ray.data.from_arrow_refs(rkey_refs).map_batches(
        right_keys, batch_format="pyarrow", zero_copy_batch=True)

    keep_matched = how == "semi"

    def verify(left: pa.Table, right: pa.Table) -> pa.Table:
        if left.num_rows == 0:
            return left
        keys = right[on].combine_chunks().unique() if right.num_rows \
            else pa.array([], key_type)
        matched = pc.is_in(left[on], value_set=keys)
        keep = matched if keep_matched else pc.invert(matched)
        return left.filter(keep.fill_null(not keep_matched)
                           if keep.null_count else keep)

    checked = partitioned_map([candidates, rkeys], verify, key=on,
                              sort_keys=[[on], []],
                              num_partitions=num_partitions)
    if how == "semi":
        return checked

    # anti: bloom misses (and NULL keys) are definitely unmatched —
    # they bypass the exchange entirely
    definite = ray.data.from_arrow_refs(left_refs).map_batches(
        lambda b: split(b, False), batch_format="pyarrow",
        zero_copy_batch=True)
    return definite.union(checked)


def bloom_semi_join(left_ds, right_ds, *, on: str,
                    right_on: Optional[str] = None,
                    num_bits: int = 1 << 20, num_hashes: int = 4,
                    num_partitions: int = 32):
    """EXACT semi join (``WHERE EXISTS``): left rows with at least one
    right-side key match.  Bloom pre-filter cuts the verify exchange to
    ``matches + ε`` rows.  Output columns = left columns; row multiset
    exact, order not guaranteed."""
    return _bloom_join(left_ds, right_ds, on=on, right_on=right_on,
                       how="semi", num_bits=num_bits,
                       num_hashes=num_hashes,
                       num_partitions=num_partitions)


def bloom_anti_join(left_ds, right_ds, *, on: str,
                    right_on: Optional[str] = None,
                    num_bits: int = 1 << 20, num_hashes: int = 4,
                    num_partitions: int = 32):
    """EXACT anti join (``WHERE NOT EXISTS``): left rows with no right
    match.  Bloom misses and NULL-key rows stream straight through (no
    exchange); only the ``matches + ε`` bloom hits are verified."""
    return _bloom_join(left_ds, right_ds, on=on, right_on=right_on,
                       how="anti", num_bits=num_bits,
                       num_hashes=num_hashes,
                       num_partitions=num_partitions)
