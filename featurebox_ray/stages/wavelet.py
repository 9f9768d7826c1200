"""Per-key Haar wavelet energy decomposition over time-ordered value
sequences — which TIMESCALE carries a user's activity variance?  The
level-j energy is large when the series swings between adjacent blocks
of 2^(j-1) events (fast jitter at level 1, slower regime shifts at
deeper levels), giving a multi-resolution signature that single-scale
monitors (rolling variance q08, burstiness q170, autocovariance q197)
cannot separate.

Exactness: values quantize to int64 cents (``cents_exact`` — the q115
convention).  The unnormalized level-j detail of a complete bucket of
``2^j`` consecutive events is ``D = S_left − S_right`` (exact int);
the orthonormal Haar coefficient is ``D / 2^(j/2)`` so its energy is
``D² / 2^j`` — an exact dyadic rational.  Per (key, level) the engine
emits ``energy_num = Σ_buckets D²`` (exact int, overflow-guarded) and
``energy_c2 = double(num) / double(2^j)`` — a correctly-rounded cast
followed by an EXACT power-of-two division, so SQL replays
bit-for-bit with HUGEINT ``sum(d*d)`` + the identical CAST/division.
Incomplete trailing buckets drop (``m = 2^j`` filter in SQL); keys
with fewer than ``2^j`` events emit no row at that level.

Shape: ONE key-keyed exchange sorted ``(key, ts, id)``; the kernel is
fully vectorized (segment-relative ranks, sign by bit ``j−1`` of the
rank, one ``np.add.at`` per level).  Order within ties is pinned by
the id tiebreak, so the output is partition-invariant.

Reference analog: none (no signal-processing ops in the reference);
standard Haar DWT energy, re-expressed in exact integers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .partition import partitioned_map


def haar_energy(ds, *, key_col: str, ts_col: str, order_col: str,
                value_col: str, max_level: int = 3,
                num_partitions: int = 16):
    """Emit ``(key_col, level:int64, n_buckets:int64,
    energy_num:float64, energy_c2:float64)`` for levels 1..max_level.

    ``energy_num`` may exceed 2^53 — it is the correctly-rounded
    double of the exact int, identical to SQL's ``CAST(sum AS
    DOUBLE)``.  NULL key/ts rows drop; NULL values count as 0 cents
    (SQL ``coalesce``); non-finite values raise (cents_exact).
    """
    from ..functions.segments import cents_exact

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(pc.is_valid(b[key_col]),
                                    pc.is_valid(b[ts_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        return pa.table({key_col: b[key_col],
                         "__ts": b[ts_col].combine_chunks(),
                         "__id": b[order_col].combine_chunks(),
                         "__c": pa.array(
                             cents_exact(b[value_col].combine_chunks(),
                                         col=value_col))})

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({key_col: pa.array([], ktype),
                          "level": pa.array([], pa.int64()),
                          "n_buckets": pa.array([], pa.int64()),
                          "energy_num": pa.array([], pa.float64()),
                          "energy_c2": pa.array([], pa.float64())})
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        c = t["__c"].to_numpy(zero_copy_only=False)
        n = len(c)
        seg_change = np.concatenate([[True], codes[1:] != codes[:-1]])
        seg_start = np.flatnonzero(seg_change)
        run_id = np.cumsum(seg_change.astype(np.int64)) - 1
        seg_len = np.diff(np.append(seg_start, n))
        idx = np.arange(n) - seg_start[run_id]
        n_segs = len(seg_start)
        first_rows = seg_start

        maxc = int(np.abs(c).max()) if n else 0
        out = []
        for j in range(1, max_level + 1):
            full = 1 << j
            nb = seg_len >> j                      # complete buckets
            nb_total = int(nb.sum())
            if nb_total == 0:
                continue
            # pre-guard: D accumulates 2^j cents terms in int64
            if maxc > (2**62) // max(full, 1):
                raise ValueError(
                    "haar_energy int64 guard exceeded at level "
                    f"{j} (max |cents| = {maxc}); rescale upstream")
            offs = np.concatenate([[0], np.cumsum(nb)[:-1]])
            bucket_local = idx >> j
            kept = bucket_local < nb[run_id]
            gid = offs[run_id[kept]] + bucket_local[kept]
            sign = 1 - 2 * ((idx[kept] >> (j - 1)) & 1)
            D = np.zeros(nb_total, np.int64)
            np.add.at(D, gid, sign * c[kept])
            # exact sum guard: Σ D² ≤ nb_total · max(D)²
            md = int(np.abs(D).max()) if nb_total else 0
            if md and nb_total > (2**63 - 1) // (md * md):
                raise ValueError(
                    "haar_energy int64 guard exceeded at level "
                    f"{j} (max |D| = {md}); rescale upstream")
            seg_of_bucket = np.repeat(np.arange(n_segs), nb)
            E = np.zeros(n_segs, np.int64)
            np.add.at(E, seg_of_bucket, D * D)
            has = np.flatnonzero(nb)
            out.append(pa.table({
                key_col: keys.take(pa.array(first_rows[has],
                                            pa.int64())),
                "level": pa.array(np.full(len(has), j, np.int64)),
                "n_buckets": pa.array(nb[has].astype(np.int64)),
                "energy_num": pa.array(E[has].astype(np.float64)),
                "energy_c2": pa.array(E[has].astype(np.float64)
                                      / float(full)),
            }))
        if not out:
            return empty
        return pa.concat_tables(out)

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts", "__id"],
                           num_partitions=num_partitions)
