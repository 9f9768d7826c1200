"""Edit-distance similarity join — all pairs within Levenshtein
distance ``d``, with EXACT recall (no LSH probability): the PassJoin
partition scheme (Li, Deng, Feng, ICDE 2011).

Pigeonhole guarantee: split every string into ``d+1`` contiguous
segments; if ``ed(s, t) <= d`` then ``t`` contains at least one segment
of ``s`` as an exact substring whose position differs from the
segment's position in ``s`` by at most ``d``.  So candidate generation
is: every string INDEXES its own ``d+1`` segments keyed
``(seg_idx, len(s), segment)``, and PROBES all substrings matching the
segment geometry of any source length within ``±d`` of its own and any
position shift within ``±d`` — a join on the composite key finds every
true pair (plus false candidates, removed by exact verification).

Physical plan (three bounded stages, all streaming):

1. emit — one ``map_batches`` pass; segment/substring extraction is a
   single ragged-arange gather over the Arrow string buffers per
   (i, Δlen, shift) combination (zero per-row Python); ≤ ``(d+1)`` index
   rows and ≤ ``(d+1)(2d+1)²`` probe rows per string (75× at d=2),
   deduped per row before emission;
2. pair search — the shared coarse-bucket exchange of the LSH family
   (``dedup._bucketed_pair_search``): keys hash-bucket into P
   partition-sized groups, buckets walk as lexsort runs, index×probe
   cartesian per run under ``bucket_cap`` (over-cap buckets skipped
   with a logged warning); cross-key duplicate pairs removed by the
   bucketed distinct exchange;
3. verify — batch-vectorized Levenshtein DP over the candidate pairs:
   the inner insertion recurrence collapses to a running-min trick
   (``min-accumulate of (row - j) + j``), so the whole batch costs
   O(maxlen) vectorized passes, not one Python DP per pair; results are
   exact unit-cost edit distances (DuckDB ``levenshtein`` parity).

Strings ride the exchanges next to their ids — this operator's contract
is SHORT strings (titles, names, prefixes; cap enforced via
``max_len``), the same deliberate ride-along trade the embedding
near-dup documents for its small-corpus mode.  Strings shorter than
``d+1`` characters cannot be segmented into non-empty parts and are
excluded (mirror the filter in any oracle).

ASCII contract: extraction slices the raw UTF-8 byte buffers, and the
verify DP compares bytes — exact for single-byte text; multi-byte
corpora would count bytes, not codepoints (DuckDB counts codepoints).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .partition import _hash_string_values, partitioned_map

_EMPTY_PAIRS = pa.table({
    "id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
    "s_a": pa.array([], pa.string()), "s_b": pa.array([], pa.string()),
})


def _str_buffers(arr: pa.Array):
    """(byte values, per-row absolute start offsets, lengths) of a
    string Array."""
    n = len(arr)
    raw_off = np.frombuffer(arr.buffers()[1], dtype=np.int32)
    off = raw_off[arr.offset:arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2] or b"", dtype=np.uint8)
    return data, off[:-1], np.diff(off)


def _gather_substrings(data: np.ndarray, abs_starts: np.ndarray,
                       lens: np.ndarray) -> pa.Array:
    """Build a string Array of ``data[abs_starts[i] : +lens[i]]`` rows
    with ONE ragged-arange fancy-index gather."""
    lens = lens.astype(np.int64)
    out_off = np.concatenate([[0], np.cumsum(lens)])
    total = int(out_off[-1])
    if total == 0:
        vals = np.empty(0, np.uint8)
    else:
        idx = (np.arange(total, dtype=np.int64)
               - np.repeat(out_off[:-1], lens)
               + np.repeat(abs_starts.astype(np.int64), lens))
        vals = data[idx]
    return pa.StringArray.from_buffers(
        len(lens),
        pa.py_buffer(out_off.astype(np.int32).tobytes()),
        pa.py_buffer(vals.tobytes()))


def _seg_bounds(l: np.ndarray, i: int, d: int):
    """(start, length) of segment ``i`` of a length-``l`` string under
    the even PassJoin partition (short segments first)."""
    parts = d + 1
    base = l // parts
    rem = l % parts
    n_short = parts - rem
    seg_len = np.where(i < n_short, base, base + 1)
    start = i * base + np.maximum(0, i - n_short)
    return start, seg_len


def _codes_matrix(arr: pa.Array, max_len: int):
    """(P, max_len) uint8 code matrix + per-row lengths (zero padded)."""
    data, starts, lens = _str_buffers(arr)
    n = len(arr)
    mat = np.zeros((n, max_len), np.uint8)
    if lens.sum():
        idx = (np.repeat(starts, lens)
               + (np.arange(int(lens.sum()), dtype=np.int64)
                  - np.repeat(np.concatenate([[0], np.cumsum(lens)[:-1]]),
                              lens)))
        rows = np.repeat(np.arange(n), lens)
        cols = (np.arange(int(lens.sum()), dtype=np.int64)
                - np.repeat(np.concatenate([[0], np.cumsum(lens)[:-1]]),
                            lens))
        mat[rows, cols] = data[idx]
    return mat, lens.astype(np.int64)


def batch_levenshtein(a: pa.Array, b: pa.Array) -> np.ndarray:
    """Exact unit-cost Levenshtein distance per row of two equal-length
    string Arrays — vectorized across the batch (one O(len) pass per DP
    row; the insertion recurrence is a running minimum of ``v - j``)."""
    n = len(a)
    if n == 0:
        return np.zeros(0, np.int64)
    la = int(pc.max(pc.binary_length(a)).as_py() or 0)
    lb = int(pc.max(pc.binary_length(b)).as_py() or 0)
    c1, n1 = _codes_matrix(a, max(la, 1))
    c2, n2 = _codes_matrix(b, max(lb, 1))
    w = c2.shape[1]
    jj = np.arange(w + 1, dtype=np.int64)
    prev = np.broadcast_to(jj, (n, w + 1)).copy()
    ans = n2.copy()                       # i == 0 rows (empty a)
    for i in range(1, c1.shape[1] + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        sub = prev[:, :-1] + (c1[:, i - 1:i] != c2)
        dele = prev[:, 1:] + 1
        cur[:, 1:] = np.minimum(sub, dele)
        # insertion smoothing: cur[j] = min over j' <= j of cur[j'] + (j - j')
        v = np.minimum.accumulate(cur - jj, axis=1)
        cur = v + jj
        hit = n1 == i
        if hit.any():
            ans[hit] = cur[hit, n2[hit]]
        prev = cur
    return ans.astype(np.int64)


def edit_distance_join(ds, *, id_col: str, str_col: str, d: int = 2,
                       max_len: int = 256, bucket_cap: int = 512,
                       num_partitions: int = 16):
    """All pairs with ``levenshtein(a, b) <= d`` (exact recall).

    Returns ``(id_a:int64, id_b:int64, dist:int64)`` with
    ``id_a < id_b``.  Strings longer than ``max_len`` raise (the
    ride-along contract); strings shorter than ``d+1`` are excluded.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    parts = d + 1
    shifts = range(-d, d + 1)

    def emit(batch: pa.Table) -> pa.Table:
        s = pc.fill_null(batch[str_col].combine_chunks(), "")
        too_long = pc.any(pc.greater(pc.binary_length(s),
                                     max_len)).as_py()
        if too_long:
            raise ValueError(
                f"edit_distance_join: a string exceeds max_len={max_len}")
        ids_all = batch[id_col].combine_chunks()
        keep = pc.greater_equal(pc.binary_length(s), parts)
        if not pc.all(keep).as_py():
            s, ids_all = s.filter(keep), ids_all.filter(keep)
        n = len(s)
        empty = pa.table({"__band": pa.array([], pa.int64()),
                          "__bucket": pa.array([], pa.uint64()),
                          "__side": pa.array([], pa.int8()),
                          "id": pa.array([], pa.int64()),
                          "s": pa.array([], pa.string())})
        if n == 0:
            return empty
        data, starts, lens = _str_buffers(s)
        ids = ids_all.cast(pa.int64()).to_numpy(zero_copy_only=False)
        out = []

        def rows(row_sel, seg_arr, band, side):
            return pa.table({
                "__band": pa.array(band, pa.int64()),
                "__bucket": pa.array(_hash_string_values(seg_arr)),
                "__side": pa.array(
                    np.full(len(row_sel), side, np.int8)),
                "id": pa.array(ids[row_sel]),
                "s": s.take(pa.array(row_sel)),
            })

        all_rows = np.arange(n)
        for i in range(parts):
            # ---- index side: own segments, key (i, len(s), segment)
            p, L = _seg_bounds(lens, i, d)
            seg = _gather_substrings(data, starts + p, L)
            out.append(rows(all_rows, seg, i * 1_048_576 + lens, 0))
            # ---- probe side: substrings for every source length ±d,
            # every position shift ±d (deduped per row on start)
            cand_row, cand_start, cand_len, cand_l = [], [], [], []
            for delta in range(-d, d + 1):
                l_src = lens + delta
                ok_l = l_src >= parts
                ps, Ls = _seg_bounds(l_src, i, d)
                for sh in shifts:
                    st = np.clip(ps + sh, 0, lens - Ls)
                    ok = ok_l & (lens - Ls >= 0)
                    if not ok.any():
                        continue
                    cand_row.append(all_rows[ok])
                    cand_start.append(st[ok])
                    cand_len.append(Ls[ok])
                    cand_l.append(l_src[ok])
            if not cand_row:
                continue
            cr = np.concatenate(cand_row)
            cs = np.concatenate(cand_start)
            cl = np.concatenate(cand_len)
            cls = np.concatenate(cand_l)
            # dedup (row, l_src, start): after clamping many shifts
            # collapse to the same start
            key = (cr * (max_len * 4 + 8) + (cls - lens[cr] + d)) \
                * (max_len + 2) + cs
            _, ui = np.unique(key, return_index=True)
            cr, cs, cl, cls = cr[ui], cs[ui], cl[ui], cls[ui]
            sub = _gather_substrings(data, starts[cr] + cs, cl)
            out.append(rows(cr, sub, i * 1_048_576 + cls, 1))
        return pa.concat_tables(out) if out else empty

    exploded = ds.map_batches(emit, batch_format="pyarrow",
                              zero_copy_batch=True)

    def pairs_in_bucket(group: pa.Table) -> pa.Table:
        side = group["__side"].to_numpy(zero_copy_only=False)
        idx_i = np.flatnonzero(side == 0)
        idx_p = np.flatnonzero(side == 1)
        if len(idx_i) == 0 or len(idx_p) == 0:
            return _EMPTY_PAIRS
        gid = group["id"].to_numpy(zero_copy_only=False)
        ai = np.repeat(idx_i, len(idx_p))
        bi = np.tile(idx_p, len(idx_i))
        ne = gid[ai] != gid[bi]
        ai, bi = ai[ne], bi[ne]
        if len(ai) == 0:
            return _EMPTY_PAIRS
        lo = np.minimum(gid[ai], gid[bi])
        hi = np.maximum(gid[ai], gid[bi])
        swap = gid[ai] > gid[bi]
        sa = np.where(swap, bi, ai)
        sb = np.where(swap, ai, bi)
        # within-bucket dedup
        k = lo.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) \
            ^ hi.astype(np.uint64)
        _, ui = np.unique(k, return_index=True)
        sarr = group["s"].combine_chunks()
        return pa.table({
            "id_a": pa.array(lo[ui]), "id_b": pa.array(hi[ui]),
            "s_a": sarr.take(pa.array(sa[ui])),
            "s_b": sarr.take(pa.array(sb[ui])),
        })

    from .dedup import _bucketed_distinct, _bucketed_pair_search

    cand = _bucketed_pair_search(
        exploded, id_col="id", pair_fn=pairs_in_bucket,
        empty_table=_EMPTY_PAIRS, bucket_cap=bucket_cap,
        num_partitions=num_partitions, cap_msg="editdist segment bucket")
    cand = _bucketed_distinct(cand, ["id_a", "id_b"], ["id_a", "id_b"],
                              num_partitions)

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.int64())})
        dist = batch_levenshtein(t["s_a"].combine_chunks(),
                                 t["s_b"].combine_chunks())
        keep = dist <= d
        out = t.filter(pa.array(keep)).select(["id_a", "id_b"])
        return out.append_column("dist", pa.array(dist[keep]))

    return cand.map_batches(verify, batch_format="pyarrow",
                            zero_copy_batch=True)


def consecutive_editdist(ds, *, key_col: str, order_col: str,
                         text_col: str, ratio_den=None,
                         max_len: int = 4096,
                         num_partitions: int = 16):
    """CONSECUTIVE-record edit-distance profile — for each key (source,
    conversation, crawl host), pair every record with its successor in
    ``order_col`` order and emit the exact Levenshtein distance; with
    ``ratio_den`` set, keep only pairs whose distance is at most
    ``max(len_a, len_b) / ratio_den`` (integer comparison
    ``ratio_den * lev <= max(len_a, len_b)``, no float ratio).  The
    retry-turn / re-crawl-snapshot detector: near-identical successive
    texts are retries or boilerplate re-captures that inflate corpus
    weight without adding signal; the unfiltered profile is the
    corpus-churn audit (how much does each source's stream mutate
    record-to-record).

    Exactness: distances come from :func:`batch_levenshtein` (exact
    unit-cost DP, byte alphabet).  ASCII contract: rows whose UTF-8
    byte length differs from their codepoint length are EXCLUDED
    before pairing (bytes != codepoints would diverge from DuckDB's
    codepoint-counting ``levenshtein``); rows longer than ``max_len``
    bytes are likewise excluded (DP cost bound) — both filters are
    part of the operator contract and must be mirrored in any oracle
    (pairing is "consecutive among the kept rows").

    Shape: ONE key-keyed exchange (``partitioned_map`` sorted by
    (key, order)); the kernel pairs adjacent rows per key run and,
    when flagging, applies the length-difference prefilter
    (``lev >= |len_a - len_b|``, so ``ratio_den * |len_a - len_b| >
    max_len_pair`` can never pass — pure pruning, result-invariant)
    before the batch DP.  Linear in rows; DP cost bounded by
    ``max_len``.

    Returns ``(key_col, id_a, id_b, lev:int64, len_a:int64,
    len_b:int64)`` with ``id_* = order_col`` values.  Reference
    analog: none (corpus-audit extension; the dedup family's
    consecutive-pair specialization).
    """
    def prep(b: pa.Table) -> pa.Table:
        txt = b[text_col].combine_chunks()
        blen = pc.binary_length(txt)
        keep = pc.and_(pc.is_valid(b[key_col]), pc.is_valid(txt))
        keep = pc.and_(keep, pc.is_valid(b[order_col]))
        keep = pc.and_(keep, pc.equal(blen, pc.utf8_length(txt)))
        keep = pc.and_(keep, pc.less_equal(blen, max_len))
        keep = pc.fill_null(keep, False)
        t = pa.table({key_col: b[key_col], "__id": b[order_col],
                      "__txt": txt,
                      "__len": blen.cast(pa.int64())})
        return t.filter(keep)

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)

    key_type = ds.schema()
    key_type = getattr(key_type, "base_schema", key_type).field(
        key_col).type
    empty = pa.table({
        key_col: pa.array([], key_type),
        "id_a": pa.array([], pa.int64()),
        "id_b": pa.array([], pa.int64()),
        "lev": pa.array([], pa.int64()),
        "len_a": pa.array([], pa.int64()),
        "len_b": pa.array([], pa.int64()),
    })

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows < 2 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        same = pc.equal(keys.slice(0, len(keys) - 1),
                        keys.slice(1)).to_numpy(zero_copy_only=False)
        i = np.flatnonzero(same)          # pair (i, i+1) within a key
        if len(i) == 0:
            return empty
        lens = t["__len"].to_numpy(zero_copy_only=False)
        if ratio_den is not None:
            la, lb = lens[i], lens[i + 1]
            # prefilter: lev >= |la - lb|, so a pair failing on the
            # length difference alone can never be flagged
            cand = ratio_den * np.abs(la - lb) <= np.maximum(la, lb)
            i = i[cand]
            if len(i) == 0:
                return empty
        txt = t["__txt"].combine_chunks()
        lev = batch_levenshtein(txt.take(pa.array(i)),
                                txt.take(pa.array(i + 1)))
        if ratio_den is not None:
            keep = (ratio_den * lev
                    <= np.maximum(lens[i], lens[i + 1]))
            i, lev = i[keep], lev[keep]
        ids = t["__id"].to_numpy(zero_copy_only=False)
        return pa.table({
            key_col: keys.take(pa.array(i)),
            "id_a": pa.array(ids[i].astype(np.int64)),
            "id_b": pa.array(ids[i + 1].astype(np.int64)),
            "lev": pa.array(lev.astype(np.int64)),
            "len_a": pa.array(lens[i].astype(np.int64)),
            "len_b": pa.array(lens[i + 1].astype(np.int64)),
        })

    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__id"],
                           num_partitions=num_partitions)
