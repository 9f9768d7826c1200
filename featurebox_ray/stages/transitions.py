"""Event-type transition counts (behavioral Markov bigrams) — for every
ordered pair of CONSECUTIVE events of the same key, count global
``(from_type, to_type)`` transitions and their row-conditional
probabilities.

This is the sequence-feature sibling of the per-user event chains
(q100 ``pivot.group_concat``): where the chain materializes the ordered
sequence, this collapses it into the transition matrix a downstream
model consumes (session-flow features, anomalous-transition detection).

Physical plan: ONE keyed exchange co-locates each key's timeline
(`partitioned_map` sorted by ``(key, ts, order)``); the kernel is a
single shifted compare per partition (pairs never cross a segment
boundary) + one ``np.add.at`` into a (types × types) matrix — the
partition reduces to ≤ |types|² partial rows.  A second, tiny exchange
(grouped on ``from_type``) sums partials; at 100 TB the second shuffle
moves O(partitions × |types|²) rows, never data.

Probability exactness: ``p = double(cnt) / double(from_total)`` — two
exact-int casts + one IEEE division, replayed in SQL as
``CAST(cnt AS DOUBLE) / CAST(sum(cnt) OVER (PARTITION BY from_type)
AS DOUBLE)`` bit-identically.

Pairs with a NULL type on either side are dropped (SQL ``WHERE``
parity); a NULL key forms one group like every keyed stage here.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions import segments as seg
from .partition import (each_group, partitioned_map, partitioned_refs,
                        sum_partials)
from .window import _key_codes_dic


def event_transition_counts(ds, *, key_col: str, ts_col: str,
                            order_col: str, type_col: str,
                            prob_col: str = "p",
                            num_partitions: int = 16):
    """Global transition matrix over per-key consecutive event pairs.

    Returns one row per observed ``(from_type, to_type)``:
    ``(from_type, to_type, cnt:int64, p:float64)`` where ``p`` is the
    transition probability conditional on ``from_type``.
    """

    def kernel(t: pa.Table) -> pa.Table:
        empty = pa.table({"from_type": pa.array([], pa.string()),
                          "to_type": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        if t.num_rows < 2 or key_col not in t.column_names:
            return empty
        kcodes, _ = _key_codes_dic(t[key_col])
        td = pc.dictionary_encode(t[type_col].combine_chunks())
        tcodes = td.indices.to_numpy(zero_copy_only=False)
        valid = ~np.isnan(tcodes) if tcodes.dtype.kind == "f" else \
            np.ones(len(tcodes), bool)
        tcodes = np.where(valid, tcodes, -1).astype(np.int64)
        _, _, is_start = seg.segment_ids(kcodes)
        # pair (i, i+1) counts iff i+1 is not a new segment and both
        # types are non-null
        pair_ok = (~is_start[1:]) & (tcodes[:-1] >= 0) & (tcodes[1:] >= 0)
        if not pair_ok.any():
            return empty
        f, to = tcodes[:-1][pair_ok], tcodes[1:][pair_ok]
        k = len(td.dictionary)
        mat = np.zeros(k * k, np.int64)
        np.add.at(mat, f * k + to, 1)
        nz = np.flatnonzero(mat)
        return pa.table({
            "from_type": td.dictionary.take(pa.array(nz // k)),
            "to_type": td.dictionary.take(pa.array(nz % k)),
            "cnt": pa.array(mat[nz]),
        })

    partials = partitioned_refs(ds, kernel, key=key_col,
                                sort_keys=[key_col, ts_col, order_col],
                                num_partitions=num_partitions)

    def finalize(t: pa.Table) -> pa.Table:
        td = pc.dictionary_encode(t["to_type"].combine_chunks())
        codes = td.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cnts = t["cnt"].to_numpy(zero_copy_only=False)
        sums = np.zeros(len(td.dictionary), np.int64)
        np.add.at(sums, codes, cnts)
        total = int(sums.sum())
        p = sums.astype(np.float64) / float(total)
        return pa.table({
            "from_type": pa.array([t["from_type"][0].as_py()] * len(sums),
                                  pa.string()),
            "to_type": td.dictionary,
            "cnt": pa.array(sums),
            prob_col: pa.array(p, pa.float64()),
        })

    # second exchange: O(partitions × |types|²) partial rows
    return partitioned_map([partials], each_group(finalize, ["from_type"]),
                           key="from_type", sort_keys=["from_type"])


def _gap_native(ds, ts_col: str, gap_s: float) -> int:
    """Session gap in the ts column's NATIVE unit (the shared rule of
    session_cooccurrence / top_session_journeys — q06 semantics)."""
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    tt = base.field(ts_col).type
    unit = tt.unit if pa.types.is_timestamp(tt) else "us"
    return int(round(float(gap_s) * {"s": 1, "ms": 10**3,
                                     "us": 10**6, "ns": 10**9}[unit]))


def _session_prep(key_col: str, ts_col: str, carry_cols):
    """Shared prep: drop NULL-ts rows, ts to int64, project."""
    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b[ts_col]))
        ts = b[ts_col].combine_chunks()
        ts_i = (ts.cast(pa.int64()) if pa.types.is_timestamp(ts.type)
                else ts)
        cols = {key_col: b[key_col], "__ts": ts_i}
        for c in carry_cols:
            cols[c] = b[c]
        return pa.table(cols)
    return prep


def _session_ids(t: pa.Table, key_col: str,
                 gap_native: int) -> np.ndarray:
    """Partition-global session ordinals for a partition sorted by
    (key, ts): a session starts at each key boundary and whenever the
    gap to the previous row exceeds ``gap_native`` (q06 rule; NULL
    keys form one group)."""
    keys = t[key_col].combine_chunks()
    ts = t["__ts"].to_numpy(zero_copy_only=False)
    enc = pc.dictionary_encode(keys)
    codes = (pc.fill_null(enc.indices, -1)
             .to_numpy(zero_copy_only=False).astype(np.int64))
    new_seg = np.concatenate([[True], codes[1:] != codes[:-1]])
    gap = np.empty(len(ts), np.int64)
    gap[0] = 0
    gap[1:] = ts[1:] - ts[:-1]
    return np.cumsum(new_seg | (gap > gap_native)) - 1


def session_cooccurrence(ds, *, key_col: str, ts_col: str,
                         type_col: str, order_col: str,
                         gap_s: float = 1800.0,
                         num_partitions: int = 16):
    """Within-session event-type co-occurrence pairs — for every
    session (gap-based, same rule as the sessionizer: a new session
    starts when the gap to the previous event exceeds ``gap_s``), the
    set of DISTINCT types present, expanded to unordered pairs
    ``type_a < type_b`` (bytewise) and counted globally.  The
    co-usage-mining feature ("which tools appear together in a
    session") that transitions (adjacent bigrams) can't see.

    ONE key-keyed exchange: the kernel sessionizes its segments
    vectorized (gap compare + cumsum), collapses to distinct
    (session, type) pairs via ``np.unique``, expands each session's
    sorted distinct-type run to pairs with a repeat/arange gather
    (Σ k(k−1)/2 rows, k = distinct types per session — tiny), and
    emits per-partition partial counts.  A second tiny exchange sums
    them.  Sessions are computed over ALL valid-ts rows; NULL types
    drop only at the distinct-type step (SQL parity: sessionize first,
    filter in the distinct CTE).  Exact int64 counts.

    Reference analog: none (beyond-reference behavioral operator next
    to event_transition_counts and funnel_features).
    """
    gap_native = _gap_native(ds, ts_col, gap_s)
    prep = _session_prep(key_col, ts_col, [type_col, order_col])

    pair_empty = pa.table({"type_a": pa.array([], pa.string()),
                           "type_b": pa.array([], pa.string()),
                           "cnt": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return pair_empty
        sess = _session_ids(t, key_col, gap_native)
        # distinct (session, bytewise-rank-of-type) pairs
        types = t[type_col].combine_chunks()
        typed = np.asarray(pc.is_valid(types))
        tenc = pc.dictionary_encode(types.filter(pa.array(typed)))
        if len(tenc) == 0:
            return pair_empty
        tcodes = tenc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        # bytewise rank so pair order matches SQL type_a < type_b
        tr = pc.sort_indices(tenc.dictionary)
        inv = np.empty(len(tenc.dictionary), np.int64)
        inv[tr.to_numpy(zero_copy_only=False)] = np.arange(
            len(tenc.dictionary))
        nt = len(tenc.dictionary)
        combo = sess[typed] * nt + inv[tcodes]
        u = np.unique(combo)
        u_sess, u_rank = u // nt, u % nt
        # expand each session's sorted distinct-rank run to pairs
        run_start = np.concatenate([[True], u_sess[1:] != u_sess[:-1]])
        starts = np.flatnonzero(run_start)
        lens = np.diff(np.concatenate([starts, [len(u)]]))
        run_id = np.cumsum(run_start) - 1
        pos = np.arange(len(u)) - starts[run_id]
        later = (lens[run_id] - pos - 1)  # pairs this element anchors
        a_idx = np.repeat(np.arange(len(u)), later)
        cum = np.concatenate([[0], np.cumsum(later)])
        b_idx = a_idx + (np.arange(int(later.sum())) - cum[a_idx]) + 1
        if len(a_idx) == 0:
            return pair_empty
        # counts per (rank_a, rank_b)
        pk = u_rank[a_idx] * nt + u_rank[b_idx]
        pu, pinv = np.unique(pk, return_inverse=True)
        cnt = np.bincount(pinv).astype(np.int64)
        dict_sorted = tenc.dictionary.take(tr)  # rank -> type string
        return pa.table({
            "type_a": dict_sorted.take(pa.array(pu // nt, pa.int64())),
            "type_b": dict_sorted.take(pa.array(pu % nt, pa.int64())),
            "cnt": pa.array(cnt),
        })

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "type_a" not in t.column_names:
            return pair_empty
        # two-column Arrow group_by: collision-free (a joined-string
        # key would merge distinct pairs whose types contain the
        # separator byte)
        out = (t.group_by(["type_a", "type_b"])
               .aggregate([("cnt", "sum")]))
        return (out.drop_columns(["cnt_sum"])
                .append_column("cnt", out["cnt_sum"].cast(pa.int64())))

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    partials = partitioned_refs(prepped, kernel, key=key_col,
                                sort_keys=[key_col, "__ts", order_col],
                                num_partitions=num_partitions)
    return partitioned_map([partials], combine, key="type_a",
                           sort_keys=["type_a", "type_b"],
                           num_partitions=min(num_partitions, 4))


def top_session_journeys(ds, *, key_col: str, ts_col: str,
                         type_col: str, order_col: str,
                         gap_s: float = 1800.0, k: int = 15,
                         sep: str = ">", num_partitions: int = 16):
    """Top-k most common session type-SEQUENCES ("user journeys") —
    each session renders to its ordered event-type chain (duplicates
    kept, NULL types skipped like SQL ``string_agg``; all-null sessions
    drop), then the exact heavy-hitters plan picks the k most frequent
    chains globally under ``(count desc, journey asc)``.

    ONE user-keyed exchange does sessionize + render: the per-partition
    kernel computes session boundaries vectorized (q128's gap rule),
    builds each session's chain with ONE list-offsets +
    ``binary_join`` pass (the q41/q100 render shape — never a per-group
    UDF), and emits per-partition ``(journey, cnt)`` partials straight
    into :func:`~featurebox_ray.stages.tfidf._exact_topk_exchange`.

    Returns ``(journey:string, cnt:int64)``.
    """
    from .tfidf import _exact_topk_exchange

    gap_native = _gap_native(ds, ts_col, gap_s)
    prep = _session_prep(key_col, ts_col, [type_col, order_col])

    empty = pa.table({"term": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        sess = _session_ids(t, key_col, gap_native)
        types = t[type_col].combine_chunks()
        typed = np.asarray(pc.is_valid(types))
        if not typed.any():
            return empty
        # typed rows grouped by session in ts order (already sorted);
        # chain = list-offsets over the typed type strings + one join
        t_types = types.filter(pa.array(typed)).cast(pa.large_string())
        t_sess = sess[typed]
        counts = np.bincount(t_sess - t_sess.min(),
                             minlength=0)
        counts = counts[counts > 0]  # sessions with >= 1 typed event
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(
            np.int64)
        chains = pc.binary_join(
            pa.LargeListArray.from_arrays(offsets, t_types),
            pa.scalar(sep, pa.large_string()))
        d = pc.dictionary_encode(chains)
        cnt = np.bincount(d.indices.to_numpy(zero_copy_only=False),
                          minlength=len(d.dictionary))
        return pa.table({"term": d.dictionary.cast(pa.string()),
                         "cnt": pa.array(cnt.astype(np.int64))})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    partials = partitioned_map(prepped, kernel, key=key_col,
                               sort_keys=[key_col, "__ts", order_col],
                               num_partitions=num_partitions)
    out = _exact_topk_exchange(partials, k=k,
                               num_partitions=min(num_partitions, 4))

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["journey", "cnt"])

    return out.map_batches(rename, batch_format="pyarrow",
                           zero_copy_batch=True)


def eventually_follows(ds, *, key_col: str, ts_col: str,
                       type_col: str, num_partitions: int = 16):
    """Eventually-follows support matrix — for every ordered type
    pair (a, b): how many keys have SOME ``a`` strictly before some
    ``b`` (``min_ts(a) < max_ts(b)`` per key)?  The process-mining
    complement of the directly-follows transition matrix
    (:func:`event_transition_counts`): "signup eventually precedes
    purchase for N users" regardless of what happened in between.

    Exact int counts: per (key, type) min/max timestamps reduce in
    ONE key-keyed exchange; the kernel expands each key's tiny type
    list to ordered pairs (vectorized repeat/tile over per-key type
    runs) and sums (a, b) cells; the driver merges ≤ types² Python
    ints.  SQL replays with a per-(key,type) min/max CTE + pair
    join.  NULL key/ts/type rows drop.

    Emits ``(type_a:string, type_b:string, n_keys:int64 — support,
    n_both:int64 — keys having both types at all)``.
    Reference analog: none (process-mining family next to
    transitions / funnel / journeys).
    """
    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b[key_col])
        for c in (ts_col, type_col):
            keep = pc.and_(keep, pc.is_valid(b[c]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({key_col: b[key_col], "__ts": ts,
                         "__ty": b[type_col].combine_chunks()
                        .cast(pa.string())})

    empty = pa.table({"type_a": pa.array([], pa.string()),
                      "type_b": pa.array([], pa.string()),
                      "n_keys": pa.array([], pa.int64()),
                      "n_both": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        kc = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        te = pc.dictionary_encode(t["__ty"].combine_chunks())
        tc = te.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        n_types = len(te.dictionary)
        # (key, type) min/max via dense cells
        cell = kc * n_types + tc
        uc, inv = np.unique(cell, return_inverse=True)
        mn = np.full(len(uc), np.iinfo(np.int64).max, np.int64)
        mx = np.full(len(uc), np.iinfo(np.int64).min, np.int64)
        np.minimum.at(mn, inv, ts)
        np.maximum.at(mx, inv, ts)
        ku = uc // n_types
        tu = uc % n_types
        # per-key runs over the sorted uc (ascending -> grouped by
        # key); expand to ordered pairs (a != b)
        new = np.concatenate([[True], ku[1:] != ku[:-1]])
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(ku)))
        total = int((lens * (lens - 1)).sum())
        sup = np.zeros((n_types, n_types), np.int64)
        both = np.zeros((n_types, n_types), np.int64)
        if total:
            seg = np.repeat(np.arange(len(starts)), lens * (lens - 1))
            off = np.arange(total) - np.repeat(
                np.cumsum(lens * (lens - 1))
                - lens * (lens - 1), lens * (lens - 1))
            L = np.repeat(lens, lens * (lens - 1))
            ai = off // (L - 1)
            bi = off % (L - 1)
            bi = bi + (bi >= ai)
            ga = starts[seg] + ai
            gb = starts[seg] + bi
            a_t = tu[ga]
            b_t = tu[gb]
            follows = mn[ga] < mx[gb]
            np.add.at(both, (a_t, b_t), 1)
            np.add.at(sup, (a_t[follows], b_t[follows]), 1)
        nz = np.nonzero(both)
        return pa.table({
            "type_a": te.dictionary.take(
                pa.array(nz[0], pa.int64())).cast(pa.string()),
            "type_b": te.dictionary.take(
                pa.array(nz[1], pa.int64())).cast(pa.string()),
            "n_keys": pa.array(sup[nz]),
            "n_both": pa.array(both[nz])})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    partials = partitioned_refs(prepped, kernel, key=key_col,
                                sort_keys=[key_col, "__ty", "__ts"],
                                num_partitions=num_partitions)
    agg = sum_partials(ray.get(partials),
                       keys=["type_a", "type_b"],
                       vals=["n_keys", "n_both"])
    if agg is None:
        return pa.table({"type_a": pa.array([], pa.string()),
                         "type_b": pa.array([], pa.string()),
                         "n_keys": pa.array([], pa.int64()),
                         "n_both": pa.array([], pa.int64())})
    return agg


def transition_predictability(ds, *, key_col: str, ts_col: str,
                              seq_col: str, type_col: str,
                              num_partitions: int = 16):
    """Per-key behavioral predictability — the Simpson concentration
    of the key's OBSERVED type transitions: ``pred = Σ_ij c_ij² /
    (Σ_ij c_ij)²`` over adjacent-event type pairs in ``(ts, seq)``
    order (1 = the key always makes the same move, →0 = uniformly
    unpredictable).  The per-key miniature of the global transition
    matrix (:func:`event_transition_counts`), log-free (the q176
    inverse-Simpson trick) so it stays exact.

    Exact int64 pair counts in ONE key-keyed exchange (shifted
    segment compare + dense pair cells); outputs the exact sufficient
    statistics plus ONE IEEE division — SQL replays with lead() +
    GROUP BY + the identical expression.  Keys with < 2 events emit
    NULL.  NULL key/ts/seq/type rows drop.

    Emits ``(key_col, n_trans:int64, sum_sq:int64,
    predictability:float64)``.
    Reference analog: none (behavioral family: transitions /
    burstiness / phase conformity).
    """
    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b[key_col])
        for c in (ts_col, seq_col, type_col):
            keep = pc.and_(keep, pc.is_valid(b[c]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({key_col: b[key_col], "__ts": ts,
                         "__s": b[seq_col].combine_chunks().cast(
                             pa.int64()),
                         "__ty": b[type_col].combine_chunks()
                        .cast(pa.string())})

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type
    empty = pa.table({key_col: pa.array([], ktype),
                      "n_trans": pa.array([], pa.int64()),
                      "sum_sq": pa.array([], pa.int64()),
                      "predictability": pa.array([], pa.float64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        te = pc.dictionary_encode(t["__ty"].combine_chunks())
        tc = te.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        n_types = len(te.dictionary)
        same = np.concatenate([[False], codes[1:] == codes[:-1]])
        frm = np.concatenate([[0], tc[:-1]])
        pair = np.where(same, frm * n_types + tc, -1)
        valid = same
        # per-(key, pair) counts via lexsort runs
        kk = codes[valid]
        pp = pair[valid]
        o = np.lexsort((pp, kk))
        kk, pp = kk[o], pp[o]
        if len(kk):
            new = np.concatenate([[True], (kk[1:] != kk[:-1])
                                  | (pp[1:] != pp[:-1])])
            st = np.flatnonzero(new)
            cnt = np.diff(np.append(st, len(kk)))
            ck = kk[st]
        else:
            cnt = np.empty(0, np.int64)
            ck = np.empty(0, np.int64)
        # per-key Σc and Σc² (guard: Σc² ≤ (Σc)² < 2^63 needs
        # n_trans per key < ~3e9 — raise far before)
        n_keys = int(codes.max()) + 1 if len(codes) else 0
        tot = np.zeros(n_keys, np.int64)
        ssq = np.zeros(n_keys, np.int64)
        np.add.at(tot, ck, cnt)
        if len(tot) and int(tot.max()) > 3_000_000_000:
            raise ValueError("transition_predictability int64 "
                             "guard exceeded")
        np.add.at(ssq, ck, cnt * cnt)
        first = np.searchsorted(codes, np.arange(n_keys))
        has = tot > 0
        pred = np.where(has,
                        ssq.astype(np.float64)
                        / (tot.astype(np.float64)
                           * tot.astype(np.float64)),
                        np.nan)
        return pa.table({
            key_col: keys.take(pa.array(first, pa.int64())),
            "n_trans": pa.array(tot),
            "sum_sq": pa.array(ssq),
            "predictability": pa.array(pred, pa.float64(),
                                       mask=~has)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts", "__s"],
                           num_partitions=num_partitions)


def oscillation_audit(ds, *, key_col: str, ts_col: str,
                      seq_col: str, type_col: str,
                      num_partitions: int = 16):
    """Tool-loop / oscillation audit per key — the length of the
    longest A-B-A-B… alternating run of types in ``(ts, seq)``
    order: the stuck-agent signature (a tool call and its error
    handler ping-ponging) that plain transition counts smear away.

    A position extends a run when ``t_i == t_{i-2}`` and
    ``t_i != t_{i-1}``; the run's LENGTH counts its events (so a
    minimal detected loop A-B-A has length 3).  Keys with no such
    position report 0.

    Exact int run arithmetic over ONE key-keyed exchange (vectorized
    consecutive-True run lengths per segment); SQL replays with two
    lags + gaps-and-islands.  NULL key/ts/seq/type rows drop.

    Emits ``(key_col, n:int64, longest_osc:int64,
    n_osc_events:int64 — positions extending some run)``.
    Reference analog: none (behavioral-audit family).
    """
    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_valid(b[key_col])
        for c in (ts_col, seq_col, type_col):
            keep = pc.and_(keep, pc.is_valid(b[c]))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({key_col: b[key_col], "__ts": ts,
                         "__s": b[seq_col].combine_chunks().cast(
                             pa.int64()),
                         "__ty": b[type_col].combine_chunks()
                        .cast(pa.string())})

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ktype = base.field(key_col).type
    empty = pa.table({key_col: pa.array([], ktype),
                      "n": pa.array([], pa.int64()),
                      "longest_osc": pa.array([], pa.int64()),
                      "n_osc_events": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        tc = pc.dictionary_encode(
            t["__ty"].combine_chunks()).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        n = len(codes)
        same_key1 = np.concatenate([[False],
                                    codes[1:] == codes[:-1]])
        same_key2 = np.concatenate([[False, False],
                                    codes[2:] == codes[:-2]])
        t1 = np.concatenate([[0], tc[:-1]])
        t2 = np.concatenate([[0, 0], tc[:-2]])
        ok = same_key1 & same_key2 & (tc == t2) & (tc != t1)
        # consecutive-True run length ending at i (vectorized):
        # cumsum minus its value at the last False
        cs = np.cumsum(ok.astype(np.int64))
        last_false = np.maximum.accumulate(
            np.where(~ok, cs, 0))
        runlen = np.where(ok, cs - last_false, 0)
        n_keys = int(codes.max()) + 1 if n else 0
        cnt = np.bincount(codes, minlength=n_keys).astype(np.int64)
        longest = np.zeros(n_keys, np.int64)
        np.maximum.at(longest, codes, runlen)
        longest = np.where(longest > 0, longest + 2, 0)
        osc = np.zeros(n_keys, np.int64)
        np.add.at(osc, codes, ok.astype(np.int64))
        first = np.searchsorted(codes, np.arange(n_keys))
        return pa.table({
            key_col: keys.take(pa.array(first, pa.int64())),
            "n": pa.array(cnt),
            "longest_osc": pa.array(longest),
            "n_osc_events": pa.array(osc)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__ts", "__s"],
                           num_partitions=num_partitions)


def session_coactivity(ds, *, key_col: str, ts_col: str,
                       gap_s: float = 1800.0,
                       window_s: float = 300.0,
                       min_others: int = 3,
                       num_partitions: int = 16):
    """Coordinated-behavior audit — for every SESSION START (q06 gap
    rule), how many OTHER keys also started a session within
    ``±window_s``: organic users start independently; raids, bot
    fleets and scripted cohorts start together.  Summarized per key:
    session count, the max coactivity any of its starts saw, and how
    many of its starts were "coordinated" (≥ ``min_others``).

    Exact int counts, two exchanges: (1) the standard key-keyed
    sessionizer emits start rows; (2) starts ride to time buckets of
    width 2·window (anchors once, probes to bucket±1), and each
    bucket's kernel counts in-range probes per anchor with TWO
    searchsorted passes (all probes by ts; same-key probes by a
    composite (key, rel-ts) key) — coactivity = total − same_key,
    the anchor cancelling inside the same-key count.  SQL replays
    with a lag-based start CTE + a banded self-join.

    NULL key/ts rows drop.  Emits ``(key_col, n_sessions:int64,
    max_coactive:int64, n_coordinated:int64)``.
    Reference analog: none (abuse-audit family: ts_collision_audit /
    profile_similarity / oscillation_audit).
    """
    gapn = _gap_native(ds, ts_col, gap_s)
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    tt = base.field(ts_col).type
    unit = tt.unit if pa.types.is_timestamp(tt) else "us"
    mult = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}[unit]
    W = int(round(float(window_s) * mult))
    ktype = base.field(key_col).type

    base_prep = _session_prep(key_col, ts_col, [])

    def prep(b: pa.Table) -> pa.Table:
        # NULL keys drop (the banded self-join oracle can't treat a
        # NULL group as an actor; _session_prep alone keeps them)
        return base_prep(b.filter(pc.is_valid(b[key_col])))

    start_empty = pa.table({key_col: pa.array([], ktype),
                            "__ts": pa.array([], pa.int64())})

    def start_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return start_empty
        sid = _session_ids(t, key_col, gapn)
        first = np.concatenate([[True], sid[1:] != sid[:-1]])
        idx = np.flatnonzero(first)
        return pa.table({
            key_col: t[key_col].combine_chunks().take(
                pa.array(idx, pa.int64())),
            "__ts": pa.array(t["__ts"].to_numpy(
                zero_copy_only=False)[idx])})

    starts = partitioned_map(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        start_kernel, key=key_col, sort_keys=[key_col, "__ts"],
        num_partitions=num_partitions)

    BW = 2 * W if W > 0 else 1

    def spread(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "__ts" not in b.column_names:
            return pa.table({"__b": pa.array([], pa.int64()),
                             "tag": pa.array([], pa.int8()),
                             key_col: pa.array([], ktype),
                             "__ts": pa.array([], pa.int64())})
        ts = b["__ts"].to_numpy(zero_copy_only=False)
        bk = ts // BW
        n = b.num_rows
        keys = b[key_col].combine_chunks()
        rep = pa.array(np.repeat(np.arange(n), 3), pa.int64())
        probes_b = np.stack([bk - 1, bk, bk + 1], axis=1).ravel()
        anchor = pa.table({
            "__b": pa.array(bk),
            "tag": pa.array(np.zeros(n, np.int8)),
            key_col: keys,
            "__ts": pa.array(ts)})
        probes = pa.table({
            "__b": pa.array(probes_b),
            "tag": pa.array(np.ones(3 * n, np.int8)),
            key_col: keys.take(rep),
            "__ts": pa.array(np.repeat(ts, 3))})
        return pa.concat_tables([anchor, probes])

    pair_empty = pa.table({key_col: pa.array([], ktype),
                           "coact": pa.array([], pa.int64())})

    def count_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "tag" not in t.column_names:
            return pair_empty
        tag = t["tag"].to_numpy(zero_copy_only=False)
        ts = t["__ts"].to_numpy(zero_copy_only=False)
        bk = t["__b"].to_numpy(zero_copy_only=False) \
            if "__b" in t.column_names else None
        if bk is None:
            return pair_empty
        keys = t[key_col].combine_chunks()
        kc = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        a = tag == 0
        if not a.any():
            return pair_empty
        # a hash partition holds MANY buckets — all searches run on
        # composite (dense-bucket, rel-ts) keys so buckets never mix;
        # probe replicas sit within one bucket width of their bucket,
        # so rel = ts − bucket·BW + BW ∈ [0, 3·BW)
        ub = np.unique(bk)
        bidx = np.searchsorted(ub, bk)
        rel = ts - bk * BW + BW
        SPAN = 3 * BW + 2
        nk = int(kc.max()) + 1
        if len(ub) and int(len(ub)) * nk > (2**63 - 1) // SPAN:
            raise ValueError("session_coactivity composite-key "
                             "guard exceeded; raise num_partitions")
        comp_p = np.sort(bidx[~a] * SPAN + rel[~a])
        lo = bidx[a] * SPAN + (rel[a] - W)
        hi = bidx[a] * SPAN + (rel[a] + W)
        total = (np.searchsorted(comp_p, hi, side="right")
                 - np.searchsorted(comp_p, lo, side="left"))
        comp2_p = np.sort((bidx[~a] * nk + kc[~a]) * SPAN
                          + rel[~a])
        lo2 = (bidx[a] * nk + kc[a]) * SPAN + (rel[a] - W)
        hi2 = (bidx[a] * nk + kc[a]) * SPAN + (rel[a] + W)
        same = (np.searchsorted(comp2_p, hi2, side="right")
                - np.searchsorted(comp2_p, lo2, side="left"))
        coact = total - same
        return pa.table({key_col: keys.take(
            pa.array(np.flatnonzero(a), pa.int64())),
            "coact": pa.array(coact)})

    counts = partitioned_refs(
        starts.map_batches(spread, batch_format="pyarrow",
                           zero_copy_batch=True),
        count_kernel, key="__b", sort_keys=["__b", "tag", "__ts"],
        num_partitions=num_partitions)

    empty = pa.table({key_col: pa.array([], ktype),
                      "n_sessions": pa.array([], pa.int64()),
                      "max_coactive": pa.array([], pa.int64()),
                      "n_coordinated": pa.array([], pa.int64())})

    def agg_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        kc = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        co = t["coact"].to_numpy(zero_copy_only=False)
        n_keys = int(kc.max()) + 1 if len(kc) else 0
        ns = np.bincount(kc, minlength=n_keys).astype(np.int64)
        mx = np.zeros(n_keys, np.int64)
        np.maximum.at(mx, kc, co)
        nc = np.zeros(n_keys, np.int64)
        np.add.at(nc, kc, (co >= min_others).astype(np.int64))
        first = np.searchsorted(kc, np.arange(n_keys))
        return pa.table({
            key_col: keys.take(pa.array(first, pa.int64())),
            "n_sessions": pa.array(ns),
            "max_coactive": pa.array(mx),
            "n_coordinated": pa.array(nc)})

    return partitioned_map([counts], agg_kernel, key=key_col,
                           sort_keys=[key_col],
                           num_partitions=num_partitions)


def dialogue_profile(ds, *, key_col: str, ts_col: str,
                     order_col: str, type_col: str,
                     num_partitions: int = 16):
    """Per-key dialogue-structure profile — the turn-sequence shape
    features a transcript pipeline wants per conversation: total
    turns, number of same-type runs (role alternations + 1), the
    longest same-type run, and the distinct type count.  A
    two-same-role-turns-in-a-row anomaly shows up as
    ``max_run > 1``; strict alternation gives ``n_runs == n_turns``.

    All-integer (exact in SQL: islands via ``row_number`` differences,
    run lengths via ``count(*)`` per island).  Rows with NULL
    key/ts/order/type drop; ``(ts, order)`` orders each timeline.

    One keyed exchange; the kernel is shifted compares + ``reduceat``
    — no per-row Python.  Returns ``(key_col, n_turns:int64,
    n_runs:int64, max_run:int64, n_types:int64)``.
    Reference analog: none (transcript-feature family next to
    transition counts / predictability / oscillation)."""
    if num_partitions < 1:
        raise ValueError("dialogue_profile: num_partitions >= 1")

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    key_type = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        mask = pc.is_valid(b[key_col])
        for c in (ts_col, order_col, type_col):
            mask = pc.and_(mask, pc.is_valid(b[c]))
        mask = pc.fill_null(mask, False)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        t = pa.table({key_col: b[key_col], "__t": ts,
                      "__o": b[order_col], "__ty": b[type_col]})
        if not pc.all(mask).as_py():
            t = t.filter(mask)
        return t

    empty = pa.table({key_col: pa.array([], key_type),
                      "n_turns": pa.array([], pa.int64()),
                      "n_runs": pa.array([], pa.int64()),
                      "max_run": pa.array([], pa.int64()),
                      "n_types": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        kc = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        tc = pc.dictionary_encode(t["__ty"].combine_chunks()) \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        new_key = np.concatenate([[True], kc[1:] != kc[:-1]])
        kstarts = np.flatnonzero(new_key)
        n_keys = len(kstarts)
        n_turns = np.diff(np.append(kstarts, len(kc))).astype(np.int64)
        # runs: a new run at each key start or type change
        new_run = new_key | np.concatenate([[True], tc[1:] != tc[:-1]])
        run_starts = np.flatnonzero(new_run)
        run_lens = np.diff(np.append(run_starts,
                                     len(kc))).astype(np.int64)
        krun = np.cumsum(new_key.astype(np.int64)) - 1
        n_runs = np.zeros(n_keys, np.int64)
        np.add.at(n_runs, krun[run_starts], 1)
        max_run = np.zeros(n_keys, np.int64)
        np.maximum.at(max_run, krun[run_starts], run_lens)
        # distinct types per key: unique (key, type) composite codes,
        # mapped back to run slots vectorized (dictionary codes of a
        # value-sorted table are NOT necessarily ascending, so go
        # through an argsort of the per-key codes)
        width = np.int64(tc.max()) + 1 if len(tc) else np.int64(1)
        uniq = np.unique(kc * width + tc)
        ku = uniq // width
        kcodes = kc[kstarts]
        order = np.argsort(kcodes, kind="stable")
        slots = order[np.searchsorted(kcodes[order], ku)]
        n_types = np.zeros(n_keys, np.int64)
        np.add.at(n_types, slots, 1)
        return pa.table({
            key_col: keys.take(pa.array(kstarts, pa.int64())),
            "n_turns": pa.array(n_turns),
            "n_runs": pa.array(n_runs),
            "max_run": pa.array(max_run),
            "n_types": pa.array(n_types)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__t", "__o"],
                           num_partitions=num_partitions)


def latency_profile(ds, *, key_col: str, ts_col: str,
                    order_col: str, num_partitions: int = 16):
    """Per-key inter-event latency profile — the north-star's
    "inter-turn latency stats" as exact order statistics: number of
    gaps, median gap, p90 gap, and max gap (all int64 native time
    units, ``quantile_disc`` convention via the shared
    ``_disc_index_vec`` so SQL replays element-exactly).  Keys with a
    single event emit NULL stats (no gaps).

    One keyed exchange; gaps are one shifted diff per partition,
    per-key order statistics via one lexsort over (segment, gap) +
    the vectorized disc-rank gather — no per-row Python.

    Returns ``(key_col, n_gaps:int64, median_gap:int64,
    p90_gap:int64, max_gap:int64)``.  NULL key/ts/order rows drop.
    Reference analog: windowed-aggregate family (the latency stats
    the reference computes per entry, per conversation here)."""
    from .quantile import _disc_index_vec

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    key_type = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        mask = pc.is_valid(b[key_col])
        for c in (ts_col, order_col):
            mask = pc.and_(mask, pc.is_valid(b[c]))
        mask = pc.fill_null(mask, False)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        t = pa.table({key_col: b[key_col], "__t": ts,
                      "__o": b[order_col]})
        if not pc.all(mask).as_py():
            t = t.filter(mask)
        return t

    empty = pa.table({key_col: pa.array([], key_type),
                      "n_gaps": pa.array([], pa.int64()),
                      "median_gap": pa.array([], pa.int64()),
                      "p90_gap": pa.array([], pa.int64()),
                      "max_gap": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        kc = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = t["__t"].to_numpy(zero_copy_only=False)
        new_key = np.concatenate([[True], kc[1:] != kc[:-1]])
        kstarts = np.flatnonzero(new_key)
        n_keys = len(kstarts)
        # gaps: diff within segments (rows 1.. of each segment)
        is_gap = ~new_key
        gaps = (ts - np.concatenate([[0], ts[:-1]]))[is_gap]
        gseg = (np.cumsum(new_key.astype(np.int64)) - 1)[is_gap]
        n_gaps = np.zeros(n_keys, np.int64)
        np.add.at(n_gaps, gseg, 1)
        has = n_gaps > 0
        med = np.zeros(n_keys, np.int64)
        p90 = np.zeros(n_keys, np.int64)
        mx = np.zeros(n_keys, np.int64)
        if len(gaps):
            order = np.lexsort((gaps, gseg))
            gs, gv = gseg[order], gaps[order]
            seg_first = np.concatenate(
                [[True], gs[1:] != gs[:-1]])
            starts = np.flatnonzero(seg_first)
            lens = np.diff(np.append(starts, len(gs)))
            seg_ids = gs[starts]
            med[seg_ids] = gv[starts + _disc_index_vec(0.5, lens)]
            p90[seg_ids] = gv[starts + _disc_index_vec(0.9, lens)]
            mx[seg_ids] = gv[starts + lens - 1]
        return pa.table({
            key_col: keys.take(pa.array(kstarts, pa.int64())),
            "n_gaps": pa.array(n_gaps),
            "median_gap": pa.array(med, pa.int64(), mask=~has),
            "p90_gap": pa.array(p90, pa.int64(), mask=~has),
            "max_gap": pa.array(mx, pa.int64(), mask=~has)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__t", "__o"],
                           num_partitions=num_partitions)


def paired_spans(ds, *, key_col: str, ts_col: str, order_col: str,
                 type_col: str, start_type: str, end_type: str,
                 num_partitions: int = 16):
    """Span reconstruction from start/end event pairs — per key, the
    n-th ``start_type`` event pairs with the n-th ``end_type`` event
    (rank pairing in ``(ts, order)`` order): tool-call / job-run
    duration extraction from an event log.  Rank pairing is the
    deterministic, SQL-replayable discipline (a FULL JOIN of
    row_number-ranked starts and ends); unmatched ranks keep a NULL
    other side, and a negative duration (end before its rank-mate
    start) is emitted as-is — both are the audit signals.

    One keyed exchange; ranks via masks + cumsum, pairing by
    searchsorted positions of both sides' composite (key-run, rank)
    codes in their union.
    All int64 native time units.  Returns ``(key_col,
    span_idx:int64, start_ts, end_ts, duration:int64)`` (NULLs where
    a side is missing).  NULL key/ts/order/type rows drop.
    Reference analog: none (event-log family next to funnel /
    next_latency — those answer "did/when next"; this builds the
    full span table)."""
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    key_type = base.field(key_col).type

    def prep(b: pa.Table) -> pa.Table:
        mask = pc.is_valid(b[key_col])
        for c in (ts_col, order_col, type_col):
            mask = pc.and_(mask, pc.is_valid(b[c]))
        mask = pc.and_(mask, pc.is_in(
            b[type_col], value_set=pa.array([start_type, end_type])))
        mask = pc.fill_null(mask, False)
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        t = pa.table({key_col: b[key_col], "__t": ts,
                      "__o": b[order_col],
                      "__is_start": pc.equal(b[type_col],
                                             start_type)})
        if not pc.all(mask).as_py():
            t = t.filter(mask)
        return t

    empty = pa.table({key_col: pa.array([], key_type),
                      "span_idx": pa.array([], pa.int64()),
                      "start_ts": pa.array([], pa.int64()),
                      "end_ts": pa.array([], pa.int64()),
                      "duration": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        kc = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = t["__t"].to_numpy(zero_copy_only=False)
        st = t["__is_start"].to_numpy(zero_copy_only=False)
        new_key = np.concatenate([[True], kc[1:] != kc[:-1]])
        seg = np.cumsum(new_key.astype(np.int64)) - 1
        # per-segment rank among starts / among ends (0-based)
        def seg_rank(mask):
            c = np.cumsum(mask.astype(np.int64))
            seg_first = np.flatnonzero(new_key)[seg]
            base_ = np.where(seg_first > 0,
                             c[np.maximum(seg_first - 1, 0)], 0)
            return c - base_ - 1            # valid where mask
        rs = seg_rank(st)
        re_ = seg_rank(~st)
        n_rows = len(kc)
        if n_rows == 0:
            return empty
        # composite (segment, rank) codes; max rank bounded by rows
        Wd = np.int64(n_rows) + 1
        s_idx = np.flatnonzero(st)
        e_idx = np.flatnonzero(~st)
        s_code = seg[s_idx] * Wd + rs[s_idx]
        e_code = seg[e_idx] * Wd + re_[e_idx]
        all_code = np.union1d(s_code, e_code)
        s_pos = np.searchsorted(all_code, s_code)
        e_pos = np.searchsorted(all_code, e_code)
        n_sp = len(all_code)
        st_ts = np.zeros(n_sp, np.int64)
        st_ok = np.zeros(n_sp, bool)
        en_ts = np.zeros(n_sp, np.int64)
        en_ok = np.zeros(n_sp, bool)
        st_ts[s_pos] = ts[s_idx]
        st_ok[s_pos] = True
        en_ts[e_pos] = ts[e_idx]
        en_ok[e_pos] = True
        span_seg = (all_code // Wd).astype(np.int64)
        span_idx = (all_code % Wd).astype(np.int64)
        first_rows = np.flatnonzero(new_key)
        key_of_span = keys.take(pa.array(first_rows[span_seg],
                                         pa.int64()))
        dur = en_ts - st_ts
        both = st_ok & en_ok
        return pa.table({
            key_col: key_of_span,
            "span_idx": pa.array(span_idx),
            "start_ts": pa.array(st_ts, pa.int64(), mask=~st_ok),
            "end_ts": pa.array(en_ts, pa.int64(), mask=~en_ok),
            "duration": pa.array(dur, pa.int64(), mask=~both)})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, "__t", "__o"],
                           num_partitions=num_partitions)
