"""Graph operators over int64 node ids, and the vertex-program round
that the iterative ones share.

The iterative operators -- :func:`pagerank`, :func:`k_core`,
:func:`bfs_hops` and ``components.min_label_components`` -- are vertex
programs: every node holds one value row keyed ``__k``, and each round
is one :func:`superstep` over block refs.  A superstep is two
``__k``-keyed task exchanges, each with one sorted table per input
(:func:`node_exchange`):

1. ``send(values, edges)``, keyed by the owner, routes each node's value
   onto its out-edges and returns only the messages, keyed ``__k`` by
   the recipient;
2. ``fold(values, msgs)``, keyed by the recipient, folds each node's
   messages into its new value row.

The edge blocks are materialized once (:func:`half_edges` gives both
directions of an undirected edge list) and re-split every round; the
values stay block refs from round to round, and a round's
``changed`` count is one small task per block (:func:`changed_rows`), so
no round runs a Ray Data execution and nothing graph-sized reaches the
driver.  Every fold and min is an exact integer operation, so the
result does not depend on partitioning or block layout.  Each returns
a Dataset whose blocks all carry its declared columns, an empty graph
included: the last values go through one small task per block
(:func:`map_blocks`), which also runs on an empty block.

The two-exchange operators (:func:`triangle_count`,
:func:`two_hop_reach`, :func:`window_cooccurrence_edges`) hand the
first exchange's gather refs straight to the second
(``partitioned_refs``), so the middle result is never a Dataset.

:func:`pagerank` runs the iteration in scaled INTEGERS: ranks are int64
in units of ``2^-scale_bits``, each edge contributes ``rank // outdeg``
(floor division), and the update is

    r' = (3·S) // 20  +  (17 · Σ contrib) // 20        (damping 0.85)

-- every operation an exact integer op, so the result is independent of
summation order and partitioning, and replays bit-exactly in SQL.  The
quantization error vs real PageRank is ≤ outdeg·2^-scale_bits per node
per iteration -- noise at ``scale_bits=40``.  Its ``send`` pre-aggregates
per partition (one ``(dst, partial_sum)`` row per destination it
touches), so the message exchange moves O(partitions × nodes touched),
never O(edges).

Reference analog: none (no graph ops in the reference); added as the
iterative-algorithm representative alongside k-means
(``stages/kmeans.py``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import segments as seg

__all__ = ["bfs_hops", "changed_rows", "degree_assortativity",
           "half_edges", "k_core", "map_blocks", "node_exchange",
           "pagerank", "superstep", "triangle_count", "two_hop_reach",
           "window_cooccurrence_edges"]


def half_edges(edges_ds, a: str, b: str, *, who: str) -> list:
    """Block refs of the half-edges ``(__k, to)`` int64 of the edge list
    ``(a, b)``, in both directions, materialized once: the edge input a
    vertex program re-reads every round.  A NULL id raises
    ``ValueError`` naming ``who``."""
    from .partition import materialized_block_refs

    def symm(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # zero-column empty blocks included
            return pa.table({"__k": pa.array([], pa.int64()),
                             "to": pa.array([], pa.int64())})
        if t[a].null_count or t[b].null_count:
            raise ValueError(f"{who}: NULL node ids in the edge list")
        s = t[a].combine_chunks().cast(pa.int64())
        d = t[b].combine_chunks().cast(pa.int64())
        return pa.table({"__k": pa.concat_arrays([s, d]),
                         "to": pa.concat_arrays([d, s])})

    return materialized_block_refs(edges_ds.map_batches(
        symm, batch_format="pyarrow", zero_copy_batch=True))


def node_exchange(inputs, kernel, num_partitions: int) -> list:
    """``partitioned_refs`` keyed on the node id ``__k``: runs
    ``kernel(t_0, ..., t_k)`` once per hash partition over ``inputs``
    (lists of block refs, or Datasets), each input one table sorted by
    ``__k``, tied rows in block order, an input with no rows there
    empty in its own schema.  Returns the gather refs."""
    from .partition import partitioned_refs

    return partitioned_refs(inputs, kernel, key="__k",
                            sort_keys=[["__k"]] * len(inputs),
                            num_partitions=num_partitions)


def superstep(values, edges, send, fold, num_partitions: int) -> list:
    """One vertex-program round over block refs: ``send(values, edges)``
    runs keyed on the owner and returns the messages keyed ``__k`` by
    recipient; ``fold(values, msgs)`` runs keyed on the recipient and
    returns the new value rows, whose block refs come back."""
    msgs = node_exchange([values, edges], send, num_partitions)
    return node_exchange([values, msgs], fold, num_partitions)


def map_blocks(fn, refs) -> list:
    """``fn`` over each block of ``refs``, one small task per block."""
    import ray

    task = ray.remote(fn)
    return [task.remote(r) for r in refs]


def changed_rows(refs) -> int:
    """The sum of ``changed`` over the value blocks ``refs``, one small
    task per block (no Ray Data execution)."""
    import ray

    return sum(ray.get(map_blocks(
        lambda t: pc.sum(t["changed"]).as_py() or 0, refs)))


def pagerank(edges_ds, *, src_col: str = "src", dst_col: str = "dst",
             iters: int = 3, scale_bits: int = 40,
             num_partitions: int = 16):
    """PageRank over a directed edge list (int64 node ids, pre-deduped,
    every node present as a ``src`` at least once — callers with
    dangling nodes add self-loops or filter).  Returns ``(node:int64,
    rank:int64)`` with ranks in units of ``2^-scale_bits``.

    One src-keyed exchange attaches out-degrees to the edges, whose
    blocks every round re-reads; each of ``iters`` rounds is one
    :func:`superstep`."""
    import ray

    S = 1 << scale_bits
    T = (3 * S) // 20

    def prep(b: pa.Table) -> pa.Table:
        if b[src_col].null_count or b[dst_col].null_count:
            raise ValueError("pagerank: NULL node ids in the edge list")
        return pa.table({
            "__k": b[src_col].combine_chunks().cast(pa.int64()),
            "dst": b[dst_col].combine_chunks().cast(pa.int64())})

    def with_outdeg(e: pa.Table) -> pa.Table:
        n = seg.ints(e, "__k")
        starts = seg.run_starts(n)
        lens = np.diff(np.append(starts, len(n)))
        return e.append_column("outdeg", pa.array(np.repeat(lens, lens)))

    edges = node_exchange([edges_ds.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True)],
        with_outdeg, num_partitions)

    def init_ranks(e: pa.Table) -> pa.Table:
        # an edge block is a whole src partition, so its first row of
        # each run gives each node exactly once
        n = seg.ints(e, "__k")
        n = n[seg.run_starts(n)]
        return pa.table({"__k": pa.array(n),
                         "r": pa.array(np.full(len(n), S, np.int64))})

    def contrib(ranks: pa.Table, e: pa.Table) -> pa.Table:
        # every edge's source must have exactly one rank row
        rn = seg.ints(ranks, "__k")
        starts, run = seg.owners(
            rn, seg.ints(e, "__k"),
            "pagerank: node with edges but no rank row — edge list "
            "mutated between iterations")
        # a block split mid-partition in init_ranks would silently
        # duplicate mass — fail loudly instead
        if len(starts) < len(rn):
            raise ValueError("pagerank: duplicate rank rows for a node "
                             "(init saw a split partition block)")
        c = seg.ints(ranks, "r")[run] // seg.ints(e, "outdeg")
        u, inv = np.unique(seg.ints(e, "dst"), return_inverse=True)
        ps = np.zeros(len(u), np.int64)
        np.add.at(ps, inv, c)
        return pa.table({"__k": pa.array(u, pa.int64()),
                         "ps": pa.array(ps)})

    def update(ranks: pa.Table, parts: pa.Table) -> pa.Table:
        # partials of a dst without a rank row are stale: dropped
        pn = seg.ints(parts, "__k")
        pst = seg.run_starts(pn)
        s = (np.add.reduceat(seg.ints(parts, "ps"), pst) if len(pst)
             else np.empty(0, np.int64))
        if len(s) and int(np.abs(s).max()) > (1 << 62) // 17:
            raise ValueError("pagerank: contribution sum near int64 "
                             "overflow — raise num_partitions or lower "
                             "scale_bits")
        n = seg.ints(ranks, "__k")
        n = n[seg.run_starts(n)]
        r_new = T + (17 * np.append(s, 0)[seg.lookup(pn[pst], n)]) // 20
        return pa.table({"__k": pa.array(n, pa.int64()),
                         "r": pa.array(r_new, pa.int64())})

    ranks = map_blocks(init_ranks, edges)
    for _ in range(iters):
        ranks = superstep(ranks, edges, contrib, update, num_partitions)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["__k"], "rank": b["r"]})

    return ray.data.from_arrow_refs(map_blocks(rename, ranks))


def triangle_count(edges_ds, *, src_col: str = "src",
                   dst_col: str = "dst", max_degree: int = 4096,
                   num_partitions: int = 16) -> pa.Table:
    """Exact global triangle census over an undirected edge list —
    the graph-clustering diagnostic (how cliquish is a similarity /
    co-occurrence graph) behind community pruning of near-duplicate
    clusters.  Returns ONE row ``(n_edges, n_wedges,
    n_triangles)``, all exact int64.

    Plan — the classic two-round wedge check, all keyed exchanges:

    1. edges normalize to ``(min, max)`` (self-loops and NULLs drop)
       and post BOTH directions; exchange 1 keyed on the center node
       dedups multi-edges per run and enumerates each center's
       neighbor-pair WEDGES fully vectorized (triangular index
       decode).  Nodes with degree > ``max_degree`` RAISE — the
       degree-orientation variant is the documented scale upgrade for
       power-law graphs.
    2. exchange 2 keyed on the wedge endpoints co-locates wedges with
       the (deduped) edge rows; a wedge whose endpoints are an edge
       closes a triangle.  Every triangle closes exactly 3 wedges, so
       ``n_triangles = matches // 3``.

    The driver merges one tiny partial row per partition (Python-int
    sums).  SQL replay: the ``a<b<c`` three-way self-join.
    """
    import ray

    from .partition import partitioned_refs, sum_partials

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(pc.is_valid(b[src_col]),
                                    pc.is_valid(b[dst_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        s = b[src_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        d = b[dst_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        m = s != d  # drop self-loops
        s, d = s[m], d[m]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        # both directions: (center, neighbor)
        return pa.table({
            "__m": pa.array(np.concatenate([lo, hi]), pa.int64()),
            "__n": pa.array(np.concatenate([hi, lo]), pa.int64())})

    posted = edges_ds.map_batches(prep, batch_format="pyarrow",
                                  zero_copy_batch=True)

    mid_empty = pa.table({"x": pa.array([], pa.int64()),
                          "y": pa.array([], pa.int64()),
                          "cnt": pa.array([], pa.int64()),
                          "tag": pa.array([], pa.int8())})

    def wedge_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "__m" not in t.column_names:
            return mid_empty
        m = t["__m"].to_numpy(zero_copy_only=False)
        n = t["__n"].to_numpy(zero_copy_only=False)
        # dedup multi-edges: distinct (m, n) — rows sorted by (m, n)
        first = np.concatenate([[True], (m[1:] != m[:-1])
                                | (n[1:] != n[:-1])])
        m, n = m[first], n[first]
        new_run = np.concatenate([[True], m[1:] != m[:-1]])
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(m)]]))
        if len(lens) and int(lens.max()) > max_degree:
            raise ValueError("triangle_count: node degree "
                             f"{int(lens.max())} > max_degree — use a "
                             "degree-oriented variant for this graph")
        # edge rows (tag 0): each undirected edge once (m < n)
        e_mask = m < n
        parts_x = [m[e_mask]]
        parts_y = [n[e_mask]]
        parts_c = [np.ones(int(e_mask.sum()), np.int64)]
        parts_t = [np.zeros(int(e_mask.sum()), np.int8)]
        # wedges: per center, all sorted-neighbor pairs (x < y)
        from ..functions.segments import triangular_pairs

        i_glob, j_glob, _seg = triangular_pairs(starts, lens)
        if len(i_glob):
            # neighbors are sorted within a run, so x < y already
            wx, wy = n[i_glob], n[j_glob]
            order = np.lexsort((wy, wx))
            wx, wy = wx[order], wy[order]
            wf = np.concatenate([[True], (wx[1:] != wx[:-1])
                                 | (wy[1:] != wy[:-1])])
            st = np.flatnonzero(wf)
            wc = np.diff(np.concatenate([st, [len(wx)]]))
            parts_x.append(wx[st])
            parts_y.append(wy[st])
            parts_c.append(wc.astype(np.int64))
            parts_t.append(np.ones(len(st), np.int8))
        return pa.table({
            "x": pa.array(np.concatenate(parts_x), pa.int64()),
            "y": pa.array(np.concatenate(parts_y), pa.int64()),
            "cnt": pa.array(np.concatenate(parts_c)),
            "tag": pa.array(np.concatenate(parts_t))})

    mid = partitioned_refs(posted, wedge_kernel, key="__m",
                           sort_keys=["__m", "__n"],
                           num_partitions=num_partitions)

    out_empty = pa.table({"n_edges": pa.array([], pa.int64()),
                          "n_wedges": pa.array([], pa.int64()),
                          "matches": pa.array([], pa.int64())})

    def close_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "x" not in t.column_names:
            return out_empty
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        tag = t["tag"].to_numpy(zero_copy_only=False)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        new_run = np.concatenate([[True], (x[1:] != x[:-1])
                                  | (y[1:] != y[:-1])])
        starts = np.flatnonzero(new_run)
        run_id = np.cumsum(new_run.astype(np.int64)) - 1
        is_edge = tag == 0
        has_edge = np.zeros(len(starts), bool)
        has_edge[run_id[is_edge]] = True
        wedge_cnt = np.where(tag == 1, cnt, 0)
        per_run_w = np.add.reduceat(wedge_cnt, starts)
        n_edges = int(is_edge.sum())
        n_wedges = int(wedge_cnt.sum())
        matches = int(per_run_w[has_edge].sum())
        return pa.table({"n_edges": pa.array([n_edges], pa.int64()),
                         "n_wedges": pa.array([n_wedges], pa.int64()),
                         "matches": pa.array([matches], pa.int64())})

    partials = partitioned_refs([mid], close_kernel, key="x",
                                sort_keys=["x", "y", "tag"],
                                num_partitions=num_partitions)
    tot = sum_partials(ray.get(partials),
                       keys=[], vals=["n_edges", "n_wedges", "matches"])
    e, w, mt = ((0, 0, 0) if tot is None else
                (tot[c][0].as_py() for c in tot.column_names))
    if mt % 3:
        raise AssertionError("triangle_count: wedge-closure total not "
                             "divisible by 3 — duplicate edges "
                             "survived dedup")
    return pa.table({"n_edges": pa.array([e], pa.int64()),
                     "n_wedges": pa.array([w], pa.int64()),
                     "n_triangles": pa.array([mt // 3], pa.int64())})


def window_cooccurrence_edges(ds, *, ts_col: str, actor_col: str,
                              width_us: int = 3_600_000_000,
                              max_actors: int = 4096,
                              num_partitions: int = 16):
    """Distinct UNDIRECTED actor pairs co-occurring inside the same
    tumbling time window — the standard interaction-graph builder
    (who was active alongside whom): bucket = ``epoch_us // width``,
    pairs = per-bucket distinct-actor triangles, edges = pairs
    deduplicated across buckets.

    Shape: per-block distinct ``(bucket, actor)`` partials (Arrow
    group_by — the shuffle moves one row per distinct pair per block);
    exchange 1 (bucket-keyed) merges and emits each bucket's
    ``triangular_pairs``; buckets with more than ``max_actors``
    distinct actors are SKIPPED with a logged warning (O(n²) pair
    guard — mirror with ``HAVING count(*) <= max_actors`` in any
    oracle); exchange 2 (src-keyed) deduplicates pairs across buckets
    by sorted-run arithmetic.  Returns ``(src:int64, dst:int64)`` with
    ``src < dst``, one row per distinct edge.
    """
    from ..functions.segments import triangular_pairs
    from .partition import partitioned_map, partitioned_refs

    def prep(b: pa.Table) -> pa.Table:
        ts = b[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        keep = pc.and_(pc.fill_null(pc.is_valid(ts), False),
                       pc.fill_null(pc.is_valid(b[actor_col]), False))
        t = pa.table({"b": pc.divide(ts, width_us),
                      "u": b[actor_col].combine_chunks().cast(
                          pa.int64())}).filter(keep)
        return t.group_by(["b", "u"]).aggregate([])

    distinct_bu = ds.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True,
                                 batch_size=None)

    empty_e = pa.table({"src": pa.array([], pa.int64()),
                        "dst": pa.array([], pa.int64())})

    def pair_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "b" not in t.column_names:
            return empty_e
        b = t["b"].to_numpy(zero_copy_only=False)
        u = t["u"].to_numpy(zero_copy_only=False)
        new = np.ones(len(b), bool)
        new[1:] = (b[1:] != b[:-1]) | (u[1:] != u[:-1])
        b, u = b[new], u[new]           # merge cross-block duplicates
        g_new = np.ones(len(b), bool)
        g_new[1:] = b[1:] != b[:-1]
        starts = np.flatnonzero(g_new)
        lens = np.diff(np.append(starts, len(b)))
        keep_seg = lens <= max_actors
        n_skip = int((~keep_seg).sum())
        if n_skip:
            import logging

            logging.getLogger(__name__).warning(
                "window_cooccurrence_edges: skipped %d windows with "
                "> %d actors", n_skip, max_actors)
        sl, ss = lens[keep_seg], starts[keep_seg]
        sl, ss = sl[sl >= 2], ss[sl >= 2]
        if len(sl) == 0:
            return empty_e
        i, j, _gid = triangular_pairs(ss, sl)
        return pa.table({"src": pa.array(u[i]),
                         "dst": pa.array(u[j])})

    pairs = partitioned_refs(distinct_bu, pair_kernel, key="b",
                             sort_keys=["b", "u"],
                             num_partitions=num_partitions)

    def dedup_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "src" not in t.column_names:
            return empty_e
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        new = np.ones(len(s), bool)
        new[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
        return pa.table({"src": pa.array(s[new]),
                         "dst": pa.array(d[new])})

    return partitioned_map([pairs], dedup_kernel, key="src",
                           sort_keys=["src", "dst"],
                           num_partitions=num_partitions)


def degree_assortativity(edges_ds):
    """Newman degree assortativity of an undirected simple graph given
    as distinct ``(src, dst)`` edge rows — the mixing-pattern audit
    (do high-degree actors attach to high-degree actors?):

        r = [4M·Σjk − (Σ(j+k))²] / [2M·Σ(j²+k²) − (Σ(j+k))²]

    over edges with endpoint degrees (j, k) — the Pearson correlation
    of degrees across edge endpoints (both orientations), cleared of
    the 1/2M factors.

    Exactness: M and the three degree sums are exact int64 totals
    (per-block partials, Python-int driver combine, each guarded
    < 2^53 so int→double casts are exact); ``r`` is the FIXED
    correctly-rounded sequence ``(d(4M)·d(Σjk) − d(Σj+k)·d(Σj+k)) /
    (d(2M)·d(Σq) − d(Σj+k)·d(Σj+k))`` — products may exceed 2^53 but
    IEEE multiply/subtract of identical operands is deterministic, so
    SQL replays it bit-for-bit (the q228 chi2 convention).  A zero
    denominator (regular graph) yields NULL.

    Scale shape: the degree table (one row per node) reduces from
    per-block partials and broadcasts once via ``ray.put`` — nodes ≪
    edges is the documented contract; the edge scan is one streaming
    pass emitting ONE partial row per block.

    Returns one row ``(m:int64, sjk:int64, sj:int64, sq:int64,
    r:float64)``.  Reference analog: none (graph-audit extension next
    to pagerank / triangle_count).
    """
    import ray

    from .partition import materialized_block_refs

    refs = materialized_block_refs(edges_ds)
    edges = ray.data.from_arrow_refs(refs)

    def deg_partial(b: pa.Table) -> pa.Table:
        u = np.concatenate([
            b["src"].to_numpy(zero_copy_only=False),
            b["dst"].to_numpy(zero_copy_only=False)])
        uniq, cnt = np.unique(u, return_counts=True)
        return pa.table({"u": pa.array(uniq.astype(np.int64)),
                         "c": pa.array(cnt.astype(np.int64))})

    dp = edges.map_batches(deg_partial, batch_format="pyarrow",
                           zero_copy_batch=True,
                           batch_size=None).to_pandas()
    if len(dp) == 0:
        return pa.table({"m": pa.array([0], pa.int64()),
                         "sjk": pa.array([0], pa.int64()),
                         "sj": pa.array([0], pa.int64()),
                         "sq": pa.array([0], pa.int64()),
                         "r": pa.array([None], pa.float64())})
    deg = dp.groupby("u", sort=True)["c"].sum()
    deg_ref = ray.put((deg.index.to_numpy(dtype=np.int64),
                       deg.to_numpy(dtype=np.int64)))

    def sum_partial(b: pa.Table) -> pa.Table:
        uids, degs = ray.get(deg_ref)
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        j = degs[np.searchsorted(uids, s)]
        k = degs[np.searchsorted(uids, d)]
        return pa.table({
            "m": pa.array([len(s)], pa.int64()),
            "sjk": pa.array([int((j * k).sum())], pa.int64()),
            "sj": pa.array([int((j + k).sum())], pa.int64()),
            "sq": pa.array([int((j * j + k * k).sum())], pa.int64()),
        })

    sp = edges.map_batches(sum_partial, batch_format="pyarrow",
                           zero_copy_batch=True,
                           batch_size=None).to_pandas()
    m = int(sp["m"].sum())
    sjk, sj, sq = (int(sp[c].sum()) for c in ("sjk", "sj", "sq"))
    for name, v in (("4*m", 4 * m), ("sjk", sjk), ("sj", sj),
                    ("sq", sq)):
        if v >= 2 ** 53:
            raise ValueError(
                f"degree_assortativity: {name} >= 2^53 breaks the "
                "exact int->double contract")
    num = float(4 * m) * float(sjk) - float(sj) * float(sj)
    den = float(2 * m) * float(sq) - float(sj) * float(sj)
    r = None if den == 0.0 else num / den
    return pa.table({"m": pa.array([m], pa.int64()),
                     "sjk": pa.array([sjk], pa.int64()),
                     "sj": pa.array([sj], pa.int64()),
                     "sq": pa.array([sq], pa.int64()),
                     "r": pa.array([r], pa.float64())})


def k_core(edges_ds, *, max_iters: int = 1024,
           num_partitions: int = 16):
    """Core-number (k-core) decomposition of an undirected simple
    graph given as distinct ``(src, dst)`` edge rows with ``src <
    dst`` — per node, the largest k such that the node survives in
    the subgraph where every node has degree ≥ k.  The standard
    robustness/engagement grade a raw degree can't give (a
    1000-degree hub whose neighbors are all leaves is core 1).

    Algorithm: the h-index fixed point (Lü et al. 2016, "The H-index
    of a network node and its relation to degree and coreness"):
    ``c_v ← H({c_u : u ∈ N(v)})`` starting from ``c_v = deg_v``,
    where H is the h-index (largest h with ≥ h neighbor values ≥ h).
    The sequence is monotonically non-increasing and converges to the
    core number — an ORDER-INDEPENDENT graph invariant, so the result
    is deterministic under any partitioning, and the oracle can
    verify with a completely different serial algorithm (bucket
    peeling).

    Shape: one :func:`superstep` per iteration: ``send`` routes each
    node's current c onto its half-edges, keyed by the recipient, and
    ``fold`` takes the per-node h-index of the gathered neighbor values
    (one descending sort + rank compare per partition).  Each iteration
    ships O(2E) int64 rows; rounds to convergence are bounded by the
    longest strictly-decreasing h-index chain — single digits on
    social-shaped graphs, but Θ(path length) on chain-shaped
    peripheries (a 130-node path needs 65 rounds), hence the generous
    ``max_iters`` runaway cap.  Raises (naming the fix) if the cap is
    hit with changes pending.  All-int arithmetic — no float anywhere.

    Returns a Dataset ``(node:int64, degree:int64, core:int64)``, empty
    with those columns for an empty edge list.
    Reference analog: none (graph suite extension alongside
    pagerank / triangle_count / degree_assortativity).
    """
    import ray

    edges = half_edges(edges_ds, "src", "dst", who="k_core")
    if not edges or ray.data.from_arrow_refs(edges).count() == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "degree": pa.array([], pa.int64()),
            "core": pa.array([], pa.int64())}))

    def init(e: pa.Table) -> pa.Table:
        # per __k-run length = degree; init c = degree
        n = seg.ints(e, "__k")
        starts = seg.run_starts(n)
        deg = np.diff(np.append(starts, len(n)))
        return pa.table({"__k": pa.array(n[starts]), "c": pa.array(deg),
                         "deg": pa.array(deg),
                         "changed": pa.array(np.ones(len(starts),
                                                     np.int64))})

    def send(vals: pa.Table, e: pa.Table) -> pa.Table:
        starts, run = seg.owners(seg.ints(vals, "__k"), seg.ints(e, "__k"),
                                 "k_core: node in edge list missing a "
                                 "value row")
        return pa.table({"__k": pa.array(seg.ints(e, "to")),
                         "cn": pa.array(seg.ints(vals, "c")[starts][run])})

    def fold(vals: pa.Table, msgs: pa.Table) -> pa.Table:
        # h-index per node: its messages by descending cn, each one
        # ranked within its node, count the values >= their rank
        n = seg.ints(vals, "__k")
        starts, run = seg.owners(n, seg.ints(msgs, "__k"),
                                 "k_core: message for a node without a "
                                 "value row")
        cn = seg.ints(msgs, "cn")
        order = np.lexsort((-cn, run))
        rid = run[order]
        rank = np.arange(len(rid)) - np.searchsorted(rid, rid) + 1
        h = np.bincount(rid[cn[order] >= rank], minlength=len(starts))
        c_old = seg.ints(vals, "c")[starts]
        return pa.table({"__k": pa.array(n[starts]),
                         "c": pa.array(h.astype(np.int64)),
                         "deg": pa.array(seg.ints(vals, "deg")[starts]),
                         "changed": pa.array((h != c_old).astype(np.int64))})

    values = node_exchange([edges], init, num_partitions)
    it = 0
    changed = 1
    while changed and it < max_iters:
        values = superstep(values, edges, send, fold, num_partitions)
        changed = changed_rows(values)
        it += 1
    if changed:
        raise RuntimeError(
            f"k_core: not converged after {max_iters} rounds — a "
            "chain-shaped graph needs ~diameter/2 rounds; raise "
            "max_iters")

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["__k"], "degree": b["deg"],
                         "core": b["c"]})

    return ray.data.from_arrow_refs(map_blocks(finalize, values))


def bfs_hops(edges_ds, *, seed_mod: int = 17, max_hops: int = 6,
             num_partitions: int = 16):
    """Multi-source breadth-first hop distance over an undirected
    simple graph given as distinct ``(src, dst)`` edge rows: every
    node whose id satisfies ``node % seed_mod == 0`` is a seed at
    distance 0, and each other node gets the MINIMUM hop count to any
    seed, capped at ``max_hops`` (unreached nodes emit no row) — the
    landmark-distance / influence-radius feature (how far is each
    actor from the moderated/flagged set?).

    Shape: frontier iteration, one :func:`superstep` per round — ONLY
    nodes whose distance improved last round send ``dist+1`` to their
    neighbors, and recipients fold ``min(old, min(incoming))``.
    Message volume is frontier-bounded (Σ over rounds = one relaxation
    per directed edge in the worst case), rounds ≤ ``max_hops``.
    All-int arithmetic; min-fold is order-independent, so the result
    is exact and partition-invariant.

    SQL replays with a recursive CTE (``UNION`` dedup on (node, d),
    ``WHERE d < max_hops``) + ``min(d)`` per node.

    Returns a Dataset ``(node:int64, hops:int64)`` of the reached
    nodes, empty with those columns when none is reached or the edge
    list is empty.
    Reference analog: none (graph suite extension).
    """
    import ray

    UNSET = np.int64(2**62)

    edges = half_edges(edges_ds, "src", "dst", who="bfs_hops")
    if not edges or ray.data.from_arrow_refs(edges).count() == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "hops": pa.array([], pa.int64())}))

    def init(e: pa.Table) -> pa.Table:
        n = seg.ints(e, "__k")
        nodes = n[seg.run_starts(n)]
        is_seed = (nodes % seed_mod) == 0
        return pa.table({"__k": pa.array(nodes),
                         "d": pa.array(np.where(is_seed, np.int64(0), UNSET)),
                         "changed": pa.array(is_seed.astype(np.int64))})

    def send(vals: pa.Table, e: pa.Table) -> pa.Table:
        starts, run = seg.owners(seg.ints(vals, "__k"), seg.ints(e, "__k"),
                                 "bfs_hops: node missing a value row")
        d = seg.ints(vals, "d")[starts][run]
        # frontier-only, capped expansion
        go = (seg.ints(vals, "changed")[starts][run] == 1) & (d < max_hops)
        return pa.table({"__k": pa.array(seg.ints(e, "to")[go]),
                         "nd": pa.array(d[go] + 1)})

    def fold(vals: pa.Table, msgs: pa.Table) -> pa.Table:
        n = seg.ints(vals, "__k")
        starts, run = seg.owners(n, seg.ints(msgs, "__k"),
                                 "bfs_hops: message for a node without "
                                 "a value row")
        d_old = seg.ints(vals, "d")[starts]
        d_new = d_old.copy()
        np.minimum.at(d_new, run, seg.ints(msgs, "nd"))
        return pa.table({"__k": pa.array(n[starts]),
                         "d": pa.array(d_new),
                         "changed": pa.array(
                             (d_new < d_old).astype(np.int64))})

    values = node_exchange([edges], init, num_partitions)
    frontier = changed_rows(values)
    rounds = 0
    while frontier and rounds < max_hops:
        values = superstep(values, edges, send, fold, num_partitions)
        frontier = changed_rows(values)
        rounds += 1

    def finalize(b: pa.Table) -> pa.Table:
        d = seg.ints(b, "d")
        keep = d != UNSET
        return pa.table({"node": pa.array(seg.ints(b, "__k")[keep]),
                         "hops": pa.array(d[keep])})

    return ray.data.from_arrow_refs(map_blocks(finalize, values))


def two_hop_reach(edges_ds, *, max_mid_degree: int = 1024,
                  num_partitions: int = 16):
    """Two-hop reach per node — ``n2 = |{w : dist(v, w) = 2}|``, the
    friends-of-friends audience size that separates a hub-adjacent
    node (small degree, huge reach) from an enclave node (same
    degree, reach ≈ clique): the influence/visibility feature one
    hop can't see.

    Shape: wedges enumerate at their MID node (one node-keyed
    exchange co-locates each node's neighbor run; ``triangular_pairs``
    expands it — Σdeg² bounded by SKIPPING mids with degree >
    ``max_mid_degree``, logged, mirrored by the oracle's HAVING — the
    q234 hub cap); a second node-keyed exchange dedups wedge
    endpoints per source and subtracts direct neighbors + self, which
    ride in the same input as tagged rows (direct rows lead each run).  All set algebra on
    sorted int runs — exact, partition-invariant, full SQL oracle
    (DISTINCT wedge self-join + anti-join).

    Returns ``(node:int64, n1:int64, n2:int64)`` for every node of
    the edge list (n2 counts only paths through surviving mids).
    Reference analog: none (graph suite).
    """
    from ..functions.segments import triangular_pairs
    from .partition import partitioned_map, partitioned_refs

    half_refs = half_edges(edges_ds, "src", "dst", who="two_hop_reach")

    wedge_empty = pa.table({"__k": pa.array([], pa.int64()),
                            "w": pa.array([], pa.int64()),
                            "tag": pa.array([], pa.int8())})

    def wedge_kernel(t: pa.Table) -> pa.Table:
        # sorted (__k, to): one run per mid node
        if t.num_rows == 0 or "__k" not in t.column_names:
            return wedge_empty
        k = t["__k"].to_numpy(zero_copy_only=False)
        to = t["to"].to_numpy(zero_copy_only=False)
        # dedup (mid, neighbor) first: duplicate/pre-symmetrized
        # input edges would inflate the degree cap and skip mids the
        # DISTINCT-based oracle keeps
        uniq = np.concatenate([[True], (k[1:] != k[:-1])
                               | (to[1:] != to[:-1])])
        k, to = k[uniq], to[uniq]
        new = np.concatenate([[True], k[1:] != k[:-1]])
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(k)))
        keep = lens <= max_mid_degree
        n_skip = int((~keep).sum())
        if n_skip:
            import logging

            logging.getLogger(__name__).warning(
                "two_hop_reach: skipped %d mids with degree > %d",
                n_skip, max_mid_degree)
        ss, sl = starts[keep], lens[keep]
        ss2, sl2 = ss[sl >= 2], sl[sl >= 2]
        if len(ss2):
            i, j, _g = triangular_pairs(ss2, sl2)
            va, vb = to[i], to[j]
            wedges = pa.table({
                "__k": pa.array(np.concatenate([va, vb])),
                "w": pa.array(np.concatenate([vb, va])),
                "tag": pa.array(np.ones(2 * len(va), np.int8))})
        else:
            wedges = wedge_empty
        # direct-neighbor rows ride along (tag 0) so the dedup
        # kernel can subtract them without a broadcast
        direct = pa.table({"__k": pa.array(k),
                           "w": pa.array(to),
                           "tag": pa.array(np.zeros(len(k),
                                                    np.int8))})
        return pa.concat_tables([direct, wedges])

    wedges = partitioned_refs([half_refs], wedge_kernel, key="__k",
                              sort_keys=["__k", "to"],
                              num_partitions=num_partitions)

    out_empty = pa.table({"node": pa.array([], pa.int64()),
                          "n1": pa.array([], pa.int64()),
                          "n2": pa.array([], pa.int64())})

    def count_kernel(t: pa.Table) -> pa.Table:
        # sorted (__k, tag, w): per node, direct rows first then
        # wedge rows
        if t.num_rows == 0 or "__k" not in t.column_names:
            return out_empty
        k = t["__k"].to_numpy(zero_copy_only=False)
        tag = t["tag"].to_numpy(zero_copy_only=False)
        w = t["w"].to_numpy(zero_copy_only=False)
        new = np.concatenate([[True], k[1:] != k[:-1]])
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(k))
        nodes, n1s, n2s = [], [], []
        for s0, s1 in zip(starts.tolist(), ends.tolist()):
            seg_tag = tag[s0:s1]
            seg_w = w[s0:s1]
            direct = np.unique(seg_w[seg_tag == 0])
            cand = np.unique(seg_w[seg_tag == 1])
            v = int(k[s0])
            if len(cand):
                mask = ~np.isin(cand, direct)
                mask &= cand != v
                n2 = int(mask.sum())
            else:
                n2 = 0
            nodes.append(v)
            n1s.append(len(direct))
            n2s.append(n2)
        return pa.table({"node": pa.array(nodes, pa.int64()),
                         "n1": pa.array(n1s, pa.int64()),
                         "n2": pa.array(n2s, pa.int64())})

    return partitioned_map([wedges], count_kernel, key="__k",
                           sort_keys=["__k", "tag", "w"],
                           num_partitions=num_partitions)
