"""Distributed SQL window-rank family: row_number / rank / dense_rank /
percent_rank / cume_dist per group, exactly DuckDB/ANSI semantics.

One keyed exchange co-locates each group and sorts the partition by
``(group, value, tie)``; the kernel is pure O(n) numpy prefix math —
no per-row Python, no second pass:

* ``row_number``: 1-based position under the TOTAL order
  ``(value, tie)`` (the tie column must be unique per group for a
  deterministic result — use the row's id).
* ``rank`` / ``dense_rank`` / ``percent_rank`` / ``cume_dist``: peers
  are rows with equal ``value`` (ties share), matching
  ``OVER (PARTITION BY g ORDER BY v)``.
* ``percent_rank = (rank-1)/(n-1)`` (0.0 for single-row groups) and
  ``cume_dist = peers_upto/n`` are each ONE IEEE double division of
  small integers, so they replay bit-exactly in SQL.

NaN values sort after all numbers (Arrow and DuckDB agree) and are
peers of each other.  NULL group keys form their own group (SQL
``PARTITION BY`` groups NULLs together).

Reference analog: the rank/argsort driver-side selections of
``featurebox/selection/exhaustion.py:106-119`` generalized to a
distributed per-group operator (SURVEY.md §2.7).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions import segments as seg
from .partition import partitioned_map, sort_table

RANK_COLS = ("row_number", "rank", "dense_rank", "percent_rank",
             "cume_dist")


def _group_codes(col: pa.ChunkedArray) -> np.ndarray:
    """Adjacent-change detection codes for an arbitrary-type group column
    (rows arrive sorted by group, so dictionary codes need not be
    ordered).  NULLs get a dedicated code."""
    d = pc.dictionary_encode(col.combine_chunks())
    codes = d.indices.fill_null(-1).to_numpy(zero_copy_only=False)
    return codes.astype(np.int64)


def rank_kernel(table: pa.Table, *, group_col: str, value_col: str,
                ntile: int | None = None,
                payload_cols: tuple = ()) -> pa.Table:
    """Append the five rank columns (plus ``ntile`` and
    ``first_/last_<payload>`` when requested) to a table already sorted
    by ``(group_col, value_col, tie)``.  ``first_`` is the value at the
    partition's first row; ``last_`` is the value at the LAST PEER of
    the current row — ANSI default frame (RANGE ... CURRENT ROW)
    semantics, matching what SQL ``last_value`` actually returns."""
    n = table.num_rows
    if n == 0:
        out = table
        for name in RANK_COLS:
            typ = pa.int64() if name in ("row_number", "rank",
                                         "dense_rank") else pa.float64()
            out = out.append_column(name, pa.array([], typ))
        if ntile is not None:
            out = out.append_column("ntile", pa.array([], pa.int64()))
        for c in payload_cols:
            ct = table.schema.field(c).type
            out = out.append_column(f"first_{c}", pa.array([], ct))
            out = out.append_column(f"last_{c}", pa.array([], ct))
        return out

    g = _group_codes(table[group_col])
    vcol = table[value_col].combine_chunks()
    v = vcol.to_numpy(zero_copy_only=False)

    new_group = np.empty(n, bool)
    new_group[0] = True
    new_group[1:] = g[1:] != g[:-1]

    # NULL and NaN are DISTINCT peer classes (to_numpy folds NULL into
    # NaN, so track validity separately): NaN==NaN peers, NULL==NULL
    # peers, NaN!=NULL — matching DuckDB, which sorts values < NaN <
    # NULL and ranks the two classes apart
    if vcol.null_count:
        isnull = pc.is_null(vcol).to_numpy(zero_copy_only=False)
    else:
        isnull = np.zeros(n, bool)
    same_val = np.zeros(n, bool)
    if v.dtype.kind == "f":
        both_nan = (np.isnan(v[1:]) & ~isnull[1:]
                    & np.isnan(v[:-1]) & ~isnull[:-1])
        same_val[1:] = ((v[1:] == v[:-1]) | both_nan
                        | (isnull[1:] & isnull[:-1]))
    else:
        same_val[1:] = ((isnull[1:] & isnull[:-1])
                        | (~isnull[1:] & ~isnull[:-1] & (v[1:] == v[:-1])))
    new_peer = new_group | ~same_val

    idx = np.arange(n, dtype=np.int64)
    g_starts = np.flatnonzero(new_group)
    g_run = np.cumsum(new_group) - 1
    gstart = g_starts[g_run]
    glen = np.diff(np.append(g_starts, n))[g_run]

    p_starts = np.flatnonzero(new_peer)
    p_run = np.cumsum(new_peer) - 1
    pstart = p_starts[p_run]
    pend = pstart + np.diff(np.append(p_starts, n))[p_run] - 1

    row_number = idx - gstart + 1
    rank = pstart - gstart + 1
    dense_rank = p_run - p_run[gstart] + 1
    peers_upto = (pend - gstart + 1).astype(np.float64)
    cume_dist = peers_upto / glen.astype(np.float64)
    percent_rank = np.where(
        glen > 1,
        (rank - 1).astype(np.float64)
        / np.maximum(glen - 1, 1).astype(np.float64),
        0.0)

    out = table
    for name, arr in (("row_number", row_number), ("rank", rank),
                      ("dense_rank", dense_rank),
                      ("percent_rank", percent_rank),
                      ("cume_dist", cume_dist)):
        out = out.append_column(name, pa.array(arr))
    if ntile is not None:
        # ANSI NTILE(T) under the row_number total order: the first
        # n % T buckets get floor(n/T)+1 rows, the rest floor(n/T)
        T = int(ntile)
        if T < 1:
            raise ValueError("ntile must be >= 1")
        q_, r0 = glen // T, glen % T
        cut = r0 * (q_ + 1)
        rn = row_number
        small = np.maximum(q_, 1)  # q_=0 only when rn<=cut always holds
        tiles = np.where(rn <= cut,
                         (rn - 1) // np.maximum(q_ + 1, 1) + 1,
                         r0 + (rn - cut - 1) // small + 1)
        out = out.append_column("ntile", pa.array(tiles.astype(np.int64)))
    for c in payload_cols:
        col = table[c].combine_chunks()
        out = out.append_column(
            f"first_{c}", col.take(pa.array(gstart, pa.int64())))
        out = out.append_column(
            f"last_{c}", col.take(pa.array(pend, pa.int64())))
    return out


def rank_in_group(ds, *, group_col: str, value_col: str, tie_col: str,
                  num_partitions: int = 32,
                  ntile: int | None = None,
                  payload_cols: tuple = ()):
    """Add the five window-rank columns per ``group_col``, ordered by
    ``(value_col, tie_col)`` (plus ``ntile(T)`` buckets when ``ntile``
    is given).  One keyed exchange; output row order is the
    within-partition sort order (deterministic given a unique tie
    column)."""
    def kernel(t: pa.Table) -> pa.Table:
        return rank_kernel(t, group_col=group_col, value_col=value_col,
                           ntile=ntile, payload_cols=tuple(payload_cols))

    return partitioned_map(ds, kernel, key=group_col,
                           sort_keys=[group_col, value_col, tie_col],
                           num_partitions=num_partitions)


def _stand_ins(cols, descending):
    """``(keys, sort_keys, add)``: the names of stand-in key columns that
    order rows by ``cols`` (callers drop them), their ``(name, order)``
    sort keys, and ``add(t)``, which appends them.  ``descending`` is one
    bool for every column or a list with one per column.

    Per order column the stand-ins are a class, then the value with NaN
    and NULL zeroed in float columns.  The classes put NaN above every
    number and NULL last in either direction, as SQL does, and keep NaN
    and NULL out of Ray's sort, which samples its range boundaries with
    a comparator under which a NULL or NaN is less than itself: with
    another column after it, the boundaries can come out of order and
    the overlapping ranges duplicate rows."""
    desc = (list(descending) if isinstance(descending, (list, tuple))
            else [descending] * len(cols))
    keys = [k for i in range(len(cols)) for k in (f"__cls{i}", f"__val{i}")]
    classes = [[pa.scalar(c, pa.int8())
                for c in ((1, 2, 0) if d else (0, 1, 2))] for d in desc]
    sort_keys = [(k, "descending" if desc[i // 2] else "ascending")
                 for i, k in enumerate(keys)]

    def add(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:  # Ray's zero-column empty blocks
            return t
        for i, c in enumerate(cols):
            value, nan_cls, null_cls = classes[i]
            v = t[c]
            cls = pc.if_else(pc.is_null(v), null_cls, value)
            if pa.types.is_floating(v.type):
                nan = pc.fill_null(pc.is_nan(v), False)
                cls = pc.if_else(nan, nan_cls, cls)
                zero = pa.scalar(0, v.type)
                v = pc.fill_null(pc.if_else(nan, zero, v), zero)
            t = t.append_column(keys[2 * i], cls)
            t = t.append_column(keys[2 * i + 1], v)
        return t

    return keys, sort_keys, add


def _range_sort(ds, cols, descending):
    """``ds`` range-sorted by ``cols`` through :func:`_stand_ins`, and
    the stand-ins' names (callers drop them).  This is the engine's one
    Ray Data sort: a global order (a row number, a running total, each
    row's successor) needs a range all-to-all, which the hash exchange
    of ``partition.task_exchange`` is not.  Read its blocks with
    :func:`_blocks_in_order`."""
    keys, sort_keys, add = _stand_ins(cols, descending)
    sd = ds.map_batches(add, batch_format="pyarrow",
                        zero_copy_batch=True).sort(
        keys, descending=[o == "descending" for _, o in sort_keys])
    return sd, keys


def _blocks_in_order(ds) -> list:
    """``(block ref, rows)`` for each non-empty block of ``ds``, in block
    order: the drain runs with Ray Data's ``preserve_order``
    (``partition._unreserved``), and the row counts come from the
    bundles' block metadata, so no block is read to place it.  For a
    :func:`_range_sort` output that is range order
    (``tests/test_global_rank.py`` pins it)."""
    from .partition import _unreserved

    return [(r, m.num_rows)
            for b in _unreserved(ds, ordered=True).iter_internal_ref_bundles()
            for r, m in b.blocks if m.num_rows]


def _empty_like(sd, keys, col: str, typ):
    """The empty result of a global-order operator: ``sd``'s schema
    without the stand-ins ``keys``, plus ``col`` of type ``typ``."""
    schema = sd.schema()
    base = getattr(schema, "base_schema", schema)
    if not isinstance(base, pa.Schema):
        return sd  # schema unknown (fully schemaless empty dataset)
    base = pa.schema([f for f in base if f.name not in keys])
    return ray.data.from_arrow(base.append(pa.field(col, typ)).empty_table())


def top_k(ds, cols, descending, k: int, drop=()) -> pa.Table:
    """The first ``k`` rows of ``ds`` ordered by ``cols`` as
    :func:`_range_sort` orders them (NaN above every number, NULL last),
    as one table, without the stand-ins or the columns in ``drop``.

    No sort of the Dataset: one task per block keeps the block's own
    first ``k`` rows (``pc.sort_indices`` on the stand-ins, then
    ``take``), which is sound because a row with ``k`` rows of its own
    block before it cannot be among the first ``k`` overall; the driver
    then orders the at most ``blocks × k`` survivors once.  Both sorts
    are stable and the survivors arrive in block order
    (:func:`_blocks_in_order`), so rows tied on every order column keep
    block order.  An empty input gives an empty table in the
    input's schema (no columns when Ray knows none, as after a filter
    that drops every row)."""
    keys, sort_keys, add = _stand_ins(list(cols), descending)

    @ray.remote
    def first_k(t: pa.Table) -> pa.Table:
        t = add(t)
        return t.take(pc.sort_indices(t, sort_keys=sort_keys)[:k])

    parts = ray.get([first_k.remote(r) for r, _ in _blocks_in_order(ds)])
    if parts:
        t = pa.concat_tables(parts, promote_options="default")
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys)[:k])
    else:
        schema = ds.schema()
        t = (schema.base_schema if schema else pa.schema([])).empty_table()
    gone = {*drop, *keys}
    return t.drop_columns([c for c in t.column_names if c in gone])


def range_top(ds, cols, descending, k: int, drop=()):
    """:func:`top_k` as a one-block Dataset: the first ``k`` rows in
    order, for order columns that may hold NaN or NULL."""
    return ray.data.from_arrow(top_k(ds, cols, descending, k, drop))


def global_row_number(ds, *, order_cols, rank_col: str = "g_rank",
                      descending: bool = False):
    """Exact GLOBAL ``row_number() OVER (ORDER BY order_cols)`` — 1-based
    position under the corpus-wide total order.

    The all-to-all is Ray's distributed range sort (:func:`_range_sort`;
    a global order needs one); everything after it is metadata-sized.
    The sorted blocks are read in range order (:func:`_blocks_in_order`),
    so each block's offset is the prefix sum of the row counts in its
    bundle metadata, and one tiny task per block then appends ``offset +
    arange``.  No block ever moves twice and the driver holds one count
    per block, so this scales with block count, not rows.

    Raw Ray tasks are used below the Dataset API deliberately: a global
    running offset is cross-block state that ``map_batches`` cannot
    express.

    ``order_cols`` must be unique as a tuple and, except for float
    columns, null-free (filter first); a float column may hold NaN and
    NULL, ranked as SQL does: NaN above every number, NULL last in
    either direction.  ``descending`` applies to every order column.

    Reference analog: the driver-side global argsort selections of
    ``featurebox/selection/exhaustion.py:106-119`` at distributed scale
    (SURVEY.md §2.7); the curriculum-ordering primitive for training-data
    pipelines.
    """
    sd, keys = _range_sort(ds, list(order_cols), descending)

    @ray.remote
    def add_rank(blk: pa.Table, off: int) -> pa.Table:
        n = blk.num_rows
        return blk.drop_columns(keys).append_column(
            rank_col, pa.array(np.arange(off + 1, off + 1 + n)))

    out_refs, off = [], 0
    for r, n in _blocks_in_order(sd):
        out_refs.append(add_rank.remote(r, off))
        off += n
    if not out_refs:
        return _empty_like(sd, keys, rank_col, pa.int64())
    return ray.data.from_arrow_refs(out_refs)


def last_row_per_key(ds, *, key_col: str, order_cols,
                     num_partitions: int = 16):
    """Latest full row per key — ``argmax`` with payload (the
    current-state snapshot: latest event per user, newest version per
    document).  Keeps, for each key, the row that sorts LAST under
    ascending ``order_cols`` (max order tuple; every remaining column
    rides along untouched).  SQL: ``QUALIFY row_number() OVER
    (PARTITION BY key ORDER BY o1 DESC, o2 DESC, ...) = 1`` — note the
    ascending-sort-last-of-run pick means NULL order values sort AT END
    ascending, i.e. a NULL-ordered row WINS over any valued row
    (replay with ``DESC NULLS FIRST`` if the key has null order rows).

    One keyed exchange; per partition a last-of-run mask over the key
    codes (one vectorized compare — no per-group work).
    """
    order_cols = list(order_cols)

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return t
        codes = _group_codes(t[key_col])
        last = np.ones(len(codes), bool)
        last[:-1] = codes[1:] != codes[:-1]
        return t.filter(pa.array(last))

    return partitioned_map(ds, kernel, key=key_col,
                           sort_keys=[key_col] + order_cols,
                           num_partitions=num_partitions)


def diversified_topk(ds, *, group_col: str, id_col: str,
                     score_col: str, m: int, k: int,
                     num_partitions: int = 16):
    """Global top-``k`` rows by ``score_col`` descending with AT MOST
    ``m`` rows per group — the diversified ranking (report the best
    documents but never let one source/domain flood the list; the
    eval-set sampling rule "top quality, quota per domain").

    Streaming per-block per-group top-``m`` partials (sound: a row
    outside its group's block top-m cannot be in the group's global
    top-m), ONE tiny group-keyed exchange re-ranks (the exchange moves
    ``blocks × groups × m`` rows, never data), then a final per-block
    top-``k`` (:func:`top_k`) over the ``groups × m`` survivors.  Ties
    break to the smaller id everywhere; NULL scores sort last (DuckDB
    ``DESC`` default) and a NaN score ranks below every number and above
    NULL (DuckDB: ``ORDER BY score IS NULL, isnan(score), score DESC,
    id``).
    Returns ``(group_col, id_col, score_col)``.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    neg = "__negscore"

    def topm(t: pa.Table) -> pa.Table:
        codes = _group_codes(t[group_col])
        n = len(codes)
        first = np.concatenate([[True], codes[1:] != codes[:-1]])
        seg_start = np.maximum.accumulate(
            np.where(first, np.arange(n), 0))
        rank = np.arange(n) - seg_start
        return t.filter(pa.array(rank < m))

    def partial(b: pa.Table) -> pa.Table:
        cols = [group_col, id_col, score_col]
        b = b.select(cols)
        b = b.append_column(neg, pc.negate(
            b[score_col].combine_chunks()))
        return topm(sort_table(b, [group_col, neg, id_col]))

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or group_col not in t.column_names:
            return t
        return topm(t)

    survivors = partitioned_map(partials, kernel, key=group_col,
                                sort_keys=[group_col, neg, id_col],
                                num_partitions=num_partitions)

    # ascending -score puts NaN after every number and NULL last, in
    # the Arrow sorts above and in top_k alike
    return range_top(survivors, [neg, id_col], False, k, drop=[neg])


def budget_select(ds, *, order_cols, cost_col: str, budget: int,
                  cum_col: str = "cum_cost", descending: bool = True):
    """Greedy budgeted corpus selection — keep the best-ranked rows
    (by ``order_cols``) whose RUNNING cost total stays within
    ``budget`` (the "select the highest-quality documents up to a
    token budget" primitive of training-data curation; also the exact
    top-cost-prefix cut for curriculum subsets).

    Same metadata-sized plan as :func:`global_row_number`: one range
    sort (the unavoidable all-to-all for a global order), read in range
    order; each sorted block contributes its cost sum to the driver,
    which prefix-sums block costs as Python ints (exact at any corpus
    size), and schedules one tiny task per block that cumsums
    internally, adds its offset and filters ``cum ≤ budget``.  Blocks
    entirely past the budget are dropped without being touched.

    ``order_cols`` must be unique as a tuple and null-free outside
    float columns (NaN and NULL rank as in :func:`global_row_number`);
    ``cost_col`` must be non-negative int64 (validated per block).
    Emits the input columns + ``cum_col`` (int64 running total
    including the row itself) — SQL replays as ``sum(cost) OVER
    (ORDER BY ...) <= budget``.
    """
    sd, keys = _range_sort(ds, list(order_cols), descending)

    @ray.remote
    def cost_sum(blk: pa.Table) -> int:
        cost = blk[cost_col].to_numpy(zero_copy_only=False)
        if cost.min() < 0:
            raise ValueError("budget_select: negative cost")
        return int(cost.sum())

    @ray.remote
    def cut(blk: pa.Table, off: int) -> pa.Table:
        cost = blk[cost_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        cum = np.cumsum(cost) + off
        out = blk.drop_columns(keys).append_column(cum_col, pa.array(cum))
        return out.filter(pa.array(cum <= budget))

    refs = [r for r, _ in _blocks_in_order(sd)]
    out_refs, off = [], 0
    for r, csum in zip(refs, ray.get([cost_sum.remote(r) for r in refs])):
        if off <= budget:          # block may still contribute rows
            out_refs.append(cut.remote(r, off))
        off += csum
    if not out_refs:
        return _empty_like(sd, keys, cum_col, pa.int64())
    return ray.data.from_arrow_refs(out_refs)


def rrf_fuse(rank_dss, *, id_col: str, rank_cols, k: int = 60,
             num_partitions: int = 8):
    """Reciprocal-rank fusion — merge several independent rankings of
    the same id universe into one consensus score:
    ``rrf = Σ_i 1/(k + rank_i)`` (Cormack et al.'s parameter-light
    rank aggregation; the standard way to fuse heterogeneous quality
    signals — length, diversity, model score — into one curation
    order).

    ``rank_dss`` are Datasets each holding ``(id_col, rank_cols[i])``
    with exact integer 1-based ranks (from
    :func:`global_row_number`); every id must appear in EVERY ranking
    (full rankings — missing ids raise).  The fusion is ONE id-keyed
    exchange: the kernel pivots each id's rank rows and evaluates the
    fixed left-associative float expression ``1/(k+r₁) + 1/(k+r₂) +
    …`` — identical IEEE ops in SQL, so the scores (and any
    downstream top-k cut on them) replay bit-exactly.

    Returns ``(id_col, *rank_cols, rrf:float64)``.
    """
    rank_cols = list(rank_cols)
    if len(rank_dss) != len(rank_cols):
        raise ValueError("rrf_fuse: one rank column name per dataset")

    n = len(rank_cols)
    # id stays its input type (string ids are the canonical RRF use
    # case).  Prefer the no-execution schema probe: global_row_number
    # outputs (the documented producers) carry it for free; only a
    # fully lazy input pays a one-block fetch here.
    schema0 = rank_dss[0].schema(fetch_if_missing=False)
    if schema0 is None:
        schema0 = rank_dss[0].schema()
    base0 = getattr(schema0, "base_schema", schema0)
    id_type = base0.field(id_col).type
    empty_cols = {id_col: pa.array([], id_type)}
    for c in rank_cols:
        empty_cols[c] = pa.array([], pa.int64())
    empty_cols["rrf"] = pa.array([], pa.float64())
    empty = pa.table(empty_cols)

    def kernel(*ts: pa.Table) -> pa.Table:
        if not any(t.num_rows for t in ts):
            return empty
        ids = [t[id_col].combine_chunks() if t.num_rows
               else pa.array([], id_type) for t in ts]
        codes = seg.shared_key_codes(*ids, nulls_distinct=True)
        _, lens = np.unique(np.concatenate(codes), return_counts=True)
        if (lens > n).any():
            raise ValueError("rrf_fuse: duplicate ranking rows for "
                             "an id")
        if (lens < n).any():
            raise ValueError("rrf_fuse: an id is missing from some "
                             "ranking — full rankings required")
        # every id once per ranking, so each sorted ranking lists the
        # ids in the same order
        if any((c[1:] == c[:-1]).any() for c in codes):
            raise ValueError("rrf_fuse: duplicate ranking rows for an "
                             "id")
        rm = np.stack([t[c].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False) for t, c in zip(ts, rank_cols)], axis=1)
        rrf = np.zeros(len(rm), np.float64)
        for i in range(n):  # fixed left-assoc order, matches SQL
            rrf = rrf + 1.0 / (k + rm[:, i]).astype(np.float64)
        cols = {id_col: ids[0]}
        for i, c in enumerate(rank_cols):
            cols[c] = pa.array(rm[:, i], pa.int64())
        cols["rrf"] = pa.array(rrf, pa.float64())
        return pa.table(cols)

    return partitioned_map(list(rank_dss), kernel, key=id_col,
                           sort_keys=[[id_col]] * n,
                           num_partitions=num_partitions)


def pareto_front(ds, *, group_col: str, id_col: str, x_col: str,
                 y_col: str, num_partitions: int = 32):
    """2-D Pareto frontier per group — keep each group's
    non-dominated rows under "maximize both x and y": a row is
    dominated iff another row of the group is >= on both coordinates
    and strictly better on at least one.  The multi-objective
    shortlist primitive (best spend × recency, quality × length,
    score × diversity) behind the selection drivers' Pareto logic
    (selection/search.py EGO), exposed as a standalone relational
    operator.

    ``x_col``/``y_col`` must be pre-quantized INTEGER columns (cents /
    epoch-us — the house exactness contract), so domination is pure
    int comparison and DuckDB's NOT EXISTS anti-join replays the kept
    multiset exactly.  Duplicate points are all kept (neither strictly
    improves the other).  NULL group/id/x/y rows drop.

    ONE group-keyed exchange; inside a partition the frontier is run
    arithmetic: sort by (group, x, y), per distinct-x run take the
    run max of y, suffix-max those run maxima, and a row survives iff
    no strictly-greater-x run reaches its y AND it is its own x-run's
    maximum (ties of the max all survive).  No per-row Python.

    Output: ``(group, id, x, y)`` kept rows.
    """
    def prep(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.is_valid(b[group_col]),
                    pc.is_valid(b[id_col])),
            pc.and_(pc.is_valid(b[x_col]), pc.is_valid(b[y_col])))
        keep = pc.fill_null(keep, False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        for c in (x_col, y_col):
            ct = b.schema.field(c).type
            # SIGNED ints only: a uint64 column would promote the
            # sentinel-concatenated suffix-max to float64 and break
            # the pure-int domination contract above 2^53
            if not pa.types.is_signed_integer(ct):
                raise ValueError(f"pareto_front: {c} must be a "
                                 "signed integer column (quantize "
                                 "upstream)")
        return b.select([group_col, id_col, x_col, y_col])

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        codes = pc.dictionary_encode(
            t[group_col].combine_chunks()).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        x = t[x_col].to_numpy(zero_copy_only=False)
        y = t[y_col].to_numpy(zero_copy_only=False)
        gnew = np.concatenate([[True], codes[1:] != codes[:-1]])
        rnew = gnew | np.concatenate([[True], x[1:] != x[:-1]])
        rstarts = np.flatnonzero(rnew)
        rlens = np.diff(np.append(rstarts, len(x)))
        r_of = np.repeat(np.arange(len(rstarts)), rlens)
        # per x-run max of y (rows sorted by (g, x, y): run max =
        # last row of the run)
        run_max = y[rstarts + rlens - 1]
        g_of_run = (np.cumsum(gnew) - 1)[rstarts]
        # grouped SUFFIX max of run_max (pandas int64 cummax on the
        # reversed runs — exact, vectorized in C, the _seg_cummax
        # precedent)
        import pandas as pd

        incl = pd.Series(run_max[::-1]).groupby(
            g_of_run[::-1]).cummax().to_numpy()[::-1]
        # sfx[i] = max run_max of runs STRICTLY AFTER i, same group
        nxt = np.concatenate([incl[1:], [np.iinfo(np.int64).min]])
        same_g_next = np.concatenate([g_of_run[1:] == g_of_run[:-1],
                                      [False]])
        sfx = np.where(same_g_next, nxt, np.iinfo(np.int64).min)
        dominated = (sfx[r_of] >= y) | (run_max[r_of] > y)
        return t.filter(pa.array(~dominated))

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=group_col,
                           sort_keys=[group_col, x_col, y_col],
                           num_partitions=num_partitions)
