"""Radius neighbor extraction — transcript-domain analog of the
reference's ``Neighborizer`` (featurizers/neighbor.py:18-74): for every
site, collect all neighbors within ``r_max``, round the distance, and
count the multiplicity of each distinct (neighbor-type, rounded-distance)
pair (the reference's ``dict_count`` of ``(specie, round(d, 4)) ->
(d, count)`` per atom).

Here the "sites" are a key's events embedded in the same
``(rank_in_key, value)`` plane as :mod:`.voronoi`, typed by a categorical
column.  Output is the flat relational form of the reference's per-site
dict — one row per ``(key, event, neighbor_type, distance)`` with its
multiplicity — which a DuckDB self-join oracle can replay exactly
(distances use the direct ``sqrt(dx²+dy²)`` form both sides, so the
``<= r_max`` boundary decisions are bit-identical).

Scale shape: ``partitioned_map`` per key partition (same as voronoi);
each key's point set is bounded by ``max_group`` (oversize groups skip
with a logged warning), the O(n²) distance matrix stays in-cache, and
multiplicity counting is a lexsort run-length pass — no per-neighbor
Python.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .partition import partitioned_map


def radius_neighbors(P: np.ndarray, types: np.ndarray, r_max: float,
                     round_nd: Optional[int] = 4):
    """All (i, neighbor_type, rounded_dist, multiplicity) rows of an
    (n, 2) point set: neighbor pairs are ``dist <= r_max``, i != j.
    Returns (site_idx, type, dist, mult) arrays."""
    n = len(P)
    if n < 2:
        return (np.empty(0, np.int64), np.empty(0, object),
                np.empty(0, np.float64), np.empty(0, np.int64))
    dx = P[:, 0][:, None] - P[:, 0][None, :]
    dy = P[:, 1][:, None] - P[:, 1][None, :]
    D = np.sqrt(dx * dx + dy * dy)
    mask = D <= r_max
    np.fill_diagonal(mask, False)
    ii, jj = np.nonzero(mask)
    if len(ii) == 0:
        return (np.empty(0, np.int64), np.empty(0, object),
                np.empty(0, np.float64), np.empty(0, np.int64))
    d = D[ii, jj]
    if round_nd is not None:
        # half-away-from-zero (distances are >= 0): DuckDB round()
        # parity — np.round's half-to-even would split a group key on an
        # exact-half distance (same shim as the q38 division column)
        s = 10.0 ** round_nd
        d = np.floor(d * s + 0.5) / s
    # type codes for lexsort (types are arbitrary strings)
    uniq, tcode = np.unique(types, return_inverse=True)
    tj = tcode[jj]
    order = np.lexsort((d, tj, ii))
    ii, tj, d = ii[order], tj[order], d[order]
    # run-length over (site, type, dist) triples
    first = np.ones(len(ii), bool)
    first[1:] = ((ii[1:] != ii[:-1]) | (tj[1:] != tj[:-1])
                 | (d[1:] != d[:-1]))
    starts = np.flatnonzero(first)
    counts = np.diff(np.concatenate([starts, [len(ii)]]))
    return (ii[starts], uniq[tj[starts]], d[starts],
            counts.astype(np.int64))


def add_radius_neighbors(
    ds,
    *,
    key: str = "user_id",
    id_col: str = "event_id",
    order_cols: Tuple[str, str] = ("ts", "event_id"),
    value_col: str = "value",
    type_col: str = "event_type",
    r_max: float = 3.0,
    round_nd: Optional[int] = 4,
    num_partitions: int = 32,
    max_group: int = 4096,
):
    """Per-key radius-neighbor multiplicity rows over points
    ``(rank_in_key, value)`` — rank = position in ``order_cols`` order.

    Returns rows ``(key, id_col, n_type, dist, mult)``: for each site,
    one row per distinct (neighbor type, rounded distance) with the
    number of neighbors at it (reference Neighborizer's dict_count,
    neighbor.py:68-73)."""

    def kernel(t: pa.Table) -> pa.Table:
        key_type = (t.schema.field(key).type
                    if key in t.column_names else pa.int64())
        empty = pa.table({key: pa.array([], key_type),
                          id_col: pa.array([], pa.int64()),
                          "n_type": pa.array([], pa.string()),
                          "dist": pa.array([], pa.float64()),
                          "mult": pa.array([], pa.int64())})
        n = t.num_rows
        if n == 0:
            return empty
        keys = t[key]
        codes = pc.dictionary_encode(
            keys.combine_chunks() if isinstance(keys, pa.ChunkedArray)
            else keys).indices.to_numpy(zero_copy_only=False)
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        types = np.asarray(
            ["" if v is None else v for v in t[type_col].to_pylist()],
            dtype=object)  # null types group as "" (sortable)
        change = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        starts = np.concatenate([[0], change, [n]])
        out_key, out_id, out_t, out_d, out_m = [], [], [], [], []
        for gi in range(len(starts) - 1):
            s, e = starts[gi], starts[gi + 1]
            g_n = e - s
            if g_n > max_group:
                import logging

                logging.getLogger("featurebox_ray.neighbor").warning(
                    "neighbor group over cap (%d rows) skipped", g_n)
                continue
            P = np.column_stack([np.arange(g_n, dtype=np.float64),
                                 vals[s:e]])
            si, st, sd, sm = radius_neighbors(P, types[s:e], r_max,
                                              round_nd)
            if len(si) == 0:
                continue
            kv = t[key][s].as_py()
            out_key.extend([kv] * len(si))
            out_id.append(ids[s:e][si])
            out_t.extend(st.tolist())
            out_d.append(sd)
            out_m.append(sm)
        if not out_key:
            return empty
        return pa.table({
            key: pa.array(out_key, key_type),
            id_col: pa.array(np.concatenate(out_id), pa.int64()),
            "n_type": pa.array(out_t, pa.string()),
            "dist": pa.array(np.concatenate(out_d), pa.float64()),
            "mult": pa.array(np.concatenate(out_m), pa.int64()),
        })

    return partitioned_map(
        ds, kernel, key=key, sort_keys=[key, *order_cols],
        num_partitions=num_partitions)
