"""Geometric neighbor-statistics featurizer — transcript-domain analog of
the reference's ``count_voronoinn`` (featurizers/voronoifeature.py:28-59),
which sums Voronoi-neighbor face weights per element-type pair over a
structure's atom sites, normalized by site count.

Here the "sites" are a conversation's events embedded in a 2-D feature
plane (default: rank-in-conversation × value) typed by a categorical
column, and neighborship is the GABRIEL GRAPH: points i, j are adjacent
iff the circle with diameter (i, j) contains no third point strictly
inside.  The Gabriel graph is a classical subgraph of the Delaunay
triangulation (= the Voronoi adjacency graph), computable exactly with a
vectorized O(n² · n) midpoint test — no pymatgen/scipy dependency, and
every step is SQL-replayable so the q39 oracle value-checks the whole
operator.

Output: one row per (key, type_a, type_b) unordered type pair with
``w = Σ_adjacent 1/(1+dist) / n_points`` (the reference's Σ weight /
num_sites shape).

Scale shape: a ``partitioned_map`` per key partition; each conversation's
point set is small (bounded by ``max_group``), so the n³ test stays
in-cache; oversize groups are skipped with a logged warning (same policy
as the LSH bucket caps).
"""

from __future__ import annotations

import logging
import math
from typing import Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .partition import partitioned_map


def gabriel_edges(P: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact Gabriel-graph edges of an (n, 2) point set: pair (i, j) is an
    edge iff no other point lies strictly inside the circle with diameter
    (i, j).  Vectorized midpoint test."""
    n = len(P)
    if n < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ii, jj = np.triu_indices(n, 1)
    mid = (P[ii] + P[jj]) / 2.0  # (m, 2)
    r2 = ((P[ii, 0] - P[jj, 0]) ** 2 + (P[ii, 1] - P[jj, 1]) ** 2) / 4.0
    m = len(ii)
    keep = np.empty(m, bool)
    # chunk the (pairs × points) midpoint test so peak memory stays
    # ~2×CHUNK_CELLS doubles regardless of group size
    chunk_pairs = max(1, 4_000_000 // n)
    for s in range(0, m, chunk_pairs):
        e = min(s + chunk_pairs, m)
        # distance² of every point to every midpoint, DIRECT form: same
        # expression the SQL oracle evaluates, so boundary comparisons
        # are bit-identical (the expanded |m|²-2m·p+|p|² form rounds
        # differently and could flip near-cocircular cases)
        dx = mid[s:e, 0][:, None] - P[:, 0][None, :]
        dy = mid[s:e, 1][:, None] - P[:, 1][None, :]
        inside = dx * dx + dy * dy < r2[s:e, None]
        rows = np.arange(e - s)
        inside[rows, ii[s:e]] = False  # endpoints sit ON the circle
        inside[rows, jj[s:e]] = False
        keep[s:e] = ~inside.any(axis=1)
    return ii[keep], jj[keep]


def neighbor_type_stats(P: np.ndarray, types: np.ndarray) -> dict:
    """Per unordered type pair: Σ 1/(1+dist) over Gabriel edges between
    the types, / n_points (reference Σ weight / num_sites)."""
    ii, jj = gabriel_edges(P)
    out: dict = {}
    n = len(P)
    if n == 0:
        return out
    dist = np.sqrt(np.sum((P[ii] - P[jj]) ** 2, axis=1))
    w = 1.0 / (1.0 + dist)
    for e in range(len(ii)):
        a, b = types[ii[e]], types[jj[e]]
        key = (a, b) if a <= b else (b, a)
        out[key] = out.get(key, 0.0) + w[e]
    return {k: v / n for k, v in out.items()}


def add_voronoi_features(
    ds,
    *,
    key: str = "user_id",
    order_cols: Tuple[str, str] = ("ts", "event_id"),
    value_col: str = "value",
    type_col: str = "event_type",
    num_partitions: int = 32,
    max_group: int = 512,
    round_nd: Optional[int] = 6,
):
    """Per-key Gabriel-neighbor type-pair weights over points
    ``(rank_in_key, value)`` — rank = position in (order_cols) order, so
    both axes are well-conditioned and the embedding is replayable in SQL.

    Returns rows ``(key, type_a, type_b, w)``."""

    def kernel(t: pa.Table) -> pa.Table:
        # key type from the schema even for 0-row tables (only Ray's
        # zero-COLUMN empty bundles need the int64 fallback) so all
        # partitions emit one schema
        key_type = (t.schema.field(key).type
                    if key in t.column_names else pa.int64())
        empty = pa.table({key: pa.array([], key_type),
                          "type_a": pa.array([], pa.string()),
                          "type_b": pa.array([], pa.string()),
                          "w": pa.array([], pa.float64())})
        n = t.num_rows
        if n == 0:
            return empty

        keys = t[key]
        codes = pc.dictionary_encode(
            keys.combine_chunks() if isinstance(keys, pa.ChunkedArray)
            else keys).indices.to_numpy(zero_copy_only=False)
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        types = np.asarray(
            ["" if v is None else v for v in t[type_col].to_pylist()],
            dtype=object)  # null types group as "" (sortable)
        change = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        starts = np.concatenate([[0], change, [n]])
        out_key, out_a, out_b, out_w = [], [], [], []
        for gi in range(len(starts) - 1):
            s, e = starts[gi], starts[gi + 1]
            g_n = e - s
            if g_n > max_group:
                logging.getLogger("featurebox_ray.voronoi").warning(
                    "voronoi group over cap (%d rows) skipped", g_n)
                continue
            P = np.column_stack([np.arange(g_n, dtype=np.float64), vals[s:e]])
            stats = neighbor_type_stats(P, types[s:e])
            kv = t[key][s].as_py()
            for (a, b), v in sorted(stats.items()):
                out_key.append(kv)
                out_a.append(a)
                out_b.append(b)
                # half-away-from-zero (DuckDB round parity) — Python
                # round() is half-to-even; same shim as neighbor.py
                out_w.append(math.floor(v * (10 ** round_nd) + 0.5)
                             / (10 ** round_nd)
                             if round_nd is not None else v)
        if not out_key:
            return empty
        # build the key column with the schema's type: pa.array inference
        # would widen e.g. int32 keys to int64 and mismatch the empty
        # partitions' schema
        return pa.table({key: pa.array(out_key, key_type),
                         "type_a": pa.array(out_a, pa.string()),
                         "type_b": pa.array(out_b, pa.string()),
                         "w": pa.array(out_w, pa.float64())})

    return partitioned_map(
        ds, kernel, key=key, sort_keys=[key, *order_cols],
        num_partitions=num_partitions)
