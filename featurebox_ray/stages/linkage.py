"""Blocked record-linkage scoring — the Fellegi–Sunter-style second
stage of entity resolution: within each block (e.g. a phonetic key
from ``stages/phonetic.py``), score every candidate pair by a sum of
integer per-field agreement weights and keep pairs clearing a
threshold.  Blocking bounds the quadratic comparison space; the score
is all-integer so every decision replays bit-exactly in SQL
(``CASE WHEN a.col = b.col THEN w ELSE 0 END`` sums).

Agreement semantics: a field agrees iff BOTH values are non-NULL and
equal (SQL ``=`` null-propagation ≡ the engine's valid∧valid∧equal).

Scale shape: ONE block-key exchange; the kernel enumerates each
block's pair triangle with the vectorized triangular index decode
(the q186 pattern) and scores with Arrow ``equal`` kernels — no
per-row Python.  Blocks larger than ``max_block`` are skipped with a
logged warning (the q42/q186 bounded-group convention, mirrored by
the oracle's HAVING).

Reference analog: none (no entity resolution in the reference);
completes the blocking→scoring linkage path started by
``phonetic.add_soundex_key``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["blocked_pair_score"]


def blocked_pair_score(ds, *, key_col: str, id_col: str,
                       fields: Mapping[str, int], threshold: int,
                       max_block: int = 4096,
                       num_partitions: int = 16):
    """Pairs ``(id_a, id_b, score:int64)`` with ``id_a < id_b`` from
    the same block and ``score = Σ weight[field agrees] ≥ threshold``.
    NULL block keys / ids drop."""
    from .partition import partitioned_map

    fields = dict(fields)
    if not fields:
        raise ValueError("blocked_pair_score: need at least one field")

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    id_type = base.field(id_col).type

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(pc.is_valid(b[key_col]),
                                    pc.is_valid(b[id_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        return b.select([key_col, id_col, *fields])

    empty = pa.table({"id_a": pa.array([], id_type),
                      "id_b": pa.array([], id_type),
                      "score": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        keys = t[key_col].combine_chunks()
        codes = pc.dictionary_encode(keys).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        new_run = np.concatenate([[True], codes[1:] != codes[:-1]])
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.concatenate([starts, [len(codes)]]))
        keep_seg = lens <= max_block
        n_skip = int((~keep_seg).sum())
        if n_skip:
            import logging

            logging.getLogger(__name__).warning(
                "blocked_pair_score: skipped %d blocks with > %d rows",
                n_skip, max_block)
        sl, ss = lens[keep_seg], starts[keep_seg]
        from ..functions.segments import triangular_pairs

        i_glob, j_glob, _seg = triangular_pairs(ss, sl)
        if len(i_glob) == 0:
            return empty
        # strict id inequality: duplicated ids inside a block must not
        # self-pair (the oracle joins on id_a < id_b)
        ids_all = t[id_col].combine_chunks()
        ids_np = ids_all.to_numpy(zero_copy_only=False)
        ne = ids_np[i_glob] != ids_np[j_glob]
        i_glob, j_glob = i_glob[ne], j_glob[ne]
        if len(i_glob) == 0:
            return empty
        ia = pa.array(i_glob, pa.int64())
        ja = pa.array(j_glob, pa.int64())
        score = np.zeros(len(i_glob), np.int64)
        for col, w in fields.items():
            a = t[col].combine_chunks()
            va, vb = a.take(ia), a.take(ja)
            agree = pc.fill_null(pc.and_(
                pc.and_(pc.is_valid(va), pc.is_valid(vb)),
                pc.equal(va, vb)), False).to_numpy(
                zero_copy_only=False)
            score += np.where(agree, int(w), 0)
        m = score >= threshold
        # deterministic (id_a < id_b) orientation: rows are sorted by
        # (key, id) so i_glob's id is the smaller one
        return pa.table({
            "id_a": ids_all.take(pa.array(i_glob[m], pa.int64())),
            "id_b": ids_all.take(pa.array(j_glob[m], pa.int64())),
            "score": pa.array(score[m])})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, kernel, key=key_col,
                           sort_keys=[key_col, id_col],
                           num_partitions=num_partitions)


def golden_records(ds, pairs_ds, *, id_col: str,
                   fields: "list[str]", num_partitions: int = 16):
    """Canonical-record election (the MDM "golden record" step): given
    matched pairs (``blocked_pair_score`` output, or any (id_a, id_b)
    match table), entities = connected components labeled by MIN
    member id, and each entity's canonical value per field is the
    MODE across its members, ties to the SMALLEST value (total order
    via dictionary codes ranked in value order — lexicographic for
    strings).  Records in no pair are singleton entities electing
    themselves.

    Exactness: components are the order-independent min-label
    invariant (distributed min-label propagation over the matched
    pairs — ``components.min_label_components``, so the pair set is
    never concatenated on one worker; only the matched-node-sized
    id→entity map is packed for broadcast); votes are exact int counts
    with a total tie-break, so the election is deterministic and
    partition-invariant; the whole chain replays in SQL (transitive
    closure via a recursive CTE + per-field QUALIFY mode).

    Shape: the id→entity map broadcasts once (``ray.put`` sorted
    arrays); every record routes ``(entity, fields…)`` through ONE
    entity-keyed exchange; the kernel elects all fields per
    entity-run fully vectorized (value-ranked dictionary codes +
    (count desc, code asc) first-of-run).  NULL ids drop; NULL field
    values are excluded from that field's vote, and an entity whose
    members are all NULL in a field elects NULL there.

    Returns ``(entity:int64, n_members:int64, <field columns>)``.
    Reference analog: none (completes the linkage family:
    blocked_pair_score → components → election).
    """
    import ray

    from .components import min_label_components, pack_label_map
    from .partition import partitioned_map

    lab_ref = pack_label_map(min_label_components(
        pairs_ds, pair_cols=("id_a", "id_b"),
        num_partitions=num_partitions))

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    ftypes = {f: base.field(f).type for f in fields}

    def route(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b[id_col]))
        ids = b[id_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        li, lv = ray.get(lab_ref)
        ent = ids.copy()
        if len(li):
            pos = np.searchsorted(li, ids)
            pos = np.clip(pos, 0, len(li) - 1)
            hit = li[pos] == ids
            ent[hit] = lv[pos[hit]]
        cols = {"__e": pa.array(ent)}
        for f in fields:
            cols[f] = b[f].combine_chunks()
        return pa.table(cols)

    routed = ds.map_batches(route, batch_format="pyarrow",
                            zero_copy_batch=True)

    empty_cols = {"entity": pa.array([], pa.int64()),
                  "n_members": pa.array([], pa.int64())}
    for f in fields:
        empty_cols[f] = pa.array([], ftypes[f])
    empty = pa.table(empty_cols)

    def elect(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "__e" not in t.column_names:
            return empty
        e = t["__e"].to_numpy(zero_copy_only=False)
        new = np.concatenate([[True], e[1:] != e[:-1]])
        starts = np.flatnonzero(new)
        rid = np.cumsum(new.astype(np.int64)) - 1
        n_ent = len(starts)
        lens = np.diff(np.append(starts, len(e)))
        out = {"entity": pa.array(e[starts]),
               "n_members": pa.array(lens.astype(np.int64))}
        for f in fields:
            arr = t[f].combine_chunks()
            valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
            vsel = np.flatnonzero(valid)
            if len(vsel) == 0:
                out[f] = pa.nulls(n_ent, ftypes[f])
                continue
            if pa.types.is_floating(arr.type):
                # one vote for -0.0 and 0.0, which encode apart
                arr = pc.add(arr, pa.scalar(0, arr.type))
            # codes ranked in value order: each dictionary index maps to
            # its value's rank, so the smallest code is the smallest value
            d = pc.dictionary_encode(arr)
            by_value = pc.sort_indices(d.dictionary).to_numpy()
            rank = np.empty(len(by_value), np.int64)
            rank[by_value] = np.arange(len(by_value))
            codes = rank[pc.fill_null(d.indices, 0).to_numpy(
                zero_copy_only=False)[vsel]]
            er = rid[vsel]
            o = np.lexsort((codes, er))
            er_s, cd_s = er[o], codes[o]
            nn = np.concatenate([[True], (er_s[1:] != er_s[:-1])
                                 | (cd_s[1:] != cd_s[:-1])])
            st = np.flatnonzero(nn)
            cnt = np.diff(np.append(st, len(er_s)))
            ge, gc = er_s[st], cd_s[st]
            o2 = np.lexsort((gc, -cnt, ge))
            ge2, gc2 = ge[o2], gc[o2]
            first = np.concatenate([[True], ge2[1:] != ge2[:-1]])
            win_e, win_c = ge2[first], gc2[first]
            pick = np.full(n_ent, -1, np.int64)
            pick[win_e] = by_value[win_c]
            out[f] = d.dictionary.take(
                pa.array(pick, mask=pick < 0)).cast(ftypes[f])
        return pa.table(out)

    return partitioned_map(routed, elect, key="__e",
                           sort_keys=["__e"],
                           num_partitions=num_partitions)
