"""Connected components over a duplicate-pair table → canonical group
labels — the survivor-selection step every dedup pipeline runs after
pair finding (component label = the SMALLEST id reachable, so "keep the
lowest id per group" is ``WHERE doc_id = component``).

Physical plan, size-dispatched (the auto_join pattern): pair sets up
to ``small_threshold`` run serial union-find in ONE off-driver Ray
task (milliseconds at test scale); larger sets run fully distributed
— the pair set is then NEVER concatenated on one worker — as
iterative min-label propagation, a vertex program on
``graph.superstep``.  Per super-round:

* **edge-min** (one superstep): each node's current label routes onto
  its half-edges keyed by the recipient, which folds ``lab ← min(lab,
  incoming)`` — extends label knowledge by one hop;
* **pointer jump** (one node exchange of the labels and the requests
  they make): each node ``u`` asks ``lab(u)`` for its label and adopts
  ``lab(lab(u))`` — halves pointer chains, so convergence is O(log
  diameter) super-rounds rather than O(diameter) (a 2^16-node path
  converges in ~16 rounds, not 32768).

Every exchange ships O(V + E) int64 rows sharded across
``num_partitions`` gather tasks; per-round state lives in the object
store as block refs and the convergence check is one small task per
block (``graph.changed_rows``) — nothing graph-sized touches the
driver.

Determinism: the component label (min reachable id) is a property of
the edge SET — independent of edge order, block structure, or the
propagation schedule — so any execution and a serial union-find replay
agree exactly (the min-label invariant all downstream oracles rely
on).

Reference analog: none (beyond-reference training-data operator; the
standard follow-on to minhash/simhash/ngram pair emitters in
stages/dedup.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import segments as seg


def union_find_min_labels(a: np.ndarray, b: np.ndarray) -> dict:
    """Serial union-find over edges (a[i], b[i]) → {node: min id in its
    component} (only nodes that appear in an edge).  The SERIAL replay
    oracle for :func:`min_label_components` — and still the right tool
    for provably-tiny edge sets held locally (e.g. dbscan's core-core
    edges)."""
    parent: dict = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != r:       # path compression
            parent[x], x = r, parent[x]
        return r

    nodes: set = set()
    for u, v in zip(a.tolist(), b.tolist()):
        nodes.add(u)
        nodes.add(v)
        ru, rv = find(u), find(v)
        if ru != rv:
            # union-by-min: the root IS the component label
            lo, hi = (ru, rv) if ru < rv else (rv, ru)
            parent[hi] = lo
    return {x: find(x) for x in nodes}


def min_label_components(pairs_ds, *, pair_cols=("id_a", "id_b"),
                         num_partitions: int = 16,
                         max_iters: int = 64,
                         small_threshold: int = 1_000_000):
    """Distributed connected components over an integer pair table.

    Returns a Dataset ``(node:int64, component:int64)`` with one row
    per distinct node appearing in any pair; ``component`` = min id
    reachable.  A pair with a NULL id is dropped; a self-pair links
    nothing but still gives its node a row.  Raises if
    ``max_iters`` super-rounds don't converge (needs ~log2(diameter)
    rounds).

    Size dispatch (the auto_join pattern): a pair set at or below
    ``small_threshold`` pairs runs serial union-find in ONE Ray task
    (milliseconds, still off-driver) — the common case after dedup
    pair-finding at test scale; anything larger takes the multi-round
    propagation, where the pair set is only ever processed
    shard-by-shard through the task exchange and no single task sees
    all pairs.  Pass ``small_threshold=0`` to force the distributed
    path (the fuzz tests do).  Both paths produce the identical
    min-label invariant."""
    import ray

    from .graph import (changed_rows, half_edges, map_blocks,
                        node_exchange, superstep)

    ca, cb = pair_cols

    def valid(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        return b.filter(pc.and_(pc.is_valid(b[ca]), pc.is_valid(b[cb])))

    edges = half_edges(pairs_ds.map_batches(
        valid, batch_format="pyarrow", zero_copy_batch=True),
        ca, cb, who="min_label_components")
    n_half = ray.data.from_arrow_refs(edges).count() if edges else 0
    if n_half == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "component": pa.array([], pa.int64())}))

    if n_half <= 2 * small_threshold:
        # small path: one off-driver task, serial union-find
        @ray.remote
        def small_labels(*blocks):
            tbls = [t for t in blocks if t.num_rows]
            t = pa.concat_tables(tbls, promote_options="default")
            lab = union_find_min_labels(
                t["__k"].to_numpy(zero_copy_only=False),
                t["to"].to_numpy(zero_copy_only=False))
            keys = np.fromiter(lab.keys(), np.int64, len(lab))
            vals = np.fromiter(lab.values(), np.int64, len(lab))
            order = np.argsort(keys)
            return pa.table({"node": pa.array(keys[order]),
                             "component": pa.array(vals[order])})

        return ray.data.from_arrow_refs([small_labels.remote(*edges)])

    def init(e: pa.Table) -> pa.Table:
        # per node, lab = min(node, smallest neighbor)
        n = seg.ints(e, "__k")
        starts = seg.run_starts(n)
        lab = n[starts].copy()
        np.minimum.at(lab, np.searchsorted(n[starts], n), seg.ints(e, "to"))
        return pa.table({"__k": pa.array(n[starts]), "lab": pa.array(lab),
                         "changed": pa.array(np.ones(len(starts),
                                                     np.int64))})

    # ---- phase a: edge-min (route labels over edges, fold min) ----

    def send(vals: pa.Table, e: pa.Table) -> pa.Table:
        starts, run = seg.owners(seg.ints(vals, "__k"), seg.ints(e, "__k"),
                                 "min_label_components: node in edge "
                                 "list missing a value row")
        return pa.table({"__k": pa.array(seg.ints(e, "to")),
                         "cand": pa.array(
                             seg.ints(vals, "lab")[starts][run])})

    def fold(vals: pa.Table, msgs: pa.Table) -> pa.Table:
        n = seg.ints(vals, "__k")
        starts, run = seg.owners(n, seg.ints(msgs, "__k"),
                                 "min_label_components: message for a "
                                 "node without a value row")
        lab_old = seg.ints(vals, "lab")[starts]
        lab_new = lab_old.copy()
        np.minimum.at(lab_new, run, seg.ints(msgs, "cand"))
        return pa.table({"__k": pa.array(n[starts]),
                         "lab": pa.array(lab_new),
                         "changed": pa.array(
                             (lab_new != lab_old).astype(np.int64))})

    # ---- phase b: pointer jump (lab ← lab(lab)) ----

    def request(b: pa.Table) -> pa.Table:
        # node u asks run lab(u) for lab(lab(u))
        return pa.table({"__k": b["lab"], "node": b["__k"]})

    def jump(state: pa.Table, req: pa.Table) -> pa.Table:
        # every request (u with lab(u) = k) adopts m = lab(k).  Each
        # node emits exactly once (via its single request row).
        k = seg.ints(req, "__k")                # request key == lab(u)
        # labels are always node ids, so every request has an owner
        # state row
        starts, run = seg.owners(seg.ints(state, "__k"), k,
                                 "min_label_components: pointer-jump "
                                 "run missing its owner state row")
        m = seg.ints(state, "lab")[starts][run]
        return pa.table({"__k": pa.array(seg.ints(req, "node")),
                         "lab": pa.array(m),
                         "changed": pa.array((m != k).astype(np.int64))})

    values = node_exchange([edges], init, num_partitions)
    it = 0
    changed = 1
    while changed and it < max_iters:
        folded = superstep(values, edges, send, fold, num_partitions)
        values = node_exchange([folded, map_blocks(request, folded)],
                               jump, num_partitions)
        changed = changed_rows(folded + values)
        it += 1
    if changed:
        raise RuntimeError(
            f"min_label_components: not converged after {max_iters} "
            "super-rounds — needs ~log2(diameter); raise max_iters")

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["__k"], "component": b["lab"]})

    return ray.data.from_arrow_refs(map_blocks(finalize, values))


def pack_label_map(labels_ds):
    """Materialize a ``(node, component)`` label Dataset into one
    remote task holding node-sorted arrays, returning the ObjectRef
    (pass it to tasks; ``ray.get`` inside is a broadcast read).  The
    packed map is matched-node-sized — orders of magnitude smaller
    than the pair set it came from — which is the documented bound for
    the broadcast-apply path."""
    import ray

    from .partition import materialized_block_refs

    refs = materialized_block_refs(labels_ds)

    @ray.remote
    def pack(*blocks):
        tbls = [t for t in blocks
                if t.num_rows and "node" in t.column_names]
        if not tbls:
            return (np.empty(0, np.int64), np.empty(0, np.int64))
        t = pa.concat_tables([b.select(["node", "component"])
                              for b in tbls], promote_options="default")
        keys = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        vals = t["component"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        order = np.argsort(keys)
        return keys[order], vals[order]

    return pack.remote(*refs)


def connected_components(pairs_ds, corpus_ds, *, id_col: str = "doc_id",
                         pair_cols=("id_a", "id_b"), batch_size=None,
                         num_partitions: int = 16,
                         max_iters: int = 64,
                         small_threshold: int = 1_000_000):
    """Label every corpus row with its duplicate-component id.

    ``pairs_ds``: Dataset with integer columns ``pair_cols`` (e.g. the
    output of ``minhash_lsh_dedup``).  ``corpus_ds``: the full table to
    label.  Output: ``(id_col, component int64)`` — one row per corpus
    row; rows in no pair get ``component = own id``.

    Labels come from :func:`min_label_components` (size-dispatched:
    one-task union-find up to ``small_threshold`` pairs, multi-round
    distributed propagation beyond — the pair set then never lands on
    one worker); the resulting matched-node-sized map broadcasts once
    and the corpus pass streams."""
    import ray

    labels = min_label_components(pairs_ds, pair_cols=pair_cols,
                                  num_partitions=num_partitions,
                                  max_iters=max_iters,
                                  small_threshold=small_threshold)
    lab_ref = pack_label_map(labels)

    def apply(batch: pa.Table) -> pa.Table:
        keys, vals = ray.get(lab_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        comp = ids.copy()
        if len(keys):
            idx = np.searchsorted(keys, ids)
            idx_c = np.minimum(idx, len(keys) - 1)
            hit = keys[idx_c] == ids
            comp[hit] = vals[idx_c[hit]]
        return pa.table({
            id_col: pa.array(ids),
            "component": pa.array(comp),
        })

    return corpus_ds.map_batches(apply, batch_format="pyarrow",
                                 zero_copy_batch=True,
                                 batch_size=batch_size)
