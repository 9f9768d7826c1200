"""Content-defined chunking (CDC) — variable-length chunk boundaries
placed where a rolling hash of the LOCAL byte window satisfies a
predicate, so boundaries depend only on nearby content: inserting or
deleting bytes early in a document re-synchronizes every later chunk
(the property that makes CDC the dedup-friendly chunker — a
fixed-window chunker shifts every subsequent chunk instead).  The
Rabin/FastCDC idea, as one vectorized map stage.

Boundary rule: a cut AFTER byte position ``p`` whenever the degree-
``window`` polynomial hash of bytes ``(p−window, p]`` has its low
``mask_bits`` bits equal to zero — a pure per-position predicate, so
the whole block vectorizes (no per-byte Python, no sequential scan).
Gaps longer than ``max_len`` split at fixed offsets from the LEFT
boundary (arithmetic, also content-anchored).  No min-length (the
predicate's expected spacing is 2^mask_bits bytes; tiny chunks are
legal and rare) — documented contract, mirrored by the replay.

Chunk ids: each chunk also carries the polynomial hash of its FULL
byte content, computed from prefix-hash differences (one vectorized
pass — ``h(chunk) = S[end] − S[start]·A^len`` over uint64 with a
power table bounded by ``max_len``), so downstream exact dedup can
group on (hash, length) without reshipping text.

Text is processed as UTF-8 BYTES (byte offsets/lengths).  NULL
ids/text drop; empty docs emit nothing.

Oracle: an independent per-doc serial replay (python rolling hash) —
the boundary rule is not SQL-expressible.  Reference analog: none
(beyond-reference dedup primitive next to chunk_documents (q68,
fixed windows) and ExactSubstr spans).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import segments as seg
from .partition import partitioned_map, partitioned_refs

CDC_A = np.uint64(0x100000001B3)           # FNV prime, odd


def _geom_table(base: np.uint64, n: int) -> np.ndarray:
    """[1, base, base², …] mod 2^64, length n — one vectorized
    cumprod (uint64 wraparound is the modulus)."""
    arr = np.full(n, base, np.uint64)
    arr[0] = np.uint64(1)
    with np.errstate(over="ignore"):
        return np.cumprod(arr)


def _inv_a() -> np.uint64:
    """A⁻¹ mod 2^64 (A is odd ⇒ invertible; Newton iteration)."""
    a = int(CDC_A)
    inv = 1
    for _ in range(6):                      # Newton: x *= 2 - a*x
        inv = (inv * (2 - a * inv)) % (1 << 64)
    assert (a * inv) % (1 << 64) == 1
    return np.uint64(inv)


def cdc_chunk(ds, *, id_col: str = "doc_id", text_col: str = "text",
              window: int = 16, mask_bits: int = 8,
              max_len: int = 4096):
    """Emit ``(id_col, chunk_idx:int64, start:int64, length:int64,
    chunk_hash:int64)`` — content-defined chunks per document (see
    module docstring).  ``chunk_hash`` is the uint64 polynomial hash
    of the chunk bytes viewed as int64."""
    if window < 1 or mask_bits < 1 or max_len < 1:
        raise ValueError("cdc_chunk: window/mask_bits/max_len >= 1")
    mask = np.uint64((1 << mask_bits) - 1)

    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    id_type = base.field(id_col).type

    empty = pa.table({id_col: pa.array([], id_type),
                      "chunk_idx": pa.array([], pa.int64()),
                      "start": pa.array([], pa.int64()),
                      "length": pa.array([], pa.int64()),
                      "chunk_hash": pa.array([], pa.int64())})

    def kernel(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or text_col not in b.column_names:
            return empty
        keep = pc.fill_null(pc.and_(pc.is_valid(b[id_col]),
                                    pc.is_valid(b[text_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        if b.num_rows == 0:
            return empty
        txt = b[text_col].combine_chunks()
        if pa.types.is_large_string(txt.type):
            txt = txt.cast(pa.string())
        n = len(txt)
        raw_off = np.frombuffer(txt.buffers()[1], np.int32)
        off = raw_off[txt.offset:txt.offset + n + 1].astype(np.int64)
        data_all = np.frombuffer(txt.buffers()[2] or b"", np.uint8)
        start0 = off[0]
        flat = data_all[start0:off[-1]].astype(np.uint64)
        N = len(flat)
        doc_start = off[:-1] - start0        # per-doc flat offsets
        doc_end = off[1:] - start0
        lens = doc_end - doc_start
        if N == 0:
            return empty
        # rolling window hash via global prefix polynomial:
        # h(bytes[s, e)) = Σ_{q∈[s,e)} b[q]·A^{e-1-q}
        #               = A^{e-1} · (csum[e] − csum[s]),
        # csum[i] = Σ_{q<i} b[q]·(A⁻¹)^q — all uint64 wraparound,
        # every table one vectorized cumprod/cumsum
        invA = _geom_table(_inv_a(), N + 1)
        powA_full = _geom_table(CDC_A, N + 1)
        with np.errstate(over="ignore"):
            terms = flat * invA[:N]
            csum = np.concatenate(
                [np.zeros(1, np.uint64), np.cumsum(terms)])
        # boundary predicate per END position e (cut after e-1):
        # window hash = h(bytes[e-window, e)), defined for e >= window
        # relative to the DOC start (windows never span documents)
        e_idx = np.arange(1, N + 1)
        with np.errstate(over="ignore"):
            def span_hash(s_arr, e_arr):
                return ((csum[e_arr] - csum[s_arr])
                        * powA_full[e_arr - 1])
            doc_of = np.repeat(np.arange(n), lens)
            rel_e = e_idx - doc_start[doc_of]    # 1..len within doc
            w_ok = rel_e >= window
            ws = np.where(w_ok, e_idx - window, 0)
            wh = span_hash(ws.astype(np.int64), e_idx)
            is_cut = w_ok & ((wh & mask) == 0)
            # never cut exactly at a doc end (the end is implicit)
            is_cut &= rel_e < lens[doc_of]
        # assemble boundaries per doc: starts of chunks = doc_start +
        # cut positions; then split any gap > max_len arithmetically
        rows_id, rows_ci, rows_st, rows_ln = [], [], [], []
        cut_pos = np.flatnonzero(is_cut) + 1     # cut AFTER byte e-1
        cd = doc_of[cut_pos - 1]
        # cd is non-decreasing: one searchsorted pair per doc gives
        # its cut slice in O(log cuts) — never a cd==d scan per doc
        # (that would be O(docs × cuts))
        doc_lo = np.searchsorted(cd, np.arange(n))
        doc_hi = np.searchsorted(cd, np.arange(n), side="right")
        out_id_idx = []
        for d in range(n):                        # per-DOC assembly:
            # bounded by chunks per doc (predicate spacing
            # ~2^mask_bits); numpy ops inside
            sel = cut_pos[doc_lo[d]:doc_hi[d]]
            bounds = np.concatenate(
                [[doc_start[d]], sel, [doc_end[d]]])
            if bounds[-1] == bounds[-2] and len(bounds) > 2:
                bounds = bounds[:-1]
            # max_len split per gap
            segs = []
            for s, e in zip(bounds[:-1], bounds[1:]):
                g = int(e - s)
                if g <= max_len:
                    if g > 0:
                        segs.append((s, e))
                else:
                    ks = np.arange(s, e, max_len)
                    for s2 in ks:
                        segs.append((int(s2), int(min(s2 + max_len,
                                                      e))))
            for ci, (s, e) in enumerate(segs):
                rows_ci.append(ci)
                rows_st.append(int(s - doc_start[d]))
                rows_ln.append(int(e - s))
                out_id_idx.append(d)
        if not rows_ci:
            return empty
        with np.errstate(over="ignore"):
            s_abs = (np.asarray([doc_start[i] for i in out_id_idx],
                                np.int64)
                     + np.asarray(rows_st, np.int64))
            e_abs = s_abs + np.asarray(rows_ln, np.int64)
            chash = ((csum[e_abs] - csum[s_abs])
                     * powA_full[np.maximum(e_abs - 1, 0)])
        return pa.table({
            id_col: b[id_col].combine_chunks().take(
                pa.array(out_id_idx, pa.int64())),
            "chunk_idx": pa.array(rows_ci, pa.int64()),
            "start": pa.array(rows_st, pa.int64()),
            "length": pa.array(rows_ln, pa.int64()),
            "chunk_hash": pa.array(chash.view(np.int64))})

    return ds.map_batches(kernel, batch_format="pyarrow",
                          zero_copy_batch=True)


def cdc_dup_share(ds, *, id_col: str = "doc_id",
                  text_col: str = "text", window: int = 16,
                  mask_bits: int = 8, max_len: int = 4096,
                  num_partitions: int = 16):
    """Chunk-level duplication rate per document — chunk the corpus
    with :func:`cdc_chunk`, then for each document count how many of
    its chunks' ``(chunk_hash, length)`` classes were FIRST seen in a
    smaller-id document: the incremental-ingest dedup signal ("how
    much of this doc is already in the corpus") at sub-document
    granularity, robust to insertions via the CDC re-sync property.

    Two task exchanges, both O(chunks): (1) keyed by chunk hash — the
    kernel takes min doc id per (hash, length) class and emits one
    partial row per (doc, is_dup) group; (2) keyed by doc id — exact
    count sums.  ``dup_share`` is ONE float64 division.  Returns
    ``(id_col, n_chunks:int64, n_dup_chunks:int64,
    dup_share:float64)`` — docs with no chunks (empty text) emit
    nothing.
    Reference analog: none (dedup family; the CDC composition)."""
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    if not pa.types.is_integer(base.field(id_col).type):
        raise ValueError(
            f"cdc_dup_share: {id_col} must be an integer column "
            "(first-seen = MIN id; the composite doc-side codes are "
            "int64) — map string ids to ints upstream")

    chunks = cdc_chunk(ds, id_col=id_col, text_col=text_col,
                       window=window, mask_bits=mask_bits,
                       max_len=max_len)

    part_empty = pa.table({id_col: pa.array([], pa.int64()),
                           "n": pa.array([], pa.int64()),
                           "nd": pa.array([], pa.int64())})

    def first_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "chunk_hash" not in t.column_names:
            return part_empty
        # partitioned_map delivers the partition sorted by
        # (chunk_hash, length, id) — trust the contract (q22-era
        # review lesson: no redundant kernel lexsorts)
        hs = t["chunk_hash"].to_numpy(zero_copy_only=False)
        ls = t["length"].to_numpy(zero_copy_only=False)
        ds_ = t[id_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        new_cls = np.concatenate(
            [[True], (hs[1:] != hs[:-1]) | (ls[1:] != ls[:-1])])
        cls = np.cumsum(new_cls.astype(np.int64)) - 1
        first_doc = ds_[np.flatnonzero(new_cls)][cls]
        is_dup = (ds_ > first_doc).astype(np.int64)
        # per-doc partial counts within this partition
        comp = ds_ * 2 + is_dup
        ucomp, inv = np.unique(comp, return_inverse=True)
        cnt = np.bincount(inv).astype(np.int64)
        docs = ucomp // 2
        dup = ucomp % 2
        return pa.table({
            id_col: pa.array(docs),
            "n": pa.array(cnt),
            "nd": pa.array(cnt * dup)})

    partials = partitioned_refs(chunks, first_kernel,
                                key="chunk_hash",
                                sort_keys=["chunk_hash", "length",
                                           id_col],
                                num_partitions=num_partitions)

    out_empty = pa.table({id_col: pa.array([], pa.int64()),
                          "n_chunks": pa.array([], pa.int64()),
                          "n_dup_chunks": pa.array([], pa.int64()),
                          "dup_share": pa.array([], pa.float64())})

    def doc_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or id_col not in t.column_names:
            return out_empty
        did = t[id_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        n = t["n"].to_numpy(zero_copy_only=False)
        nd = t["nd"].to_numpy(zero_copy_only=False)
        new_doc = np.concatenate([[True], did[1:] != did[:-1]])
        grp = np.cumsum(new_doc.astype(np.int64)) - 1
        k = int(grp[-1]) + 1 if len(grp) else 0
        tn = np.zeros(k, np.int64)
        td = np.zeros(k, np.int64)
        np.add.at(tn, grp, n)
        np.add.at(td, grp, nd)
        return pa.table({
            id_col: pa.array(did[np.flatnonzero(new_doc)]),
            "n_chunks": pa.array(tn),
            "n_dup_chunks": pa.array(td),
            "dup_share": pa.array(td.astype(np.float64)
                                  / tn.astype(np.float64))})

    return partitioned_map([partials], doc_kernel, key=id_col,
                           sort_keys=[id_col],
                           num_partitions=num_partitions)


def cdc_dup_regions(ds, *, id_col: str = "doc_id",
                    text_col: str = "text", window: int = 16,
                    mask_bits: int = 8, max_len: int = 4096,
                    num_partitions: int = 16):
    """Duplicate text REGIONS — the removal plan behind
    :func:`cdc_dup_share`'s rates: every chunk whose
    ``(chunk_hash, length)`` class occurs more than once in the
    corpus, annotated with the class size and its first-seen doc.  A
    downstream scrubber deletes byte range ``[start, start+length)``
    of every row where ``id_col != first_doc`` (keep-first policy).

    One chunk-hash-keyed exchange; classes resolved per partition
    (all members of a class co-locate), singleton classes emit
    nothing so the output is duplicate-volume-sized.  Returns
    ``(id_col, start:int64, length:int64, n_copies:int64,
    first_doc:int64)``.
    Reference analog: none (dedup family; Lee et al. ExactSubstr's
    span shape at CDC granularity)."""
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    if not pa.types.is_integer(base.field(id_col).type):
        raise ValueError(
            f"cdc_dup_regions: {id_col} must be an integer column")

    chunks = cdc_chunk(ds, id_col=id_col, text_col=text_col,
                       window=window, mask_bits=mask_bits,
                       max_len=max_len)

    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "start": pa.array([], pa.int64()),
                      "length": pa.array([], pa.int64()),
                      "n_copies": pa.array([], pa.int64()),
                      "first_doc": pa.array([], pa.int64())})

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "chunk_hash" not in t.column_names:
            return empty
        # sorted by (chunk_hash, length, id) — contract
        hs = t["chunk_hash"].to_numpy(zero_copy_only=False)
        ls = t["length"].to_numpy(zero_copy_only=False)
        ds_ = t[id_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        st = t["start"].to_numpy(zero_copy_only=False)
        new_cls = np.concatenate(
            [[True], (hs[1:] != hs[:-1]) | (ls[1:] != ls[:-1])])
        cls = np.cumsum(new_cls.astype(np.int64)) - 1
        firsts = np.flatnonzero(new_cls)
        sizes = np.diff(np.append(firsts, len(cls)))
        keep = sizes[cls] > 1                 # duplicate classes only
        if not keep.any():
            return empty
        return pa.table({
            id_col: pa.array(ds_[keep]),
            "start": pa.array(st[keep].astype(np.int64)),
            "length": pa.array(ls[keep].astype(np.int64)),
            "n_copies": pa.array(sizes[cls][keep].astype(np.int64)),
            "first_doc": pa.array(ds_[firsts][cls][keep])})

    return partitioned_map(chunks, kernel, key="chunk_hash",
                           sort_keys=["chunk_hash", "length", id_col],
                           num_partitions=num_partitions)


def cdc_scrub(ds, *, id_col: str = "doc_id", text_col: str = "text",
              window: int = 16, mask_bits: int = 8,
              max_len: int = 4096, num_partitions: int = 16):
    """Apply the keep-first removal plan — the end of the chunk-dedup
    chain (chunk → rate → plan → SCRUB): excise every duplicate
    region of every non-first document and report the exact byte
    accounting per doc.  The scrub happens for real (UTF-8 byte
    splicing on the kept ranges); ``n_after`` is measured from the
    scrubbed bytes, so ``n_before − n_removed == n_after`` is an
    internal invariant, not bookkeeping.

    One doc-keyed exchange of the doc texts and their plan rows from
    :func:`cdc_dup_regions`, read as two tables; the kernel splices each
    doc's kept ranges vectorized over region boundaries (regions per
    doc are few — predicate spacing).  Returns ``(id_col,
    n_before:int64, n_removed:int64, n_after:int64)`` — one row per
    non-empty doc; an ``id_col`` value on more than one document row
    raises ``ValueError``.  Note: excising mid-string bytes can split UTF-8
    sequences; the scrubbed text is kept internal here (counts out)
    precisely because the byte-level contract is what chunk dedup
    operates on.
    Reference analog: none (the q301 scrub-then-prove shape for
    chunk dedup)."""
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    if not pa.types.is_integer(base.field(id_col).type):
        raise ValueError(
            f"cdc_scrub: {id_col} must be an integer column")

    regions = cdc_dup_regions(ds, id_col=id_col, text_col=text_col,
                              window=window, mask_bits=mask_bits,
                              max_len=max_len,
                              num_partitions=num_partitions)

    def prep_docs(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(pc.is_valid(b[id_col]),
                                    pc.is_valid(b[text_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        return pa.table({
            id_col: b[id_col].combine_chunks().cast(pa.int64()),
            "text": b[text_col].combine_chunks().cast(pa.string())})

    docs = ds.map_batches(prep_docs, batch_format="pyarrow",
                          zero_copy_batch=True)

    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "n_before": pa.array([], pa.int64()),
                      "n_removed": pa.array([], pa.int64()),
                      "n_after": pa.array([], pa.int64())})

    def kernel(docs: pa.Table, plan: pa.Table) -> pa.Table:
        if docs.num_rows + plan.num_rows == 0:
            return empty
        did, pid = seg.ints(docs, id_col), seg.ints(plan, id_col)
        st, ln = seg.ints(plan, "start", -1), seg.ints(plan, "length")
        fd = seg.ints(plan, "first_doc", -1)
        txt = docs["text"].to_pylist() if docs.num_rows else []
        out_id, out_b, out_r, out_a = [], [], [], []
        for d in np.union1d(did, pid).tolist():
            s0, e0 = np.searchsorted(did, [d, d + 1])
            if s0 == e0:
                # plan rows for a doc outside this input slice —
                # contract: the doc row always co-locates (same key)
                raise ValueError("cdc_scrub: plan rows without their "
                                 "document row")
            if e0 - s0 > 1:
                # two document rows share the id: the plan cannot tell
                # their regions apart, and one text would be lost
                raise ValueError(
                    f"cdc_scrub: duplicate {id_col} {d} — one document "
                    f"row per id")
            p0, p1 = np.searchsorted(pid, [d, d + 1])
            bs = txt[s0].encode("utf-8")
            nb = len(bs)
            if nb == 0:
                continue
            # removal ranges: plan rows of THIS doc where it is not
            # the first-seen copy
            sel = [(int(st[i]), int(ln[i]))
                   for i in range(p0, p1) if fd[i] != d]
            if sel:
                keep_mask = np.ones(nb, bool)
                for s1, l1 in sel:
                    keep_mask[s1:s1 + l1] = False
                kept = bytes(np.frombuffer(bs, np.uint8)[keep_mask])
                removed = nb - len(kept)
            else:
                kept = bs
                removed = 0
            out_id.append(d)
            out_b.append(nb)
            out_r.append(removed)
            out_a.append(len(kept))
        if not out_id:
            return empty
        if any(b_ - r_ != a_ for b_, r_, a_ in
               zip(out_b, out_r, out_a)):
            raise AssertionError("cdc_scrub: byte accounting broke — "
                                 "overlapping removal ranges?")
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "n_before": pa.array(out_b, pa.int64()),
            "n_removed": pa.array(out_r, pa.int64()),
            "n_after": pa.array(out_a, pa.int64())})

    return partitioned_map([docs, regions], kernel, key=id_col,
                           sort_keys=[[id_col], [id_col, "start"]],
                           num_partitions=num_partitions)
