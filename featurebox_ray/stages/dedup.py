"""Deduplication operators over document tables — first-class large-scale
training-data ops (not in the reference, which only rejects duplicate
feature *columns* — featurebox/symbol/base.py:712-731; the same
content-hash idea applied to rows at scale).

All variants follow the same scale shape: a cheap per-batch vectorized
signature (map_batches) → hash-partition groupby on a BUCKETED signature
key (``hash % P`` — P partition-sized groups, never one tiny group per
distinct value) → per-bucket vectorized resolution.

* :func:`exact_dedup` — hash-partition on the text column itself (one
  crc32 per distinct value); one vectorized sort + first-of-run filter
  per bucket over the raw text (exact, collision-free).
* :func:`minhash_lsh_dedup` — word-shingle → k minhashes → b bands; band
  buckets shuffle; candidate pairs are then VERIFIED with exact shingle
  Jaccard (set intersection over the candidates' shingle sets) so the
  output carries true Jaccard, not the signature estimate.
* :func:`simhash_dedup` — 64-bit simhash, banded into 4×16-bit chunks
  (Hamming ≤3 pigeonhole guarantee), verified by exact Hamming distance.
* :func:`embedding_neardup` — cosine near-dup via BANDED random-hyperplane
  LSH (``bands`` independent hash tables of ``planes_per_band`` planes
  each) + exact in-bucket cosine; recall ≈ 1-(1-p^r)^b is tunable to ~1
  at a chosen threshold instead of the single-table recall cliff.

Signature computation is batch-vectorized: tokens come from Arrow
``utf8_split_whitespace`` (zero Python per-row work), token hashes from a
dictionary-encoded unique-token pass, and per-row minima / bit-sums from
``np.minimum.reduceat`` / ``np.add.reduceat`` over the list offsets.
"""

from __future__ import annotations

import hashlib
import logging
import math
from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import (materialized_block_refs, partitioned_map,
                        partitioned_refs, string_buffers)

_PAIR_MIX = np.uint64(0x9E3779B97F4A7C15)


# ---------------------------------------------------------------------------
# batched tokenization + hashing (shared by minhash / simhash)
# ---------------------------------------------------------------------------

# the cache is probed whole once per batch (~15 ns per cached token), so
# its cap bounds that probe at a few ms, about what hashing one batch's
# few thousand distinct tokens costs
_TOKEN_HASH_CACHE_MAX = 1 << 18


def _blake2b_u64(tokens: pa.Array) -> np.ndarray:
    return np.fromiter(
        (int.from_bytes(hashlib.blake2b(t.encode(), digest_size=8).digest(),
                        "little") for t in tokens.to_pylist()),
        np.uint64, count=len(tokens))


class _TokenHashCache:
    """True 64-bit token hashes (blake2b/8B), one hash per token ever
    seen by this worker.  crc32-based widening is NOT enough: crc32(b,
    salt) differs from crc32(b) by a constant that depends only on
    len(b) (CRC linearity), so same-length tokens collide at 32-bit
    birthday rates.  The known tokens are held as one Arrow
    ``large_string`` array beside a ``uint64`` array of their hashes; a
    batch's distinct tokens are found in it with one ``pc.index_in``
    (the cache probed against the batch, so the hash table built is the
    batch's, not the cache's) and only the misses are hashed.  Past
    ``_TOKEN_HASH_CACHE_MAX`` tokens the cache restarts from the batch's
    distinct tokens."""

    def __init__(self):
        self.tokens = pa.nulls(0, pa.large_string())
        self.hashes = np.empty(0, np.uint64)

    def lookup(self, words: pa.Array) -> np.ndarray:
        """uint64 hash of each of the distinct tokens ``words``."""
        words = words.cast(pa.large_string())
        at = pc.fill_null(pc.index_in(self.tokens, value_set=words), -1)
        at = at.to_numpy(zero_copy_only=False)
        hit = at >= 0
        out = np.empty(len(words), np.uint64)
        out[at[hit]] = self.hashes[hit]
        miss = np.ones(len(words), bool)
        miss[at[hit]] = False
        new = words.filter(pa.array(miss))
        out[miss] = new_hashes = _blake2b_u64(new)
        if len(self.tokens) + len(new) > _TOKEN_HASH_CACHE_MAX:
            self.tokens, self.hashes = words, out.copy()
        elif len(new):
            self.tokens = pa.concat_arrays([self.tokens, new])
            self.hashes = np.concatenate([self.hashes, new_hashes])
        return out


_TOKEN_HASHES = _TokenHashCache()


def split_tokens(texts: "pa.ChunkedArray | pa.Array"
                 ) -> Tuple[pa.Array, np.ndarray]:
    """Vectorized whitespace tokenization with Python ``str.split()``
    semantics: returns (flat token StringArray, row offsets) where row i's
    tokens are ``flat[off[i]:off[i+1]]``.  Arrow's C++ splitter does the
    work; empty tokens Arrow emits at leading/trailing whitespace (which
    Python's split() never yields) are dropped and offsets rebuilt."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = pc.utf8_split_whitespace(texts)
    # list offsets (absolute into .values; a sliced array may not start
    # at 0) -> rebase both offsets and values to the covered range
    off = np.asarray(toks.offsets).astype(np.int64)
    flat_tokens = toks.values.slice(off[0], off[-1] - off[0])
    off = off - off[0]
    if len(flat_tokens) > 0:
        lens = pc.binary_length(flat_tokens).to_numpy(zero_copy_only=False)
        keep = lens > 0
        if not keep.all():
            nrows = len(off) - 1
            row_ids = np.repeat(np.arange(nrows), np.diff(off))
            kept_counts = np.bincount(row_ids[keep], minlength=nrows)
            off = np.concatenate([[0], np.cumsum(kept_counts)])
            flat_tokens = flat_tokens.filter(pa.array(keep))
    return flat_tokens, off


# RFC 1321 constants: per-step additive constant, left-rotate amount
# and message word, for the 64 steps of the 4 rounds
_MD5_INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
_MD5_K = [np.uint32(int(abs(math.sin(i + 1)) * 2 ** 32)) for i in range(64)]
_MD5_SHIFT = ((7, 12, 17, 22) * 4 + (5, 9, 14, 20) * 4
              + (4, 11, 16, 23) * 4 + (6, 10, 15, 21) * 4)
_MD5_WORD = (list(range(16)) + [(5 * i + 1) % 16 for i in range(16)]
             + [(3 * i + 5) % 16 for i in range(16)]
             + [(7 * i) % 16 for i in range(16)])
_MD5_ONE_BLOCK = 55      # longest message whose padding fits one block
# per block word, indexed by clip(message bytes left at the word, -1, 4)
# + 1: the mask keeps the word's message bytes, the pad puts the 0x80
# byte right after the message's last one
_MD5_TAIL_MASK = np.array([0, 0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF],
                          np.uint32)
_MD5_TAIL_PAD = np.array([0, 0x80, 0x8000, 0x800000, 0x80000000, 0],
                         np.uint32)
_MD5_CHUNK = 1 << 14     # grams per padded-block pass (bounds memory)


def _md5_one_block(buf: np.ndarray, start: np.ndarray,
                   length: np.ndarray) -> np.ndarray:
    """md5 of the messages ``buf[start[g]:start[g] + length[g]]`` (every
    length <= 55, ``buf`` readable 56 bytes from each start): each is
    laid out as its one RFC 1321 padded 64-byte block and the 64 steps
    run over uint32 lanes, all messages at once.  Returns (G, 16) uint8
    digests."""
    g = len(start)
    # little-endian word j of every block, read unaligned from ``buf``:
    # message bytes masked to the length, the 0x80 pad byte or'ed in;
    # words past the pad are 0 and word 14 is the bit length
    at = np.ndarray((len(buf) - 3,), "<u4", buf, strides=(1,))
    m = np.zeros((16, g), np.uint32)
    width = int(length.max()) if g else 0
    for j in range(min(14, (width >> 2) + 1)):
        r = np.clip(length - 4 * j, -1, 4) + 1
        m[j] = (at[start + 4 * j] & _MD5_TAIL_MASK[r]) | _MD5_TAIL_PAD[r]
    m[14] = length << 3
    a, b, c, d = (np.full(g, v, np.uint32) for v in _MD5_INIT)
    f = np.empty(g, np.uint32)
    t = np.empty(g, np.uint32)
    # in place over preallocated lanes: the round functions in their
    # 3-op forms, and the dead ``a`` lane takes the new ``b``
    for i in range(64):
        if i < 16:                               # d ^ (b & (c ^ d))
            np.bitwise_xor(c, d, out=f)
            f &= b
            f ^= d
        elif i < 32:                             # c ^ (d & (b ^ c))
            np.bitwise_xor(b, c, out=f)
            f &= d
            f ^= c
        elif i < 48:
            np.bitwise_xor(b, c, out=f)
            f ^= d
        else:                                    # c ^ (b | ~d)
            np.invert(d, out=f)
            f |= b
            f ^= c
        f += a
        f += _MD5_K[i]
        f += m[_MD5_WORD[i]]
        s = _MD5_SHIFT[i]
        np.left_shift(f, s, out=t)
        f >>= 32 - s
        f |= t
        np.add(b, f, out=a)
        a, b, c, d = d, a, b, c
    words = np.stack([a, b, c, d], axis=1) + np.array(_MD5_INIT, np.uint32)
    return words.astype("<u4").view(np.uint8)


def row_gram_md5(flat: pa.Array, off: np.ndarray, k: int, *,
                 short_rows: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """md5 digest of every k-token gram of every row, where ``(flat,
    off)`` come from :func:`split_tokens`: a gram's message is exactly
    ``" ".join(tokens).encode()``.  Rows with fewer than ``k`` tokens
    give no gram, or with ``short_rows`` one gram of all their tokens
    (empty rows never give one).  Returns ((G, 16) uint8 digests in row
    then position order, per-row gram counts).

    Vectorized: the tokens are joined, one space after each, straight
    from the Arrow buffers, so every gram is one contiguous byte range;
    grams of <= 55 bytes hash in bounded chunks through
    :func:`_md5_one_block`, longer ones through ``hashlib``."""
    counts = np.diff(off)
    n_grams = np.maximum(counts - k + 1, 0)
    if short_rows:
        n_grams[(counts > 0) & (counts < k)] = 1
    total = int(n_grams.sum())
    gram_off = np.cumsum(n_grams) - n_grams
    pos = np.arange(total, dtype=np.int64) - np.repeat(gram_off, n_grams)
    first = np.repeat(off[:-1], n_grams) + pos
    ntok = np.repeat(np.minimum(counts, k), n_grams)

    tok_off, data = string_buffers(flat)
    lens = np.diff(tok_off)
    buf = np.concatenate([
        np.insert(data[tok_off[0]:tok_off[-1]], tok_off[1:] - tok_off[0],
                  np.uint8(0x20)),
        np.zeros(64, np.uint8)])          # word reads past the last gram
    # token t starts at tok_start[t] in buf; a gram ends one byte (its
    # last token's trailing space) before its next token starts
    tok_start = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens + 1, out=tok_start[1:])
    start = tok_start[first]
    length = tok_start[first + ntok] - start - 1

    out = np.empty((total, 16), np.uint8)
    short = np.flatnonzero(length <= _MD5_ONE_BLOCK)
    for lo in range(0, len(short), _MD5_CHUNK):
        sel = short[lo:lo + _MD5_CHUNK]
        out[sel] = _md5_one_block(buf, start[sel], length[sel])
    for i in np.flatnonzero(length > _MD5_ONE_BLOCK):
        s = start[i]
        out[i] = np.frombuffer(
            hashlib.md5(buf[s:s + length[i]].tobytes()).digest(), np.uint8)
    return out, n_grams


def _batch_token_hashes(texts: "pa.ChunkedArray | pa.Array"
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized per-batch tokenization: returns (flat token hashes,
    row offsets) where row i's tokens are ``flat[off[i]:off[i+1]]``.

    Tokens are split with Arrow (C++), then hashed once per DISTINCT token
    in the batch (dictionary encode → the per-worker
    :class:`_TokenHashCache` per dictionary entry)."""
    flat_tokens, off = split_tokens(texts)
    if len(flat_tokens) == 0:
        return np.empty(0, np.uint64), off
    d = pc.dictionary_encode(flat_tokens)
    lut = _TOKEN_HASHES.lookup(d.dictionary)
    idx = d.indices.to_numpy(zero_copy_only=False)
    return lut[idx], off


def adjacent_token_indices(counts: np.ndarray) -> np.ndarray:
    """Flat-token indices ``i`` where tokens ``i`` and ``i+1`` belong to
    the same row (adjacent within-document pairs) — ``counts`` is the
    per-row token count (``np.diff(off)``).  Shared by the bigram-LM
    (stages/lm.py) and top-bigrams (stages/tfidf.py) emitters."""
    if counts.sum() < 2:
        return np.empty(0, np.int64)
    row_ids = np.repeat(np.arange(len(counts)), counts)
    return np.flatnonzero(row_ids[1:] == row_ids[:-1])


_GRAM_A = np.uint64(1_000_003)
_GRAM_B = np.uint64(999_999_937)


def _batch_shingles(texts, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized word-n-gram shingle hashes for a whole batch.

    Returns (flat shingle hashes, row offsets).  A global sliding-window
    polynomial over the flat token-hash array computes every window once;
    windows that straddle row boundaries are masked out.  Rows with fewer
    than ``n`` tokens get ZERO shingles — short docs are outside
    near-dup-by-shingle semantics (the q22 oracle's ``len(t) >= n``
    mirrors this; exact duplicates among them are exact_dedup's job)."""
    flat, off = _batch_token_hashes(texts)
    counts = np.diff(off)
    T = len(flat)
    # global windows over flat
    if T >= n:
        m = T - n + 1
        acc = np.zeros(m, np.uint64)
        with np.errstate(over="ignore"):
            for j in range(n):
                acc = acc * _GRAM_A + flat[j:j + m] * _GRAM_B
    else:
        acc = np.empty(0, np.uint64)
    out_counts = np.maximum(counts - n + 1, 0)
    out_off = np.concatenate([[0], np.cumsum(out_counts)])
    total_out = int(out_off[-1])
    # rows with >= n tokens: gather their valid window ranges from acc in
    # ONE ragged fancy index (no per-row Python in the hottest dedup
    # stage): position j of the output belongs to long row i and maps to
    # acc[off[i] + (j - out_off[i])]
    long_rows = np.flatnonzero(counts >= n)
    if total_out == 0 or long_rows.size == 0:
        return np.empty(0, np.uint64), out_off
    c = out_counts[long_rows]
    rep_src = np.repeat(off[long_rows], c)
    rep_dst = np.repeat(out_off[long_rows], c)
    idx = rep_src + (np.arange(total_out, dtype=np.int64) - rep_dst)
    return acc[idx], out_off


# ---------------------------------------------------------------------------
# bucketed distinct (shared: exact dedup + pair dedup)
# ---------------------------------------------------------------------------


def _bucketed_distinct(ds, key_cols: List[str], hash_cols: List[str],
                       num_partitions: int, sort_col: Optional[str] = None,
                       distinct_cols: Optional[List[str]] = None):
    """Distinct rows by ``key_cols`` via hash-bucket groupby: the shuffle
    key is ``mix(hash_cols) % P`` (P partition-sized groups — one
    vectorized pandas ``drop_duplicates`` per bucket, NEVER one UDF call
    per distinct value).  ``sort_col`` picks which duplicate survives
    (min); ``distinct_cols`` defaults to ``key_cols``."""
    P = num_partitions
    distinct_cols = distinct_cols or key_cols

    def bucket(batch: pa.Table) -> pa.Table:
        h = np.zeros(batch.num_rows, np.uint64)
        with np.errstate(over="ignore"):
            for c in hash_cols:
                v = batch[c].to_numpy(zero_copy_only=False).astype(np.uint64)
                h = (h ^ v) * _PAIR_MIX
        return batch.append_column(
            "__b", pa.array((h % np.uint64(P)).astype(np.int32)))

    def distinct(group: pa.Table) -> pa.Table:
        if "__b" not in group.column_names:
            # zero-column empty bundle from an all-empty upstream
            return group
        df = group.to_pandas()
        if sort_col is not None:
            df = df.sort_values(sort_col, kind="stable")
        df = df.drop_duplicates(distinct_cols, keep="first").drop(columns="__b")
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    bucketed = ds.map_batches(bucket, batch_format="pyarrow",
                              zero_copy_batch=True)
    return partitioned_map(bucketed, distinct, key="__b",
                           sort_keys=["__b"], num_partitions=P)


def distinct_pairs(pairs_ds, *, num_partitions: int = 16):
    """Drop duplicate (id_a, id_b) rows (same pair found in several LSH
    bands).  Bucketed: shuffle key is an 8-byte pair hash ``% P``."""
    return _bucketed_distinct(pairs_ds, ["id_a", "id_b"], ["id_a", "id_b"],
                              num_partitions)


def _bucketed_pair_search(exploded, *, id_col: str, pair_fn,
                          empty_table: pa.Table, bucket_cap: int,
                          num_partitions: int = 16, cap_msg: str = "bucket"):
    """Shared LSH pair-finding stage: rows carry ``(__band, __bucket)``
    keys; the shuffle is a COARSE hash of (band, bucket) into P
    partition-sized groups (one kernel call per partition — never one UDF
    per tiny bucket), and the kernel walks that partition's buckets as
    contiguous runs of a lexsort, calling ``pair_fn(bucket_table)`` only
    for runs with >= 2 rows (most LSH buckets are singletons and cost one
    comparison)."""
    P = num_partitions

    def coarse(batch: pa.Table) -> pa.Table:
        band = batch["__band"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = batch["__bucket"].to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = ((bucket ^ (band * np.uint64(0xD1B54A32D192ED03)))
                 * _PAIR_MIX) % np.uint64(P)
        return batch.append_column("__p", pa.array(h.astype(np.int32)))

    def kernel(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return empty_table
        band = group["__band"].to_numpy(zero_copy_only=False)
        bucket = group["__bucket"].to_numpy(zero_copy_only=False)
        order = np.lexsort((bucket, band))
        g = group.take(pa.array(order))
        band, bucket = band[order], bucket[order]
        change = np.flatnonzero((band[1:] != band[:-1])
                                | (bucket[1:] != bucket[:-1])) + 1
        starts = np.concatenate([[0], change, [n]])
        outs = []
        for i in range(len(starts) - 1):
            s, e = starts[i], starts[i + 1]
            if e - s < 2:
                continue
            if e - s > bucket_cap:
                logging.getLogger("featurebox_ray.dedup").warning(
                    "%s over cap (%d rows) skipped — near-dup pairs inside "
                    "it are not reported", cap_msg, e - s)
                continue
            t = pair_fn(g.slice(s, e - s))
            if t.num_rows:
                outs.append(t)
        if not outs:
            return empty_table
        return pa.concat_tables(outs)

    coarsed = exploded.map_batches(coarse, batch_format="pyarrow",
                                   zero_copy_batch=True)
    return partitioned_map(coarsed, kernel, key="__p", sort_keys=["__p"],
                           num_partitions=P)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(ds, *, text_col: str = "text", id_col: str = "doc_id",
                num_partitions: int = 32):
    """Keep the first (min ``id_col``) row per exact ``text_col`` value.

    Partition directly on the text column (``partitioned_map`` hashes
    each DISTINCT value once via its dictionary-encoded crc32 bucketer),
    then resolve each partition with an Arrow-native sort +
    first-of-run filter over the raw text — exact (no hash-collision
    risk), no pandas round trip, no per-row Python.

    NULL text rows are ALL KEPT (missing text is not a duplicate of
    other missing text — the dictionary encodes each null row as its
    own run); a SQL replay needs ``text IS NULL OR row_number() = 1``
    (the q94 oracle shape), not a bare QUALIFY."""

    def first_per_text(t: pa.Table) -> pa.Table:
        # whole partition sorted by (text, id): equal texts are
        # contiguous runs and the first row of each run has the min id
        if t.num_rows == 0 or text_col not in t.column_names:
            return t
        texts = t[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        codes = pc.dictionary_encode(texts).indices.to_numpy(
            zero_copy_only=False)
        first = np.ones(len(codes), bool)
        first[1:] = codes[1:] != codes[:-1]
        return t.filter(pa.array(first))

    return partitioned_map(ds, first_per_text, key=text_col,
                           sort_keys=[text_col, id_col],
                           num_partitions=num_partitions)


def keep_best_dedup(ds, *, text_col: str = "text",
                    id_col: str = "doc_id", score_col: str,
                    num_partitions: int = 32):
    """Exact dedup keeping the BEST row per ``text_col`` value — max
    ``score_col``, ties to min ``id_col`` (the curation keep rule:
    among canonically-identical docs keep the longest / highest-quality
    one, instead of :func:`exact_dedup`'s min-id pick).

    Same plan as :func:`exact_dedup` (partition on the text value, one
    sort + first-of-run filter per partition); the descending score
    rides as a negated sort column.  NULL scores lose to any scored
    duplicate (SQL ``ORDER BY score DESC NULLS LAST``); NULL text rows
    are all kept.
    """
    neg = "__negscore"

    def prep(b: pa.Table) -> pa.Table:
        v = b[score_col].combine_chunks()
        return b.append_column(neg, pc.negate(v))

    def best_per_text(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or text_col not in t.column_names:
            return t
        texts = t[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        codes = pc.dictionary_encode(texts).indices.to_numpy(
            zero_copy_only=False)
        first = np.ones(len(codes), bool)
        # NaN != NaN keeps every null-text row (its own run)
        first[1:] = codes[1:] != codes[:-1]
        return t.filter(pa.array(first)).drop_columns([neg])

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return partitioned_map(prepped, best_per_text, key=text_col,
                           sort_keys=[text_col, neg, id_col],
                           num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# minhash + LSH
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _minhash_params(k: int, seed: int = 17) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, k, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, k, dtype=np.int64).astype(np.uint64)
    return a, b


class MinHasher:
    """Stateful per-actor minhash signature computer (params built once).

    Signatures for a whole batch are computed in one vectorized pass:
    ``(k, n_shingles_total)`` universal-hash matrix (chunked over the
    shingle axis to bound peak memory) followed by per-row
    ``np.minimum.reduceat``."""

    _CHUNK = 1 << 16  # shingle-axis chunk: k×CHUNK×8B peak (~32 MB at k=64)

    def __init__(self, k: int = 64, shingle_n: int = 3, seed: int = 17,
                 text_col: str = "text"):
        self.a, self.b = _minhash_params(k, seed)
        self.k = k
        self.n = shingle_n
        self.text_col = text_col

    def batch_signatures(self, texts) -> np.ndarray:
        """(n_rows, k) uint64 signature matrix for an Arrow string array.

        Rows with zero shingles (< shingle_n tokens) keep an all-max
        sentinel signature; ``minhash_lsh_dedup`` FILTERS sentinel rows
        out before banding (letting them band together would put every
        short doc of the corpus in one bucket per band — an O(S²)
        candidate explosion), and the exact-Jaccard verification scores
        any surviving empty-set pair 0 as a second line of defense."""
        flat, off = _batch_shingles(texts, self.n)
        nrows = len(off) - 1
        if nrows == 0:
            return np.empty((0, self.k), np.uint64)
        sigs = np.full((self.k, nrows), np.iinfo(np.uint64).max, np.uint64)
        nonempty = np.flatnonzero(np.diff(off) > 0)
        starts = off[:-1][nonempty]  # strictly increasing, all < len(flat)
        for s in range(0, len(flat), self._CHUNK):
            chunk = flat[s:s + self._CHUNK]
            with np.errstate(over="ignore"):
                vals = (chunk[None, :] * self.a[:, None]
                        + self.b[:, None]) % _MERSENNE
            # non-empty rows overlapping this chunk
            lo = np.searchsorted(starts, s, side="right") - 1
            lo = max(lo, 0)
            hi = np.searchsorted(starts, s + len(chunk), side="left")
            if hi <= lo:
                continue
            idx = np.clip(starts[lo:hi] - s, 0, None)
            part = np.minimum.reduceat(vals, idx, axis=1)
            cols = nonempty[lo:hi]
            sigs[:, cols] = np.minimum(sigs[:, cols], part)
        return sigs.T

    def signature(self, text: str) -> np.ndarray:
        return self.batch_signatures(pa.array([text], pa.string()))[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = self.batch_signatures(batch[self.text_col])
        return batch.append_column(
            "__sig", pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.ravel(), pa.uint64()), self.k)
        )


# per-worker hasher cache for the stateless-task signature stages (see
# ``text.text_features_fn`` for why these exist beside the actor pools)
_MH_CACHE: dict = {}


def _band_buckets(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) uint64 bucket keys: FNV-fold of each band's signature
    segment."""
    n, k = sig.shape
    rows_per_band = k // bands
    out = np.empty((n, bands), np.uint64)
    with np.errstate(over="ignore"):
        for b in range(bands):
            seg = sig[:, b * rows_per_band:(b + 1) * rows_per_band]
            bucket = np.zeros(n, dtype=np.uint64)
            for j in range(rows_per_band):
                bucket = bucket * np.uint64(1099511628211) + seg[:, j]
            out[:, b] = bucket
    return out


def minhash_bands_fn(batch: pa.Table, *, k: int = 16, bands: int = 4,
                     text_col: str = "text") -> pa.Table:
    """Compact dedup-signature stage: MinHash then fold into ``bands``
    uint64 band-bucket columns (``mh_band0..``) instead of carrying the
    full signature list (32 B/row vs 8k B/row) — the shape a 100 TB
    pipeline ships through its shuffle."""
    assert k % bands == 0, "k must divide into bands (else hashes are dropped)"
    key = (k, text_col)
    mh = _MH_CACHE.get(key)
    if mh is None:
        mh = _MH_CACHE[key] = MinHasher(k=k, text_col=text_col)
    sig = mh.batch_signatures(batch[text_col])
    buckets = _band_buckets(sig, bands)
    out = batch
    for b in range(bands):
        out = out.append_column(f"mh_band{b}",
                                pa.array(buckets[:, b], pa.uint64()))
    return out


def minhash_lsh_dedup(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    jaccard_threshold: float = 0.8,
    candidate_est_threshold: float = 0.5,
    concurrency=None,
    bucket_cap: int = 2000,
    verify_cap: Optional[int] = None,
    round_nd: Optional[int] = 6,
    pair_filter=None,
):
    """Near-duplicate pairs via MinHash+LSH, verified with EXACT shingle
    Jaccard.

    Returns a Dataset of pairs ``(id_a, id_b, jaccard)`` with
    ``id_a < id_b`` and exact word-``shingle_n``-gram Jaccard ≥
    ``jaccard_threshold``.  Scale shape: signatures are stateless tasks
    with per-worker cached params (``concurrency`` — an int, or the
    legacy (min, max) tuple whose max is used — caps concurrent
    signature tasks; default None = every core); each of ``bands``
    band-buckets is a groupby
    on an 8-byte key (only ``(id, signature)`` shuffles); candidate pairs
    (signature agreement ≥ ``candidate_est_threshold``, a loose lower
    bound so borderline-est true pairs aren't dropped) are bucket-deduped,
    then verified against the candidates' exact shingle sets.

    Verification is a distributed semi-join (see
    :func:`verify_jaccard_pairs`): the corpus streams once through a
    shingle stage that keeps only candidate docs, shingle sets are routed
    to pair buckets by exchange, and each bucket verifies locally —
    nothing pair- or shingle-sized materializes on the driver.
    ``verify_cap`` (optional) fails loudly if the deduped candidate count
    exceeds it (a mis-tuned banding config guard).

    Recall note: LSH candidate recall is probabilistic (≈1-(1-j^(k/b))^b;
    ~2e-4 miss per true pair at k=64/bands=16 and j=0.8) and
    ``bucket_cap`` skips (with a logged warning) buckets over the cap.
    The q22 oracle's exact equality with an all-pairs ground truth holds
    because the test corpus's planted pairs sit at j≥0.9 (per-pair miss
    <1e-6) and its buckets are far below the cap; for duplicate-heavier
    corpora raise ``bands`` (more redundancy) the way the embedding
    config (48×2) does, or treat parity as recall≈1, not identity."""
    assert k % bands == 0, "k must divide into bands (else hashes are dropped)"

    def sig_fn(batch: pa.Table) -> pa.Table:
        # stateless task with per-worker cached params: no actor-pool
        # spin-up latency; state still built once per worker process
        ck = (k, shingle_n, text_col)
        mh = _MH_CACHE.get(ck)
        if mh is None:
            mh = _MH_CACHE[ck] = MinHasher(k=k, shingle_n=shingle_n,
                                           text_col=text_col)
        return mh(batch)

    sig_kw = {}
    if concurrency is not None:
        c = concurrency[-1] if isinstance(concurrency, (tuple, list)) \
            else concurrency
        sig_kw["concurrency"] = int(c)
    sig_ds = ds.map_batches(
        sig_fn, batch_format="pyarrow", zero_copy_batch=True, **sig_kw,
    ).select_columns([id_col, "__sig"])

    def explode_bands(batch: pa.Table) -> pa.Table:
        sig = (np.stack(batch["__sig"].to_numpy(zero_copy_only=False))
               if batch.num_rows else
               np.empty((0, k), np.uint64))
        if len(sig):
            # drop zero-shingle (short/empty) docs BEFORE banding: their
            # shared all-max sentinel signature would put every short doc
            # of the corpus in one bucket per band — an O(S²) candidate
            # explosion for pairs that verification is guaranteed to drop
            real = ~(sig == np.iinfo(np.uint64).max).all(axis=1)
            if not real.all():
                batch = batch.filter(pa.array(real))
                sig = sig[real]
        n = batch.num_rows
        if n == 0:
            return pa.table({id_col: pa.array([], batch[id_col].type),
                             "__band": pa.array([], pa.int32()),
                             "__bucket": pa.array([], pa.uint64()),
                             "__sig": pa.array([], batch["__sig"].type)})
        buckets = _band_buckets(sig, bands)
        ids = batch[id_col].combine_chunks() if isinstance(
            batch[id_col], pa.ChunkedArray) else batch[id_col]
        sigc = batch["__sig"].combine_chunks() if isinstance(
            batch["__sig"], pa.ChunkedArray) else batch["__sig"]
        return pa.table({
            id_col: pa.concat_arrays([ids] * bands),
            "__band": pa.array(np.repeat(np.arange(bands, dtype=np.int32), n)
                               .reshape(bands, n).ravel()),
            "__bucket": pa.array(buckets.T.ravel(), pa.uint64()),
            "__sig": pa.concat_arrays([sigc] * bands),
        })

    exploded = sig_ds.map_batches(explode_bands, batch_format="pyarrow")

    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "est_jaccard": pa.array([], pa.float64())})

    def pairs_in_bucket(group: pa.Table) -> pa.Table:
        ids = np.asarray(group[id_col].to_pylist(), dtype=np.int64)
        sig = np.stack(group["__sig"].to_numpy(zero_copy_only=False))
        # unique ids only (same doc may appear once per bucket)
        uniq, first = np.unique(ids, return_index=True)
        ids, sig = ids[first], sig[first]
        m = len(ids)
        if m < 2:
            return empty
        ii, jj = np.triu_indices(m, 1)
        est = (sig[ii] == sig[jj]).mean(axis=1)
        keep = est >= candidate_est_threshold
        return pa.table({
            "id_a": pa.array(ids[ii[keep]]),
            "id_b": pa.array(ids[jj[keep]]),
            "est_jaccard": pa.array(est[keep]),
        })

    pairs = _bucketed_pair_search(
        exploded, id_col=id_col, pair_fn=pairs_in_bucket,
        empty_table=empty, bucket_cap=bucket_cap, cap_msg="minhash bucket")
    if pair_filter is not None:
        # candidate-pair predicate applied BEFORE the (expensive)
        # verification exchange — e.g. incremental_neardup keeps only
        # cross-corpus pairs so verification never touches
        # within-corpus candidates
        pairs = pairs.map_batches(pair_filter, batch_format="pyarrow",
                                  zero_copy_batch=True)
    return verify_jaccard_pairs(
        pairs, ds, text_col=text_col, id_col=id_col,
        shingle_n=shingle_n, jaccard_threshold=jaccard_threshold,
        verify_cap=verify_cap, round_nd=round_nd)


def _verify_pairs_generic(pairs_ds, docs_ds, *, id_col: str,
                          payload_fn, payload_type: pa.DataType,
                          pair_scorer, out_col: str, threshold: float,
                          verify_cap: Optional[int] = None,
                          num_partitions: int = 16,
                          round_nd: Optional[int] = 6):
    """Exact verification of candidate pairs against a per-doc payload —
    the distributed semi-join shape shared by shingle-Jaccard
    (:func:`verify_jaccard_pairs`) and embedding-cosine
    (:func:`embedding_neardup`) verification.  Nothing pair- or
    payload-sized ever lands on the driver; the driver only routes
    object refs:

    1. pairs get a deterministic bucket ``hash(id_a, id_b) % P`` (same
       pair from several bands always lands in the same bucket, so
       cross-band duplicates dedupe inside the verify kernel — no
       dedicated dedup exchange);
    2. the unique candidate-id SET (int64 ids, ≪ corpus by LSH
       construction) is reduced inside a Ray task and broadcast as an
       object-store ref — the one small broadcast this op needs, the
       standard alternative to shuffling the full corpus payload;
    3. the corpus streams once through ``payload_fn``, which keeps only
       candidate docs and emits rows ``(doc_id, payload list)``;
    4. payload rows are routed to every pair bucket that references
       their doc via a co-partitioned exchange with the
       ``(doc_id, bucket)`` request table (exchange #1, on doc_id);
    5. each bucket partition scores its pairs with ``pair_scorer``
       against its local payload rows and keeps scores >= ``threshold``
       (exchange #2, on the pair bucket) — the classic two-round
       distributed semi-join, nothing in between.

    ``payload_fn(sub: pa.Table) -> pa.Array`` receives the
    candidate-filtered corpus rows and returns one ``payload_type``
    (a list type) entry per row; ``pair_scorer(pa_, pb) -> float``
    receives the two numpy payload arrays.

    ``verify_cap`` (optional): loud guard on the PRE-dedup candidate-pair
    count (pairs found in several bands count once per band — dedup
    happens later, inside the verify kernel), for callers that want to
    enforce the candidates-≪-corpus assumption rather than let a
    mis-tuned banding config run long.
    Candidate ids absent from ``docs_ds`` (possible with
    externally-supplied pairs) are skipped with a logged warning, never
    a crash.  Output: ``(id_a, id_b, <out_col>)`` with score
    >= ``threshold``."""
    P = num_partitions
    PB = "__pb"
    out_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                            (out_col, pa.float64())])

    def add_pb(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "id_a" not in t.column_names:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             PB: pa.array([], pa.int64())})
        a = t["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            mix = (a.astype(np.uint64) * _PAIR_MIX
                   + b.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F))
        pb = (mix % np.uint64(P)).astype(np.int64)
        return pa.table({"id_a": pa.array(a), "id_b": pa.array(b),
                         PB: pa.array(pb)})

    # materialize the bucketed pairs ONCE (the LSH plan upstream must not
    # re-execute per consumer — requests + verify exchange both read this)
    pair_refs = materialized_block_refs(
        pairs_ds.map_batches(add_pb, batch_format="pyarrow",
                             zero_copy_batch=True))
    if not pair_refs:
        return ray.data.from_arrow(out_schema.empty_table())
    cand_pairs = ray.data.from_arrow_refs(pair_refs)
    if verify_cap is not None:
        n_pairs = cand_pairs.count()
        if n_pairs > verify_cap:
            raise ValueError(
                f"{n_pairs} candidate pairs exceed verify_cap="
                f"{verify_cap}; raise candidate_est_threshold or the cap")

    def pairs_to_requests(t: pa.Table) -> pa.Table:
        a = t["id_a"].to_numpy(zero_copy_only=False)
        b = t["id_b"].to_numpy(zero_copy_only=False)
        pb = t[PB].to_numpy(zero_copy_only=False)
        doc = np.concatenate([a, b])
        pb2 = np.concatenate([pb, pb])
        # within-batch dedup keeps the request exchange lean; cross-batch
        # duplicates are harmless (the verify dict build overwrites)
        uniq = np.unique(np.stack([doc, pb2], axis=1), axis=0) \
            if len(doc) else np.empty((0, 2), np.int64)
        return pa.table({id_col: pa.array(uniq[:, 0], pa.int64()),
                         PB: pa.array(uniq[:, 1], pa.int64())})

    requests = cand_pairs.map_batches(pairs_to_requests,
                                      batch_format="pyarrow")
    req_refs = materialized_block_refs(requests)

    @ray.remote
    def collect_ids(*blocks):
        arrs = [blk[id_col].to_numpy(zero_copy_only=False)
                for blk in blocks if blk.num_rows > 0]
        return (np.unique(np.concatenate(arrs)) if arrs
                else np.empty(0, np.int64))

    # candidate-id set reduced IN a task: the driver holds only the ref
    need_ref = collect_ids.remote(*req_refs)
    requests = ray.data.from_arrow_refs(req_refs)

    def candidate_payloads(batch: pa.Table) -> pa.Table:
        need = ray.get(need_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.isin(ids, need)
        if not mask.any():
            return pa.table({id_col: pa.array([], pa.int64()),
                             "__sh": pa.array([], payload_type)})
        sub = batch.filter(pa.array(mask))
        return pa.table({
            id_col: sub[id_col].cast(pa.int64()),
            "__sh": payload_fn(sub).cast(payload_type),
        })

    sh_rows = docs_ds.map_batches(candidate_payloads, batch_format="pyarrow",
                                  zero_copy_batch=True)

    routed_empty = pa.table({id_col: pa.array([], pa.int64()),
                             "__sh": pa.array([], payload_type),
                             PB: pa.array([], pa.int64())})

    def route_kernel(doc: pa.Table, req: pa.Table) -> pa.Table:
        # replicate each doc's payload to every bucket requesting it
        # (Arrow acero can't carry list payloads through Table.join, so
        # the match is a sorted searchsorted gather instead)
        if doc.num_rows == 0 or req.num_rows == 0:
            return routed_empty
        did = doc[id_col].to_numpy(zero_copy_only=False)
        rid = req[id_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(did, rid)
        ok = (idx < len(did)) & (did[np.minimum(idx, len(did) - 1)] == rid)
        sh_col = doc["__sh"].combine_chunks() if isinstance(
            doc["__sh"], pa.ChunkedArray) else doc["__sh"]
        return pa.table({
            id_col: pa.array(rid[ok], pa.int64()),
            "__sh": sh_col.take(pa.array(idx[ok])),
            PB: req[PB].filter(pa.array(ok)),
        })

    routed = partitioned_refs([sh_rows, requests], route_kernel, key=id_col,
                              sort_keys=[[id_col], [id_col]],
                              num_partitions=P)

    np_value_dtype = payload_type.value_type.to_pandas_dtype()

    def verify(pairs_t: pa.Table, docs_t: pa.Table) -> pa.Table:
        if pairs_t.num_rows == 0:
            return out_schema.empty_table()
        sh = {}
        doc_ids = (docs_t[id_col].to_numpy(zero_copy_only=False)
                   if docs_t.num_rows else [])
        sh_col = docs_t["__sh"].to_pylist() if docs_t.num_rows else []
        for i in range(len(doc_ids)):
            sh[doc_ids[i]] = np.asarray(sh_col[i], np_value_dtype)
        a = pairs_t["id_a"].to_numpy(zero_copy_only=False)
        b = pairs_t["id_b"].to_numpy(zero_copy_only=False)
        # same pair found in several bands hashes to the same bucket:
        # dedupe here instead of in a dedicated exchange
        if len(a):
            uniq = np.unique(np.stack([a, b], axis=1), axis=0)
            a, b = uniq[:, 0], uniq[:, 1]
        score = np.empty(len(a), np.float64)
        missing = 0
        for i in range(len(a)):
            sa, sb = sh.get(a[i]), sh.get(b[i])
            if sa is None or sb is None:
                # candidate id absent from the corpus (externally-supplied
                # pairs): not verifiable — skip, never crash
                missing += 1
                score[i] = -np.inf
                continue
            score[i] = pair_scorer(sa, sb)
        if missing:
            logging.getLogger("featurebox_ray.dedup").warning(
                "%d candidate pairs referenced doc ids absent from the "
                "corpus; skipped", missing)
        keep = score >= threshold
        if round_nd is not None:
            score = np.round(score, round_nd)
        return pa.table({
            "id_a": pa.array(a[keep], pa.int64()),
            "id_b": pa.array(b[keep], pa.int64()),
            out_col: pa.array(score[keep]),
        })

    return partitioned_map([cand_pairs, routed], verify, key=PB,
                           sort_keys=[[PB], [PB]], num_partitions=P)


def _jaccard_scorer(sa: np.ndarray, sb: np.ndarray) -> float:
    inter = len(np.intersect1d(sa, sb, assume_unique=True))
    union = len(sa) + len(sb) - inter
    # union == 0: both docs have < shingle_n tokens — outside shingle
    # near-dup semantics, NOT a near-dup pair
    return inter / union if union else 0.0


def verify_jaccard_pairs(pairs_ds, docs_ds, *, text_col: str = "text",
                         id_col: str = "doc_id", shingle_n: int = 3,
                         jaccard_threshold: float = 0.8,
                         verify_cap: Optional[int] = None,
                         num_partitions: int = 16,
                         round_nd: Optional[int] = 6):
    """Exact shingle-Jaccard verification of candidate pairs — the
    :func:`_verify_pairs_generic` semi-join with shingle-set payloads
    (see that docstring for the exchange shape and scale contract).
    Output: ``(id_a, id_b, jaccard)`` with exact word-``shingle_n``-gram
    Jaccard >= ``jaccard_threshold``."""

    def shingle_payload(sub: pa.Table) -> pa.Array:
        flat, off = _batch_shingles(sub[text_col], shingle_n)
        sets = [np.unique(flat[off[i]:off[i + 1]])
                for i in range(len(off) - 1)]
        return pa.array([s.tolist() for s in sets], pa.list_(pa.uint64()))

    return _verify_pairs_generic(
        pairs_ds, docs_ds, id_col=id_col, payload_fn=shingle_payload,
        payload_type=pa.list_(pa.uint64()), pair_scorer=_jaccard_scorer,
        out_col="jaccard", threshold=jaccard_threshold,
        verify_cap=verify_cap, num_partitions=num_partitions,
        round_nd=round_nd)


# ---------------------------------------------------------------------------
# exact n-gram Jaccard join (prefix filtering)
# ---------------------------------------------------------------------------


def ngram_jaccard_join(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_n: int = 3,
    jaccard_threshold: float = 0.8,
    num_partitions: int = 16,
    bucket_cap: int = 2000,
    verify_cap: Optional[int] = None,
    round_nd: Optional[int] = 6,
):
    """EXACT word-n-gram Jaccard similarity self-join (no MinHash
    approximation) via prefix filtering — the All-Pairs / PPJoin
    candidate scheme (Bayardo et al., WWW'07; Xiao et al., WWW'08).

    Returns pairs ``(id_a, id_b, jaccard)`` with ``id_a < id_b`` and
    exact shingle Jaccard >= ``jaccard_threshold``; unlike
    :func:`minhash_lsh_dedup` the candidate generation itself is exact:
    any pair with ``J >= t`` MUST share a shingle in both docs' length-
    ``|s| - ceil(t*|s|) + 1`` prefixes under a global shingle order (here:
    ascending 64-bit shingle hash), so recall is 1.0 up to ``bucket_cap``
    skips (logged).  Scale shape: only ``(id, prefix-shingle, set-size)``
    rows shuffle — a ``(1-t)``-fraction of each doc's distinct shingles,
    NOT the full shingle multiset; candidate pairs are size-filtered
    (``min >= t*max``) in the bucket kernel; verification is the same
    two-exchange distributed semi-join the MinHash path uses (cross-
    bucket duplicate pairs dedupe inside the verify kernel).  At 100 TB
    the lever is the global order: hash order is deterministic but
    frequency-blind, so a corpus with ultra-common shingles wants the
    documented two-pass rarest-first variant (count shingle df, broadcast
    a hot-shingle blacklist) to keep prefix buckets under ``bucket_cap``.

    Reference anchor: the engine-side analog of exact duplicate-feature
    rejection generalized to near-dup (SURVEY §2.8); oracle = all-pairs
    shingle Jaccard in SQL (q45)."""
    t = float(jaccard_threshold)
    assert 0.0 < t <= 1.0

    def prefix_rows(batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        empty_out = pa.table({
            id_col: pa.array([], pa.int64()),
            "__band": pa.array([], pa.int32()),
            "__bucket": pa.array([], pa.uint64()),
            "__nsh": pa.array([], pa.int64()),
            "__pos": pa.array([], pa.int64())})
        if n_rows == 0:
            return empty_out
        flat, off = _batch_shingles(batch[text_col], shingle_n)
        counts = np.diff(off)
        row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
        if len(flat) == 0:
            return empty_out
        # per-row distinct shingles, ascending hash within each row
        # (one lexsort for the whole batch — the global prefix order)
        order = np.lexsort((flat, row_ids))
        rs, hs = row_ids[order], flat[order]
        keep = np.ones(len(hs), bool)
        keep[1:] = (rs[1:] != rs[:-1]) | (hs[1:] != hs[:-1])
        rs, hs = rs[keep], hs[keep]
        nsh = np.bincount(rs, minlength=n_rows)
        # prefix length p = n - ceil(t*n) + 1 (the 1e-9 shim keeps an
        # exactly-integer t*n from float-rounding UP, which would shrink
        # the prefix and silently lose recall)
        p = nsh - np.ceil(t * nsh - 1e-9).astype(np.int64) + 1
        p = np.where(nsh > 0, p, 0)
        starts = np.concatenate([[0], np.cumsum(nsh)])[:-1]
        pos = np.arange(len(rs)) - starts[rs]
        in_prefix = pos < p[rs]
        rs, hs, pos = rs[in_prefix], hs[in_prefix], pos[in_prefix]
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            id_col: pa.array(ids[rs]),
            "__band": pa.array(np.zeros(len(rs), np.int32)),
            "__bucket": pa.array(hs, pa.uint64()),
            "__nsh": pa.array(nsh[rs], pa.int64()),
            "__pos": pa.array(pos, pa.int64())})

    exploded = ds.map_batches(prefix_rows, batch_format="pyarrow",
                              zero_copy_batch=True)

    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64())})

    def pairs_in_bucket(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nsh = group["__nsh"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = group["__pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, first = np.unique(ids, return_index=True)
        ids, nsh, pos = ids[first], nsh[first], pos[first]  # ii<jj => a<b
        m = len(ids)
        if m < 2:
            return empty
        ii, jj = np.triu_indices(m, 1)
        lo = np.minimum(nsh[ii], nsh[jj])
        hi = np.maximum(nsh[ii], nsh[jj])
        keep = lo >= t * hi - 1e-9           # J <= |min|/|max|
        # positional filter (PPJoin): overlap after this shingle is at
        # most min(n-pos) per side; J >= t needs overlap >=
        # t/(1+t)*(nA+nB).  Recall-exact: a true pair's SMALLEST common
        # shingle has all common shingles at-or-after pos in both docs,
        # so its bucket passes; later-common-shingle buckets may prune
        # the duplicate emission, never the pair.
        alpha = (t / (1.0 + t)) * (nsh[ii] + nsh[jj])
        bound = np.minimum(nsh[ii] - pos[ii], nsh[jj] - pos[jj])
        keep &= bound >= alpha - 1e-9
        return pa.table({"id_a": pa.array(ids[ii[keep]]),
                         "id_b": pa.array(ids[jj[keep]])})

    pairs = _bucketed_pair_search(
        exploded, id_col=id_col, pair_fn=pairs_in_bucket,
        empty_table=empty, bucket_cap=bucket_cap,
        num_partitions=num_partitions, cap_msg="prefix-shingle bucket")
    return verify_jaccard_pairs(
        pairs, ds, text_col=text_col, id_col=id_col,
        shingle_n=shingle_n, jaccard_threshold=t,
        verify_cap=verify_cap, num_partitions=num_partitions,
        round_nd=round_nd)


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


class SimHasher:
    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    @staticmethod
    def batch_simhash(texts, return_counts: bool = False):
        """(n,) uint64 simhashes for an Arrow string array, vectorized:
        per-token bit matrix → signed sum per row (add.reduceat) → sign.
        ``return_counts=True`` also returns the per-row token counts (the
        zero-token filter in :func:`simhash_dedup` and its oracle both
        key off them)."""
        flat, off = _batch_token_hashes(texts)
        nrows = len(off) - 1
        if nrows == 0:
            out = np.empty(0, np.uint64)
            return (out, np.empty(0, np.int64)) if return_counts else out
        if len(flat) == 0:
            out = np.zeros(nrows, np.uint64)
            return (out, np.zeros(nrows, np.int64)) if return_counts \
                else out
        bits = ((flat[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                & np.uint64(1)).astype(np.int8)
        signed = 2 * bits.astype(np.int32) - 1
        # reduceat ONLY over non-empty rows' starts (strictly increasing,
        # all < len(flat)); empty rows scatter to zero.  Clipping empty
        # trailing starts into range instead would steal the final token
        # from the preceding row's segment.
        counts = np.diff(off)
        nonempty = np.flatnonzero(counts > 0)
        sums = np.zeros((nrows, 64), np.int32)
        if len(nonempty):
            sums[nonempty] = np.add.reduceat(
                signed, off[:-1][nonempty], axis=0)
        pos = (sums > 0).astype(np.uint64)
        out = np.zeros(nrows, np.uint64)
        with np.errstate(over="ignore"):
            for b in range(64):
                out |= pos[:, b] << np.uint64(b)
        return (out, counts.astype(np.int64)) if return_counts else out

    @classmethod
    def simhash(cls, text: str) -> int:
        return int(cls.batch_simhash(pa.array([text], pa.string()))[0])

    def __call__(self, batch: pa.Table) -> pa.Table:
        h, ntok = self.batch_simhash(batch[self.text_col],
                                     return_counts=True)
        batch = batch.append_column("__simhash", pa.array(h, pa.uint64()))
        return batch.append_column("__ntok", pa.array(ntok, pa.int64()))


def simhash_dedup(ds, *, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3, concurrency=None,
                  bucket_cap: int = 4000):
    """Near-dup pairs with Hamming(simhash) <= max_hamming, via 4×16-bit
    band buckets (pigeonhole: any pair within distance 3 shares a band).
    Exact within the bucket cap: banding is a complete cover for ≤3
    differing bits over 4 bands, and in-bucket pairs are verified with the
    true Hamming distance.

    Zero-token (empty/whitespace-only) docs are excluded: they all carry
    simhash 0 and would otherwise pigeonhole the entire empty-doc set
    into ONE bucket per band — an O(S²) pair explosion for texts that
    may differ ("" vs "  "); exact duplicates among them are
    :func:`exact_dedup`'s job (mirrors the zero-shingle sentinel drop in
    :func:`minhash_lsh_dedup`).  ``concurrency`` (optional int, or the
    legacy (min, max) tuple whose max is used) caps concurrent signature
    tasks; default None = let the scheduler use every core."""
    sig_kw = {}
    if concurrency is not None:
        c = concurrency[-1] if isinstance(concurrency, (tuple, list)) \
            else concurrency
        sig_kw["concurrency"] = int(c)

    def sig_fn(batch: pa.Table) -> pa.Table:
        sh = _MH_CACHE.get(("simhash", text_col))
        if sh is None:
            sh = _MH_CACHE[("simhash", text_col)] = SimHasher(text_col)
        return sh(batch)

    sigged = ds.map_batches(
        sig_fn, batch_format="pyarrow", zero_copy_batch=True, **sig_kw,
    ).select_columns([id_col, "__simhash", "__ntok"])

    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            batch = batch.filter(pc.greater(batch["__ntok"], 0))
        batch = batch.drop_columns(["__ntok"])
        n = batch.num_rows
        h = batch["__simhash"].to_numpy(zero_copy_only=False)
        ids = batch[id_col].combine_chunks() if isinstance(
            batch[id_col], pa.ChunkedArray) else batch[id_col]
        sh = batch["__simhash"].combine_chunks() if isinstance(
            batch["__simhash"], pa.ChunkedArray) else batch["__simhash"]
        bands_b, bands_bucket = [], []
        for bnd in range(4):
            chunk = (h >> np.uint64(16 * bnd)) & np.uint64(0xFFFF)
            bands_b.append(np.full(n, bnd, np.int32))
            bands_bucket.append(chunk.astype(np.uint64))
        return pa.table({
            id_col: pa.concat_arrays([ids] * 4),
            "__band": pa.array(np.concatenate(bands_b)),
            "__bucket": pa.array(np.concatenate(bands_bucket), pa.uint64()),
            "__simhash": pa.concat_arrays([sh] * 4),
        })

    exploded = sigged.map_batches(explode, batch_format="pyarrow")

    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "hamming": pa.array([], pa.int32())})

    def pairs(group: pa.Table) -> pa.Table:
        ids = np.asarray(group[id_col].to_pylist(), dtype=np.int64)
        h = group["__simhash"].to_numpy(zero_copy_only=False)
        uniq, first = np.unique(ids, return_index=True)
        ids, h = ids[first], h[first]
        m = len(ids)
        if m < 2:
            return empty
        ii, jj = np.triu_indices(m, 1)
        x = h[ii] ^ h[jj]
        dist = np.zeros(len(x), dtype=np.int32)
        for b in range(64):
            dist += ((x >> np.uint64(b)) & np.uint64(1)).astype(np.int32)
        keep = dist <= max_hamming
        return pa.table({"id_a": pa.array(ids[ii[keep]]),
                         "id_b": pa.array(ids[jj[keep]]),
                         "hamming": pa.array(dist[keep])})

    p = _bucketed_pair_search(
        exploded, id_col=id_col, pair_fn=pairs, empty_table=empty,
        bucket_cap=bucket_cap, cap_msg="simhash bucket")
    return distinct_pairs(p)


# ---------------------------------------------------------------------------
# embedding cosine near-dup (banded LSH)
# ---------------------------------------------------------------------------


def embedding_neardup(ds, *, vec_col: str = "embedding", id_col: str = "vec_id",
                      threshold: float = 0.95, bands: int = 16,
                      planes_per_band: int = 4, seed: int = 5,
                      bucket_cap: int = 5000, round_nd: Optional[int] = 6,
                      carry_vectors: bool = False):
    """Pairs with cosine similarity >= threshold.  BANDED random-hyperplane
    LSH: ``bands`` independent tables, each bucketing on the sign pattern
    of ``planes_per_band`` hyperplanes, + exact cosine verification (so
    precision is exact; recall ≈ 1-(1-p^r)^b with p = 1-θ/π).

    Tuning: at threshold t, p = 1-arccos(t)/π; pick (r, b) so recall ≈ 1
    — e.g. t=0.45 → r=2, b=48 gives 1-4e-12.  The per-band bucket count is
    2^r, so smaller r trades bigger buckets (more pair candidates) for
    recall; bucket_cap bounds the damage and logs any skipped bucket.

    Exchange cost — two modes, identical output:

    * default (``carry_vectors=False``, the 100-TB shape): the banding
      shuffle moves only ``(id, band, bucket)`` rows (~20 bytes × bands
      per doc, NOT the vectors); in-bucket candidates are ids only, and
      exact cosine runs in the :func:`_verify_pairs_generic` semi-join —
      the corpus streams once more and only CANDIDATE vectors (≪ corpus
      by LSH construction) travel, each to the pair buckets that
      reference it.
    * ``carry_vectors=True`` (small-corpus fast path): vectors ride with
      their band keys — ``bands × corpus`` vector bytes through one
      shuffle, exact cosine inline per bucket, no second corpus pass.
      Prefer it only when ``bands × corpus`` fits comfortably in the
      object store."""

    n_planes = bands * planes_per_band

    def batch_signs(batch: pa.Table) -> Tuple[np.ndarray, np.ndarray]:
        """(n × bands) uint64 bucket keys from the sign pattern of the
        seeded hyperplanes (deterministic per batch: same seed, same
        planes)."""
        vecs = np.stack(
            batch[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        rng = np.random.default_rng(seed)  # deterministic per batch (cheap)
        planes = rng.normal(size=(vecs.shape[1], n_planes))
        signs = (vecs @ planes > 0)
        n = len(vecs)
        buckets = np.zeros((n, bands), np.uint64)
        with np.errstate(over="ignore"):
            for bnd in range(bands):
                seg = signs[:, bnd * planes_per_band:(bnd + 1) * planes_per_band]
                b = np.zeros(n, dtype=np.uint64)
                for j in range(planes_per_band):
                    b = (b << np.uint64(1)) | seg[:, j].astype(np.uint64)
                buckets[:, bnd] = b
        return buckets, vecs

    if not carry_vectors:
        return _embedding_neardup_semijoin(
            ds, batch_signs, vec_col=vec_col, id_col=id_col,
            threshold=threshold, bands=bands, bucket_cap=bucket_cap,
            round_nd=round_nd)

    def bucketize(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "__band": pa.array([], pa.int32()),
                             "__bucket": pa.array([], pa.uint64()),
                             vec_col: pa.array([], batch[vec_col].type)})
        buckets, _ = batch_signs(batch)
        ids = batch[id_col].combine_chunks() if isinstance(
            batch[id_col], pa.ChunkedArray) else batch[id_col]
        vc = batch[vec_col].combine_chunks() if isinstance(
            batch[vec_col], pa.ChunkedArray) else batch[vec_col]
        return pa.table({
            id_col: pa.concat_arrays([ids] * bands),
            "__band": pa.array(np.repeat(np.arange(bands, dtype=np.int32), n)),
            "__bucket": pa.array(buckets.T.ravel(), pa.uint64()),
            vec_col: pa.concat_arrays([vc] * bands),
        })

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow",
                              zero_copy_batch=True)

    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64())})

    def pairs(group: pa.Table) -> pa.Table:
        ids = np.asarray(group[id_col].to_pylist(), dtype=np.int64)
        V = np.stack(
            group[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        uniq, first = np.unique(ids, return_index=True)
        ids, V = ids[first], V[first]
        m = len(ids)
        if m < 2:
            return empty
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        Vn = V / norms
        sim = Vn @ Vn.T
        ii, jj = np.triu_indices(m, 1)
        keep = sim[ii, jj] >= threshold
        cos = sim[ii, jj][keep]
        if round_nd is not None:
            cos = np.round(cos, round_nd)
        return pa.table({"id_a": pa.array(ids[ii[keep]]),
                         "id_b": pa.array(ids[jj[keep]]),
                         "cosine": pa.array(cos)})

    p = _bucketed_pair_search(
        bucketed, id_col=id_col, pair_fn=pairs, empty_table=empty,
        bucket_cap=bucket_cap, cap_msg="embedding LSH bucket")
    return distinct_pairs(p)


def _embedding_neardup_semijoin(ds, batch_signs, *, vec_col: str,
                                id_col: str, threshold: float, bands: int,
                                bucket_cap: int, round_nd: Optional[int]):
    """Signature-only banding + semi-join vector fetch (the default
    :func:`embedding_neardup` path; see its docstring for the exchange
    cost contract).  Stage 1 ships only ``(id, band, bucket)`` keys;
    stage 2 emits in-bucket candidate id pairs; stage 3 verifies with
    exact cosine via :func:`_verify_pairs_generic`, so only candidate
    vectors ever travel."""

    def explode_keys(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "__band": pa.array([], pa.int32()),
                             "__bucket": pa.array([], pa.uint64())})
        buckets, _ = batch_signs(batch)
        ids = batch[id_col].combine_chunks() if isinstance(
            batch[id_col], pa.ChunkedArray) else batch[id_col]
        ids = ids.cast(pa.int64())
        return pa.table({
            id_col: pa.concat_arrays([ids] * bands),
            "__band": pa.array(np.repeat(np.arange(bands, dtype=np.int32), n)),
            "__bucket": pa.array(buckets.T.ravel(), pa.uint64()),
        })

    keyed = ds.map_batches(explode_keys, batch_format="pyarrow",
                           zero_copy_batch=True)

    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64())})

    def candidate_pairs(group: pa.Table) -> pa.Table:
        uniq = np.unique(
            np.asarray(group[id_col].to_pylist(), dtype=np.int64))
        m = len(uniq)
        if m < 2:
            return empty
        ii, jj = np.triu_indices(m, 1)
        return pa.table({"id_a": pa.array(uniq[ii]),
                         "id_b": pa.array(uniq[jj])})

    pairs = _bucketed_pair_search(
        keyed, id_col=id_col, pair_fn=candidate_pairs, empty_table=empty,
        bucket_cap=bucket_cap, cap_msg="embedding LSH bucket")

    def vec_payload(sub: pa.Table) -> pa.Array:
        vecs = np.stack(
            sub[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        vn = vecs / norms
        return pa.array(list(vn), pa.list_(pa.float64()))

    return _verify_pairs_generic(
        pairs, ds, id_col=id_col, payload_fn=vec_payload,
        payload_type=pa.list_(pa.float64()),
        pair_scorer=lambda va, vb: float(va @ vb),
        out_col="cosine", threshold=threshold, round_nd=round_nd)


def incremental_neardup(old_ds, new_ds, *, text_col: str = "text",
                        id_col: str = "doc_id", side_fn=None,
                        **lsh_kwargs):
    """Incremental near-duplicate detection — which NEW documents
    near-duplicate the EXISTING corpus (the daily-ingest dedup shape:
    yesterday's corpus is clean; only cross-corpus pairs matter).

    Runs the standard MinHash+LSH plan (:func:`minhash_lsh_dedup`) over
    the UNION of both sides, with a candidate-pair predicate that drops
    same-side pairs BEFORE the verification exchange — verification
    cost scales with cross pairs only, and within-corpus duplicates
    (already handled in a previous run) never ship shingles.

    ``side_fn(ids: np.ndarray) -> bool ndarray`` maps a document id to
    its side (True = new); ids must be disjoint across sides (offset
    upstream if needed).  Returns the verified cross pairs
    ``(id_a, id_b, jaccard)`` with the same recall contract as
    :func:`minhash_lsh_dedup`.
    """
    if side_fn is None:
        raise ValueError("side_fn is required (ids must encode the "
                         "side; offset new ids upstream if necessary)")

    def cross_only(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        a = side_fn(t["id_a"].to_numpy(zero_copy_only=False))
        b = side_fn(t["id_b"].to_numpy(zero_copy_only=False))
        return t.filter(pa.array(a != b))

    unioned = old_ds.union(new_ds)
    return minhash_lsh_dedup(unioned, text_col=text_col, id_col=id_col,
                             pair_filter=cross_only, **lsh_kwargs)
