"""Text-analysis operators over document tables — language ID, quality
scoring, token counting, fingerprinting.  All stateless vectorized
``map_batches`` stages (constant tables / stopword value-sets built once
per actor via callable classes).

Fully batch-vectorized: the character-level regex counts (``\\S+``
runs, BPE pieces, punctuation, uppercase) are one pass of numpy byte-class
masks over the Arrow string buffers (:func:`count_matches`, equal to
RE2's ``count_substring_regex`` on valid UTF-8, which it falls back to
otherwise), character lengths are ``utf8_length``; token-level stats
(stopword hits, mean token length) run as ``pc.is_in`` over the batch's
distinct tokens + numpy ``reduceat`` over the token-list offsets from
:func:`..stages.dedup.split_tokens`.  The md5 winnowing fingerprint
(smallest md5 over a row's token 5-grams — md5 because DuckDB ``md5()``
can replay it, giving the q26 oracle a value-hash check on every output
column) hashes every gram of the batch at once with
:func:`..stages.dedup.row_gram_md5`: a numpy single-block MD5 over uint32
lanes for grams of at most 55 bytes, ``hashlib`` for the rare longer
ones; the per-row minimum is a segmented ``reduceat``.

Regex semantics note: counts follow RE2 (Arrow + DuckDB both), where ``\\w``
is ASCII ``[0-9A-Za-z_]`` and uppercase is ``[A-Z]`` — byte-identical
between engine and oracle; non-ASCII corpora would need the unicode-aware
variants.

No reference analog (featurebox is numeric); these are the training-data
operators the engine adds for 100 TB corpora (task brief).
"""

from __future__ import annotations

import re
import zlib
from functools import cached_property
from typing import Dict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .dedup import row_gram_md5, split_tokens
from .partition import materialized_block_refs, string_buffers, sum_partials

# tiny public stopword profiles for the stopword-ratio language heuristic
_LANG_STOPWORDS: Dict[str, tuple] = {
    "en": ("the", "and", "of", "to", "in", "a", "is", "that", "for", "it",
           "on", "with", "as", "was", "at", "by", "an", "be", "this", "are"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "mit", "ein", "eine",
           "zu", "den", "von", "für", "auf", "im", "des"),
    "fr": ("le", "la", "les", "et", "est", "pas", "des", "un", "une", "du",
           "que", "qui", "dans", "pour", "sur", "avec"),
    "es": ("el", "la", "los", "las", "y", "es", "no", "con", "un", "una",
           "de", "que", "en", "por", "para"),
}

TOKEN_PATTERN = r"\S+"
BPE_PATTERN = r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]"
PUNCT_PATTERN = r"[^\w\s]"
UPPER_PATTERN = r"[A-Z]"
FINGERPRINT_W = 5
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", np.uint8)


class _ByteClasses:
    """RE2 UTF-8-mode classes of the bytes ``b`` of a string buffer,
    each mask computed on first use.  RE2's ``\\s`` is ``[\\t\\n\\f\\r ]``
    (no ``\\v``), ``\\w`` is ``[0-9A-Za-z_]``, and on valid UTF-8 a code
    point starts at every byte that is not a continuation byte
    (``0x80``-``0xBF``).  The tests are uint8 compares that wrap below
    zero, not table lookups, which numpy runs several times slower."""

    def __init__(self, b: np.ndarray, row_start: np.ndarray):
        self.b = b
        self.row_start = row_start

    @cached_property
    def space(self) -> np.ndarray:
        b = self.b
        return ((b - 9 < 5) & (b != 11)) | (b == 32)

    @cached_property
    def letter(self) -> np.ndarray:
        return (self.b | 32) - 97 < 26

    @cached_property
    def digit(self) -> np.ndarray:
        return self.b - 48 < 10

    @cached_property
    def other(self) -> np.ndarray:
        """A code point that is neither a letter, a digit nor space."""
        return ~(self.space | self.letter | self.digit
                 | (self.b & 0xC0 == 0x80))

    def run_starts(self, inside: np.ndarray) -> np.ndarray:
        """The bytes that begin a run of ``inside`` bytes; a run never
        spans two rows."""
        start = inside.copy()
        start[1:] &= ~inside[:-1]
        start[self.row_start] = inside[self.row_start]
        return start


# per pattern, the bytes where a match starts: with no empty match and
# no match crossing a row, the per-row count of these bytes is
# pc.count_substring_regex's count on valid UTF-8
_MATCH_STARTS = {
    TOKEN_PATTERN: lambda c: c.run_starts(~c.space),
    # a letter run, a digit run, or one other code point
    BPE_PATTERN: lambda c: (c.run_starts(c.letter) | c.run_starts(c.digit)
                            | c.other),
    PUNCT_PATTERN: lambda c: c.other & (c.b != 95),
    UPPER_PATTERN: lambda c: c.b - 65 < 26,
}


def _count_matches_array(arr: pa.Array, patterns) -> list:
    if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
        return [pc.count_substring_regex(arr, p) for p in patterns]
    try:
        arr.validate(full=True)
    except pa.ArrowInvalid:
        # RE2 skips invalid UTF-8 bytes, which a byte class cannot follow
        return [pc.count_substring_regex(arr, p) for p in patterns]
    off, data = string_buffers(arr)
    lo = int(off[0])
    b = data[lo:int(off[-1])]
    row_start = off[:-1] - lo
    classes = _ByteClasses(b, row_start[row_start < len(b)])
    out_type = pa.int64() if pa.types.is_large_string(arr.type) else pa.int32()
    mask = (arr.is_null().to_numpy(zero_copy_only=False)
            if arr.null_count else None)
    return [pa.array(_row_sums(_MATCH_STARTS[p](classes), off - lo)
                     .astype(out_type.to_pandas_dtype()), out_type, mask=mask)
            for p in patterns]


def count_matches(texts: "pa.ChunkedArray | pa.Array", *patterns) -> list:
    """``[pc.count_substring_regex(texts, p) for p in patterns]`` for the
    patterns of ``_MATCH_STARTS``, counted with byte-class masks over the
    string buffers: the bytes where a match starts are flagged with
    numpy compares and summed per row with ``reduceat`` over the offsets.
    Same values, NULLs and type (int32, int64 for ``large_string``) as
    RE2, one result chunk per input chunk; an array that is not valid
    UTF-8 keeps RE2."""
    if not isinstance(texts, pa.ChunkedArray):
        return _count_matches_array(texts, patterns)
    if texts.num_chunks == 0:
        return [pc.count_substring_regex(texts, p) for p in patterns]
    per_chunk = [_count_matches_array(c, patterns) for c in texts.chunks]
    return [pa.chunked_array(col) for col in zip(*per_chunk)]


def _row_sums(values: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Sum ``values`` per row given list offsets (empty rows -> 0).

    reduceat runs ONLY over non-empty rows' starts — clipping empty
    trailing starts into range would steal the final value from the
    preceding row's segment."""
    nrows = len(off) - 1
    out = np.zeros(nrows, values.dtype if values.dtype.kind == "f"
                   else np.int64)
    if len(values) == 0:
        return out
    counts = np.diff(off)
    nonempty = np.flatnonzero(counts > 0)
    if len(nonempty):
        # dtype: a bool mask sums to a count, not to a logical or
        out[nonempty] = np.add.reduceat(values, off[:-1][nonempty],
                                        dtype=out.dtype)
    return out


def _min_digest_hex(dig: np.ndarray, n_grams: np.ndarray) -> pa.Array:
    """Per row, the hex string of its smallest 16-byte digest (rows are
    consecutive runs of ``n_grams`` digests; a row with none gets "").
    Hex keeps byte order, so the smallest hexdigest is the smallest
    big-endian 128-bit value: a segmented min over the high 64 bits,
    then over the low 64 bits of the digests that tie on it."""
    n = len(n_grams)
    rows = np.flatnonzero(n_grams)
    be = dig.view(">u8").astype(np.uint64)          # (G, 2): high, low
    seg = (np.cumsum(n_grams) - n_grams)[rows]
    best = np.empty((len(rows), 2), np.uint64)
    if len(rows):
        best[:, 0] = np.minimum.reduceat(be[:, 0], seg)
        row_of = np.repeat(np.arange(len(rows)), n_grams[rows])
        low = np.where(be[:, 0] == best[row_of, 0], be[:, 1],
                       np.uint64(2 ** 64 - 1))
        best[:, 1] = np.minimum.reduceat(low, seg)
    b = best.astype(">u8").view(np.uint8)           # (R, 16) digest bytes
    hexed = np.empty((len(rows), 32), np.uint8)
    hexed[:, 0::2] = _HEX_DIGITS[b >> 4]
    hexed[:, 1::2] = _HEX_DIGITS[b & 15]
    offsets = np.zeros(n + 1, np.int32)
    np.cumsum(np.where(n_grams > 0, 32, 0), out=offsets[1:])
    return pa.StringArray.from_buffers(n, pa.py_buffer(offsets),
                                       pa.py_buffer(hexed))


class TextFeaturizer:
    """Stateful stage: language-ID + quality metrics + token counts +
    md5 winnowing fingerprint per document, appended as columns."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.langs = list(_LANG_STOPWORDS)
        self.stop_sets = {
            lg: pa.array(ws, pa.string()) for lg, ws in _LANG_STOPWORDS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = len(texts)
        n_chars = pc.utf8_length(texts).cast(pa.int64())
        n_bpe, n_punct, n_upper = count_matches(
            texts, BPE_PATTERN, PUNCT_PATTERN, UPPER_PATTERN)
        n_bpe = n_bpe.cast(pa.int64())
        n_punct = n_punct.to_numpy(zero_copy_only=False)
        n_upper = n_upper.to_numpy(zero_copy_only=False)

        flat, off = split_tokens(texts)
        counts = np.diff(off)
        denom = np.maximum(counts, 1).astype(np.float64)
        tok_lens = (pc.utf8_length(flat).to_numpy(zero_copy_only=False)
                    .astype(np.int64) if len(flat) else np.empty(0, np.int64))
        mean_tok_len = _row_sums(tok_lens, off) / denom

        # stopword hits looked up once per distinct token, then gathered
        words = pc.dictionary_encode(flat)
        lower = pc.utf8_lower(words.dictionary)
        word_idx = words.indices.to_numpy(zero_copy_only=False)
        ratios = np.empty((len(self.langs), n), np.float64)
        for li, lg in enumerate(self.langs):
            hits = pc.is_in(lower, value_set=self.stop_sets[lg]).to_numpy(
                zero_copy_only=False)[word_idx]
            ratios[li] = _row_sums(hits, off) / denom
        best_idx = np.argmax(ratios, axis=0)  # first max wins on ties
        best_score = ratios[best_idx, np.arange(n)] if n else np.empty(0)
        lang_arr = np.asarray(self.langs, object)[best_idx]
        lang_arr = np.where(best_score > 0.05, lang_arr, "und")

        chars_f = np.maximum(
            n_chars.to_numpy(zero_copy_only=False), 1).astype(np.float64)
        punct_ratio = n_punct / chars_f
        upper_ratio = n_upper / chars_f
        quality = (np.minimum(1.0, counts / 20.0)
                   * (1.0 - np.minimum(1.0, punct_ratio * 4))
                   * (1.0 - np.minimum(1.0, upper_ratio * 2)))

        # md5 winnowing fingerprint: the smallest md5 over the row's
        # w-grams (one gram of all tokens when shorter), replayable in SQL
        # as min(md5(gram)); every gram hashes in one vectorized pass
        dig, n_grams = row_gram_md5(flat, off, FINGERPRINT_W,
                                    short_rows=True)
        fp = _min_digest_hex(dig, n_grams)

        out = batch
        for name, arr in [
            ("ta_n_chars", n_chars),
            ("ta_n_tokens", pa.array(counts.astype(np.int64))),
            ("ta_n_bpe_tokens", n_bpe),
            ("ta_mean_tok_len", pa.array(mean_tok_len)),
            ("ta_stopword_ratio", pa.array(best_score)),
            ("ta_punct_ratio", pa.array(punct_ratio)),
            ("ta_upper_ratio", pa.array(upper_ratio)),
            ("ta_quality", pa.array(quality)),
            ("ta_lang", pa.array(list(lang_arr), pa.string())),
            ("ta_fingerprint", fp),
        ]:
            out = out.append_column(name, arr)
        return out


def add_text_features(ds, *, text_col: str = "text", batch_size: int = 4096,
                      concurrency=(2, 8)):
    return ds.map_batches(
        TextFeaturizer,
        fn_constructor_kwargs={"text_col": text_col},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


_TF_CACHE: dict = {}


def text_features_fn(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Stateless-task variant of :func:`add_text_features`: the featurizer
    is cached per worker process (module global), so no actor slot is
    reserved — important at small CPU counts where min-1 actor pools would
    pin scarce slots and stall the pipeline."""
    tf = _TF_CACHE.get(text_col)
    if tf is None:
        tf = _TF_CACHE[text_col] = TextFeaturizer(text_col)
    return tf(batch)


def normalize_text(ds, *, text_col: str = "text",
                   out_col: str = "norm_text", lower: bool = True,
                   collapse_ws: bool = True, trim: bool = True):
    """Text canonicalization (the C4-style pre-dedup normalization):
    lowercase + whitespace collapse + trim as pure Arrow kernels (zero
    per-row Python), appended as ``out_col`` so exact dedup / hashing
    can key on the canonical form while the original text rides along.

    Each step replays in SQL (``lower``, ``regexp_replace '\\s+'``,
    ``trim``) — both sides RE2/Unicode.  NULL text stays NULL.
    """
    def fn(b: pa.Table) -> pa.Table:
        v = b[text_col].combine_chunks()
        if lower:
            v = pc.utf8_lower(v)
        if collapse_ws:
            v = pc.replace_substring_regex(v, r"\s+", " ")
        if trim:
            v = pc.utf8_trim(v, characters=" ")
        return b.append_column(out_col, v)

    return ds.map_batches(fn, batch_format="pyarrow",
                          zero_copy_batch=True)


_SCRIPT_PATTERNS = (
    ("latin", r"\p{Latin}"),
    ("cyrillic", r"\p{Cyrillic}"),
    ("han", r"\p{Han}"),
    ("arabic", r"\p{Arabic}"),
    ("digit", r"[0-9]"),
    ("space", r"\s"),
)


def script_profile_fn(batch: pa.Table, *, text_col: str = "text"
                      ) -> pa.Table:
    """Unicode-script / character-class profile — the script-filtering
    signal of corpus cleaning (keep Latin-dominant docs for an English
    corpus, route Han-dominant docs to the zh pipeline), complementary
    to the stopword language-ID of :class:`TextFeaturizer`.

    Appends exact int64 counts per script class (one Arrow RE2
    ``count_substring_regex`` pass each — both Arrow and DuckDB are RE2,
    so ``len(regexp_extract_all(text, pat))`` replays every count
    exactly), ``sc_other`` = chars in none of the classes (scripts,
    digits and whitespace are disjoint, so the subtraction is exact),
    and ``sc_latin_ratio`` = one IEEE division (NULL for empty/null
    text, like every count on null text).

    Stateless and vectorized — zero per-row Python; use directly in
    ``map_batches(script_profile_fn, batch_format="pyarrow")``.
    """
    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    null_mask = np.asarray(pc.is_null(texts))
    n_chars = pc.utf8_length(texts).cast(pa.int64())
    out = batch.append_column("sc_n_chars", n_chars)
    nc = np.where(null_mask, 0,
                  pc.fill_null(n_chars, 0).to_numpy(zero_copy_only=False))
    total = np.zeros(len(nc), np.int64)
    counts = {}
    for name, pat in _SCRIPT_PATTERNS:
        c = pc.count_substring_regex(texts, pat).cast(pa.int64())
        counts[name] = c
        total += np.where(
            null_mask, 0,
            pc.fill_null(c, 0).to_numpy(zero_copy_only=False))
        out = out.append_column(f"sc_{name}", c)
    other = pa.array(nc - total, pa.int64(), mask=null_mask)
    out = out.append_column("sc_other", other)
    lat = pc.fill_null(counts["latin"], 0).to_numpy(
        zero_copy_only=False).astype(np.float64)
    ratio = pa.array(lat / np.maximum(nc, 1), pa.float64(),
                     mask=null_mask | (nc == 0))
    return out.append_column("sc_latin_ratio", ratio)


GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have",
                    "with")


def gopher_quality_fn(batch: pa.Table, *, text_col: str = "text",
                      min_words: int = 50, max_words: int = 100000,
                      min_stop_hits: int = 2) -> pa.Table:
    """Gopher/C4-style document quality rules (Rae et al. 2021 §A1.1)
    as one stateless vectorized pass — the standard pre-training
    corpus filter: word-count bounds, mean-word-length band, symbol
    and bullet/ellipsis ratios, alphabetic-word fraction, stopword
    presence.

    Every RATIO rule compares as cross-multiplied INTEGERS
    (``10·symbols < words`` instead of ``symbols/words < 0.1``) so the
    keep decision is exact and the whole operator replays in SQL with
    zero float thresholds; the only float emitted is the descriptive
    ``gq_mean_word_len`` (one double/double division, NULL for empty
    docs).  All counts are Arrow RE2 kernels / token reductions — both
    Arrow and DuckDB are RE2, so ``len(regexp_extract_all(...))`` and
    ``list_filter(... regexp_matches ...)`` replay each count exactly
    (the q117 contract).  NULL text behaves as empty (all counts 0,
    keep false).

    Appended columns (prefix ``gq_``): n_words, word_chars,
    mean_word_len, n_hash, n_ellipsis, n_lines, n_bullet_lines,
    n_ellipsis_lines, n_stop, n_alpha_words, keep.

    Keep rule: ``min_words ≤ words ≤ max_words`` AND ``3 ≤ mean word
    len ≤ 10`` (as ``3·words ≤ chars ≤ 10·words``) AND
    ``10·(#hash + #ellipsis) < words`` AND ``10·bullet_lines <
    9·lines`` AND ``10·ellipsis_lines < 3·lines`` AND
    ``10·alpha_words ≥ 8·words`` AND ``stop_hits ≥ min_stop_hits``.
    """
    texts = pc.fill_null(batch[text_col].combine_chunks(), "")
    flat, off = split_tokens(texts)
    n_words = np.diff(off).astype(np.int64)
    if len(flat):
        tok_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        stop_hit = pc.is_in(
            flat, value_set=pa.array(GOPHER_STOPWORDS)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        alpha_hit = pc.match_substring_regex(flat, "[A-Za-z]").to_numpy(
            zero_copy_only=False).astype(np.int64)
    else:
        tok_len = stop_hit = alpha_hit = np.empty(0, np.int64)
    word_chars = _row_sums(tok_len.astype(np.int64), off)
    n_stop = _row_sums(stop_hit, off)
    n_alpha = _row_sums(alpha_hit, off)
    n_hash = pc.count_substring_regex(texts, "#").to_numpy(
        zero_copy_only=False).astype(np.int64)
    n_ell = pc.count_substring_regex(texts, r"\.\.\.").to_numpy(
        zero_copy_only=False).astype(np.int64)
    lines = pc.split_pattern(texts, "\n")
    n_lines = pc.list_value_length(lines).to_numpy(
        zero_copy_only=False).astype(np.int64)
    lflat = pc.list_flatten(lines)
    loff = np.zeros(len(n_lines) + 1, np.int64)
    np.cumsum(n_lines, out=loff[1:])
    if len(lflat):
        bullet = pc.match_substring_regex(
            lflat, r"^\s*[-*•]").to_numpy(
            zero_copy_only=False).astype(np.int64)
        ell_line = pc.match_substring_regex(
            lflat, r"\.\.\.\s*$").to_numpy(
            zero_copy_only=False).astype(np.int64)
    else:
        bullet = ell_line = np.empty(0, np.int64)
    n_bullet = _row_sums(bullet, loff)
    n_ell_lines = _row_sums(ell_line, loff)

    mean_wl = word_chars.astype(np.float64) / np.maximum(
        n_words, 1).astype(np.float64)
    keep = ((n_words >= min_words) & (n_words <= max_words)
            & (3 * n_words <= word_chars) & (word_chars <= 10 * n_words)
            & (10 * (n_hash + n_ell) < n_words)
            & (10 * n_bullet < 9 * n_lines)
            & (10 * n_ell_lines < 3 * n_lines)
            & (10 * n_alpha >= 8 * n_words)
            & (n_stop >= min_stop_hits))
    out = batch
    for name, arr in (
            ("gq_n_words", pa.array(n_words)),
            ("gq_word_chars", pa.array(word_chars)),
            ("gq_mean_word_len", pa.array(mean_wl, pa.float64(),
                                          mask=n_words == 0)),
            ("gq_n_hash", pa.array(n_hash)),
            ("gq_n_ellipsis", pa.array(n_ell)),
            ("gq_n_lines", pa.array(n_lines)),
            ("gq_n_bullet_lines", pa.array(n_bullet)),
            ("gq_n_ellipsis_lines", pa.array(n_ell_lines)),
            ("gq_n_stop", pa.array(n_stop)),
            ("gq_n_alpha_words", pa.array(n_alpha)),
            ("gq_keep", pa.array(keep))):
        out = out.append_column(name, arr)
    return out


def lexical_diversity_fn(batch: pa.Table, *, text_col: str = "text",
                         id_col: str = "doc_id") -> pa.Table:
    """Per-document lexical diversity via the INVERSE SIMPSON index
    ``D = N² / Σ n_i²`` (N tokens, n_i per-type counts) — the
    rational-exact alternative to entropy-based type-token measures
    (no logarithm, so the whole statistic replays in SQL): D = 1 for
    a one-word loop, D = #types when all tokens are distinct; low D
    flags repetitive/boilerplate text (a Gopher-adjacent quality
    signal, the per-doc sibling of the q138 group Gini).

    One stateless vectorized pass: tokenize, lexsort (row, token),
    run lengths give ``n_i``; ``Σn_i²`` and ``N²`` are exact int64;
    ``D`` is one double/double division.  Zero-token docs emit NULL
    D.  Emits ``(id_col, n_tokens:int64, n_types:int64,
    sum_sq:int64, simpson_d:float64)``.
    """
    texts = pc.fill_null(batch[text_col].combine_chunks(), "")
    flat, off = split_tokens(texts)
    n_rows = batch.num_rows
    n_tok = np.diff(off).astype(np.int64)
    n_types = np.zeros(n_rows, np.int64)
    sum_sq = np.zeros(n_rows, np.int64)
    if len(flat):
        row_ids = np.repeat(np.arange(n_rows), n_tok)
        codes = pc.dictionary_encode(flat).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        order = np.lexsort((codes, row_ids))
        r_s, c_s = row_ids[order], codes[order]
        new_run = np.ones(len(r_s), bool)
        new_run[1:] = (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])
        starts = np.flatnonzero(new_run)
        runs = np.diff(np.concatenate([starts, [len(r_s)]]))
        np.add.at(n_types, r_s[starts], 1)
        np.add.at(sum_sq, r_s[starts], runs * runs)
    d = (n_tok.astype(np.float64) * n_tok.astype(np.float64)
         / np.maximum(sum_sq, 1).astype(np.float64))
    return pa.table({
        id_col: batch[id_col],
        "n_tokens": pa.array(n_tok),
        "n_types": pa.array(n_types),
        "sum_sq": pa.array(sum_sq),
        "simpson_d": pa.array(d, pa.float64(), mask=n_tok == 0),
    })


def compression_ratio_fn(batch: pa.Table, *, text_col: str = "text",
                         id_col: str = "doc_id",
                         level: int = 6) -> pa.Table:
    """Per-document zlib compression ratio — the Gopher/Dolma
    redundancy signal (highly compressible ⇒ repetitive/boilerplate;
    near-1 ratios ⇒ high-entropy noise): ``ratio =
    compressed_bytes / raw_bytes`` (one exact int division).

    One C ``zlib.compress`` call per DOCUMENT (not per token — the
    honest per-row cost class of the documented md5 loops; zlib output
    is deterministic for a fixed level and the bundled library, which
    the q178 fixture replays with the identical call).  NULL text
    emits NULL columns; empty text has ``raw_len = 0`` and NULL ratio.

    Emits ``(id_col, raw_len:int64, comp_len:int64, ratio:float64)``.
    """
    texts = batch[text_col].combine_chunks()
    raw, comp, ratio = [], [], []
    for v in texts.to_pylist():
        if v is None:
            raw.append(None)
            comp.append(None)
            ratio.append(None)
            continue
        b = v.encode("utf-8")
        c = len(zlib.compress(b, level))
        raw.append(len(b))
        comp.append(c)
        ratio.append(float(np.float64(c) / np.float64(len(b)))
                     if len(b) else None)
    return pa.table({
        id_col: batch[id_col],
        "raw_len": pa.array(raw, pa.int64()),
        "comp_len": pa.array(comp, pa.int64()),
        "ratio": pa.array(ratio, pa.float64()),
    })


def encoding_audit(ds, *, group_col: str = "source",
                   text_col: str = "text"):
    """Encoding-artifact (mojibake) audit per group — the corpus
    screen for broken ingestion: counts of U+FFFD replacement
    characters, the classic UTF-8-read-as-Latin-1 artifacts
    ('Ã'/'Â' lead bytes), and stray C0 control characters
    (excluding tab/newline/carriage-return).  A nonzero flagged share
    means a decode step upstream is mangling bytes.

    Per group: ``(n_docs, n_flagged, n_replacement, n_mojibake,
    n_control, flagged_share)`` — counts exact int64 (Arrow RE2
    kernels; DuckDB's regexp_extract_all is RE2 too, the q117
    parity), ``flagged_share`` ONE division.  NULL group rows drop;
    NULL text counts as a clean doc.

    Per-block dense partials + driver combine (groups few) — no
    shuffle.  Reference analog: none — companion of script_profile /
    gopher rules in the text-QA family.
    """
    def partial(b: pa.Table) -> pa.Table:
        gtype = b.schema.field(group_col).type
        keep = pc.fill_null(pc.is_valid(b[group_col]), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        empty = pa.table({group_col: pa.array([], gtype),
                          "d": pa.array([], pa.int64()),
                          "f": pa.array([], pa.int64()),
                          "r": pa.array([], pa.int64()),
                          "m": pa.array([], pa.int64()),
                          "c": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        txt = pc.fill_null(b[text_col].combine_chunks(), "")
        rep = pc.count_substring(txt, "�").cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        moj = pc.count_substring_regex(txt, "[ÃÂ]").cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        ctl = pc.count_substring_regex(
            txt, "[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f]").cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        flagged = ((rep + moj + ctl) > 0).astype(np.int64)
        gd = pc.dictionary_encode(b[group_col].combine_chunks())
        codes = gd.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        g = len(gd.dictionary)
        out = {}
        for name, arr in (("d", np.ones(len(codes), np.int64)),
                          ("f", flagged), ("r", rep), ("m", moj),
                          ("c", ctl)):
            acc = np.zeros(g, np.int64)
            np.add.at(acc, codes, arr)
            out[name] = acc
        return pa.table({group_col: gd.dictionary,
                         **{k: pa.array(v) for k, v in out.items()}})

    pds = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    gtype = base.field(group_col).type

    agg = sum_partials(ray.get(materialized_block_refs(pds)),
                       keys=[group_col],
                       vals=["d", "f", "r", "m", "c"])
    if agg is None:
        return pa.table({group_col: pa.array([], gtype),
                         "n_docs": pa.array([], pa.int64()),
                         "n_flagged": pa.array([], pa.int64()),
                         "n_replacement": pa.array([], pa.int64()),
                         "n_mojibake": pa.array([], pa.int64()),
                         "n_control": pa.array([], pa.int64()),
                         "flagged_share": pa.array([], pa.float64())})
    d = agg["d"].to_numpy(zero_copy_only=False).astype(np.int64)
    f = agg["f"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        group_col: agg[group_col].combine_chunks().cast(gtype),
        "n_docs": pa.array(d),
        "n_flagged": pa.array(f),
        "n_replacement": pa.array(
            agg["r"].to_numpy(zero_copy_only=False).astype(np.int64)),
        "n_mojibake": pa.array(
            agg["m"].to_numpy(zero_copy_only=False).astype(np.int64)),
        "n_control": pa.array(
            agg["c"].to_numpy(zero_copy_only=False).astype(np.int64)),
        "flagged_share": pa.array(f.astype(np.float64)
                                  / d.astype(np.float64))})


def rule_label_fn(topics: "dict[str, list[str]]",
                  text_col: str = "text", id_col: str = "doc_id"):
    """Keyword-rule weak labeler — score each document against named
    topic keyword sets (occurrence counts under word-boundary RE2
    regexes) and assign the argmax topic, ``(score desc, topic asc)``
    ties, NULL when nothing matches: the deterministic first-pass
    labeler that seeds label_propagation / classifier training
    (Snorkel-style labeling functions, minus the learned combiner).

    Stateless per-batch fn (per-worker regex cache unnecessary: RE2
    compiles in the kernel call via Arrow) — counts are exact ints
    and both Arrow and DuckDB are RE2, so
    ``len(regexp_extract_all(text, '\\bkw\\b'))`` replays every score
    bit-for-bit (the q117 convention).  Emits ``(id_col,
    s_<topic>:int64 per topic, topic:string)``.

    Reference analog: none (text-curation family next to
    gopher_quality_fn / script_profile_fn).
    """
    names = sorted(topics)
    pats = {n: [r"\b" + re.escape(kw) + r"\b"
                for kw in topics[n]]
            for n in names}

    def fn(b: pa.Table) -> pa.Table:
        txt = pc.fill_null(b[text_col].combine_chunks(), "")
        n = len(txt)
        scores = {}
        for name in names:
            tot = np.zeros(n, np.int64)
            for p in pats[name]:
                tot += pc.count_substring_regex(txt, p).to_numpy(
                    zero_copy_only=False).astype(np.int64)
            scores[name] = tot
        mat = np.stack([scores[n_] for n_ in names], axis=1)
        win = np.argmax(mat, axis=1)
        any_hit = mat.max(axis=1) > 0
        lab = np.where(any_hit, np.asarray(names)[win], None)
        out = {id_col: b[id_col]}
        for name in names:
            out[f"s_{name}"] = pa.array(scores[name])
        out["topic"] = pa.array(lab.tolist(), pa.string())
        return pa.table(out)

    return fn


def readability_fn(text_col: str = "text", id_col: str = "doc_id"):
    """Flesch-style readability scoring — the classic named
    quality/complexity signal next to the Gopher rules: words,
    sentence breaks, and vowel-group "syllables" counted by RE2, and

        flesch = 206.835 − 1.015·(W/S) − 84.6·(Y/W)

    with S and W floored at 1 (empty docs score the constant).
    Counts are exact ints and the score is a FIXED sequence of
    correctly-rounded IEEE ops whose literals parse to the same
    doubles in SQL (the q175 Wilson convention) — bit-exact replay
    via ``len(regexp_extract_all(...))`` + the identical expression.

    Stateless batch fn.  Emits ``(id_col, n_words:int64,
    n_sents:int64, n_syll:int64, flesch:float64)``.
    Reference analog: none (text-curation family).
    """
    def fn(b: pa.Table) -> pa.Table:
        txt = pc.fill_null(b[text_col].combine_chunks(), "")

        def cnt(pat):
            return np.maximum(pc.count_substring_regex(
                txt, pat).to_numpy(zero_copy_only=False)
                .astype(np.int64), 0)

        words = cnt(r"\S+")
        sents = cnt(r"[.!?]+")
        syll = cnt(r"[aeiouyAEIOUY]+")
        w = np.maximum(words, 1).astype(np.float64)
        s_ = np.maximum(sents, 1).astype(np.float64)
        y = syll.astype(np.float64)
        flesch = (np.float64(206.835)
                  - np.float64(1.015) * (w / s_)
                  - np.float64(84.6) * (y / w))
        return pa.table({id_col: b[id_col],
                         "n_words": pa.array(words),
                         "n_sents": pa.array(sents),
                         "n_syll": pa.array(syll),
                         "flesch": pa.array(flesch, pa.float64())})

    return fn


def mixed_language_fn(batch: pa.Table, *, id_col: str = "doc_id",
                      text_col: str = "text") -> pa.Table:
    """Mixed-language document audit — language-ID the FIRST and
    SECOND half of each document's token list independently (same
    stopword-ratio heuristic and und-threshold as
    :class:`TextFeaturizer`) and flag documents whose halves disagree:
    the code-switching / concatenation-artifact detector a monolingual
    training mix needs (a doc-level lang tag hides a pasted-in second
    language; the halves expose it).

    Stateless per-block map (per-worker cached value sets are
    unnecessary — the stop sets are tiny tuples); exactness is the
    q26 contract: hit counts are exact ints, each ratio is ONE
    division by ``max(1, half_len)``, the argmax is first-max-wins in
    the fixed en/de/fr/es order, threshold ``> 0.05`` — all replayed
    by a list_slice + list_filter SQL.  Rows with NULL id or text
    drop.  Returns ``(id_col, lang_head:string, lang_tail:string,
    mixed:bool)``.
    """
    langs = list(_LANG_STOPWORDS)
    keep = pc.fill_null(pc.and_(pc.is_valid(batch[id_col]),
                                pc.is_valid(batch[text_col])), False)
    if not pc.all(keep).as_py():
        batch = batch.filter(keep)
    n = batch.num_rows
    id_type = (batch.schema.field(id_col).type
               if id_col in batch.column_names else pa.int64())
    empty = pa.table({id_col: pa.array([], id_type),
                      "lang_head": pa.array([], pa.string()),
                      "lang_tail": pa.array([], pa.string()),
                      "mixed": pa.array([], pa.bool_())})
    if n == 0:
        return empty
    flat, off = split_tokens(batch[text_col].combine_chunks())
    counts = np.diff(off)
    h = off[:-1] + counts // 2
    den_head = np.maximum(counts // 2, 1).astype(np.float64)
    den_tail = np.maximum(counts - counts // 2, 1).astype(np.float64)
    lower = pc.utf8_lower(flat) if len(flat) else flat
    L = len(langs)
    r_head = np.empty((L, n), np.float64)
    r_tail = np.empty((L, n), np.float64)
    for li, lg in enumerate(langs):
        hits = (pc.is_in(lower, value_set=pa.array(
            _LANG_STOPWORDS[lg])).to_numpy(zero_copy_only=False)
            .astype(np.int64) if len(flat) else
            np.empty(0, np.int64))
        cs = np.concatenate([[0], np.cumsum(hits)])
        r_head[li] = (cs[h] - cs[off[:-1]]) / den_head
        r_tail[li] = (cs[off[1:]] - cs[h]) / den_tail

    def pick(r):
        best = np.argmax(r, axis=0)          # first max wins
        score = r[best, np.arange(n)]
        lang = np.asarray(langs, object)[best]
        return np.where(score > 0.05, lang, "und")

    lh, lt = pick(r_head), pick(r_tail)
    mixed = (lh != lt) & (lh != "und") & (lt != "und")
    return pa.table({
        id_col: batch[id_col],
        "lang_head": pa.array(list(lh), pa.string()),
        "lang_tail": pa.array(list(lt), pa.string()),
        "mixed": pa.array(mixed)})
