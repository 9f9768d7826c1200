"""Per-row Python references for the text-analysis (``ta_*``) and MinHash
band (``mh_band*``) columns.

Written from the documented definitions, one row at a time, with
``hashlib`` for every hash, so they share no code path with the engine's
vectorized kernels.  Only the constant tables (stopword lists, regex
patterns, the fingerprint width) come from the engine, because they are
the definition being checked, not the computation.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

from featurebox_ray.stages.text import (
    BPE_PATTERN, FINGERPRINT_W, PUNCT_PATTERN, UPPER_PATTERN, _LANG_STOPWORDS)

# RE2, which the engine uses, reads \w and \s as ASCII classes
_BPE = re.compile(BPE_PATTERN, re.ASCII)
_PUNCT = re.compile(PUNCT_PATTERN, re.ASCII)
_UPPER = re.compile(UPPER_PATTERN, re.ASCII)
_STOP = {lg: frozenset(ws) for lg, ws in _LANG_STOPWORDS.items()}

_MASK64 = (1 << 64) - 1
_MERSENNE = (1 << 61) - 1
_GRAM_A = 1_000_003
_GRAM_B = 999_999_937
_FNV_PRIME = 1099511628211
# minhash_bands_fn defaults: k=16 hashes folded into 4 bands over
# word-3-gram shingles, universal-hash parameters drawn from seed 17
MH_K, MH_BANDS, MH_SHINGLE_N, MH_SEED = 16, 4, 3, 17


def text_row(text: str) -> dict:
    """The ten ``ta_*`` columns of one document."""
    toks = text.split()
    n_tok = len(toks)
    denom = max(n_tok, 1)
    n_chars = len(text)
    best_lang, best = "", -1.0
    for lg, words in _STOP.items():  # first maximum wins, in table order
        ratio = sum(t.lower() in words for t in toks) / denom
        if ratio > best:
            best_lang, best = lg, ratio
    chars = max(n_chars, 1)
    punct_ratio = len(_PUNCT.findall(text)) / chars
    upper_ratio = len(_UPPER.findall(text)) / chars
    w = FINGERPRINT_W
    fingerprint = "" if not toks else min(
        hashlib.md5(" ".join(toks[j:j + w]).encode()).hexdigest()
        for j in range(max(1, n_tok - w + 1)))
    return {
        "ta_n_chars": n_chars,
        "ta_n_tokens": n_tok,
        "ta_n_bpe_tokens": len(_BPE.findall(text)),
        "ta_mean_tok_len": sum(len(t) for t in toks) / denom,
        "ta_stopword_ratio": best,
        "ta_punct_ratio": punct_ratio,
        "ta_upper_ratio": upper_ratio,
        "ta_quality": (min(1.0, n_tok / 20.0)
                       * (1.0 - min(1.0, punct_ratio * 4))
                       * (1.0 - min(1.0, upper_ratio * 2))),
        "ta_lang": best_lang if best > 0.05 else "und",
        "ta_fingerprint": fingerprint,
    }


def _minhash_params():
    rng = np.random.default_rng(MH_SEED)
    a = rng.integers(1, _MERSENNE, MH_K, dtype=np.int64)
    b = rng.integers(0, _MERSENNE, MH_K, dtype=np.int64)
    return [int(x) for x in a], [int(x) for x in b]


_MH_A, _MH_B = _minhash_params()


def _token_hash(tok: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(tok.encode(), digest_size=8).digest(), "little")


def band_row(text: str) -> dict:
    """The ``mh_band*`` columns of one document: 64-bit word-3-gram
    shingle hashes, k universal hashes ``(a*s + b) mod 2^64 mod (2^61-1)``
    minimised over the shingles (all-ones when a document has no
    shingle), then each band of k/bands minima folded with the FNV prime."""
    hs = [_token_hash(t) for t in text.split()]
    n = MH_SHINGLE_N
    shingles = []
    for i in range(len(hs) - n + 1):
        acc = 0
        for h in hs[i:i + n]:
            acc = (acc * _GRAM_A + h * _GRAM_B) & _MASK64
        shingles.append(acc)
    sig = [min(((s * a + b) & _MASK64) % _MERSENNE for s in shingles)
           if shingles else _MASK64
           for a, b in zip(_MH_A, _MH_B)]
    per = MH_K // MH_BANDS
    out = {}
    for band in range(MH_BANDS):
        bucket = 0
        for v in sig[band * per:(band + 1) * per]:
            bucket = (bucket * _FNV_PRIME + v) & _MASK64
        out[f"mh_band{band}"] = bucket
    return out
