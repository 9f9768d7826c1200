"""Per-worker token-hash cache behind ``dedup._batch_token_hashes``: every
token's hash is its blake2b/8B, whatever the cache held before, for
``string`` and ``large_string`` batches mixing new and repeated tokens,
across cap resets; a token the cache knows is not hashed again."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from featurebox_ray.stages import dedup


def _blake2b(tok):
    return int.from_bytes(hashlib.blake2b(tok.encode(), digest_size=8)
                          .digest(), "little")


def _expected(rows):
    flat = [t for r in rows for t in (r or "").split()]
    off = np.cumsum([0] + [len((r or "").split()) for r in rows])
    return np.array([_blake2b(t) for t in flat], np.uint64), off


BATCHES = [
    ["the cat sat", None, "", "the dog", "  é 日本 🙂 "],
    ["cat dog bird", "the the the", "new1 new2 é"],
    ["bird fish", "x" * 300, "   "],
    ["the cat sat", "new1 fish 日本"],
    [None, ""],
    ["zz yy xx ww vv uu tt", "the zz"],
]


@pytest.fixture
def hashed(monkeypatch):
    """A fresh cache; returns the list of tokens blake2b was run on."""
    monkeypatch.setattr(dedup, "_TOKEN_HASHES", dedup._TokenHashCache())
    seen = []
    real = dedup._blake2b_u64

    def counting(tokens):
        seen.extend(tokens.to_pylist())
        return real(tokens)

    monkeypatch.setattr(dedup, "_blake2b_u64", counting)
    return seen


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
@pytest.mark.parametrize("cap", [None, 1, 4, 9])
def test_batch_token_hashes_equal_blake2b(hashed, monkeypatch, typ, cap):
    if cap is not None:
        monkeypatch.setattr(dedup, "_TOKEN_HASH_CACHE_MAX", cap)
    widest = 0
    for rows in BATCHES * 2:
        flat, off = dedup._batch_token_hashes(pa.array(rows, typ))
        exp, exp_off = _expected(rows)
        assert flat.dtype == np.uint64
        assert flat.tolist() == exp.tolist()
        assert off.tolist() == exp_off.tolist()
        cache = dedup._TOKEN_HASHES
        # a batch wider than the cap is kept whole
        widest = max(widest, len({t for r in rows
                                  for t in (r or "").split()}))
        assert len(cache.tokens) <= max(cap or 1 << 30, widest)
        assert cache.tokens.type == pa.large_string()
        assert [_blake2b(t) for t in cache.tokens.to_pylist()] == \
            cache.hashes.tolist()
    vocab = {t for rows in BATCHES for r in rows for t in (r or "").split()}
    if cap is None:
        # no reset: each token was hashed once over both passes
        assert sorted(hashed) == sorted(vocab)
    else:
        assert set(hashed) == vocab


def test_known_tokens_are_not_hashed_again(hashed):
    rows = ["a b c", "c d"]
    dedup._batch_token_hashes(pa.array(rows))
    assert sorted(hashed) == ["a", "b", "c", "d"]
    hashed.clear()
    dedup._batch_token_hashes(pa.array(["d c b a"], pa.large_string()))
    dedup._batch_token_hashes(pa.chunked_array([["a", None], ["b e"]]))
    assert hashed == ["e"]


def test_cap_reset_keeps_the_batch(hashed, monkeypatch):
    """Past the cap the cache restarts from the batch's distinct tokens,
    so the next batch's repeats of them are hits."""
    monkeypatch.setattr(dedup, "_TOKEN_HASH_CACHE_MAX", 3)
    dedup._batch_token_hashes(pa.array(["a b"]))
    dedup._batch_token_hashes(pa.array(["b c d"]))
    assert sorted(dedup._TOKEN_HASHES.tokens.to_pylist()) == ["b", "c", "d"]
    hashed.clear()
    dedup._batch_token_hashes(pa.array(["d c", "b"]))
    assert hashed == []
