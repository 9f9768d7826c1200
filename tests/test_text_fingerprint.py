"""md5 winnowing fingerprint (``ta_fingerprint``, stages/text.py) and the
vectorized gram md5 behind it (``dedup.row_gram_md5``) vs a per-row
``hashlib`` replay of ``min(md5(" ".join(5-gram)))`` on adversarial text:
grams of exactly 55 and 56 bytes (the one-block MD5 limit), rows with
fewer than 5 tokens, NULL / empty / whitespace-only rows, multi-byte
UTF-8 tokens, ``large_string`` input, chunked and non-zero-offset
sliced columns."""

import hashlib

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from featurebox_ray.stages.dedup import row_gram_md5, split_tokens
from featurebox_ray.stages.text import FINGERPRINT_W, TextFeaturizer


def replay_fingerprint(text):
    toks = (text or "").split()
    if not toks:
        return ""
    w = FINGERPRINT_W
    return min(hashlib.md5(" ".join(toks[j:j + w]).encode()).hexdigest()
               for j in range(max(1, len(toks) - w + 1)))


def fingerprints(texts):
    out = TextFeaturizer()(pa.table({"text": texts}))
    return out["ta_fingerprint"].to_pylist()


# five tokens of 51 / 52 bytes in total: 5-grams of exactly 55 / 56
GRAM_55 = " ".join(["a" * 10, "b" * 10, "c" * 10, "d" * 10, "e" * 11])
GRAM_56 = " ".join(["a" * 10, "b" * 10, "c" * 10, "d" * 10, "é" * 6])

_TOKEN = st.one_of(
    st.sampled_from(["a", "the", "and", "é", "日本語", "🙂x", "a" * 55,
                     "b" * 56, "é" * 27 + "z", "ü" * 28, "x" * 10,
                     "y" * 11, "Z" * 12, "!!", "9"]),
    st.text(alphabet=st.characters(min_codepoint=0x21,
                                   max_codepoint=0x2FFF,
                                   blacklist_categories=("Z", "C")),
            min_size=1, max_size=24))
_SEP = st.sampled_from([" ", "  ", "\t", "\n", " \r\n "])
_ROW = st.one_of(
    st.none(),
    st.sampled_from(["", "   ", " \t\n", GRAM_55, GRAM_56,
                     f"  {GRAM_55} {GRAM_56} "]),
    st.tuples(st.lists(_TOKEN, min_size=1, max_size=12), _SEP,
              st.sampled_from(["", " ", "\n\t"])).map(
        lambda t: t[2] + t[1].join(t[0]) + t[2]))


def test_fingerprint_gram_lengths_55_56():
    rows = [GRAM_55, GRAM_56, "x" * 55, "x" * 56, "é" * 27 + "z",
            "é" * 28, f"{GRAM_55} tail", f"head {GRAM_56}"]
    assert len(GRAM_55.encode()) == 55 and len(GRAM_56.encode()) == 56
    assert fingerprints(pa.array(rows)) == [replay_fingerprint(r)
                                            for r in rows]


def test_row_gram_md5_every_gram_matches_hashlib():
    """The full digest of every k-gram (the substr md5 keys), short rows
    giving none, message lengths crossing the 55/56-byte boundary."""
    rng = np.random.default_rng(84)
    words = ["a", "bb", "日本", "é" * 9, "x" * 23, "y" * 54, "z" * 70]
    rows = [" ".join(rng.choice(words, int(rng.integers(0, 14))))
            for _ in range(300)] + [None, "", "  "]
    rows += ["q" * n for n in range(1, 130)]
    for k in (1, 3, 8):
        texts = pa.array(rows, pa.large_string()).slice(2)
        dig, n_grams = row_gram_md5(*split_tokens(texts), k)
        exp, exp_n = [], []
        for r in texts.to_pylist():
            toks = (r or "").split()
            grams = [" ".join(toks[j:j + k])
                     for j in range(len(toks) - k + 1)]
            exp_n.append(len(grams))
            exp += [hashlib.md5(g.encode()).digest() for g in grams]
        assert n_grams.tolist() == exp_n, k
        assert dig.tobytes() == b"".join(exp), k


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=40),
       layout=st.sampled_from(["string", "large_string", "chunked",
                               "sliced"]),
       cut=st.integers(0, 40))
def test_fingerprint_matches_hashlib_replay(rows, layout, cut):
    cut = min(cut, len(rows))
    if layout == "string":
        texts = pa.array(rows, pa.string())
    elif layout == "large_string":
        texts = pa.array(rows, pa.large_string())
    elif layout == "chunked":
        texts = pa.chunked_array([pa.array(rows[:cut], pa.string()),
                                  pa.array(rows[cut:], pa.string())])
    else:
        # non-zero offset into a longer array whose head is other text
        head = ["junk head " * 3, None, GRAM_56][:1 + cut % 3]
        texts = pa.array(head + rows, pa.string()).slice(len(head))
    assert fingerprints(texts) == [replay_fingerprint(r) for r in rows]


def test_min_digest_hex_breaks_high_ties_on_low_half():
    """Per-row minimum is over all 16 bytes: digests tying on the high 8
    bytes are ordered by the low 8; rows without grams give ""."""
    from featurebox_ray.stages.text import _min_digest_hex

    rng = np.random.default_rng(26)
    dig = rng.integers(0, 256, (9, 16), dtype=np.uint8)
    dig[1, :8] = dig[0, :8]
    dig[2, :8] = dig[0, :8]
    dig[3:5, :8] = 0xFF
    n_grams = np.array([0, 3, 2, 0, 4, 0])
    got = _min_digest_hex(dig, n_grams).to_pylist()
    exp, at = [], 0
    for n in n_grams:
        exp.append(min((bytes(r).hex() for r in dig[at:at + n]),
                       default=""))
        at += n
    assert got == exp
