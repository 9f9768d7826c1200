"""Byte-class regex counts (``stages/text.py:count_matches``) vs Arrow's
RE2 ``count_substring_regex`` for every pattern the text layer counts:
``\\S+`` runs, BPE pieces, punctuation and uppercase.  The alphabet holds
the bytes where a wrong class would show: every ASCII control (``\\v``
is not RE2 whitespace, ``\\x1c``-``\\x1f`` are not either), ``_`` (a
``\\w`` byte that is neither letter nor digit), the Unicode spaces U+0085,
U+00A0 and U+3000 (not ``\\s`` in RE2), and multi-byte letters, CJK and
emoji (one code point, several bytes).  Rows are NULL, empty and
whitespace-only too; layouts are sliced, chunked and ``large_string``.
Invalid UTF-8 takes the RE2 path."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featurebox_ray.stages import text as text_mod
from featurebox_ray.stages.scalar import turn_scalar_features
from featurebox_ray.stages.text import (BPE_PATTERN, PUNCT_PATTERN,
                                        TOKEN_PATTERN, UPPER_PATTERN,
                                        count_matches)

PATTERNS = [TOKEN_PATTERN, BPE_PATTERN, PUNCT_PATTERN, UPPER_PATTERN]

_CHARS = ([chr(c) for c in range(0, 0x20)] + ["\x7f", " ", "_", "a", "Z",
          "q", "Q", "0", "9", "!", "-", "'", "\u0085", " ", "　",
          "é", "É", "ß", "日", "本", "🙂", "\U0001F600"])
_ROW = st.one_of(
    st.none(),
    st.sampled_from(["", " ", "\t\n\r\f ", "\v", "a\vb", "　",
                     " x\u0085"]),
    st.text(alphabet=st.sampled_from(_CHARS), max_size=30))


def _layout(rows, layout, cut):
    cut = min(cut, len(rows))
    if layout == "string":
        return pa.array(rows, pa.string())
    if layout == "large_string":
        return pa.array(rows, pa.large_string())
    if layout == "chunked":
        return pa.chunked_array([pa.array(rows[:cut], pa.string()),
                                 pa.array(rows[cut:], pa.string())])
    if layout == "chunked_large":
        return pa.chunked_array([pa.array(rows[:cut], pa.large_string()),
                                 pa.array(rows[cut:], pa.large_string())])
    # a non-zero offset into a longer array whose head has other text
    head = ["Xx  9_ \v", None, "é 🙂"][:1 + cut % 3]
    big = pa.array(head + rows + ["tail\x1c"],
                   pa.large_string() if layout == "sliced_large"
                   else pa.string())
    return big.slice(len(head), len(rows))


def _check_equal(texts, patterns=PATTERNS):
    got = count_matches(texts, *patterns)
    for p, g in zip(patterns, got):
        exp = pc.count_substring_regex(texts, p)
        assert type(g) is type(exp), p
        assert g.type == exp.type, p
        assert g.equals(exp), (p, g.to_pylist(), exp.to_pylist())


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_ROW, min_size=0, max_size=30),
       layout=st.sampled_from(["string", "large_string", "chunked",
                               "chunked_large", "sliced", "sliced_large"]),
       cut=st.integers(0, 30))
def test_counts_equal_re2(rows, layout, cut):
    _check_equal(_layout(rows, layout, cut))


def test_counts_each_pattern_alone():
    """A stage asks for some patterns only; each alone gives RE2's count,
    whichever masks the others would have built first."""
    rows = ["ab12 cd_EF!?\v日本🙂", "  x\x1f9", None, "", "A" * 40]
    texts = pa.array(rows)
    for p in PATTERNS:
        _check_equal(texts, [p])
    _check_equal(texts, PATTERNS[::-1])


@pytest.mark.parametrize("rows, exp", [
    (["a\vb", "a\x1cb", "a b", "a　b", "a\u0085b"],
     {TOKEN_PATTERN: [1] * 5, BPE_PATTERN: [3] * 5,
      PUNCT_PATTERN: [1] * 5, UPPER_PATTERN: [0] * 5}),
    ([" \t\n\f\r ", "x_y", "AbC9é"],
     {TOKEN_PATTERN: [0, 1, 1], BPE_PATTERN: [0, 3, 3],
      PUNCT_PATTERN: [0, 0, 1], UPPER_PATTERN: [0, 0, 2]}),
])
def test_counts_pinned(rows, exp):
    got = count_matches(pa.array(rows), *PATTERNS)
    assert {p: g.to_pylist() for p, g in zip(PATTERNS, got)} == exp


def test_all_empty_and_null_rows():
    for rows in ([], [None], [""], [None, "", None], ["", ""]):
        for typ in (pa.string(), pa.large_string()):
            _check_equal(pa.array(rows, typ))
    _check_equal(pa.chunked_array([], pa.string()))


def test_invalid_utf8_takes_the_re2_path(monkeypatch):
    """RE2 skips bytes that are not UTF-8, so a byte class cannot follow
    it: such an array never reaches the string buffers."""
    def refuse(arr):
        raise AssertionError("byte path taken for invalid UTF-8")

    rows = [b"ab\xffCD e", b"\xc3", b"x\x80\x80y Z", None, b"\xe6\x97 1",
            b"ok \xf0\x9f\x99\x82!"]
    for typ, btyp in ((pa.string(), pa.binary()),
                      (pa.large_string(), pa.large_binary())):
        texts = pa.array(rows, btyp).view(typ)
        with pytest.raises(pa.ArrowInvalid):
            texts.validate(full=True)
        monkeypatch.setattr(text_mod, "string_buffers", refuse)
        _check_equal(texts)
        _check_equal(pa.chunked_array([texts.slice(0, 2), texts.slice(2)]))
        monkeypatch.undo()
        # the valid rows alone take the byte path and still agree
        _check_equal(pa.array(rows, btyp).view(typ).filter(
            pa.array([False, False, False, True, False, True])))


def test_scalar_n_tokens_is_re2_whitespace():
    """``n_tokens`` counts RE2 ``\\S+`` runs: ``\\v`` and non-ASCII
    spaces sit inside a token, unlike Python's ``str.split()``."""
    rows = ["a\vb", "a b", "  a  b  ", "a b", "", None]
    out = turn_scalar_features(pa.table({
        "text": pa.array(rows),
        "tool": pa.array([None] * len(rows), pa.string()),
        "role": pa.array(["user"] * len(rows))}))
    assert out["n_tokens"].to_pylist() == [1, 2, 2, 1, 0, None]
    assert out["n_tokens"].type == pa.int64()
    assert len("a\vb".split()) == 2
