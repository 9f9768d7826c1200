"""``ta_stopword_ratio`` / ``ta_lang`` (stages/text.py: stopword hits
looked up once per distinct token, then gathered) vs a per-token Python
replay: mixed case, repeated tokens, tokens shared by two languages
(first language wins ties), NULL / empty rows, a batch without a single
token, sliced and ``large_string`` input."""

import pyarrow as pa
import pytest

from featurebox_ray.stages.text import _LANG_STOPWORDS, TextFeaturizer


def _replay(text):
    toks = (text or "").split()
    scores = [sum(t.lower() in ws for t in toks) / max(len(toks), 1)
              for ws in _LANG_STOPWORDS.values()]
    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
    lang = list(_LANG_STOPWORDS)[best] if scores[best] > 0.05 else "und"
    return scores[best], lang


ROWS = ["The cat AND the dog", "Der Hund und DIE Katze für", None, "",
        "le chat et LA souris", "el perro y la gata", "la la la de",
        "   ", "zzz qqq", "THE THE the tHe", "für FÜR Für"]


@pytest.mark.parametrize("layout", ["string", "large_string", "sliced"])
def test_stopword_ratio_matches_replay(layout):
    if layout == "sliced":
        texts = pa.array(["the head row", None] + ROWS).slice(2)
    else:
        texts = pa.array(ROWS, pa.large_string() if layout == "large_string"
                         else pa.string())
    out = TextFeaturizer()(pa.table({"text": texts}))
    exp = [_replay(r) for r in ROWS]
    assert out["ta_stopword_ratio"].to_pylist() == [s for s, _ in exp]
    assert out["ta_lang"].to_pylist() == [lg for _, lg in exp]


def test_batch_without_tokens():
    rows = [None, "", "  \n"]
    out = TextFeaturizer()(pa.table({"text": pa.array(rows)}))
    assert out["ta_stopword_ratio"].to_pylist() == [0.0] * 3
    assert out["ta_lang"].to_pylist() == ["und"] * 3
    assert out["ta_n_tokens"].to_pylist() == [0] * 3
