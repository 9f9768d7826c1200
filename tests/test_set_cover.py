"""Greedy set-cover selection (stages/tfidf.py:set_cover_select) vs
the serial replay; planted coverage order; partition invariance."""

import os
import sys

import numpy as np
import pyarrow as pa
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
from _oracle_replays import replay_set_cover  # noqa: E402

from featurebox_ray.stages.tfidf import set_cover_select  # noqa


def _rows(got):
    return [tuple(r) for r in got[["sel_ord", "doc_id", "gain",
                                   "covered_total"]]
            .itertuples(index=False)]


def test_set_cover_matches_serial_replay_partition_invariant():
    rng = np.random.default_rng(521)
    words = [f"w{i}" for i in range(80)]
    ids, texts = [], []
    for i in range(200):
        ids.append(i)
        nw = rng.integers(0, 15)
        texts.append(None if rng.random() < 0.05 else " ".join(
            words[j] for j in rng.integers(0, 80, nw)))
    ids.append(None)
    texts.append("x y z")
    exp = replay_set_cover(ids, texts, k=10)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())})
    prev = None
    for parts in (1, 9):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = set_cover_select(ds, k=10).to_pandas()
        rows = _rows(got)
        assert rows == exp
        if prev is not None:
            assert rows == prev
        prev = rows


def test_set_cover_planted():
    # docs 1 and 3 tie at gain 4 -> min id 1 wins; doc 3 then adds
    # c,d; doc 2 adds nothing (early stop)
    t = pa.table({"doc_id": [1, 2, 3],
                  "text": ["a b e f", "a b", "a b c d"]})
    got = set_cover_select(ray.data.from_arrow(t), k=5).to_pandas()
    assert _rows(got) == [(0, 1, 4, 4), (1, 3, 2, 6)]
    # duplicate-vocab corpus: one pick then early stop
    t2 = pa.table({"doc_id": [1, 2], "text": ["a b", "b a"]})
    got2 = set_cover_select(ray.data.from_arrow(t2), k=5).to_pandas()
    assert _rows(got2) == [(0, 1, 2, 2)]


def test_set_cover_bigram_mode_matches_replay():
    rng = np.random.default_rng(523)
    words = [f"w{i}" for i in range(10)]  # tiny unigram vocab
    ids = list(range(60))
    texts = [" ".join(words[j] for j in rng.integers(0, 10, 12))
             for _ in ids]
    exp = replay_set_cover(ids, texts, k=6, ngram=2)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())})
    got = set_cover_select(ray.data.from_arrow(t).repartition(5),
                           k=6, ngram=2).to_pandas()
    assert _rows(got) == exp
    assert len(exp) > 1  # bigram space is actually rich enough


def test_set_cover_trailing_empty_and_all_empty_blocks():
    # trailing empty doc in the same block must not shorten the last
    # non-empty doc's gain segment (the clipped-reduceat bug)
    t = pa.table({"doc_id": [1, 2], "text": ["a b", ""]})
    got = set_cover_select(ray.data.from_arrow(t), k=3).to_pandas()
    assert _rows(got) == [(0, 1, 2, 2)]
    # a block of ONLY empty/whitespace/NULL texts must not crash
    t2 = pa.table({"doc_id": [1, 2, 3],
                   "text": ["", "   ", None]})
    got2 = set_cover_select(ray.data.from_arrow(t2), k=3).to_pandas()
    assert len(got2) == 0
    # mixed: empty-only block + real block (repartition forces it)
    t3 = pa.table({"doc_id": [1, 2, 3, 4],
                   "text": ["", None, "x y", "y z"]})
    got3 = set_cover_select(
        ray.data.from_arrow(t3).repartition(4), k=3).to_pandas()
    exp = replay_set_cover([1, 2, 3, 4], ["", None, "x y", "y z"],
                           k=3)
    assert _rows(got3) == exp
