"""cdc_chunk (stages/contentchunk.py) — serial rolling-hash parity, the
insertion re-sync property, max-len splitting, partition invariance,
and unicode/empty-doc edges."""

import numpy as np
import pyarrow as pa
import ray

from featurebox_ray.stages.contentchunk import cdc_chunk


def serial_cdc(text, window=16, mask_bits=8, max_len=4096):
    """One serial reference only: the independent replay shared with
    the q316/q317 fixtures (the boundary rule must not live in three
    places — review finding after the cdc.py clobber)."""
    from _oracle_replays import replay_cdc_chunks

    t = replay_cdc_chunks([0], [text], window=window,
                          mask_bits=mask_bits, max_len=max_len)
    return [(int(a), int(b), int(c), int(d))
            for a, b, c, d in zip(t["chunk_idx"].to_pylist(),
                                  t["start"].to_pylist(),
                                  t["length"].to_pylist(),
                                  t["chunk_hash"].to_pylist())]


def test_cdc_serial_parity_and_partition_invariance():
    rng = np.random.default_rng(316)
    docs = ["".join(chr(97 + int(c))
                    for c in rng.integers(0, 26, int(L)))
            for L in rng.integers(0, 2500, 30)]
    docs += ["", "éλ☃" * 50, "a" * 2000]     # unicode + empty + runs
    t = pa.table({"doc_id": pa.array(np.arange(len(docs)),
                                     pa.int64()),
                  "text": pa.array(docs)})
    prev = None
    for parts in (1, 5):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = (cdc_chunk(ds, mask_bits=6, max_len=400)
               .to_pandas().sort_values(["doc_id", "chunk_idx"])
               .reset_index(drop=True))
        for d, sub in got.groupby("doc_id"):
            want = serial_cdc(docs[int(d)], mask_bits=6, max_len=400)
            g = [(int(r.chunk_idx), int(r.start), int(r.length),
                  int(r.chunk_hash)) for r in sub.itertuples()]
            assert g == want, d
        # empty docs emit nothing
        assert (got.groupby("doc_id").size().get(len(docs) - 3, 0)
                == 0)
        # max-len respected
        assert int(got["length"].max()) <= 400
        if prev is not None:
            assert got.equals(prev)
        prev = got


def test_cdc_resync_after_insertion():
    rng = np.random.default_rng(7)
    doc = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, 4000))
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array([doc, "PREFIXINSERT" + doc])})
    g = cdc_chunk(ray.data.from_arrow(t), mask_bits=6,
                  max_len=400).to_pandas()
    h0 = set(g[g.doc_id == 0].chunk_hash)
    h1 = set(g[g.doc_id == 1].chunk_hash)
    assert len(h0 & h1) / len(h0) >= 0.8   # boundaries re-synced


def test_cdc_dup_share_planted_duplicates():
    """Docs that embed earlier docs' content get high dup_share;
    unique docs get 0; partition-invariant."""
    import pandas as pd

    from featurebox_ray.stages.contentchunk import cdc_dup_share

    rng = np.random.default_rng(317)
    base = "".join(chr(97 + int(c))
                   for c in rng.integers(0, 26, 3000))
    uniq = "".join(chr(97 + int(c))
                   for c in rng.integers(0, 26, 3000))
    # doc2 = copy of doc0; doc3 = doc0's tail inside fresh prefix
    docs = [base, uniq, base,
            "".join(chr(97 + int(c))
                    for c in rng.integers(0, 26, 500)) + base[1000:]]
    t = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                  "text": pa.array(docs)})
    prev = None
    for parts in (1, 4):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = (cdc_dup_share(ds, mask_bits=6, max_len=400,
                             num_partitions=parts)
               .to_pandas().sort_values("doc_id")
               .reset_index(drop=True))
        s = got.set_index("doc_id")["dup_share"]
        assert s[0] == 0.0 and s[1] == 0.0        # first-seen
        assert s[2] == 1.0                        # exact copy
        assert s[3] > 0.5                         # embedded tail
        if prev is not None:
            pd.testing.assert_frame_equal(got, prev)
        prev = got


def test_cdc_dup_regions_planted():
    """Planted duplicates produce regions pointing at the first-seen
    doc; unique docs emit nothing; partition-invariant."""
    import pandas as pd

    from featurebox_ray.stages.contentchunk import cdc_dup_regions

    rng = np.random.default_rng(320)
    base = "".join(chr(97 + int(c))
                   for c in rng.integers(0, 26, 2500))
    uniq = "".join(chr(97 + int(c))
                   for c in rng.integers(0, 26, 2500))
    docs = [base, uniq, base]
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(docs)})
    prev = None
    for parts in (1, 4):
        ds = ray.data.from_arrow(t)
        if parts > 1:
            ds = ds.repartition(parts)
        got = (cdc_dup_regions(ds, mask_bits=6, max_len=400,
                               num_partitions=parts)
               .to_pandas().sort_values(["doc_id", "start"])
               .reset_index(drop=True))
        assert set(got["doc_id"]) == {0, 2}       # uniq emits nothing
        assert (got["first_doc"] == 0).all()
        assert (got["n_copies"] == 2).all()
        # doc 2's duplicate regions cover its whole byte length
        d2 = got[got["doc_id"] == 2]
        assert int(d2["length"].sum()) == len(base.encode())
        if prev is not None:
            pd.testing.assert_frame_equal(got, prev)
        prev = got


def test_cdc_scrub_planted_copy_removed_entirely():
    """A verbatim copy scrubs down to ~0 bytes; the original and a
    unique doc are untouched; accounting invariant holds."""
    from featurebox_ray.stages.contentchunk import cdc_scrub

    rng = np.random.default_rng(321)
    base = "".join(chr(97 + int(c))
                   for c in rng.integers(0, 26, 2500))
    uniq = "".join(chr(97 + int(c))
                   for c in rng.integers(0, 26, 2500))
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array([base, uniq, base])})
    got = (cdc_scrub(ray.data.from_arrow(t).repartition(3),
                     mask_bits=6, max_len=400, num_partitions=3)
           .to_pandas().set_index("doc_id"))
    assert got.loc[0, "n_removed"] == 0
    assert got.loc[1, "n_removed"] == 0
    assert got.loc[2, "n_removed"] == len(base.encode())
    assert got.loc[2, "n_after"] == 0
    assert (got["n_before"] - got["n_removed"]
            == got["n_after"]).all()


def test_cdc_scrub_duplicate_doc_id_raises():
    """Two document rows with one doc_id: the second text would be
    dropped silently, so the scrub refuses the input."""
    import pytest

    from featurebox_ray.stages.contentchunk import cdc_scrub

    rng = np.random.default_rng(444)
    base = "".join(chr(97 + int(c))
                   for c in rng.integers(0, 26, 2500))
    other = "".join(chr(97 + int(c))
                    for c in rng.integers(0, 26, 2500))
    t = pa.table({"doc_id": pa.array([0, 1, 1], pa.int64()),
                  "text": pa.array([base, other, base])})
    with pytest.raises(Exception, match="duplicate doc_id 1"):
        cdc_scrub(ray.data.from_arrow(t).repartition(3), mask_bits=6,
                  max_len=400, num_partitions=3).materialize()
