"""Dedup / text-analysis / ANN / multimodal stages over the driver testdata
documents+embeddings tables and synthetic fixtures."""

import numpy as np
import os
import pandas as pd
import pyarrow as pa
import pytest
import ray

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    return ray.data.read_parquet(f"{SF}/documents.parquet")


def test_exact_dedup_matches_duckdb(docs):
    import duckdb

    from featurebox_ray.stages.dedup import exact_dedup

    out = exact_dedup(docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    ora = con.sql(
        f"""select * from read_parquet('{SF}/documents.parquet')
            qualify row_number() over (partition by text order by doc_id) = 1
            order by doc_id"""
    ).df()
    assert len(out) == len(ora)
    assert (out["doc_id"].values == ora["doc_id"].values).all()


def test_minhash_lsh_finds_planted_neardups(tmp_path):
    from featurebox_ray.stages.dedup import minhash_lsh_dedup

    rng = np.random.default_rng(0)
    words = [f"tok{i}" for i in range(200)]
    base_docs = [" ".join(rng.choice(words, 40)) for _ in range(50)]
    rows = []
    did = 0
    planted = []
    for b in base_docs:
        rows.append({"doc_id": did, "text": b}); did += 1
    # near-dups: copy with 2 tokens changed
    for i in range(0, 50, 5):
        toks = base_docs[i].split()
        toks[3], toks[7] = "zzz", "qqq"
        rows.append({"doc_id": did, "text": " ".join(toks)})
        planted.append((i, did)); did += 1
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    pairs = minhash_lsh_dedup(ds, jaccard_threshold=0.6).to_pandas()
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    hits = sum((a, b) in found for a, b in planted)
    assert hits >= len(planted) * 0.8  # LSH recall
    # no wildly-false positives: every reported pair really is similar
    txt = {r["doc_id"]: set(r["text"].split()) for r in rows}
    for a, b in found:
        j = len(txt[a] & txt[b]) / len(txt[a] | txt[b])
        assert j > 0.3, (a, b, j)


def test_simhash_exact_copies():
    from featurebox_ray.stages.dedup import simhash_dedup

    rng = np.random.default_rng(1)
    words = [f"w{i}" for i in range(500)]
    docs = [" ".join(rng.choice(words, 30)) for _ in range(40)]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(docs)]
    rows += [{"doc_id": 100 + i, "text": docs[i]} for i in range(10)]  # copies
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    pairs = simhash_dedup(ds).to_pandas()
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    for i in range(10):
        assert (i, 100 + i) in found
    assert (pairs["hamming"] <= 3).all()


def test_text_features(docs):
    from featurebox_ray.stages.text import add_text_features

    out = add_text_features(docs).to_pandas()
    assert (out["ta_n_chars"] == out["text"].str.len()).all()
    assert (out["ta_n_tokens"] == out["text"].str.split().map(len)).all()
    assert out["ta_quality"].between(0, 1).all()
    assert set(out["ta_lang"]) <= {"en", "de", "fr", "es", "und"}
    # fingerprint: equal docs -> equal fingerprints
    t0 = out.iloc[0]["text"]
    same = out[out["text"] == t0]["ta_fingerprint"].nunique()
    assert same == 1


def test_brute_force_topk_vs_numpy():
    from featurebox_ray.stages.ann import brute_force_topk

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    df = ds.to_pandas()
    V = np.stack(df["embedding"].values).astype(np.float64)
    Q = V[:3]  # use first 3 corpus vectors as queries
    out = brute_force_topk(ds, Q, k=5, batch_size=128).to_pandas()
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    sims = Qn @ Vn.T
    for q in range(3):
        got = out[out["query_id"] == q].sort_values(
            ["cosine", "vec_id"], ascending=[False, True]
        )
        assert len(got) == 5
        top = np.sort(sims[q])[::-1][:5]
        assert np.allclose(np.sort(got["cosine"].values)[::-1], top, atol=1e-9)


def test_ivf_topk_recall():
    from featurebox_ray.stages.ann import brute_force_topk, ivf_topk

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    df = ds.to_pandas()
    V = np.stack(df["embedding"].values).astype(np.float64)
    Q = V[10:13]
    exact = brute_force_topk(ds, Q, k=10).to_pandas()
    approx = ivf_topk(ds, Q, k=10, n_centroids=8, nprobe=4).to_pandas()
    recalls = []
    for q in range(3):
        e = set(exact[exact["query_id"] == q]["vec_id"])
        a = set(approx[approx["query_id"] == q]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6


def test_multimodal_plumbing():
    from featurebox_ray.stages.multimodal import add_image_features, make_fake_media_table

    t = make_fake_media_table(100)
    ds = ray.data.from_arrow(t)
    out = add_image_features(ds, batch_size=16).to_pandas()
    assert len(out) == 100
    assert out["img_decoder_is_fake"].all()
    assert out[["img_mean_r", "img_std_g", "img_entropy"]].notna().all().all()
    # deterministic: same payload -> same features
    out2 = add_image_features(ray.data.from_arrow(t), batch_size=16).to_pandas()
    m = out.sort_values("media_id")["img_mean_r"].values
    m2 = out2.sort_values("media_id")["img_mean_r"].values
    assert np.allclose(m, m2)


def test_empty_and_short_docs_edge_cases():
    """Regression: a trailing empty/whitespace doc must not corrupt the
    preceding doc's simhash or text features, and short (<n-token) docs
    stay outside shingle near-dup semantics."""
    import numpy as np
    import pyarrow as pa

    from featurebox_ray.stages.dedup import (MinHasher, SimHasher,
                                             _batch_shingles)
    from featurebox_ray.stages.text import TextFeaturizer

    texts = ["aa bb cc", "", "dd ee", "   ", "ff gg hh ii"]
    arr = pa.array(texts, pa.string())
    # simhash of row 0 must equal the single-row computation
    batch_h = SimHasher.batch_simhash(arr)
    for i, t in enumerate(texts):
        solo = SimHasher.batch_simhash(pa.array([t], pa.string()))[0]
        assert batch_h[i] == solo, f"row {i}"
    # short/empty docs have zero shingles; signatures are the sentinel
    flat, off = _batch_shingles(arr, 3)
    counts = np.diff(off)
    assert counts.tolist() == [1, 0, 0, 0, 2]
    mh = MinHasher(k=8)
    sig = mh.batch_signatures(arr)
    assert (sig[1] == np.iinfo(np.uint64).max).all()
    assert not (sig[0] == np.iinfo(np.uint64).max).any()
    # text features of the batch equal per-row computations
    tf = TextFeaturizer()
    full = tf(pa.table({"text": arr})).to_pandas()
    for i, t in enumerate(texts):
        solo = tf(pa.table({"text": pa.array([t])})).to_pandas().iloc[0]
        row = full.iloc[i]
        assert row["ta_mean_tok_len"] == solo["ta_mean_tok_len"], f"row {i}"
        assert row["ta_stopword_ratio"] == solo["ta_stopword_ratio"]
        assert row["ta_fingerprint"] == solo["ta_fingerprint"]


def test_minhash_short_doc_pairs_excluded(ray_session_guard=None):
    """Two identical 2-token docs must NOT appear as near-dup pairs (they
    are exact_dedup's job; the q22 oracle's len(t)>=3 matches)."""
    import ray

    from featurebox_ray.stages.dedup import minhash_lsh_dedup

    rows = [{"doc_id": 0, "text": "aa bb"},
            {"doc_id": 1, "text": "aa bb"},
            {"doc_id": 2, "text": "the quick brown fox jumps over a dog"},
            {"doc_id": 3, "text": "the quick brown fox jumps over a cat"}]
    ds = ray.data.from_items(rows)
    pairs = minhash_lsh_dedup(ds, jaccard_threshold=0.5).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 1) not in got
    assert (2, 3) in got


def test_streaming_consumption_and_centroid_cache(tmp_path):
    """iter_batches drain path + IVF centroid persistence (trained once,
    reloaded on the next call)."""
    import numpy as np
    import ray

    from featurebox_ray.pipelines.streaming import iter_feature_batches
    from featurebox_ray.stages.ann import ivf_topk

    li = ray.data.read_parquet("/root/testdata/sf0.001/lineitem.parquet",
                               columns=["l_quantity", "l_discount"])
    n = 0
    for b in iter_feature_batches(li, batch_size=1024,
                                  columns=["l_quantity"]):
        assert b.column_names == ["l_quantity"]
        n += b.num_rows
    assert n == li.count()

    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    q = np.stack([r["embedding"] for r in emb.take(2)])
    cache = str(tmp_path / "cents.npy")
    r1 = ivf_topk(emb, q, k=5, n_centroids=4, nprobe=2,
                  centroid_cache=cache).to_pandas()
    assert os.path.exists(cache)
    r2 = ivf_topk(emb, q, k=5, n_centroids=4, nprobe=2,
                  centroid_cache=cache).to_pandas()
    key = ["query_id", "vec_id"]
    assert r1.sort_values(key).reset_index(drop=True).equals(
        r2.sort_values(key).reset_index(drop=True))
    # fingerprint mismatch (different n_centroids): retrains + overwrites
    # the cache instead of silently reusing a stale one
    r3 = ivf_topk(emb, q, k=5, n_centroids=8, nprobe=2,
                  centroid_cache=cache).to_pandas()
    assert len(r3) > 0
    with np.load(cache) as z:
        assert z["C"].shape[0] == 8
        assert z["fingerprint"][0] == 8


def test_minhash_many_short_docs_no_candidate_explosion():
    """Sentinel signatures of short docs must not band together — 300
    short docs would otherwise produce ~45k guaranteed-dropped candidate
    pairs per band."""
    import ray

    from featurebox_ray.stages.dedup import minhash_lsh_dedup

    rows = [{"doc_id": i, "text": f"t{i} u{i}"} for i in range(300)]
    rows += [{"doc_id": 1000, "text": "the quick brown fox jumps over a dog"},
             {"doc_id": 1001, "text": "the quick brown fox jumps over a cat"}]
    ds = ray.data.from_items(rows)
    pairs = minhash_lsh_dedup(ds, jaccard_threshold=0.5,
                              verify_cap=1000).to_pandas()
    # verify_cap=1000 would raise if short docs flooded the candidate set
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert got == {(1000, 1001)}


def test_embedding_neardup_modes_identical():
    """The signature-only semi-join default and the vectors-ride-along
    fast path must produce byte-identical pair sets (same banding, same
    exact-cosine verification, different exchange plans)."""
    from featurebox_ray.stages.dedup import embedding_neardup

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    kw = dict(threshold=0.45, bands=48, planes_per_band=2)
    key = ["id_a", "id_b"]
    a = embedding_neardup(ds, **kw).to_pandas() \
        .sort_values(key).reset_index(drop=True)
    b = embedding_neardup(ds, carry_vectors=True, **kw).to_pandas() \
        .sort_values(key).reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_ngram_jaccard_join_exact_vs_bruteforce():
    """Prefix-filter candidate generation is EXACT: engine pairs ==
    all-pairs Python-set shingle Jaccard, both membership and values
    (recall 1.0 and precision 1.0, unlike the probabilistic LSH path)."""
    from featurebox_ray.stages.dedup import ngram_jaccard_join

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(150)]
    rows, did = [], 0
    bases = [" ".join(rng.choice(words, 30)) for _ in range(40)]
    for b in bases:
        rows.append({"doc_id": did, "text": b}); did += 1
    # variants at graded distances so pairs straddle the 0.6 threshold
    for i, n_mut in zip(range(0, 40, 4), [1, 2, 3, 4, 5, 6, 8, 10, 12, 14]):
        toks = bases[i].split()
        for m in range(n_mut):
            toks[(3 * m + 1) % len(toks)] = f"mut{i}_{m}"
        rows.append({"doc_id": did, "text": " ".join(toks)}); did += 1
    t = 0.6

    def grams(s):
        tk = s.split()
        return {tuple(tk[i:i + 3]) for i in range(len(tk) - 2)}

    expected = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            ga, gb = grams(rows[i]["text"]), grams(rows[j]["text"])
            if not ga or not gb:
                continue
            jac = len(ga & gb) / len(ga | gb)
            if jac >= t:
                expected[(rows[i]["doc_id"], rows[j]["doc_id"])] = round(jac, 6)

    assert expected and any(v < 0.8 for v in expected.values())
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(4)
    got = ngram_jaccard_join(ds, jaccard_threshold=t).to_pandas()
    got_pairs = {(a, b): j for a, b, j in
                 zip(got["id_a"], got["id_b"], got["jaccard"])}
    assert got_pairs == expected


def test_ngram_jaccard_short_and_empty_docs():
    from featurebox_ray.stages.dedup import ngram_jaccard_join

    rows = pd.DataFrame({
        "doc_id": [0, 1, 2, 3, 4],
        "text": ["", "one two", "a b c d e", "a b c d e", "x"],
    })
    got = ngram_jaccard_join(ray.data.from_pandas(rows),
                             jaccard_threshold=0.5).to_pandas()
    assert set(zip(got["id_a"], got["id_b"])) == {(2, 3)}
    assert (got["jaccard"] == 1.0).all()


def test_multimodal_resize_and_frame_sampling():
    import numpy as np

    from featurebox_ray.stages.multimodal import (fake_decode,
                                                  make_fake_media_table,
                                                  resize_images,
                                                  sample_frames)

    t = make_fake_media_table(24, seed=3)
    ds = ray.data.from_arrow(t).repartition(3)

    resized = resize_images(ds, size=(4, 4), codec=fake_decode,
                            batch_size=8).to_pandas()
    assert len(resized) == 24
    assert (resized["mm_width"] == 4).all() and (resized["mm_height"] == 4).all()
    assert (resized["mm_format"] == "raw_rgb").all()
    assert resized["payload"].map(len).eq(4 * 4 * 3).all()
    # nearest-neighbor replay on one payload
    row = resized[resized.media_id == 0].iloc[0]
    img = fake_decode(t["payload"][0].as_py())
    ri = (np.arange(4) * 8) // 4
    want = img[ri][:, ri].tobytes()
    assert row["payload"] == want

    frames = sample_frames(ds, n_frames=3, frame_bytes=100,
                           batch_size=8).to_pandas()
    lens = t["payload"].to_pandas().map(len)
    want_rows = sum(min(3, ln // 100) for ln in lens)
    assert len(frames) == want_rows
    assert frames["payload"].map(len).eq(100).all()
    one = frames[frames.media_id == 0].sort_values("frame_idx")
    F = lens[0] // 100
    k = min(3, F)
    assert list(one["frame_idx"]) == [(j * F) // k for j in range(k)]
    pay = t["payload"][0].as_py()
    fi = one["frame_idx"].iloc[0]
    assert one["payload"].iloc[0] == pay[fi * 100:(fi + 1) * 100]


def test_threshold_similarity_join_duckdb_exact():
    import duckdb

    from featurebox_ray.stages.ann import threshold_similarity_join

    rng = np.random.default_rng(67)
    n, dims = 150, 8
    vecs = (rng.random((n, dims), dtype=np.float32) - 0.5)
    t = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
    })
    # query side: every 30th vector (the small "test set")
    q_idx = np.arange(0, n, 30)
    Q = vecs[q_idx].astype(np.float64)
    THR = 2000  # quantized-units threshold
    con = duckdb.connect()
    con.register("embeddings", t)
    con.register("qs", pa.table({
        "query_id": pa.array(q_idx.astype(np.int64)),
        "qv": pa.array([v.tolist() for v in Q], pa.list_(pa.float64())),
    }))
    want = con.execute(f"""
        WITH c AS (
          SELECT vec_id, i,
                 CAST(floor(CAST(embedding[i] AS DOUBLE) * 256 + 0.5)
                      AS BIGINT) AS xq
          FROM embeddings, unnest(range(1, len(embedding) + 1)) r(i)
        ), q AS (
          SELECT query_id, i,
                 CAST(floor(qv[i] * 256 + 0.5) AS BIGINT) AS yq
          FROM qs, unnest(range(1, len(qv) + 1)) r(i)
        ), d AS (
          SELECT q.query_id, c.vec_id,
                 CAST(sum(c.xq * q.yq) AS BIGINT) AS dot
          FROM c JOIN q USING (i) GROUP BY q.query_id, c.vec_id
        )
        SELECT * FROM d WHERE dot >= {THR}
        ORDER BY query_id, vec_id
    """).fetch_arrow_table()
    assert want.num_rows > 0  # self-pairs at least clear the bar
    for parts in (1, 5):
        got = (threshold_similarity_join(
            ray.data.from_arrow(t).repartition(parts), Q,
            threshold_num=THR, quant_bits=8,
            query_ids=q_idx.astype(np.int64))
            .to_pandas().sort_values(["query_id", "vec_id"])
            .reset_index(drop=True))
        for c in ("query_id", "vec_id", "dot"):
            assert got[c].tolist() == want[c].to_pylist(), (c, parts)
    # each query's self pair must be present (dot with itself is max)
    got_pairs = set(zip(got["query_id"], got["vec_id"]))
    assert all((int(i), int(i)) in got_pairs for i in q_idx)


def _mmr_replay(vecs, ids, Q, k, pool_m, lam, lam_den, qb):
    from featurebox_ray.stages.cohesion import quantize_half_up

    V = quantize_half_up(np.asarray(vecs, np.float64), qb)
    Qv = quantize_half_up(np.asarray(Q, np.float64).reshape(1, -1),
                          qb)[0]
    rel = V @ Qv
    order = np.lexsort((ids, -rel))[:pool_m]
    ids, rel, V = ids[order], rel[order], V[order]
    sims = V @ V.T
    lam_c = lam_den - lam
    picked, avail = [], np.ones(len(ids), bool)
    maxsim = np.full(len(ids), np.iinfo(np.int64).min)
    for r in range(min(k, len(ids))):
        score = lam * rel if r == 0 else lam * rel - lam_c * maxsim
        cand = np.flatnonzero(avail)
        best = cand[np.lexsort((ids[cand], -score[cand]))[0]]
        picked.append((r, int(ids[best]), int(rel[best]),
                       int(score[best])))
        avail[best] = False
        maxsim = np.maximum(maxsim, sims[:, best])
    return picked


def test_mmr_select_replay_and_diversity():
    from featurebox_ray.stages.ann import mmr_select

    rng = np.random.default_rng(89)
    n, dims = 200, 12
    # two tight clusters + noise: plain top-k would pick one cluster,
    # MMR must mix
    base = rng.random((n, dims), dtype=np.float64) * 0.1
    base[:80] += np.array([1.0] + [0.0] * (dims - 1)) * 0.8
    base[80:160] += np.array([0.7, 0.7] + [0.0] * (dims - 2)) * 0.8
    ids = np.arange(n, dtype=np.int64)
    Q = np.array([1.0, 0.6] + [0.0] * (dims - 2))
    t = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([v.tolist() for v in base],
                              pa.list_(pa.float32())),
    })
    # pool must be wide enough to contain BOTH clusters (the more
    # relevant cluster alone fills a 32-pool)
    want = _mmr_replay(base.astype(np.float32), ids, Q, k=8,
                       pool_m=120, lam=5, lam_den=10, qb=8)
    for parts in (1, 4, 9):
        got = mmr_select(ray.data.from_arrow(t).repartition(parts), Q,
                         k=8, pool_m=120, lambda_num=5, lambda_den=10,
                         quant_bits=8)
        rows = list(zip(got["rank"].to_pylist(),
                        got["vec_id"].to_pylist(),
                        got["rel"].to_pylist(),
                        got["score"].to_pylist()))
        assert rows == want, parts
    # diversity: the MMR pick must span both clusters
    pick_ids = [p[1] for p in want]
    assert any(i < 80 for i in pick_ids)
    assert any(80 <= i < 160 for i in pick_ids)
    # lambda=den -> pure relevance = plain integer top-k
    pure = mmr_select(ray.data.from_arrow(t), Q, k=8, pool_m=120,
                      lambda_num=10, lambda_den=10, quant_bits=8)
    rel_order = _mmr_replay(base.astype(np.float32), ids, Q, k=8,
                            pool_m=120, lam=10, lam_den=10, qb=8)
    assert pure["vec_id"].to_pylist() == [p[1] for p in rel_order]


def test_incremental_neardup_cross_only():
    import duckdb

    from featurebox_ray.stages.dedup import (incremental_neardup,
                                             minhash_lsh_dedup)

    # reuse the planted-dup corpus: split by id parity; cross pairs =
    # full self-join pairs restricted to odd-even
    import pyarrow.parquet as pq
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    ids = docs["doc_id"].to_numpy(zero_copy_only=False)
    old = docs.filter(pa.array(ids % 2 == 0))
    new = docs.filter(pa.array(ids % 2 == 1))
    got = (incremental_neardup(
        ray.data.from_arrow(old).repartition(3),
        ray.data.from_arrow(new).repartition(2),
        side_fn=lambda a: a % 2 == 1, jaccard_threshold=0.8)
        .to_pandas().sort_values(["id_a", "id_b"])
        .reset_index(drop=True))
    # every pair is cross-side
    assert ((got["id_a"] % 2) != (got["id_b"] % 2)).all()
    # equals the full self-join restricted to cross pairs
    full = (minhash_lsh_dedup(
        ray.data.from_arrow(docs).repartition(4),
        jaccard_threshold=0.8).to_pandas())
    want = (full[(full["id_a"] % 2) != (full["id_b"] % 2)]
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    assert got["id_a"].tolist() == want["id_a"].tolist()
    assert got["id_b"].tolist() == want["id_b"].tolist()
    assert got["jaccard"].tolist() == want["jaccard"].tolist()
    assert len(got) > 0  # the planted families straddle parities


def test_ivf_topk_hot_centroid_cap_split():
    """Skewed corpus: one centroid attracts ~50% of all vectors.  With
    bucket_cap far below that count, the cap-driven sub-split must
    hold every search task under the in-kernel 2x-cap guard (the
    kernel RAISES otherwise), and full-probe results must still equal
    exact brute force — the split count never changes the answer."""
    from featurebox_ray.stages.ann import brute_force_topk, ivf_topk

    rng = np.random.default_rng(9)
    dim, n = 8, 600
    V = np.zeros((n, dim))
    # ids 0-3 are the "first"-init centroids: unit axes
    for i in range(4):
        V[i, i] = 1.0
    # half the corpus hugs centroid 0, the rest spreads over 1-3
    hot = n // 2
    V[4:4 + hot, 0] = 1.0
    V[4:4 + hot] += rng.normal(0, 0.05, (hot, dim))
    rest = np.arange(4 + hot, n)
    V[rest, 1 + (rest % 3)] = 1.0
    V[rest] += rng.normal(0, 0.05, (len(rest), dim))
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(V), pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(tbl).repartition(6)
    Q = V[[10, 200, 580]]
    # nprobe == n_centroids -> exact; cap 40 << 300 hot-centroid rows
    approx = ivf_topk(ds, Q, k=7, n_centroids=4, nprobe=4,
                      centroid_init="first", sub_buckets=1,
                      bucket_cap=40).to_pandas()
    exact = brute_force_topk(ds, Q, k=7).to_pandas()
    for q in range(3):
        a = approx[approx["query_id"] == q].sort_values(
            ["cosine", "vec_id"], ascending=[False, True])
        e = exact[exact["query_id"] == q].sort_values(
            ["cosine", "vec_id"], ascending=[False, True])
        assert a["vec_id"].tolist() == e["vec_id"].tolist(), q
