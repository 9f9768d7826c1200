"""golden_records (stages/linkage.py) — hand-checked election over a
planted match component (mode + tie-min, NULL votes excluded,
singleton pass-through); partition invariance."""

import pandas as pd
import pyarrow as pa
import ray

from featurebox_ray.stages.linkage import golden_records


def _run(records: pa.Table, pairs: pa.Table, parts=1) -> pd.DataFrame:
    ds = ray.data.from_arrow(records)
    if parts > 1:
        ds = ds.repartition(parts)
    out = golden_records(ds, ray.data.from_arrow(pairs),
                         id_col="id", fields=["brand", "size"],
                         num_partitions=4)
    return (out.to_pandas().sort_values("entity")
            .reset_index(drop=True))


def test_election_and_singletons():
    records = pa.table({
        "id": pa.array([1, 2, 3, 4, 9], pa.int64()),
        # component {1,2,3,4}: brand mode 'A' (2 vs 1 vs NULL);
        # size tie 10 vs 20 (2-2) -> min 10
        "brand": pa.array(["A", "B", "A", None, "Z"]),
        "size": pa.array([10, 10, 20, 20, 7], pa.int32())})
    pairs = pa.table({"id_a": pa.array([1, 2, 3], pa.int64()),
                      "id_b": pa.array([2, 3, 4], pa.int64())})
    prev = None
    for parts in (1, 3):
        df = _run(records, pairs, parts)
        assert list(df.entity) == [1, 9]
        e1 = df.iloc[0]
        assert (e1.n_members, e1.brand, e1["size"]) == (4, "A", 10)
        e9 = df.iloc[1]
        assert (e9.n_members, e9.brand, e9["size"]) == (1, "Z", 7)
        if prev is not None:
            pd.testing.assert_frame_equal(df, prev, check_exact=True)
        prev = df


def test_all_null_field_elects_null():
    records = pa.table({
        "id": pa.array([5, 6], pa.int64()),
        "brand": pa.array([None, None], pa.string()),
        "size": pa.array([3, 3], pa.int32())})
    pairs = pa.table({"id_a": pa.array([5], pa.int64()),
                      "id_b": pa.array([6], pa.int64())})
    df = _run(records, pairs)
    assert len(df) == 1
    assert pd.isna(df.iloc[0].brand) and df.iloc[0]["size"] == 3


def test_election_fuzz_matches_python_mode():
    """Random components with many tied votes: every field elects the
    most frequent non-NULL value, ties to the smallest, as a plain
    Python union-find + count replay does; -0.0 and 0.0 are one vote."""
    import numpy as np

    rng = np.random.default_rng(7)
    n = 300
    ids = rng.permutation(np.arange(1000, 1000 + n))
    brand = [None if r < 0.15 else f"b{int(v)}"
             for r, v in zip(rng.random(n), rng.integers(0, 4, n))]
    size = [None if r < 0.15 else int(v)
            for r, v in zip(rng.random(n), rng.integers(-3, 3, n))]
    records = pa.table({"id": pa.array(ids, pa.int64()),
                        "brand": pa.array(brand, pa.string()),
                        "size": pa.array(size, pa.int32())})
    a = rng.choice(ids, 200)
    b = rng.choice(ids, 200)
    pairs = pa.table({"id_a": pa.array(a, pa.int64()),
                      "id_b": pa.array(b, pa.int64())})

    parent = {int(i): int(i) for i in ids}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        parent[max(rx, ry)] = min(rx, ry)
    members = {}
    for i, br, sz in zip(ids.tolist(), brand, size):
        members.setdefault(find(i), []).append((br, sz))

    def mode(vals):
        vals = [v for v in vals if v is not None]
        if not vals:
            return None
        return min(set(vals), key=lambda v: (-vals.count(v), v))

    want = [(e, len(m), mode([x[0] for x in m]), mode([x[1] for x in m]))
            for e, m in sorted(members.items())]
    for parts in (1, 4):
        got = _run(records, pairs, parts)
        assert [(r.entity, r.n_members, None if pd.isna(r.brand) else r.brand,
                 None if pd.isna(r.size) else int(r.size))
                for r in got.itertuples()] == want

    # split, the zeros would lose 1-1 to the two 1.0 votes
    zeros = pa.table({"id": pa.array([1, 2, 3, 4], pa.int64()),
                      "brand": pa.array(["x"] * 4),
                      "size": pa.array([-0.0, 0.0, 1.0, 1.0])})
    z = _run(zeros, pa.table({"id_a": pa.array([1, 2, 3], pa.int64()),
                              "id_b": pa.array([2, 3, 4], pa.int64())}))
    assert z["size"].tolist() == [0.0]
