"""Large-large kNN join (stages/knn.py) vs the serial replay, plus an
exact-recall probe when every bucket is searched."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from _oracle_replays import replay_knn_join
from featurebox_ray.stages.knn import knn_join


def _mk(seed, n=240, d=12):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, d))
    ids = np.arange(n)
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(list(vecs),
                                        pa.list_(pa.float64()))})
    return t, ids, vecs


def _sides(t, ids, parts):
    left_t = t.filter(pa.array(ids % 2 == 1))
    right_t = t.filter(pa.array(ids % 2 == 0))
    l = ray.data.from_arrow(left_t)
    r = ray.data.from_arrow(right_t)
    if parts > 1:
        l, r = l.repartition(parts), r.repartition(parts)
    return l, r


def test_knn_join_replay_partition_invariant():
    t, ids, vecs = _mk(3)
    odd = ids % 2 == 1
    l_id, rk, r_id, dot = replay_knn_join(
        ids[odd], vecs[odd], ids[~odd], vecs[~odd],
        k=4, n_centroids=6, n_probe=2, quant_bits=10)
    exp = pd.DataFrame({"left_id": l_id, "rank": rk,
                        "right_id": r_id, "dot": dot})
    prev = None
    for parts in (1, 5):
        l, r = _sides(t, ids, parts)
        got = (knn_join(l, r, k=4, n_centroids=6, n_probe=2,
                        quant_bits=10, num_partitions=4)
               .to_pandas().sort_values(["left_id", "rank"])
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        if prev is not None:
            assert got.equals(prev)
        prev = got


def test_knn_join_full_probe_is_exact_brute_force():
    # n_probe == n_centroids -> every bucket searched -> exact top-k
    t, ids, vecs = _mk(9, n=120)
    l, r = _sides(t, ids, 3)
    got = (knn_join(l, r, k=3, n_centroids=5, n_probe=5,
                    quant_bits=10, num_partitions=4)
           .to_pandas().sort_values(["left_id", "rank"])
           .reset_index(drop=True))
    q = lambda x: np.floor(x * float(1 << 10) + 0.5).astype(np.int64)
    Lq, Rq = q(vecs[ids % 2 == 1]), q(vecs[ids % 2 == 0])
    rids = ids[ids % 2 == 0]
    rows = []
    for i, lid in enumerate(ids[ids % 2 == 1]):
        dots = Rq @ Lq[i]
        o = np.lexsort((rids, -dots))[:3]
        rows.extend((lid, rk + 1, rids[j], dots[j])
                    for rk, j in enumerate(o))
    exp = pd.DataFrame(rows, columns=["left_id", "rank", "right_id",
                                      "dot"])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_knn_join_guards():
    t, ids, _ = _mk(1, n=40)
    l, r = _sides(t, ids, 1)
    with pytest.raises(ValueError):
        knn_join(l, r, k=0)
    with pytest.raises(ValueError):
        knn_join(l, r, n_probe=9, n_centroids=4)
    # ragged embeddings refuse
    bad = pa.table({"vec_id": pa.array([0, 2], pa.int64()),
                    "embedding": pa.array([[1.0, 2.0], [1.0]],
                                          pa.list_(pa.float64()))})
    # the task exchange executes eagerly, so the ragged guard
    # fires at call time
    with pytest.raises(Exception, match="ragged|fixed-dimension"):
        knn_join(l, ray.data.from_arrow(bad), k=1, n_centroids=1,
                 n_probe=1).materialize()
