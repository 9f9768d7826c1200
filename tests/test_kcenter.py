"""Greedy k-center (stages/cohesion.py:k_center_select) vs the serial
integer replay; planted-geometry order; duplicate early-stop;
partition invariance."""

import os
import sys

import numpy as np
import pyarrow as pa
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
from _oracle_replays import replay_k_center  # noqa: E402

from featurebox_ray.stages.cohesion import k_center_select  # noqa


def _table(ids, X):
    return pa.table({"vec_id": pa.array(ids, pa.int64()),
                     "emb": pa.array([list(map(float, r))
                                      for r in X],
                                     pa.list_(pa.float32()))})


def test_k_center_matches_serial_replay_partition_invariant():
    rng = np.random.default_rng(457)
    n, dims = 400, 8
    X = rng.normal(size=(n, dims)).astype(np.float32)
    ids = rng.permutation(n * 2)[:n]
    exp = replay_k_center(ids, X, k=12)
    prev = None
    for parts in (1, 9):
        ds = ray.data.from_arrow(_table(ids, X))
        if parts > 1:
            ds = ds.repartition(parts)
        got = (k_center_select(ds, vec_col="emb", id_col="vec_id",
                               k=12)
               .to_pandas())
        rows = list(zip(got["sel_ord"],
                        got["vec_id"],
                        [None if v is None or v != v else int(v)
                         for v in got["radius2"]]))
        assert rows == exp
        if prev is not None:
            assert rows == prev
        prev = rows


def test_k_center_planted_corners():
    # unit square corners + tight cloud at origin: selection walks
    # the corners before touching the cloud
    corners = np.array([[0, 0], [10, 10], [10, 0], [0, 10]],
                       np.float64)
    cloud = 0.01 * np.random.default_rng(7).normal(size=(20, 2))
    X = np.vstack([corners, cloud])
    ids = np.arange(len(X))
    got = (k_center_select(ray.data.from_arrow(_table(ids, X)),
                           vec_col="emb", id_col="vec_id", k=4)
           .to_pandas())
    # seed = id 0 (min id, corner 0,0); next = farthest corner (10,10)
    assert got["vec_id"].tolist()[:2] == [0, 1]
    assert set(got["vec_id"].tolist()) == {0, 1, 2, 3}


def test_k_center_duplicates_early_stop():
    X = np.array([[1.0, 1.0]] * 5)
    got = (k_center_select(
        ray.data.from_arrow(_table(np.arange(5), X)),
        vec_col="emb", id_col="vec_id", k=4).to_pandas())
    # all points identical: only the seed row comes back
    assert len(got) == 1
    assert got["vec_id"].tolist() == [0]
