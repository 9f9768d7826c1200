"""The vertex-program round of stages/graph.py (``superstep``) under its
four operators -- pagerank, k_core, bfs_hops and min_label_components:
each equals its serial replay on node ids above 2^53 and below zero, with
identical frames at 1 and 8 partitions; the rounds run no Ray Data
``Dataset.sum``; and the task exchange splits a list of block refs as it
splits the Dataset of those refs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.components import (min_label_components,
                                              union_find_min_labels)
from featurebox_ray.stages.graph import bfs_hops, k_core, pagerank
from featurebox_ray.stages.partition import task_exchange
from tests.test_bfs_hops import _serial as serial_bfs
from tests.test_k_core import _peel
from tests.test_pagerank import _serial_pagerank


def _id(x: int) -> int:
    # odd ids above 2^53 (not exact in float64), even ids below zero
    return 2**53 + 1 + x * (2**40 + 7) if x % 2 else -(x * 1000003) - 5


def _graph(seed: int, n_nodes: int = 70, n_edges: int = 160) -> list:
    """Distinct undirected edges ``(src, dst)``, ``src < dst``, plus a
    tail path so some nodes are far from the rest."""
    rng = np.random.default_rng(seed)
    pairs = {(n_nodes + i, n_nodes + i + 1) for i in range(12)}
    pairs.add((0, n_nodes))
    while len(pairs) < n_edges + 13:
        a, b = (int(v) for v in rng.integers(0, n_nodes, 2))
        if a != b:
            pairs.add((a, b))
    return sorted({(min(_id(a), _id(b)), max(_id(a), _id(b)))
                   for a, b in pairs})


def _ds(edges, cols=("src", "dst"), blocks: int = 5):
    t = pa.table({cols[0]: pa.array([a for a, _ in edges], pa.int64()),
                  cols[1]: pa.array([b for _, b in edges], pa.int64())})
    cut = np.linspace(0, t.num_rows, blocks + 1).astype(int)
    return ray.data.from_arrow([t.slice(s, e - s)
                                for s, e in zip(cut[:-1], cut[1:])])


def _at_1_and_8(run) -> pd.DataFrame:
    """The operator's frame, sorted by node, at 1 and at 8 partitions:
    the two must be identical."""
    one, eight = (run(p).to_pandas().sort_values("node")
                  .reset_index(drop=True) for p in (1, 8))
    pd.testing.assert_frame_equal(one, eight, check_exact=True)
    return one


@pytest.mark.parametrize("seed", [1, 2])
def test_k_core_adversarial_ids_vs_peeling(seed):
    edges = _graph(seed)
    got = _at_1_and_8(lambda p: k_core(_ds(edges), num_partitions=p))
    assert dict(zip(got["node"], got["core"])) == _peel(edges)
    assert got["node"].dtype == np.int64


@pytest.mark.parametrize("seed", [1, 2])
def test_bfs_hops_adversarial_ids_vs_serial(seed):
    edges = _graph(seed)
    got = _at_1_and_8(lambda p: bfs_hops(_ds(edges), seed_mod=7, max_hops=5,
                                         num_partitions=p))
    want = serial_bfs(edges, 7, 5)
    assert len(want) > 1
    assert dict(zip(got["node"], got["hops"])) == want


@pytest.mark.parametrize("seed", [1, 2])
def test_min_label_components_adversarial_ids_vs_union_find(seed):
    edges = _graph(seed, n_edges=60)
    got = _at_1_and_8(lambda p: min_label_components(
        _ds(edges, ("id_a", "id_b")), num_partitions=p, small_threshold=0))
    want = union_find_min_labels(np.array([a for a, _ in edges], np.int64),
                                 np.array([b for _, b in edges], np.int64))
    assert len(set(want.values())) > 1
    assert dict(zip(got["node"], got["component"])) == want


def test_pagerank_adversarial_ids_vs_serial():
    edges = _graph(3)
    directed = sorted(set(edges) | {(b, a) for a, b in edges})
    got = _at_1_and_8(lambda p: pagerank(_ds(directed), iters=3,
                                         num_partitions=p))
    assert dict(zip(got["node"], got["rank"])) == _serial_pagerank(
        directed, 3)


def test_rounds_run_no_dataset_sum(monkeypatch):
    """Each round counts its changed rows with one small task per block,
    not with a Ray Data aggregate."""
    def refuse(*args, **kwargs):
        raise AssertionError("Dataset.sum ran")

    monkeypatch.setattr(ray.data.Dataset, "sum", refuse)
    edges = _graph(4, n_edges=60)
    assert len(k_core(_ds(edges), num_partitions=4).to_pandas()) > 0
    assert len(bfs_hops(_ds(edges), seed_mod=7,
                        num_partitions=4).to_pandas()) > 0
    assert len(min_label_components(_ds(edges, ("id_a", "id_b")),
                                    num_partitions=4,
                                    small_threshold=0).to_pandas()) > 0


def test_task_exchange_splits_block_refs_like_their_dataset():
    """A list of block refs is split in list order, as the Dataset of the
    same refs drains in order: equal gathers, tied keys in block order,
    an empty block included."""
    rng = np.random.default_rng(9)

    def block(n, start):
        return pa.table({"k": pa.array(rng.integers(0, 6, n), pa.int64()),
                         "v": pa.array(np.arange(start, start + n))})

    a = [ray.put(block(n, 100 * i)) for i, n in enumerate([40, 0, 25, 31])]
    b = [ray.put(block(n, 10_000 + 100 * i)) for i, n in enumerate([9, 50])]

    def run(inputs):
        return ray.get(task_exchange(
            inputs, lambda _p, ts: pa.concat_tables(ts), key="k",
            sort_keys=[["k"], ["k"]], num_partitions=3))

    by_refs = run([a, b])
    by_ds = run([ray.data.from_arrow_refs(a), ray.data.from_arrow_refs(b)])
    assert sum(t.num_rows for t in by_refs) == 155
    for x, y in zip(by_refs, by_ds):
        assert x.equals(y)


@pytest.mark.parametrize("edges", [[(1, 2), (2, 3)], []],
                         ids=["no_seed", "no_edges"])
def test_k_core_and_bfs_hops_keep_their_columns(edges):
    """Both operators return a Dataset whose every block has their
    declared columns, also when nothing is reached (no id of the path
    1-2-3 is a multiple of 17) and when the edge list is empty.  (Ray's
    ``to_pandas`` of a Dataset with no rows has no columns whatever its
    blocks, so the blocks are what is checked.)"""
    def block_columns(out) -> set:
        assert isinstance(out, ray.data.Dataset)
        return {tuple(t.column_names)
                for b in out.iter_internal_ref_bundles()
                for t in ray.get(b.block_refs)}

    ds = _ds(edges, blocks=max(len(edges), 1))
    hops = bfs_hops(ds, seed_mod=17, num_partitions=4)
    core = k_core(ds, num_partitions=4)
    assert block_columns(hops) == {("node", "hops")}
    assert block_columns(core) == {("node", "degree", "core")}
    assert hops.count() == 0
    assert core.count() == (3 if edges else 0)
