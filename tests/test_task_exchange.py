"""The task exchange (the engine's one keyed exchange) against the pandas
oracle (tests/oracle.py), plus its partition-count invariance and its
several-input form (Datasets exchanged together, no union, one sort key
list per input)."""

import glob
import time

import numpy as np
import pyarrow as pa
import pytest
import ray

from featurebox_ray.pipelines.transcript import fused_features_backfill
from featurebox_ray.stages.partition import partitioned_map
from featurebox_ray.stages.scalar import add_scalar_features
from featurebox_ray.stages.window import WindowSpec, add_window_features

from .oracle import (load_feature_table, load_transcripts, oracle_asof,
                     oracle_features)


def _df(ds):
    return ds.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def _oracle_df(df):
    return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def _assert_columns_match(a, b, cols):
    for c in cols:
        if b[c].dtype == object or str(b[c].dtype).startswith("datetime"):
            assert (a[c].fillna("∅").values == b[c].fillna("∅").values).all(), c
        elif b[c].dtype == bool:
            assert (a[c].values == b[c].values).all(), c
        else:
            assert np.allclose(a[c].astype(float), b[c].astype(float),
                               equal_nan=True), c


def test_task_exchange_matches_oracle(tiny_dir):
    base = add_scalar_features(ray.data.read_parquet(f"{tiny_dir}/transcripts"))
    a = _oracle_df(oracle_features(load_transcripts(tiny_dir)))
    b = _df(add_window_features(base, WindowSpec(), num_partitions=8))
    assert len(a) == len(b)
    _assert_columns_match(a, b, b.columns)


def test_task_exchange_fused_matches_oracle(tiny_dir):
    """The fused as-of + window pipeline exchanges its two tagged inputs
    together: both the backfilled columns and the window features match
    the oracles."""
    base = add_scalar_features(ray.data.read_parquet(f"{tiny_dir}/transcripts"))
    ft = ray.data.read_parquet(f"{tiny_dir}/feature_table")
    a = _oracle_df(oracle_asof(load_transcripts(tiny_dir),
                               load_feature_table(tiny_dir)))
    b = _df(fused_features_backfill(base, ft, WindowSpec(),
                                    right_cols=["f_score", "f_label"],
                                    num_partitions=8))
    assert len(a) == len(b)
    assert np.allclose(a["f_score"].values, b["f_score"].values, equal_nan=True)
    assert (a["f_label"].fillna("∅").values == b["f_label"].fillna("∅").values).all()
    w = _oracle_df(oracle_features(load_transcripts(tiny_dir)))
    _assert_columns_match(w, b, [c for c in w.columns if c in b.columns])


def test_fused_with_empty_feature_table(tiny_dir):
    """A right input that yields no block leaves every backfilled value
    NULL and the window features unchanged."""
    base = add_scalar_features(ray.data.read_parquet(f"{tiny_dir}/transcripts"))
    ft = ray.data.read_parquet(f"{tiny_dir}/feature_table").limit(0)
    b = _df(fused_features_backfill(base, ft, WindowSpec(),
                                    right_cols=["f_score", "f_label"],
                                    num_partitions=8))
    w = _oracle_df(oracle_features(load_transcripts(tiny_dir)))
    assert len(w) == len(b)
    assert b["f_score"].isna().all() and b["f_label"].isna().all()
    _assert_columns_match(w, b, [c for c in w.columns if c in b.columns])


def _side_rows(n, mod, side, seed):
    rng = np.random.default_rng(seed)
    return [{"k": int(k), "ts": int(ts), "side": side, "v": int(v)}
            for k, ts, v in zip(rng.integers(0, mod, n),
                                rng.permutation(n), rng.integers(-50, 50, n))]


def _running_sum(t: pa.Table) -> pa.Table:
    """Per-key running sum of ``v`` in partition order: right only when
    every row of a key is in the partition and sorted."""
    df = t.to_pandas()
    df["run"] = df.groupby("k", sort=False)["v"].cumsum().astype("int64")
    return pa.Table.from_pandas(df, preserve_index=False)


def _sorted_rows(df):
    return (df.sort_values(["k", "ts", "side"])
            [["k", "ts", "side", "v", "run"]].reset_index(drop=True))


@pytest.mark.parametrize("blocks", [1, 8])
@pytest.mark.parametrize("num_partitions", [1, 3, 8])
def test_multi_input_matches_union(num_partitions, blocks):
    """partitioned_map([a, b]) with one sort key list per input equals
    partitioned_map(a.union(b)), and both equal one in-process pass,
    whatever the partition and block counts: every row of a key meets
    the key's rows of the other input in one gather."""
    import pandas as pd

    from featurebox_ray.stages.partition import sort_table

    ra, rb = _side_rows(300, 17, 0, 1), _side_rows(120, 23, 1, 2)
    a = ray.data.from_items(ra, override_num_blocks=blocks)
    b = ray.data.from_items(rb, override_num_blocks=blocks)
    keys = ["k", "ts", "side"]
    kw = dict(key="k", num_partitions=num_partitions)

    def both(ta: pa.Table, tb: pa.Table) -> pa.Table:
        return _running_sum(sort_table(pa.concat_tables([ta, tb]), keys))

    want = _sorted_rows(_running_sum(pa.Table.from_pandas(
        pd.DataFrame(ra + rb).sort_values(keys),
        preserve_index=False)).to_pandas())
    multi = _sorted_rows(partitioned_map(
        [a, b], both, sort_keys=[keys, keys], **kw).to_pandas())
    union = _sorted_rows(partitioned_map(
        a.union(b), _running_sum, sort_keys=keys, **kw).to_pandas())
    pd.testing.assert_frame_equal(multi, want)
    pd.testing.assert_frame_equal(union, want)


@pytest.mark.parametrize("empty", ["second", "both"])
def test_multi_input_empty_inputs(empty):
    """Inputs that yield no block: every gather still runs, and each
    input that yields no block reaches every gather as an empty table in
    its own schema."""
    a = ray.data.from_items(_side_rows(50, 7, 0, 3))
    b = ray.data.from_items([{**r, "w": 1.0}
                             for r in _side_rows(20, 7, 1, 4)]).limit(0)
    if empty == "both":
        a = a.limit(0)
    kw = dict(key="k", sort_keys=[["k", "ts"], ["k", "ts"]],
              num_partitions=5)

    def count(ta: pa.Table, tb: pa.Table) -> pa.Table:
        return pa.table({"rows": [ta.num_rows], "rows_b": [tb.num_rows],
                         "cols": [",".join(ta.column_names)],
                         "cols_b": [",".join(tb.column_names)]})

    seen = partitioned_map([a, b], count, **kw).take_all()
    assert len(seen) == 5
    assert sum(r["rows"] for r in seen) == (50 if empty == "second" else 0)
    assert sum(r["rows_b"] for r in seen) == 0
    assert {r["cols"] for r in seen} == {"k,ts,side,v"}
    assert {r["cols_b"] for r in seen} == {"k,ts,side,v,w"}

    def number(ta: pa.Table, tb: pa.Table) -> pa.Table:
        t = pa.concat_tables([ta, tb], promote_options="default")
        return t.append_column("n", pa.array(np.arange(t.num_rows),
                                             pa.int64()))

    out = partitioned_map([a, b], number, **kw)
    assert out.schema().names == ["k", "ts", "side", "v", "w", "n"]
    assert out.count() == (50 if empty == "second" else 0)


def test_second_input_without_key_raises():
    """A non-empty block of any input that lacks the key is refused.
    (The checkpoint runner's refusal is
    tests/test_checkpoint.py::test_misspelled_key_raises_and_writes_no_part_manifests.)"""
    good = ray.data.from_items([{"k": 1}, {"k": 2}])
    bad = ray.data.from_items([{"kk": 3}])
    with pytest.raises(KeyError, match="'k' missing"):
        partitioned_map([good, bad], lambda ta, tb: ta, key="k",
                        sort_keys=[["k"], ["k"]], num_partitions=2)


def test_several_inputs_with_one_flat_list_raise(tmp_path):
    """One flat list of sort keys is for one input: several inputs with
    one refuse before anything runs, in partitioned_map, task_exchange
    and the checkpoint runner, which writes no manifest."""
    from featurebox_ray.stages.partition import task_exchange
    from featurebox_ray.state.checkpoint import run_partitioned_checkpointed

    a = ray.data.from_items([{"k": 1}, {"k": 2}])
    b = ray.data.from_items([{"k": 2}])
    kw = dict(key="k", sort_keys=["k"], num_partitions=2)
    msg = "1 sort key lists for 2 inputs"
    with pytest.raises(ValueError, match=msg):
        partitioned_map([a, b], lambda t: t, **kw)
    with pytest.raises(ValueError, match=msg):
        task_exchange([a, b], lambda p, t: t, **kw)
    out = tmp_path / "ck"
    with pytest.raises(ValueError, match=msg):
        run_partitioned_checkpointed([a, b], lambda t: t, str(out),
                                     input_desc="two", **kw)
    assert not glob.glob(f"{out}/**/*.json", recursive=True)
    assert not glob.glob(f"{out}/**/*.parquet", recursive=True)


def test_per_input_tables_sorted_in_block_order():
    """One sort key list per input: the kernel gets one table per input,
    each sorted by its own keys, and rows tied on every key keep block
    order within their input even when the first block lands last."""
    from featurebox_ray.stages.partition import materialized_block_refs

    def slow_first(t: pa.Table) -> pa.Table:
        if t.num_rows and t["blk"][0].as_py() == 0:
            time.sleep(1.0)
        return t

    rng = np.random.default_rng(8)
    a_rows = [{"k": int(rng.integers(0, 5)), "ts": int(rng.integers(0, 3)),
               "i": i, "blk": i // 30} for i in range(60)]
    b_rows = [{"k": int(rng.integers(0, 5)), "w": int(rng.integers(0, 2)),
               "i": i, "blk": i // 12} for i in range(24)]
    a = ray.data.from_items(a_rows, override_num_blocks=2).map_batches(
        slow_first, batch_format="pyarrow")
    b = ray.data.from_items(b_rows, override_num_blocks=2).map_batches(
        slow_first, batch_format="pyarrow")

    def arrival(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table({
            "side": [0] * lt.num_rows + [1] * rt.num_rows,
            "k": lt["k"].to_pylist() + rt["k"].to_pylist(),
            "i": lt["i"].to_pylist() + rt["i"].to_pylist()})

    out = partitioned_map([a, b], arrival, key="k",
                          sort_keys=[["k", "ts"], ["k", "w"]],
                          num_partitions=3)
    parts = [t for t in ray.get(materialized_block_refs(out)) if t.num_rows]
    assert sum(t.num_rows for t in parts) == len(a_rows) + len(b_rows)
    for t in parts:
        for side, rows, tie in ((0, a_rows, "ts"), (1, b_rows, "w")):
            got = [i for s, i in zip(t["side"].to_pylist(), t["i"].to_pylist())
                   if s == side]
            keys = set(rows[i]["k"] for i in got)
            # Python's sort is stable: ties stay in row (= block) order
            want = sorted((r for r in rows if r["k"] in keys),
                          key=lambda r: (r["k"], r[tie]))
            assert got == [r["i"] for r in want], side


@pytest.mark.parametrize("right", ["no_block", "sparse"])
def test_per_input_empty_sides_are_typed(right):
    """An input that yields no block, or has no rows in a partition,
    reaches the kernel as an empty table in its own schema."""
    a = ray.data.from_items([{"k": k, "v": k / 2} for k in range(12)])
    b = ray.data.from_items([{"k": 3, "w": "x"}])
    if right == "no_block":
        b = b.limit(0)

    def shapes(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table({"left": [str(lt.schema)], "right": [str(rt.schema)],
                         "nl": [lt.num_rows], "nr": [rt.num_rows]})

    seen = partitioned_map([a, b], shapes, key="k",
                           sort_keys=[["k"], ["k"]],
                           num_partitions=5).to_pandas()
    assert len(seen) == 5
    assert seen["nl"].sum() == 12
    assert seen["nr"].sum() == (0 if right == "no_block" else 1)
    assert (seen["nr"] == 0).sum() >= 4
    assert set(seen["left"]) == {"k: int64\nv: double"}
    assert set(seen["right"]) == {"k: int64\nw: string"}


def test_per_input_sort_keys_must_match_inputs():
    a = ray.data.from_items([{"k": 1}])
    with pytest.raises(ValueError, match="2 sort key lists for 1 inputs"):
        partitioned_map(a, lambda t: t, key="k", sort_keys=[["k"], ["k"]],
                        num_partitions=2)
    with pytest.raises(ValueError, match="1 sort key lists for 2 inputs"):
        partitioned_map([a, a], lambda lt, rt: lt, key="k",
                        sort_keys=[["k"]], num_partitions=2)


def test_tasks_strategy_partition_count_invariance(tiny_dir):
    base = add_scalar_features(ray.data.read_parquet(f"{tiny_dir}/transcripts"))
    a = _df(add_window_features(base, WindowSpec(), num_partitions=3))
    b = _df(add_window_features(base, WindowSpec(), num_partitions=17))
    for c in ("session_id", "roll5_mean_text_len", "win_t3600s_sum_text_len"):
        assert np.allclose(a[c].astype(float), b[c].astype(float), equal_nan=True), c


@pytest.mark.parametrize("strategy", ["groupby", "hash"])
def test_partitioned_map_rejects_other_strategies(strategy):
    ds = ray.data.from_items([{"k": 1}])
    with pytest.raises(ValueError, match="strategy"):
        partitioned_map(ds, lambda t: t, key="k", sort_keys=["k"],
                        num_partitions=2, strategy=strategy)


def test_partitioned_map_missing_key_raises():
    ds = ray.data.from_items([{"k": 1}, {"k": 2}])
    with pytest.raises(KeyError, match="'kk' missing"):
        partitioned_map(ds, lambda t: t, key="kk", sort_keys=["k"],
                        num_partitions=2)


def test_auto_join_dispatch_and_equivalence():
    import duckdb
    import pyarrow as pa

    from featurebox_ray.stages.join import auto_join

    rng = np.random.default_rng(73)
    left = pa.table({
        "k": pa.array(rng.integers(0, 40, 300), pa.int64()),
        "lv": pa.array(np.arange(300), pa.int64()),
    })
    # right side with duplicate keys, a NULL value on a matched key,
    # and keys absent from the left
    right = pa.table({
        "k": pa.array([0, 0, 1, 2, 99], pa.int64()),
        "rv": pa.array([10, 11, None, 12, 13], pa.int64()),
    })
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for how in ("inner", "left"):
        want = con.execute(f"""
            SELECT l.k, l.lv, r.rv FROM l {how.upper()} JOIN r USING (k)
            ORDER BY lv, rv NULLS FIRST
        """).fetch_arrow_table()
        for thresh in (10, 0):  # 10 -> broadcast path, 0 -> hash path
            got = (auto_join(ray.data.from_arrow(left).repartition(3),
                             ray.data.from_arrow(right), on="k",
                             how=how, broadcast_threshold_rows=thresh,
                             num_partitions=4)
                   .to_pandas()
                   .sort_values(["lv", "rv"], na_position="first")
                   .reset_index(drop=True))
            assert len(got) == want.num_rows, (how, thresh)
            for c in ("k", "lv", "rv"):
                gv = [None if isinstance(v, float) and v != v else int(v)
                      for v in got[c].tolist()]
                assert gv == want[c].to_pylist(), (c, how, thresh)


def test_each_group_one_call_per_group():
    """each_group calls its function once per distinct group tuple (NULL
    its own group, multi-column groups split inside one hash key), and
    partitions that receive no rows contribute nothing."""
    import pyarrow as pa

    from featurebox_ray.stages.partition import each_group

    a = [1, 1, 2, None, None, 3, 1, 2]
    b = ["x", "y", "x", "x", "x", "z", "x", "x"]
    t = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b),
                  "v": pa.array(range(len(a)), pa.int64())})

    def total(g: pa.Table) -> pa.Table:
        return pa.table({"a": g["a"].slice(0, 1), "b": g["b"].slice(0, 1),
                         "n": pa.array([g.num_rows], pa.int64()),
                         "s": pa.array([sum(g["v"].to_pylist())],
                                       pa.int64())})

    out = partitioned_map(ray.data.from_arrow(t).repartition(3),
                          each_group(total, ["a", "b"]), key="a",
                          sort_keys=["a", "b"], num_partitions=16)
    rows = out.take_all()
    got = {(r["a"], r["b"]): (r["n"], r["s"]) for r in rows}
    assert len(rows) == len(got)  # one output row per group
    want = {}
    for i, k in enumerate(zip(a, b)):
        n, s = want.get(k, (0, 0))
        want[k] = (n + 1, s + i)
    assert got == want


def _typed_rows(n=40):
    import datetime

    t0 = datetime.datetime(2024, 3, 1, tzinfo=datetime.timezone.utc)
    return pa.table({
        "k": pa.array([i % 7 for i in range(n)], pa.int64()),
        "i": pa.array(range(n), pa.int64()),
        "d": pa.array([["a", "b", None][i % 3] for i in range(n)]
                      ).dictionary_encode(),
        "ls": pa.array([None if i % 5 == 0 else "x" * (i % 4)
                        for i in range(n)], pa.large_string()),
        "l": pa.array([None if i % 6 == 0 else list(range(i % 3))
                       for i in range(n)], pa.list_(pa.int32())),
        "st": pa.array([None if i % 4 == 0 else {"a": i, "b": str(i)}
                        for i in range(n)]),
        "ts": pa.array([t0 + datetime.timedelta(minutes=i)
                        for i in range(n)],
                       pa.timestamp("ms", tz="America/New_York")),
        "b": pa.array([None if i % 9 == 0 else i % 2 == 0
                       for i in range(n)]),
    })


@pytest.mark.parametrize("num_partitions", [1, 4])
def test_exchange_keeps_schema_and_rows(num_partitions):
    """Slices travel as IPC buffers and come back with the exact schema
    (dictionary, large_string, list, struct, tz timestamp, bool), from
    input blocks that are slices and from zero-column empty blocks; the
    output is each partition's rows sorted, in partition order."""
    from featurebox_ray.stages.partition import (_hash_chunk,
                                                 materialized_block_refs)

    t = _typed_rows()
    ds = ray.data.from_arrow([t.slice(0, 7), pa.table({}), t.slice(7, 13),
                              pa.table({}), t.slice(20)])
    out = partitioned_map(ds, lambda x: x, key="k", sort_keys=["k", "i"],
                          num_partitions=num_partitions)
    parts = ray.get(materialized_block_refs(out))
    assert len(parts) == num_partitions
    assert all(p.schema.equals(t.schema) for p in parts)
    bucket = _hash_chunk(t["k"].combine_chunks(), num_partitions)
    want = [t.filter(pa.array(bucket == p)).sort_by([("k", "ascending"),
                                                     ("i", "ascending")])
            for p in range(num_partitions)]
    assert [p.to_pylist() for p in parts] == [w.to_pylist() for w in want]


def test_exchange_keeps_tensor_column_in_fresh_cluster(tmp_path):
    """A Ray tensor-extension column keeps its type through the IPC
    slices in a fresh cluster, whose workers may not have imported Ray's
    tensor types; the reader registers them before it reads."""
    import os
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import numpy as np
        import pyarrow as pa
        import ray
        from featurebox_ray.stages.partition import (
            _to_ipc, materialized_block_refs, partitioned_map)

        ray.init(address="local", num_cpus=2, include_dashboard=False)
        rows = [{"k": i % 5, "i": i, "x": np.arange(3) * i}
                for i in range(40)]
        ds = ray.data.from_items(rows, override_num_blocks=4)
        want = ds.schema().base_schema
        out = partitioned_map(ds, lambda t: t, key="k",
                              sort_keys=["k", "i"], num_partitions=3)
        parts = ray.get(materialized_block_refs(out))
        assert all(p.schema.equals(want) for p in parts), parts[0].schema
        got = sorted((r["i"], r["x"].tolist())
                     for r in ray.data.from_arrow(parts).iter_rows())
        assert got == [(i, [0, i, 2 * i]) for i in range(40)], got
        buf = _to_ipc(pa.concat_tables(parts))
        ray.shutdown()
        # a fresh interpreter reads the buffer without the types registered
        print(buf.to_pybytes().hex())
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    p = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-3000:]
    hexbuf = p.stdout.split()[-1]
    reader = textwrap.dedent(f"""
        import sys
        import pyarrow as pa
        from featurebox_ray.stages.partition import _from_ipc
        assert "ray.air.util.tensor_extensions.arrow" not in sys.modules
        t = _from_ipc(pa.py_buffer(bytes.fromhex({hexbuf!r})))
        print(type(t.schema.field("x").type).__name__, t.num_rows)
    """)
    q = subprocess.run([sys.executable, "-c", reader], env=env,
                       capture_output=True, text=True, timeout=120)
    assert q.returncode == 0, q.stderr[-3000:]
    assert q.stdout.split() == ["ArrowTensorTypeV2", "40"]


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string(),
                                 pa.binary()])
def test_hash_chunk_string_buckets_unchanged(typ):
    """String and binary keys bucket through their dictionary, with the
    buckets of hashing every row (the "poly64-v2" bucketer), NULLs,
    all-NULL, empty, sliced and chunked arrays included."""
    from featurebox_ray.stages.partition import (_hash_chunk,
                                                 _hash_string_values)

    rng = np.random.default_rng(11)
    vals = [None if v % 13 == 0 else f"conv-{v}" * (1 + v % 3)
            for v in rng.integers(0, 200, 3000)]
    if pa.types.is_binary(typ):
        vals = [None if v is None else v.encode() for v in vals]
    arr = pa.array(vals, typ)
    for P in (1, 7, 32):
        for a in (arr, arr.slice(5, 1000), arr.slice(1001),
                  pa.nulls(5, typ), arr.slice(0, 0)):
            want = (_hash_string_values(a) % np.uint64(P)).astype(np.int32)
            np.testing.assert_array_equal(_hash_chunk(a, P), want)
        chunked = pa.chunked_array([arr.slice(0, 1234), arr.slice(1234)])
        got = np.concatenate([_hash_chunk(c, P) for c in chunked.chunks])
        np.testing.assert_array_equal(
            got, (_hash_string_values(arr) % np.uint64(P)).astype(np.int32))


def _within(seconds, fn):
    """``fn()``, failing the test if it has not returned in ``seconds``
    (an execution that starves hangs instead of raising)."""
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1)
    try:
        return pool.submit(fn).result(timeout=seconds)
    finally:
        pool.shutdown(wait=False)


def _reservation_flags(ds):
    from ray.data import DataContext

    return (ds.context.op_resource_reservation_enabled,
            ds._logical_plan.context.op_resource_reservation_enabled,
            DataContext.get_current().op_resource_reservation_enabled)


def test_drains_leave_caller_context_alone(tmp_path):
    """partitioned_map, task_exchange, run_partitioned_checkpointed and
    materialized_block_refs drain a private copy: the caller's Dataset
    (its plan's context and its logical plan's) and the global context
    keep op reservation on, while the Dataset partitioned_map returns,
    and a chain built on it, run with it off."""
    from featurebox_ray.stages.partition import (materialized_block_refs,
                                                 task_exchange)
    from featurebox_ray.state.checkpoint import run_partitioned_checkpointed

    def fresh():
        return ray.data.from_items(_side_rows(60, 7, 0, 5),
                                   override_num_blocks=3).map_batches(
            lambda t: t, batch_format="pyarrow")

    kw = dict(key="k", sort_keys=["k", "ts"], num_partitions=3)
    ds = fresh()
    out = partitioned_map(ds, _running_sum, **kw)
    assert _reservation_flags(ds) == (True, True, True)
    assert out.context.op_resource_reservation_enabled is False
    chained = out.map_batches(lambda t: t, batch_format="pyarrow")
    assert chained.context.op_resource_reservation_enabled is False
    assert chained.count() == 60

    ds = fresh()
    ray.get(task_exchange(ds, lambda p, t: t.num_rows, **kw))
    assert _reservation_flags(ds) == (True, True, True)

    ds = fresh()
    run_partitioned_checkpointed(ds, lambda t: t, str(tmp_path / "ck"),
                                 input_desc="ctx", **kw)
    assert _reservation_flags(ds) == (True, True, True)

    ds = fresh()
    assert sum(b.num_rows for b in ray.get(materialized_block_refs(ds))) == 60
    assert _reservation_flags(ds) == (True, True, True)


class _AddTwice:
    """Actor-pool stage: ``v2 = 2 v``."""

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.append_column("v2", pc.multiply(t["v"], 2))


def _one_pass(rows):
    """The in-process result of ``_AddTwice`` then ``_running_sum``."""
    import pandas as pd

    df = pd.DataFrame(rows).sort_values(["k", "ts"])
    df["v2"] = df["v"] * 2
    return _sorted_rows(_running_sum(pa.Table.from_pandas(
        df, preserve_index=False)).to_pandas())


def test_actor_pool_upstream_through_exchange():
    """An upstream with an actor-pool stage drains without op
    reservation and completes, matching the one-pass result."""
    import pandas as pd

    rows = _side_rows(400, 31, 0, 6)
    ds = ray.data.from_items(rows, override_num_blocks=8).map_batches(
        _AddTwice, batch_format="pyarrow", concurrency=2)
    got = _within(180, lambda: partitioned_map(
        ds, _running_sum, key="k", sort_keys=["k", "ts"],
        num_partitions=4).to_pandas())
    want = _one_pass(rows)
    pd.testing.assert_frame_equal(_sorted_rows(got), want)
    assert (got.sort_values(["k", "ts"])["v2"].to_numpy()
            == want.sort_values(["k", "ts"])["v"].to_numpy() * 2).all()


def test_actor_pool_downstream_and_write(tmp_path):
    """An actor-pool stage and a write_parquet chained on
    partitioned_map's output (which runs without op reservation)
    complete, and the written rows match the one-pass result."""
    import pandas as pd

    rows = _side_rows(400, 31, 0, 8)
    out_dir = str(tmp_path / "out")

    def run():
        out = partitioned_map(
            ray.data.from_items(rows, override_num_blocks=8), _running_sum,
            key="k", sort_keys=["k", "ts"], num_partitions=4)
        out.map_batches(_AddTwice, batch_format="pyarrow",
                        concurrency=2).write_parquet(out_dir)

    _within(180, run)
    got = pd.read_parquet(out_dir)
    pd.testing.assert_frame_equal(_sorted_rows(got), _one_pass(rows))
    assert (got["v2"] == got["v"] * 2).all()


def test_materialized_input_drains_without_reexecuting(tmp_path):
    """A materialized input keeps its snapshot through the private
    copies: draining it twice returns the same block refs, the exchange
    sees the same rows, and the read never runs again."""
    import os

    from featurebox_ray.stages.partition import materialized_block_refs

    calls = str(tmp_path / "calls")
    os.makedirs(calls)

    def counted(t: pa.Table) -> pa.Table:
        import uuid

        open(os.path.join(calls, uuid.uuid4().hex), "w").close()
        return t

    rows = _side_rows(120, 9, 0, 10)
    m = ray.data.from_items(rows, override_num_blocks=4).map_batches(
        counted, batch_format="pyarrow").materialize()
    ran = len(os.listdir(calls))
    assert ran == 4
    first = materialized_block_refs(m)
    second = materialized_block_refs(m)
    assert first == second
    assert ([b.to_pylist() for b in ray.get(first)]
            == [b.to_pylist() for b in ray.get(second)])
    got = partitioned_map(m, _running_sum, key="k", sort_keys=["k", "ts"],
                          num_partitions=3).to_pandas()
    assert len(got) == 120
    assert len(os.listdir(calls)) == ran


def _write_parquet(d, table: pa.Table, files: int, row_group_size=None):
    """``table`` split over ``files`` parquet files in directory ``d``."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(d)
    for i, idx in enumerate(np.array_split(np.arange(table.num_rows), files)):
        pq.write_table(table.take(pa.array(idx, pa.int64())),
                       os.path.join(d, f"part-{i:02d}.parquet"),
                       row_group_size=row_group_size)
    return str(d)


_add_twice = _AddTwice()  # the same stage as a plain callable


def _halves(t: pa.Table):
    """A generator stage: the table as two slices."""
    yield t.slice(0, t.num_rows // 2)
    yield t.slice(t.num_rows // 2)


def _count_drains(monkeypatch) -> list:
    """Record every drain :func:`task_exchange` starts (each goes
    through ``partition._unreserved``)."""
    from featurebox_ray.stages import partition

    drains, real = [], partition._unreserved

    def counted(ds, ordered=False):
        drains.append(ds)
        return real(ds, ordered)

    monkeypatch.setattr(partition, "_unreserved", counted)
    return drains


def test_perfbench_shaped_plan_is_lowered(tmp_path, monkeypatch):
    """The benchmark's plan -- read_parquet(override_num_blocks=8), three
    whole-block pyarrow map_batches stages, and a bare read_parquet right
    side -- is lowered into its split tasks at the one-list and the
    per-input form: no input is drained.  It pins the Ray plan internals
    the lowering reads; a Ray that renames one fails here instead of
    falling back in silence."""
    import pyarrow.parquet as pq

    from featurebox_ray.sources.synthetic import write_dataset
    from featurebox_ray.stages.dedup import minhash_bands_fn
    from featurebox_ray.stages.partition import _read_and_maps, task_exchange
    from featurebox_ray.stages.scalar import turn_scalar_features
    from featurebox_ray.stages.text import text_features_fn
    from featurebox_ray.state.checkpoint import run_partitioned_checkpointed

    d = str(tmp_path)
    write_dataset(d, n_convs=24, n_shards=8, mega_turns=0)
    fns = [turn_scalar_features, text_features_fn, minhash_bands_fn]
    left = ray.data.read_parquet(f"{d}/transcripts", override_num_blocks=8)
    for fn in fns:
        left = left.map_batches(fn, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)
    right = ray.data.read_parquet(f"{d}/feature_table")

    read_tasks, maps = _read_and_maps(left)
    assert len(read_tasks) == 8
    assert maps == [(fn, (), {}) for fn in fns]
    read_tasks, maps = _read_and_maps(right)
    assert read_tasks and maps == []

    drains = _count_drains(monkeypatch)
    n_left = pq.read_table(f"{d}/transcripts").num_rows
    n_right = pq.read_table(f"{d}/feature_table").num_rows
    got = ray.get(task_exchange(left, lambda p, t: t.num_rows, key="conv_id",
                                sort_keys=["conv_id", "ts", "turn_idx"],
                                num_partitions=4))
    assert sum(got) == n_left
    got = ray.get(task_exchange(
        [left, right], lambda p, ts: [t.num_rows for t in ts],
        key="conv_id", sort_keys=[["conv_id", "ts", "turn_idx"],
                                  ["conv_id", "ts"]], num_partitions=4))
    assert [sum(g[i] for g in got) for i in (0, 1)] == [n_left, n_right]
    # the benchmark's two jobs reach the exchange through these two
    out = fused_features_backfill(left, right, WindowSpec(),
                                  right_cols=["f_score", "f_label"],
                                  num_partitions=4,
                                  left_schema=left.schema())
    assert out.count() == n_left
    manifests = run_partitioned_checkpointed(
        left, lambda t: t, str(tmp_path / "ck"), key="conv_id",
        sort_keys=["conv_id", "ts", "turn_idx"], num_partitions=4)
    assert sum(m["rows"] for m in manifests) == n_left
    assert drains == []


_UNLOWERABLE = {
    "actor_pool": lambda ds: ds.map_batches(
        _AddTwice, batch_format="pyarrow", concurrency=1),
    "filter": lambda ds: ds.map_batches(
        _add_twice, batch_format="pyarrow").filter(lambda r: r["v"] >= 0),
    "batch_size_64": lambda ds: ds.map_batches(
        _add_twice, batch_format="pyarrow", batch_size=64),
    "pandas": lambda ds: ds.map_batches(
        lambda df: df.assign(v2=df["v"] * 2), batch_format="pandas"),
    "materialized": lambda ds: ds.map_batches(
        _add_twice, batch_format="pyarrow").materialize(),
}


@pytest.mark.parametrize("kind", sorted(_UNLOWERABLE) + ["from_items"])
def test_unlowerable_plans_drain(kind, tmp_path, monkeypatch):
    """Every plan the lowering does not take still drains through Ray
    Data and gives the one-pass rows."""
    import pandas as pd

    from featurebox_ray.stages.partition import _read_and_maps

    rows = _side_rows(300, 23, 0, 12)
    if kind == "from_items":
        ds = ray.data.from_items(rows, override_num_blocks=4).map_batches(
            _add_twice, batch_format="pyarrow")
    else:
        d = _write_parquet(tmp_path / "in", pa.Table.from_pylist(rows), 4)
        ds = _UNLOWERABLE[kind](ray.data.read_parquet(d))
        if kind == "filter":
            rows = [r for r in rows if r["v"] >= 0]
    assert _read_and_maps(ds) is None
    drains = _count_drains(monkeypatch)
    got = partitioned_map(ds, _running_sum, key="k", sort_keys=["k", "ts"],
                          num_partitions=4).to_pandas()
    assert len(drains) == 1
    pd.testing.assert_frame_equal(_sorted_rows(got), _one_pass(rows))
    assert (got["v2"] == got["v"] * 2).all()


@pytest.mark.parametrize("files", [1, 2])
def test_fewer_files_than_blocks_drain(files, tmp_path, monkeypatch):
    """A read with fewer read tasks than requested blocks -- one file at
    ``override_num_blocks=8`` -- is not lowered: Ray Data splits each
    read task's output into several blocks and maps them in parallel,
    so the input drains and gives the one-pass rows."""
    import pandas as pd

    from featurebox_ray.stages.partition import _read_and_maps

    rows = _side_rows(300, 23, 0, 12)
    d = _write_parquet(tmp_path / "in", pa.Table.from_pylist(rows), files)
    ds = ray.data.read_parquet(d, override_num_blocks=8).map_batches(
        _add_twice, batch_format="pyarrow", batch_size=None)
    assert _read_and_maps(ds) is None
    drains = _count_drains(monkeypatch)
    got = partitioned_map(ds, _running_sum, key="k", sort_keys=["k", "ts"],
                          num_partitions=4).to_pandas()
    assert len(drains) == 1
    pd.testing.assert_frame_equal(_sorted_rows(got), _one_pass(rows))
    assert (got["v2"] == got["v"] * 2).all()


@pytest.mark.parametrize("blocks", [1, 8])
@pytest.mark.parametrize("num_partitions", [1, 8])
def test_lowered_equals_drained(num_partitions, blocks, tmp_path,
                                monkeypatch):
    """A lowered input gives the drain's gathers row for row, in order:
    read tasks that yield several tables (small row groups; one read
    task over eight files), a generator stage, ties on every sort key
    kept in block order.  A zero-row parquet input reaches every
    gather as an empty table in its file schema."""
    from featurebox_ray.stages import partition

    rng = np.random.default_rng(15)
    n = 400
    left = pa.table({"k": pa.array(rng.integers(0, 29, n), pa.int64()),
                     "ts": pa.array(rng.integers(0, 40, n), pa.int64()),
                     "v": pa.array(np.arange(n), pa.int64())})
    ld = _write_parquet(tmp_path / "left", left, 8, row_group_size=16)
    zero = pa.schema([("k", pa.int64()), ("w", pa.string())])
    rd = _write_parquet(tmp_path / "right", zero.empty_table(), 2)

    def inputs():
        ds = ray.data.read_parquet(ld, override_num_blocks=blocks)
        for fn in (_add_twice, _halves):
            ds = ds.map_batches(fn, batch_format="pyarrow", batch_size=None)
        return [ds, ray.data.read_parquet(rd, override_num_blocks=2)]

    read_tasks, _ = partition._read_and_maps(inputs()[0])
    assert len(read_tasks) == blocks
    assert len(list(read_tasks[0]())) > 1

    def gathers(kernel):
        return ray.get(partition.task_exchange(
            inputs(), kernel, key="k", sort_keys=[["k", "ts"], ["k"]],
            num_partitions=num_partitions))

    def left_rows(p, ts):
        return ts[0]

    lowered = gathers(left_rows)
    rights = gathers(lambda p, ts: ts[1])
    monkeypatch.setattr(partition, "_read_and_maps", lambda ds: None)
    drained = gathers(left_rows)
    assert len(lowered) == len(drained) == num_partitions
    for a, b in zip(lowered, drained):
        assert a.equals(b)
    assert sum(t.num_rows for t in lowered) == n
    assert all(t.num_rows == 0 and t.schema.remove_metadata() == zero
               for t in rights)


def test_stage_error_in_lowered_split_keeps_its_type(tmp_path):
    """A stage function that raises inside a lowered split surfaces with
    its own exception type and message, and a missing key still raises
    the split's ``KeyError``."""
    from featurebox_ray.stages.partition import _read_and_maps

    d = _write_parquet(tmp_path / "in",
                       pa.Table.from_pylist(_side_rows(40, 5, 0, 3)), 2)

    def bad_stage(t: pa.Table) -> pa.Table:
        raise LookupError(f"stage refused {t.num_rows} rows")

    ds = ray.data.read_parquet(d, override_num_blocks=2).map_batches(
        bad_stage, batch_format="pyarrow")
    assert _read_and_maps(ds) is not None
    with pytest.raises(LookupError, match="stage refused 20 rows"):
        partitioned_map(ds, _running_sum, key="k", sort_keys=["k", "ts"],
                        num_partitions=3)
    with pytest.raises(KeyError, match="'kk' missing"):
        partitioned_map(ray.data.read_parquet(d), _running_sum, key="kk",
                        sort_keys=["k"], num_partitions=3)


@pytest.mark.parametrize("exc", [ValueError, AttributeError])
@pytest.mark.parametrize("consumer", ["materialized_block_refs",
                                      "partitioned_map", "partitioned_refs",
                                      "chained"])
def test_stage_error_in_drained_input_keeps_its_type(exc, consumer,
                                                     tmp_path):
    """A stage that raises in a drained map (one file read at 8 blocks,
    so not lowered) surfaces with its own type and message, both under
    ``materialized_block_refs`` and through the exchange, whether its
    refs are fetched or passed on to a second exchange as one input,
    and the upstream runs once: nothing catches the error and re-runs
    the plan."""
    from featurebox_ray.stages.partition import (_read_and_maps,
                                                 materialized_block_refs,
                                                 partitioned_refs)

    d = _write_parquet(tmp_path / "in",
                       pa.Table.from_pylist(_side_rows(400, 7, 0, 5)), 1)
    marker = str(tmp_path / "raised")

    def refuse_ts_13(t: pa.Table) -> pa.Table:
        if 13 in t["ts"].to_pylist():
            with open(marker, "a") as f:
                f.write("x")
            raise exc("stage refused ts 13")
        return t

    ds = ray.data.read_parquet(d, override_num_blocks=8).map_batches(
        refuse_ts_13, batch_format="pyarrow", batch_size=None)
    assert _read_and_maps(ds) is None
    with pytest.raises(exc, match="stage refused ts 13"):
        if consumer == "materialized_block_refs":
            materialized_block_refs(ds)
        elif consumer == "partitioned_map":
            partitioned_map(ds, _running_sum, key="k",
                            sort_keys=["k", "ts"], num_partitions=3)
        else:
            refs = partitioned_refs(ds, _running_sum, key="k",
                                    sort_keys=["k", "ts"], num_partitions=3)
            if consumer == "partitioned_refs":
                ray.get(refs)
            else:
                partitioned_map([refs], _running_sum, key="k",
                                sort_keys=["k", "ts"], num_partitions=2)
    with open(marker) as f:
        assert f.read() == "x"


@pytest.mark.parametrize("consumer", ["partitioned_refs", "chained"])
def test_kernel_error_through_refs_keeps_its_type(consumer):
    """A kernel that refuses its partition surfaces as its own type
    with its message when its refs are fetched, and when a second
    exchange takes those refs as its one input (``[refs]``)."""
    from featurebox_ray.stages.partition import partitioned_refs

    def refuse_key_3(t: pa.Table) -> pa.Table:
        if 3 in t["k"].to_pylist():
            raise ValueError("kernel refused key 3")
        return _running_sum(t)

    ds = ray.data.from_arrow(pa.Table.from_pylist(_side_rows(200, 7, 0, 2)))
    refs = partitioned_refs(ds, refuse_key_3, key="k", sort_keys=["k", "ts"],
                            num_partitions=3)
    with pytest.raises(ValueError, match="kernel refused key 3"):
        if consumer == "partitioned_refs":
            ray.get(refs)
        else:
            partitioned_map([refs], _running_sum, key="k",
                            sort_keys=["k", "ts"], num_partitions=2)
