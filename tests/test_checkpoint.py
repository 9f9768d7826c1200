"""Checkpoint/resume determinism (FIXTURES F5.4)."""

import datetime
import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages.scalar import add_scalar_features
from featurebox_ray.stages.window import WindowSpec, window_kernel
from featurebox_ray.state.checkpoint import (
    HASH_SCHEME, _feature_hash, finished_partitions,
    run_partitioned_checkpointed)

UTC = datetime.timezone.utc


def _mkds(d):
    return add_scalar_features(ray.data.read_parquet(f"{d}/transcripts"))


def _run(d, out):
    spec = WindowSpec()
    return run_partitioned_checkpointed(
        _mkds(d), lambda t: window_kernel(t, spec), out,
        key="conv_id", sort_keys=["conv_id", "ts", "turn_idx"],
        num_partitions=8, input_desc="test")


def test_kill_resume_byte_identical(tiny_dir, tmp_path):
    out = str(tmp_path / "ckpt")
    m1 = _run(tiny_dir, out)
    assert len(m1) == 8
    h1 = {m["partition"]: m["feature_hash"] for m in m1}
    total1 = sum(m["rows"] for m in m1)

    # simulated crash: drop 3 partitions
    for pid in (1, 4, 6):
        for f in glob.glob(f"{out}/part-{pid:05d}.parquet") + glob.glob(
                f"{out}/_manifest/part-{pid:05d}.json"):
            os.remove(f)
    assert len(finished_partitions(out)) == 5

    m2 = _run(tiny_dir, out)
    h2 = {m["partition"]: m["feature_hash"] for m in m2}
    assert h1 == h2  # byte-stable resume
    assert sum(m["rows"] for m in m2) == total1
    back = ray.data.read_parquet(out, file_extensions=["parquet"])
    assert back.count() == total1


def test_block_layout_invariance(tiny_dir, tmp_path):
    """Per-partition output does not depend on how the input is cut into
    blocks: one block and eight blocks give the same rows and
    feature_hash for every partition."""
    spec = WindowSpec()
    got = {}
    for blocks in (1, 8):
        ds = ray.data.read_parquet(f"{tiny_dir}/transcripts",
                                   override_num_blocks=blocks).materialize()
        assert ds.num_blocks() == blocks
        ms = run_partitioned_checkpointed(
            add_scalar_features(ds), lambda t: window_kernel(t, spec),
            str(tmp_path / f"ckpt-b{blocks}"), key="conv_id",
            sort_keys=["conv_id", "ts", "turn_idx"], num_partitions=8,
            input_desc="test")
        got[blocks] = {m["partition"]: (m["rows"], m["feature_hash"])
                       for m in ms}
    assert len(got[1]) == 8
    assert sum(r for r, _ in got[1].values()) > 0
    assert got[1] == got[8]


def test_misspelled_key_raises_and_writes_no_part_manifests(tiny_dir,
                                                            tmp_path):
    """A partition key absent from non-empty input blocks is refused, not
    read as empty input: no partition may be recorded as finished."""
    out = str(tmp_path / "ckpt")
    spec = WindowSpec()
    with pytest.raises(KeyError, match="conv_idd"):
        run_partitioned_checkpointed(
            _mkds(tiny_dir), lambda t: window_kernel(t, spec), out,
            key="conv_idd", sort_keys=["conv_id", "ts", "turn_idx"],
            num_partitions=8, input_desc="test")
    assert finished_partitions(out) == set()
    assert not glob.glob(f"{out}/_manifest/part-*.json")
    assert not glob.glob(f"{out}/part-*.parquet")


def test_manifest_invalidated_by_row_mismatch(tiny_dir, tmp_path):
    out = str(tmp_path / "ckpt2")
    _run(tiny_dir, out)
    # corrupt one partition file (truncate) -> manifest row-count check fails
    target = sorted(glob.glob(f"{out}/part-*.parquet"))[0]
    import pyarrow.parquet as pq

    t = pq.read_table(target)
    pq.write_table(t.slice(0, max(1, t.num_rows // 2)), target)
    done = finished_partitions(out)
    assert len(done) == 7  # corrupted partition no longer counts as finished


def test_param_change_invalidates_stale_layout(tiny_dir, tmp_path):
    """Re-running with a different num_partitions must NOT mix partitions
    bucketed under the old layout with new ones (ADVICE: stale crc32 % P
    buckets silently duplicate/drop rows)."""
    out = str(tmp_path / "ckpt3")
    m1 = _run(tiny_dir, out)
    total = sum(m["rows"] for m in m1)

    spec = WindowSpec()
    m2 = run_partitioned_checkpointed(
        _mkds(tiny_dir), lambda t: window_kernel(t, spec), out,
        key="conv_id", sort_keys=["conv_id", "ts", "turn_idx"],
        num_partitions=4, input_desc="test")
    assert len(m2) == 4  # old 8-way parts were invalidated, not merged
    assert sum(m["rows"] for m in m2) == total
    back = ray.data.read_parquet(out, file_extensions=["parquet"])
    assert back.count() == total


def test_fragment_level_resume_prunes_input(tiny_dir, tmp_path):
    """Resume over a same-layout partitioned input reads only the files of
    missing partitions."""
    from featurebox_ray.state.checkpoint import partitioned_input_files

    stage1 = str(tmp_path / "stage1")
    spec = WindowSpec()
    run_partitioned_checkpointed(
        _mkds(tiny_dir), lambda t: window_kernel(t, spec), stage1,
        key="conv_id", sort_keys=["conv_id", "ts", "turn_idx"],
        num_partitions=8, input_desc="test")

    stage2 = str(tmp_path / "stage2")
    ident = lambda t: t
    m1 = run_partitioned_checkpointed(
        None, ident, stage2, key="conv_id",
        sort_keys=["conv_id", "ts", "turn_idx"], num_partitions=8,
        input_desc="stage1", input_partitioned_dir=stage1)
    total = sum(m["rows"] for m in m1)
    assert len(m1) == 8

    # crash: drop partitions 2 and 5 from stage2
    for pid in (2, 5):
        os.remove(f"{stage2}/part-{pid:05d}.parquet")
        os.remove(f"{stage2}/_manifest/part-{pid:05d}.json")

    # the prune helper selects exactly the 2 missing files
    files = partitioned_input_files(stage1, [2, 5])
    assert [os.path.basename(f) for f in files] == [
        "part-00002.parquet", "part-00005.parquet"]

    m2 = run_partitioned_checkpointed(
        None, ident, stage2, key="conv_id",
        sort_keys=["conv_id", "ts", "turn_idx"], num_partitions=8,
        input_desc="stage1", input_partitioned_dir=stage1)
    assert sum(m["rows"] for m in m2) == total
    assert {m["partition"] for m in m2} == set(range(8))


def test_empty_partitions_recorded_and_resume_is_idempotent(tiny_dir, tmp_path):
    """Partitions with zero input rows get zero-row manifests at run
    completion, so (a) a completed run's resume is a no-op even with a
    partitioned input, (b) finished_partitions reports the full layout."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from featurebox_ray.state.checkpoint import finished_partitions

    # single-conversation input: with 8 partitions, 7 hash empty
    src = str(tmp_path / "src")
    os.makedirs(src, exist_ok=True)
    n = 50
    pq.write_table(pa.table({
        "conv_id": pa.array(["only_conv"] * n),
        "turn_idx": pa.array(list(range(n))),
        "ts": pa.array([float(i) for i in range(n)]),
        "text_len": pa.array([1.0] * n),
    }), f"{src}/part-00000.parquet")

    out = str(tmp_path / "out")
    ident = lambda t: t
    m1 = run_partitioned_checkpointed(
        ray.data.read_parquet(src), ident, out, key="conv_id",
        sort_keys=["conv_id", "ts"], num_partitions=8, input_desc="one")
    assert len(m1) == 8  # 1 data + 7 recorded-empty
    assert sum(1 for m in m1 if m["rows"] > 0) == 1
    assert finished_partitions(out) == set(range(8))

    # re-invocation with a partitioned input dir whose only part file is
    # already done: must be a clean no-op, not FileNotFoundError
    out2 = str(tmp_path / "out2")
    m2 = run_partitioned_checkpointed(
        None, ident, out2, key="conv_id", sort_keys=["conv_id", "ts"],
        num_partitions=8, input_desc="chained", input_partitioned_dir=out)
    m3 = run_partitioned_checkpointed(
        None, ident, out2, key="conv_id", sort_keys=["conv_id", "ts"],
        num_partitions=8, input_desc="chained", input_partitioned_dir=out)
    assert sum(m["rows"] for m in m3) == sum(m["rows"] for m in m2) == n


def test_resume_classifies_upstream_empty_partitions(tiny_dir, tmp_path):
    """Wedge regression: a downstream resume whose only missing
    partitions are upstream-recorded-empty must complete (classify them
    empty), not raise FileNotFoundError forever."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = str(tmp_path / "src")
    os.makedirs(src, exist_ok=True)
    pq.write_table(pa.table({
        "conv_id": pa.array(["c"] * 20),
        "turn_idx": pa.array(list(range(20))),
        "ts": pa.array([float(i) for i in range(20)]),
    }), f"{src}/part-00000.parquet")

    up = str(tmp_path / "up")
    ident = lambda t: t
    run_partitioned_checkpointed(
        ray.data.read_parquet(src), ident, up, key="conv_id",
        sort_keys=["conv_id", "ts"], num_partitions=4, input_desc="src")

    down = str(tmp_path / "down")
    run_partitioned_checkpointed(
        None, ident, down, key="conv_id", sort_keys=["conv_id", "ts"],
        num_partitions=4, input_desc="up", input_partitioned_dir=up)
    # crash simulation: drop the manifest of an upstream-EMPTY partition
    empties = [p for p in range(4)
               if not os.path.exists(f"{up}/part-{p:05d}.parquet")]
    assert empties  # single conv -> 3 empty partitions
    os.remove(f"{down}/_manifest/part-{empties[0]:05d}.json")
    m = run_partitioned_checkpointed(
        None, ident, down, key="conv_id", sort_keys=["conv_id", "ts"],
        num_partitions=4, input_desc="up", input_partitioned_dir=up)
    assert {mm["partition"] for mm in m} == set(range(4))
    assert sum(mm["rows"] for mm in m) == 20


def test_unfinished_upstream_raises_not_silent_loss(tiny_dir, tmp_path):
    """A downstream resume over a PARTIALLY-finished upstream checkpoint
    must fail loudly: recording the upstream's unfinished partitions as
    empty would be permanent silent data loss."""
    up = str(tmp_path / "up")
    down = str(tmp_path / "down")
    _run(tiny_dir, up)
    # simulate an upstream crash: partitions 2 and 5 unfinished
    for pid in (2, 5):
        for f in glob.glob(f"{up}/part-{pid:05d}.parquet") + glob.glob(
                f"{up}/_manifest/part-{pid:05d}.json"):
            os.remove(f)

    spec = WindowSpec()
    with pytest.raises(FileNotFoundError, match="not finished"):
        run_partitioned_checkpointed(
            _mkds(tiny_dir), lambda t: window_kernel(t, spec), down,
            key="conv_id", sort_keys=["conv_id", "ts", "turn_idx"],
            num_partitions=8, input_desc="test",
            input_partitioned_dir=up)
    # no manifest may claim a partition finished after the refusal
    assert not any(m for m in finished_partitions(down)
                   if m in (2, 5)) or not os.path.isdir(down)


def test_kernel_id_change_invalidates(tiny_dir, tmp_path):
    """Same layout + different kernel_id => stale partitions invalidated
    (old-kernel and new-kernel outputs never mix in one directory)."""
    out = str(tmp_path / "ckpt")
    spec = WindowSpec()

    def go(kid, kern):
        return run_partitioned_checkpointed(
            _mkds(tiny_dir), kern, out,
            key="conv_id", sort_keys=["conv_id", "ts", "turn_idx"],
            num_partitions=8, input_desc="test", kernel_id=kid)

    m1 = go("spec-v1", lambda t: window_kernel(t, spec))
    cols1 = set(m1[0]["columns"])

    def kern2(t):
        out_t = window_kernel(t, spec)
        import pyarrow as pa
        return out_t.append_column("extra", pa.nulls(out_t.num_rows))

    m2 = go("spec-v2", kern2)
    assert all("extra" in m["columns"] for m in m2 if m["rows"])
    assert cols1 != set(m2[0]["columns"]) or not m2[0]["rows"]


def _typed_table():
    """One column of every scalar type the feature hash reads by buffer,
    with NULLs, a NaN and a -0.0."""
    n = 12
    ts = [datetime.datetime(2024, 1, 1, tzinfo=UTC)
          + datetime.timedelta(seconds=7 * i) for i in range(n)]
    return pa.table({
        "s": pa.array([f"v{i % 5}" if i % 4 else None for i in range(n)]),
        "ls": pa.array([f"w{i}" * (i % 3) for i in range(n)],
                       pa.large_string()),
        "d": pa.array([["x", "y", None][i % 3] for i in range(n)]
                      ).dictionary_encode(),
        "i": pa.array([i * 3 if i % 5 else None for i in range(n)],
                      pa.int64()),
        "f": pa.array([float("nan") if i == 2 else -0.0 if i == 3
                       else i / 4 for i in range(n)]),
        "t": pa.array(ts, pa.timestamp("us", tz="UTC")),
        "b": pa.array([bool(i % 2) if i % 6 else None for i in range(n)]),
    })


def test_feature_hash_is_order_insensitive_and_pinned():
    """A shuffled partition hashes the same, and the hash of a fixed
    table is a fixed string (no process- or host-dependent input)."""
    t = _typed_table()
    h = _feature_hash(t)
    rng = np.random.default_rng(5)
    for _ in range(3):
        assert _feature_hash(t.take(rng.permutation(t.num_rows))) == h
    # column order and chunking do not count either
    assert _feature_hash(t.select(t.column_names[::-1])) == h
    assert _feature_hash(pa.concat_tables([t.slice(0, 5), t.slice(5)])) == h
    assert h == "192b730a67f52c98d34d096aa4082909139dccf6"


@pytest.mark.parametrize("col,new", [
    ("s", "v9"), ("ls", "zz"), ("d", "x"), ("d", None), ("i", 4),
    ("f", 0.3), ("f", float("inf")),
    ("t", datetime.datetime(2000, 1, 1, tzinfo=UTC)), ("b", False)])
def test_feature_hash_changes_with_one_value(col, new):
    """Changing one value of any column type changes the hash; a NaN
    changed to a number does too."""
    t = _typed_table()
    row = 2 if col == "f" else 7
    typ = t.schema.field(col).type
    values = t[col].to_pylist()
    assert values[row] != new
    values[row] = new
    if col == "d":
        arr = pa.array(values).dictionary_encode()
    else:
        arr = pa.array(values, typ)
    changed = t.set_column(t.schema.get_field_index(col), col, arr)
    assert _feature_hash(changed) != _feature_hash(t)


def test_feature_hash_null_empty_and_zero_differ():
    """A NULL, "" and 0 hash differently, within one type and across."""
    tables = [pa.table({"c": pa.array([None], pa.string())}),
              pa.table({"c": pa.array([""], pa.string())}),
              pa.table({"c": pa.array([None], pa.int64())}),
              pa.table({"c": pa.array([0], pa.int64())}),
              pa.table({"c": pa.array([None])}),
              pa.table({"c": pa.array(["0"])})]
    assert len({_feature_hash(t) for t in tables}) == len(tables)


def test_feature_hash_nested_columns():
    """List and struct columns hash; rows tied on every scalar column
    that differ only in a nested column hash the same in any order, and
    the nested values count."""
    t = pa.table({
        "k": pa.array([1, 1, 1, 1, 2, 3, 3], pa.int64()),
        "l": pa.array([[1, 2], [2, 1], None, [], [3], [5], [5]]),
        "st": pa.array([{"a": 1, "b": "x"}] * 5
                       + [None, {"a": None, "b": None}]),
    })
    h = _feature_hash(t)
    rng = np.random.default_rng(9)
    for _ in range(4):
        assert _feature_hash(t.take(rng.permutation(t.num_rows))) == h
    other = t.set_column(1, "l", pa.array(
        [[1, 2], [2, 2], None, [], [3], [5], [5]]))
    assert _feature_hash(other) != h
    other = t.set_column(2, "st", pa.array(
        [{"a": 1, "b": "x"}] * 5 + [{"a": None, "b": None}] * 2))
    assert _feature_hash(other) != h


def test_feature_hash_empty_tables():
    empty = _typed_table().slice(0, 0)
    assert _feature_hash(empty) != _feature_hash(pa.table({}))
    assert _feature_hash(empty) == _feature_hash(
        _typed_table().filter(pa.array([False] * 12)))


def test_manifest_metrics_and_hash_scheme(tiny_dir, tmp_path):
    """Every manifest names its hash scheme; the gathers' rows_in sum to
    the input's row count; bytes is the part file's size."""
    out = str(tmp_path / "ckpt")
    spec = WindowSpec()
    # 100 conversations over 128 partitions: some partitions are empty
    ms = run_partitioned_checkpointed(
        _mkds(tiny_dir), lambda t: window_kernel(t, spec), out,
        key="conv_id", sort_keys=["conv_id", "ts", "turn_idx"],
        num_partitions=128, input_desc="test")
    assert len(ms) == 128
    assert all(m["hash"] == HASH_SCHEME for m in ms)
    assert sum(m["rows_in"] for m in ms) == _mkds(tiny_dir).count()
    empty = [m for m in ms if m["file"] is None]
    assert empty and all(m["rows_in"] == m["bytes"] == 0 for m in empty)
    for m in ms:
        if m["file"] is not None:
            assert m["bytes"] == os.path.getsize(os.path.join(out, m["file"]))
            assert m["rows_in"] == m["rows"] > 0
            assert m["wall_s"] > 0
