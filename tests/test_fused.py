"""Fused single-shuffle flagship must equal the staged pipeline."""

import numpy as np
import ray

from featurebox_ray.pipelines.transcript import fused_features_backfill
from featurebox_ray.stages.asof import asof_join
from featurebox_ray.stages.scalar import add_scalar_features
from featurebox_ray.stages.window import WindowSpec, add_window_features


def test_fused_equals_staged(tiny_dir):
    base = add_scalar_features(ray.data.read_parquet(f"{tiny_dir}/transcripts"))
    ft = ray.data.read_parquet(f"{tiny_dir}/feature_table")

    staged = add_window_features(base, WindowSpec(), num_partitions=8)
    staged = asof_join(staged, ft, key="conv_id", ts_col="ts",
                       right_cols=["f_score", "f_label"], num_partitions=8)
    a = staged.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    fused = fused_features_backfill(
        base, ft, WindowSpec(), right_cols=["f_score", "f_label"],
        num_partitions=8)
    b = fused.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    assert len(a) == len(b)
    assert sorted(a.columns) == sorted(b.columns)
    for c in a.columns:
        if a[c].dtype == object or str(a[c].dtype).startswith("datetime"):
            assert (a[c].fillna("∅").values == b[c].fillna("∅").values).all(), c
        elif a[c].dtype == bool:
            assert (a[c].values == b[c].values).all(), c
        else:
            assert np.allclose(a[c].astype(float).values,
                               b[c].astype(float).values, equal_nan=True), c


def test_fused_left_schema_fast_path(tiny_dir):
    """Passing a locally-probed left_schema (the bench fast path that
    skips the ds.schema() block execution) must produce identical
    output to the default schema-probing path."""
    import pyarrow.dataset as pads
    import pyarrow as pa

    from featurebox_ray.stages.scalar import turn_scalar_features

    base = add_scalar_features(ray.data.read_parquet(f"{tiny_dir}/transcripts"))
    ft = ray.data.read_parquet(f"{tiny_dir}/feature_table")

    probe = next(pads.dataset(f"{tiny_dir}/transcripts").to_batches(batch_size=1))
    schema = turn_scalar_features(
        pa.Table.from_batches([probe.slice(0, 1)])).schema

    a = fused_features_backfill(
        base, ft, WindowSpec(), right_cols=["f_score", "f_label"],
        num_partitions=8).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    b = fused_features_backfill(
        base, ft, WindowSpec(), right_cols=["f_score", "f_label"],
        num_partitions=8, left_schema=schema).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    assert list(a.columns) == list(b.columns)
    for c in a.columns:
        assert (a[c].fillna("∅").values == b[c].fillna("∅").values).all(), c


def test_null_ts_refused_with_count(tiny_dir):
    """A NULL left ts is refused by the window kernel with a ValueError
    that names the ts column and the NULL count, in the windowed stage
    and in the fused flagship kernel alike."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pytest

    t = ray.data.read_parquet(f"{tiny_dir}/transcripts").to_arrow_refs()
    t = pa.concat_tables(ray.get(t))
    conv = t["conv_id"].to_pylist()[0]
    hit = pc.equal(t["conv_id"], conv).to_numpy(zero_copy_only=False)
    hit &= np.cumsum(hit) <= 2                  # two rows of one key
    ts = pc.if_else(pa.array(hit), pa.nulls(t.num_rows, t["ts"].type),
                    t["ts"])
    base = add_scalar_features(ray.data.from_arrow(
        t.set_column(t.schema.get_field_index("ts"), "ts", ts)))
    ft = ray.data.read_parquet(f"{tiny_dir}/feature_table")
    with pytest.raises(ValueError, match="2 NULL 'ts' value"):
        add_window_features(base, WindowSpec(), num_partitions=4)
    with pytest.raises(ValueError, match="2 NULL 'ts' value"):
        fused_features_backfill(base, ft, WindowSpec(),
                                right_cols=["f_score", "f_label"],
                                num_partitions=4)
