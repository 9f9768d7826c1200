"""Broadcast dimension-table lookup featurizers — the Ray translation of the
reference's composition featurizers (one small property table broadcast to
every worker, per-record weighted pooling over looked-up rows):

* ``WeightedAverage/Sum/GeometricMean/HarmonicMean/WeightedVariance/
  Max/MinPooling`` (featurebox/featurizers/compositionfeaturizer.py:53-298)
  → :class:`PooledLookupFeaturizer` pooling over a trailing window of keys;
* ``DepartElementFeaturizer`` (compositionfeaturizer.py:341-384, un-pooled
  per-element property concat) → :class:`DepartLookup` appending the raw
  property row of each row's key;
* ``ExtraMix`` (compositionfeaturizer.py:301-338) name-dispatched stats →
  ``stats=("mean", "std_dev", ...)`` using :mod:`..functions.propstats`.

The dim table is put in the object store ONCE (``ray.put``) and read by each
actor in ``__init__`` — never re-shipped per batch.  Lookup is vectorized:
dictionary-encode the key column, ``np.take`` the property matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions import propstats


class BroadcastTable:
    """Small dim table as (key -> row index) dict + dense float matrix."""

    def __init__(self, table: pa.Table, key_col: str = "key"):
        keys = table[key_col].to_pylist()
        self.key_to_row = {k: i for i, k in enumerate(keys)}
        self.prop_cols = [c for c in table.column_names if c != key_col]
        self.matrix = np.column_stack(
            [table[c].to_numpy(zero_copy_only=False).astype(np.float64)
             for c in self.prop_cols]
        )

    def rows_for(self, key_arr: pa.ChunkedArray) -> np.ndarray:
        """(n, n_props) property rows for a key column; unknown keys -> NaN."""
        d = pc.dictionary_encode(key_arr.combine_chunks())
        uniques = d.dictionary.to_pylist()
        lut = np.array(
            [self.key_to_row.get(u, -1) for u in uniques], dtype=np.int64
        )
        if d.null_count:
            # null keys (e.g. tool on non-tool turns) -> NaN rows, like
            # unknown keys; raw to_numpy would yield float NaN indices
            valid = np.asarray(pc.is_valid(d))
            idx = lut[np.asarray(pc.fill_null(d.indices, 0))]
            idx[~valid] = -1
        else:
            idx = lut[d.indices.to_numpy(zero_copy_only=False)]
        out = self.matrix[np.clip(idx, 0, None)]
        out[idx < 0] = np.nan
        return out


class DepartLookup:
    """Per-row un-pooled lookup: append every property column of the row's
    key (e.g. role props + tool props per turn).  Actor-pool stage: pass
    ``ray.put(dim_table)`` object refs; resolved once per actor.

    Mirrors DepartElementFeaturizer's column naming ``{prop}_{source}``
    (compositionfeaturizer.py:384 ``feature_labels``).
    """

    def __init__(self, dim_ref, key_col: str, prefix: str):
        table = ray.get(dim_ref) if not isinstance(dim_ref, pa.Table) else dim_ref
        self.bt = BroadcastTable(table)
        self.key_col = key_col
        self.prefix = prefix

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = self.bt.rows_for(batch[self.key_col])
        for j, p in enumerate(self.bt.prop_cols):
            batch = batch.append_column(
                f"{self.prefix}_{p}", pa.array(rows[:, j])
            )
        return batch


class PooledLookupFeaturizer:
    """Pooled lookup stats over the looked-up property rows of a *window* of
    keys per output row — the windowed generalization of the reference's
    per-compound pooling.  For the flat (per-row) case use stats over the
    single looked-up row via :class:`DepartLookup` + window stage instead.

    Given a batch with a key column and a weight column, computes
    ``stat(prop_matrix[keys], weights)`` per row for each requested stat —
    matching WeightedAverage (w·P / Σw), WeightedSum, GeometricMean,
    HarmonicMean, WeightedVariance, Max/MinPooling semantics when the
    corresponding stat name is used.
    """

    STAT_LABEL = {
        "mean": "ave",          # WeightedAverage 'ave:' prefix
        "sum": "sum",           # WeightedSum
        "holder_mean::0": "gmean",
        "holder_mean::-1": "hmean",
        # WeightedVariance parity ('var:' prefix, compositionfeaturizer
        # .py:196-230) is the VARIANCE w·(x-mean)², not its square root —
        # 'variance' computes it; propstats' std_dev keeps its own label
        "variance": "var",
        "std_dev": "std",
        "maximum": "max",
        "minimum": "min",
    }

    def __init__(self, dim_ref, key_col: str,
                 stats: Sequence[str] = ("mean",)):
        table = ray.get(dim_ref) if not isinstance(dim_ref, pa.Table) else dim_ref
        self.bt = BroadcastTable(table)
        self.key_col = key_col
        self.stats = list(stats)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # per output row the "pool" is the property vector of its key; the
        # stats reduce over the property axis (unweighted — the reference's
        # per-ELEMENT fraction weights have no analog for a single key row;
        # weighted pooling over a window of keys lives in the window stage
        # via rate_cols / rolling means over DepartLookup columns)
        rows = self.bt.rows_for(batch[self.key_col])  # (n, p)
        for stat in self.stats:
            if stat == "variance":  # w·(x-mean)², reference WeightedVariance
                mu = rows.mean(axis=1)
                vals = ((rows - mu[:, None]) ** 2).mean(axis=1)
            else:
                vals = propstats.calc_stat(rows, stat, None)
            label = self.STAT_LABEL.get(stat, stat.replace("::", "_"))
            batch = batch.append_column(
                f"{label}:{self.key_col}", pa.array(np.asarray(vals, dtype=np.float64))
            )
        return batch


def add_depart_lookup(ds, dim_table: pa.Table, *, key_col: str, prefix: str,
                      batch_size: int = 65536, concurrency=(2, 8)):
    """Actor-pool map_batches stage: broadcast ``dim_table`` once via
    ``ray.put``, per-actor rehydrate in ``__init__``."""
    ref = ray.put(dim_table)
    return ds.map_batches(
        DepartLookup,
        fn_constructor_args=(ref, key_col, prefix),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )
