"""Streaming consumption patterns — how a 100 TB run DRAINS the engine
without ever materializing a Dataset.

Everything upstream (featurization, windows, as-of) is lazy; these helpers
are the terminal consumers the task brief calls out: ``iter_batches`` with
bounded prefetch (training-loop feeding), and partitioned parquet sinks
(resumable output).  Use them instead of ``take_all()`` / ``to_pandas()``
on large results.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import pyarrow as pa


def iter_feature_batches(ds, *, batch_size: int = 4096,
                         columns: Optional[Sequence[str]] = None,
                         prefetch_batches: int = 2) -> Iterator[pa.Table]:
    """Stream a feature Dataset as zero-copy Arrow batches with bounded
    prefetch — the training-loop feed path.  Backpressure: only
    ``prefetch_batches`` batches are in flight, so the upstream streaming
    executor never runs ahead of the consumer."""
    if columns:
        # push the projection into the Dataset so Ray prunes upstream —
        # driver-side select() would ship every column to the consumer
        # before dropping it
        ds = ds.select_columns(list(columns))
    yield from ds.iter_batches(batch_size=batch_size,
                               batch_format="pyarrow",
                               prefetch_batches=prefetch_batches)
