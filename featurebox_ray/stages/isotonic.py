"""Isotonic (PAV) calibration — fit a monotone step function of a
target on a score column (the classic probability-calibration /
monotone-binning stage: calibrate model scores, enforce monotone
feature transforms).

Physical plan: the stream reduces to EXACT sufficient statistics per
distinct quantized score — per-block ``(x, n, sum_y)`` int64 partials,
ONE x-keyed exchange to finish the sums (bytes moved = distinct scores
× blocks, never rows) — then pool-adjacent-violators runs on the
driver over the tiny distinct-score table.  PAV's merge decision
compares pooled means ``S_i/n_i ≥ S_j/n_j`` by integer
cross-multiplication (``S_i·n_j ≥ S_j·n_i`` in unbounded Python ints),
so the fit is EXACT — the only float in the whole operator is the
final ``double(S)/double(n)`` per pooled block, one IEEE division.

Inputs are quantized up front (``x`` by ``x_scale``, ``y`` by
``y_scale`` — the q01/q115 money-cents pattern: ``round(v·scale)`` to
int64), which both bounds the distinct-score cardinality the driver
sees and keeps every aggregate order-independent.  Rows with NULL
x/y drop.  ``increasing=False`` fits a non-increasing function by
running the pool in reverse x order.

No SQL oracle — PAV's sequential pooling is not expressible as a
window function; the q154 fixture replays the identical integer
algorithm serially from raw rows.

Reference analog: none (the reference calibrates nothing); this is
the standard sklearn ``IsotonicRegression`` capability re-expressed
as a distributed sufficient-statistics aggregate + driver solve,
like `selection/` drivers do for CV scores.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .partition import partitioned_refs


def pav_pool(xs, ns, ss, *, increasing: bool = True):
    """Pool-adjacent-violators over pre-aggregated ``(x, n, sum_y)``
    rows sorted by x ascending.  Pure-Python unbounded ints; returns
    parallel lists ``(pool_id per input row, pooled n, pooled sum)``.
    Shared by the engine and the serial replay."""
    if not increasing:
        # fit non-increasing by reversing the x order
        xs, ns, ss = xs[::-1], ns[::-1], ss[::-1]
    blocks: list = []  # [start_idx, n, s]
    for i in range(len(xs)):
        blocks.append([i, int(ns[i]), int(ss[i])])
        # merge while mean(prev) > mean(last): s1/n1 > s2/n2
        while (len(blocks) >= 2
               and blocks[-2][2] * blocks[-1][1]
               > blocks[-1][2] * blocks[-2][1]):
            b = blocks.pop()
            blocks[-1][1] += b[1]
            blocks[-1][2] += b[2]
    pool_id = np.empty(len(xs), np.int64)
    pool_n = np.empty(len(xs), np.int64)
    pool_s = np.empty(len(xs), object)
    for j, (start, n, s) in enumerate(blocks):
        end = blocks[j + 1][0] if j + 1 < len(blocks) else len(xs)
        pool_id[start:end] = j
        pool_n[start:end] = n
        pool_s[start:end] = s
    if not increasing:
        pool_id = (len(blocks) - 1 - pool_id)[::-1]
        pool_n = pool_n[::-1]
        pool_s = pool_s[::-1]
    return pool_id, pool_n, pool_s


def isotonic_fit(ds, *, x_col: str, y_col: str, x_scale: float = 1,
                 y_scale: float = 1, increasing: bool = True,
                 num_partitions: int = 8) -> pa.Table:
    """Fit the isotonic step function.  Returns a small ``pa.Table``
    with one row per distinct quantized x: ``(x:int64, n:int64,
    sum_y:int64, pool:int64, fitted:float64)`` where ``fitted`` is the
    pooled mean ``double(pool_sum)/double(pool_n)`` (in y-quantized
    units)."""
    def partial(batch: pa.Table) -> pa.Table:
        xc, yc = batch[x_col], batch[y_col]
        keep = pc.and_(pc.is_valid(xc), pc.is_valid(yc))
        if not pc.all(keep).as_py():
            batch = batch.filter(keep)
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(
            np.float64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(
            np.float64)
        xq = np.round(x * x_scale).astype(np.int64)
        yq = np.round(y * y_scale).astype(np.int64)
        u, inv = np.unique(xq, return_inverse=True)
        n = np.bincount(inv, minlength=len(u)).astype(np.int64)
        s = np.zeros(len(u), np.int64)
        np.add.at(s, inv, yq)
        return pa.table({"x": pa.array(u), "n": pa.array(n),
                         "sum_y": pa.array(s)})

    def combine(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(x, return_inverse=True)
        n = np.zeros(len(u), np.int64)
        s = np.zeros(len(u), np.int64)
        np.add.at(n, inv, t["n"].to_numpy(zero_copy_only=False))
        np.add.at(s, inv, t["sum_y"].to_numpy(zero_copy_only=False))
        return pa.table({"x": pa.array(u), "n": pa.array(n),
                         "sum_y": pa.array(s)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    agg = partitioned_refs(partials, combine, key="x",
                           sort_keys=["x"],
                           num_partitions=num_partitions)
    blocks = [b for b in ray.get(agg) if b.num_rows > 0]
    if not blocks:
        return pa.table({"x": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64()),
                         "sum_y": pa.array([], pa.int64()),
                         "pool": pa.array([], pa.int64()),
                         "fitted": pa.array([], pa.float64())})
    t = pa.concat_tables(blocks, promote_options="default")
    x = t["x"].to_numpy(zero_copy_only=False)
    order = np.argsort(x, kind="stable")
    x = x[order]
    n = t["n"].to_numpy(zero_copy_only=False)[order]
    s = t["sum_y"].to_numpy(zero_copy_only=False)[order]
    pool_id, pool_n, pool_s = pav_pool(x, n, s, increasing=increasing)
    fitted = np.array([float(np.float64(int(ps)) / np.float64(int(pn)))
                       for ps, pn in zip(pool_s, pool_n)], np.float64)
    return pa.table({"x": pa.array(x), "n": pa.array(n),
                     "sum_y": pa.array(s),
                     "pool": pa.array(pool_id),
                     "fitted": pa.array(fitted)})
