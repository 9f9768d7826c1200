"""Distributed PCA over an embedding column — exact two-pass principal
components at any scale, bit-identical to a serial replay.

The classic scale shape (one pass for sufficient statistics, one pass to
project) with the q57-kmeans exactness trick lifted to second moments:

1. vectors quantize to integers ``Qi = round(x * 2^quant_bits)`` so every
   per-block Gram partial ``Qi^T Qi`` and column sum is INT64-EXACT and
   merges by addition — order-independent under any block structure (the
   float-sum nondeterminism that normally makes distributed PCA
   non-replayable never appears);
2. the d²+d+1 sufficient-statistic cells ride one tiny keyed exchange
   (the shuffle moves O(blocks × d²) cells, never vectors) and a
   driver-side ``eigh`` on the exactly-reconstructed covariance gives
   the components (deterministic: identical float64 covariance both
   sides; sign fixed by making each component's largest-|entry| —
   first index on ties — positive);
3. projection is integer again: ``scores_int = Qi @ round(V * 2^proj_bits)``
   (int64 matmul, exact), so each output score is exactly
   ``scores_int / 2^(s+t) - offset_c`` — two IEEE ops from exact
   integers, replayable with zero rounding tolerance.

Overflow bounds (documented contract): with ``quant_bits=10`` and
|x| ≤ 1, Gram cells stay in int64 up to ~3e13 rows; ``proj_bits=20``
keeps row scores ≤ ~2^36.  Raise dims/rows beyond that → lower the bit
splits.

Reference analog: the reference reduces dimensionality driver-side with
sklearn (e.g. corr_plot/selection preprocessing); this is the
added-for-100-TB distributed counterpart next to k-means
(stages/kmeans.py) and IVF-ANN (stages/ann.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["pca_fit", "pca_fit_transform"]


def _quantized_int(batch: pa.Table, vec_col: str, quant_bits: int
                   ) -> np.ndarray:
    arr = batch[vec_col].combine_chunks()
    if len(arr) == 0:  # reshape(0, -1) raises in numpy
        return np.empty((0, 0), np.int64)
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    x = flat.reshape(len(arr), -1).astype(np.float64)
    return np.round(x * float(1 << quant_bits)).astype(np.int64)


def _proj_params(comps: np.ndarray, cs: np.ndarray, n: int,
                 quant_bits: int, proj_bits: int):
    """The ONE authoritative projection op order (shared by the
    distributed transform, the q92 fixture replay and the tests — the
    bit-identical-oracle claim rests on there being a single copy)."""
    vq = np.round(comps * float(1 << proj_bits)).astype(np.int64)
    denom = float(n) * float(1 << (quant_bits + proj_bits))
    # exact integer numerators in PYTHON ints (an int64 dot could
    # silently wrap at extreme row counts), one division each
    offsets = np.array([
        float(sum(int(a) * int(b) for a, b in zip(cs, vq[:, c]))) / denom
        for c in range(vq.shape[1])])
    scale = float(1 << (quant_bits + proj_bits))
    return vq, offsets, scale


def _project_serial(qi: np.ndarray, cs: np.ndarray, n: int,
                    comps: np.ndarray, quant_bits: int,
                    proj_bits: int) -> np.ndarray:
    """Serial replay of the projection — same arithmetic, zero
    distribution; used by the q92 fixture oracle and tests."""
    vq, offsets, scale = _proj_params(comps, cs, n, quant_bits, proj_bits)
    si = qi @ vq
    return np.column_stack([
        si[:, c].astype(np.float64) / scale - offsets[c]
        for c in range(vq.shape[1])])


def pca_fit(ds, *, vec_col: str = "embedding", n_components: int = 4,
            quant_bits: int = 10, num_partitions: int = 4):
    """Exact sufficient statistics + driver eigh.  Returns
    ``(V: (d, p) float64 components, mean: (d,) float64, n: int,
    colsum: (d,) int64 exact quantized column sums)``."""
    import ray

    from .partition import partitioned_refs

    def partial(b: pa.Table) -> pa.Table:
        qi = _quantized_int(b, vec_col, quant_bits)
        n_b, d = qi.shape
        if n_b == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "val": pa.array([], pa.int64())})
        g = qi.T @ qi                       # int64 exact
        cs = qi.sum(axis=0)                 # int64 exact
        cells = np.concatenate([
            np.arange(d * d, dtype=np.int64),
            d * d + np.arange(d, dtype=np.int64),
            [d * d + d]])
        vals = np.concatenate([g.ravel(), cs, [n_b]])
        return pa.table({"cell": pa.array(cells), "val": pa.array(vals)})

    def combine(t: pa.Table) -> pa.Table:
        cells = t["cell"].to_numpy(zero_copy_only=False)
        vals = t["val"].to_numpy(zero_copy_only=False)
        uc, inv = np.unique(cells, return_inverse=True)
        sums = np.zeros(len(uc), np.int64)
        np.add.at(sums, inv, vals)
        return pa.table({"cell": pa.array(uc), "val": pa.array(sums)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)
    stats = partitioned_refs(partials, combine, key="cell",
                             sort_keys=["cell"],
                             num_partitions=num_partitions)
    blocks = [b for b in ray.get(stats) if b.num_rows > 0]
    if not blocks:
        raise ValueError("pca_fit: empty input")
    st = pa.concat_tables(blocks)
    cells = st["cell"].to_numpy(zero_copy_only=False)
    vals = st["val"].to_numpy(zero_copy_only=False)
    total = int(cells.max()) + 1
    flat = np.zeros(total, np.int64)
    flat[cells] = vals
    # total = d*d + d + 1  ->  d
    d = int(round((-1 + np.sqrt(1 + 4 * (total - 1))) / 2))
    g = flat[:d * d].reshape(d, d)
    cs = flat[d * d:d * d + d]
    n = int(flat[-1])
    if n < 2:
        raise ValueError("pca_fit: need at least 2 rows")
    if n_components > d:
        raise ValueError(f"pca_fit: n_components={n_components} exceeds "
                         f"input dimensionality d={d}")
    comps, mean = _finish_fit(g, cs, n, d, quant_bits, n_components)
    return comps, mean, n, cs


def _finish_fit(g, cs, n, d, quant_bits, n_components):
    """Deterministic driver math from exact integer sufficient stats —
    shared verbatim with the serial replay (fixed op order)."""
    four_s = float(1 << quant_bits) ** 2
    csf = cs.astype(np.float64)
    cov = (g.astype(np.float64) / four_s
           - np.outer(csf, csf) / (float(n) * four_s)) / float(n - 1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(-w, kind="stable")[:n_components]
    comps = v[:, order]
    # sign fix: largest-|entry| (first index on ties) positive
    for c in range(comps.shape[1]):
        j = int(np.argmax(np.abs(comps[:, c])))
        if comps[j, c] < 0:
            comps[:, c] = -comps[:, c]
    mean = csf / (float(n) * float(1 << quant_bits))
    return comps, mean


def pca_fit_transform(ds, *, vec_col: str = "embedding",
                      id_col: str = "vec_id", n_components: int = 4,
                      quant_bits: int = 10, proj_bits: int = 20,
                      num_partitions: int = 4):
    """Fit + project.  Output ``(id_col, pc1..pc<n_components>)`` —
    every score is ``int64_exact / 2^(s+t) - offset`` (two IEEE ops)."""
    import ray

    comps, mean, n, cs = pca_fit(ds, vec_col=vec_col,
                                 n_components=n_components,
                                 quant_bits=quant_bits,
                                 num_partitions=num_partitions)
    vq, offsets, scale = _proj_params(comps, cs, n, quant_bits, proj_bits)
    comps_ref = ray.put((vq, offsets))

    def project(b: pa.Table) -> pa.Table:
        vq_, off_ = ray.get(comps_ref)
        qi = _quantized_int(b, vec_col, quant_bits)
        cols = {id_col: b[id_col]}
        if qi.shape[0] == 0:
            for c in range(vq_.shape[1]):
                cols[f"pc{c + 1}"] = pa.array([], pa.float64())
            return pa.table(cols)
        si = qi @ vq_                     # int64 exact
        for c in range(si.shape[1]):
            cols[f"pc{c + 1}"] = pa.array(
                si[:, c].astype(np.float64) / scale - off_[c])
        return pa.table(cols)

    return ds.map_batches(project, batch_format="pyarrow",
                          zero_copy_batch=True)
