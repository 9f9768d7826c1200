"""Product-quantization encoding — compress each embedding into m
one-byte-ish codes (one centroid id per subspace), the memory layout
behind billion-scale ANN indexes (IVF-PQ): at 100 TB the raw vectors
stay in cold storage and the 100×-smaller PQ codes live in RAM for
asymmetric-distance scans.

Determinism/exactness contract: the codebook is the ``k`` lowest-id
vectors (a deterministic sample — real codebooks come from k-means;
``stages/kmeans.py`` can refine, this stage owns the ENCODE path);
coordinates quantize half-up to a 2^``quant_bits`` grid (the q116
cross-engine quantizer), distances are integer Σ(xq−cq)², and ties
break to the lowest centroid id — so every code replays bit-exactly in
SQL (``row_number() OVER (ORDER BY dist, cid)``).

Scale shape: the codebook is driver-tiny (k × dim int64, ``limit(k)``)
and closes over the encode kernel (broadcast once per worker via the
task closure); encoding is one stateless ``map_batches`` pass — a
(block × k) integer matmul-shaped distance per subspace, no shuffle at
all.  Output: ``(id_col, c0..c{m-1}:int64, pq_code:int64)`` with
``pq_code = Σ c_i · k^i``.

Reference analog: none (the reference has no vector codecs); the
encode-side sibling of ``stages/ann.py``'s IVF bucketing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["pq_encode"]


def pq_encode(ds, *, vec_col: str = "embedding", id_col: str = "vec_id",
              m: int = 4, k: int = 16, quant_bits: int = 10):
    """PQ-encode fixed-dimension ``vec_col`` into ``m`` subspace codes
    against the k-lowest-``id_col`` codebook.  Dimension must divide by
    ``m``; NULL ids/vectors drop."""
    import pyarrow.compute as pc

    from .cohesion import _batch_mat
    from .rank import top_k

    def clean(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.and_(pc.is_valid(b[id_col]),
                                    pc.is_valid(b[vec_col])), False)
        if not pc.all(keep).as_py():
            b = b.filter(keep)
        return b.select([id_col, vec_col])

    cleaned = ds.map_batches(clean, batch_format="pyarrow",
                             zero_copy_batch=True)

    # codebook: k lowest-id vectors, quantized — driver-tiny
    cbq, dim = _batch_mat(top_k(cleaned, [id_col], False, k), vec_col,
                          quant_bits)
    if len(cbq) < k:
        raise ValueError(f"pq_encode: need at least k={k} vectors, "
                         f"got {len(cbq)}")
    if dim % m:
        raise ValueError(f"pq_encode: dim {dim} not divisible by m={m}")
    sub = dim // m
    # (m, k, sub) centroid tensor
    cb = cbq.reshape(k, m, sub).transpose(1, 0, 2).copy()

    def encode(b: pa.Table) -> pa.Table:
        xq, d = _batch_mat(b, vec_col, quant_bits)
        if b.num_rows and d != dim:
            raise ValueError(f"pq_encode: dim {d} != codebook dim {dim}")
        n = b.num_rows
        codes = np.zeros((n, m), np.int64)
        if n:
            xs = xq.reshape(n, m, sub)
            for s in range(m):
                diff = xs[:, s, :][:, None, :] - cb[s][None, :, :]
                dist = np.einsum("nkd,nkd->nk", diff, diff)
                codes[:, s] = np.argmin(dist, axis=1)  # first-min ties
        cols = {id_col: b[id_col]}
        packed = np.zeros(n, np.int64)
        for s in range(m):
            cols[f"c{s}"] = pa.array(codes[:, s], pa.int64())
            packed += codes[:, s] * (k ** s)
        cols["pq_code"] = pa.array(packed, pa.int64())
        return pa.table(cols)

    return cleaned.map_batches(encode, batch_format="pyarrow",
                               zero_copy_batch=True)
