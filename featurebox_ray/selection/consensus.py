"""Multi-model consensus ranking + cluster-validity — re-expression of the
reference's ``SUM`` selector (featurebox/selection/sum.py:70-282: per-model
scores → Pareto front → mean/max consensus) and ``SDbw`` validity score
(selection/sdw.py:13-155), numpy-only.

Ray shape: the per-(model, subset) score matrix is produced by the same
task fan-out as :mod:`.search` (scores are cheap to recompute or passed
in); the consensus algebra itself is tiny and driver-side.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import ray

from .models import cv_score


def score_matrix(X, y, subsets: Sequence[Tuple[int, ...]],
                 alphas: Sequence[float] = (1e-6, 1e-2, 1.0),
                 *, k: int = 5, seed: int = 0, batch_size: int = 32) -> np.ndarray:
    """(n_models, n_subsets) CV-score matrix via Ray task fan-out."""
    @ray.remote
    def score_chunk(x_ref, y_ref, chunk, alpha):
        return [cv_score(x_ref[:, list(s)], y_ref, alpha=alpha, k=k, seed=seed)
                for s in chunk]

    x_ref, y_ref = ray.put(np.ascontiguousarray(X)), ray.put(np.ascontiguousarray(y))
    futs = {}
    for mi, a in enumerate(alphas):
        for i in range(0, len(subsets), batch_size):
            futs[(mi, i)] = score_chunk.remote(
                x_ref, y_ref, list(subsets[i:i + batch_size]), a)
    out = np.empty((len(alphas), len(subsets)))

    for (mi, i), f in futs.items():
        vals = ray.get(f)
        out[mi, i:i + len(vals)] = vals
    return out


def pareto_front(scores: np.ndarray) -> np.ndarray:
    """Indices of non-dominated columns of an (n_models, n_subsets) score
    matrix (higher better on every model) — ref sum.py:234-252."""
    n = scores.shape[1]
    keep = []
    for j in range(n):
        dominated = False
        for o in range(n):
            if o == j:
                continue
            if np.all(scores[:, o] >= scores[:, j]) and np.any(
                    scores[:, o] > scores[:, j]):
                dominated = True
                break
        if not dominated:
            keep.append(j)
    return np.asarray(keep)


def consensus_ranking(scores: np.ndarray,
                      subsets: Sequence[Tuple[int, ...]],
                      method: str = "mean") -> List[Tuple[Tuple[int, ...], float]]:
    """Rank subsets by mean (or min = worst-case) score across models,
    restricted to the Pareto front; deterministic ties (smaller subset,
    lexicographic)."""
    front = pareto_front(scores)
    agg = scores.mean(axis=0) if method == "mean" else scores.min(axis=0)
    ranked = sorted(
        ((tuple(subsets[j]), float(agg[j])) for j in front),
        key=lambda t: (-t[1], len(t[0]), t[0]))
    return ranked


def s_dbw(X: np.ndarray, labels: np.ndarray) -> float:
    """S_Dbw cluster-validity index (lower = better): intra-cluster scatter
    + inter-cluster density (ref selection/sdw.py:13-155 semantics —
    density measured at cluster-pair midpoints with the average cluster
    stdev as the neighborhood radius)."""
    ks = np.unique(labels[labels >= 0])
    if len(ks) < 2:
        return float("inf")
    centers = np.stack([X[labels == c].mean(axis=0) for c in ks])
    sigma_all = float(np.linalg.norm(np.var(X, axis=0)))
    sigmas = np.array([float(np.linalg.norm(np.var(X[labels == c], axis=0)))
                       for c in ks])
    scatter = float(np.mean(sigmas) / sigma_all) if sigma_all > 0 else 0.0
    # reference radius: sqrt(sum ||var_c||) / n_clusters (sdw.py __getStdev)
    stdev = float(np.sqrt(np.sum(sigmas)) / len(ks))

    def density(point, members):
        if len(members) == 0:
            return 0
        d = np.linalg.norm(members - point, axis=1)
        return int(np.sum(d <= stdev))

    dens_bw = 0.0
    for i, ci in enumerate(ks):
        for j, cj in enumerate(ks):
            if i >= j:
                continue
            mi = X[labels == ci]
            mj = X[labels == cj]
            mid = (centers[i] + centers[j]) / 2
            both = np.vstack([mi, mj])
            denom = max(density(centers[i], mi), density(centers[j], mj))
            dens_bw += density(mid, both) / denom if denom > 0 else 0.0
    n_pairs = len(ks) * (len(ks) - 1) / 2
    return scatter + dens_bw / n_pairs
