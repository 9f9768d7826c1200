"""Group selection (GS/UGS) — re-expression of the reference's
prediction-distance clustering selectors (featurebox/selection/ugs.py:
200-705):

for each candidate feature subset ("node"), fit+CV-predict a model; the
pairwise distance between two subsets is the distance between their CV
prediction vectors; DBSCAN over that distance matrix (eps swept, each
clustering scored by Calinski-Harabasz) yields groups of
statistically-equivalent subsets; the best subset per cluster is picked
with the reference's size-penalized score
``score*(1-std/max_std) - alpha*(exp(m-2)+1)`` shape simplified to a
deterministic, documented rule (max mean-CV-score, ties -> smaller
subset, then lexicographic).

Ray shape: CV predictions per subset fan out as tasks over the broadcast
(X, y) block (the O(n²) distance matrix is driver-side numpy on the
collected prediction matrix — n_subsets is small by construction).

DBSCAN and Calinski-Harabasz are tiny numpy implementations (no sklearn
in the container).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import ray

from .models import Ridge, kfold_indices


def cv_predictions(X: np.ndarray, y: np.ndarray, subsets: Sequence[Tuple[int, ...]],
                   *, alpha: float = 1e-6, k: int = 5, seed: int = 0,
                   batch_size: int = 32, model=None) -> np.ndarray:
    """(n_subsets, n_samples) out-of-fold prediction matrix, computed in
    parallel Ray tasks against the broadcast (X, y).  ``model``:
    optional quick_models() name / factory (default: Ridge(alpha))."""
    from .search import resolve_model

    factory = resolve_model(model)

    @ray.remote
    def predict_batch(x_ref, y_ref, chunk):
        out = []
        n = len(y_ref)
        for s in chunk:
            pred = np.empty(n)
            Xs = x_ref[:, list(s)]
            for train, test in kfold_indices(n, k, seed):
                m = (factory() if factory is not None
                     else Ridge(alpha)).fit(Xs[train], y_ref[train])
                pred[test] = m.predict(Xs[test])
            out.append(pred)
        return np.stack(out)

    x_ref, y_ref = ray.put(np.ascontiguousarray(X)), ray.put(np.ascontiguousarray(y))
    futs = [predict_batch.remote(x_ref, y_ref, list(subsets[i:i + batch_size]))
            for i in range(0, len(subsets), batch_size)]
    return np.concatenate(ray.get(futs))


def dbscan(D: np.ndarray, eps: float, min_samples: int = 2) -> np.ndarray:
    """Label matrix-distance DBSCAN; -1 = noise."""
    n = D.shape[0]
    labels = np.full(n, -2)  # -2 unvisited
    cluster = 0
    neighbors = [np.flatnonzero(D[i] <= eps) for i in range(n)]
    core = np.array([len(nb) >= min_samples for nb in neighbors])
    for i in range(n):
        if labels[i] != -2:
            continue
        if not core[i]:
            labels[i] = -1
            continue
        labels[i] = cluster
        stack = list(neighbors[i])
        while stack:
            j = stack.pop()
            if labels[j] == -1:
                labels[j] = cluster
            if labels[j] != -2:
                continue
            labels[j] = cluster
            if core[j]:
                stack.extend(neighbors[j])
        cluster += 1
    return labels


def calinski_harabasz(D2: np.ndarray, labels: np.ndarray) -> float:
    """CH index computed from squared Euclidean embedding coordinates
    (rows = points); ignores noise points."""
    mask = labels >= 0
    pts, lbl = D2[mask], labels[mask]
    ks = np.unique(lbl)
    if len(ks) < 2 or len(pts) <= len(ks):
        return -np.inf
    overall = pts.mean(axis=0)
    ssb = ssw = 0.0
    for c in ks:
        sub = pts[lbl == c]
        mu = sub.mean(axis=0)
        ssb += len(sub) * float(np.sum((mu - overall) ** 2))
        ssw += float(np.sum((sub - mu) ** 2))
    if ssw == 0:
        return np.inf
    return (ssb / (len(ks) - 1)) / (ssw / (len(pts) - len(ks)))


class GroupSelect:
    """GS: distance-cluster candidate subsets, pick one representative per
    cluster (ref ugs.py:200-587)."""

    def __init__(self, *, eps_grid: Optional[Sequence[float]] = None,
                 min_samples: int = 2, alpha: float = 1e-6, k: int = 5,
                 seed: int = 0, model=None):
        self.eps_grid = eps_grid
        self.min_samples = min_samples
        self.alpha, self.k, self.seed = alpha, k, seed
        self.model = model
        self.labels_: Optional[np.ndarray] = None
        self.clusters_: Optional[List[List[int]]] = None
        self.representatives_: Optional[List[Tuple[int, ...]]] = None
        self.scores_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray,
            subsets: Sequence[Tuple[int, ...]]) -> "GroupSelect":
        from .models import r2_score

        preds = cv_predictions(X, y, subsets, alpha=self.alpha, k=self.k,
                               seed=self.seed, model=self.model)
        self.scores_ = np.array([r2_score(y, p) for p in preds])
        # pairwise prediction distance (normalized RMS, ref ugs.py:404-441)
        diff = preds[:, None, :] - preds[None, :, :]
        D = np.sqrt(np.mean(diff ** 2, axis=2))
        scale = np.median(D[D > 0]) if (D > 0).any() else 1.0
        eps_grid = (list(self.eps_grid) if self.eps_grid is not None
                    else None) or [scale * f for f in
                                     (0.25, 0.5, 0.75, 1.0, 1.25)]
        best_labels, best_ch = None, -np.inf
        for eps in eps_grid:
            labels = dbscan(D, eps, self.min_samples)
            ch = calinski_harabasz(preds, labels)
            if ch > best_ch:
                best_labels, best_ch = labels, ch
        if best_labels is None:
            best_labels = np.zeros(len(subsets), dtype=int)
        self.labels_ = best_labels
        clusters: dict = {}
        for i, c in enumerate(best_labels):
            clusters.setdefault(int(c), []).append(i)
        self.clusters_ = [v for c, v in sorted(clusters.items()) if c >= 0]
        noise = clusters.get(-1, [])
        reps = []
        for members in self.clusters_:
            # deterministic representative: max score, ties -> smaller
            # subset, then lexicographic (documented deviation from the
            # reference's random.seed(0) choice)
            best = max(members, key=lambda i: (self.scores_[i],
                                               -len(subsets[i]),
                                               tuple(-np.array(subsets[i]))))
            reps.append(tuple(subsets[best]))
        for i in noise:
            reps.append(tuple(subsets[i]))
        self.representatives_ = reps
        return self


class UnionGroupSelect:
    """UGS: run GS per base model (alpha grid stands in for the reference's
    model zoo), union the clusters into tournaments, rank by mean score
    (ref ugs.py:589-705)."""

    def __init__(self, alphas: Sequence[float] = (1e-6, 1e-2, 1.0), **kw):
        self.alphas = list(alphas)
        self.kw = kw
        self.per_model_: List[GroupSelect] = []
        self.ranking_: Optional[List[Tuple[Tuple[int, ...], float]]] = None

    def fit(self, X, y, subsets) -> "UnionGroupSelect":
        self.per_model_ = []  # reset on refit
        agg: dict = {}
        for a in self.alphas:
            gs = GroupSelect(alpha=a, **self.kw).fit(X, y, subsets)
            self.per_model_.append(gs)
            for i, s in enumerate(subsets):
                agg.setdefault(tuple(s), []).append(gs.scores_[i])
        self.ranking_ = sorted(
            ((s, float(np.mean(v))) for s, v in agg.items()),
            key=lambda t: (-t[1], len(t[0]), t[0]))
        return self
