"""Independent replays backing the planted-fixture value oracles for the
selection / EGO / GP driver-gate queries (q28, q30, q34, q36, q40; q29's
fixture is simpler and lives in ``__ray_entry__``).

Each function recomputes a query's expected output WITHOUT the engine's
selection layer (`featurebox_ray.selection` / `functions.expr` are never
imported here): ridge solves assemble centered Gram matrices with
``np.einsum`` (sequential C loops, not the BLAS path the engine uses),
every reduction that feeds a reported number goes through ``math.fsum``
(exact summation) or scalar loops, and DBSCAN / Calinski-Harabasz /
Pareto / EI are re-derived from their definitions.  Only the RNG streams
(``np.random.default_rng``) and fold-split spec are shared — they are
part of each query's definition, not of the implementation under test.

The resulting tables are written to ``/tmp/fbr_oracle_<pid>/*.parquet`` by the
query callables; the DuckDB oracle SQL reads them back, so the driver's
value-hash compare checks the engine's distributed fan-outs against this
serial independent computation (the q23/q27 dual-implementation pattern).

Numerical coupling: engine and replay agree to ~1e-13 relative (same
IEEE doubles, different summation orders); outputs are rounded to 6
decimals, so a mismatch needs a value within ~1e-13 of a rounding
boundary — negligible at these table sizes.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# shared scalar numerics
# ---------------------------------------------------------------------------


def _ridge_fit(X: np.ndarray, y: np.ndarray, alpha: float):
    """Centered ridge via einsum-assembled normal equations."""
    X = np.asarray(X, np.float64)
    y = np.asarray(y, np.float64)
    mx = np.array([math.fsum(X[:, j]) / len(X) for j in range(X.shape[1])])
    my = math.fsum(y) / len(y)
    Xc = X - mx
    yc = y - my
    A = np.einsum("ni,nj->ij", Xc, Xc) + alpha * np.eye(X.shape[1])
    b = np.einsum("ni,n->i", Xc, yc)
    w = np.linalg.solve(A, b)
    intercept = my - float(mx @ w)
    return w, intercept


def _predict(X: np.ndarray, w: np.ndarray, intercept: float) -> np.ndarray:
    return np.einsum("ni,i->n", np.asarray(X, np.float64), w) + intercept


def _r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    ss_res = math.fsum((float(a) - float(b)) ** 2
                       for a, b in zip(y_true, y_pred))
    m = math.fsum(float(v) for v in y_true) / len(y_true)
    ss_tot = math.fsum((float(v) - m) ** 2 for v in y_true)
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def _kfold(n: int, k: int, seed: int):
    """The query spec's fold split: seeded permutation + array_split."""
    order = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(order, k)
    for i in range(k):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        yield train, test


def _cv_r2(X: np.ndarray, y: np.ndarray, *, alpha: float, k: int = 5,
           seed: int = 0) -> float:
    scores = []
    for train, test in _kfold(len(y), k, seed):
        w, b = _ridge_fit(X[train], y[train], alpha)
        scores.append(_r2(y[test], _predict(X[test], w, b)))
    return math.fsum(scores) / len(scores)


def _oof_predictions(X: np.ndarray, y: np.ndarray, *, alpha: float,
                     k: int = 5, seed: int = 0) -> np.ndarray:
    pred = np.empty(len(y))
    for train, test in _kfold(len(y), k, seed):
        w, b = _ridge_fit(X[train], y[train], alpha)
        pred[test] = _predict(X[test], w, b)
    return pred


# ---------------------------------------------------------------------------
# q28: exhaustive subset ranking
# ---------------------------------------------------------------------------


def replay_subset_select(X: np.ndarray, y: np.ndarray,
                         cols: Sequence[str], *, n_select=(2, 3),
                         alpha: float = 1e-6, k: int = 5, seed: int = 0,
                         top: int = 10):
    """Expected (rank, subset, cv_r2) table for q28."""
    import pandas as pd

    cands: List[Tuple[int, ...]] = []
    for size in n_select:
        cands.extend(itertools.combinations(range(X.shape[1]), size))
    scored = [(s, _cv_r2(X[:, list(s)], y, alpha=alpha, k=k, seed=seed))
              for s in cands]
    ranked = sorted(scored, key=lambda t: -t[1])[:top]
    return pd.DataFrame({
        "rank": range(1, len(ranked) + 1),
        "subset": ["+".join(cols[i] for i in s) for s, _ in ranked],
        "cv_r2": [round(v, 6) for _, v in ranked],
    })


# ---------------------------------------------------------------------------
# q30: single-objective EGO (bootstrap ensemble -> EI)
# ---------------------------------------------------------------------------


def _bootstrap_preds(X, y, grid, *, n_models: int, alpha: float,
                     seed_base: int) -> np.ndarray:
    preds = []
    for i in range(n_models):
        rng = np.random.default_rng(seed_base + i)
        idx = rng.integers(0, len(y), len(y))
        w, b = _ridge_fit(X[idx], y[idx], alpha)
        preds.append(_predict(grid, w, b))
    return np.stack(preds)


def _mean_std_cols(preds: np.ndarray):
    """Per-grid-point mean/std over the model axis, fsum-exact."""
    B, g = preds.shape
    mean = np.array([math.fsum(preds[:, j]) / B for j in range(g)])
    std = np.array([math.sqrt(math.fsum((preds[b, j] - mean[j]) ** 2
                                        for b in range(B)) / B)
                    for j in range(g)])
    return mean, std


def replay_ego_rank(X: np.ndarray, y: np.ndarray, grid: np.ndarray, *,
                    n_models: int = 8, alpha: float = 1e-6, seed: int = 0,
                    top: int = 10):
    """Expected (rank, x0, x1, ei) table for q30."""
    import pandas as pd

    preds = _bootstrap_preds(X, y, grid, n_models=n_models, alpha=alpha,
                             seed_base=seed)
    mean, std = _mean_std_cols(preds)
    y_best = max(float(v) for v in y)
    ei = np.empty(len(mean))
    for j in range(len(mean)):
        if std[j] > 0:
            z = (mean[j] - y_best) / std[j]
            phi = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
            Phi = 0.5 * (1 + math.erf(z / math.sqrt(2)))
            ei[j] = (mean[j] - y_best) * Phi + std[j] * phi
        else:
            ei[j] = 0.0
    order = np.argsort(-ei)[:top]
    return pd.DataFrame({
        "rank": range(1, len(order) + 1),
        "x0": np.round(grid[order, 0], 6),
        "x1": np.round(grid[order, 1], 6),
        "ei": np.round(ei[order], 6),
    })


# ---------------------------------------------------------------------------
# q34: prediction-distance group clustering
# ---------------------------------------------------------------------------


def _dbscan(D: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    """DBSCAN over a distance matrix, re-derived: clusters = connected
    components of the core-core graph (numbered by smallest seed index,
    matching ascending-scan numbering); border points attach to the
    cluster of a reachable core neighbor; the rest are noise (-1)."""
    n = D.shape[0]
    nb = [set(np.flatnonzero(D[i] <= eps).tolist()) for i in range(n)]
    core = [len(nb[i]) >= min_samples for i in range(n)]
    labels = np.full(n, -1)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] >= 0:
            continue
        comp = {i}
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for m in nb[j]:
                if core[m] and m not in comp:
                    comp.add(m)
                    frontier.append(m)
        for m in comp:
            labels[m] = cluster
        cluster += 1
    for i in range(n):
        if labels[i] < 0:
            # engine semantics: clusters expand fully in ascending
            # cluster-number order, so a border point reachable from
            # several clusters belongs to the LOWEST-numbered one
            reach = [labels[m] for m in nb[i] if core[m] and labels[m] >= 0]
            if reach:
                labels[i] = min(reach)
    return labels


def _calinski_harabasz(pts: np.ndarray, labels: np.ndarray) -> float:
    mask = labels >= 0
    p, lbl = pts[mask], labels[mask]
    ks = sorted(set(lbl.tolist()))
    if len(ks) < 2 or len(p) <= len(ks):
        return -math.inf
    overall = np.array([math.fsum(p[:, j]) / len(p)
                        for j in range(p.shape[1])])
    ssb = ssw = 0.0
    for c in ks:
        sub = p[lbl == c]
        mu = np.array([math.fsum(sub[:, j]) / len(sub)
                       for j in range(sub.shape[1])])
        ssb += len(sub) * math.fsum((float(a) - float(b)) ** 2
                                    for a, b in zip(mu, overall))
        ssw += math.fsum(float(v) ** 2 for v in (sub - mu).ravel())
    if ssw == 0:
        return math.inf
    return (ssb / (len(ks) - 1)) / (ssw / (len(p) - len(ks)))


def replay_group_select(X: np.ndarray, y: np.ndarray,
                        subsets: Sequence[Tuple[int, ...]], *,
                        alpha: float = 1e-6, k: int = 5, seed: int = 0,
                        min_samples: int = 2):
    """Expected (subset, cluster, cv_r2) table for q34."""
    import pandas as pd

    preds = np.stack([
        _oof_predictions(X[:, list(s)], y, alpha=alpha, k=k, seed=seed)
        for s in subsets])
    scores = np.array([_r2(y, p) for p in preds])
    n = len(subsets)
    D = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            D[i, j] = math.sqrt(
                math.fsum((float(a) - float(b)) ** 2
                          for a, b in zip(preds[i], preds[j]))
                / preds.shape[1])
    pos = np.sort(D[D > 0])
    scale = (float(np.median(pos)) if len(pos) else 1.0)
    best_labels, best_ch = None, -math.inf
    for f in (0.25, 0.5, 0.75, 1.0, 1.25):
        labels = _dbscan(D, scale * f, min_samples)
        ch = _calinski_harabasz(preds, labels)
        if ch > best_ch:
            best_labels, best_ch = labels, ch
    if best_labels is None:
        best_labels = np.zeros(n, dtype=int)
    return pd.DataFrame({
        "subset": [",".join(map(str, s)) for s in subsets],
        "cluster": best_labels.astype(int),
        "cv_r2": np.round(scores, 6),
    })


# ---------------------------------------------------------------------------
# q36: multi-model consensus over the Pareto front
# ---------------------------------------------------------------------------


def replay_consensus_rank(X: np.ndarray, y: np.ndarray,
                          subsets: Sequence[Tuple[int, ...]], *,
                          alphas=(1e-6, 1e-2, 1.0), k: int = 5,
                          seed: int = 0):
    """Expected (rank, subset, mean_cv_r2) table for q36."""
    import pandas as pd

    S = np.array([[_cv_r2(X[:, list(s)], y, alpha=a, k=k, seed=seed)
                   for s in subsets] for a in alphas])
    front = []
    for j in range(S.shape[1]):
        dominated = any(
            o != j and all(S[m, o] >= S[m, j] for m in range(S.shape[0]))
            and any(S[m, o] > S[m, j] for m in range(S.shape[0]))
            for o in range(S.shape[1]))
        if not dominated:
            front.append(j)
    agg = {j: math.fsum(S[:, j]) / S.shape[0] for j in front}
    ranked = sorted(((tuple(subsets[j]), agg[j]) for j in front),
                    key=lambda t: (-t[1], len(t[0]), t[0]))
    return pd.DataFrame({
        "rank": range(1, len(ranked) + 1),
        "subset": ["+".join(map(str, s)) for s, _ in ranked],
        "mean_cv_r2": [round(v, 6) for _, v in ranked],
    })


# ---------------------------------------------------------------------------
# q40: multi-objective EGO (Pareto Pi / L / Ei)
# ---------------------------------------------------------------------------


def replay_multi_ego(X: np.ndarray, Y: np.ndarray, grid: np.ndarray, *,
                     n_models: int = 8, alpha: float = 1e-6, seed: int = 0,
                     top: int = 10):
    """Expected (rank, x0, x1, pi, l, ei) table for q40."""
    import pandas as pd

    d = Y.shape[1]
    preds = np.stack([
        _bootstrap_preds(X, Y[:, j], grid, n_models=n_models, alpha=alpha,
                         seed_base=seed + 1000 * j)
        for j in range(d)])  # (d, B, g)
    g = grid.shape[0]
    mean = np.empty((g, d))
    for j in range(d):
        m, _ = _mean_std_cols(preds[j])
        mean[:, j] = m

    # training-front: i is on the front iff no other point strictly beats
    # it in every objective
    front_rows = [i for i in range(len(Y))
                  if all(max(float(Y[i, m]) - float(Y[o, m])
                             for m in range(d)) >= 0
                         for o in range(len(Y)))]
    front = Y[front_rows]

    B = n_models
    pi = np.empty(g)
    for p in range(g):
        n_dom = 0
        for b in range(B):
            draw = [preds[j, b, p] for j in range(d)]
            if any(all(draw[m] < f[m] for m in range(d)) for f in front):
                n_dom += 1
        pi[p] = 1.0 - n_dom / B
    l = np.array([
        min(min(abs(float(mean[p, m]) - float(f[m])) for f in front)
            for m in range(d))
        for p in range(g)])
    ei = l * pi
    order = np.argsort(-ei)[:top]
    return pd.DataFrame({
        "rank": range(1, len(order) + 1),
        "x0": np.round(grid[order, 0], 6),
        "x1": np.round(grid[order, 1], 6),
        "pi": np.round(pi[order], 6),
        "l": np.round(l[order], 6),
        "ei": np.round(ei[order], 6),
    })


# ---------------------------------------------------------------------------
# q43: exhaustive subset ranking, CLASSIFICATION (stratified CV accuracy)
# ---------------------------------------------------------------------------


def _logreg_fit(X: np.ndarray, t: np.ndarray, lam: float,
                max_iter: int = 100, tol: float = 1e-10) -> np.ndarray:
    """L2-penalized logistic regression solved as iteratively reweighted
    least squares via the AUGMENTED-ROWS lstsq formulation (a different
    algebraic path than the engine's Newton ``solve(H, grad)``; both
    converge to the unique optimum of the strictly convex penalized
    loss, so predictions ``sign(Xw+b)`` agree except for rows within
    ~1e-12 of the boundary).  Intercept unpenalized."""
    n, p = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    w = np.zeros(p + 1)
    sq = math.sqrt(lam)
    aug_X = np.zeros((p, p + 1))
    for j in range(p):
        aug_X[j, j] = sq
    for _ in range(max_iter):
        z = Xb @ w
        mu = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        s = np.maximum(mu * (1.0 - mu), 1e-10)
        # working response of the Newton step in WLS form
        zw = z + (t - mu) / s
        rs = np.sqrt(s)
        A = np.vstack([Xb * rs[:, None], aug_X])
        b = np.concatenate([zw * rs, np.zeros(p)])
        w_new, *_ = np.linalg.lstsq(A, b, rcond=None)
        step = float(np.max(np.abs(w_new - w)))
        w = w_new
        if step < tol:
            break
    return w


def _stratified_kfold(y: np.ndarray, k: int):
    """The query spec's stratified split: each class's indices, in order
    of appearance, into k near-equal contiguous chunks."""
    n = len(y)
    for i in range(k):
        test_parts = []
        for c in np.unique(y):
            idx = np.flatnonzero(y == c)
            test_parts.append(np.array_split(idx, k)[i])
        test = np.sort(np.concatenate(test_parts))
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        yield np.flatnonzero(mask), test


def _cv_accuracy_logreg(X: np.ndarray, y: np.ndarray, *, lam: float,
                        k: int) -> float:
    """Mean stratified-k-fold accuracy of the lstsq-IRLS logistic model;
    accuracy is an exact integer ratio, so ulp-level coefficient
    differences between engine and replay cannot move it unless a row
    sits within ~1e-12 of the decision boundary."""
    classes = np.unique(y)
    scores = []
    for train, test in _stratified_kfold(y, k):
        w = _logreg_fit(X[train], (y[train] == classes[1]).astype(np.float64),
                        lam)
        z = X[test] @ w[:-1] + w[-1]
        pred = classes[(z > 0).astype(int)]
        n_ok = sum(1 for a, b in zip(pred, y[test]) if a == b)
        scores.append(n_ok / len(test))
    return math.fsum(scores) / len(scores)


def replay_clf_select(X: np.ndarray, y: np.ndarray, cols: Sequence[str], *,
                      n_select=(1, 2), C: float = 1.0, k: int = 4,
                      top: int = 10):
    """Expected (rank, subset, cv_acc) table for q43: every candidate
    subset scored with stratified-CV accuracy of the independent logistic
    solver; stable sort on descending score so exact-accuracy ties keep
    candidate-generation order (the engine sorts the same way)."""
    import pandas as pd

    cands: List[Tuple[int, ...]] = []
    for size in n_select:
        cands.extend(itertools.combinations(range(X.shape[1]), size))
    scored = [(s, _cv_accuracy_logreg(X[:, list(s)], y, lam=1.0 / C, k=k))
              for s in cands]
    ranked = sorted(scored, key=lambda t: -t[1])[:top]
    return pd.DataFrame({
        "rank": range(1, len(ranked) + 1),
        "subset": ["+".join(cols[i] for i in s) for s, _ in ranked],
        "cv_acc": [round(v, 6) for _, v in ranked],
    })


# ---------------------------------------------------------------------------
# q44: hyper-parameter grid search (GridSearchCV analog)
# ---------------------------------------------------------------------------


def replay_grid_search(X: np.ndarray, y: np.ndarray,
                       alphas: Sequence[float], *, k: int = 5,
                       seed: int = 0):
    """Expected (combo_id, alpha, cv_r2, is_best) table for q44: every
    ridge alpha scored with the independent einsum/fsum CV replay over
    the query spec's fold split; best = first max (the engine's argmax
    tie-break)."""
    import pandas as pd

    scores = [_cv_r2(X, y, alpha=float(a), k=k, seed=seed)
              for a in alphas]
    best = int(np.argmax(scores))
    return pd.DataFrame({
        "combo_id": np.arange(1, len(alphas) + 1, dtype=np.int64),
        "alpha": [float(a) for a in alphas],
        "cv_r2": [round(s, 6) for s in scores],
        "is_best": [i == best for i in range(len(alphas))],
    })


def replay_rotate_slices(vols: "List[Tuple[int, np.ndarray]]", *,
                         angle_deg: float = 30.0, axis: int = 0):
    """Expected (vol_id, angle_deg, n_cols, slice_sum, slice_first) table
    for q46: the rotated-plane sweep re-derived per-step with one fiber
    gathered at a time (the reference array_extract.py:55-125 shape),
    never importing ``functions.tensor``.  Skips corner-clip draws the
    same way the sweep does."""
    rows = []
    for vol_id, vol in vols:
        dims = [s for a, s in enumerate(vol.shape) if a != axis]
        step = np.pi / 180.0 * angle_deg
        for theta in np.arange(0, np.pi, step):
            if theta == np.pi / 2:
                if axis == 0:
                    sl = np.squeeze(vol[:, [0], :])
                elif axis == 1:
                    sl = np.squeeze(vol[[0], :, :])
                else:
                    sl = np.squeeze(vol[:, :, [0]])
            else:
                pts = [(u, v) for v in range(dims[1])
                       for u in range(dims[0])
                       if abs(u - math.tan(theta) * v) < 2]
                if len(pts) <= 3:
                    continue
                pu = np.array([p[0] for p in pts])
                pv = np.array([p[1] for p in pts])
                n_steps = int(math.sqrt(float(np.ptp(pu)) ** 2
                                        + float(np.ptp(pv)) ** 2)) + 1
                corner = ((pu.min(), pv.min()) if theta < 1.57
                          else (pu.min(), pv.max()))
                dist = np.sqrt((pu - corner[0]) ** 2.0
                               + (pv - corner[1]) ** 2.0)
                cols = []
                for i in range(n_steps):
                    near = np.argpartition(np.abs(dist - i), 3)[:3]
                    fibers = []
                    for k in near:
                        u, v = pu[k], pv[k]
                        if axis == 0:
                            fibers.append(vol[:, u, v])
                        elif axis == 1:
                            fibers.append(vol[u, :, v])
                        else:
                            fibers.append(vol[u, v, :])
                    cols.append(np.mean(np.array(fibers), axis=0))
                sl = np.array(cols).T
            rows.append({
                "vol_id": int(vol_id),
                "angle_deg": round(theta / np.pi * 180.0, 6),
                "n_cols": int(sl.shape[1]),
                "slice_sum": round(float(np.sum(sl)), 6),
                "slice_first": round(float(sl[0, 0]), 6),
            })
    import pandas as pd

    return pd.DataFrame(rows)


def replay_bpe_merges(texts: Sequence[str], num_merges: int):
    """Independent BPE merge-rule replay (Sennrich loop, dict-based —
    stages/bpe.py is never imported here).  Word symbols are the chars
    plus a trailing '</w>'; best pair by (count desc, pair asc)."""
    from collections import Counter

    wc: Counter = Counter()
    for x in texts:
        wc.update((x or "").split())
    vocab = {tuple(w) + ("</w>",): c for w, c in wc.items()}
    out = []
    for rank in range(num_merges):
        pc_: Counter = Counter()
        for sym, c in vocab.items():
            for a, b in zip(sym, sym[1:]):
                pc_[(a, b)] += c
        if not pc_:
            break
        best_cnt = max(pc_.values())
        best = min(p for p, c in pc_.items() if c == best_cnt)
        out.append((rank, best[0], best[1], best_cnt))
        nv: dict = {}
        for sym, c in vocab.items():
            ns, i = [], 0
            while i < len(sym):
                if i + 1 < len(sym) and (sym[i], sym[i + 1]) == best:
                    ns.append(best[0] + best[1])
                    i += 2
                else:
                    ns.append(sym[i])
                    i += 1
            nv[tuple(ns)] = nv.get(tuple(ns), 0) + c
        vocab = nv
    import pandas as pd

    return pd.DataFrame(out, columns=["merge_rank", "left", "right",
                                      "pair_count"])


def replay_bigram_lm(ids: Sequence[int], texts: Sequence[str], *,
                     top_v: int, add_k: float):
    """Serial bigram-LM perplexity replay (q112): Counter vocabulary and
    bigram/context counts, per-document scoring with the documented
    reduction op (np.add.reduceat over the doc's own log2-probability
    slice — positionally invariant, so engine and replay are bit-exact;
    see stages/lm.py docstring).  No engine kernels are imported."""
    from collections import Counter

    tok = {i: (t or "").split() for i, t in zip(ids, texts)}
    counts: Counter = Counter(w for ws in tok.values() for w in ws)
    vocab = sorted(counts, key=lambda w: (-counts[w], w))[:top_v]
    slot = {w: i for i, w in enumerate(sorted(vocab))}
    unk = len(vocab)
    n_slots = unk + 1
    bi: Counter = Counter()
    for ws in tok.values():
        ss = [slot.get(w, unk) for w in ws]
        for u, v in zip(ss, ss[1:]):
            bi[(u, v)] += 1
    ctx: Counter = Counter()
    for (u, _), c in bi.items():
        ctx[u] += c
    rows = []
    for i in ids:
        ss = [slot.get(w, unk) for w in tok[i]]
        nb = max(len(ss) - 1, 0)
        ps = np.array([
            (np.float64(bi.get((u, v), 0)) + add_k) /
            (np.float64(ctx.get(u, 0)) + add_k * n_slots)
            for u, v in zip(ss, ss[1:])], np.float64)
        lp = (np.add.reduceat(np.log2(ps), [0])[0] if nb
              else np.float64(0.0))
        ppl = float(np.exp2(-(lp / nb))) if nb else None
        rows.append((i, nb, float(lp), ppl))
    import pandas as pd

    return pd.DataFrame(rows, columns=["doc_id", "n_bigrams", "logprob",
                                       "ppl"])


def replay_mmr(vecs: np.ndarray, ids: np.ndarray, query: np.ndarray, *,
               k: int, pool_m: int, lambda_num: int, lambda_den: int,
               quant_bits: int):
    """Serial MMR replay (q131): half-up quantization, integer
    relevance, top-pool cut, greedy with integer scores and
    (score desc, id asc) tie-break among available items — the exact
    arithmetic contract of stages/ann.py:mmr_select, recomputed without
    the engine's streaming pool stage."""
    s = float(1 << quant_bits)
    V = np.floor(np.asarray(vecs, np.float64) * s + 0.5).astype(np.int64)
    Q = np.floor(np.asarray(query, np.float64) * s + 0.5).astype(np.int64)
    ids = np.asarray(ids, np.int64)
    rel = V @ Q
    order = np.lexsort((ids, -rel))[:pool_m]
    ids, rel, V = ids[order], rel[order], V[order]
    sims = V @ V.T
    lam, lam_c = lambda_num, lambda_den - lambda_num
    picked, avail = [], np.ones(len(ids), bool)
    maxsim = np.full(len(ids), np.iinfo(np.int64).min)
    for r in range(min(k, len(ids))):
        score = lam * rel if r == 0 else lam * rel - lam_c * maxsim
        cand = np.flatnonzero(avail)
        best = cand[np.lexsort((ids[cand], -score[cand]))[0]]
        picked.append((r, int(ids[best]), int(rel[best]),
                       int(score[best])))
        avail[best] = False
        maxsim = np.maximum(maxsim, sims[:, best])
    import pandas as pd

    return pd.DataFrame(picked, columns=["rank", "vec_id", "rel",
                                         "score"])


def replay_knn_join(left_ids, left_vecs, right_ids, right_vecs, *,
                    k: int, n_centroids: int, n_probe: int,
                    quant_bits: int):
    """Serial single-process replay of stages/knn.py:knn_join —
    identical quantization, centroid choice, bucket assignment and
    tie-breaks, zero distribution.  Returns (left_id, rank, right_id,
    dot) numpy columns sorted by (left_id, rank)."""
    import numpy as np

    s = float(1 << quant_bits)

    def q(x):
        return np.floor(np.asarray(x, np.float64) * s + 0.5).astype(
            np.int64)

    r_order = np.argsort(np.asarray(right_ids), kind="stable")
    rids = np.asarray(right_ids)[r_order]
    Rq = q(np.asarray(right_vecs))[r_order]
    Cq = Rq[:n_centroids]
    lids = np.asarray(left_ids)
    Lq = q(np.asarray(left_vecs))

    def assign(Vq, np_):
        c2 = np.einsum("ij,ij->i", Cq, Cq)
        score = -2 * (Vq @ Cq.T) + c2[None, :]
        return np.argsort(score, axis=1, kind="stable")[:, :np_]

    rb = assign(Rq, 1)[:, 0]
    lp = assign(Lq, n_probe)
    out = []
    for i in range(len(lids)):
        cand = np.isin(rb, lp[i])
        cr, cv = rids[cand], Rq[cand]
        if not len(cr):
            continue
        dots = cv @ Lq[i]
        o = np.lexsort((cr, -dots))[:k]
        for rk, j in enumerate(o):
            out.append((int(lids[i]), rk + 1, int(cr[j]), int(dots[j])))
    out.sort()
    import numpy as _np

    a = _np.array(out, dtype=_np.int64).reshape(-1, 4)
    return a[:, 0], a[:, 1], a[:, 2], a[:, 3]


def replay_multinomial_nb(ids: Sequence[int], texts: Sequence[str],
                          labels: Sequence, *, top_v: int,
                          add_k: float):
    """Serial multinomial-NB replay (q153): Counter vocabulary, dense
    (slot, class) counts, per-document scoring with the documented
    reduction (np.add.reduceat over the doc's log2-likelihood slice +
    one prior add + argmax with first-max tie-break) — the exact
    arithmetic contract of stages/nb.py, recomputed without any engine
    kernel imports."""
    from collections import Counter

    tok = {i: (t or "").split() for i, t in zip(ids, texts)}
    counts: Counter = Counter(w for ws in tok.values() for w in ws)
    vocab = sorted(counts, key=lambda w: (-counts[w], w))[:top_v]
    slot = {w: i for i, w in enumerate(sorted(vocab))}
    unk = len(vocab)
    n_slots = unk + 1
    lab = {i: v for i, v in zip(ids, labels)}
    classes = sorted({v for v in labels if v is not None})
    cidx = {c: j for j, c in enumerate(classes)}
    n_classes = len(classes)
    cm = np.zeros((n_slots, n_classes), np.int64)
    class_docs = np.zeros(n_classes, np.int64)
    for i in ids:
        if lab[i] is None:
            continue
        j = cidx[lab[i]]
        class_docs[j] += 1
        for w in tok[i]:
            cm[slot.get(w, unk), j] += 1
    totals = cm.sum(axis=0)
    log_prior = np.log2(class_docs.astype(np.float64)
                        / np.float64(int(class_docs.sum())))
    rows = []
    for i in ids:
        ss = np.array([slot.get(w, unk) for w in tok[i]], np.int64)
        scores = np.empty(n_classes, np.float64)
        for j in range(n_classes):
            num = cm[ss, j].astype(np.float64) + add_k
            den = totals[j].astype(np.float64) + add_k * n_slots
            lp = np.log2(num / den)
            s = (np.add.reduceat(lp, [0])[0] if len(ss)
                 else np.float64(0.0))
            scores[j] = s + log_prior[j]
        best = int(np.argmax(scores))
        rows.append((i, len(ss), classes[best], float(scores[best])))
    import pandas as pd

    return pd.DataFrame(rows, columns=["doc_id", "n_tokens", "pred",
                                       "logprob"])


def replay_isotonic(xs: Sequence[float], ys: Sequence[float], *,
                    x_scale: float, y_scale: float,
                    increasing: bool = True):
    """Serial isotonic-fit replay (q154): quantize, aggregate to
    distinct-x sufficient statistics, pool-adjacent-violators with
    Fraction-exact mean comparisons, one final double division per
    pooled block — the exact arithmetic contract of
    stages/isotonic.py, implemented independently (Fractions here,
    integer cross-multiplication there)."""
    from fractions import Fraction

    agg: dict = {}
    for x, y in zip(xs, ys):
        if x is None or y is None:
            continue
        xq = int(np.round(np.float64(x) * x_scale))
        yq = int(np.round(np.float64(y) * y_scale))
        n, s = agg.get(xq, (0, 0))
        agg[xq] = (n + 1, s + yq)
    order = sorted(agg)
    if not increasing:
        order = order[::-1]
    blocks = []  # [first_pos, n, s]
    for i, xq in enumerate(order):
        n, s = agg[xq]
        blocks.append([i, n, s])
        while (len(blocks) >= 2 and
               Fraction(blocks[-2][2], blocks[-2][1])
               > Fraction(blocks[-1][2], blocks[-1][1])):
            b = blocks.pop()
            blocks[-1][1] += b[1]
            blocks[-1][2] += b[2]
    rows = []
    for j, (start, n, s) in enumerate(blocks):
        end = blocks[j + 1][0] if j + 1 < len(blocks) else len(order)
        for pos in range(start, end):
            xq = order[pos]
            rows.append((xq, agg[xq][0], agg[xq][1], j,
                         float(np.float64(s) / np.float64(n))))
    if not increasing:
        m = len(blocks) - 1
        rows = [(x, n, s, m - p, f) for x, n, s, p, f in rows][::-1]
    import pandas as pd

    return pd.DataFrame(rows, columns=["x", "n", "sum_y", "pool",
                                       "fitted"])


def replay_ridge(vecs: np.ndarray, ys: np.ndarray, *, quant_bits: int,
                 y_scale: int, lam_num: int, lam_den: int):
    """Serial ridge replay (q169): whole-matrix integer sufficient
    statistics + the engine's shared ridge_solve float path — the
    int64 partial sums are order-independent, so this is bit-exact
    under any partitioning."""
    from featurebox_ray.stages.regress import ridge_solve

    x = np.asarray(vecs, np.float64)
    qi = np.round(x * float(1 << quant_bits)).astype(np.int64)
    ones = np.full((len(qi), 1), 1 << quant_bits, np.int64)
    qa = np.concatenate([qi, ones], axis=1)
    yq = np.round(np.asarray(ys, np.float64) * y_scale).astype(
        np.int64)
    coef = ridge_solve(qa.T @ qa, qa.T @ yq, len(qa), quant_bits,
                       y_scale, lam_num, lam_den)
    import pandas as pd

    return pd.DataFrame({"j": np.arange(qa.shape[1], dtype=np.int64),
                         "coef": coef})


def replay_k_center(ids, X, *, k: int, quant_bits: int = 8):
    """Serial replay of stages/cohesion.py:k_center_select — same
    half-up quantization, exact int64 distances, min-id seed,
    farthest-point rounds with (max d2, min id) ties, early stop on
    radius 0.  Bit-identical by construction (pure int compares)."""
    import numpy as np

    ids = np.asarray(ids, np.int64)
    s = float(1 << quant_bits)
    xq = np.floor(np.asarray(X, np.float64) * s + 0.5).astype(
        np.int64)
    order = np.argsort(ids, kind="stable")
    ids, xq = ids[order], xq[order]
    sel = [(0, int(ids[0]), None)]
    c = xq[0]
    mind = None
    for rnd in range(1, k):
        d2 = np.sum((xq - c) * (xq - c), axis=1)
        mind = d2 if mind is None else np.minimum(mind, d2)
        mx = int(mind.max())
        if mx == 0:
            break
        j = int(np.flatnonzero(mind == mx)[0])  # ids sorted -> min id
        sel.append((rnd, int(ids[j]), mx))
        c = xq[j]
    return sel


def replay_changepoint(keys, ts, seq, values, *, min_seg: int = 3,
                       max_group: int = 4096):
    """Serial replay of stages/changepoint.py:group_changepoint —
    exact Python-int argmax of S1²(n−i)+S2²i over i·(n−i) for every
    split (no float prune needed serially), ties to the smallest
    split; identical float output expressions.  Returns rows
    (key, n, split_i, ts_split, gain_cents2, mean_l, mean_r)."""
    import math

    import numpy as np

    rows = [(k, t, s, v) for k, t, s, v in zip(keys, ts, seq, values)
            if k is not None and t is not None and s is not None]
    for _, _, _, v in rows:
        if v is not None and not math.isfinite(v):
            raise ValueError("non-finite value")
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    out = []
    i0 = 0
    while i0 < len(rows):
        j = i0
        while j < len(rows) and rows[j][0] == rows[i0][0]:
            j += 1
        grp = rows[i0:j]
        i0 = j
        n = len(grp)
        if n < 2 * min_seg or n > max_group:
            continue
        y = [int(np.round(np.float64(0.0 if v is None else v) * 100))
             for _, _, _, v in grp]
        S1, acc = [], 0
        for v in y:
            acc += v
            S1.append(acc)
        S = acc
        best = None
        for i in range(min_seg, n - min_seg + 1):
            a = S1[i - 1]
            b = S - a
            f = a * a * (n - i) + b * b * i
            den = i * (n - i)
            if best is None or f * best[2] > best[1] * den:
                best = (i, f, den, a, b)
        i, f, den, a, b = best
        gain = float(f * n - S * S * den) / float(n * den)
        out.append((grp[0][0], n, i, int(grp[i - 1][1]), gain,
                    float(a) / float(i), float(b) / float(n - i)))
    return out


def replay_kaplan_meier(users, ts, seq, types, *,
                        censor_window_us: int = 7 * 86_400_000_000):
    """Serial replay of stages/retention.py:kaplan_meier — identical
    birth/death extraction, censor cutoff, exact rational survival
    product and float conversion."""
    rows = [(u, t, s, ty) for u, t, s, ty
            in zip(users, ts, seq, types)
            if u is not None and t is not None and s is not None
            and ty is not None]
    if not rows:
        return []
    per_user: dict = {}
    for u, t, s, ty in rows:
        cur = per_user.get(u)
        if cur is None:
            per_user[u] = [t, s, ty, t]
        else:
            if (t, s) < (cur[0], cur[1]):
                cur[0], cur[1], cur[2] = t, s, ty
            if t > cur[3]:
                cur[3] = t
    global_mx = max(v[3] for v in per_user.values())
    cutoff = global_mx - censor_window_us
    agg: dict = {}
    for mn, _, ty, mx in per_user.values():
        d = (mx - mn) // 86_400_000_000
        cur = agg.setdefault((ty, d), [0, 0])
        cur[1 if mx >= cutoff else 0] += 1
    out = []
    for ty in sorted({k[0] for k in agg}):
        durs = sorted(d for (t2, d) in agg if t2 == ty)
        total = sum(sum(agg[(ty, d)]) for d in durs)
        gone = 0
        num, den = 1, 1
        for d in durs:
            deaths, cens = agg[(ty, d)]
            at_risk = total - gone
            if deaths > 0:
                num *= at_risk - deaths
                den *= at_risk
                out.append((ty, d, at_risk, deaths, cens,
                            float(num) / float(den)))
            gone += deaths + cens
    return out


def replay_set_cover(ids, texts, *, k: int, ngram: int = 1):
    """Serial replay of stages/tfidf.py:set_cover_select — identical
    md5-60 term hashing, greedy max-gain with (gain desc, id asc)
    ties, early stop on gain 0."""
    import hashlib

    def h60(s):
        return int(hashlib.md5(str(s).encode()).hexdigest()[:15], 16)

    docs = []
    for i, txt in zip(ids, texts):
        if i is None:
            continue
        toks = ("" if txt is None else txt).split()
        if ngram == 2:
            toks = [f"{a} {b}" for a, b in zip(toks, toks[1:])]
        docs.append((int(i), {h60(t) for t in toks}))
    docs.sort(key=lambda d: d[0])
    covered: set = set()
    out = []
    for rnd in range(k):
        best = None
        for i, terms in docs:
            g = len(terms - covered)
            if best is None or g > best[0]:
                best = (g, i, terms)
        if best is None or best[0] == 0:
            break
        covered |= best[2]
        out.append((rnd, best[1], best[0], len(covered)))
    return out


def replay_shapley(users, types, *, conversion_type=None):
    """Serial replay of stages/attribution.py:shapley_attribution —
    identical channel universe, exact-set coalition values as
    Fractions, factorial weights, one float division per channel."""
    from fractions import Fraction
    from math import factorial

    rows = [(u, t) for u, t in zip(users, types)
            if u is not None and t is not None]
    all_types = sorted({t for _, t in rows})
    if not all_types:
        return []
    conv = (conversion_type if conversion_type is not None
            else all_types[-1])
    channels = [t for t in all_types if t != conv]
    k = len(channels)
    bit_of = {t: i for i, t in enumerate(channels)}
    per_user: dict = {}
    for u, t in rows:
        m, c = per_user.get(u, (0, False))
        if t == conv:
            c = True
        else:
            m |= 1 << bit_of[t]
        per_user[u] = (m, c)
    n_sub = [0] * (1 << k)
    c_sub = [0] * (1 << k)
    for m, c in per_user.values():
        if m == 0:
            continue
        n_sub[m] += 1
        if c:
            c_sub[m] += 1

    def v(S):
        return (Fraction(c_sub[S], n_sub[S]) if n_sub[S]
                else Fraction(0))

    fk = factorial(k)
    out = []
    for i, ch in enumerate(channels):
        acc = Fraction(0)
        for S in range(1 << k):
            if S & (1 << i):
                continue
            sz = bin(S).count("1")
            w = Fraction(factorial(sz) * factorial(k - 1 - sz), fk)
            acc += w * (v(S | (1 << i)) - v(S))
        nw = sum(n_sub[S] for S in range(1 << k) if S & (1 << i))
        out.append((ch, nw,
                    float(acc.numerator) / float(acc.denominator)))
    return out


def replay_jenks(groups, values, *, k: int = 4):
    """Serial replay of stages/binning.py:jenks_breaks — FULL exact
    Fraction DP (no float prune at all; the engine prunes on float64
    then refines near-ties exactly, so both land on the same exact
    optimum), ties to the smallest split index.  Returns rows
    (group, cls, lo, hi, n_rows, mean, within_ss)."""
    from collections import Counter, defaultdict
    from fractions import Fraction

    per = defaultdict(Counter)
    for g, v in zip(groups, values):
        if g is None or v is None:
            continue
        per[g][int(v)] += 1

    out = []
    for g in sorted(per):
        items = sorted(per[g].items())
        vals = [v for v, _ in items]
        wts = [w for _, w in items]
        n = len(vals)
        kk = min(k, n)
        cw = [0]
        cs = [0]
        cq = [0]
        for v, w in items:
            cw.append(cw[-1] + w)
            cs.append(cs[-1] + w * v)
            cq.append(cq[-1] + w * v * v)

        def F(a, b):
            s = cs[b + 1] - cs[a]
            return Fraction(s * s, cw[b + 1] - cw[a])

        D = [[None] * n for _ in range(kk)]
        back = [[0] * n for _ in range(kk)]
        for j in range(n):
            D[0][j] = F(0, j)
        for c in range(1, kk):
            for j in range(c, n):
                best, bm = None, None
                for m in range(c, j + 1):
                    cand = D[c - 1][m - 1] + F(m, j)
                    if best is None or cand > best:
                        best, bm = cand, m
                D[c][j] = best
                back[c][j] = bm
        bounds = []
        j = n - 1
        for c in range(kk - 1, 0, -1):
            m = back[c][j]
            bounds.append((m, j))
            j = m - 1
        bounds.append((0, j))
        for ci, (a, b) in enumerate(bounds[::-1]):
            W = cw[b + 1] - cw[a]
            S1 = cs[b + 1] - cs[a]
            S2 = cq[b + 1] - cq[a]
            out.append((g, ci, vals[a], vals[b], W,
                        float(S1) / float(W),
                        float(S2) - float(S1) * float(S1) / float(W)))
    return out


def replay_k_core(ts_us, users, *, width_us: int = 3_600_000_000,
                  max_actors: int = 4096):
    """Serial replay of stages/graph.py:k_core over the hourly
    co-occurrence graph — INDEPENDENT algorithm: edges from plain
    dict/set walks, core numbers by Batagelj–Zaveršnik bucket PEELING
    (the engine iterates the h-index fixed point; both provably land
    on the same order-independent invariant).  Returns rows
    (node, degree, core) sorted by node."""
    from collections import defaultdict

    windows = defaultdict(set)
    for t, u in zip(ts_us, users):
        if t is None or u is None:
            continue
        windows[t // width_us].add(u)
    adj = defaultdict(set)
    for _, actors in sorted(windows.items()):
        if len(actors) > max_actors or len(actors) < 2:
            continue
        sa = sorted(actors)
        for i in range(len(sa)):
            for j in range(i + 1, len(sa)):
                adj[sa[i]].add(sa[j])
                adj[sa[j]].add(sa[i])

    deg, core = peel_core_numbers(adj)
    return sorted((u, deg[u], core[u]) for u in adj)


def peel_core_numbers(adj):
    """Batagelj–Zaveršnik bucket peeling over an adjacency dict —
    shared by replay_k_core and the k_core unit tests (one copy of
    the peeling tie-break).  Returns ``(deg, core)`` dicts."""
    deg = {u: len(vs) for u, vs in adj.items()}
    core = dict(deg)
    alive = set(adj)
    cur = {u: len(vs) for u, vs in adj.items()}
    k = 0
    while alive:
        u = min(alive, key=lambda x: (cur[x], x))
        k = max(k, cur[u])
        core[u] = k
        alive.remove(u)
        for v in adj[u]:
            if v in alive and cur[v] > cur[u]:
                cur[v] -= 1
    return deg, core


def replay_mahalanobis(ids, labels, vecs, *, quant_bits: int = 10,
                       proj_bits: int = 20, eps: float = 1e-9):
    """Serial replay of stages/cohesion.py:mahalanobis_outliers —
    identical arithmetic (int sufficient stats -> shared
    mahalanobis_params -> integer projection -> fixed-order d2
    chain), zero distribution.  Bit-identical by construction.
    Returns rows (vec_id, label, maha2) for non-null rows."""
    import numpy as np

    from featurebox_ray.stages.cohesion import (mahalanobis_params,
                                                quantize_half_up)

    rows = [(i, l, v) for i, l, v in zip(ids, labels, vecs)
            if l is not None and v is not None]
    if not rows:
        return []
    X = np.asarray([v for _, _, v in rows], np.float64)
    xq = quantize_half_up(X, quant_bits)
    lab = np.asarray([l for _, l, _ in rows], np.int64)
    dims = X.shape[1]
    stats = {}
    for lv in np.unique(lab):
        rows_l = xq[lab == lv]
        stats[int(lv)] = [int(rows_l.shape[0]),
                          rows_l.sum(axis=0).astype(np.int64),
                          (rows_l.T @ rows_l).reshape(-1)
                          .astype(np.int64)]
    params = mahalanobis_params(stats, dims, quant_bits=quant_bits,
                                proj_bits=proj_bits, eps=eps)
    scale = float(1 << (quant_bits + proj_bits))
    out = []
    d2_all = np.empty(len(rows), np.float64)
    for lv in np.unique(lab):
        vq, offsets, lam = params[int(lv)]
        sel = lab == lv
        si = xq[sel] @ vq
        d2 = np.zeros(int(sel.sum()), np.float64)
        for c in range(vq.shape[1]):
            sc = si[:, c].astype(np.float64) / scale - offsets[c]
            d2 = d2 + (sc * sc) / lam[c]
        d2_all[sel] = d2
    for (i, l, _), d2 in zip(rows, d2_all):
        out.append((i, int(l), float(d2)))
    return out


def replay_ridge_influence(vecs, ys, groups, *, quant_bits: int = 10,
                           y_scale: int = 1, lam_num: int = 1,
                           lam_den: int = 1):
    """Serial replay of stages/regress.py:ridge_influence — whole-
    matrix integer sufficient statistics per group, integer
    total − group subtraction, the shared ridge_solve float path.
    Bit-exact under any partitioning (q169 contract).  Returns rows
    (grp, j, coef_loo, delta)."""
    import numpy as np

    from featurebox_ray.stages.regress import ridge_solve

    rows = [(v, y, g) for v, y, g in zip(vecs, ys, groups)
            if v is not None and y is not None and g is not None]
    if not rows:
        return []
    x = np.asarray([v for v, _, _ in rows], np.float64)
    qi = np.round(x * float(1 << quant_bits)).astype(np.int64)
    ones = np.full((len(qi), 1), 1 << quant_bits, np.int64)
    qa = np.concatenate([qi, ones], axis=1)
    yq = np.round(np.asarray([y for _, y, _ in rows], np.float64)
                  * y_scale).astype(np.int64)
    gv = np.asarray([g for _, _, g in rows], np.int64)
    d1 = qa.shape[1]
    stats = {}
    for g in np.unique(gv):
        sel = gv == g
        q = qa[sel]
        stats[int(g)] = (q.T @ q, q.T @ yq[sel], int(sel.sum()))
    G_tot = sum(s[0] for s in stats.values())
    b_tot = sum(s[1] for s in stats.values())
    n_tot = sum(s[2] for s in stats.values())
    coef_full = ridge_solve(G_tot, b_tot, n_tot, quant_bits, y_scale,
                            lam_num, lam_den)
    out = []
    for g in sorted(stats):
        Gg, bg, ng = stats[g]
        if n_tot - ng == 0:
            continue
        coef = ridge_solve(G_tot - Gg, b_tot - bg, n_tot - ng,
                           quant_bits, y_scale, lam_num, lam_den)
        delta = coef - coef_full
        for j in range(d1):
            out.append((g, j, float(coef[j]), float(delta[j])))
    return out


def replay_dbscan(ids, vecs, *, threshold_num: int, min_pts: int = 4,
                  quant_bits: int = 8):
    """Serial replay of stages/dbscan.py:dbscan_embed — INDEPENDENT
    classic algorithm: O(n²) neighbor lists, BFS component expansion
    over core points, then labels canonicalized to the MIN core id
    per component; border rows take the min label among their core
    neighbors; noise rows get None.  Returns rows
    (id, cluster_or_None, is_core) sorted by id."""
    from collections import deque

    import numpy as np

    rows = [(i, v) for i, v in zip(ids, vecs) if v is not None]
    if not rows:
        return []
    rid = np.asarray([i for i, _ in rows], np.int64)
    X = np.asarray([v for _, v in rows], np.float64)
    Q = np.floor(X * float(1 << quant_bits) + 0.5).astype(np.int64)
    n = len(rid)
    dots = Q @ Q.T
    nbr = dots >= int(threshold_num)
    np.fill_diagonal(nbr, False)
    # also mask duplicate-id self pairs (ids unique in practice)
    deg = nbr.sum(axis=1)
    is_core = deg >= min_pts
    # BFS over core-core adjacency
    comp = {}
    for s in range(n):
        if not is_core[s] or s in comp:
            continue
        q = deque([s])
        comp[s] = s
        members = [s]
        while q:
            u = q.popleft()
            for v in np.flatnonzero(nbr[u] & is_core):
                if v not in comp:
                    comp[v] = s
                    members.append(v)
                    q.append(v)
    # canonical min core ID per component
    by_comp = {}
    for v, c in comp.items():
        by_comp.setdefault(c, []).append(v)
    lab = {}
    for c, vs in by_comp.items():
        m = int(min(rid[v] for v in vs))
        for v in vs:
            lab[v] = m
    out = []
    for i in range(n):
        if is_core[i]:
            out.append((int(rid[i]), lab[i], 1))
        else:
            core_nbrs = np.flatnonzero(nbr[i] & is_core)
            if len(core_nbrs):
                out.append((int(rid[i]),
                            min(lab[v] for v in core_nbrs), 0))
            else:
                out.append((int(rid[i]), None, 0))
    return sorted(out, key=lambda r: r[0])


def replay_label_propagation(ids, labels, vecs, *,
                             threshold_num: int, n_rounds: int = 5,
                             quant_bits: int = 8):
    """Serial replay of stages/labelprop.py:label_propagation —
    O(n²) neighbor matrix, sticky frontier rounds, per-row majority
    with (count desc, label asc) ties.  Returns rows
    (id, label_out_or_None, is_seed, round_labeled_or_None)."""
    import numpy as np

    rows = [(i, l, v) for i, l, v in zip(ids, labels, vecs)
            if v is not None]
    if not rows:
        return []
    rid = np.asarray([i for i, _, _ in rows], np.int64)
    lab = np.asarray([-1 if l is None else int(l)
                      for _, l, _ in rows], np.int64)
    X = np.asarray([v for _, _, v in rows], np.float64)
    Q = np.floor(X * float(1 << quant_bits) + 0.5).astype(np.int64)
    nbr = (Q @ Q.T) >= int(threshold_num)
    np.fill_diagonal(nbr, False)
    # mask duplicate-id pairs like the engine (qids == catalog ids)
    same = rid[:, None] == rid[None, :]
    nbr &= ~same
    is_seed = lab != -1
    cur = lab.copy()
    rounded = np.where(is_seed, 0, -1)
    for rnd in range(1, n_rounds + 1):
        new_lab = {}
        for i in range(len(rid)):
            if cur[i] != -1:
                continue
            votes = {}
            for j in np.flatnonzero(nbr[i]):
                if cur[j] != -1:
                    votes[int(cur[j])] = votes.get(int(cur[j]),
                                                   0) + 1
            if votes:
                new_lab[i] = min(votes,
                                 key=lambda k: (-votes[k], k))
        if not new_lab:
            break
        for i, l in new_lab.items():
            cur[i] = l
            rounded[i] = rnd
    out = []
    order = np.argsort(rid, kind="stable")
    for i in order:
        out.append((int(rid[i]),
                    None if cur[i] == -1 else int(cur[i]),
                    int(is_seed[i]),
                    None if rounded[i] == -1 else int(rounded[i])))
    return out


def replay_logrank(users, ts_us, seqs, types, *,
                   censor_window_us: int = 7 * 86_400_000_000):
    """Serial replay of stages/retention.py:logrank_test — per-user
    lifetimes from plain dict walks (birth = min (ts, seq), cohort =
    type at birth, censor = last event within the window of the
    global max), exact-Fraction U/V, z = u / sqrt(v).  Returns rows
    (cohort_a, cohort_b, n_a, n_b, u, v, z_or_None)."""
    from fractions import Fraction

    import numpy as np

    per_user = {}
    gmax = None
    for u, t, q, ty in zip(users, ts_us, seqs, types):
        if None in (u, t, q, ty):
            continue
        gmax = t if gmax is None else max(gmax, t)
        cur = per_user.get(u)
        if cur is None:
            per_user[u] = [(t, q, ty), t]
        else:
            if (t, q) < (cur[0][0], cur[0][1]):
                cur[0] = (t, q, ty)
            cur[1] = max(cur[1], t)
    if not per_user:
        return []
    cutoff = gmax - censor_window_us
    cells = {}
    for u, ((bt, _q, ty), mx) in per_user.items():
        dur = (mx - bt) // 86_400_000_000
        cens = 1 if mx >= cutoff else 0
        c = cells.setdefault((ty, dur), [0, 0])
        c[0 if not cens else 1] += 1
    cohorts = sorted({k[0] for k in cells})
    per = {c: {d: cells[(c2, d)] for (c2, d) in cells if c2 == c}
           for c in cohorts}
    totals = {c: sum(v[0] + v[1] for v in per[c].values())
              for c in cohorts}
    out = []
    for i, ca in enumerate(cohorts):
        for cb in cohorts[i + 1:]:
            U = Fraction(0)
            V = Fraction(0)
            gone_a = gone_b = 0
            for d in sorted(set(per[ca]) | set(per[cb])):
                da, ca_c = per[ca].get(d, (0, 0))
                db, cb_c = per[cb].get(d, (0, 0))
                na = totals[ca] - gone_a
                nb = totals[cb] - gone_b
                n = na + nb
                dt = da + db
                if dt > 0 and n > 1:
                    U += da - Fraction(dt * na, n)
                    V += (Fraction(dt * na, n) * Fraction(nb, n)
                          * Fraction(n - dt, n - 1))
                gone_a += da + ca_c
                gone_b += db + cb_c
            u = float(U)
            v = float(V)
            z = u / np.sqrt(v) if v > 0 else None
            out.append((ca, cb, totals[ca], totals[cb], u, v,
                        None if z is None else float(z)))
    return out


def replay_gk_tau(columns: dict, pairs):
    """Serial replay of stages/profile.py:gk_tau — dict-of-Counter
    contingency build + exact-Fraction tau.  ``columns`` maps column
    name -> list of values (None allowed).  Returns rows
    (x_col, y_col, n, tau_or_None)."""
    from collections import Counter
    from fractions import Fraction

    out = []
    for xc, yc in pairs:
        # NULL is its own category, keyed as None (no stand-in string)
        xs = [None if v is None else str(v) for v in columns[xc]]
        ys = [None if v is None else str(v) for v in columns[yc]]
        cells = Counter(zip(xs, ys))
        n = sum(cells.values())
        if n == 0:
            out.append((xc, yc, 0, None))
            continue
        nx = Counter()
        ny = Counter()
        for (x, y), c in cells.items():
            nx[x] += c
            ny[y] += c
        e_y = Fraction(sum(v * v for v in ny.values()), n)
        e_xy = Fraction(0)
        for (x, y), c in cells.items():
            e_xy += Fraction(c * c, nx[x])
        den = n - e_y
        out.append((xc, yc, n,
                    float((e_xy - e_y) / den) if den != 0 else None))
    return out


def replay_ridge_eval(vecs, ys, groups=None, *, quant_bits: int = 10,
                      y_scale: int = 1, lam_num: int = 1,
                      lam_den: int = 1, coef_bits: int = 20):
    """Serial replay of stages/regress.py:ridge_eval — same exact
    integer fit (shared ridge_solve), quantized-coefficient integer
    scoring, Python-int moment sums, identical metric expressions.
    Bit-identical (q169 contract).  Returns rows
    (group, n, mae, rmse, r2_or_None); group = -1 when groups is
    None."""
    import math

    import numpy as np

    from featurebox_ray.stages.regress import ridge_solve

    if groups is None:
        groups = [-1] * len(ys)
    rows = [(v, y, g) for v, y, g in zip(vecs, ys, groups)
            if v is not None and y is not None and g is not None]
    if not rows:
        return []
    x = np.asarray([v for v, _, _ in rows], np.float64)
    qi = np.round(x * float(1 << quant_bits)).astype(np.int64)
    ones = np.full((len(qi), 1), 1 << quant_bits, np.int64)
    qa = np.concatenate([qi, ones], axis=1)
    yq = np.round(np.asarray([y for _, y, _ in rows], np.float64)
                  * y_scale).astype(np.int64)
    coef = ridge_solve(qa.T @ qa, qa.T @ yq, len(qa), quant_bits,
                       y_scale, lam_num, lam_den)
    cq = np.round(coef * float(1 << coef_bits)).astype(np.int64)
    S = 1 << (quant_bits + coef_bits)
    pred_q = (qa @ cq) * y_scale
    e = pred_q - yq * S
    g = np.asarray([gg for _, _, gg in rows], np.int64)
    out = []
    denom = float(S) * float(y_scale)
    for gv in sorted(set(int(v) for v in g)):
        sel = g == gv
        n = int(sel.sum())
        sae = sum(int(abs(v)) for v in e[sel])
        sse = sum(int(v) * int(v) for v in e[sel])
        sy = sum(int(v) for v in yq[sel])
        syy = sum(int(v) * int(v) for v in yq[sel])
        mae = (float(sae) / float(n)) / denom
        rmse = math.sqrt(float(sse) / float(n)) / denom
        sst = n * syy - sy * sy
        r2 = (1.0 - (float(sse) * float(n))
              / (float(sst) * float(S) * float(S))
              if sst > 0 else None)
        out.append((gv, n, mae, rmse, r2))
    return out


def replay_grouped_ridge(vecs, ys, groups, *, quant_bits: int = 10,
                         y_scale: int = 1, lam_num: int = 1,
                         lam_den: int = 1):
    """Serial replay of stages/regress.py:grouped_ridge — identical
    quantization and per-group integer sufficient statistics, the
    shared ridge_solve float path per group.  Bit-identical (q169
    contract).  Returns rows (group, j, coef) sorted by (group, j)."""
    import numpy as np

    from featurebox_ray.stages.regress import ridge_solve

    rows = [(v, y, g) for v, y, g in zip(vecs, ys, groups)
            if v is not None and y is not None and g is not None]
    if not rows:
        return []
    x = np.asarray([v for v, _, _ in rows], np.float64)
    qi = np.round(x * float(1 << quant_bits)).astype(np.int64)
    ones = np.full((len(qi), 1), 1 << quant_bits, np.int64)
    qa = np.concatenate([qi, ones], axis=1)
    yq = np.round(np.asarray([y for _, y, _ in rows], np.float64)
                  * y_scale).astype(np.int64)
    g = np.asarray([gg for _, _, gg in rows], np.int64)
    out = []
    for gv in sorted(set(int(v) for v in g)):
        sel = g == gv
        sub = qa[sel]
        coef = ridge_solve(sub.T @ sub, sub.T @ yq[sel],
                           int(sel.sum()), quant_bits, y_scale,
                           lam_num, lam_den)
        for j, cf in enumerate(coef):
            out.append((gv, j, float(cf)))
    return out


def replay_learning_curve(vecs, ys, ids, *, n_train_buckets: int = 8,
                          quant_bits: int = 10, y_scale: int = 1,
                          lam_num: int = 1, lam_den: int = 1,
                          coef_bits: int = 20):
    """Serial replay of stages/regress.py:learning_curve — identical
    Knuth bucketing, per-bucket integer sufficient statistics,
    prefix-sum nested training sets, shared ridge_solve, quantized-
    coefficient integer scoring on the holdout with Python-int moment
    sums.  Bit-identical.  Returns rows
    (k, n_train, n_test, rmse, r2_or_None)."""
    import math

    import numpy as np

    from featurebox_ray.stages.regress import ridge_solve
    from featurebox_ray.stages.sample import knuth_hash

    K = int(n_train_buckets)
    rows = [(v, y, i) for v, y, i in zip(vecs, ys, ids)
            if v is not None and y is not None and i is not None]
    x = np.asarray([v for v, _, _ in rows], np.float64)
    qi = np.round(x * float(1 << quant_bits)).astype(np.int64)
    ones = np.full((len(qi), 1), 1 << quant_bits, np.int64)
    qa = np.concatenate([qi, ones], axis=1)
    yq = np.round(np.asarray([y for _, y, _ in rows], np.float64)
                  * y_scale).astype(np.int64)
    ids_a = np.asarray([i for _, _, i in rows], np.int64)
    bk = (knuth_hash(ids_a) % (K + 1)).astype(np.int64)
    d1 = qa.shape[1]
    g_acc = np.zeros((d1, d1), np.int64)
    b_acc = np.zeros(d1, np.int64)
    n_acc = 0
    hold = bk == K
    qh, yh = qa[hold], yq[hold]
    S = 1 << (quant_bits + coef_bits)
    out = []
    for k in range(1, K + 1):
        sel = bk == (k - 1)
        sub = qa[sel]
        g_acc = g_acc + sub.T @ sub
        b_acc = b_acc + sub.T @ yq[sel]
        n_acc += int(sel.sum())
        coef = ridge_solve(g_acc, b_acc, n_acc, quant_bits, y_scale,
                           lam_num, lam_den)
        cq = np.round(coef * float(1 << coef_bits)).astype(np.int64)
        pred_q = (qh @ cq) * y_scale
        e = pred_q - yh * S
        n = len(yh)
        sae = sum(int(abs(v)) for v in e)
        sse = sum(int(v) * int(v) for v in e)
        sy = sum(int(v) for v in yh)
        syy = sum(int(v) * int(v) for v in yh)
        denom = float(S) * float(y_scale)
        rmse = math.sqrt(float(sse) / float(n)) / denom
        sst = n * syy - sy * sy
        r2 = (1.0 - (float(sse) * float(n))
              / (float(sst) * float(S) * float(S))
              if sst > 0 else None)
        out.append((k, n_acc, n, rmse, r2))
    return out


def replay_conformal(vecs, ys, ids, *, alpha_num: int = 1,
                     alpha_den: int = 10, n_buckets: int = 4,
                     cal_bucket: int = 2, test_bucket: int = 3,
                     quant_bits: int = 10, y_scale: int = 1,
                     lam_num: int = 1, lam_den: int = 1,
                     coef_bits: int = 20):
    """Serial replay of stages/regress.py:conformal_intervals —
    identical Knuth split, integer ridge fit on train, exact
    order-statistic conformal threshold on calibration, integer
    coverage count on test.  Bit-identical.  Returns one row
    (n_train, n_cal, n_test, q_hat, coverage, target)."""
    import numpy as np

    from featurebox_ray.stages.regress import ridge_solve
    from featurebox_ray.stages.sample import knuth_hash

    rows = [(v, y, i) for v, y, i in zip(vecs, ys, ids)
            if v is not None and y is not None and i is not None]
    x = np.asarray([v for v, _, _ in rows], np.float64)
    qi = np.round(x * float(1 << quant_bits)).astype(np.int64)
    ones = np.full((len(qi), 1), 1 << quant_bits, np.int64)
    qa = np.concatenate([qi, ones], axis=1)
    yq = np.round(np.asarray([y for _, y, _ in rows], np.float64)
                  * y_scale).astype(np.int64)
    ids_a = np.asarray([i for _, _, i in rows], np.int64)
    bk = (knuth_hash(ids_a) % n_buckets).astype(np.int64)
    tr = (bk != cal_bucket) & (bk != test_bucket)
    sub = qa[tr]
    coef = ridge_solve(sub.T @ sub, sub.T @ yq[tr], int(tr.sum()),
                       quant_bits, y_scale, lam_num, lam_den)
    cq = np.round(coef * float(1 << coef_bits)).astype(np.int64)
    S = 1 << (quant_bits + coef_bits)
    ae = np.abs((qa @ cq) * y_scale - yq * S)
    cal = np.sort(ae[bk == cal_bucket])
    n_cal = len(cal)
    idx = -((-(n_cal + 1) * (alpha_den - alpha_num)) // alpha_den)
    q_int = int(cal[idx - 1])
    te = ae[bk == test_bucket]
    n_test = len(te)
    cov = int((te <= q_int).sum())
    denom = float(S) * float(y_scale)
    return [(int(tr.sum()), n_cal, n_test, float(q_int) / denom,
             float(cov) / float(n_test),
             float(alpha_den - alpha_num) / float(alpha_den))]


def replay_markov_attribution(keys, tss, orders, types, *,
                              conv_type: str):
    """Serial replay of stages/attribution.py:markov_attribution —
    per-key journeys rebuilt with plain Python, the identical exact
    transition-count dict, the SHARED _markov_solve float path.
    Bit-identical.  Returns rows (channel, removal_effect, share)."""
    from featurebox_ray.stages.attribution import (CONV, NULLA, START,
                                                   _markov_solve)

    rows = [(k, t, o, ty) for k, t, o, ty in
            zip(keys, tss, orders, types)
            if k is not None and t is not None and o is not None
            and ty is not None]
    by_key: dict = {}
    for k, t, o, ty in rows:
        by_key.setdefault(k, []).append((t, o, ty))
    counts: dict = {}

    def add(f, t):
        counts[(f, t)] = counts.get((f, t), 0) + 1

    for k in by_key:
        seq = [ty for _, _, ty in sorted(by_key[k])]
        path = []
        conv = False
        for ty in seq:
            if ty == conv_type:
                conv = True
                break
            path.append(ty)
        prev = START
        for ty in path:
            add(prev, ty)
            prev = ty
        if conv:
            add(prev, CONV)
        elif path:
            add(prev, NULLA)
    out = _markov_solve(counts)
    return list(zip(out["channel"].to_pylist(),
                    out["removal_effect"].to_pylist(),
                    out["share"].to_pylist()))


def replay_cdc_chunks(doc_ids, texts, *, window=16, mask_bits=7,
                      max_len=800):
    """Independent serial CDC replay (python rolling hash) shared by
    the q316/q317 fixtures — returns a pyarrow Table
    (doc_id, chunk_idx, start, length, chunk_hash:int64)."""
    import pyarrow as pa

    A = 0x100000001B3
    M = (1 << 64) - 1
    powW = pow(A, window - 1, 1 << 64)
    rows = {"doc_id": [], "chunk_idx": [], "start": [],
            "length": [], "chunk_hash": []}
    for did, txt in zip(doc_ids, texts):
        if did is None or txt is None:
            continue
        bs = txt.encode("utf-8")
        h, cuts = 0, []
        for e in range(1, len(bs) + 1):
            if e <= window:
                h = (h * A + bs[e - 1]) & M
            else:
                h = ((h - bs[e - window - 1] * powW) * A
                     + bs[e - 1]) & M
            if e >= window and e < len(bs) \
                    and (h & ((1 << mask_bits) - 1)) == 0:
                cuts.append(e)
        bounds = [0] + cuts + [len(bs)]
        segs = []
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s <= max_len:
                if e > s:
                    segs.append((s, e))
            else:
                x = s
                while x < e:
                    segs.append((x, min(x + max_len, e)))
                    x += max_len
        for ci, (s, e) in enumerate(segs):
            hh = 0
            for q in range(s, e):
                hh = (hh * A + bs[q]) & M
            rows["doc_id"].append(did)
            rows["chunk_idx"].append(ci)
            rows["start"].append(s)
            rows["length"].append(e - s)
            rows["chunk_hash"].append(
                hh - (1 << 64) if hh >= (1 << 63) else hh)
    return pa.table({
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
        "chunk_idx": pa.array(rows["chunk_idx"], pa.int64()),
        "start": pa.array(rows["start"], pa.int64()),
        "length": pa.array(rows["length"], pa.int64()),
        "chunk_hash": pa.array(rows["chunk_hash"], pa.int64())})
