"""Feature-subset search drivers — the reference's signature fan-out
workloads (SURVEY.md §2.9) re-expressed as Ray task/actor fan-outs.

The (X, y) matrix is put in the object store ONCE; every scoring task reads
it zero-copy.  Candidate generation and argmax stay on the driver (tiny);
only the embarrassingly-parallel CV scoring fans out — the same split the
reference makes with joblib (featurebox/tools/tool.py:78-123).

* :class:`Exhaustion`   — score all C(n,k) subsets
  (ref selection/exhaustion.py:31-159, fan-out at 100-103)
* :class:`BackForward`  — randomized greedy add-then-prune local search,
  parallel restarts (ref selection/backforward.py:39-211)
* :class:`GASelect`     — binary-mask GA: tournament select, two-point
  crossover, shuffle mutation, plateau early-stop
  (ref selection/ga.py:13-147)
* :func:`corr_prune`    — corr-matrix threshold clusters -> greedy
  deterministic representative pick (ref selection/corr.py:128-182; the
  reference picks randomly with random.seed(0), we pick min-index —
  documented deviation, deterministic)
"""

from __future__ import annotations

import itertools
from math import erf
from typing import List, Optional, Sequence, Tuple

import numpy as np
import ray

from .models import Ridge, cv_score, r2_score


def _score_batch_remote():
    @ray.remote
    def score_batch(x_ref, y_ref, subsets: List[Tuple[int, ...]],
                    alpha: float, k: int, seed: int) -> List[float]:
        X, y = x_ref, y_ref  # ray auto-derefs ObjectRef args
        return [cv_score(X[:, list(s)], y, alpha=alpha, k=k, seed=seed)
                for s in subsets]

    return score_batch


def resolve_model(model):
    """``model`` -> zero-arg factory: a quick_models() /
    quick_models_clf() name, a factory callable, or None (the default
    Ridge path)."""
    if model is None or callable(model):
        return model
    from .models import quick_models, quick_models_clf

    zoo = quick_models()
    clf_zoo = quick_models_clf()
    if model in zoo:
        return zoo[model]
    if model in clf_zoo:
        return clf_zoo[model]
    raise ValueError(f"unknown model {model!r}; one of "
                     f"{sorted(zoo) + sorted(clf_zoo)}")


def default_scoring(model) -> str:
    """``"accuracy"`` for classifier-zoo names, else ``"r2"`` (callables
    and regression names).  Callers override with an explicit scoring."""
    from .models import quick_models_clf

    return ("accuracy" if isinstance(model, str)
            and model in quick_models_clf() else "r2")


def _score_batch_model_remote():
    from .models import cv_score_any

    @ray.remote
    def score_batch_model(x_ref, y_ref, subsets: List[Tuple[int, ...]],
                         factory, k: int, seed: int,
                         scoring: str = "r2") -> List[float]:
        X, y = x_ref, y_ref
        return [cv_score_any(factory, X[:, list(s)], y, k=k, seed=seed,
                             scoring=scoring)
                for s in subsets]

    return score_batch_model


class Exhaustion:
    """Score every subset of size in ``n_select``; keep the argmax.

    ``model``: optional — a :func:`featurebox_ray.selection.models.
    quick_models` / ``quick_models_clf`` name (e.g. ``"DTR"``, ``"GBR"``,
    ``"LogR"``, ``"TreeC"``) or a zero-arg factory; defaults to the
    closed-form Ridge path (the reference scores its zoo the same way,
    exhaustion.py:74-87).  ``scoring``: ``"r2"`` (shuffled k-fold) or
    ``"accuracy"``/``"balanced_accuracy"`` (stratified k-fold, the
    reference's dict_method_clf protocol, quickmethod.py:300-320);
    default inferred from the model name (classifier names score
    accuracy)."""

    def __init__(self, *, n_select: Sequence[int] = (2, 3), alpha: float = 1e-6,
                 k: int = 5, seed: int = 0, batch_size: int = 64,
                 model=None, scoring: Optional[str] = None):
        self.n_select = tuple(n_select)
        self.alpha, self.k, self.seed = alpha, k, seed
        self.batch_size = batch_size
        self.model = model
        self.scoring = scoring
        self.best_subset_: Optional[Tuple[int, ...]] = None
        self.best_score_: float = -np.inf
        self.all_scores_: List[Tuple[Tuple[int, ...], float]] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Exhaustion":
        n = X.shape[1]
        cands: List[Tuple[int, ...]] = []
        for size in self.n_select:
            cands.extend(itertools.combinations(range(n), size))
        x_ref, y_ref = ray.put(np.ascontiguousarray(X)), ray.put(np.ascontiguousarray(y))
        factory = resolve_model(self.model)
        futs = []
        if factory is None:
            score_batch = _score_batch_remote()
            for i in range(0, len(cands), self.batch_size):
                chunk = cands[i:i + self.batch_size]
                futs.append(score_batch.remote(x_ref, y_ref, chunk,
                                               self.alpha, self.k,
                                               self.seed))
        else:
            scoring = self.scoring or default_scoring(self.model)
            score_batch = _score_batch_model_remote()
            for i in range(0, len(cands), self.batch_size):
                chunk = cands[i:i + self.batch_size]
                futs.append(score_batch.remote(x_ref, y_ref, chunk,
                                               factory, self.k, self.seed,
                                               scoring))
        scores = [s for batch in ray.get(futs) for s in batch]
        self.all_scores_ = list(zip(cands, scores))
        best = int(np.argmax(scores))
        self.best_subset_, self.best_score_ = cands[best], scores[best]
        return self

    @property
    def support_(self) -> Optional[np.ndarray]:
        return np.asarray(self.best_subset_) if self.best_subset_ else None


class BackForward:
    """Greedy add-then-prune with tolerance; ``n_restarts`` independent
    seeded restarts run as parallel Ray tasks (the reference parallelizes
    the CV outer loop the same way, backforward.py:367-371)."""

    def __init__(self, *, n_restarts: int = 4, max_features: Optional[int] = None,
                 tol: float = 1e-4, alpha: float = 1e-6, k: int = 5, seed: int = 0):
        self.n_restarts = n_restarts
        self.max_features = max_features
        self.tol, self.alpha, self.k, self.seed = tol, alpha, k, seed
        self.best_subset_: Optional[Tuple[int, ...]] = None
        self.best_score_: float = -np.inf

    @staticmethod
    def _search(X, y, seed, max_features, tol, alpha, k) -> Tuple[Tuple[int, ...], float]:
        rng = np.random.default_rng(seed)
        n = X.shape[1]
        max_features = max_features or n
        current: List[int] = []
        score = -np.inf
        improved = True
        while improved:
            improved = False
            # forward: try adding each remaining feature (randomized order)
            remaining = [j for j in range(n) if j not in current]
            rng.shuffle(remaining)
            for j in remaining:
                if len(current) >= max_features:
                    break
                s = cv_score(X[:, current + [j]], y, alpha=alpha, k=k, seed=0)
                if s > score + tol:
                    current.append(j)
                    score = s
                    improved = True
            # backward: try dropping each current feature
            for j in list(current):
                if len(current) <= 1:
                    break
                trial = [c for c in current if c != j]
                s = cv_score(X[:, trial], y, alpha=alpha, k=k, seed=0)
                if s > score + tol:
                    current = trial
                    score = s
                    improved = True
        return tuple(sorted(current)), score

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BackForward":
        search = ray.remote(BackForward._search)
        x_ref, y_ref = ray.put(np.ascontiguousarray(X)), ray.put(np.ascontiguousarray(y))
        futs = [search.remote(x_ref, y_ref, self.seed + i, self.max_features,
                              self.tol, self.alpha, self.k)
                for i in range(self.n_restarts)]
        results = ray.get(futs)
        for subset, score in results:
            if score > self.best_score_:
                self.best_subset_, self.best_score_ = subset, score
        return self


class BackForwardCV:
    """Per-fold BackForward with best-fold-support selection — the
    reference's ``BackForwardCV`` (selection/backforward.py:252-423): one
    independent add/prune search runs on each CV fold's TRAIN split (fold
    fan-out as Ray tasks, mirroring the reference's parallelized
    ``cv.split`` loop at :367-371), each fold's selected support is scored
    on its TEST split, and the best fold's support wins (``support_`` =
    ``support_cv[argmax(score_cv)]``); the final model refits on the full
    data restricted to that support."""

    def __init__(self, *, cv: int = 5, max_features: Optional[int] = None,
                 tol: float = 1e-4, alpha: float = 1e-6, k: int = 3,
                 seed: int = 0):
        self.cv = cv
        self.max_features = max_features
        self.tol, self.alpha, self.k, self.seed = tol, alpha, k, seed
        self.support_cv: List[Tuple[int, ...]] = []
        self.score_cv: List[float] = []
        self.support_: Optional[Tuple[int, ...]] = None
        self.score_: float = -np.inf
        self.estimator_: Optional[Ridge] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BackForwardCV":
        from .models import kfold_indices

        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)

        @ray.remote
        def fold_fit(x_ref, y_ref, train, test, seed, max_features, tol,
                     alpha, k):
            sub, _ = BackForward._search(x_ref[train], y_ref[train], seed,
                                         max_features, tol, alpha, k)
            m = Ridge(alpha).fit(x_ref[train][:, list(sub)], y_ref[train])
            s = r2_score(y_ref[test], m.predict(x_ref[test][:, list(sub)]))
            return sub, float(s)

        x_ref, y_ref = ray.put(X), ray.put(y)
        futs = [fold_fit.remote(x_ref, y_ref, train, test, self.seed + i,
                                self.max_features, self.tol, self.alpha,
                                self.k)
                for i, (train, test) in enumerate(
                    kfold_indices(len(y), self.cv, self.seed))]
        results = ray.get(futs)
        self.support_cv = [r[0] for r in results]
        self.score_cv = [r[1] for r in results]
        best = int(np.argmax(self.score_cv))
        self.support_ = self.support_cv[best]
        self.score_ = self.score_cv[best]
        self.estimator_ = Ridge(self.alpha).fit(X[:, list(self.support_)], y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        assert self.estimator_ is not None, "fit first"
        return self.estimator_.predict(
            np.asarray(X, float)[:, list(self.support_)])


class GASelect:
    """Binary-mask genetic search with fitness fan-out per generation."""

    def __init__(self, *, pop: int = 40, gens: int = 30, cx_prob: float = 0.7,
                 mut_prob: float = 0.2, tournament: int = 3, plateau: int = 10,
                 min_features: int = 1, alpha: float = 1e-6, k: int = 5,
                 seed: int = 0, batch_size: int = 16):
        self.pop, self.gens = pop, gens
        self.cx_prob, self.mut_prob = cx_prob, mut_prob
        self.tournament, self.plateau = tournament, plateau
        self.min_features = min_features
        self.alpha, self.k, self.seed = alpha, k, seed
        self.batch_size = batch_size
        self.best_subset_: Optional[Tuple[int, ...]] = None
        self.best_score_: float = -np.inf
        self.history_: List[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GASelect":
        rng = np.random.default_rng(self.seed)
        n = X.shape[1]
        pop = (rng.random((self.pop, n)) < 0.3)

        def repair(ind):
            # enforce min_features: one random flip may hit an already-set
            # bit (or still leave the mask short) — add UNSET positions
            # until the floor holds
            while ind.sum() < self.min_features:
                unset = np.flatnonzero(~ind)
                if unset.size == 0:  # min_features >= n: all selected
                    break
                ind[rng.choice(unset)] = True

        for ind in pop:
            repair(ind)
        x_ref, y_ref = ray.put(np.ascontiguousarray(X)), ray.put(np.ascontiguousarray(y))
        score_batch = _score_batch_remote()

        def evaluate(masks: np.ndarray) -> np.ndarray:
            subsets = [tuple(np.flatnonzero(m)) for m in masks]
            futs = []
            for i in range(0, len(subsets), self.batch_size):
                futs.append(score_batch.remote(
                    x_ref, y_ref, subsets[i:i + self.batch_size],
                    self.alpha, self.k, 0))
            return np.array([s for b in ray.get(futs) for s in b])

        fit = evaluate(pop)
        stale = 0
        for g in range(self.gens):
            best_i = int(np.argmax(fit))
            if fit[best_i] > self.best_score_ + 1e-12:
                self.best_score_ = float(fit[best_i])
                self.best_subset_ = tuple(np.flatnonzero(pop[best_i]))
                stale = 0
            else:
                stale += 1
            self.history_.append(self.best_score_)
            if stale >= self.plateau:
                break
            # tournament selection
            idx = rng.integers(0, self.pop, (self.pop, self.tournament))
            winners = idx[np.arange(self.pop), np.argmax(fit[idx], axis=1)]
            new = pop[winners].copy()
            # two-point crossover on pairs
            for a in range(0, self.pop - 1, 2):
                if rng.random() < self.cx_prob:
                    lo, hi = sorted(rng.integers(0, n, 2))
                    tmp = new[a, lo:hi].copy()
                    new[a, lo:hi] = new[a + 1, lo:hi]
                    new[a + 1, lo:hi] = tmp
            # shuffle mutation: swap two positions
            for a in range(self.pop):
                if rng.random() < self.mut_prob:
                    i1, i2 = rng.integers(0, n, 2)
                    new[a, [i1, i2]] = new[a, [i2, i1]]
                repair(new[a])
            pop = new
            fit = evaluate(pop)
        return self


def corr_prune(corr: np.ndarray, threshold: float = 0.9) -> List[int]:
    """Greedy deterministic prune: scan features in index order, keep a
    feature iff |corr| with every already-kept feature is below the
    threshold.  Returns kept indices."""
    p = corr.shape[0]
    kept: List[int] = []
    for j in range(p):
        if all(abs(corr[j, k]) < threshold for k in kept):
            kept.append(j)
    return kept


class Ego:
    """Efficient-global-optimization ranker (ref ego/ego.py:37-119):
    bootstrap ensemble of Ridge models fit as parallel tasks → mean/std per
    search point → expected improvement → argsort.  The search space is
    scored as a Dataset when large; here driver-side numpy (small grids)."""

    def __init__(self, *, n_models: int = 16, alpha: float = 1e-6, seed: int = 0):
        self.n_models = n_models
        self.alpha = alpha
        self.seed = seed
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None
        self.ei_: Optional[np.ndarray] = None
        self.rank_: Optional[np.ndarray] = None

    def fit_predict(self, X, y, searchspace) -> np.ndarray:
        @ray.remote
        def boot_fit_predict(x_ref, y_ref, space_ref, seed, alpha):
            rng = np.random.default_rng(seed)
            idx = rng.integers(0, len(y_ref), len(y_ref))
            m = Ridge(alpha).fit(x_ref[idx], y_ref[idx])
            return m.predict(space_ref)

        x_ref, y_ref = ray.put(np.asarray(X, float)), ray.put(np.asarray(y, float))
        s_ref = ray.put(np.asarray(searchspace, float))
        preds = np.stack(ray.get([
            boot_fit_predict.remote(x_ref, y_ref, s_ref, self.seed + i, self.alpha)
            for i in range(self.n_models)
        ]))
        self.mean_ = preds.mean(axis=0)
        self.std_ = preds.std(axis=0)
        y_best = float(np.max(y))
        # closed-form EI under normal assumption (no scipy: use erf)
        z = np.where(self.std_ > 0, (self.mean_ - y_best) / np.where(self.std_ > 0, self.std_, 1), 0.0)
        phi = np.exp(-0.5 * z ** 2) / np.sqrt(2 * np.pi)
        Phi = 0.5 * (1 + np.array([erf(v / np.sqrt(2)) for v in z]))
        self.ei_ = np.where(self.std_ > 0,
                            (self.mean_ - y_best) * Phi + self.std_ * phi, 0.0)
        self.rank_ = np.argsort(-self.ei_)
        return self.rank_


def pareto_front_points(Y: np.ndarray, sign=None) -> np.ndarray:
    """Indices of the (maximization) Pareto front of training objectives
    (ref ego/multiplyego.py:121-138 ``pareto_front_point``: a point is on
    the front iff no other point beats it in EVERY objective)."""
    Y = np.asarray(Y, float)
    if sign is not None:
        Y = Y * np.asarray(sign, float)
    front = []
    for i in range(len(Y)):
        diff = Y[i][None, :] - Y
        if np.min(np.max(diff, axis=1)) >= 0:
            front.append(i)
    return np.asarray(front, dtype=np.int64)


class MultiEgo:
    """Multi-objective EGO (clean-room analog of the reference's
    ``MutilplyEgo``, ego/multiplyego.py:28-268): one bootstrap Ridge
    ensemble PER OBJECTIVE (optionally on its own feature slice), a
    Pareto front of the training objectives, then

    * ``Pi`` — fraction of joint bootstrap draws NOT strictly dominated by
      any front point (ref ``CalculatePi``: ``max(draw - front) < 0`` in
      every objective = dominated),
    * ``L``  — distance proxy: |mean prediction - front point|, min over
      front points then over objectives (ref ``CalculateL``),
    * ``Ei = L * Pi`` (ref ``CalculateEi``), ranked descending.

    Bootstrap fits fan out as Ray tasks over the broadcast search space,
    like :class:`Ego`."""

    def __init__(self, *, n_models: int = 16, alpha: float = 1e-6,
                 seed: int = 0):
        self.n_models = n_models
        self.alpha = alpha
        self.seed = seed
        self.mean_: Optional[np.ndarray] = None  # (n_grid, d)
        self.std_: Optional[np.ndarray] = None
        self.pi_: Optional[np.ndarray] = None
        self.l_: Optional[np.ndarray] = None
        self.ei_: Optional[np.ndarray] = None
        self.rank_: Optional[np.ndarray] = None
        self.front_: Optional[np.ndarray] = None

    def fit_predict(self, X, Y, searchspace, *, feature_slices=None,
                    sign=None) -> np.ndarray:
        X = np.asarray(X, float)
        Y = np.asarray(Y, float)
        space = np.asarray(searchspace, float)
        n, d = Y.shape
        if feature_slices is None:
            feature_slices = [tuple(range(X.shape[1]))] * d

        @ray.remote
        def boot_fit_predict(x_ref, y_ref, space_ref, seed, alpha):
            rng = np.random.default_rng(seed)
            idx = rng.integers(0, len(y_ref), len(y_ref))
            m = Ridge(alpha).fit(x_ref[idx], y_ref[idx])
            return m.predict(space_ref)

        # preds[j][b] = bootstrap b of objective j over the grid
        futs = []
        for j in range(d):
            sl = list(feature_slices[j])
            x_ref = ray.put(X[:, sl])
            y_ref = ray.put(Y[:, j])
            s_ref = ray.put(space[:, sl])
            futs.append([
                boot_fit_predict.remote(x_ref, y_ref, s_ref,
                                        self.seed + 1000 * j + b, self.alpha)
                for b in range(self.n_models)])
        preds = np.stack([np.stack(ray.get(f)) for f in futs])  # (d, B, g)
        self.mean_ = preds.mean(axis=1).T  # (g, d)
        self.std_ = preds.std(axis=1).T

        front_idx = pareto_front_points(Y, sign)
        self.front_ = Y[front_idx]  # (f, d), raw scale for reporting

        # Pi: per joint draw b, grid point g: dominated iff some front
        # point beats it strictly in every objective — tested in
        # maximize-scale (x sign), so sign=[1,-1] minimized objectives
        # dominate in the right direction (L is sign-invariant: |±1|=1)
        sgn = np.ones(d) if sign is None else np.asarray(sign, float)
        draws = preds.transpose(1, 2, 0) * sgn[None, None, :]  # (B, g, d)
        dominated = np.zeros(draws.shape[:2], dtype=bool)
        for f in self.front_ * sgn:
            dominated |= np.all(draws < f[None, None, :], axis=2)
        self.pi_ = 1.0 - dominated.mean(axis=0)

        # L: |mean - front|, min over front points then objectives
        diffs = np.abs(self.mean_[None, :, :] - self.front_[:, None, :])
        self.l_ = np.min(np.min(diffs, axis=0), axis=1)

        self.ei_ = self.l_ * self.pi_
        self.rank_ = np.argsort(-self.ei_)
        return self.rank_
