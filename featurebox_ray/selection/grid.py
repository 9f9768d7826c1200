"""Hyper-parameter grid search + estimator packing — the reference wraps
every zoo entry in ``GridSearchCV(me, cv=cv, param_grid=..., scoring=...)``
and ``method_pack`` builds the estimator list the selection drivers
iterate (reference selection/quickmethod.py:316-346; each registry entry
is ``[estimator, cv, scoring, param_grid]``, quickmethod.py:44-294).

The engine analog evaluates the grid as a Ray task fan-out: ``X``/``y``
are ``ray.put`` once and every (param-combo) task computes its own k-fold
CV score — the same broadcast-once / score-in-tasks shape as
``Exhaustion``.  Everything is deterministic: grids expand in declaration
order (``itertools.product`` over sorted-as-given keys), ties go to the
earliest combo, folds are the deterministic splitters in
:mod:`featurebox_ray.selection.models`.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np
import ray

from .models import cv_score_any, quick_models, quick_models_clf


def expand_grid(param_grid) -> list:
    """sklearn-shaped grid -> deterministic list of param dicts.

    Accepts a dict of lists or a list of dicts of lists (the reference's
    grids are the list form).  Combos expand in declaration order —
    ``itertools.product`` over the dict's own key order — so the result
    is reproducible and tie-breaking is well-defined."""
    if isinstance(param_grid, dict):
        param_grid = [param_grid]
    combos = []
    for block in param_grid:
        if not block:
            combos.append({})
            continue
        keys = list(block)
        for values in itertools.product(*(block[k] for k in keys)):
            combos.append(dict(zip(keys, values)))
    return combos


def _remote_cv_eval():
    """The remote CV scorer, defined when a Ray sweep first needs it."""
    @ray.remote(num_cpus=1)
    def eval_combo(X, y, cls, base, combo, cv, scoring, seed):
        merged = {**base, **combo}
        return cv_score_any(lambda: cls(**merged), X, y,
                            k=cv, scoring=scoring, seed=seed)

    return eval_combo


class GridSearchCV:
    """Duck-typed ``GridSearchCV(estimator, param_grid, cv, scoring)``.

    ``estimator`` is a zoo model INSTANCE (its ``get_params()`` provide
    the non-gridded defaults; a fresh model is constructed per combo per
    fold — never refit in place).  ``fit`` broadcasts X/y to the object
    store once and scores every combo in parallel Ray tasks
    (``parallel="ray"``, the default when Ray is initialised; pass
    ``parallel=None`` to force the serial path, e.g. inside an actor
    that must not nest tasks).  After the sweep the best combo (highest
    mean CV score, earliest-in-grid tie-break) is refit on the full data
    into ``best_estimator_``."""

    def __init__(self, estimator, param_grid, *, cv: int = 5,
                 scoring: str = "r2", seed: int = 0,
                 parallel: Optional[str] = "ray"):
        self.estimator = estimator
        self.param_grid = param_grid
        self.cv = cv
        self.scoring = scoring
        self.seed = seed
        self.parallel = parallel
        self.best_estimator_ = None
        self.best_params_ = None
        self.best_score_ = None
        self.cv_results_ = None

    # -- params (Pipeline compat) ---------------------------------------
    def get_params(self, deep: bool = True) -> dict:
        return {"estimator": self.estimator, "param_grid": self.param_grid,
                "cv": self.cv, "scoring": self.scoring, "seed": self.seed,
                "parallel": self.parallel}

    def set_params(self, **params) -> "GridSearchCV":
        for k, v in params.items():
            if k not in self.get_params():
                raise ValueError(f"unknown parameter {k!r}")
            setattr(self, k, v)
        return self

    # -- search ----------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GridSearchCV":
        X = np.asarray(X)
        y = np.asarray(y)
        cls = type(self.estimator)
        base = self.estimator.get_params()
        combos = expand_grid(self.param_grid)
        if not combos:
            raise ValueError("empty param_grid")

        use_ray = self.parallel == "ray" and len(combos) > 1
        if use_ray:
            if not ray.is_initialized():
                use_ray = False
        if use_ray:
            eval_combo = _remote_cv_eval()
            Xr, yr = ray.put(X), ray.put(y)
            scores = ray.get([
                eval_combo.remote(Xr, yr, cls, base, c, self.cv,
                                  self.scoring, self.seed)
                for c in combos])
        else:
            scores = [cv_score_any(lambda: cls(**{**base, **c}), X, y,
                                   k=self.cv, scoring=self.scoring,
                                   seed=self.seed)
                      for c in combos]

        scores = np.asarray(scores, np.float64)
        best = int(np.argmax(scores))        # first max = earliest combo
        self.cv_results_ = {"params": combos,
                            "mean_test_score": scores.tolist()}
        self.best_params_ = combos[best]
        self.best_score_ = float(scores[best])
        self.best_estimator_ = cls(**{**base, **combos[best]}).fit(X, y)
        return self

    # -- estimator delegation ---------------------------------------------
    def predict(self, X):
        if self.best_estimator_ is None:
            raise RuntimeError("GridSearchCV not fitted")
        return self.best_estimator_.predict(X)

    def score(self, X, y):
        if self.best_estimator_ is None:
            raise RuntimeError("GridSearchCV not fitted")
        # the sweep selected by self.scoring; report the same metric
        # (integer class labels must not fall through to r2 of label
        # codes just because their dtype is numeric)
        from .models import (accuracy_score, balanced_accuracy_score,
                             r2_score)

        pred = np.asarray(self.predict(X))
        y = np.asarray(y)
        if self.scoring == "balanced_accuracy":
            return balanced_accuracy_score(y, pred)
        if self.scoring == "accuracy" or hasattr(self.best_estimator_,
                                                 "classes_"):
            return accuracy_score(y, pred)
        if hasattr(self.best_estimator_, "score"):
            return self.best_estimator_.score(X, y)
        if pred.dtype.kind in "OUSb" or y.dtype.kind in "OUSb":
            return accuracy_score(y, pred)
        return r2_score(y, pred)


# Default per-entry grids (the analog of the reference's registered
# param_grid per zoo key, quickmethod.py:44-294 — shrunk to the
# deterministic numpy zoo's parameter surfaces).
_GRIDS_REG = {
    "OLS": {"alpha": [0.0]},
    "Ridge": {"alpha": [100.0, 10.0, 1.0, 0.1, 0.01, 1e-3, 1e-4]},
    "KNR": {"n_neighbors": [3, 4, 5, 6, 7],
            "weights": ["uniform", "distance"]},
    "KNR-dist": {"n_neighbors": [3, 4, 5, 6, 7],
                 "weights": ["distance"]},
    "KRR": {"alpha": [100.0, 10.0, 1.0, 0.1, 0.01, 1e-3]},
    "DTR": {"max_depth": [3, 4, 5, 6], "min_samples_leaf": [2, 5, 10]},
    "GBR": {"n_estimators": [20, 50], "learning_rate": [0.1, 0.05],
            "max_depth": [2, 3]},
}

_GRIDS_CLF = {
    "LogR": {"C": [100.0, 10.0, 2.0, 1.0, 0.5, 0.1, 0.01]},
    "KNC": {"n_neighbors": [3, 4, 5, 6, 7],
            "weights": ["uniform", "distance"]},
    "KNC-dist": {"n_neighbors": [3, 4, 5, 6, 7],
                 "weights": ["distance"]},
    "TreeC": {"max_depth": [3, 4, 5, 6], "min_samples_leaf": [2, 5, 10]},
    "GBC": {"n_estimators": [20, 50], "learning_rate": [0.1, 0.05],
            "max_depth": [2, 3]},
    "Per": {"max_iter": [50, 100, 200]},
}


def method_pack(method_all: Optional[Sequence[str]] = None, me: str = "reg",
                gd: bool = True, *, cv: int = 5,
                parallel: Optional[str] = "ray") -> list:
    """Reference ``method_pack(method_all, me, gd)``
    (quickmethod.py:316-346): build the estimator list the selection
    drivers iterate.  ``gd=True`` wraps every named zoo entry in a
    :class:`GridSearchCV` over its registered default grid with the
    reference's forced scoring (``r2`` for ``me="reg"``,
    ``balanced_accuracy`` for ``me="clf"``); ``gd=False`` returns
    CV-score callables ``f(X, y) -> float`` (the reference's
    ``partial(cross_val_score, ...)`` shape)."""
    if me not in ("reg", "clf"):
        raise ValueError(f"me must be 'reg' or 'clf', got {me!r}")
    zoo = quick_models() if me == "reg" else quick_models_clf()
    grids = _GRIDS_REG if me == "reg" else _GRIDS_CLF
    scoring = "r2" if me == "reg" else "balanced_accuracy"
    names = list(method_all) if method_all else list(zoo)
    unknown = [n for n in names if n not in zoo]
    if unknown:
        raise KeyError(f"unknown zoo entries {unknown}; one of {sorted(zoo)}")

    if gd:
        return [GridSearchCV(zoo[n](), grids[n], cv=cv, scoring=scoring,
                             parallel=parallel) for n in names]

    def make_cv(n):
        factory = zoo[n]
        return lambda X, y: cv_score_any(factory, X, y, k=cv,
                                         scoring=scoring)

    return [make_cv(n) for n in names]
