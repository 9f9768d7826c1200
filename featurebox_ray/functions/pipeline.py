"""Sequential estimator composition — the sklearn ``Pipeline`` surface
the reference composes its estimators with (featurebox composes
scalers/selectors/learners via sklearn Pipeline, e.g. the estimator
contract in selection/backforward.py:39; the sandbox has no sklearn, so
this is the duck-typed equivalent over the engine's estimators).

Steps are ``(name, estimator)`` pairs.  Every step before the last must
expose ``fit``/``transform`` (``fit_transform`` is used when present);
the last step may be any estimator (``fit``/``predict``/``score``/...).
Works with BOTH kinds of estimator in this repo:

* numpy-matrix estimators (``selection.models`` zoo,
  ``functions.skflow.SymbolLearning``) — X is an ``np.ndarray``;
* Dataset-level transformers (``stages.normalize.MagnitudeNormalizer``)
  — X is a ``ray.data.Dataset`` and fit takes no y (the y-less call is
  retried automatically).
"""

from __future__ import annotations

import inspect
from typing import List, Sequence, Tuple

import numpy as np


class StandardScaler:
    """Per-column (x - mean) / std numpy transformer (the matrix-level
    counterpart of stages/normalize.py's Dataset-level scaling; reference
    pipelines front their estimators with exactly this step).  Zero-std
    columns pass through unscaled."""

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std
        self.mean_ = None
        self.scale_ = None

    def fit(self, X: np.ndarray, y=None) -> "StandardScaler":
        X = np.asarray(X, np.float64)
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            s = X.std(axis=0)
            self.scale_ = np.where(s > 0, s, 1.0)
        else:
            self.scale_ = np.ones(X.shape[1])
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, np.float64) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, np.float64) * self.scale_ + self.mean_

    def get_params(self, deep: bool = True) -> dict:
        return {"with_mean": self.with_mean, "with_std": self.with_std}

    def set_params(self, **params) -> "StandardScaler":
        for k, v in params.items():
            if not hasattr(self, k):
                raise ValueError(f"unknown parameter {k!r}")
            setattr(self, k, v)
        return self


def _accepts_y(fn) -> bool:
    """Whether a fit/fit_transform callable takes a second positional
    (the target) — decided from the signature, NOT by catching
    TypeError (which would mask genuine TypeErrors raised inside fit and
    mis-retry them without y)."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return True  # builtins/extensions: assume the sklearn signature
    pos = [p for p in sig.parameters.values()
           if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return (len(pos) >= 2 or "y" in sig.parameters
            or any(p.kind == p.VAR_POSITIONAL
                   for p in sig.parameters.values()))


def _fit_step(est, X, y):
    """fit with y when the signature takes one (Dataset-level
    transformers like MagnitudeNormalizer take only the data)."""
    if y is not None and _accepts_y(est.fit):
        return est.fit(X, y)
    return est.fit(X)


class Pipeline:
    """``Pipeline([("scale", StandardScaler()), ("learn", est)])`` —
    sequential fit/transform chaining with the sklearn call surface:
    ``fit``, ``predict``, ``transform``, ``fit_transform``, ``score``,
    ``get_params``/``set_params`` (nested ``step__param`` keys),
    ``named_steps``, and ``__getitem__`` by index or name."""

    def __init__(self, steps: Sequence[Tuple[str, object]]):
        steps = list(steps)
        if not steps:
            raise ValueError("Pipeline needs at least one step")
        names = [n for n, _ in steps]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate step names: {names}")
        for n, est in steps[:-1]:
            if est != "passthrough" and not hasattr(est, "transform"):
                raise TypeError(
                    f"intermediate step {n!r} ({type(est).__name__}) has no "
                    "transform(); only the LAST step may be a pure estimator")
        self.steps: List[Tuple[str, object]] = steps

    # -- composition plumbing ------------------------------------------
    @property
    def named_steps(self) -> dict:
        return dict(self.steps)

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.named_steps[key]
        return self.steps[key][1]

    def __len__(self) -> int:
        return len(self.steps)

    def _transform_through(self, X, upto: int):
        for _, est in self.steps[:upto]:
            if est == "passthrough":
                continue
            X = est.transform(X)
        return X

    # -- estimator surface ---------------------------------------------
    def fit(self, X, y=None) -> "Pipeline":
        Xt = X
        for _, est in self.steps[:-1]:
            if est == "passthrough":
                continue
            if hasattr(est, "fit_transform"):
                Xt = est.fit_transform(Xt, y) \
                    if y is not None and _accepts_y(est.fit_transform) \
                    else est.fit_transform(Xt)
            else:
                _fit_step(est, Xt, y)
                Xt = est.transform(Xt)
        _fit_step(self.steps[-1][1], Xt, y)
        return self

    def predict(self, X):
        Xt = self._transform_through(X, len(self.steps) - 1)
        return self.steps[-1][1].predict(Xt)

    def transform(self, X):
        return self._transform_through(X, len(self.steps))

    def fit_transform(self, X, y=None):
        return self.fit(X, y).transform(X)

    def score(self, X, y):
        last = self.steps[-1][1]
        Xt = self._transform_through(X, len(self.steps) - 1)
        if hasattr(last, "score"):
            return last.score(Xt, y)
        pred = np.asarray(last.predict(Xt))
        y = np.asarray(y)
        if (hasattr(last, "classes_")  # classifiers with int labels too
                or pred.dtype.kind in "OUSb" or y.dtype.kind in "OUSb"):
            return float(np.mean(pred == y))          # accuracy
        from ..selection.models import r2_score

        return r2_score(y, pred)

    # -- params --------------------------------------------------------
    def get_params(self, deep: bool = True) -> dict:
        out = {"steps": self.steps}
        if deep:
            for name, est in self.steps:
                if est == "passthrough" or not hasattr(est, "get_params"):
                    continue
                for k, v in est.get_params().items():
                    out[f"{name}__{k}"] = v
        return out

    def set_params(self, **params) -> "Pipeline":
        if "steps" in params:
            self.steps = list(params.pop("steps"))
        by_name = self.named_steps
        for key, v in params.items():
            name, _, sub = key.partition("__")
            if not sub or name not in by_name:
                raise ValueError(f"unknown parameter {key!r}")
            by_name[name].set_params(**{sub: v})
        return self
