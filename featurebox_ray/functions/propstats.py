"""Pooled-statistic kernel library — batch-vectorized re-implementation of
the reference's ``PropertyStats`` (featurebox/featurizers/extrastats.py:20-349)
with its exact edge-case semantics, generalized from "one list per record" to
2-D arrays (rows × members) so one numpy call covers a whole Arrow batch.

Reproduced edge semantics (required for allclose parity, SURVEY.md §7.6):

* ``minimum/maximum/prange``: any NaN in the row -> NaN
  (extrastats.py:66,78,90 — reference checks ``np.any(np.isnan(data))``).
* ``std_dev/skewness/kurtosis``: single-member row -> 0
  (extrastats.py:140-142,163-166,192-195).
* weighted ``std_dev``: Bessel-like ``beta = W / (W^2 - sum(w^2))`` factor
  (extrastats.py:146-152); unweighted = population std (``np.std``).
* weighted ``skewness``: ``u3/u2^1.5`` with ``u3 ~ 0 -> 0``; unweighted =
  population skew (scipy.stats.skew semantics, bias=True).
* ``kurtosis``: Pearson (non-Fisher); weighted ``u4/u2^2 * W`` with
  ``u4 ~ 0 -> 0``.
* ``mode``: unweighted = most frequent value, ties -> minimum; weighted =
  min over members whose weight is (close to) the row max.
* ``holder_mean(p)``: p=-1 harmonic, p=0 geometric (weights normalized),
  else ``(sum(w x^p)/W)^(1/p)``.
* ``quantile``: ``np.quantile`` linear interpolation.

All functions take ``X`` of shape (n_rows, k) and optional ``weights`` of the
same shape, and return shape (n_rows,).  NaNs are NOT silently skipped
(matching the reference, which never masks).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "minimum", "maximum", "prange", "mean", "inverse_mean", "avg_dev",
    "std_dev", "skewness", "kurtosis", "geom_std_dev", "mode", "holder_mean",
    "quantile", "sorted_", "flatten", "eigenvalues", "calc_stat",
    "STAT_NAMES",
]


def _as2d(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    return X


def _nan_guard(X: np.ndarray, vals: np.ndarray) -> np.ndarray:
    bad = np.isnan(X).any(axis=1)
    return np.where(bad, np.nan, vals)


def minimum(X, weights=None) -> np.ndarray:
    X = _as2d(X)
    with np.errstate(all="ignore"):
        return _nan_guard(X, np.nanmin(X, axis=1))


def maximum(X, weights=None) -> np.ndarray:
    X = _as2d(X)
    with np.errstate(all="ignore"):
        return _nan_guard(X, np.nanmax(X, axis=1))


def prange(X, weights=None) -> np.ndarray:
    """Reference name ``range`` (shadowed builtin here)."""
    X = _as2d(X)
    with np.errstate(all="ignore"):
        return _nan_guard(X, np.nanmax(X, axis=1) - np.nanmin(X, axis=1))


def mean(X, weights=None) -> np.ndarray:
    X = _as2d(X)
    if weights is None:
        return np.mean(X, axis=1)
    w = _as2d(weights)
    return np.sum(X * w, axis=1) / np.sum(w, axis=1)


def inverse_mean(X, weights=None) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return mean(1.0 / _as2d(X), weights)


def avg_dev(X, weights=None) -> np.ndarray:
    X = _as2d(X)
    m = mean(X, weights)
    return mean(np.abs(X - m[:, None]), weights)


def std_dev(X, weights=None) -> np.ndarray:
    X = _as2d(X)
    if X.shape[1] == 1:
        return np.zeros(X.shape[0])
    if weights is None:
        return np.std(X, axis=1)
    w = _as2d(weights)
    W = np.sum(w, axis=1)
    with np.errstate(all="ignore"):
        beta = W / (W ** 2 - np.sum(w ** 2, axis=1))
        dev = (X - mean(X, w)[:, None]) ** 2
        return np.sqrt(beta * np.sum(dev * w, axis=1))


def skewness(X, weights=None) -> np.ndarray:
    X = _as2d(X)
    if X.shape[1] == 1:
        return np.zeros(X.shape[0])
    m = mean(X, weights)
    d = X - m[:, None]
    if weights is None:
        u2 = np.mean(d ** 2, axis=1)
        u3 = np.mean(d ** 3, axis=1)
    else:
        w = _as2d(weights)
        W = np.sum(w, axis=1)
        u2 = np.sum(w * d ** 2, axis=1) / W
        u3 = np.sum(w * d ** 3, axis=1) / W
    with np.errstate(all="ignore"):
        out = u3 / u2 ** 1.5
    out = np.where(np.isclose(u3, 0), 0.0, out)
    return out


def kurtosis(X, weights=None) -> np.ndarray:
    """Pearson kurtosis (normal -> 3), reference semantics."""
    X = _as2d(X)
    if X.shape[1] == 1:
        return np.zeros(X.shape[0])
    m = mean(X, weights)
    d2 = (X - m[:, None]) ** 2
    if weights is None:
        u2 = np.mean(d2, axis=1)
        u4 = np.mean(d2 ** 2, axis=1)
        with np.errstate(all="ignore"):
            out = u4 / u2 ** 2
        return np.where(np.isclose(u4, 0), 0.0, out)
    w = _as2d(weights)
    W = np.sum(w, axis=1)
    u2 = np.sum(w * d2, axis=1)          # unnormalized, as in reference
    u4 = np.sum(w * d2 ** 2, axis=1)
    with np.errstate(all="ignore"):
        out = u4 / u2 ** 2 * W
    return np.where(np.isclose(u4, 0), 0.0, out)


def geom_std_dev(X, weights=None) -> np.ndarray:
    X = _as2d(X)
    w = _as2d(weights) if weights is not None else np.ones_like(X)
    gmean = holder_mean(X, w, 0.0)
    W = np.sum(w, axis=1)
    with np.errstate(all="ignore"):
        beta = W / (W ** 2 - np.sum(w ** 2, axis=1))
        dev = np.log(X / gmean[:, None])
        return np.sqrt(np.exp(beta * np.sum(w * dev ** 2, axis=1)))


def mode(X, weights=None) -> np.ndarray:
    X = _as2d(X)
    n, k = X.shape
    if weights is None:
        # most frequent value per row; ties -> minimum value
        Xs = np.sort(X, axis=1)
        out = np.empty(n)
        # vectorized run-length count on sorted rows
        new_run = np.ones((n, k), dtype=bool)
        new_run[:, 1:] = Xs[:, 1:] != Xs[:, :-1]
        run_id = np.cumsum(new_run, axis=1) - 1
        best = np.full(n, np.nan)
        best_cnt = np.zeros(n, dtype=np.int64)
        # loop over k (small, member count), not n (rows)
        for j in range(k):
            cnt = np.sum(run_id == run_id[:, j][:, None], axis=1)
            val = Xs[:, j]
            better = (cnt > best_cnt) | ((cnt == best_cnt) & (val < best))
            first = np.isnan(best)
            take = better | first
            best = np.where(take, val, best)
            best_cnt = np.where(take, cnt, best_cnt)
        return best
    w = _as2d(weights)
    wmax = np.max(w, axis=1)
    sel = np.isclose(w, wmax[:, None])
    masked = np.where(sel, X, np.inf)
    return np.min(masked, axis=1)


def holder_mean(X, weights=None, power: float = 1.0) -> np.ndarray:
    X = _as2d(X)
    power = float(power)
    if weights is None:
        if power == -1:
            return X.shape[1] / np.sum(1.0 / X, axis=1)
        if power == 0:
            with np.errstate(all="ignore"):
                return np.exp(np.mean(np.log(X), axis=1))
        with np.errstate(all="ignore"):
            return np.power(np.mean(np.power(X, power), axis=1), 1.0 / power)
    w = _as2d(weights)
    W = np.sum(w, axis=1)
    with np.errstate(all="ignore"):
        if power == -1:
            return W / np.sum(w / X, axis=1)
        if power == 0:
            return np.prod(np.power(X, w / W[:, None]), axis=1)
        return np.power(np.sum(w * np.power(X, power), axis=1) / W, 1.0 / power)


def quantile(X, weights=None, q: float = 0.5) -> np.ndarray:
    return np.quantile(_as2d(X), float(q), axis=1)


def sorted_(X, weights=None) -> np.ndarray:
    """Row-wise sorted copy (reference ``sorted``, extrastats.py:299)."""
    return np.sort(_as2d(X), axis=1)


def flatten(X, weights=None) -> np.ndarray:
    """Flattened copy (reference ``flatten``, extrastats.py:323)."""
    return np.asarray(X, dtype=np.float64).flatten()


def eigenvalues(M, symm: bool = False, sort: bool = False) -> np.ndarray:
    """Eigenvalues of one matrix (reference ``eigenvalues``,
    extrastats.py:307)."""
    M = np.asarray(M, dtype=np.float64)
    eigs = np.linalg.eigvalsh(M) if symm else np.linalg.eigvals(M)
    if sort:
        eigs = np.sort(eigs)
    return eigs


_DISPATCH = {
    "minimum": minimum,
    "maximum": maximum,
    "range": prange,
    "mean": mean,
    "inverse_mean": inverse_mean,
    "avg_dev": avg_dev,
    "std_dev": std_dev,
    "skewness": skewness,
    "kurtosis": kurtosis,
    "geom_std_dev": geom_std_dev,
    "mode": mode,
    "holder_mean": holder_mean,
    "quantile": quantile,
    "sorted": sorted_,
    "flatten": flatten,
    # reference calc_stat dispatches via getattr, so "eigenvalues" is
    # name-reachable there too; its second positional arg is `symm`
    # (calc_stat's weights slot — None ⇒ general eigvals, matching the
    # reference's eigenvalues(data_lst, weights) call shape)
    "eigenvalues": eigenvalues,
}

STAT_NAMES = tuple(_DISPATCH)


def calc_stat(X, stat: str, weights=None) -> np.ndarray:
    """Name-dispatched stat with ``name::arg`` syntax, mirroring
    ``PropertyStats.calc_stat`` (extrastats.py:39-54): e.g.
    ``calc_stat(X, "holder_mean::2")``, ``calc_stat(X, "quantile::0.25")``."""
    parts = stat.split("::")
    fn = _DISPATCH[parts[0]]
    if len(parts) > 1:
        return fn(X, weights, float(parts[1]))
    return fn(X, weights)
