"""Vectorized expression-feature engine — clean-room re-expression of the
reference's GP symbolic layer (SURVEY.md §2.10; featurebox/symbol/base.py,
gp.py, flow.py) on numpy + Ray task fan-outs.

An expression is a nested tuple tree::

    ("mul", ("add", ("x", 0), ("x", 1)), ("sub", ("x", 2), ("x", 3)))

* :func:`eval_expr` evaluates a tree over a list of column arrays in one
  vectorized pass (the reference lambdifies sympy to numpy —
  symbol/calculation/scores.py:40-41; we skip sympy entirely).
* :func:`dim_of_expr` folds :class:`~featurebox_ray.functions.dims.Dim`
  bottom-up (dim validation, ref dimfunc.py:29-111).
* :func:`fit_score` fits the reference's outer coefficients (a·expr + b via
  least squares — ref symbol/calculation/coefficient.py) and returns r².
* :func:`enumerate_height2` reproduces the reference's golden-recovery
  enumeration (Instances/Instance2_efficient/height_2.py:12-46).
* :class:`SymbolicSearch` is the evolution loop: generation on the driver,
  fitness evaluation fanned out as Ray tasks over the broadcast column
  block (ref flow.py:294-360 / base.py:1390-1420).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import ray

from .dims import Dim

UNARY = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": lambda v: np.exp(np.clip(v, -50, 50)),
    "ln": lambda v: np.log(np.abs(v) + 1e-300),
    "abs": np.abs,
    "neg": np.negative,
    "rec": lambda v: 1.0 / np.where(v == 0, np.nan, v),
    "rem": lambda v: 1.0 - v,  # reference Rem (symfunc.py: 1 - x)
    "sqrt": lambda v: np.sqrt(np.abs(v)),
    "sq": lambda v: v * v,
    "cube": lambda v: v * v * v,
}
BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": lambda a, b: a / np.where(b == 0, np.nan, b),
}
_POW = {"sqrt": 0.5, "sq": 2.0, "cube": 3.0}
_TRANS = {"sin", "cos", "exp", "ln"}


def _flat(x):
    return np.sum(x, axis=0) if getattr(x, "ndim", 1) == 2 else x


def _comp(x):
    return np.prod(x, axis=0) if getattr(x, "ndim", 1) == 2 else x


def _diff(x):
    if getattr(x, "ndim", 1) == 2 and x.shape[0] == 2:
        return x[0] - x[1]
    return x


def _quot(x):
    if getattr(x, "ndim", 1) == 2 and x.shape[0] == 2:
        return x[0] / x[1]
    return x


def _conv(x):
    if getattr(x, "ndim", 1) == 2 and x.shape[0] == 2:
        return np.stack((x[1], x[0]))
    return x


#: group-dispose operators over PACKED group terminals (a terminal bound to
#: a 2-D ``(group_size, n)`` array — see :func:`pack_groups`).  Semantics
#: mirror the reference's np_map() exactly (symbol/functions/npfunc.py:3-61):
#: madd/Flat sums group members, mmul/Comp multiplies them, msub/Diff and
#: mdiv/Quot act on 2-member groups (identity otherwise), conv swaps a
#: 2-member group's rows, self is identity.  All are no-ops on 1-D input.
DISPOSE = {
    "madd": _flat,
    "mmul": _comp,
    "msub": _diff,
    "mdiv": _quot,
    "conv": _conv,
    "self": lambda x: x,
}


def eval_expr(expr, cols: Sequence[np.ndarray],
              params: Optional[np.ndarray] = None) -> np.ndarray:
    """Evaluate a tuple tree over column arrays.  A column may be 2-D
    (a packed group, reference ``x_group``) — scalar ops broadcast over
    the group axis and DISPOSE ops reduce it.  ``("k", i, sub)`` nodes
    multiply the subtree by ``params[i]`` (inner coefficients)."""
    op = expr[0]
    if op == "x":
        return cols[expr[1]]
    if op == "c":
        return np.full(np.shape(cols[0])[-1], float(expr[1]), dtype=np.float64)
    if op == "k":
        return params[expr[1]] * eval_expr(expr[2], cols, params)
    if op in UNARY:
        return UNARY[op](eval_expr(expr[1], cols, params))
    if op in DISPOSE:
        return DISPOSE[op](eval_expr(expr[1], cols, params))
    if op in BINARY:
        return BINARY[op](eval_expr(expr[1], cols, params),
                          eval_expr(expr[2], cols, params))
    raise ValueError(f"unknown op {op}")


def pack_groups(cols: Sequence[np.ndarray], x_group):
    """Reference ``SymbolSet._group`` analog (symbol/base.py:461-480):
    pack grouped columns into 2-D ``(len(g), n)`` terminals.

    ``x_group``: an int g (consecutive chunks of g columns) or explicit
    index lists; groups of < 2 columns are dropped (stay single).  Returns
    (new_cols, names): ungrouped singles keep their original order, then
    one packed terminal per group (named ``gx{i}``), matching the
    reference's terminal-dict rebuild."""
    n = len(cols)
    if isinstance(x_group, int):
        assert n > x_group > 1, "group size must be in (1, n_cols)"
        idx = list(range(n))
        x_group = [idx[i:i + x_group] for i in range(0, n, x_group)]
    x_group = [g for g in x_group if len(g) >= 2]
    grouped = {j for g in x_group for j in g}
    new_cols = [cols[j] for j in range(n) if j not in grouped]
    names = [f"x{j}" for j in range(n) if j not in grouped]
    for i, g in enumerate(x_group):
        new_cols.append(np.stack([np.asarray(cols[j], np.float64) for j in g]))
        names.append(f"gx{i}")
    return new_cols, names


def dim_of_expr(expr, dims: Sequence[Dim],
                group_sizes: Optional[Sequence[int]] = None) -> Dim:
    """Fold dims bottom-up.  ``group_sizes[i]`` is the member count of
    terminal i (1 = scalar); dispose dims depend on it — group members
    share one dim, so madd preserves d, mmul of an s-member group yields
    d**s, msub/mdiv act only on 2-member groups (identity otherwise,
    mirroring the numpy semantics)."""
    return _dim_size_of(expr, dims, group_sizes)[0]


def _dim_size_of(expr, dims, gs) -> Tuple[Dim, int]:
    op = expr[0]
    if op == "x":
        return dims[expr[1]], (int(gs[expr[1]]) if gs is not None else 1)
    if op == "c":
        return Dim.dless(), 1
    if op == "k":
        return _dim_size_of(expr[2], dims, gs)
    if op in DISPOSE:
        d, s = _dim_size_of(expr[1], dims, gs)
        if op in ("self", "conv"):
            return d, s
        if op == "madd":
            return d, 1
        if op == "mmul":
            return d ** s, 1
        # msub / mdiv: defined for 2-member groups, identity otherwise
        if s == 2:
            return (d, 1) if op == "msub" else (Dim.dless(), 1)
        return d, s
    if op in UNARY:
        d, s = _dim_size_of(expr[1], dims, gs)
        if op in _TRANS:
            return d.func(), s
        if op in _POW:
            return d ** _POW[op], s
        if op == "rec":
            return Dim.dless() / d, s
        if op == "rem":  # 1 - x: the Dim addition rule flags non-dless x
            return Dim.dless() + d, s
        return d, s  # abs / neg
    (a, sa), (b, sb) = (_dim_size_of(expr[1], dims, gs),
                        _dim_size_of(expr[2], dims, gs))
    s = max(sa, sb)  # broadcast keeps the group axis
    if op in ("add", "sub"):
        return a + b, s
    if op == "mul":
        return a * b, s
    return a / b, s


def expr_to_str(expr, names: Optional[Sequence[str]] = None) -> str:
    op = expr[0]
    if op == "x":
        return names[expr[1]] if names else f"x{expr[1]}"
    if op == "c":
        return repr(expr[1])
    if op == "k":
        return f"k{expr[1]}*{expr_to_str(expr[2], names)}"
    if op in UNARY or op in DISPOSE:
        return f"{op}({expr_to_str(expr[1], names)})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    return f"({expr_to_str(expr[1], names)} {sym} {expr_to_str(expr[2], names)})"


def complexity(expr) -> int:
    if expr[0] in ("x", "c"):
        return 1
    if expr[0] == "k":
        return 1 + complexity(expr[2])
    if expr[0] in UNARY or expr[0] in DISPOSE:
        return 1 + complexity(expr[1])
    return 1 + complexity(expr[1]) + complexity(expr[2])


def fit_score(expr, cols, y, dims: Optional[Sequence[Dim]] = None,
              target_dim: Optional[Dim] = None,
              dim_penalty: float = 0.0) -> float:
    """r² of y ≈ a·expr + b (least-squares a, b), with optional dimensional
    penalty when the expression's dim mismatches ``target_dim``."""
    try:
        v = eval_expr(expr, cols)
    except Exception:
        return -np.inf
    if getattr(v, "ndim", 1) != 1:  # undisposed group output
        return -np.inf
    if not np.all(np.isfinite(v)) or np.std(v) < 1e-12:
        return -np.inf
    vc = v - v.mean()
    yc = y - y.mean()
    denom = float(vc @ vc)
    a = float(vc @ yc) / denom if denom > 0 else 0.0
    resid = yc - a * vc
    ss_tot = float(yc @ yc)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 0.0
    if dims is not None and target_dim is not None:
        # group sizes come straight from the bound columns (2-D = packed
        # group), so dispose dims fold with the true member counts
        gs = [c.shape[0] if getattr(c, "ndim", 1) == 2 else 1 for c in cols]
        d = dim_of_expr(expr, dims, gs)
        if d.is_nan or not (d == target_dim):
            r2 -= dim_penalty
    return r2


def apply_expression(ds, expr, *, columns: Sequence, out_col: str,
                     batch_size: int = 65536,
                     params: Optional[np.ndarray] = None):
    """Promote an expression to a Dataset column — the reference's
    ``add_tree_to_features`` (symbol/base.py:695-751) re-expressed as a
    stateless vectorized ``map_batches``: terminals ``("x", i)`` bind to
    ``columns[i]`` of each Arrow batch.  An entry of ``columns`` may be a
    LIST of column names — that terminal binds to the packed 2-D group
    (reference ``x_group``) for DISPOSE ops.  ``params`` supplies fitted
    inner coefficients for ``("k", i, ...)`` nodes."""
    columns = list(columns)

    def kernel(batch: pa.Table) -> pa.Table:
        cols = []
        for c in columns:
            if isinstance(c, (list, tuple)):
                cols.append(np.stack([
                    batch[cc].to_numpy(zero_copy_only=False).astype(np.float64)
                    for cc in c]))
            else:
                cols.append(batch[c].to_numpy(zero_copy_only=False)
                            .astype(np.float64))
        v = eval_expr(expr, cols, params)
        if getattr(v, "ndim", 1) != 1:
            raise ValueError(
                f"expression output is {v.ndim}-D; apply a DISPOSE op "
                "(madd/mmul/msub/mdiv) to reduce the group axis")
        return batch.append_column(out_col, pa.array(v))

    return ds.map_batches(kernel, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=batch_size)


# ---------------------------------------------------------------------------
# inner coefficient fitting (reference add_coefficient + least_squares,
# symbol/calculation/coefficient.py:171-260, 395-405)
# ---------------------------------------------------------------------------


def add_inner_coefficients(expr) -> Tuple[tuple, int]:
    """Attach multiplicative placeholder coefficients the way the
    reference's ``add_coefficient(inner_add=True)`` does: every non-number
    child of an add/sub node — at ANY depth, including inside nonlinear
    ops — gets its own ``("k", i, child)`` wrapper (the reference's
    ``W_i`` on top-level Add args and ``k_i`` on inner Add args).  The
    outer scale/intercept (``A``/``B``) are fitted in closed form by
    :func:`fit_inner_coefficients` and need no placeholder.

    Returns (parameterized tree, n_coefficients)."""
    counter = [0]

    def wrap(e):
        i = counter[0]
        counter[0] += 1
        return ("k", i, walk(e))

    def walk(e):
        op = e[0]
        if op in ("x", "c"):
            return e
        if op in UNARY or op in DISPOSE:
            return (op, walk(e[1]))
        if op in ("add", "sub"):
            return (op,
                    e[1] if e[1][0] == "c" else wrap(e[1]),
                    e[2] if e[2][0] == "c" else wrap(e[2]))
        return (op, walk(e[1]), walk(e[2]))

    return walk(expr), counter[0]


def fit_inner_coefficients(expr, cols, y, *, max_iter: int = 60,
                           tol: float = 1e-10):
    """Fit ``y ≈ a·f(x; k) + b`` where ``f`` is ``expr`` with inner
    coefficients ``k`` (see :func:`add_inner_coefficients`).

    Variable-projection Gauss–Newton: for any ``k``, the outer (a, b) are
    solved in closed form; ``k`` is refined with a finite-difference
    jacobian and a Levenberg damping fallback (numpy only — the sandbox
    has no scipy.optimize).  Returns (k, a, b, r2)."""
    y = np.asarray(y, np.float64)
    pexpr, nk = add_inner_coefficients(expr)

    def project(v):
        """closed-form (a, b, residual, r2) for y ~ a v + b"""
        vc = v - v.mean()
        yc = y - y.mean()
        den = float(vc @ vc)
        a = float(vc @ yc) / den if den > 0 else 0.0
        b = float(y.mean() - a * v.mean())
        resid = y - (a * v + b)
        ss = float(yc @ yc)
        r2 = 1.0 - float(resid @ resid) / ss if ss > 0 else 0.0
        return a, b, resid, r2

    if nk == 0:
        v = eval_expr(expr, cols)
        a, b, _, r2 = project(v)
        return np.empty(0), a, b, r2

    k = np.ones(nk)

    def value(kv):
        v = eval_expr(pexpr, cols, kv)
        return np.where(np.isfinite(v), v, 0.0)

    _, _, resid, best_r2 = project(value(k))
    lam = 1e-3
    for _ in range(max_iter):
        v0 = value(k)
        a, b, resid, r2 = project(v0)
        # finite-difference jacobian of the PROJECTED residual wrt k
        J = np.empty((len(y), nk))
        eps = 1e-6
        for i in range(nk):
            kp = k.copy()
            kp[i] += eps * max(1.0, abs(k[i]))
            vi = value(kp)
            ai, bi, ri, _ = project(vi)
            J[:, i] = (ri - resid) / (kp[i] - k[i])
        g = J.T @ resid
        H = J.T @ J
        step = None
        for _try in range(6):
            try:
                step = np.linalg.solve(H + lam * np.eye(nk), -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            k_new = k + step
            _, _, r_new, r2_new = project(value(k_new))
            if r2_new > r2:
                k = k_new
                lam = max(lam / 10, 1e-12)
                break
            lam *= 10
        else:
            break
        if step is not None and np.max(np.abs(step)) < tol:
            break
    a, b, _, r2 = project(value(k))
    return k, a, b, r2


# ---------------------------------------------------------------------------
# golden-recovery enumeration (height <= 2 binary trees)
# ---------------------------------------------------------------------------


def enumerate_height2(n_features: int, ops: Sequence[str] = ("add", "sub", "mul")):
    """All expressions binop(binop(xi,xj), binop(xk,xl)) plus height-1
    binop(xi,xj) — the reference's exhaustive height-2 recovery space."""
    leaves = [("x", i) for i in range(n_features)]
    h1 = [(o, a, b) for o in ops for a, b in
          itertools.combinations_with_replacement(leaves, 2)]
    # include non-commutative order for sub
    h1 += [(o, b, a) for o in ops if o in ("sub", "div")
           for a, b in itertools.combinations(leaves, 2)]
    yield from h1
    for o in ops:
        for a, b in itertools.combinations_with_replacement(h1, 2):
            yield (o, a, b)
        if o in ("sub", "div"):
            # non-commutative: combinations_with_replacement only emits
            # (a, b) in h1 order, so div(mul(...), add(...)) style trees
            # need the reversed operand order too (appended AFTER the
            # original space, preserving first-max picks on ties)
            for a, b in itertools.combinations(h1, 2):
                yield (o, b, a)


def golden_recover(X: np.ndarray, y: np.ndarray, *, ops=("add", "sub", "mul"),
                   batch_size: int = 2000) -> Tuple[tuple, float]:
    """Exhaustive height-2 search for the best-scoring expression, scored in
    parallel Ray tasks over the broadcast column block."""
    cols = [np.ascontiguousarray(X[:, j], dtype=np.float64) for j in range(X.shape[1])]
    cols_ref = ray.put(cols)
    y_ref = ray.put(np.asarray(y, dtype=np.float64))

    @ray.remote
    def score_chunk(cols_, y_, chunk):
        return [(e, fit_score(e, cols_, y_)) for e in chunk]

    futs = []
    chunk: List[tuple] = []
    for e in enumerate_height2(X.shape[1], ops):
        chunk.append(e)
        if len(chunk) >= batch_size:
            futs.append(score_chunk.remote(cols_ref, y_ref, chunk))
            chunk = []
    if chunk:
        futs.append(score_chunk.remote(cols_ref, y_ref, chunk))
    best, best_s = None, -np.inf
    for part in ray.get(futs):
        for e, s in part:
            if s > best_s or (
                best is not None and s == best_s
                and complexity(e) < complexity(best)
            ) or best is None:
                best, best_s = e, s
    return best, best_s


# ---------------------------------------------------------------------------
# evolution loop
# ---------------------------------------------------------------------------


class PreMap:
    """Terminal-preference map — clean-room analog of the reference's
    pairwise co-occurrence probability matrix biasing GP generation
    (featurebox/symbol/probability/preference.py): row-stochastic matrix
    ``P[i, j]`` = probability of drawing terminal j given the previous
    terminal was i; ``down(i, j)`` multiplicatively de-emphasizes a pair
    and re-normalizes rows (reference invariant: rows keep summing to 1).

    ``weights`` adds the reference's MARGINAL terminal probabilities
    (per-terminal prob map, e.g. domain prior over features): the first /
    context-free draw samples from the normalized weights instead of
    uniform, and conditional rows start proportional to them."""

    def __init__(self, n_features: int, seed: int = 0,
                 weights: Optional[Sequence[float]] = None):
        self.n = n_features
        if weights is None:
            self.w = np.full(n_features, 1.0 / n_features)
        else:
            w = np.asarray(weights, np.float64)
            assert len(w) == n_features and (w >= 0).all() and w.sum() > 0
            self.w = w / w.sum()
        self.P = np.tile(self.w, (n_features, 1))

    def down(self, i: int, j: int, factor: float = 0.5) -> "PreMap":
        self.P[i, j] *= factor
        if i != j:  # the diagonal is ONE pair — don't square the factor
            self.P[j, i] *= factor
        self.P /= self.P.sum(axis=1, keepdims=True)
        return self

    def up(self, i: int, j: int, factor: float = 2.0) -> "PreMap":
        return self.down(i, j, factor)

    def draw(self, rng, prev: Optional[int]) -> int:
        if prev is None:
            return int(rng.choice(self.n, p=self.w))
        return int(rng.choice(self.n, p=self.P[prev]))


def _random_tree(rng, n_features, depth, un_ops, bin_ops,
                 premap: Optional[PreMap] = None, prev_terminal=None):
    if depth <= 0 or rng.random() < 0.3:
        if premap is not None:
            return ("x", premap.draw(rng, prev_terminal))
        return ("x", int(rng.integers(0, n_features)))
    if un_ops and rng.random() < 0.25:
        return (un_ops[rng.integers(0, len(un_ops))],
                _random_tree(rng, n_features, depth - 1, un_ops, bin_ops,
                             premap, prev_terminal))
    op = bin_ops[rng.integers(0, len(bin_ops))]
    left = _random_tree(rng, n_features, depth - 1, un_ops, bin_ops,
                        premap, prev_terminal)
    # bias the right subtree's terminals by the left's first terminal
    def first_terminal(e):
        if e[0] == "x":
            return e[1]
        if e[0] in UNARY:
            return first_terminal(e[1])
        if e[0] in BINARY:
            return first_terminal(e[1])
        return None

    return (op, left,
            _random_tree(rng, n_features, depth - 1, un_ops, bin_ops,
                         premap, first_terminal(left)))


def _mut_node(rng, expr, nf, un_ops, bin_ops, premap=None):
    """Node replacement (reference mutNodeReplacement, flow.py
    MutilMutateLoop.mutate0): swap ONE node's operator for another of the
    same arity, keeping the children; terminals redraw their index (via
    the configured premap's marginals when one is set, so the terminal
    bias survives past the initial population)."""
    paths = list(_subtrees(expr))
    p, e = paths[rng.integers(0, len(paths))]
    if e[0] == "x":
        new = ("x", premap.draw(rng, None)) if premap is not None \
            else ("x", int(rng.integers(0, nf)))
    elif e[0] in UNARY:
        if not un_ops:
            return expr
        new = (un_ops[rng.integers(0, len(un_ops))], e[1])
    elif e[0] in BINARY:
        if not bin_ops:
            return expr
        new = (bin_ops[rng.integers(0, len(bin_ops))], e[1], e[2])
    else:
        return expr
    return _replace(expr, p, new)


def _mut_shrink(rng, expr):
    """Shrink (reference mutShrink, flow.py mutate2): collapse a random
    internal node to one of the terminals beneath it."""
    paths = [(p, e) for p, e in _subtrees(expr)
             if e[0] in UNARY or e[0] in BINARY]
    if not paths:
        return expr
    p, e = paths[rng.integers(0, len(paths))]
    terms = [t for _, t in _subtrees(e) if t[0] == "x"]
    if not terms:
        return expr
    return _replace(expr, p, terms[rng.integers(0, len(terms))])


def _subtrees(expr, path=()):
    yield path, expr
    if expr[0] in UNARY or expr[0] in DISPOSE:
        yield from _subtrees(expr[1], path + (1,))
    elif expr[0] == "k":
        yield from _subtrees(expr[2], path + (2,))
    elif expr[0] in BINARY:
        yield from _subtrees(expr[1], path + (1,))
        yield from _subtrees(expr[2], path + (2,))


def _replace(expr, path, new):
    if not path:
        return new
    lst = list(expr)
    lst[path[0]] = _replace(expr[path[0]], path[1:], new)
    return tuple(lst)


class SymbolicSearch:
    """Driver-side evolution with Ray-fan-out fitness (tournament select,
    subtree crossover, subtree mutation, hall-of-fame)."""

    def __init__(self, *, pop: int = 500, gens: int = 20, depth: int = 3,
                 un_ops: Sequence[str] = ("sqrt", "sq", "ln"),
                 bin_ops: Sequence[str] = ("add", "sub", "mul", "div"),
                 tournament: int = 3, cx_prob: float = 0.6, mut_prob: float = 0.3,
                 seed: int = 0, batch_size: int = 200,
                 dims: Optional[Sequence[Dim]] = None,
                 target_dim: Optional[Dim] = None, dim_penalty: float = 0.5,
                 premap: Optional["PreMap"] = None,
                 mutations: Sequence[str] = ("subtree",),
                 hall_n: int = 1, dim_force: bool = False):
        self.pop_size, self.gens, self.depth = pop, gens, depth
        self.un_ops, self.bin_ops = list(un_ops), list(bin_ops)
        self.tournament, self.cx_prob, self.mut_prob = tournament, cx_prob, mut_prob
        self.seed, self.batch_size = seed, batch_size
        self.dims, self.target_dim, self.dim_penalty = dims, target_dim, dim_penalty
        self.premap = premap
        # mutation-operator set (reference loop variants, flow.py:363-457:
        # MutilMutateLoop = several operators, OnePointMutateLoop = node
        # replacement only); kinds: subtree / node / shrink
        self.mutations = tuple(mutations)
        self.hall_n = hall_n
        # DimForceLoop (flow.py:432): selection pool restricted to
        # individuals whose dim matches target_dim (when any exist)
        self.dim_force = dim_force
        if dim_force:
            assert dims is not None and target_dim is not None, \
                "dim_force needs dims + target_dim (reference: cal_dim=True)"
        self.best_expr_: Optional[tuple] = None
        self.best_score_: float = -np.inf
        self.hall_: List[Tuple[tuple, float]] = []
        self.history_: List[float] = []

    def _mutate_one(self, rng, e, nf):
        kind = self.mutations[rng.integers(0, len(self.mutations))]
        if kind == "node":
            return _mut_node(rng, e, nf, self.un_ops, self.bin_ops,
                             self.premap)
        if kind == "shrink":
            return _mut_shrink(rng, e)
        st = list(_subtrees(e))
        p, _ = st[rng.integers(0, len(st))]
        # regrown subtrees keep the configured terminal-preference map
        return _replace(e, p, _random_tree(rng, nf, 2, self.un_ops,
                                           self.bin_ops, self.premap))

    def _update_hall(self, pop, fit):
        merged = {expr_to_str(e): (e, float(s))
                  for e, s in self.hall_ + list(zip(pop, map(float, fit)))
                  if np.isfinite(s)}
        self.hall_ = sorted(merged.values(), key=lambda t: -t[1])[:self.hall_n]
        if self.hall_ and self.hall_[0][1] > self.best_score_:
            self.best_expr_, self.best_score_ = self.hall_[0]

    def fit(self, X, y: np.ndarray) -> "SymbolicSearch":
        """``X``: (n, p) matrix, or a pre-packed COLUMN LIST (1-D arrays
        and 2-D ``pack_groups`` terminals) for grouped searches."""
        rng = np.random.default_rng(self.seed)
        if isinstance(X, (list, tuple)):
            cols = [np.asarray(c, dtype=np.float64) for c in X]
            nf = len(cols)
        else:
            nf = X.shape[1]
            cols = [np.ascontiguousarray(X[:, j], dtype=np.float64)
                    for j in range(nf)]
        cols_ref = ray.put(cols)
        y_ref = ray.put(np.asarray(y, dtype=np.float64))
        dims, tdim, dpen = self.dims, self.target_dim, self.dim_penalty

        @ray.remote
        def score_chunk(cols_, y_, chunk):
            return [fit_score(e, cols_, y_, dims, tdim, dpen) for e in chunk]

        def evaluate(pop):
            futs = [score_chunk.remote(cols_ref, y_ref, pop[i:i + self.batch_size])
                    for i in range(0, len(pop), self.batch_size)]
            return np.array([s for b in ray.get(futs) for s in b])

        pop = [_random_tree(rng, nf, self.depth, self.un_ops, self.bin_ops,
                            self.premap)
               for _ in range(self.pop_size)]
        fit = evaluate(pop)
        for g in range(self.gens):
            self._update_hall(pop, fit)
            self.history_.append(self.best_score_)
            if self.best_score_ > 1 - 1e-10:
                break
            # tournament selection
            fitm = np.where(np.isfinite(fit), fit, -1e18)
            if self.dim_force:
                # DimForceLoop: only target-dim individuals enter the
                # selection pool (when at least one exists).  Group sizes
                # come from the bound columns exactly as fit_score's
                # penalty does — the two dim judgements must agree for
                # grouped (x_group) searches
                gsz = [c.shape[0] if getattr(c, "ndim", 1) == 2 else 1
                       for c in cols]
                match = np.array([
                    (lambda d: not d.is_nan and d == tdim)(
                        dim_of_expr(e, dims, gsz)) for e in pop])
                if match.any():
                    fitm = np.where(match, fitm, -1e18)
            idx = rng.integers(0, len(pop), (self.pop_size, self.tournament))
            winners = idx[np.arange(self.pop_size), np.argmax(fitm[idx], axis=1)]
            new = [pop[w] for w in winners]
            # crossover: swap random subtrees between neighbors
            for a in range(0, self.pop_size - 1, 2):
                if rng.random() < self.cx_prob:
                    sa = list(_subtrees(new[a]))
                    sb = list(_subtrees(new[a + 1]))
                    pa, ea = sa[rng.integers(0, len(sa))]
                    pb, eb = sb[rng.integers(0, len(sb))]
                    new[a] = _replace(new[a], pa, eb)
                    new[a + 1] = _replace(new[a + 1], pb, ea)
            # mutation: one of the configured operator kinds per victim
            for a in range(self.pop_size):
                if rng.random() < self.mut_prob:
                    new[a] = self._mutate_one(rng, new[a], nf)
            # elitism: re-seed the hall's survivors
            for hi, (he, _) in enumerate(self.hall_[:min(len(self.hall_),
                                                         self.pop_size)]):
                new[hi] = he
            pop = new
            fit = evaluate(pop)
        # fold the final generation's scores into the hall of fame (they
        # were computed at the loop tail and would otherwise be discarded)
        self._update_hall(pop, fit)
        return self


def multi_mutate_search(**kwargs) -> "SymbolicSearch":
    """Reference ``MutilMutateLoop`` (flow.py:363-397): several mutation
    operators — node replacement, fresh-subtree, shrink — drawn per
    victim."""
    kwargs.setdefault("mutations", ("node", "subtree", "shrink"))
    return SymbolicSearch(**kwargs)


def one_point_mutate_search(**kwargs) -> "SymbolicSearch":
    """Reference ``OnePointMutateLoop`` (flow.py:400-429): node
    replacement only — population tree heights never grow."""
    kwargs.setdefault("mutations", ("node",))
    return SymbolicSearch(**kwargs)


def dim_force_search(*, dims, target_dim, **kwargs) -> "SymbolicSearch":
    """Reference ``DimForceLoop`` (flow.py:432-440): MutilMutateLoop
    mutations + selection restricted to target-dim individuals."""
    kwargs.setdefault("mutations", ("node", "subtree", "shrink"))
    return SymbolicSearch(dims=dims, target_dim=target_dim, dim_force=True,
                          **kwargs)
