"""Keyed intermediates stay block refs (stages/partition.py:
``partitioned_refs``): no engine function turns a keyed result into a
Dataset only to drain it again, a chained operator drains only its own
input, and a kernel's refusal still raises when the operator is
called."""

import ast
import pathlib

import numpy as np
import pyarrow as pa
import pytest
import ray

from featurebox_ray.stages import partition
from featurebox_ray.stages.interval import session_concurrency

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "featurebox_ray").rglob("*.py")) + [
    ROOT / "__ray_entry__.py"]
DRAINS = {"materialized_block_refs", "partitioned_map", "partitioned_refs",
          "task_exchange"}


def _name(call: ast.Call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _own_nodes(fn: ast.FunctionDef):
    """The nodes of ``fn``'s own scope: nested defs and lambdas are
    their own functions."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _round_trips(tree: ast.Module) -> list:
    """``(line, what)`` for each keyed result a function drains again:
    a ``partitioned_map`` output (bound to a name in that function, or
    nested in the call) passed to ``materialized_block_refs`` or to
    another exchange, and ``ray.data.from_arrow_refs(...)`` passed
    straight into an exchange."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(fn))
        bound = {t.id for n in nodes if isinstance(n, ast.Assign)
                 and isinstance(n.value, ast.Call)
                 and _name(n.value) == "partitioned_map"
                 for t in n.targets if isinstance(t, ast.Name)}
        for call in nodes:
            if not (isinstance(call, ast.Call) and _name(call) in DRAINS
                    and call.args):
                continue
            first = call.args[0]
            items = first.elts if isinstance(first, ast.List) else [first]
            for item in items:
                if isinstance(item, ast.Name) and item.id in bound:
                    found.append((call.lineno, f"{item.id} -> {_name(call)}"))
                if isinstance(item, ast.Call) and _name(item) in (
                        "partitioned_map", "from_arrow_refs"):
                    found.append((call.lineno,
                                  f"{_name(item)}(...) -> {_name(call)}"))
    return found


def test_no_keyed_result_is_drained_again():
    """The engine hands a keyed result it consumes itself on as the
    exchange's refs (``partitioned_refs``), never as a Dataset it
    drains again."""
    found = [f"{path.relative_to(ROOT)}:{line} {what}"
             for path in SOURCES
             for line, what in _round_trips(ast.parse(path.read_text()))]
    assert found == []


def test_round_trip_finder_sees_each_shape():
    src = '''
def redrain(ds):
    out = partitioned_map(ds, k, key="a", sort_keys=["a"])
    return materialized_block_refs(out)

def chained(ds):
    mid = partitioned_map(ds, k, key="a", sort_keys=["a"])
    return partitioned_map([mid, ds], k, key="b", sort_keys=[["b"], ["b"]])

def wrapped(refs):
    return partitioned_map(ray.data.from_arrow_refs(refs), k, key="a",
                           sort_keys=["a"])

def clean(ds):
    refs = partitioned_refs(ds, k, key="a", sort_keys=["a"])
    return partitioned_map([refs], k, key="b", sort_keys=["b"])
'''
    assert [w for _, w in _round_trips(ast.parse(src))] == [
        "out -> materialized_block_refs", "mid -> partitioned_map",
        "from_arrow_refs(...) -> partitioned_map"]


def _sessions(n_keys: int = 40, seed: int = 3) -> pa.Table:
    rng = np.random.default_rng(seed)
    n = 600
    return pa.table({
        "k": pa.array(rng.integers(0, n_keys, n), pa.int64()),
        "ts": pa.array(np.sort(rng.integers(0, 7_200_000_000, n)),
                       pa.int64()),
        "id": pa.array(np.arange(n), pa.int64())})


def _blocks(t: pa.Table, n: int = 4):
    cut = np.linspace(0, t.num_rows, n + 1).astype(int)
    return ray.data.from_arrow([t.slice(s, e - s)
                                for s, e in zip(cut[:-1], cut[1:])])


@pytest.mark.parametrize("num_partitions", [1, 8])
def test_chained_operator_drains_only_its_input(num_partitions,
                                                monkeypatch):
    """``session_concurrency`` runs two exchanges; the second reads the
    first one's refs, so only the operator's own input drains through
    Ray Data."""
    drains = []
    real = partition._unreserved

    def counting(ds, ordered=False):
        drains.append(ds)
        return real(ds, ordered)

    monkeypatch.setattr(partition, "_unreserved", counting)
    out = session_concurrency(_blocks(_sessions()), key_col="k",
                              ts_col="ts", id_col="id", gap_s=600,
                              width_s=900, num_partitions=num_partitions)
    assert len(drains) == 1
    monkeypatch.undo()
    df = out.to_pandas()
    assert list(df.columns) == ["window", "n_active"]
    assert df["n_active"].sum() > 0


def test_chained_operator_refusal_raises_at_call():
    """A kernel of the first exchange that refuses its partition raises
    its own type when the chained operator is called, not when its
    output is read."""
    with pytest.raises(ValueError, match="max_buckets_per_session=1"):
        session_concurrency(_blocks(_sessions(n_keys=2)), key_col="k",
                            ts_col="ts", id_col="id", gap_s=7200,
                            width_s=60, max_buckets_per_session=1,
                            num_partitions=4)


def test_refs_equal_the_datasets_blocks():
    """``partitioned_refs`` gives the blocks ``partitioned_map``'s
    Dataset holds, partition by partition."""
    ds = _blocks(_sessions())

    def first_rows(t: pa.Table) -> pa.Table:
        return t.slice(0, 3)

    kw = dict(key="k", sort_keys=["k", "ts", "id"], num_partitions=5)
    refs = ray.get(partition.partitioned_refs(ds, first_rows, **kw))
    blocks = [b for b in partition.partitioned_map(ds, first_rows, **kw)
              .iter_internal_ref_bundles() for b in ray.get(b.block_refs)]
    assert len(refs) == 5
    assert [t.to_pylist() for t in refs] == [t.to_pylist() for t in blocks]
